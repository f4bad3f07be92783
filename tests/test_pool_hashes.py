"""The outputs of the benchmark's four workloads, pinned by hash.

Every op of every pool on seeds 1-4 is run in-process, as
``perfbench/workloads.py`` builds and runs it, and the sha256 of its
output is compared with ``tests/data/pool_hashes.json``: for a class
workload the lines of the ``GrothendieckClass``, for cli-mix the exit
code and stdout.  A change that is meant to leave outputs alone leaves
every hash alone; one that changes an output changes the file, with

    PYTHONPATH=src python tests/test_pool_hashes.py

which rewrites it from the current tree.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = str(ROOT / "perfbench")
HASHES = ROOT / "tests" / "data" / "pool_hashes.json"
SEEDS = (1, 2, 3, 4)

if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import workloads  # noqa: E402


def _digest(name, output):
    if name == "cli-mix":
        code, stdout = output
        text = f"{code}\n{stdout}"
    else:
        text = "\n".join(output.lines())
    return hashlib.sha256(text.encode()).hexdigest()


def pool_hashes(name, seed):
    """The sha256 of each op output of the workload's pool on seed."""
    wl = workloads.WORKLOADS[name]
    return [_digest(name, wl.op(case)) for case in wl.build(seed)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_outputs_match_their_hashes(name):
    expected = json.loads(HASHES.read_text())[name]
    assert sorted(expected) == [str(s) for s in SEEDS]
    for seed in SEEDS:
        got = pool_hashes(name, seed)
        want = expected[str(seed)]
        assert len(got) == len(want)
        changed = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not changed, f"{name} seed {seed}: ops {changed} changed output"


if __name__ == "__main__":
    table = {
        name: {str(seed): pool_hashes(name, seed) for seed in SEEDS}
        for name in sorted(workloads.WORKLOADS)
    }
    HASHES.write_text(json.dumps(table, indent=1) + "\n")
