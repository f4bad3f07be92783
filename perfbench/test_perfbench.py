"""Short checks of the benchmark itself (not of the package).

    PYTHONPATH=src python -m pytest perfbench -q

Each workload runs a small slice: a four-case pool and a fraction of a
second of loop, in both modes.
"""

import json

import pytest

import run

run.load_endok()

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS, LAYER_UNITS = run.metric_units()


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    for wl in WORKLOADS.values():
        monkeypatch.setattr(wl, "pool_size", 4)
    return tmp_path


def _last_line(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_slice_prints_every_metric_with_unit(name, small, capsys):
    argv = ["--workload", name, "--seed", "5", "--seconds", "0.3"]
    result = _last_line(capsys, argv + ["--trace", "0"])
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["correct"] is True
    assert set(result["metrics"]) == set(E2E_UNITS)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == E2E_UNITS[key]
    assert result["metrics"]["ok_frac"]["value"] == 1.0

    traced = _last_line(capsys, argv + ["--trace", "1"])
    assert set(traced["metrics"]) == set(LAYER_UNITS)
    for key, metric in traced["metrics"].items():
        assert metric["unit"] == LAYER_UNITS[key]
    assert (small / f"spans-{name}.json").exists()


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90([0.1 + i / 1000 for i in range(50)]) is None
    assert run.p90([0.1 + i / 1000 for i in range(110)]) is not None


def test_q_tuples_never_reach_the_array_kernels(small, capsys):
    argv = ["--workload", "q-tuples", "--seed", "5", "--seconds", "0.3", "--trace", "1"]
    metrics = _last_line(capsys, argv)["metrics"]
    assert metrics["linalg.array_frac"]["value"] == 0
    assert metrics["kernels.matmul_s"]["value"] == 0
    assert metrics["kernels.rref_s"]["value"] == 0
    assert metrics["parse.parse_s"]["value"] == 0


@pytest.mark.parametrize("name", ["fp-tuples", "single-endo"])
def test_wrong_class_lowers_ok_frac(name, small, capsys, monkeypatch):
    wl = WORKLOADS[name]
    right = wl.op
    monkeypatch.setattr(wl, "op", lambda case: right(case) + right(case))
    argv = ["--workload", name, "--seed", "5", "--seconds", "0.3", "--trace", "0"]
    result = _last_line(capsys, argv)
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert result["failed"] >= 1 and result["correct"] is False


def test_wrong_cli_output_lowers_ok_frac(small, capsys, monkeypatch):
    wl = WORKLOADS["cli-mix"]
    right = wl.op

    def corrupt(case):
        code, text = right(case)
        doc = json.loads(text)
        if "layer_dims" in doc:
            doc["layer_dims"].append(1)
        elif "generators" in doc:
            doc["generators"] = doc["generators"][1:]
        elif "class" in doc:
            doc["class"][0]["multiplicity"] += 1
        else:
            doc["pieces"][0]["dim"] += doc["pieces"][0]["residue_degree"]
        return code, json.dumps(doc)

    monkeypatch.setattr(wl, "op", corrupt)
    argv = ["--workload", "cli-mix", "--seed", "5", "--seconds", "0.3", "--trace", "0"]
    result = _last_line(capsys, argv)
    assert result["metrics"]["ok_frac"]["value"] == 0


def test_inputs_depend_on_the_seed_alone(small):
    wl = WORKLOADS["q-tuples"]
    first = [c.text for c in wl.build(9)]
    assert first == [c.text for c in wl.build(9)]
    assert first != [c.text for c in wl.build(10)]
    assert workloads.OP_SEED == 0
