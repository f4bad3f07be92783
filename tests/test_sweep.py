"""Byte-identity sweep: the algebra of seeded random commuting tuples,
rendered as text and compared line by line with a committed golden file.

It covers F2, F3, F97 and Q, n = 1..3, ten seeds each, dim <= 9.  For each
tuple it records the K0 class, the bases of the primary decomposition,
the radical basis and the annihilator ideal.  Regenerate the golden file,
only when an output change is intended, with

    PYTHONPATH=src python tests/test_sweep.py > tests/data/sweep.txt
"""

import difflib
import random
from pathlib import Path

import pytest

from endok.bruteforce import random_commuting_tuple
from endok.fields import GF, QQ
from endok.ktheory import k0_class
from endok.poly import render_monomial

FIELDS = [GF(2), GF(3), GF(97), QQ]
NVARS = (1, 2, 3)
SEEDS = range(10)
MAX_DIM = 9
GOLDEN = Path(__file__).parent / "data" / "sweep.txt"


def render_basis(field, basis):
    rows = ";".join("[" + ",".join(field.render(x) for x in row) + "]" for row in basis)
    return f"[{rows}]"


def tuple_lines(field, nvars, seed):
    rng = random.Random(f"{field!r}/{nvars}/{seed}")
    dim = rng.randint(1, MAX_DIM)
    t = random_commuting_tuple(field, nvars, dim, rng)
    lines = [f"{field!r} n={nvars} seed={seed} dim={dim}"]
    lines.append("class " + "; ".join(k0_class(t).lines()))
    for sub, _ in t.primary_decomposition():
        lines.append("piece " + render_basis(field, sub.space.basis))
    lines.append("radical " + render_basis(field, t.radical_submodule().space.basis))
    ideal = t.annihilator_ideal()
    lines.append("annihilator " + ", ".join(ideal.generator_strings()))
    monos = [render_monomial(m, nvars) or "1" for m in ideal.standard_monomials]
    lines.append("standard " + ", ".join(monos))
    return lines


def sweep_lines():
    return [
        line
        for field in FIELDS
        for nvars in NVARS
        for seed in SEEDS
        for line in tuple_lines(field, nvars, seed)
    ]


def test_sweep_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    got = sweep_lines()
    if got != expected:
        diff = difflib.unified_diff(expected, got, "golden", "now", lineterm="")
        pytest.fail("sweep output changed:\n" + "\n".join(diff), pytrace=False)


if __name__ == "__main__":
    print("\n".join(sweep_lines()))
