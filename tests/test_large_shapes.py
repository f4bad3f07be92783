"""Byte-identity at the large shapes: tuples of dim 24..64 over Q, F_97 and
F_1048583, rendered as ``test_sweep.py`` renders its tuples and compared
line by line with a committed golden file.

The sweep stops at dim 32 and small primes.  These cases reach what it
does not: Q pairs and triples at dim 24..40, one with entries of height
10^3, whose charpolys run on stacks of many CRT primes; F_97 triples at
dim 48..64; and a pair over F_1048583, whose residues live on ``object``
arrays.  Each is built from the conftest builders: sums of simple and
twisted points, most tensored with fat points, in a seeded random
basis.  Regenerate the golden file, only when an output change is
intended, with

    PYTHONPATH=src python tests/test_large_shapes.py > tests/data/large_shapes.txt
"""

import difflib
import random
from pathlib import Path

import pytest

from conftest import conjugate, fat_point, simple_point, tensor, twisted_points
from endok.factor import factor_univariate
from endok.fields import GF, QQ
from endok.modules import CommutingTuple
from endok.poly import UniPoly
from test_sweep import render

GOLDEN = Path(__file__).parent / "data" / "large_shapes.txt"


def irreducible(field, coeffs):
    q = UniPoly(field, coeffs)
    assert factor_univariate(q) == [(q, 1)], q
    return q


def poly(field, rng, degree, height):
    return UniPoly(field, [rng.randint(-height, height) for _ in range(degree + 1)])


def simple(q, nvars, rng, height=3):
    """A simple point of q with nvars - 1 random partners."""
    hs = [poly(q.field, rng, q.degree - 1, height) for _ in range(nvars - 1)]
    return simple_point(q, hs, rng)


def fat_at(points, nvars, power):
    """The sum of the points, each tensored with the fat point of that
    power: a fat point at each of them."""
    field = points[0].field
    fat = fat_point(field, nvars, power)
    return CommutingTuple.direct_sum(*(tensor(pt, fat) for pt in points))


def cases():
    """(label, tuple) for each large shape."""
    Q, F97, FL = QQ, GF(97), GF(1048583)

    def rng(label):
        return random.Random(f"large shape {label}")

    r = rng("Q twisted")
    yield "Q n=2 twisted fat", conjugate(
        fat_at(twisted_points(irreducible(Q, [-2, 0, 1]), r), 2, 3), r
    )
    r = rng("Q simple 8")
    q8 = irreducible(Q, [-2, 0, 0, 0, 0, 0, 0, 0, 1])
    t = CommutingTuple.direct_sum(fat_at([simple(q8, 2, r)], 2, 2), simple(q8, 2, r))
    yield "Q n=2 simple sum", conjugate(t, r)
    r = rng("Q mixed 40")
    q4 = irreducible(Q, [-3, 0, 0, 0, 1])
    t = CommutingTuple.direct_sum(
        fat_at([simple(q4, 2, r)], 2, 3), fat_at([simple(q4, 2, r)], 2, 2), simple(q4, 2, r)
    )
    yield "Q n=2 mixed", conjugate(t, r)
    r = rng("Q n=3")
    q3 = irreducible(Q, [-2, 0, 0, 1])
    yield "Q n=3 simple fat", conjugate(fat_at([simple(q3, 3, r), simple(q3, 3, r)], 3, 2), r)
    r = rng("Q n=3 wide")
    q2 = irreducible(Q, [-5, 0, 1])
    t = CommutingTuple.direct_sum(fat_at([simple(q2, 3, r)], 3, 3), fat_at([simple(q3, 3, r)], 3, 2))
    yield "Q n=3 mixed", conjugate(t, r)
    r = rng("Q height")
    t = fat_at([simple(q4, 2, r, 1000), simple(q4, 2, r, 1000)], 2, 2)
    yield "Q n=2 height 10^3", conjugate(t, r)

    r = rng("F97 48")
    q12 = irreducible(F97, [6, 4] + [0] * 10 + [1])
    yield "F97 n=3 simple fat", conjugate(fat_at([simple(q12, 3, r)], 3, 2), r)
    r = rng("F97 56")
    q4 = irreducible(F97, [1, 4, 0, 0, 1])
    t = CommutingTuple.direct_sum(fat_at([simple(q4, 3, r)], 3, 3), fat_at([simple(q4, 3, r)], 3, 2))
    yield "F97 n=3 mixed", conjugate(t, r)
    r = rng("F97 60")
    q6 = irreducible(F97, [4, 3, 0, 0, 0, 0, 1])
    yield "F97 n=3 simple fat 60", conjugate(fat_at([simple(q6, 3, r)], 3, 3), r)
    r = rng("F97 64")
    q16 = irreducible(F97, [4, 4] + [0] * 14 + [1])
    yield "F97 n=3 simple fat 64", conjugate(fat_at([simple(q16, 3, r)], 3, 2), r)

    r = rng("F1048583")
    q4 = irreducible(FL, [1, 1, 0, 0, 1])
    t = fat_at([simple(q4, 2, r), simple(q4, 2, r)], 2, 3)
    yield "F1048583 n=2 simple fat", conjugate(t, r)


def golden_lines():
    lines = []
    for label, t in cases():
        lines += [f"{label} dim={t.dim}"] + render(t)
    return lines


def test_large_shapes_match_golden():
    expected = GOLDEN.read_text().splitlines()
    got = golden_lines()
    if got != expected:
        diff = difflib.unified_diff(expected, got, "golden", "now", lineterm="")
        pytest.fail("large-shape output changed:\n" + "\n".join(diff), pytrace=False)


if __name__ == "__main__":
    print("\n".join(golden_lines()))
