"""Byte-identity sweep: the algebra of seeded random commuting tuples,
rendered as text and compared line by line with a committed golden file.

It covers F2, F3, F97 and Q, n = 1..3, ten seeds each, dim <= 9, then
tuples that no single random matrix produces: sums of two points with the
same coordinate minimal polynomials, plain and in seeded random bases,
sums of non-cyclic fat points, single endomorphisms of dim 16..32
made of companion blocks of q^e, with repeated and mixed-degree factors,
in seeded random bases, and random tuples over Q with n = 2, 3 at
dim 16..24, where rational entries grow to dozens of digits.  For each tuple it records the K0 class,
the bases of the primary decomposition, the radical basis and the
annihilator ideal.  Regenerate the golden file,
only when an output change is intended, with

    PYTHONPATH=src python tests/test_sweep.py > tests/data/sweep.txt
"""

import difflib
import random
from pathlib import Path

import pytest

from conftest import conjugate, fat_point, tensor, twisted_points
from endok.bruteforce import random_commuting_tuple
from endok.factor import factor_univariate
from endok.fields import GF, QQ
from endok.ktheory import k0_class
from endok.linalg import Matrix
from endok.modules import CommutingTuple
from endok.poly import UniPoly, render_monomial

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
    return [f"{field!r} n={nvars} seed={seed} dim={dim}"] + render(t)


def render(t):
    field, nvars = t.field, t.nvars
    lines = ["class " + "; ".join(k0_class(t).lines())]
    for sub, _ in t.primary_decomposition():
        lines.append("piece " + render_basis(field, sub.basis))
    lines.append("radical " + render_basis(field, t.radical_submodule().basis))
    ideal = t.annihilator_ideal()
    lines.append("annihilator " + ", ".join(ideal.generator_strings()))
    monos = [render_monomial(m, nvars) or "1" for m in ideal.standard_monomials]
    lines.append("standard " + ", ".join(monos))
    return lines


# irreducible q over each field; over Q, q = t^2 - a (see twisted_points)
TWISTED = [
    UniPoly(GF(2), [1, 1, 1]),
    UniPoly(GF(2), [1, 1, 0, 1]),
    UniPoly(GF(3), [1, 0, 1]),
    UniPoly(GF(97), [92, 0, 1]),
    UniPoly(QQ, [-2, 0, 1]),
]


def rational_point(field, coords):
    return CommutingTuple(field, len(coords), 1, [Matrix(field, [[x]]) for x in coords])


def extra_tuples():
    """(label, tuple) for the two-point and fat-point sums."""
    for q in TWISTED:
        for seed in range(3):
            rng = random.Random(f"twisted {q.field!r} {q} {seed}")
            t = CommutingTuple.direct_sum(*twisted_points(q, rng))
            yield f"{q.field!r} twisted {q} seed={seed} dim={t.dim}", t
            yield f"{q.field!r} twisted {q} seed={seed} conjugated", conjugate(t, rng)
    for field in FIELDS:
        for nvars, power in ((2, 2), (2, 3), (3, 2)):
            fat = fat_point(field, nvars, power)
            pts = [(0,) * nvars, (1,) + (0,) * (nvars - 1)]
            at = [tensor(rational_point(field, pt), fat) for pt in pts]
            rng = random.Random(f"fat {field!r} {nvars} {power}")
            t = conjugate(CommutingTuple.direct_sum(*at), rng)
            yield f"{field!r} fat n={nvars} power={power} dim={t.dim}", t
    for q in TWISTED:
        rng = random.Random(f"fat twisted {q.field!r} {q}")
        fat = fat_point(q.field, 2, 2)
        at = [tensor(pt, fat) for pt in twisted_points(q, rng)]
        t = conjugate(CommutingTuple.direct_sum(*at), rng)
        yield f"{q.field!r} fat twisted {q} dim={t.dim}", t


# (field, [(q, e)]): one endomorphism, the sum of the companion blocks of
# q^e for irreducible q given by coefficients, lowest first
COMPANION_SUMS = [
    (
        GF(2),
        [([1, 1], 3), ([1, 1, 1], 2), ([1, 1, 1], 2), ([1, 1, 0, 1], 1), ([0, 1], 4)],
    ),
    (
        GF(2),
        [
            ([1, 1, 0, 0, 1], 2),
            ([1, 1, 1], 3),
            ([1, 1, 0, 1], 2),
            ([1, 1], 2),
            ([1, 1], 1),
            ([0, 1], 1),
            ([1, 0, 0, 1, 1], 2),
        ],
    ),
    (
        GF(97),
        [
            ([94, 1], 3),
            ([92, 0, 1], 2),
            ([92, 0, 1], 1),
            ([1, 1], 2),
            ([0, 1], 2),
            ([95, 0, 0, 1], 1),
            ([94, 1], 2),
        ],
    ),
    (
        GF(97),
        [
            ([92, 0, 1], 4),
            ([94, 1], 5),
            ([94, 1], 1),
            ([3, 0, 0, 1], 3),
            ([0, 1], 3),
            ([1, 1], 2),
            ([2, 1], 4),
        ],
    ),
    (
        QQ,
        [
            ([-2, 0, 1], 2),
            ([-1, 1], 3),
            ([-1, 1], 1),
            ([2, 0, 0, 1], 1),
            ([0, 1], 2),
            ([1, 0, 1], 2),
        ],
    ),
    (
        QQ,
        [
            ([-2, 0, 1], 3),
            ([3, 1], 2),
            ([2, 0, 0, 1], 2),
            ([0, 1], 3),
            ([-1, 1], 1),
            ([1, 1, 1], 1),
            ([-3, 0, 1], 2),
        ],
    ),
]


# (nvars, dim) of the large random tuples over Q
LARGE_RATIONAL = ((2, 16), (2, 20), (2, 24), (3, 16), (3, 20))


def large_rational_tuples():
    """(label, tuple) for the random tuples over Q past MAX_DIM."""
    for nvars, dim in LARGE_RATIONAL:
        rng = random.Random(f"large {QQ!r}/{nvars}/{dim}")
        t = random_commuting_tuple(QQ, nvars, dim, rng)
        yield f"{QQ!r} large n={nvars} dim={dim}", t


def companion_sums():
    """(label, tuple) for the conjugated companion sums."""
    for field, specs in COMPANION_SUMS:
        blocks = []
        for coeffs, e in specs:
            q = UniPoly(field, coeffs)
            assert q.is_monic and factor_univariate(q) == [(q, 1)], q
            blocks.append(Matrix.companion(q**e))
        m = Matrix.block_diag(field, blocks)
        rng = random.Random(f"companion {field!r} {specs}")
        t = conjugate(CommutingTuple(field, 1, m.rows, [m]), rng)
        yield f"{field!r} companion sum dim={t.dim}", t


def sweep_lines():
    lines = [
        line
        for field in FIELDS
        for nvars in NVARS
        for seed in SEEDS
        for line in tuple_lines(field, nvars, seed)
    ]
    for label, t in (*extra_tuples(), *companion_sums(), *large_rational_tuples()):
        lines += [label] + render(t)
    return lines


def test_sweep_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    got = sweep_lines()
    if got != expected:
        diff = difflib.unified_diff(expected, got, "golden", "now", lineterm="")
        pytest.fail("sweep output changed:\n" + "\n".join(diff), pytrace=False)


if __name__ == "__main__":
    print("\n".join(sweep_lines()))
