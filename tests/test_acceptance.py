"""Acceptance suite: every criterion at full stated scale, exact equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with its runtime.
"""

import random
import subprocess
import sys
import time
from itertools import product

from endok.bruteforce import k0_class_oracle, random_commuting_tuple, random_vector
from endok.cli import main
from endok.factor import factor_univariate
from endok.fields import GF, QQ
from endok.ktheory import (
    GrothendieckClass,
    TildeClass,
    compare_splittings,
    free_abelian_to_tilde,
    k0_class,
    lambda_t,
    principal_maximal_key,
    tilde_to_free_abelian,
    verify_additivity,
)
from endok.linalg import Matrix
from endok.modules import CommutingTuple
from endok.poly import UniPoly

from conftest import src_env

F2, F3, F5 = GF(2), GF(3), GF(5)
FIELDS = [F2, F3, F5, QQ]


def report(num, name, ok, elapsed, limit=None):
    verdict = "PASS" if ok else "FAIL"
    budget = f" (limit {limit}s)" if limit else ""
    print(f"\nACCEPTANCE {num} {name}: {verdict} in {elapsed:.1f}s{budget}")
    assert ok, f"criterion {num} ({name}) failed"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def rand_dense_matrix(field, rng, d):
    if field.is_prime_field:
        p = field.characteristic
        return Matrix(field, [[rng.randrange(p) for _ in range(d)] for _ in range(d)])
    return Matrix(field, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    ok = True
    # (a) every single 3x3 matrix over F_2
    count = 0
    for bits in product((0, 1), repeat=9):
        m = Matrix(F2, [bits[0:3], bits[3:6], bits[6:9]])
        t = CommutingTuple(F2, 1, 3, [m])
        ok = ok and k0_class(t) == k0_class_oracle(t)
        count += 1
    assert count == 512
    # (b) 100 random commuting pairs over F_2 and F_3, dim <= 4
    rng = random.Random(1001)
    for i in range(100):
        field = F2 if i % 2 else F3
        t = random_commuting_tuple(field, 2, rng.randint(1, 4), rng)
        ok = ok and k0_class(t) == k0_class_oracle(t)
    report(1, "oracle equivalence", ok, time.time() - t0, limit=60)


def test_criterion_2_dimension_bookkeeping():
    t0 = time.time()
    rng = random.Random(1002)
    ok = True
    for i in range(500):
        field = FIELDS[i % 4]
        t = random_commuting_tuple(field, rng.randint(1, 3), rng.randint(0, 6), rng)
        cls = k0_class(t)
        total = sum(m * k.residue_degree for k, m in cls.items())
        ok = ok and total == t.dim and all(m > 0 for _, m in cls.items())
    report(2, "dimension bookkeeping", ok, time.time() - t0, limit=60)


def _two_hundred_tuples():
    rng = random.Random(1003)
    tuples = []
    for i in range(200):
        field = FIELDS[i % 4]
        tuples.append(
            (rng, random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 5), rng))
        )
    return rng, [t for _, t in tuples]


def test_criterion_3_additivity():
    t0 = time.time()
    rng, tuples = _two_hundred_tuples()
    ok = True
    for t in tuples:
        for _ in range(3):
            s = t.generated_submodule([random_vector(t.field, t.dim, rng)])
            ok = ok and verify_additivity(t, s)
    report(3, "K0 additivity", ok, time.time() - t0, limit=60)


def test_criterion_4_devissage():
    t0 = time.time()
    rng, tuples = _two_hundred_tuples()
    ok = True
    for t in tuples:
        total = GrothendieckClass.zero(t.field, t.nvars)
        for layer in t.radical_filtration():
            total = total + k0_class(layer)
        ok = ok and total == k0_class(t)
    report(4, "devissage", ok, time.time() - t0)


def test_criterion_5_splitting_compatibility():
    t0 = time.time()
    rng = random.Random(1005)
    ok = True
    for field in FIELDS:
        for _ in range(200):
            d = rng.randint(0, 6)
            t = CommutingTuple(field, 1, d, [rand_dense_matrix(field, rng, d)])
            ok = ok and compare_splittings(t)
    # constructed cases: block multiplicativity and nilpotents
    for field in FIELDS:
        for _ in range(20):
            f = rand_dense_matrix(field, rng, rng.randint(1, 4))
            g = rand_dense_matrix(field, rng, rng.randint(1, 4))
            both = Matrix.block_diag(field, [f, g])
            ok = ok and lambda_t(both) == lambda_t(f) * lambda_t(g)
        for d in range(1, 5):
            n = Matrix(
                field, [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d)]
            )
            ok = ok and lambda_t(n).is_one
    report(5, "splitting compatibility (n=1)", ok, time.time() - t0)


def test_criterion_6_tilde_free_abelian():
    t0 = time.time()
    ok = True
    for field in (QQ, F5):
        rng = random.Random(1006)

        def rand_ct1(max_deg=8):
            coeffs = [field.one] + [
                field.random_scalar(rng) for _ in range(rng.randint(0, max_deg))
            ]
            return UniPoly(field, coeffs)

        for _ in range(100):
            a = TildeClass(rand_ct1(), rand_ct1())
            b = TildeClass(rand_ct1(), rand_ct1())
            image = tilde_to_free_abelian(a * b)
            ok = ok and image == tilde_to_free_abelian(a) + tilde_to_free_abelian(
                b
            )
            ok = ok and free_abelian_to_tilde(tilde_to_free_abelian(a)) == a
        # the other round trip, on classes over random irreducibles != t
        irreducibles = []
        seen = set()
        while len(irreducibles) < 5:
            q = UniPoly(
                field,
                [field.random_scalar(rng) for _ in range(rng.randint(1, 4))]
                + [field.one],
            )
            if q.constant_term and q not in seen and factor_univariate(q) == [(q, 1)]:
                seen.add(q)
                irreducibles.append(q)
        for _ in range(50):
            support = {
                principal_maximal_key(q): rng.choice([-3, -2, -1, 1, 2, 3])
                for q in rng.sample(irreducibles, rng.randint(1, 4))
            }
            cls = GrothendieckClass(field, 1, support)
            ok = ok and tilde_to_free_abelian(free_abelian_to_tilde(cls)) == cls
    report(6, "tilde group is free abelian", ok, time.time() - t0)


def test_criterion_7_factorization_soundness():
    t0 = time.time()
    ok = True
    for field in FIELDS:
        rng = random.Random(1007)
        for _ in range(500):
            deg = rng.randint(1, 12)
            coeffs = [field.random_scalar(rng) for _ in range(deg + 1)]
            if not coeffs[-1]:
                coeffs[-1] = field.one
            f = UniPoly(field, coeffs)
            factors = factor_univariate(f)
            prod = UniPoly.constant(field, f.lc)
            for q, e in factors:
                prod = prod * q**e
            ok = ok and prod == f
            for q, _ in factors:
                if 2 <= q.degree <= 3 and field.is_prime_field:
                    ok = ok and all(q(a) for a in range(field.characteristic))
                for r, _ in factors:
                    if r.degree < q.degree:
                        ok = ok and not (q % r).is_zero
    report(7, "factorization soundness", ok, time.time() - t0, limit=120)


GOLDEN = [
    ("field Q\nvars 1\ndim 2\n[[0,0];[0,1]]\n", b"1 * [t]\n1 * [t - 1]\n"),
    ("field Q\nvars 1\ndim 2\n[[0,1];[0,0]]\n", b"2 * [t]\n"),
    ("field F 3\nvars 1\ndim 2\n[[0,-1];[1,0]]\n", b"1 * [t^2 + 1]\n"),
    (
        "field F 2\nvars 2\ndim 2\n[[0,1];[0,0]]\n[[0,0];[0,0]]\n",
        b"2 * [t1, t2]\n",
    ),
]


def test_criterion_8_golden_cli_outputs(tmp_path, capsys):
    t0 = time.time()
    ok = True
    for i, (text, expected) in enumerate(GOLDEN):
        path = tmp_path / f"golden{i}.job"
        path.write_text(text)
        runs = []
        for _ in range(2):
            code = main(["class", str(path)])
            out = capsys.readouterr().out.encode()
            ok = ok and code == 0
            runs.append(out)
        ok = ok and runs[0] == runs[1] == expected
    # process-level byte identity on one case
    path = tmp_path / "golden0.job"
    procs = [
        subprocess.run(
            [sys.executable, "-m", "endok.cli", "class", str(path)],
            capture_output=True,
            check=True,
            env=src_env(),
        ).stdout
        for _ in range(2)
    ]
    ok = ok and procs[0] == procs[1] == GOLDEN[0][1]
    report(8, "golden CLI outputs", ok, time.time() - t0)
