import random
from itertools import product
from types import SimpleNamespace

import pytest

from endok import _kernels, factor
from endok.cli import main
from endok.factor import factor_univariate
from endok.fields import GF, QQ
from endok.ktheory import k0_class
from endok.linalg import Matrix
from endok.modules import CommutingTuple
from endok.poly import (
    UniPoly,
    _add,
    _divmod,
    _gcd,
    _monic,
    _mul,
    _pow_mod,
    _squarefree,
    _sub,
    _trim,
)

from conftest import ALL_FIELDS, P61, field_id

F2, F3, F5 = GF(2), GF(3), GF(5)


def strs(factors):
    return [(str(q), e) for q, e in factors]


def rand_poly(field, rng, max_deg):
    deg = rng.randint(1, max_deg)
    coeffs = [field.random_scalar(rng) for _ in range(deg + 1)]
    if not coeffs[-1]:
        coeffs[-1] = field.one
    return UniPoly(field, coeffs)


# -- independent oracle: exhaustive divisor search ------------------------------


def divisor_sweep_factor_modp(f):
    """Trial division by every monic polynomial, smallest degree first."""
    p = f.field.characteristic
    f = f.monic()
    out = []
    while f.degree > 0:
        found = None
        for d in range(1, f.degree + 1):
            for tail in product(range(p), repeat=d):
                q = UniPoly(f.field, list(tail) + [1])
                if (f % q).is_zero:
                    found = q
                    break
            if found:
                break
        out.append(found)
        f = f // found
    return sorted(strs((q, 1) for q in out))


def has_rational_root(f):
    """Root sweep over candidates p/q with p | a0, q | lead, after clearing
    denominators."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator
    ints = [int(c * den) for c in f.coeffs]
    if not ints or ints[0] == 0:
        return True  # 0 is a root
    a0, an = abs(ints[0]), abs(ints[-1])
    ps = [d for d in range(1, a0 + 1) if a0 % d == 0]
    qs = [d for d in range(1, an + 1) if an % d == 0]
    from fractions import Fraction

    for pnum in ps:
        for qden in qs:
            for sign in (1, -1):
                if not f(Fraction(sign * pnum, qden)):
                    return True
    return False


# -- worked examples -----------------------------------------------------------


def test_factor_rational_quadratic():
    t = UniPoly.gen(QQ)
    assert strs(factor_univariate(t * t - UniPoly.one(QQ))) == [
        ("t - 1", 1),
        ("t + 1", 1),
    ]


def test_factor_irreducible_mod3():
    # squares mod 3 are {0, 1}, so t^2 + 1 has no root and degree 2 forces
    # irreducibility
    f = UniPoly(F3, [1, 0, 1])
    assert strs(factor_univariate(f)) == [("t^2 + 1", 1)]
    assert all(f(a) for a in range(3))


def test_factor_frobenius_square_mod2():
    assert strs(factor_univariate(UniPoly(F2, [1, 0, 1]))) == [("t + 1", 2)]


def test_factor_quartic_matches_divisor_sweep():
    t = UniPoly.gen(QQ)
    f = t**4 - UniPoly.one(QQ)
    got = strs(factor_univariate(f))
    assert got == [("t - 1", 1), ("t + 1", 1), ("t^2 + 1", 1)]
    # cross-check the same factorization over F7 (7 = 3 mod 4, so t^2+1
    # stays irreducible) with the exhaustive divisor sweep
    f7 = UniPoly(GF(7), [-1, 0, 0, 0, 1])
    sweep = divisor_sweep_factor_modp(f7)
    got7 = sorted(strs((q, 1) for q, e in factor_univariate(f7) for _ in range(e)))
    assert got7 == sweep


def test_factor_zero_and_constant():
    with pytest.raises(ValueError):
        factor_univariate(UniPoly.zero(QQ))
    assert factor_univariate(UniPoly.constant(QQ, 5)) == []


def cycle(d):
    """The permutation matrix of a d-cycle; its characteristic polynomial
    is t^d - 1."""
    return Matrix(QQ, [[int(j == (i + 1) % d) for j in range(d)] for i in range(d)])


def test_degree_70_factors_within_the_recombination_budget():
    # t^70 - 1 is the product of the cyclotomic polynomials of the 8
    # divisors of 70, of degrees 1, 1, 4, 6, 4, 6, 24, 24
    t = UniPoly.gen(QQ)
    factors = factor_univariate(t**70 - UniPoly.one(QQ))
    assert sorted(q.degree for q, _ in factors) == [1, 1, 4, 4, 6, 6, 24, 24]
    assert all(e == 1 for _, e in factors)
    product = UniPoly.one(QQ)
    for q, _ in factors:
        product = product * q
    assert product == t**70 - UniPoly.one(QQ)
    lines = k0_class(CommutingTuple(QQ, 1, 70, [cycle(70)])).lines()
    assert len(lines) == 8 and all(line.startswith("1 * [") for line in lines)
    assert {"1 * [t - 1]", "1 * [t + 1]"} <= set(lines)


def test_exceeded_recombination_budget_raises(monkeypatch, tmp_path, capsys):
    # the roots +-1 of t^70 - 1 are proven before recombination, and the
    # other 8 of its 10 factors mod 3 still need 11 subsets
    monkeypatch.setattr(factor, "RECOMBINATION_BUDGET", 2)
    t = UniPoly.gen(QQ)
    with pytest.raises(ValueError, match="factorization too hard.*RECOMBINATION_BUDGET = 2"):
        factor_univariate(t**70 - UniPoly.one(QQ))
    job = tmp_path / "cycle.txt"
    job.write_text(f"field Q\nvars 1\ndim 70\n{cycle(70)}\n")
    assert main(["class", str(job)]) == 1
    out = capsys.readouterr()
    assert not out.out and "factorization too hard" in out.err


def test_high_multiplicities_factor_through_squarefree_parts():
    # recombination only sees squarefree parts: (t - 1)^70 has one, t - 1
    t = UniPoly.gen(QQ)
    f = (t - UniPoly.one(QQ)) ** 70
    assert strs(factor_univariate(f)) == [("t - 1", 70)]


def test_multiplicities():
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    f = (t + one) ** 2 * (t - one) ** 3 * 7
    assert strs(factor_univariate(f)) == [("t - 1", 3), ("t + 1", 2)]


def test_deterministic_output():
    rng_polys = random.Random(99)
    for field in (F2, F5, QQ):
        for _ in range(10):
            f = rand_poly(field, rng_polys, 9)
            a = factor_univariate(f)
            b = factor_univariate(f)
            assert a == b


def test_randomized_splitting_path():
    # degree 9 and up over F13, so p**degree > 10**6: large inputs for the
    # distinct-degree plus Cantor-Zassenhaus splitting every F_p factor takes
    rng = random.Random(17)
    F13 = GF(13)
    for _ in range(20):
        f = rand_poly(F13, rng, 12)
        if f.degree < 9:
            f = f * UniPoly.gen(F13) ** (9 - f.degree)
        assert 13**f.degree > 10**6
        factors = factor_univariate(f)
        prod = UniPoly.constant(F13, f.lc)
        for q, e in factors:
            assert q.is_monic
            prod = prod * q**e
        assert prod == f


# -- soundness sweeps -----------------------------------------------------------


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_reconstruction(field):
    rng = random.Random(42)
    for _ in range(120):
        f = rand_poly(field, rng, 12)
        factors = factor_univariate(f)
        prod = UniPoly.constant(field, f.lc)
        for q, e in factors:
            prod = prod * q**e
        assert prod == f


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_low_degree_factors_are_irreducible(field):
    rng = random.Random(43)
    for _ in range(60):
        f = rand_poly(field, rng, 8)
        factors = factor_univariate(f)
        for q, _ in factors:
            if q.degree > 3:
                continue
            if field.is_prime_field:
                # an irreducible of degree 2 or 3 has no root at all
                if q.degree >= 2:
                    assert all(q(a) for a in range(field.characteristic))
            else:
                if q.degree >= 2:
                    assert not has_rational_root(q)
        # no factor divides another reported factor of lower degree
        for q, _ in factors:
            for r, _ in factors:
                if r.degree < q.degree:
                    assert not (q % r).is_zero


def test_is_irreducible():
    # an irreducible q factors as the single pair (q, 1)
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    q = t * t + one
    assert factor_univariate(q) == [(q, 1)]
    assert factor_univariate(t * t - one) == [(t - one, 1), (t + one, 1)]
    assert factor_univariate(one) == []
    q = UniPoly(F2, [1, 1, 1])  # no root in F_2
    assert factor_univariate(q) == [(q, 1)]
    assert factor_univariate(q * q) == [(q, 2)]


def all_irreducibles_by_sweep(field, max_deg):
    """Independent list of monic irreducibles of degree <= max_deg: a monic
    polynomial is irreducible iff no smaller-degree monic divides it."""
    p = field.characteristic
    irr = []
    for d in range(1, max_deg + 1):
        for tail in product(range(p), repeat=d):
            q = UniPoly(field, list(tail) + [1])
            if not any(s.degree <= d // 2 and (q % s).is_zero for s in irr):
                irr.append(q)
    return irr


@pytest.mark.parametrize("field", [F2, F3], ids=repr)
def test_exact_multiset_against_sweep_irreducibles(field):
    irr = all_irreducibles_by_sweep(field, 3)
    rng = random.Random(77)
    for _ in range(40):
        chosen = rng.sample(irr, rng.randint(1, 3))
        expected = {}
        f = UniPoly.one(field)
        for q in chosen:
            e = rng.randint(1, 3)
            expected[q] = e
            f = f * q**e
        got = dict(factor_univariate(f))
        assert got == expected


def test_exact_multiset_over_rationals():
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    two = UniPoly.constant(QQ, 2)
    # irreducible by Eisenstein at 2 (t^k - 2) or by the absence of roots
    irreducibles = [t - one, t + two, t * t + one, t * t - two, t**3 - two]
    rng = random.Random(78)
    for _ in range(25):
        chosen = rng.sample(irreducibles, rng.randint(1, 4))
        expected = {}
        f = UniPoly.constant(QQ, rng.choice([1, -2, 3, 5]))
        for q in chosen:
            e = rng.randint(1, 2)
            expected[q] = e
            f = f * q**e
        got = dict(factor_univariate(f))
        assert got == expected


def test_large_coefficients_force_deep_lifting():
    t = UniPoly.gen(QQ)
    big1 = t - UniPoly.constant(QQ, 100003)
    big2 = t + UniPoly.constant(QQ, 99991)
    quad = t * t + UniPoly.one(QQ)
    f = big1 * big2 * quad
    assert dict(factor_univariate(f)) == {big1: 1, big2: 1, quad: 1}


def test_odd_prime_cantor_zassenhaus():
    F1009 = GF(1009)
    t = UniPoly.gen(F1009)
    # 1009^3 is far above the deterministic threshold
    f = (t - UniPoly.constant(F1009, 5)) * (t * t + UniPoly.one(F1009))
    factors = factor_univariate(f)
    assert sorted((q.degree, e) for q, e in factors) in ([(1, 1), (2, 1)], [(1, 1), (1, 1), (1, 1)])
    prod = UniPoly.one(F1009)
    for q, e in factors:
        prod = prod * q**e
    assert prod == f


# -- Frobenius-matrix DDF and Cantor-Zassenhaus against _pow_mod ----------------
#
# The reference takes every p-th power with _pow_mod (square-and-multiply
# on coefficient lists) and r^((p^d - 1)/2) in one _pow_mod; the draws
# from rng are the same, so the factor lists and the rng state after the
# call must be identical.


def pow_mod_ddf(g, p):
    x = [0, 1]
    factors = []
    cur = g
    h = x
    d = 0
    while len(cur) > 1:
        d += 1
        if len(cur) - 1 < 2 * d:
            factors.append((cur, len(cur) - 1))
            break
        h = _pow_mod(h, p, cur, p)
        hx = _sub(h, x, p)
        G = _gcd(cur, hx, p) if hx else cur
        if len(G) > 1:
            factors.append((G, d))
            cur = _divmod(cur, G, p)[0]
            h = _divmod(h, cur, p)[1]
    return factors


def pow_mod_edf(h, d, p, rng):
    n = len(h) - 1
    if n == d:
        return [h]
    while True:
        r = _trim([rng.randrange(p) for _ in range(2 * d)])
        if len(r) < 2:
            continue
        if p == 2:
            sq = _divmod(r, h, p)[1]
            probe = sq
            for _ in range(d - 1):
                sq = _divmod(_mul(sq, sq, p), h, p)[1]
                probe = _add(probe, sq, p)
        else:
            probe = _sub(_pow_mod(r, (p**d - 1) // 2, h, p), [1], p)
        if not probe:
            continue
        g = _gcd(h, probe, p)
        if 0 < len(g) - 1 < n:
            return pow_mod_edf(g, d, p, rng) + pow_mod_edf(_divmod(h, g, p)[0], d, p, rng)


def squarefree_inputs(p, rng, count):
    """Squarefree parts of products of random monic polynomials of degree
    1 to 3, each product of degree at most 40: many factors of equal
    degree, so equal-degree splitting has work to do."""
    for _ in range(count):
        f = [1]
        limit = rng.randint(1, 40)
        while len(f) - 1 < limit:
            deg = rng.randint(1, min(3, limit - len(f) + 1))
            f = _mul(f, [rng.randrange(p) for _ in range(deg)] + [1], p)
        for g, _ in _squarefree(_monic(f, p), p):
            yield g


@pytest.mark.parametrize(
    "p, count", [(2, 60), (3, 60), (97, 60), (P61.characteristic, 4)], ids=str
)
def test_frobenius_splitting_matches_pow_mod(p, count, monkeypatch):
    # _factor_squarefree_modp makes its one generator only when some part
    # sent to Cantor-Zassenhaus still needs an equal-degree split; for
    # p <= ROOT_EVAL_LIMIT _linear_factors takes the roots first, and
    # the root-free cofactor's distinct-degree split starts at degree 2
    made = []

    def recording(seed):
        made.append(random.Random(seed))
        return made[-1]

    monkeypatch.setattr(factor, "random", SimpleNamespace(Random=recording))
    seen = set()
    for k, g in enumerate(squarefree_inputs(p, random.Random(p), count)):
        if len(g) <= 2:
            continue
        q = factor._frobenius(g, p)
        parts = factor._distinct_degree_split(g, p, q, 1)
        assert parts == pow_mod_ddf(g, p)
        for h, d in parts:
            seen.add(d > 1 and len(h) - 1 > d)
            ours, theirs = random.Random(k), random.Random(k)
            split = factor._equal_degree_split(h, d, p, ours, q)
            assert split == pow_mod_edf(h, d, p, theirs)
            assert ours.getstate() == theirs.getstate()
        expected = sorted(f for h, d in parts for f in pow_mod_edf(h, d, p, random.Random(k)))
        sent = [(h, d) for h, d in parts if d > 1 or p > factor.ROOT_EVAL_LIMIT]
        theirs = random.Random(factor.DEFAULT_SEED)
        for h, d in sent:
            pow_mod_edf(h, d, p, theirs)
        linear, rest = factor._linear_factors(g, p)
        assert all(e == 1 for _, e in linear)
        assert bool(linear) == (any(d == 1 for _, d in parts) and p <= factor.ROOT_EVAL_LIMIT)
        if p <= factor.ROOT_EVAL_LIMIT and len(rest) > 4:
            split = factor._distinct_degree_split(rest, p, factor._frobenius(rest, p), 2)
            assert split == [(h, d) for h, d in parts if d > 1]
        made.clear()
        got = [q for q, _ in linear] + factor._factor_squarefree_modp(rest, p)
        assert sorted(got) == expected
        assert len(made) == any(len(h) - 1 > d for h, d in sent)
        assert all(ours.getstate() == theirs.getstate() for ours in made)
    # some inputs split into several factors of one degree above 1
    assert True in seen


@pytest.mark.parametrize("p", [2, 3, 97, P61.characteristic], ids=str)
def test_frobenius_matrix_rows_are_powers_of_t(p):
    rng = random.Random(p)
    for deg in (1, 2, 5, 12):
        g = [rng.randrange(p) for _ in range(deg)] + [1]
        q = factor._frobenius(g, p)
        assert q.shape == (deg, deg) and q.dtype == _kernels.dtype(p)
        assert q[0].tolist() == [1] + [0] * (deg - 1)
        for i in range(1, deg):
            row = _pow_mod([0, 1], i * p, g, p)
            assert q[i].tolist() == row + [0] * (deg - len(row))


def test_factoring_needs_no_array_kernel(monkeypatch):
    # the Frobenius steps use numpy's @ directly: factoring over F_p, and
    # Zassenhaus's modular factoring over Q, never reach _kernels beyond
    # its dtype
    def forbidden(*args):
        raise AssertionError("factoring called an array kernel")

    monkeypatch.setattr(_kernels, "matmul_mod", forbidden)
    monkeypatch.setattr(_kernels, "rref_mod", forbidden)
    rng = random.Random(7)
    for field in (GF(97), QQ):
        f = rand_poly(field, rng, 20) * rand_poly(field, rng, 20)
        prod = UniPoly.constant(field, f.coeffs[-1])
        for q, e in factor_univariate(f):
            prod = prod * q**e
        assert prod == f
