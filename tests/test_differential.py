"""Differential tests against sympy: characteristic polynomials and their
factorizations, on random matrices up to dim 32, on sums of companion
blocks of polynomial powers, on members of random commuting tuples and on
rational matrices with entries past 10^12; the squarefree split and gcd
over Q; reduced row echelon forms over Q; and the reduced graded-lex
Groebner bases of annihilator ideals of random commuting tuples up to
dim 24; and normal forms and multiplication matrices modulo the reduced
Groebner bases of the tuple builders' annihilators and keys.

Factoring takes linear factors first: over small F_p by evaluating f
everywhere and dividing each root out for as long as it divides, over Q
by lifting modular roots with Newton's iteration ahead of Zassenhaus's
Hensel tree.  Products of many linear factors, on both sides of the
evaluation limit, roots of multiplicity p and more, powers of t, whose
root 0 the root stage proves, rational roots with denominators, large
roots, modular roots that lift to no rational root, and a root bound that
is too small are checked against sympy too, and so is recombination at
the half-degree bound, where only the side of a subset with at most half
the degree is rebuilt.

The class path factors ``linalg.charpoly`` with ``factor_univariate`` to
split pieces into generalised eigenspaces, and keys them by annihilators;
the benchmark's class check reuses the same ``charpoly``.  Over F_p that
is power sums tr(A^j) of int64 residue arrays modulo M = p^e, e = 1 +
v_p(d!), and Newton's identities, which divide by j = 1..d, p-parts
exactly, wherever d M^2 < 2^63; over Q the same, modulo the largest
primes below 2^20 in one batched call, stopped at a coefficient bound;
and a Hessenberg recurrence on lists past that bound (F_2 at d >= 32,
F_3 at d >= 39, primes from sqrt(2^63 / d) up).  Factoring over Q starts
with Yun's squarefree split over Z, so sympy, which shares none of this
code, is the independent reference for each.  Over F_p, sympy's integer
characteristic polynomial of the residue matrix is reduced mod p.  The
edges of the power sums are checked here: both sides of the int64 bound
for F_2, F_3 and F_5, p <= d at dims with high powers of p in d! on
identities, scalars, nilpotent and unipotent blocks and random matrices,
the largest int64 residues (every entry p - 1 mod 1048573, the largest
prime below 2^20), the trace contraction in small chunks and in its real
chunks over F_2 at d = 31, the first prime above 2^20, the primes on
both sides of the bound at d = 16, and Q at heights 1, 10^3 and 10^14,
with and without denominators.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

from endok import _kernels, factor, linalg
from endok.bruteforce import random_commuting_tuple, random_matrix
from endok.factor import factor_univariate
from endok.fields import GF, QQ, is_prime
from endok.linalg import Matrix, charpoly, eval_poly_at_matrix, rref
from endok.modules import CommutingTuple, multiplication_matrix
from endok.poly import MultiPoly, UniPoly, _squarefree_parts, normal_form, uni_gcd

from conftest import (
    conjugate as conjugate_tuple,
    fat_point,
    field_id,
    largest_prime_below,
    simple_point,
    tensor,
    twisted_points,
)

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
FIELDS = [QQ, GF(2), GF(3), GF(97)]
DIMS = (1, 2, 5, 8, 13, 24, 32)


def conjugate(m, rng):
    """m conjugated by random elementary shears, hiding its block form."""
    F, d = m.field, m.rows
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice([-1, 1])
        shear = [list(row) for row in Matrix.identity(F, d).entries]
        inverse = [list(row) for row in shear]
        shear[i][j], inverse[i][j] = F.coerce(c), F.coerce(-c)
        m = Matrix(F, shear) @ m @ Matrix(F, inverse)
    return m


def monic(field, degree, rng):
    coeffs = [field.random_scalar(rng) for _ in range(degree)]
    return UniPoly(field, coeffs + [field.one])


def matrices(field):
    """Random matrices, repeated-factor block sums in disguise, and members
    of random commuting tuples."""
    rng = random.Random(7)
    out = [random_matrix(field, d, rng) for d in DIMS]
    for d in (3, 4):
        a = random_matrix(field, d, rng)
        out.append(conjugate(Matrix.block_diag(field, [a, a, a @ a]), rng))
    # one endomorphism: companion blocks of q^3, q and r^2
    q, r = monic(field, 3, rng), monic(field, 2, rng)
    blocks = [Matrix.companion(f) for f in (q**3, q, r**2)]
    out.append(conjugate(Matrix.block_diag(field, blocks), rng))
    for nvars, d in ((1, 6), (2, 12), (2, 24), (3, 16)):
        out.extend(random_commuting_tuple(field, nvars, d, rng).mats)
    return out


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries])


def normalise(coeffs, field):
    """Sympy coefficients, highest first, as monic field scalars, lowest first."""
    if field.is_rationals:
        values = [Fraction(int(c.p), int(c.q)) for c in coeffs]
        lead = values[0]
        return tuple(v / lead for v in reversed(values))
    p = field.characteristic
    values = [int(c) % p for c in coeffs]
    inv = pow(values[0], p - 2, p)
    return tuple(v * inv % p for v in reversed(values))


def sympy_factors(coeffs, field):
    """Monic irreducible factors with exponents, as a sorted list."""
    kw = {} if field.is_rationals else {"modulus": field.characteristic}
    _, factors = sympy.Poly(list(coeffs), X, **kw).factor_list()
    return sorted((normalise(f.all_coeffs(), field), e) for f, e in factors)


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_charpoly_and_factors_match_sympy(field):
    rng = random.Random(11)
    for m in matrices(field):
        ours = charpoly(m)
        theirs = normalise(to_sympy(m).charpoly(X).all_coeffs(), field)
        assert ours.coeffs == theirs, (m.rows, str(m))
        factors = sorted((q.coeffs, e) for q, e in factor_univariate(ours))
        assert factors == sympy_factors(reversed(ours.coeffs), field), str(ours)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=field_id)
def test_factors_with_multiplicities_at_p_match_sympy(field):
    # products of q_i^e_i with e_i in {1, p, p + 1, 2p} (p = 3 over Q),
    # half of them with a power of t: factor_univariate gives each
    # irreducible the multiplicity of the one squarefree part it comes
    # from, and a q^(p + 1) split over two parts would show here as two
    # entries for q
    rng = random.Random(29)
    p = field.characteristic or 3
    exponents = (1, p, p + 1, 2 * p)
    for _ in range(30):
        f = UniPoly.constant(field, field.random_scalar(rng) or field.one)
        if rng.random() < 0.5:
            f = f * UniPoly(field, [0, 1]) ** rng.choice(exponents)
        for _ in range(rng.randint(1, 3)):
            f = f * monic(field, rng.randint(1, 3), rng) ** rng.choice(exponents)
        ours = sorted((q.coeffs, e) for q, e in factor_univariate(f))
        assert ours == sympy_factors(reversed(f.coeffs), field), str(f)


def spy(monkeypatch, name):
    """Record the results of factor.<name> while it keeps working."""
    seen = []
    real = getattr(factor, name)

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(factor, name, recording)
    return seen


def assert_factors_match_sympy(f):
    ours = sorted((q.coeffs, e) for q, e in factor_univariate(f))
    assert ours == sympy_factors(reversed(f.coeffs), f.field), str(f)


@pytest.mark.parametrize("p", [2, 3, 97, 2039, 2053], ids=str)
def test_products_of_linear_factors_match_sympy(p, monkeypatch):
    # 2039 and 2053 are the primes next to ROOT_EVAL_LIMIT: up to it the
    # roots are found by evaluation, past it by Cantor-Zassenhaus
    assert 2039 <= factor.ROOT_EVAL_LIMIT < 2053
    evaluated = spy(monkeypatch, "_roots")
    F = GF(p)
    rng = random.Random(p)
    for _ in range(12):
        roots = rng.sample(range(p), min(p, rng.randint(2, 24)))
        f = UniPoly.constant(F, rng.randrange(1, p))
        for a in roots:
            f = f * UniPoly(F, [-a, 1])
        if rng.random() < 0.5:
            f = f * monic(F, rng.randint(2, 4), rng)
        assert_factors_match_sympy(f)
    assert bool(evaluated) == (p <= factor.ROOT_EVAL_LIMIT)


def random_irreducible(F, degree, rng):
    """A random monic irreducible of the given degree over F_p, as sympy
    certifies it."""
    p = F.characteristic
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
        if sympy.Poly(coeffs[::-1], X, modulus=p).is_irreducible:
            return UniPoly(F, coeffs)


@pytest.mark.parametrize("p", [2, 3, 97, 2039, 2053], ids=str)
def test_roots_with_multiplicities_match_sympy(p, monkeypatch):
    # the root stage divides each root out for as long as it divides, so
    # multiplicities p - 1, p, p + 1 and 2p + 1 come out whole, with no
    # help from Yun; over F_97 and next to ROOT_EVAL_LIMIT the products
    # carry random irreducibles too, which the root stage leaves alone
    stages = spy(monkeypatch, "_linear_factors")
    F = GF(p)
    rng = random.Random(53 + p)
    exponents = (1, 2, 3) if p > 97 else (1, p - 1, p, p + 1, 2 * p + 1)
    for _ in range(16):
        f = UniPoly.constant(F, rng.randrange(1, p))
        for a in rng.sample(range(p), min(p, rng.randint(1, 4))):
            f = f * UniPoly(F, [-a, 1]) ** rng.choice(exponents)
        if p > 3:
            for _ in range(rng.randint(0, 2)):
                f = f * random_irreducible(F, rng.randint(2, 4), rng) ** rng.choice((1, 2))
        assert_factors_match_sympy(f)
    found = [e for linear, _ in stages for _, e in linear]
    if p <= factor.ROOT_EVAL_LIMIT:
        assert max(found) >= (p if p <= 97 else 2)
        # the cofactor the root stage leaves has no root left
        assert all(not factor._roots(g, p) for _, g in stages if len(g) > 1)
    else:
        assert not found


def test_powers_of_t_match_sympy(monkeypatch):
    # t^k times random integer factors, some with negative leading
    # coefficients: a squarefree part of degree 2 or more that t divides
    # goes to Zassenhaus whole, whose root stage proves the root 0, and a
    # linear part, t itself among them, is its own factor
    parts = spy(monkeypatch, "_squarefree_parts")
    rng = random.Random(43)
    t = UniPoly.gen(QQ)
    for _ in range(300):
        f = t ** rng.randint(1, 4)
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            g = UniPoly(QQ, coeffs + [rng.choice((-3, -2, -1, 1, 2, 3))])
            f = f * g ** rng.randint(1, 2)
        assert_factors_match_sympy(f)
    parts = [g for found in parts for g, _ in found]
    assert [0, 1] in parts
    assert any(len(g) > 2 and not g[0] and g[-1] < 0 for g in parts)
    assert any(len(g) > 2 and not g[0] and g[-1] > 0 for g in parts)


def linear(u, v):
    """v.t - u over Q, the factor of the root u/v."""
    return UniPoly(QQ, [-u, v])


def rational_roots(rng, count, top):
    """count distinct fractions u/v in lowest terms, |u| <= top, v <= 9,
    most with v > 1."""
    roots = set()
    while len(roots) < count:
        roots.add(Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 9)))
    return sorted(roots)


def test_rational_roots_with_denominators_match_sympy(monkeypatch):
    # v.t - u for roots u/v, so v divides lc and lc.r is an integer; half
    # the products carry an irreducible cubic or a square
    proven = spy(monkeypatch, "_div_exact")
    rng = random.Random(31)
    t = UniPoly.gen(QQ)
    for _ in range(30):
        f = UniPoly.constant(QQ, Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        for r in rational_roots(rng, rng.randint(2, 8), 40):
            f = f * linear(r.numerator, r.denominator)
        if rng.random() < 0.5:
            f = f * (t**3 - UniPoly.constant(QQ, 2))
        if rng.random() < 0.3:
            f = f * linear(rng.randint(-5, 5), 1) ** 2
        assert_factors_match_sympy(f)
    assert any(q is not None and len(q) > 1 for q in proven)


def test_large_rational_roots_need_several_lifts(monkeypatch):
    # |lc.r| = 100003 needs 3^(2^j) > 2 * 100004: three Newton steps at p = 3
    lifts = spy(monkeypatch, "_lift_root")
    t = UniPoly.gen(QQ)
    for f in (
        linear(100003, 1) * linear(-100003, 1) * (t * t + UniPoly.one(QQ)),
        linear(100003, 7) * linear(-99991, 2) * linear(5, 1),
        linear(10**12 + 39, 1) * linear(-1, 1) * (t**4 + t + UniPoly.one(QQ)),
    ):
        assert_factors_match_sympy(f)
    assert max(m for _, m in lifts) >= 3**8


def test_modular_roots_without_rational_roots_stay_in_the_tree(monkeypatch):
    # (3t - 2)(t^2 + 1): 3 divides lc, so the good prime is 5, where
    # t^2 + 1 = (t - 2)(t + 2); the lifted roots of t^2 + 1 are 5-adic and
    # fail division, so t^2 + 1 comes out of the recombination
    trees = spy(monkeypatch, "_recombine")
    t = UniPoly.gen(QQ)
    f = linear(2, 3) * (t * t + UniPoly.one(QQ))
    assert factor._good_prime([-2, 3, -2, 3]) == 5
    assert_factors_match_sympy(f)
    assert trees == [[[1, 0, 1]]]
    # more quadratics t^2 - D with no rational root, each with linear
    # images modulo primes where D is a square, beside rational roots
    rng = random.Random(37)
    for _ in range(20):
        f = UniPoly.one(QQ)
        for D in rng.sample([-1, -2, -3, 2, 3, 5, 6, 7, 10, -5], rng.randint(1, 3)):
            f = f * (t * t - UniPoly.constant(QQ, D))
        for r in rational_roots(rng, rng.randint(0, 3), 12):
            f = f * linear(r.numerator, r.denominator)
        assert_factors_match_sympy(f)


@pytest.mark.parametrize("bound", [0, 1, 40])
def test_too_small_root_bound_still_factors_correctly(bound, monkeypatch):
    # a root lifted short of the Cauchy bound gives a candidate that fails
    # division; the modular factor then goes to the Hensel tree
    monkeypatch.setattr(factor, "_root_bound", lambda F: bound)
    trees = spy(monkeypatch, "_recombine")
    rng = random.Random(41)
    t = UniPoly.gen(QQ)
    for _ in range(12):
        f = t * t + t + UniPoly.one(QQ)
        for r in rational_roots(rng, rng.randint(2, 5), 1000):
            f = f * linear(r.numerator, r.denominator)
        assert_factors_match_sympy(f)
    assert_factors_match_sympy(linear(100003, 1) * linear(-100003, 1))
    assert trees


def candidate_degrees(monkeypatch):
    """(deg f, deg G) of every exact division of a cofactor f by a
    candidate G of degree 2 or more, as ``_recombine`` tries them; the
    root stage's candidates are linear."""
    seen = []
    real = factor._div_exact

    def recording(f, g):
        if len(g) > 2:
            seen.append((len(f) - 1, len(g) - 1))
        return real(f, g)

    monkeypatch.setattr(factor, "_div_exact", recording)
    return seen


def test_recombination_rebuilds_only_the_small_side(monkeypatch):
    # a small quadratic times a degree-6 irreducible with coefficients
    # near 10^6: a subset holding the sextic's modular factors is matched
    # by rebuilding its complement, the quadratic, mod p^l, and the
    # sextic is the quotient.  No candidate has more than half the
    # cofactor's degree.
    calls = candidate_degrees(monkeypatch)
    rng = random.Random(59)
    t = UniPoly.gen(QQ)
    quotients = 0
    for _ in range(20):
        while True:
            coeffs = [rng.randint(-(10**6), 10**6) for _ in range(6)] + [1]
            sextic = UniPoly(QQ, coeffs)
            if sympy.Poly(coeffs[::-1], X).is_irreducible:
                break
        quadratic = t * t + UniPoly.constant(QQ, rng.choice((1, 2, 3, 5, 7)))
        f = quadratic * sextic
        calls.clear()
        assert_factors_match_sympy(f)
        assert all(2 * g <= n for n, g in calls)
        quotients += any(n == 8 and g == 2 for n, g in calls)
    assert quotients


def integer_factor(rng, degree, lcs):
    """A random primitive integer polynomial as a UniPoly over Q: its
    leading coefficient from lcs, the others of a random height."""
    height = 10 ** rng.randint(0, 6)
    coeffs = [rng.randint(-height, height) for _ in range(degree)] + [rng.choice(lcs)]
    if not coeffs[0]:
        coeffs[0] = 1
    return UniPoly(QQ, coeffs)


def test_random_products_match_sympy_at_the_half_degree_bound(monkeypatch):
    # 300 products of 2 to 4 random integer factors, degree at most 24;
    # leading coefficients with many small prime factors push the good
    # prime up, so p^l can overshoot the bound by up to a factor p and a
    # lift one power of p short loses a candidate that p^l recovers
    calls = candidate_degrees(monkeypatch)
    rng = random.Random(61)
    lcs = (1, 1, 2, 3, 6, 15, 105, 1155, 15015, 255255)
    for _ in range(300):
        f = UniPoly.one(QQ)
        degree = 0
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(1, min(8, 24 - degree))
            f = f * integer_factor(rng, d, lcs)
            degree += d
            if degree >= 23:
                break
        assert_factors_match_sympy(f)
    assert calls and all(2 * g <= n for n, g in calls)


def test_rational_charpoly_with_large_entries_matches_sympy():
    rng = random.Random(16)
    for d in (1, 2, 3, 5, 8):
        grid = [
            [
                Fraction(rng.randint(-(10**14), 10**14), rng.choice((1, 7, 10**9 + 7)))
                for _ in range(d)
            ]
            for _ in range(d)
        ]
        m = Matrix(QQ, grid)
        theirs = normalise(to_sympy(m).charpoly(X).all_coeffs(), QQ)
        assert charpoly(m).coeffs == theirs, str(m)


def kernel_spies(monkeypatch):
    """Count the calls of the two charpoly algorithms while they keep
    working: the power-sum kernel and the list Hessenberg recurrence."""
    calls = {"power sums": 0, "lists": 0}
    for key, module, name in (
        ("power sums", _kernels, "charpoly_mod"),
        ("lists", linalg, "_charpoly_mod"),
    ):
        real = getattr(module, name)

        def counted(*args, _key=key, _real=real):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def assert_charpoly_matches_sympy(m):
    theirs = normalise(to_sympy(m).charpoly(X).all_coeffs(), m.field)
    assert charpoly(m).coeffs == theirs, (m.rows, str(m))


def int64_bound_holds(p, d):
    """Whether ``_charpoly_residues`` sends F_p at dim d to the power sums."""
    return d * _kernels.newton_modulus(p, d) ** 2 < 1 << 63


@pytest.mark.parametrize("p, d", [(2, 31), (3, 38), (5, 49)], ids=str)
def test_charpoly_on_both_sides_of_the_int64_bound_matches_sympy(p, d, monkeypatch):
    # the power sums run modulo M = p^e, e = 1 + v_p(d!), while d M^2 <
    # 2^63: dim d is the largest F_p the kernel takes, and dim d + 1 goes
    # to the lists
    assert int64_bound_holds(p, d) and not int64_bound_holds(p, d + 1)
    calls = kernel_spies(monkeypatch)
    F = GF(p)
    rng = random.Random(67 + p)
    for dim, algorithm in ((d, "power sums"), (d + 1, "lists")):
        for _ in range(2):
            calls.update(dict.fromkeys(calls, 0))
            assert_charpoly_matches_sympy(random_matrix(F, dim, rng))
            assert calls[algorithm] == 1 and sum(calls.values()) == 1


def p_at_most_d_matrices(F, d, rng):
    """d x d matrices over F_p, p <= d, most with few distinct roots of
    high multiplicity: I, a.I, the nilpotent Jordan block, the companion
    matrix of (t - a)^d as it is and in disguise, a sum of companion
    blocks of q^k, q and (t - b)^r, q quadratic, in disguise, and random
    matrices."""
    p = F.characteristic
    a, b = rng.randrange(1, p), rng.randrange(p)
    x = UniPoly.gen(F)
    one = Matrix.identity(F, d)
    jordan = Matrix(F, [[int(j == i + 1) for j in range(d)] for i in range(d)])
    power = Matrix.companion((x - UniPoly.constant(F, a)) ** d)
    q, k = monic(F, 2, rng), d // 4
    linear = (x - UniPoly.constant(F, b)) ** (d - 2 * k - 2)
    blocks = [Matrix.companion(f) for f in (q**k, q, linear)]
    return [
        one,
        one.scale(a),
        jordan,
        power,
        conjugate(power, rng),
        conjugate(Matrix.block_diag(F, blocks), rng),
        random_matrix(F, d, rng),
        random_matrix(F, d, rng),
    ]


@pytest.mark.parametrize("d", [8, 16, 27, 31], ids=str)
@pytest.mark.parametrize("p", [2, 3, 5, 7], ids=str)
def test_charpoly_for_p_at_most_d_matches_sympy(p, d, monkeypatch):
    # dims with high powers of p in d!: v_2(31!) = 26, v_3(27!) = 13, so
    # Newton's identities divide by high powers of p, and the kernel runs
    # modulo up to 2^27; never the lists
    assert int64_bound_holds(p, d)
    calls = kernel_spies(monkeypatch)
    F = GF(p)
    mats = p_at_most_d_matrices(F, d, random.Random(1000 * p + d))
    for m in mats:
        assert m.rows == d
        assert_charpoly_matches_sympy(m)
    assert calls == {"power sums": len(mats), "lists": 0}


P20 = 1048573  # the largest prime below 2^20 = PRIME_LIMIT


@pytest.mark.parametrize("d", [1, 2, 5, 17, 40, 64], ids=str)
def test_charpoly_with_the_largest_int64_residues_matches_sympy(d, monkeypatch):
    # every entry p - 1, the largest int64 residue, then every entry in
    # [p - 8, p)
    assert P20 < _kernels.PRIME_LIMIT and not any(
        is_prime(q) for q in range(P20 + 1, _kernels.PRIME_LIMIT)
    )
    calls = kernel_spies(monkeypatch)
    F = GF(P20)
    rng = random.Random(71)
    assert_charpoly_matches_sympy(Matrix(F, [[P20 - 1] * d for _ in range(d)]))
    grid = [[rng.randrange(P20 - 8, P20) for _ in range(d)] for _ in range(d)]
    assert_charpoly_matches_sympy(Matrix(F, grid))
    assert calls == {"power sums": 2, "lists": 0}


@pytest.mark.parametrize("terms", [1, 5, 64, None], ids=str)
def test_charpoly_in_trace_chunks_matches_sympy(terms, monkeypatch):
    # the contraction for the power sums sums d^2 products in chunks of
    # terms(M); chunks of 1, 5 and 64 terms (5 and 64 leave a short last
    # chunk of d^2 = 144 and 961) give the same polynomials as the real
    # ones, which over F_2 at d = 31, modulo M = 2^27, are two: 512 of the
    # 961 terms, then the rest
    if terms is None:
        assert _kernels.newton_modulus(2, 31) == 2**27 and _kernels.terms(2**27) == 512
    else:
        monkeypatch.setattr(_kernels, "terms", lambda modulus: terms)
    rng = random.Random(73)
    for F, dims in ((GF(97), (1, 3, 12)), (GF(P20), (1, 3, 12)), (GF(2), (31,))):
        for d in dims:
            assert_charpoly_matches_sympy(random_matrix(F, d, rng))


def test_charpoly_just_above_prime_limit_matches_sympy(monkeypatch):
    # 1048583, the first prime above 2^20, has object residues, which the
    # power sums take cast to int64; at d = 16, the largest prime with
    # 16 p^2 < 2^63 is the last the power sums take, with every entry
    # p - 1, and the next prime goes to the lists
    p = 1048583
    assert p > _kernels.PRIME_LIMIT and not any(
        is_prime(q) for q in range(_kernels.PRIME_LIMIT, p)
    )
    calls = kernel_spies(monkeypatch)
    F = GF(p)
    rng = random.Random(79)
    for d in (1, 4, 16):
        assert_charpoly_matches_sympy(Matrix(F, [[p - 1] * d for _ in range(d)]))
        assert_charpoly_matches_sympy(random_matrix(F, d, rng))
    assert calls == {"power sums": 6, "lists": 0}
    below = largest_prime_below(isqrt((1 << 63) // 16) + 1)
    above = below + 2
    while not is_prime(above):
        above += 2
    assert 16 * below**2 < 1 << 63 <= 16 * above**2
    for q, algorithm in ((below, "power sums"), (above, "lists")):
        calls.update(dict.fromkeys(calls, 0))
        F = GF(q)
        assert_charpoly_matches_sympy(Matrix(F, [[q - 1] * 16 for _ in range(16)]))
        assert_charpoly_matches_sympy(random_matrix(F, 16, rng))
        assert calls[algorithm] == 2 and sum(calls.values()) == 2


@pytest.mark.parametrize("height", [1, 10**3, 10**14], ids=str)
def test_rational_charpoly_at_each_height_matches_sympy(height, monkeypatch):
    # integer matrices and matrices with denominators at dims 0..3 and 40:
    # one batched power-sum call each, never the lists
    calls = kernel_spies(monkeypatch)
    rng = random.Random(83)
    count = 0
    for d in (0, 1, 2, 3, 40):
        for dens in ((1,), (1, 3, 10**6 + 3, 2**40)):
            grid = [
                [Fraction(rng.randint(-height, height), rng.choice(dens)) for _ in range(d)]
                for _ in range(d)
            ]
            assert_charpoly_matches_sympy(Matrix(QQ, grid, cols=d))
            count += 1
    assert calls == {"power sums": count, "lists": 0}


def random_rational_factor(rng, degree):
    """A random polynomial of the given degree with signed fractional
    coefficients, not monic."""
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 12))) for _ in range(degree)]
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 7)))
    return UniPoly(QQ, coeffs + [lead])


def random_power_product(rng, max_degree):
    """A constant with content and sign times powers of random factors,
    multiplicities up to 6, of total degree at most max_degree."""
    f = UniPoly.constant(QQ, Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 60)))
    factors = []
    while True:
        d, e = rng.randint(1, 4), rng.randint(1, 6)
        if f.degree + d * e > max_degree:
            return f, factors
        q = random_rational_factor(rng, d)
        factors.append(q)
        f = f * q**e


def sympy_poly(f):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ")


def test_rational_squarefree_split_and_gcd_match_sympy():
    rng = random.Random(17)
    top = 0
    for _ in range(60):
        f, factors = random_power_product(rng, 32)
        if f.degree < 1:
            continue
        # g shares some of f's factors, at other multiplicities
        g = UniPoly.constant(QQ, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for q in rng.sample(factors, rng.randint(0, len(factors))):
            g = g * q ** rng.randint(1, 3)
        g = g * random_rational_factor(rng, rng.randint(1, 3))
        ours = sorted((UniPoly(QQ, q).monic().coeffs, e) for q, e in _squarefree_parts(f))
        _, parts = sympy_poly(f).sqf_list()
        theirs = sorted((normalise(q.all_coeffs(), QQ), e) for q, e in parts)
        assert ours == theirs, str(f)
        top = max(top, max(e for _, e in ours))
        expected = normalise(sympy_poly(f).gcd(sympy_poly(g)).all_coeffs(), QQ)
        assert uni_gcd(f, g).coeffs == uni_gcd(g, f).coeffs == expected, (str(f), str(g))
        assert uni_gcd(f, UniPoly.zero(QQ)) == f.monic()
    assert top >= 6


def test_rational_rref_matches_sympy():
    rng = random.Random(12)
    for k in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        grid = [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows >= 2 and k % 2:  # rank-deficient: one row a combination of the others
            grid[-1] = [sum(rng.randint(-3, 3) * r[j] for r in grid[:-1]) for j in range(cols)]
        m = Matrix(QQ, grid)
        R, pivots = rref(m)
        theirs, their_pivots = to_sympy(m).rref()
        assert pivots == list(their_pivots)
        assert [list(row) for row in R.entries] == [
            [Fraction(int(x.p), int(x.q)) for x in theirs.row(i)] for i in range(rows)
        ]


def sympy_scalar(x, field):
    if field.is_rationals:
        return Fraction(int(x.p), int(x.q))
    return int(x) % field.characteristic


def to_expr(f, syms):
    """A MultiPoly as a sympy expression in syms."""
    return sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**e for s, e in zip(syms, m))
        for m, c in f.terms
    )


def algebra_dim(t):
    """dim k[f1..fn]: the rank of the span of the products f^m, closed
    breadth-first under multiplication by each f_i and measured by rref."""
    F, d = t.field, t.dim

    def rank(mats):
        flat = [[x for row in m.entries for x in row] for m in mats]
        return len(rref(Matrix(F, flat, cols=d * d))[1])

    span = [Matrix.identity(F, d)]
    queue = list(span)
    while queue:
        m = queue.pop()
        for f in t.mats:
            w = f @ m
            if rank(span + [w]) > len(span):
                span.append(w)
                queue.append(w)
    return len(span)


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_annihilator_groebner_basis_matches_sympy(field):
    rng = random.Random(13)
    for nvars, d in ((1, 9), (2, 8), (2, 16), (2, 24), (3, 12), (3, 24)):
        t = random_commuting_tuple(field, nvars, d, rng)
        ideal = t.annihilator_ideal()
        syms = sympy.symbols(f"t1:{nvars + 1}")
        kw = {} if field.is_rationals else {"modulus": field.characteristic}
        exprs = [to_expr(g, syms) for g in ideal.gens]
        basis = sympy.groebner(exprs, *syms, order="grlex", **kw)
        theirs = sorted(
            sorted((m, sympy_scalar(c, field)) for m, c in sympy.Poly(g, *syms, **kw).terms())
            for g in basis.exprs
        )
        assert theirs == sorted(sorted(g.terms) for g in ideal.gens), (nvars, d)
        zero = Matrix.zeros(field, d, d)
        assert all(eval_poly_at_matrix(g, list(t.mats)) == zero for g in ideal.gens)
        # over Q the entries of f^m at dim 24 run to dozens of digits, and
        # each rref of the span there takes about a second
        if field.is_prime_field or d <= 16:
            assert ideal.quotient_dim == algebra_dim(t)


def builder_ideals(field, rng):
    """Reduced Groebner bases from the tuple builders: the annihilators of
    twisted points of an irreducible quadratic, alone and summed, of a
    simple point, of a fat point and of a point tensored with it, and the
    keys of their local pieces."""
    q = UniPoly(field, {2: [1, 1, 1], 97: [-5, 0, 1], 0: [-2, 0, 1]}[field.characteristic])
    points = twisted_points(q, rng)
    fat = fat_point(field, 2, 3)
    tuples = [
        *points,
        conjugate_tuple(CommutingTuple.direct_sum(*points), rng),
        simple_point(q, [UniPoly(field, [1, 1])], rng),
        fat,
        conjugate_tuple(CommutingTuple.direct_sum(tensor(points[1], fat), points[0]), rng),
    ]
    ideals = []
    for t in tuples:
        for ideal in [t.annihilator_ideal(), *(key.ideal for _, key in t._local_pieces())]:
            if ideal not in ideals:
                ideals.append(ideal)
    return ideals


@pytest.mark.parametrize("field", [GF(2), GF(97), QQ], ids=field_id)
def test_normal_forms_and_multiplication_matrices_match_sympy(field):
    # sympy's remainders mod p are symmetric residues, read back by
    # sympy_scalar; the reduced polynomials have degree up to 10, past
    # every leading monomial
    rng = random.Random(61)
    syms = sympy.symbols("t1:3")
    kw = {} if field.is_rationals else {"modulus": field.characteristic}

    def reduced(f, basis):
        r = sympy.reduced(to_expr(f, syms), basis, *syms, order="grlex", **kw)[1]
        terms = sympy.Poly(r, *syms, **kw).terms()
        return {m: c for m, x in terms if (c := sympy_scalar(x, field))}

    ideals = builder_ideals(field, rng)
    assert len(ideals) >= 5 and max(i.quotient_dim for i in ideals) >= 6
    for ideal in ideals:
        basis = [to_expr(g, syms) for g in ideal.gens]
        std = ideal.standard_monomials
        for _ in range(3):
            f = MultiPoly(
                field,
                2,
                {
                    (rng.randint(0, 5), rng.randint(0, 5)): field.random_scalar(rng)
                    for _ in range(8)
                },
            )
            assert dict(normal_form(f, ideal.gens).terms) == reduced(f, basis)
            columns = [reduced(f * MultiPoly(field, 2, {m: 1}), basis) for m in std]
            grid = [[column.get(e, 0) for column in columns] for e in std]
            assert multiplication_matrix(ideal, f) == Matrix(field, grid, cols=len(std))
