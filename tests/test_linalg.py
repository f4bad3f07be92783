import random
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endok import linalg, poly
from endok.bruteforce import random_commuting_tuple, random_vector
from endok.errors import FieldMismatchError
from endok.factor import factor_univariate
from endok.fields import GF, QQ, is_prime
from endok.linalg import (
    Echelon,
    Matrix,
    Subspace,
    charpoly,
    column_space,
    eval_poly_at_matrix,
    kernel_basis,
    minimal_polynomial,
    rref,
)
from endok.poly import MultiPoly, UniPoly, squarefree_decomposition, uni_gcd

from conftest import ALL_FIELDS, P61, PMAX, field_id, plain_matmul, plain_ops, plain_rref

F2, F3 = GF(2), GF(3)


def rand_matrix(field, rng, d):
    return Matrix(
        field, [[field.random_scalar(rng) for _ in range(d)] for _ in range(d)]
    )


def charpoly_laplace(m):
    """Independent oracle: det(xI - m) by cofactor expansion over the
    polynomial ring.  Exponential, only for tiny matrices."""
    F = m.field
    d = m.rows
    x = UniPoly.gen(F)
    grid = [
        [
            (x if i == j else UniPoly.zero(F)) - UniPoly.constant(F, m.entries[i][j])
            for j in range(d)
        ]
        for i in range(d)
    ]

    def det(rows, cols):
        if not cols:
            return UniPoly.one(F)
        i = rows[0]
        acc = UniPoly.zero(F)
        for pos, j in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = grid[i][j] * minor
            acc = acc + (term if pos % 2 == 0 else -term)
        return acc

    return det(tuple(range(d)), tuple(range(d)))


# -- rref / kernel ---------------------------------------------------------------


def test_rref_examples():
    I3 = Matrix.identity(QQ, 3)
    R, piv = rref(I3)
    assert R == I3 and piv == [0, 1, 2]
    Z = Matrix.zeros(QQ, 2, 3)
    R, piv = rref(Z)
    assert R == Z and piv == []
    R, piv = rref(Matrix(QQ, [[1, 2], [2, 4]]))
    assert R == Matrix(QQ, [[1, 2], [0, 0]]) and piv == [0]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_rref_idempotent_and_kernel_exact(field):
    rng = random.Random(10)
    for _ in range(50):
        m = rand_matrix(field, rng, rng.randint(1, 5))
        R, piv = rref(m)
        R2, piv2 = rref(R)
        assert R2 == R and piv2 == piv
        ker = kernel_basis(m)
        assert ker.dim == m.cols - len(piv)
        z = (field.zero,) * m.rows
        for v in ker.basis:
            assert m.mul_vec(v) == z


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(QQ, 3)).is_zero
    assert kernel_basis(Matrix.zeros(QQ, 2, 2)).dim == 2
    k = kernel_basis(Matrix(QQ, [[0, 1], [0, 0]]))
    assert k.basis == ((QQ.one, QQ.zero),)


# -- subspaces ---------------------------------------------------------------------


def test_subspace_canonical_equality():
    a = Subspace(QQ, 3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace(QQ, 3, [(1, 1, 1), (2, 2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a.contains((3, 3, 5))
    assert not a.contains((1, 0, 0))
    assert a.sum(Subspace(QQ, 3, [(1, 0, 0)])) == Subspace.full(QQ, 3)
    assert a.complement_coords() == (1,)


def test_subspace_public_constructor_coerces_and_checks():
    assert Subspace(GF(5), 2, [(7, -1)]).basis == ((1, 2),)
    sp = Subspace(QQ, 2, [(Fraction(2, 4), 1)])
    assert sp.basis == ((Fraction(1), Fraction(2)),)
    assert all(type(x) is Fraction for x in sp.basis[0])
    with pytest.raises(ValueError, match="vector length mismatch"):
        Subspace(QQ, 3, [(1, 2)])
    with pytest.raises(TypeError):
        Subspace(GF(5), 1, [(1.0,)])


def test_column_space():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    cs = column_space(m)
    assert cs.dim == 1 and cs.contains((1, 2))


# -- charpoly / minpoly -------------------------------------------------------------


def test_charpoly_examples():
    assert str(charpoly(Matrix.zeros(QQ, 2, 2))) == "t^2"
    q = UniPoly(F3, [1, 2, 0, 1])
    assert charpoly(Matrix.companion(q)) == q
    assert str(charpoly(Matrix(QQ, [[1, 1], [0, 1]]))) == "t^2 - 2*t + 1"
    assert charpoly(Matrix(QQ, [], cols=0)).is_one
    with pytest.raises(ValueError):
        charpoly(Matrix.zeros(QQ, 2, 3))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_charpoly_against_laplace_oracle(field):
    rng = random.Random(11)
    for _ in range(30):
        m = rand_matrix(field, rng, rng.randint(1, 4))
        assert charpoly(m) == charpoly_laplace(m)


def fraction_hessenberg(m):
    """Reference: det(xI - m) over Q by Hessenberg reduction and the
    leading-minor recurrence on plain Fractions."""
    d = m.rows
    h = [list(row) for row in m.entries]
    for j in range(d - 2):
        piv = next((i for i in range(j + 1, d) if h[i][j]), None)
        if piv is None:
            continue
        h[piv], h[j + 1] = h[j + 1], h[piv]
        for row in h:
            row[piv], row[j + 1] = row[j + 1], row[piv]
        for i in range(j + 2, d):
            f = h[i][j] / h[j + 1][j]
            h[i] = [x - f * y for x, y in zip(h[i], h[j + 1])]
            for row in h:
                row[j + 1] += f * row[i]
    polys = [[Fraction(1)]]
    for k in range(1, d + 1):
        pk = [Fraction(0)] + polys[k - 1]
        for e, c in enumerate(polys[k - 1]):
            pk[e] -= h[k - 1][k - 1] * c
        prod_sub = Fraction(1)
        for i in range(k - 1, 0, -1):
            prod_sub *= h[i][i - 1]
            for e, c in enumerate(polys[i - 1]):
                pk[e] -= h[i - 1][k - 1] * prod_sub * c
        polys.append(pk)
    return UniPoly(QQ, polys[d])


def crt_prime_bound(m):
    """Twice the largest Hadamard bound C(d, k) R^k on the coefficients of
    det(xI - N), for m = N/D in lowest terms and R rounded up."""
    den = lcm(*(x.denominator for row in m.entries for x in row))
    r2 = max((sum(int(x * den) ** 2 for x in row) for row in m.entries), default=0)
    r = isqrt(r2) + (isqrt(r2) ** 2 < r2)
    return 2 * max(comb(m.rows, k) * r**k for k in range(m.rows + 1))


def big_rational_matrices(rng):
    """Dim 0 and 1, zero matrices, and matrices with entries of 10^12 and
    more over mixed denominators."""
    out = [Matrix(QQ, [], cols=0), Matrix(QQ, [[Fraction(-10**13, 7)]]), Matrix.zeros(QQ, 3, 3)]
    # chi = t - 2^60: the first prime, 2^61 - 1, is above the bound 2^60 on
    # its coefficients but not above twice it, where -2^60 would read as
    # 2^60 - 1
    out.append(Matrix(QQ, [[2**60]]))
    for d in (1, 2, 3, 4, 5, 8):
        grid = [
            [
                Fraction(rng.randint(-(10**15), 10**15), rng.choice((1, 3, 10**6 + 3, 2**40)))
                if rng.random() < 0.8
                else Fraction(0)
                for _ in range(d)
            ]
            for _ in range(d)
        ]
        out.append(Matrix(QQ, grid))
    return out


def test_rational_charpoly_by_crt_matches_fraction_hessenberg(monkeypatch):
    primes = []
    original = linalg._charpoly_mod

    def recording(rows, p):
        primes.append(p)
        return original(rows, p)

    monkeypatch.setattr(linalg, "_charpoly_mod", recording)
    counts = []
    for m in big_rational_matrices(random.Random(14)):
        primes.clear()
        chi = charpoly(m)
        assert chi == fraction_hessenberg(m), str(m)
        if m.rows <= 4:
            assert chi == charpoly_laplace(m)
        # enough primes for the bound, and not one more
        bound = crt_prime_bound(m)
        assert prod(primes) > bound >= prod(primes[:-1]), (len(primes), m.rows)
        assert len(set(primes)) == len(primes)
        assert all(2**60 < p < 2**61 and is_prime(p) for p in primes)
        counts.append(len(primes))
    assert counts[:4] == [1, 1, 1, 2] and max(counts) >= 3


@pytest.mark.parametrize("field", [QQ, F3, GF(2**31 - 1)], ids=field_id)
def test_native_scalar_paths_call_no_field_methods(field, monkeypatch):
    """Matrix sums, negation, scaling and charpoly run on raw scalars with
    Python operators, and charpoly builds one UniPoly."""
    rng = random.Random(13)
    F = field
    a, b = rand_matrix(F, rng, 5), rand_matrix(F, rng, 5)
    c = F.random_scalar(rng)
    added = [[F.add(x, y) for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)]
    negated = [[F.neg(x) for x in r] for r in a.entries]
    scaled = [[F.mul(c, x) for x in r] for r in a.entries]
    expected = charpoly_laplace(a)

    def forbidden(*args):
        raise AssertionError("per-scalar field method called")

    for name in ("add", "sub", "mul", "neg"):
        monkeypatch.setattr(type(F), name, forbidden)
    built = []
    from_canonical = UniPoly._from_canonical.__func__
    monkeypatch.setattr(
        UniPoly,
        "_from_canonical",
        classmethod(lambda cls, *args: built.append(1) or from_canonical(cls, *args)),
    )
    monkeypatch.setattr(UniPoly, "__init__", forbidden)
    assert [list(r) for r in (a + b).entries] == added
    assert [list(r) for r in (-a).entries] == negated
    assert [list(r) for r in a.scale(c).entries] == scaled
    assert charpoly(a) == expected and len(built) == 1


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_cayley_hamilton(field):
    rng = random.Random(12)
    for _ in range(50):
        m = rand_matrix(field, rng, rng.randint(1, 6))
        assert eval_poly_at_matrix(charpoly(m), [m]).is_zero


def test_minpoly_examples():
    assert str(minimal_polynomial(Matrix.zeros(QQ, 2, 2))) == "t"
    assert str(minimal_polynomial(Matrix.identity(QQ, 3))) == "t - 1"
    # lcm of the local annihilators t and t-1
    assert str(minimal_polynomial(Matrix(QQ, [[0, 0], [0, 1]]))) == "t^2 - t"


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_minpoly_divides_charpoly_same_factors(field):
    rng = random.Random(13)
    for _ in range(25):
        m = rand_matrix(field, rng, rng.randint(1, 5))
        mp = minimal_polynomial(m)
        cp = charpoly(m)
        assert (cp % mp).is_zero
        assert eval_poly_at_matrix(mp, [m]).is_zero
        mp_factors = {str(q) for q, _ in factor_univariate(mp)}
        cp_factors = {str(q) for q, _ in factor_univariate(cp)}
        assert mp_factors == cp_factors


# -- polynomial evaluation -----------------------------------------------------------


def test_eval_examples():
    F = Matrix(QQ, [[0, 1], [0, 0]])
    G = Matrix(QQ, [[1, 0], [0, 2]])
    t = UniPoly.gen(QQ)
    assert eval_poly_at_matrix(t, [F]) == F
    x1x2 = MultiPoly.variable(QQ, 2, 0) * MultiPoly.variable(QQ, 2, 1)
    # F and G do not commute in general; these two do
    assert eval_poly_at_matrix(x1x2, [Matrix.identity(QQ, 2), G]) == G
    q = UniPoly(QQ, [1, 0, 1])
    assert eval_poly_at_matrix(q, [Matrix.companion(q)]).is_zero
    with pytest.raises(ValueError):
        eval_poly_at_matrix(t, [F, G])
    with pytest.raises(FieldMismatchError):
        eval_poly_at_matrix(UniPoly.gen(F2), [F])


def test_eval_is_ring_homomorphism():
    rng = random.Random(14)
    for field in (QQ, F3):
        a = rand_matrix(field, rng, 3)
        ps = [
            UniPoly(field, [field.random_scalar(rng) for _ in range(4)])
            for _ in range(4)
        ]
        for p1 in ps:
            for p2 in ps:
                assert eval_poly_at_matrix(p1 * p2, [a]) == eval_poly_at_matrix(
                    p1, [a]
                ) @ eval_poly_at_matrix(p2, [a])
                assert eval_poly_at_matrix(p1 + p2, [a]) == eval_poly_at_matrix(
                    p1, [a]
                ) + eval_poly_at_matrix(p2, [a])
    for field in (QQ, F3):
        for n in (2, 3):
            ms = list(random_commuting_tuple(field, n, 4, rng).mats)

            def ev(p):
                return eval_poly_at_matrix(p, ms)

            ps = [
                MultiPoly(
                    field,
                    n,
                    {
                        tuple(rng.randint(0, 2) for _ in range(n)): field.random_scalar(rng)
                        for _ in range(3)
                    },
                )
                for _ in range(3)
            ]
            ps += [MultiPoly.constant(field, n, 2), MultiPoly.zero(field, n)]
            for p1 in ps:
                for p2 in ps:
                    assert ev(p1 * p2) == ev(p1) @ ev(p2)
                    assert ev(p1 + p2) == ev(p1) + ev(p2)
            assert ev(MultiPoly.constant(field, n, 2)) == Matrix.identity(field, 4).scale(2)
            assert ev(MultiPoly.zero(field, n)).is_zero
            for i in range(n):
                assert ev(MultiPoly.variable(field, n, i)) == ms[i]


# -- matrices -------------------------------------------------------------------------


def test_matrix_text_format():
    m = Matrix(F3, [[0, -1], [1, 0]])
    assert str(m) == "[[0,2];[1,0]]"
    assert str(Matrix(QQ, [], cols=0)) == "[[]]"


def test_companion_requires_monic():
    with pytest.raises(ValueError):
        Matrix.companion(2 * UniPoly.gen(QQ))


def test_block_diag_and_pow():
    a = Matrix(QQ, [[2]])
    b = Matrix(QQ, [[0, 1], [0, 0]])
    c = Matrix.block_diag(QQ, [a, b])
    assert c.rows == 3 and c.entries[0][0] == 2 and c.entries[1][2] == 1
    assert b.pow(2).is_zero
    assert a.pow(5).entries[0][0] == 32


def test_matmul_shape_and_field_checks():
    with pytest.raises(ValueError):
        Matrix.zeros(QQ, 2, 3) @ Matrix.zeros(QQ, 2, 3)
    with pytest.raises(FieldMismatchError):
        Matrix.zeros(QQ, 2, 2) @ Matrix.zeros(F2, 2, 2)


def test_echelon_tracking():
    ech = Echelon(QQ, 3, track=True)
    added, _ = ech.insert((1, 2, 0))
    assert added
    added, _ = ech.insert((0, 1, 1))
    assert added
    added, combo = ech.insert((2, 5, 1))  # = 2*g0 + 1*g1
    assert not added
    assert combo == {0: QQ.coerce(2), 1: QQ.coerce(1)}


def test_pow_and_eval_take_no_wasted_products(monkeypatch):
    m = Matrix(QQ, [[1, 1], [0, 1]])
    calls = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    assert m.pow(0) == Matrix.identity(QQ, 2) and not calls
    assert m.pow(1) == m and not calls
    # 13 = 0b1101: three squarings, two products into the result
    assert m.pow(13) == Matrix(QQ, [[1, 13], [0, 1]]) and len(calls) == 5
    calls.clear()
    assert eval_poly_at_matrix(UniPoly.gen(QQ), [m]) == m and not calls
    # t^3 - 2t + 1: the powers m^2 and m^3, one product each
    q = UniPoly(QQ, [1, -2, 0, 1])
    assert eval_poly_at_matrix(q, [m]) == Matrix(QQ, [[0, 1], [0, 0]]) and len(calls) == 2


def test_public_constructor_coerces_and_checks():
    assert Matrix(GF(5), [[7, -1]]).entries == ((2, 4),)
    assert Matrix(QQ, [[Fraction(2, 4)]]).entries == ((Fraction(1, 2),),)
    for field in (QQ, GF(5)):
        with pytest.raises(TypeError):
            Matrix(field, [[1.0]])
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2], [3]])


# -- differential: the integer kernels against plain loops ------------------------------

P31 = GF(2**31 - 1)  # above the int64 limit: residue arrays of Python ints
DENOMINATORS = (1, 1, 1, 2, 3, 4, 6, 7, 12, 35)


def rand_rational_grid(rng, rows, cols):
    """Signed fractions with mixed denominators, often with a zero row or
    column and often rank-deficient (a row a combination of two others)."""

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-20, 20), rng.choice(DENOMINATORS))

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.5:
        i, j, k = rng.sample(range(rows), 3)
        a, b = entry(), entry()
        grid[k] = [a * x + b * y for x, y in zip(grid[i], grid[j])]
    if rng.random() < 0.3:
        grid[rng.randrange(rows)] = [Fraction(0)] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = Fraction(0)
    return grid


def rand_shapes(rng, count):
    """(rows, inner, cols) triples, with 1 x k and k x 1 factors among them."""
    fixed = [(1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 6), (6, 4, 1), (3, 1, 1), (1, 1, 3)]
    return fixed + [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(count - len(fixed))]


@pytest.mark.parametrize("field", [QQ, P31, P61, PMAX], ids=field_id)
def test_integer_kernels_match_plain_loops(field):
    add, sub, mul, _ = plain_ops(field)
    rng = random.Random(21)
    deficient = 0
    for rows, inner, cols in rand_shapes(rng, 60):
        a = Matrix(field, rand_rational_grid(rng, rows, inner))
        b = Matrix(field, rand_rational_grid(rng, inner, cols))
        a2 = Matrix(field, rand_rational_grid(rng, rows, inner))
        c = field.coerce(rng.choice([0, 1, -1, Fraction(-7, 12), Fraction(35, 4)]))
        ab = plain_matmul(field, a.entries, b.entries)
        assert (a @ b).entries == ab
        assert a.mul_vec(b.column(0)) == tuple(row[0] for row in ab)
        pairs = list(zip(a.entries, a2.entries))
        assert (a + a2).entries == tuple(tuple(map(add, r, s)) for r, s in pairs)
        assert (a - a2).entries == tuple(tuple(map(sub, r, s)) for r, s in pairs)
        assert (-a).entries == tuple(tuple(sub(field.zero, x) for x in r) for r in a.entries)
        assert a.scale(c).entries == tuple(tuple(mul(c, x) for x in r) for r in a.entries)
        picked_rows = sorted(rng.sample(range(rows), rng.randint(0, rows)))
        picked_cols = sorted(rng.sample(range(inner), rng.randint(1, inner)))
        block = linalg._submatrix(a, picked_rows, picked_cols)
        picked = tuple(tuple(a.entries[i][j] for j in picked_cols) for i in picked_rows)
        assert block.entries == picked
        assert block.cols == len(picked_cols)
        for m in (a, b):
            R, piv = rref(m)
            assert (R.entries, piv) == plain_rref(field, m.entries)
            deficient += len(piv) < min(m.rows, m.cols)
        for m in (a @ b, R, a + a2, a - a2, a.scale(c), block):
            # raw scalars of the field's own type, from a residue array of
            # exact Python ints over these primes
            assert all(type(x) is type(field.zero) for row in m.entries for x in row)
            assert field.is_rationals or m.to_array().dtype == object
    assert deficient >= 20


def test_rational_matrix_keeps_one_canonical_integer_form():
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    rows = Matrix(QQ, [[half, 1], [0, Fraction(-3, 4)]])
    # the same value built by operations whose denominators differ before
    # the common factor is divided out: 6, 12 and 24
    built = [
        Matrix(QQ, [[third, 1], [0, -1]]) + Matrix(QQ, [[sixth, 0], [0, Fraction(1, 4)]]),
        (rows.scale(6) @ Matrix.identity(QQ, 2)).scale(Fraction(1, 6)),
        (rows.scale(Fraction(5, 4)) - rows.scale(Fraction(1, 4))),
        linalg._submatrix(Matrix(QQ, [[half, 1, sixth], [0, Fraction(-3, 4), 0]]), [0, 1], [0, 1]),
    ]
    for m in built:
        assert m._entries is None  # no Fraction built by the operation
        assert m == rows and rows == m and hash(m) == hash(rows)
        num, den = m.to_integers()
        assert (num, den) == rows.to_integers() == (((2, 4), (0, -3)), 4)
        assert gcd(den, *num[0], *num[1]) == 1
    assert built[0] != Matrix(QQ, [[half, 1], [0, Fraction(3, 4)]])
    assert Matrix(QQ, [[half]]) != Matrix(QQ, [[half, 0]])
    zero = rows - rows
    assert zero.is_zero and zero.to_integers() == (((0, 0), (0, 0)), 1)
    assert zero == Matrix.zeros(QQ, 2, 2) and hash(zero) == hash(Matrix.zeros(QQ, 2, 2))
    assert rows.scale(0) == zero and (rows @ zero).to_integers()[1] == 1
    assert Matrix(QQ, [], cols=3).transpose().to_integers() == (((), (), ()), 1)


def test_rational_kernels_build_fractions_only_for_results(monkeypatch):
    """Over Q the matrix operations, row reduction and kernels build no
    Fraction at all, and charpoly, the squarefree split and gcd build
    only the coefficients of their results."""
    rng = random.Random(23)
    a = Matrix(QQ, rand_rational_grid(rng, 6, 6))
    b = Matrix(QQ, rand_rational_grid(rng, 6, 6))
    for m in (a, b):
        m.to_integers()
    t = UniPoly.gen(QQ)
    one, fifth = UniPoly.one(QQ), UniPoly.constant(QQ, Fraction(1, 5))
    f = (t.scale(Fraction(2, 3)) - one) ** 3 * (t**2 + fifth)
    g = f * (t + one) ** 2
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting)
    monkeypatch.setattr(poly, "Fraction", counting)
    results = [
        a @ b,
        a + b,
        a - b,
        -a,
        a.scale(Fraction(-5, 6)),
        a.pow(3),
        a.transpose(),
        linalg._submatrix(a, [1, 3], [0, 2, 5]),
        linalg._stack([a, b]),
        rref(a)[0],
        kernel_basis(a @ Matrix(QQ, [[1, 1, 0, 0, 0, 0]] * 6)).matrix,
    ]
    assert built == [] and all(m._entries is None for m in results)
    chi = charpoly(a)
    assert 0 < len(built) <= 7 and chi.degree == 6
    built.clear()
    parts = squarefree_decomposition(g)
    assert [e for _, e in parts] == [1, 2, 3] and len(built) == sum(q.degree + 1 for q, _ in parts)
    built.clear()
    assert uni_gcd(f, g) == f.monic() and len(built) == f.degree + 1


def test_integer_echelon_keeps_rows_primitive():
    rng = random.Random(22)
    for rows, cols, _ in rand_shapes(rng, 40):
        grid = [[int(x * 420) for x in row] for row in rand_rational_grid(rng, rows, cols)]
        out, pivots = linalg._integer_echelon(grid)
        for r, row in enumerate(out):
            if r < len(pivots):
                assert gcd(*row) == 1, row
            else:
                assert not any(row)
        assert pivots == rref(Matrix(QQ, grid))[1]


# -- differential: Echelon against a plain loop over field scalars ------------------

ECHELON_FIELDS = (QQ, F2, GF(97), P31)


def plain_echelon(field, vectors):
    """([(added, combo)], rank) for inserting the vectors in turn: each is
    reduced against monic rows over field scalars, every row carrying its
    combination of the added vectors as a dict."""
    _, sub, mul, div = plain_ops(field)
    rows = []  # (row, pivot, combo)
    out = []
    for v in vectors:
        work = [field.coerce(x) for x in v]
        new = len(rows)
        combo = {new: field.one}  # work = sum of combo[g] * added vector g
        for row, pivot, rc in rows:
            c = work[pivot]
            if c:
                work = [sub(x, mul(c, y)) for x, y in zip(work, row)]
                for g, y in rc.items():
                    combo[g] = sub(combo.get(g, field.zero), mul(c, y))
        lead = next((j for j, x in enumerate(work) if x), None)
        if lead is None:
            dependency = {g: sub(field.zero, x) for g, x in combo.items() if x and g != new}
            out.append((False, dependency))
            continue
        a = work[lead]
        rows.append(
            ([div(x, a) for x in work], lead, {g: div(x, a) for g, x in combo.items()})
        )
        out.append((True, None))
    return out, len(rows)


def field_scalars(field):
    if field.is_rationals:
        return st.builds(
            Fraction, st.integers(-20, 20), st.sampled_from(DENOMINATORS)
        )
    p = field.characteristic
    return st.integers(-p, 2 * p) | st.integers(0, 2)


@st.composite
def echelon_sequences(draw):
    """(field, width, vectors): random vectors, and planned dependencies,
    each a combination of up to three earlier vectors (possibly zero)."""
    field = draw(st.sampled_from(ECHELON_FIELDS))
    width = draw(st.integers(0, 6))
    scalars = field_scalars(field)
    vectors = []
    for _ in range(draw(st.integers(1, 10))):
        if vectors and draw(st.booleans()):
            picks = draw(
                st.lists(
                    st.tuples(st.integers(0, len(vectors) - 1), scalars),
                    min_size=1,
                    max_size=3,
                )
            )
            v = [sum(c * vectors[i][j] for i, c in picks) for j in range(width)]
        else:
            v = draw(st.lists(scalars, min_size=width, max_size=width))
        vectors.append(v)
    return field, width, vectors


@settings(derandomize=True, max_examples=200, deadline=None)
@given(echelon_sequences())
@example((QQ, 3, [(1, 2, 0), (0, 1, 1), (2, 5, 1)]))
@example(
    (
        QQ,
        3,
        [
            (Fraction(-3, 4), Fraction(5, 6), 0),
            (Fraction(7, 12), 0, Fraction(-1, 35)),
            (Fraction(-1, 6), Fraction(5, 6), Fraction(-1, 35)),
            (0, 0, 0),
        ],
    )
)
@example((F2, 4, [(1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0), (1, 1, 1, 1)]))
@example((GF(97), 2, [(96, 1), (1, 96), (0, 5)]))
@example((P31, 3, [(2**31 - 2, 1, 0), (1, 2**30, 3), (0, 2**30 + 1, 3)]))
@example((QQ, 0, [()]))
def test_echelon_matches_plain_loop(case):
    field, width, vectors = case
    expected, rank = plain_echelon(field, vectors)
    tracked = Echelon(field, width, track=True)
    untracked = Echelon(field, width)
    for v, (added, combo) in zip(vectors, expected):
        assert tracked.insert(v) == (added, combo), (v, combo)
        assert untracked.insert(v) == (added, None)
        if combo:  # the field's own scalars, not integers over Q
            assert all(type(c) is type(field.one) for c in combo.values())
    assert tracked.rank == untracked.rank == rank


def plain_closure(t, vectors):
    """The span of the vectors and every image under the matrices, grown
    until it stops growing, through the public Subspace constructor."""
    span = Subspace(t.field, t.dim, vectors)
    while True:
        images = [m.mul_vec(v) for m in t.mats for v in span.basis]
        grown = Subspace(t.field, t.dim, span.basis + tuple(images))
        if grown == span:
            return span
        span = grown


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(ECHELON_FIELDS),
    st.integers(1, 3),
    st.integers(0, 7),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
@example(QQ, 2, 6, 1, 0)
@example(F2, 1, 7, 2, 5)
def test_generated_submodule_matches_plain_closure(field, nvars, dim, count, seed):
    rng = random.Random(seed)
    t = random_commuting_tuple(field, nvars, dim, rng)
    vectors = [random_vector(field, dim, rng) for _ in range(count)]
    assert t.generated_submodule(vectors).space == plain_closure(t, vectors)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(echelon_sequences())
@example((GF(97), 4, [(1, 2, 0, 3), (2, 4, 0, 6)]))
@example((QQ, 3, [(2, 1, 0), (0, 3, 1)]))
@example((QQ, 2, [(0, 0)]))
def test_kernel_rows_match_plain_loop(case):
    # one row per free column j: e_j minus column j of the reduced
    # echelon form at the pivots, in every field's integer form
    field, width, vectors = case
    m = Matrix(field, vectors, cols=width)
    K, free = linalg._kernel_rows(m)
    R, pivots = rref(m)
    assert free == [j for j in range(width) if j not in pivots]
    expected = []
    for j in free:
        v = [field.zero] * width
        v[j] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(R.entries[i][j])
        expected.append(tuple(v))
    assert (K.rows, K.cols) == (len(free), width)
    assert K.entries == tuple(expected)
    assert (m @ K.transpose()).is_zero
