import random

import pytest

from endok.bruteforce import random_commuting_tuple
from endok.errors import FieldMismatchError
from endok.factor import factor_univariate
from endok.fields import GF, QQ
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
from endok.poly import MultiPoly, UniPoly

from conftest import ALL_FIELDS, field_id

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
