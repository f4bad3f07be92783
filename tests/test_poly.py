import random
from fractions import Fraction

import pytest

from endok.errors import FieldMismatchError
from endok.fields import GF, QQ
from endok.poly import (
    NEG_INF,
    MultiPoly,
    UniPoly,
    grlex_key,
    normal_form,
    pow_mod,
    signed_reversal,
    squarefree_decomposition,
    squarefree_part,
    uni_gcd,
    uni_gcdex,
    uni_lcm,
)

from conftest import ALL_FIELDS, field_id

F2, F3, F5 = GF(2), GF(3), GF(5)


def T(field=QQ):
    return UniPoly.gen(field)


def rand_unipoly(field, rng, max_deg, monic=False):
    deg = rng.randint(0, max_deg)
    coeffs = [field.random_scalar(rng) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = field.one
    elif not any(coeffs):
        coeffs[-1] = field.one
    return UniPoly(field, coeffs)


# -- arithmetic ---------------------------------------------------------------


def test_product_of_conjugates():
    t = T()
    one = UniPoly.one(QQ)
    assert (t + one) * (t - one) == UniPoly(QQ, [-1, 0, 1])


def test_frobenius_square_over_f2():
    x1 = MultiPoly.variable(F2, 2, 0)
    x2 = MultiPoly.variable(F2, 2, 1)
    sq = (x1 + x2) ** 2
    assert sq == x1 * x1 + x2 * x2  # the cross term 2*t1*t2 vanishes


def test_multiplicative_identity():
    rng = random.Random(1)
    for field in ALL_FIELDS:
        p = rand_unipoly(field, rng, 6)
        assert p * UniPoly.one(field) == p


def test_degree_sentinel():
    assert UniPoly.zero(QQ).degree == NEG_INF
    assert UniPoly.zero(QQ).degree < 0
    assert UniPoly.one(QQ).degree == 0


def test_mixed_field_rejected():
    with pytest.raises(FieldMismatchError):
        T(QQ) + T(F2)
    with pytest.raises(FieldMismatchError):
        MultiPoly.one(QQ, 2) * MultiPoly.one(QQ, 3)


# -- division -----------------------------------------------------------------


def test_divmod_exact():
    t = T()
    q, r = divmod(t * t - UniPoly.one(QQ), t - UniPoly.one(QQ))
    assert q == t + UniPoly.one(QQ) and r.is_zero


def test_divmod_small_degree():
    t = T()
    q, r = divmod(t, t * t)
    assert q.is_zero and r == t


def test_divmod_f2():
    f = UniPoly(F2, [1, 1, 0, 1])  # t^3 + t + 1
    g = UniPoly(F2, [1, 1])
    q, r = divmod(f, g)
    assert q == UniPoly(F2, [0, 1, 1]) and r == UniPoly.one(F2)
    assert q * g + r == f


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(T(), UniPoly.zero(QQ))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_divmod_identity_random(field):
    rng = random.Random(3)
    for _ in range(200):
        f = rand_unipoly(field, rng, 8)
        g = rand_unipoly(field, rng, 5)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


# -- gcd ----------------------------------------------------------------------


def test_gcd_examples():
    t = T()
    one = UniPoly.one(QQ)
    assert uni_gcd(t * t - one, t - one) == t - one
    f = 3 * (t + one)
    assert uni_gcd(f, UniPoly.zero(QQ)) == (t + one)
    assert uni_gcd(UniPoly(F2, [1, 0, 1]), UniPoly(F2, [0, 1, 1])) == UniPoly(F2, [1, 1])
    with pytest.raises(ValueError):
        uni_gcd(UniPoly.zero(QQ), UniPoly.zero(QQ))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_gcd_divides_both(field):
    rng = random.Random(4)
    for _ in range(100):
        f = rand_unipoly(field, rng, 6)
        g = rand_unipoly(field, rng, 6)
        d = uni_gcd(f, g)
        assert (f % d).is_zero and (g % d).is_zero
        gg, s, t = uni_gcdex(f, g)
        assert gg == d
        assert s * f + t * g == d


def test_lcm_and_pow_mod():
    t = T()
    one = UniPoly.one(QQ)
    assert uni_lcm(t, t - one) == t * (t - one)
    m = t * t + one
    assert pow_mod(t, 4, m) == UniPoly.one(QQ)  # t^4 = 1 mod t^2+1


# -- squarefree ---------------------------------------------------------------


def test_squarefree_part_examples():
    t = T()
    one = UniPoly.one(QQ)
    two = UniPoly.constant(QQ, 2)
    f = (t - one) ** 2 * (t + two)
    assert squarefree_part(f) == (t - one) * (t + two)
    assert squarefree_part(UniPoly(F2, [1, 0, 1])) == UniPoly(F2, [1, 1])
    assert squarefree_part(UniPoly(F2, [0, 0, 1, 0, 1])) == UniPoly(F2, [0, 1, 1])


def test_squarefree_part_preconditions():
    with pytest.raises(ValueError):
        squarefree_part(UniPoly.zero(QQ))
    with pytest.raises(ValueError):
        squarefree_part(2 * T())  # not monic


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_squarefree_properties(field):
    rng = random.Random(5)
    for _ in range(60):
        f = rand_unipoly(field, rng, 4, monic=True) * rand_unipoly(
            field, rng, 3, monic=True
        )
        f = f.monic()
        if f.degree < 1:
            continue
        sf = squarefree_part(f)
        assert (f % sf).is_zero
        d = sf.derivative()
        if not d.is_zero:
            assert uni_gcd(sf, d).is_one
        # decomposition reconstructs the input
        prod = UniPoly.one(field)
        for g, e in squarefree_decomposition(f):
            prod = prod * g**e
        assert prod == f


# -- signed reversal ----------------------------------------------------------


def test_signed_reversal_examples():
    t = T()
    one = UniPoly.one(QQ)
    assert signed_reversal(t - one) == one + t
    assert signed_reversal(t) == one  # nilpotent factor drops out
    assert signed_reversal(t * t + one) == one + t * t


def test_signed_reversal_preconditions():
    with pytest.raises(ValueError):
        signed_reversal(2 * T())
    with pytest.raises(ValueError):
        signed_reversal(T(), inverse=True)  # constant term 0


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_signed_reversal_multiplicative_and_involutive(field):
    rng = random.Random(6)
    for _ in range(100):
        q1 = rand_unipoly(field, rng, 5, monic=True)
        q2 = rand_unipoly(field, rng, 5, monic=True)
        assert signed_reversal(q1 * q2) == signed_reversal(q1) * signed_reversal(q2)
        if q1.constant_term:
            r = signed_reversal(q1)
            assert r.constant_term == field.one
            assert signed_reversal(r, inverse=True) == q1
        # forward of inverse is the identity on constant-term-1 inputs
        coeffs = [field.one] + [field.random_scalar(rng) for _ in range(4)]
        if not coeffs[-1]:
            coeffs[-1] = field.one
        r = UniPoly(field, coeffs)
        assert signed_reversal(signed_reversal(r, inverse=True)) == r


# -- normal form ---------------------------------------------------------------


def test_normal_form_examples():
    x1 = MultiPoly.variable(QQ, 2, 0)
    x2 = MultiPoly.variable(QQ, 2, 1)
    assert normal_form(x1 * x1, [x1, x2]).is_zero
    p = x1 * x2 + MultiPoly.one(QQ, 2)
    assert normal_form(p, [x1 * x1, x2 * x2]) == p
    assert normal_form(x1 * x1, [x1 * x1 - x2, x2 * x2]) == x2


def test_normal_form_idempotent():
    rng = random.Random(7)
    for field in (QQ, F3):
        for _ in range(40):
            nvars = rng.randint(1, 3)
            p = MultiPoly(
                field,
                nvars,
                {
                    tuple(rng.randint(0, 2) for _ in range(nvars)): field.random_scalar(rng)
                    for _ in range(4)
                },
            )
            basis = []
            for _ in range(2):
                b = MultiPoly(
                    field,
                    nvars,
                    {
                        tuple(rng.randint(0, 2) for _ in range(nvars)): field.random_scalar(rng)
                        for _ in range(3)
                    },
                )
                if not b.is_zero:
                    basis.append(b)
            if not basis:
                continue
            nf = normal_form(p, basis)
            assert normal_form(nf, basis) == nf


# -- ordering and rendering ------------------------------------------------------


def test_grlex_order():
    # t1 > t2 within a degree; degree dominates
    assert grlex_key((1, 0)) > grlex_key((0, 1))
    assert grlex_key((0, 2)) > grlex_key((1, 0))
    assert grlex_key((2, 1)) == (3, (2, 1))


def test_term_iteration_descending():
    x1 = MultiPoly.variable(QQ, 2, 0)
    x2 = MultiPoly.variable(QQ, 2, 1)
    p = x2 + x1 + x1 * x1
    monos = [e for e, _ in p.terms]
    assert monos == [(2, 0), (1, 0), (0, 1)]


def test_rendering():
    t = T()
    one = UniPoly.one(QQ)
    assert str(t - one) == "t - 1"
    assert str(UniPoly.zero(QQ)) == "0"
    assert str(UniPoly(QQ, [Fraction(5, 6)])) == "5/6"
    assert str(-t) == "-t"
    assert str(UniPoly(QQ, [2, -3, 1])) == "t^2 - 3*t + 2"
    assert str(UniPoly(F3, [2, 1])) == "t + 2"
    x1 = MultiPoly.variable(QQ, 2, 0)
    x2 = MultiPoly.variable(QQ, 2, 1)
    assert str(x1 * x1 * x2 + x2) == "t1^2*t2 + t2"


def test_hash_and_immutability():
    t = T()
    assert hash(t) == hash(UniPoly.gen(QQ))
    with pytest.raises(AttributeError):
        t.coeffs = ()
    m = MultiPoly.one(QQ, 2)
    with pytest.raises(AttributeError):
        m.terms = ()
