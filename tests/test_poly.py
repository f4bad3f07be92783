import random
from fractions import Fraction
from itertools import combinations, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endok.errors import FieldMismatchError
from endok.fields import GF, QQ
from endok.poly import (
    NEG_INF,
    MultiPoly,
    _add,
    _derivative,
    _div_exact,
    _divmod,
    _gcd,
    _mul,
    _pow_mod,
    _squarefree,
    _sub,
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


def test_public_constructor_coerces_and_results_stay_canonical():
    assert UniPoly(F5, [7, -1, 0]).coeffs == (2, 4)
    for field, c in ((F5, 7), (F5, 5), (QQ, Fraction(2, 4)), (QQ, 0), (QQ, -3)):
        k = MultiPoly.constant(field, 2, c)
        assert k == MultiPoly(field, 2, {(0, 0): c})
        assert all(type(x) is type(field.zero) for _, x in k.terms)
    for field in (QQ, F5):
        with pytest.raises(TypeError):
            UniPoly(field, [1, 1.0])
    rng = random.Random(31)
    for field in ALL_FIELDS:
        kind = type(field.zero)
        for _ in range(30):
            f = rand_unipoly(field, rng, 5)
            g = rand_unipoly(field, rng, 3)
            for h in (f + g, f - g, f * g, -f, f.scale(3), *divmod(f, g)):
                assert all(type(c) is kind for c in h.coeffs)
                assert not h.coeffs or h.coeffs[-1]
                assert h == UniPoly(field, h.coeffs)


# -- coefficient-list helpers ---------------------------------------------------------
#
# The helpers against plain loops written here.  p = 0 stands for integer
# lists (Zassenhaus over Z); the others are residues mod p.

HELPER_MODULI = [0, 2, 97, 2**61 - 1]


def trimmed(xs, p):
    out = [x % p for x in xs] if p else list(xs)
    while out and out[-1] == 0:
        out.pop()
    return out


def plain_mul(f, g, p):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i in range(len(f)):
        for j in range(len(g)):
            out[i + j] += f[i] * g[j]
    return trimmed(out, p)


def plain_divmod(f, g, p):
    """Textbook long division; over Z, g is monic."""
    rem = list(f)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g):
        c = rem[-1] * pow(g[-1], p - 2, p) % p if p else rem[-1]
        k = len(rem) - len(g)
        quo[k] = c
        for i in range(len(g)):
            rem[k + i] -= c * g[i]
        rem = trimmed(rem, p)
    return trimmed(quo, p), rem


def plain_monic(f, p):
    return trimmed([c * pow(f[-1], p - 2, p) for c in f], p)


def plain_gcd(f, g, p):
    while g:
        f, g = g, plain_divmod(f, g, p)[1]
    return plain_monic(f, p)


def plain_pow_mod(f, e, m, p):
    acc = [1]
    for _ in range(e):
        acc = plain_mul(acc, f, p)
    return plain_divmod(acc, m, p)[1]


def plain_div_exact(f, g):
    """The quotient over Q by long division; None unless it is integral
    with no remainder."""
    rem = [Fraction(c) for c in f]
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while rem and len(rem) >= len(g):
        c = rem[-1] / g[-1]
        k = len(rem) - len(g)
        quo[k] = c
        for i in range(len(g)):
            rem[k + i] -= c * g[i]
        rem = trimmed(rem, 0)
    if rem or any(q.denominator != 1 for q in quo):
        return None
    return trimmed([int(q) for q in quo], 0)


@st.composite
def helper_cases(draw):
    """(p, f, g, e): f of degree <= 7, g of degree <= 4 (zero, units and
    linear divisors included), e >= 1; over Z, f is sometimes a multiple
    of g."""
    p = draw(st.sampled_from(HELPER_MODULI))
    if p:
        scalar = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    else:
        scalar = st.integers(-40, 40)
    f = trimmed(draw(st.lists(scalar, max_size=8)), p)
    g = trimmed(draw(st.lists(scalar, max_size=5)), p)
    if not p and g and draw(st.booleans()):
        f = plain_mul(f, g, p)
    return p, f, g, draw(st.integers(1, 12))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(helper_cases())
@example((97, [3, 0, 5], [], 2))  # zero divisor
@example((97, [3, 0, 5], [4], 3))  # unit divisor
@example((2, [1, 1, 0, 1], [1, 1], 5))  # linear divisor
@example((2, [1], [0, 1], 1))  # degree 0 by degree 1
@example((2**61 - 1, [5, 2**61 - 2, 7], [2**61 - 2, 3], 4))  # non-monic
@example((0, [4, -3, 0, 2], [1], 1))
@example((0, [1, 1], [2, 2], 1))  # zero remainder, quotient 1/2
@example((0, [2, 2], [2, 2], 1))
@example((0, [3, 0, 6], [3, 2], 1))  # 3 does not divide the top coefficient
@example((0, [], [-2, 1], 2))
def test_coefficient_list_helpers_match_plain_loops(case):
    p, f, g, e = case
    pairs = list(zip_longest(f, g, fillvalue=0))
    assert _add(f, g, p) == trimmed([a + b for a, b in pairs], p)
    assert _sub(f, g, p) == trimmed([a - b for a, b in pairs], p)
    assert _mul(f, g, p) == plain_mul(f, g, p)
    assert _derivative(f, p) == trimmed([i * c for i, c in enumerate(f)][1:], p)
    if not g:
        with pytest.raises(ZeroDivisionError):
            _divmod(f, g, p)
        with pytest.raises(ZeroDivisionError):
            _div_exact(f, g)
        return
    if not p:
        monic = g[:-1] + [1]
        assert _divmod(f, monic, p) == plain_divmod(f, monic, p)
        assert _div_exact(f, g) == plain_div_exact(f, g)
        assert _div_exact(plain_mul(f, g, p), g) == f
        return
    assert _divmod(f, g, p) == plain_divmod(f, g, p)
    assert _pow_mod(f, e, g, p) == plain_pow_mod(f, e, g, p)
    assert _gcd(f, g, p) == _gcd(g, f, p) == plain_gcd(f, g, p)
    if f:
        monic = plain_monic(f, p)
        parts = _squarefree(monic, p)
        product = [1]
        for h, k in parts:
            assert len(h) > 1 and h[-1] == 1
            assert plain_gcd(h, trimmed([i * c for i, c in enumerate(h)][1:], p), p) == [1]
            for _ in range(k):
                product = plain_mul(product, h, p)
        assert product == monic
        for (h1, _), (h2, _) in combinations(parts, 2):
            assert plain_gcd(h1, h2, p) == [1]
