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
    _gcdex,
    _mul,
    _pow_mod,
    _squarefree,
    _squarefree_parts,
    _sub,
    UniPoly,
    grlex_key,
    normal_form,
    signed_reversal,
    squarefree_part,
    uni_gcd,
)

from conftest import ALL_FIELDS, P61, field_id

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


def test_lcm_and_pow_mod():
    m = [1, 0, 1]  # t^2 + 1 over F5
    assert _pow_mod([0, 1], 4, m, 5) == [1]  # t^4 = 1 mod t^2+1
    assert _pow_mod([0, 1], 0, m, 5) == [1]
    # modulo a unit every residue is 0, the 0th power too
    assert _pow_mod([0, 1], 0, [3], 5) == _pow_mod([0, 1], 1, [3], 5) == []
    with pytest.raises(ValueError, match="negative exponent"):
        _pow_mod([0, 1], -1, m, 5)


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
        d = _derivative(list(sf.coeffs), field.characteristic)
        if d:
            assert uni_gcd(sf, UniPoly(field, d)).is_one
        # the squarefree parts reconstruct the input, up to a scalar over Q
        prod = UniPoly.one(field)
        for g, e in _squarefree_parts(f):
            prod = prod * UniPoly(field, g) ** e
        assert prod.monic() == f


@pytest.mark.parametrize("field", [*ALL_FIELDS, GF(97), P61], ids=field_id)
def test_evaluation_is_the_canonical_sum_of_terms(field):
    # Horner, one coerce per step, at a raw scalar, an int or a Fraction
    rng = random.Random(62)
    p = field.characteristic
    for _ in range(60):
        f = rand_unipoly(field, rng, 7)
        den = rng.choice([b for b in range(1, 10) if not p or b % p])
        x = rng.choice(
            [field.random_scalar(rng), rng.randint(-50, 50), Fraction(rng.randint(-9, 9), den)]
        )
        value = f(x)
        x = field.coerce(x)
        assert value == field.coerce(sum(c * x**i for i, c in enumerate(f.coeffs)))
        assert type(value) is type(field.one) and (not p or 0 <= value < p)


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
    # duplicate input terms are added, and a zero sum is dropped
    for field, parts in ((QQ, (2, -2)), (F5, (3, 2)), (F2, (1, 1, 1, 1))):
        pairs = [((1, 0), c) for c in parts] + [((0, 1), 1), ((0, 1), 1)]
        assert MultiPoly(field, 2, pairs) == MultiPoly(field, 2, {(0, 1): 2})
        assert MultiPoly(field, 2, [((1, 0), c) for c in parts]).is_zero
    for field in (QQ, F5):
        with pytest.raises(TypeError):
            UniPoly(field, [1, 1.0])
    # an exponent must be an integer, not truncated to one
    for exps in ((1.5,), (1.0,), (Fraction(3, 2),)):
        with pytest.raises(TypeError):
            MultiPoly(QQ, 1, {exps: 1})
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
            n = rng.randint(1, 3)
            f, g = rand_multipoly(field, rng, n, 5), rand_multipoly(field, rng, n, 4)
            for h in (f + g, f - g, f * g, -f, f.scale(3), f.scale(0), g**3, f**0):
                assert all(type(c) is kind and c for _, c in h.terms)
                assert [e for e, _ in h.terms] == sorted(
                    (e for e, _ in h.terms), key=grlex_key, reverse=True
                )
                assert h == MultiPoly(field, n, h.terms)


def rand_multipoly(field, rng, nvars, nterms):
    """A MultiPoly from nterms raw pairs whose monomials often repeat."""
    return MultiPoly(
        field,
        nvars,
        [
            (tuple(rng.randint(0, 2) for _ in range(nvars)), field.random_scalar(rng))
            for _ in range(nterms)
        ],
    )


def plain_terms(field, pairs):
    """Like terms added one at a time, each sum coerced."""
    acc = {}
    for e, c in pairs:
        acc[e] = field.coerce(acc.get(e, field.zero) + c)
    return {e: c for e, c in acc.items() if c}


@pytest.mark.parametrize("field", [*ALL_FIELDS, GF(97)], ids=field_id)
def test_multipoly_arithmetic_matches_plain_loops(field):
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(1, 3)
        f, g = rand_multipoly(field, rng, n, 6), rand_multipoly(field, rng, n, 5)
        c = field.random_scalar(rng)
        neg = [(e, field.coerce(-x)) for e, x in g.terms]
        product = [
            (tuple(x + y for x, y in zip(e1, e2)), field.coerce(c1 * c2))
            for e1, c1 in f.terms
            for e2, c2 in g.terms
        ]
        assert dict((f + g).terms) == plain_terms(field, f.terms + g.terms)
        assert dict((f - g).terms) == plain_terms(field, f.terms + tuple(neg))
        assert dict((-g).terms) == plain_terms(field, neg)
        assert dict((f * g).terms) == plain_terms(field, product)
        assert dict(f.scale(c).terms) == plain_terms(
            field, [(e, field.coerce(c * x)) for e, x in f.terms]
        )


def test_from_unipoly_places_the_variable():
    u = UniPoly(F5, [3, 0, 1])
    assert MultiPoly.from_unipoly(u, 3, 1) == MultiPoly(F5, 3, {(0, 2, 0): 1, (0, 0, 0): 3})
    assert MultiPoly.from_unipoly(u).to_unipoly() == u
    for nvars, var in ((1, 1), (2, 2), (2, -1), (2, 5)):
        with pytest.raises(ValueError, match="variable index"):
            MultiPoly.from_unipoly(u, nvars, var)
        with pytest.raises(ValueError, match="variable index"):
            MultiPoly.variable(F5, nvars, var)
    with pytest.raises(TypeError):
        MultiPoly.variable(F5, 2, 0.5)
    with pytest.raises(TypeError):
        MultiPoly.from_unipoly(u, 2, 0.5)


def test_difference_of_squares_cancels():
    for field in (QQ, GF(97)):
        t1, t2 = (MultiPoly.variable(field, 2, i) for i in range(2))
        assert (t1 + t2) * (t1 - t2) == MultiPoly(field, 2, {(2, 0): 1, (0, 2): -1})


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
# multiplicities p, p + 1 and 2p: Yun's parts stay pairwise coprime
@example((2, [0, 0, 1, 1, 1, 1], [1, 1], 1))  # t^2 (t + 1)^3
@example((2, [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1], [1, 1], 1))  # t^4 (t + 1)^3 (t^2 + t + 1)^2
@example((3, [0, 0, 0, 1, 1, 0, 1, 1], [1, 1], 1))  # t^3 (t + 1)^4
@example((3, [0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 1], [1, 1], 1))  # t^6 (t + 1)^4 (t + 2)^3
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(helper_cases().filter(lambda case: case[0]))
@example((97, [3, 0, 5], [], 1))  # gcd with zero
@example((2, [1, 0, 1], [1, 1], 1))  # common factor t + 1
@example((2**61 - 1, [5, 2**61 - 2, 7], [2**61 - 2, 3], 1))
@example((5, [2, 2], [4, 4], 1))  # non-monic equal up to a unit
@example((97, [], [95, 1], 1))
def test_gcdex_on_coefficient_lists(case):
    # s*f + t*g = d with d the monic gcd, over F_p
    p, f, g, _ = case
    field = GF(p)
    if not f and not g:
        with pytest.raises(ValueError):
            _gcdex(f, g, p)
        return
    d, s, t = _gcdex(f, g, p)
    assert _add(_mul(s, f, p), _mul(t, g, p), p) == d
    assert d[-1] == 1
    assert UniPoly(field, d) == uni_gcd(UniPoly(field, f), UniPoly(field, g))
