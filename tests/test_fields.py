import random
from fractions import Fraction

import numpy
import pytest

from endok import _kernels
from endok.errors import FieldMismatchError
from endok.fields import GF, QQ, FieldElement, is_prime
from endok.parse import field_from_string, parse_input

from conftest import ALL_FIELDS, field_id


def test_prime_field_inverse():
    assert GF(5).inv(2) == 3  # 2*3 = 6 = 1 mod 5


def test_rational_addition():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_product():
    assert GF(7).mul(3, 5) == 1  # 15 = 1 mod 7


def test_construction_rejects_nonprime():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2**63 + 7)


def test_field_identity():
    for p in (2, 3, 97):
        parsed = parse_input(f"field F {p}\nvars 1\ndim 1\n[[1]]\n").field
        named = field_from_string(f"F{p}")
        assert GF(p) == parsed == named
        assert hash(GF(p)) == hash(parsed) == hash(named)
    assert parse_input("field Q\nvars 1\ndim 1\n[[1]]\n").field == QQ
    assert QQ != GF(2) and GF(2) != GF(3) and QQ != GF(3)
    assert len({QQ, GF(2), GF(3), GF(2), field_from_string("Q")}) == 3


def test_field_attributes():
    big = 2**31 - 1
    assert big > _kernels.PRIME_LIMIT
    for F, name, p in ((QQ, "Q", 0), (GF(97), "F97", 97), (GF(big), f"F{big}", big)):
        assert (repr(F), F.characteristic) == (name, p)
        assert (F.is_rationals, F.is_prime_field) == (p == 0, p != 0)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=field_id)
def test_coerce_types(field):
    for bad in (2.0, numpy.int64(3), "1", None):
        with pytest.raises(TypeError):
            field.coerce(bad)
    one = field.coerce(True)
    assert one == field.one == 1 and type(one) is type(field.one)
    assert field.coerce(False) == field.zero
    assert type(field.coerce(Fraction(4, 2))) is type(field.one)
    assert field.coerce(field.element(3)) == field.coerce(3)


def test_is_prime_against_trial_division():
    for n in range(0, 500):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417


def test_canonical_forms():
    F5 = GF(5)
    assert F5.coerce(-1) == 4
    assert F5.coerce(7) == 2
    assert F5.coerce(Fraction(1, 2)) == 3  # 1/2 = inverse of 2
    q = QQ.coerce(Fraction(2, -4))
    assert q == Fraction(-1, 2) and q.denominator == 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF(3).coerce(Fraction(1, 3))


def test_mixed_field_operation_rejected():
    a = FieldElement(GF(5), 2)
    b = FieldElement(GF(7), 2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        QQ.coerce(a)


def test_element_operators():
    a = FieldElement(GF(5), 2)
    assert (a + a).value == 4
    assert (a * a).value == 4
    assert (-a).value == 3
    assert (a / a).value == 1
    assert a.inv().value == 3
    assert bool(a) and not bool(a - a)


@pytest.mark.parametrize("field", ALL_FIELDS + [GF(97)], ids=field_id)
def test_field_axioms_on_random_triples(field):
    rng = random.Random(12345)
    for _ in range(1000):
        a = field.random_scalar(rng)
        b = field.random_scalar(rng)
        c = field.random_scalar(rng)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exhaustive_inverses(p):
    F = GF(p)
    for a in range(1, p):
        assert F.mul(F.inv(a), a) == 1
