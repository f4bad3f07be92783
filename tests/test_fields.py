import sys
from fractions import Fraction

import numpy
import pytest

from endok import _kernels
from endok.errors import FieldMismatchError
from endok.fields import GF, QQ, is_prime
from endok.ktheory import TildeClass, k0_class
from endok.linalg import Matrix, Subspace
from endok.modules import CommutingTuple
from endok.parse import field_from_string, parse_input
from endok.poly import MultiPoly, UniPoly

from conftest import field_id


def test_prime_field_inverse():
    assert GF(5).inv(2) == 3  # 2*3 = 6 = 1 mod 5


def test_construction_rejects_nonprime():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2**63 + 7)


def test_construction_rejects_non_integer_primes():
    for bad in (5.0, Fraction(5), "5"):
        with pytest.raises(TypeError):
            GF(bad)
    F = GF(numpy.int64(5))
    assert type(F.characteristic) is int and F == GF(5)
    assert type(F.coerce(7)) is int


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
    assert F5.coerce(Fraction(-7, 3)) == 1  # -7 * 2 = -14
    assert GF(97).coerce(Fraction(10**20 + 1, 3)) == (10**20 + 1) * 65 % 97
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
    a = UniPoly(GF(5), [2, 1])
    b = UniPoly(GF(7), [2, 1])
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        Matrix(GF(5), [[2]]) @ Matrix(QQ, [[2]])
    with pytest.raises(TypeError):
        QQ.coerce(a)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(97)], ids=field_id)
def test_public_surface(field):
    # a field describes itself; its scalars are added and multiplied with
    # Python's operators, and coerce is their one reduction
    public = {name for name in dir(field) if not name.startswith("_")}
    assert public == {
        "characteristic",
        "zero",
        "one",
        "coerce",
        "inv",
        "render",
        "random_scalar",
        "is_rationals",
        "is_prime_field",
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exhaustive_inverses(p):
    F = GF(p)
    for a in range(1, p):
        assert a * F.inv(a) % p == 1


def test_render_writes_every_digit_past_the_str_limit():
    # str() of an int with more digits than sys.get_int_max_str_digits()
    # raises; render splits such integers and leaves the limit alone
    limit = sys.get_int_max_str_digits()
    n = 10 ** (2 * limit) + 1
    assert QQ.render(Fraction(-n, 3)) == "-1" + "0" * (2 * limit - 1) + "1/3"
    assert QQ.render(Fraction(3, n)) == "3/1" + "0" * (2 * limit - 1) + "1"
    assert QQ.render(Fraction(n * 10**7)) == "1" + "0" * (2 * limit - 1) + "1" + "0" * 7
    assert QQ.render(Fraction(-7, 2)) == "-7/2" and GF(5).render(4) == "4"
    assert sys.get_int_max_str_digits() == limit


def _value_of_every_type():
    """One value of each immutable type of the package, by class name."""
    t = CommutingTuple.zeros(QQ, 2, 1)
    key = t.maximal_ideal_key()
    return {
        "Matrix": Matrix.identity(QQ, 2),
        "Subspace": Subspace(QQ, 2, [[1, 0]]),
        "Ideal": key.ideal,
        "MaximalIdealKey": key,
        "CommutingTuple": t,
        "UniPoly": UniPoly.gen(QQ),
        "MultiPoly": MultiPoly.variable(QQ, 2, 0),
        "GrothendieckClass": k0_class(t),
        "TildeClass": TildeClass(UniPoly(QQ, [1, 1])),
        "Rationals": QQ,
        "PrimeField": GF(5),
    }


@pytest.mark.parametrize("name", sorted(_value_of_every_type()))
def test_values_are_immutable(name):
    # one body, in fields.Immutable, names the class of the value
    value = _value_of_every_type()[name]
    assert type(value).__name__ == name
    for attr in ("field", "nvars", "_unset"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)
