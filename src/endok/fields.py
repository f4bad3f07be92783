"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Raw scalars are plain Python values: ``fractions.Fraction`` over Q (always
reduced, positive denominator) and ``int`` residues in ``[0, p)`` over F_p,
so equal elements always have identical representations.  ``FieldSpec``
has one subclass per field, ``Rationals`` (the instance ``QQ``) and
``PrimeField`` (built by ``GF(p)``), each with the arithmetic on its own
raw values; ``FieldElement`` pairs one raw value with its field for the
operator-overloaded surface.

No floating point is used anywhere; every operation is exact.
"""

from fractions import Fraction

from .errors import FieldMismatchError

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME = 2**63  # residues must fit a machine word
SAMPLE_BOUND = 9  # random_scalar over Q draws numerators from [-9, 9]


def is_prime(n):
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Shared base of the two supported exact fields, ``Rationals`` and
    ``PrimeField``; build them as ``QQ`` and ``GF(p)``.

    ``characteristic`` is 0 for the rationals and p for F_p.  Both are
    perfect fields, which the radical computation downstream relies on.
    Each subclass supplies ``zero``, ``one`` and the raw scalar arithmetic
    for its own representation; fields are equal when their class and
    characteristic are.
    """

    __slots__ = ()
    is_rationals = False
    is_prime_field = False

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _coerce_element(self, x):
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatchError(f"element of {x.field} used over {self}")
            return x.value
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def element(self, x):
        return FieldElement(self, x)

    def render(self, a):
        return str(a)

    def __eq__(self, other):
        return type(other) is type(self) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(self.characteristic)


class Rationals(FieldSpec):
    """Q, with raw scalars ``Fraction`` in lowest terms."""

    __slots__ = ()
    is_rationals = True
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        """Coerce an int, Fraction or FieldElement to a canonical raw scalar."""
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        return self._coerce_element(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        return 1 / a

    def random_scalar(self, rng):
        """A small random fraction."""
        return Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, 4))

    def __repr__(self):
        return "Q"


class PrimeField(FieldSpec):
    """F_p, with raw scalars ``int`` residues in ``[0, p)``."""

    __slots__ = ("characteristic",)
    is_prime_field = True
    zero = 0
    one = 1

    def __init__(self, p):
        if p >= MAX_PRIME:
            raise ValueError(f"prime {p} does not fit a machine word")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "characteristic", p)

    def coerce(self, x):
        """Coerce an int, Fraction or FieldElement to a canonical raw scalar."""
        if isinstance(x, int):
            return x % self.characteristic
        if isinstance(x, Fraction):
            p = self.characteristic
            return self.div(x.numerator % p, x.denominator % p)
        return self._coerce_element(x)

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return a * b % self.characteristic

    def neg(self, a):
        return -a % self.characteristic

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        return pow(a, self.characteristic - 2, self.characteristic)

    def random_scalar(self, rng):
        """A uniform residue."""
        return rng.randrange(self.characteristic)

    def __repr__(self):
        return f"F{self.characteristic}"


class FieldElement:
    """A canonical scalar bound to its field.

    >>> a = GF(5).element(2)
    >>> (a.inv() * a).value
    1
    """

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = field.coerce(value)

    def _raw(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(f"mixed fields {self.field} and {other.field}")
            return other.value
        return self.field.coerce(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.value, self._raw(other)))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.value, self._raw(other)))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.value, self._raw(other)))

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.value, self._raw(other)))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def inv(self):
        return FieldElement(self.field, self.field.inv(self.value))

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return f"{self.value!s} in {self.field!r}"


def GF(p):
    """The prime field with p elements."""
    return PrimeField(p)


QQ = Rationals()
