"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Raw scalars are plain Python values: ``fractions.Fraction`` over Q (always
reduced, positive denominator) and ``int`` residues in ``[0, p)`` over F_p,
so equal elements always have identical representations.  A ``FieldSpec``
bundles the arithmetic on raw values; ``FieldElement`` pairs one raw value
with its field for the operator-overloaded surface.

No floating point is used anywhere; every operation is exact.
"""

from fractions import Fraction

from .errors import FieldMismatchError

RATIONALS = "rationals"
PRIME_FIELD = "prime-field"

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
    """One of the two supported exact fields: Q or F_p for a prime p.

    ``characteristic`` is 0 for the rationals and p for F_p.  Both kinds
    are perfect fields, which the radical computation downstream relies on.
    """

    __slots__ = ("kind", "characteristic")

    def __init__(self, kind, characteristic):
        if kind == RATIONALS:
            if characteristic != 0:
                raise ValueError("the rationals have characteristic 0")
        elif kind == PRIME_FIELD:
            if characteristic >= MAX_PRIME:
                raise ValueError(f"prime {characteristic} does not fit a machine word")
            if not is_prime(characteristic):
                raise ValueError(f"{characteristic} is not prime")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "characteristic", characteristic)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    @classmethod
    def rationals(cls):
        return cls(RATIONALS, 0)

    @classmethod
    def prime(cls, p):
        return cls(PRIME_FIELD, p)

    @property
    def is_rationals(self):
        return self.kind == RATIONALS

    @property
    def is_prime_field(self):
        return self.kind == PRIME_FIELD

    # -- raw scalar arithmetic -------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.is_rationals else 0

    @property
    def one(self):
        return Fraction(1) if self.is_rationals else 1

    def coerce(self, x):
        """Coerce an int, Fraction or FieldElement to a canonical raw scalar."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatchError(f"element of {x.field} used over {self}")
            return x.value
        if self.is_rationals:
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
        else:
            p = self.characteristic
            if isinstance(x, int):
                return x % p
            if isinstance(x, Fraction):
                return self.div(x.numerator % p, x.denominator % p)
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    def add(self, a, b):
        if self.is_rationals:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.is_rationals:
            return a - b
        return (a - b) % self.characteristic

    def mul(self, a, b):
        if self.is_rationals:
            return a * b
        return a * b % self.characteristic

    def neg(self, a):
        if self.is_rationals:
            return -a
        return -a % self.characteristic

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        if self.is_rationals:
            return 1 / a
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def random_scalar(self, rng):
        """Uniform residue over F_p; small random fraction over Q."""
        if self.is_prime_field:
            return rng.randrange(self.characteristic)
        return Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND), rng.randint(1, 4))

    def element(self, x):
        return FieldElement(self, x)

    def render(self, a):
        return str(a)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        return "Q" if self.is_rationals else f"F{self.characteristic}"


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
    return FieldSpec.prime(p)


QQ = FieldSpec.rationals()
