"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Raw scalars are plain Python values: ``fractions.Fraction`` over Q (always
reduced, positive denominator) and ``int`` residues in ``[0, p)`` over F_p,
so equal elements always have identical representations.  ``FieldSpec``
has one subclass per field, ``Rationals`` (the instance ``QQ``) and
``PrimeField`` (built by ``GF(p)``).  It describes its field and carries
no arithmetic: raw scalars are added and multiplied with Python's
operators, and ``coerce`` brings a result to its canonical form.

No floating point is used anywhere; every operation is exact.

The module also holds ``Immutable``, the one base of the package's value
types, as it imports nothing from the package.
"""

import operator
from fractions import Fraction

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


def _decimal(n):
    """str(n) for an int n, also one with more digits than ``str`` converts
    (``sys.get_int_max_str_digits()``): such an n is split at a power of
    ten near half its digits, and each part is converted the same way."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits, as log10(2) > 0.3
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


class Immutable:
    """Base of the package's value types.  Each sets its slots once, with
    ``object.__setattr__``, and any later assignment raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class FieldSpec(Immutable):
    """Shared base of the two supported exact fields, ``Rationals`` and
    ``PrimeField``; build them as ``QQ`` and ``GF(p)``.

    ``characteristic`` is 0 for the rationals and p for F_p.  Both are
    perfect fields, which the radical computation downstream relies on.
    Each subclass supplies ``zero``, ``one``, ``coerce`` (an int or
    Fraction to its canonical raw scalar, the one reduction of results
    computed with Python's operators), ``inv`` (which rejects zero) and
    ``random_scalar`` for its own representation; fields are equal when
    their class and characteristic are.
    """

    __slots__ = ()
    is_rationals = False
    is_prime_field = False

    def render(self, a):
        """The text of a raw scalar, ``a`` or ``a/b``, however many digits
        its integers have (see ``_decimal``)."""
        try:
            return str(a)
        except ValueError:  # more digits than str(int) converts
            text = _decimal(a.numerator)
            return text if a.denominator == 1 else f"{text}/{_decimal(a.denominator)}"

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
        """Coerce an int or Fraction to a canonical raw scalar."""
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

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
        p = operator.index(p)  # residues x % p are ints only for an int p
        if p >= MAX_PRIME:
            raise ValueError(f"prime {p} does not fit a machine word")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "characteristic", p)

    def coerce(self, x):
        """Coerce an int or Fraction to a canonical raw scalar."""
        if isinstance(x, int):
            return x % self.characteristic
        if isinstance(x, Fraction):
            p = self.characteristic
            return x.numerator * self.inv(x.denominator % p) % p
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        return pow(a, self.characteristic - 2, self.characteristic)

    def random_scalar(self, rng):
        """A uniform residue."""
        return rng.randrange(self.characteristic)

    def __repr__(self):
        return f"F{self.characteristic}"


def GF(p):
    """The prime field with p elements."""
    return PrimeField(p)


QQ = Rationals()
