"""K0 invariants of commuting tuples.

``GrothendieckClass`` records, per maximal ideal of k[t1..tn], how many
composition factors with that residue field a module has; it is an element
of the free abelian group on maximal-ideal keys.  For a single
endomorphism the same information repackages as a dimension together with
an element of the group of reduced constant-term-1 rational functions
(``TildeClass``), via the characteristic-polynomial map
``lambda_t(f) = det(1 + t f)``; the two presentations are interconvertible
through the signed reversal of maximal-ideal generators.
"""

import operator

from .errors import FieldMismatchError
from .factor import factor_univariate
from .fields import Immutable
from .linalg import _layer_rows, charpoly
from .modules import MaximalIdealKey, _principal_key
from .poly import UniPoly, signed_reversal, uni_gcd


class GrothendieckClass(Immutable):
    """Finitely supported integer map on maximal-ideal keys; a
    multiplicity that is not an integer (``operator.index``) is a
    TypeError.

    The support is a dict or an iterable of (key, multiplicity) pairs; the
    constructor is the one place the multiplicities at a key are added.

    >>> from endok.fields import QQ
    >>> from endok.poly import UniPoly
    >>> k = principal_maximal_key(UniPoly(QQ, [-1, 1]))
    >>> GrothendieckClass(QQ, 1, {k: 2}) == GrothendieckClass(QQ, 1, [(k, 3), (k, -1)])
    True
    >>> GrothendieckClass(QQ, 1, [(k, 2), (k, -2)]).is_zero
    True
    """

    __slots__ = ("field", "nvars", "_support")

    def __init__(self, field, nvars, support=()):
        acc = {}
        for key, mult in support.items() if isinstance(support, dict) else support:
            if not isinstance(key, MaximalIdealKey):
                raise TypeError(f"expected MaximalIdealKey, got {key!r}")
            if key.field != field or key.nvars != nvars:
                raise FieldMismatchError("key field/arity mismatch")
            try:
                mult = operator.index(mult)
            except TypeError:
                raise TypeError(f"multiplicity must be an integer, got {mult!r}") from None
            if mult:
                mult += acc.pop(key, 0)
                if mult:
                    acc[key] = mult
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_support", acc)

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @property
    def is_zero(self):
        return not self._support

    @property
    def support(self):
        return dict(self._support)

    def multiplicity(self, key):
        return self._support.get(key, 0)

    def items(self):
        """(key, multiplicity) pairs in canonical key order."""
        return sorted(self._support.items(), key=lambda kv: kv[0].sort_key())

    def _check(self, other):
        if not isinstance(other, GrothendieckClass):
            raise TypeError(f"expected GrothendieckClass, got {other!r}")
        if other.field != self.field or other.nvars != self.nvars:
            raise FieldMismatchError("class field/arity mismatch")

    def __add__(self, other):
        self._check(other)
        pairs = [*self._support.items(), *other._support.items()]
        return GrothendieckClass(self.field, self.nvars, pairs)

    def __sub__(self, other):
        self._check(other)
        pairs = [*self._support.items(), *((k, -m) for k, m in other._support.items())]
        return GrothendieckClass(self.field, self.nvars, pairs)

    def __eq__(self, other):
        if isinstance(other, GrothendieckClass):
            return (
                self.field == other.field
                and self.nvars == other.nvars
                and self._support == other._support
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self._support.items())))

    def lines(self):
        """Canonical human rendering, one 'mult * [generators]' per key."""
        return [
            f"{mult} * [{', '.join(key.generator_strings())}]"
            for key, mult in self.items()
        ]

    def to_json_entries(self):
        return [
            {
                "generators": list(key.generator_strings()),
                "degree": key.residue_degree,
                "multiplicity": mult,
            }
            for key, mult in self.items()
        ]

    def __repr__(self):
        body = "; ".join(self.lines()) or "0"
        return f"GrothendieckClass({body})"


def k0_class(t, rng=None):
    """The class of a commuting tuple: for each local piece with key M,
    dim(piece) / residue_degree(M) composition factors at M.  The division
    is exact; dimension bookkeeping gives
    sum mult(M) * residue_degree(M) = dim V.

    For one endomorphism f the class is read off the factored
    characteristic polynomial (Kelley-Spanier): its piece at (q) is
    ker q(f)^v with v = v_q(chi_f), of dimension deg q * v, so the
    multiplicity at (q) is v and no piece is built.  ``rng`` is ignored: no
    class depends on a seed.  It goes once the benchmark's ``Workload.op``
    calls ``k0_class(case.tuple)`` (ROADMAP item 2, **Seed**)."""
    if t.nvars == 1:
        # the one map is the stack's rows, canonical as they stand
        factors = factor_univariate(charpoly(_layer_rows(t._maps)))
        pairs = [(_principal_key([q]), v) for q, v in factors]
        return GrothendieckClass(t.field, 1, pairs)
    pairs = []
    for w, key in t._local_pieces():
        if w.rows % key.residue_degree:
            raise RuntimeError(
                "piece dimension is not a multiple of its residue degree"
            )
        pairs.append((key, w.rows // key.residue_degree))
    return GrothendieckClass(t.field, t.nvars, pairs)


def verify_additivity(t, s):
    """Check [V] = [S] + [V/S] for an invariant submodule S."""
    sub = t.restrict(s)
    quo = t.quotient(s)
    return k0_class(t) == k0_class(sub) + k0_class(quo)


# ---------------------------------------------------------------------------
# the n = 1 picture


def lambda_t(m):
    """det(1 + t*m): the signed reversal of the characteristic polynomial.
    Constant term 1; nilpotent directions drop out, so deg <= dim."""
    if not m.is_square:
        raise ValueError("lambda_t needs a square matrix")
    return signed_reversal(charpoly(m))


class TildeClass(Immutable):
    """A reduced fraction of constant-term-1 polynomials.

    The constructor accepts any pair with equal nonzero constant terms (the
    fraction is scaled so both parts end at constant term exactly 1), then
    cancels the gcd.  Equal group elements therefore compare literally.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        F = num.field
        if den is None:
            den = UniPoly.one(F)
        if den.field != F:
            raise FieldMismatchError("numerator and denominator fields differ")
        if num.is_zero or den.is_zero:
            raise ValueError("zero polynomial in a tilde fraction")
        if not num.constant_term or not den.constant_term:
            raise ValueError("tilde fractions need nonzero constant terms")
        if num.constant_term != den.constant_term:
            raise ValueError(
                "not a constant-term-1 fraction: numerator and denominator "
                "constant terms differ"
            )
        g = uni_gcd(num, den)
        num, den = num // g, den // g
        num = num.scale(F.inv(num.constant_term))
        den = den.scale(F.inv(den.constant_term))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def one(cls, field):
        return cls(UniPoly.one(field))

    @property
    def is_one(self):
        return self.num.is_one and self.den.is_one

    def __mul__(self, other):
        if not isinstance(other, TildeClass):
            raise TypeError(f"expected TildeClass, got {other!r}")
        return TildeClass(self.num * other.num, self.den * other.den)

    def inverse(self):
        return TildeClass(self.den, self.num)

    def __eq__(self, other):
        if isinstance(other, TildeClass):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"TildeClass({self!s})"


def kelley_spanier_split(t):
    """A single endomorphism's class as (dimension, lambda_t part)."""
    if t.nvars != 1:
        raise ValueError("splitting is defined for a single endomorphism")
    return t.dim, TildeClass(lambda_t(_layer_rows(t._maps)))


def principal_maximal_key(q):
    """The key of the maximal ideal (q) for a monic irreducible q: the
    one live key object for that ideal, shared with the keys
    ``k0_class`` finds for its pieces.  A reducible q, whose ideal is not
    maximal, is a ValueError; ``k0_class`` and ``tilde_to_free_abelian``
    key factors that are irreducible already, with no such check."""
    if not q.is_monic or q.degree < 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if factor_univariate(q) != [(q, 1)]:
        raise ValueError(f"({q}) is not a maximal ideal: {q} is reducible")
    return _principal_key([q])


def tilde_to_free_abelian(a):
    """Factor a tilde fraction onto maximal-ideal keys other than (t).

    Each monic irreducible factor, rescaled to constant term 1, pulls back
    through the inverse signed reversal to the monic generator of its
    maximal ideal; exponents are numerator minus denominator
    multiplicities.  This is a group homomorphism with trivial kernel.
    """
    F = a.num.field
    pairs = []
    for poly, sign in ((a.num, 1), (a.den, -1)):
        for r, e in factor_univariate(poly):
            r1 = r.scale(F.inv(r.constant_term))
            q = signed_reversal(r1, inverse=True)
            pairs.append((_principal_key([q]), sign * e))
    return GrothendieckClass(F, 1, pairs)


def free_abelian_to_tilde(v):
    """Inverse of :func:`tilde_to_free_abelian`: multiply out the signed
    reversals of the keys' monic generators.  The key (t) has no image."""
    if v.nvars != 1:
        raise ValueError("only single-variable classes map to tilde fractions")
    F = v.field
    num = UniPoly.one(F)
    den = UniPoly.one(F)
    for key, mult in v.items():
        if len(key.ideal.gens) != 1:
            raise ValueError("non-principal key in a single-variable class")
        gen = key.ideal.gens[0].to_unipoly()
        if not gen.constant_term:
            raise ValueError("the key (t) has no tilde image")
        lam = signed_reversal(gen)
        if mult > 0:
            num = num * lam**mult
        else:
            den = den * lam ** (-mult)
    return TildeClass(num, den)


def compare_splittings(t):
    """Consistency of the two n = 1 presentations: the class's image under
    [M] -> (residue degree, signed reversal of M), with (t) -> (1, 1),
    must equal the (dimension, lambda_t) splitting.  Both sides read the
    characteristic polynomial of f, so this checks the key and reversal
    bookkeeping, not a splitting into pieces."""
    if t.nvars != 1:
        raise ValueError("comparison is defined for a single endomorphism")
    rank, tilde = kelley_spanier_split(t)
    cls = k0_class(t)
    total = sum(mult * key.residue_degree for key, mult in cls.items())
    if rank != total:
        return False
    # drop the key (t): its lambda contribution is trivial
    away_from_zero = {
        key: mult
        for key, mult in cls.items()
        if key.ideal.gens[0].to_unipoly().constant_term
    }
    image = free_abelian_to_tilde(GrothendieckClass(t.field, 1, away_from_zero))
    return tilde == image
