"""Polynomial arithmetic over an exact field.

Two representations:

* ``UniPoly``: dense univariate, coefficients stored low-to-high with
  trailing zeros trimmed.  The zero polynomial has degree ``NEG_INF``.
  Its arithmetic runs on the private coefficient-list helpers below
  (``_add``, ``_mul``, ``_divmod``, ``_pow_mod``, ``_gcd``, ...), which
  work on lists of raw scalars with Python operators and reduce each
  result coefficient with one ``% p`` over F_p; the F_p factoring loops
  and Zassenhaus over Z call the same helpers directly.  Over Q, gcds
  and the squarefree split clear to primitive integer polynomials and run
  over Z: the gcd is the primitive pseudo-remainder sequence, Yun's
  algorithm divides exactly over Z, and only the monic results become
  Fractions.
* ``MultiPoly``: sparse multivariate, a tuple of (exponents, coefficient)
  terms kept sorted descending in the graded lexicographic order with
  t1 > t2 > ... > tn.  The order is fixed package-wide so that reduced
  Groebner bases (and hence ideal keys) are canonical.  ``_merge`` is the
  one place like terms are added: the constructor, ``from_unipoly``,
  ``+``, ``*`` and ``scale`` hand it raw (exponents, scalar) pairs, and it
  coerces each sum once, drops zeros and sorts.

Both compute on raw scalars with Python's operators; the field brings in
no arithmetic of its own, and a result is made canonical once, by one
``% p`` in the list helpers or by the field's ``coerce`` elsewhere.

Canonical text rendering lives here as well; it is shared by the CLI and
by the deterministic sort keys used for ideals.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, index, mul

from .errors import FieldMismatchError
from .fields import Immutable

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# monomials and the global order


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_quot(num, den):
    """Exponents of x^num / x^den; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(num, den))


def grlex_key(exps):
    """Sort key realizing graded lex with t1 > t2 > ... > tn."""
    return (sum(exps), exps)


def render_monomial(exps, nvars):
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = "t" if nvars == 1 else f"t{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render_terms(field, terms, nvars):
    """Canonical text for a descending-sorted term list; '0' when empty.

    Over Q negative coefficients render with binary minus ('t - 1'); over
    F_p residues are never negative so terms join with plus.
    """
    if not terms:
        return "0"
    out = []
    for exps, coeff in terms:
        if coeff < 0:
            sign, mag = "-", -coeff
        else:
            sign, mag = "+", coeff
        mono = render_monomial(exps, nvars)
        if not mono:
            body = field.render(mag)
        elif mag == field.one:
            body = mono
        else:
            body = f"{field.render(mag)}*{mono}"
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


# ---------------------------------------------------------------------------
# dense coefficient lists
#
# A polynomial here is a list of raw scalars, lowest degree first, with no
# trailing zeros; [] is 0.  p is the characteristic: over F_p (p > 0) every
# result coefficient is reduced with one % p.  With p = 0 the arithmetic
# helpers take Fractions (Q) or plain ints (Z), where a divisor must be
# monic unless it goes through ``_div_exact``; ``_gcd`` and
# ``_squarefree`` with p = 0 take integer lists only.  Inputs are never
# modified.


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _add(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = [(a + b) % p for a, b in zip(f, g)] if p else [a + b for a, b in zip(f, g)]
    out += f[len(g) :]
    return _trim(out)


def _neg(f, p):
    return [-a % p for a in f] if p else [-a for a in f]


def _sub(f, g, p):
    return _add(f, _neg(g, p), p)


def _scale(f, c, p):
    return _trim([c * a % p for a in f] if p else [c * a for a in f])


def _mul(f, g, p):
    if not f or not g:
        return []
    out = [0 * f[0]] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([x % p for x in out] if p else out)


def _inverse(a, p):
    return 1 if a == 1 else pow(a, -1, p) if p else 1 / a


def _divmod(f, g, p):
    """(quotient, remainder) of f by a nonzero g.  Over F_p the remainder
    is left unreduced while the quotient is found, top down, and each
    coefficient is reduced once when it is read or returned."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) <= dg:
        return [], list(f)
    inv = _inverse(g[-1], p)
    rem = list(f)
    quo = [0 * f[0]] * (len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dg] * inv
        if p:
            c %= p
        if c:
            quo[k] = c
            for i, b in enumerate(g):
                rem[k + i] -= c * b
    rem = rem[:dg]
    return quo, _trim([x % p for x in rem] if p else rem)


def _div_exact(f, g):
    """The quotient of integer lists f by g when it lies in Z[t], else
    None.  Quotient coefficients are fixed top down, so the first one that
    lc(g) does not divide, or a remainder left at the end, settles it."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    dg = len(g) - 1
    if len(f) <= dg:
        return None if f else []
    lc = g[-1]
    rem = list(f)
    quo = [0] * (len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + dg], lc)
        if r:
            return None
        if c:
            quo[k] = c
            for i, b in enumerate(g):
                rem[k + i] -= c * b
    return None if any(rem[:dg]) else quo


def _monic(f, p):
    inv = _inverse(f[-1], p)
    return f if inv == 1 else _scale(f, inv, p)


def _pow_mod(f, e, m, p):
    """f**e modulo a nonzero m over F_p, by ``_power`` on the residue of f;
    f**0 is the residue of 1, which is 0 for a unit m."""
    return _power(
        _divmod(f, m, p)[1],
        e,
        lambda: _divmod([1], m, p)[1],
        lambda a, b: _divmod(_mul(a, b, p), m, p)[1],
    )


_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


def _cleared(xs):
    """(numerators, den): rationals xs (or ints) as integers over their
    least common denominator."""
    dens = list(map(_DENOMINATOR, xs))
    den = lcm(*set(dens))
    nums = list(map(_NUMERATOR, xs))
    if den == 1:
        return nums, 1
    return [n * (den // d) for n, d in zip(nums, dens)], den


def _primitive(f):
    """An integer list divided by its content, the gcd of its entries."""
    g = gcd(*f)
    return [x // g for x in f] if g > 1 else f


def _prem(f, g):
    """The pseudo-remainder of integer lists: lc(g)^(deg f - deg g + 1) * f
    modulo a nonzero g, by one integer row step per quotient term."""
    dg = len(g) - 1
    lc = g[-1]
    r = list(f)
    for k in range(len(f) - 1 - dg, -1, -1):
        c = r.pop()
        if lc != 1:
            r = [lc * x for x in r]
        if c:
            for i in range(dg):
                r[k + i] -= c * g[i]
    return _trim(r)


def _gcd(f, g, p):
    """gcd of f and g, not both zero.  Over F_p the monic gcd, by Euclid;
    over Z (p = 0) the primitive gcd, up to sign, by the primitive
    pseudo-remainder sequence."""
    if p:
        while g:
            f, g = g, _divmod(f, g, p)[1]
        return _monic(f, p)
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_prem(f, g))
    return f


def _gcdex(f, g, p):
    """Extended Euclid over F_p: (d, s, t) with s*f + t*g = d and d the
    monic gcd of f and g, not both zero."""
    old_r, r = list(f), list(g)
    old_s, s = [1], []
    old_t, t = [], [1]
    while r:
        q, rem = _divmod(old_r, r, p)
        old_r, r = r, rem
        old_s, s = s, _sub(old_s, _mul(q, s, p), p)
        old_t, t = t, _sub(old_t, _mul(q, t, p), p)
    if not old_r:
        raise ValueError("gcd(0, 0) is undefined")
    c = _inverse(old_r[-1], p)
    return _scale(old_r, c, p), _scale(old_s, c, p), _scale(old_t, c, p)


def _quo(f, g, p):
    """The quotient of f by a g that divides it, over F_p or Z."""
    return _divmod(f, g, p)[0] if p else _div_exact(f, g)


def _derivative(f, p):
    out = [i * f[i] for i in range(1, len(f))]
    return _trim([x % p for x in out] if p else out)


def _squarefree(f, p):
    """Yun/Musser on f of degree >= 0, monic over F_p or primitive over Z
    (p = 0): [(g_i, e_i)] with the g_i monic (primitive over Z, where every
    division is exact by Gauss's lemma), squarefree, pairwise coprime and
    f = prod g_i^e_i (up to sign over Z).  In
    characteristic p a vanishing derivative means f = g(t^p), and p-th
    roots of coefficients are the identity on F_p."""
    factors = []
    n = 1
    while len(f) > 1:
        d = _derivative(f, p)
        if d:
            g = _gcd(f, d, p)
            h = _quo(f, g, p)
            i = 1
            while len(h) > 1:
                G = _gcd(g, h, p)
                H = _quo(h, G, p)
                if len(H) > 1:
                    factors.append((H, i * n))
                g, h, i = _quo(g, G, p), G, i + 1
            if len(g) == 1:
                break
            f = g
        # now every factor of f has multiplicity divisible by p: f = g(t^p)
        f = f[::p]
        n *= p
    return factors


def _power(base, e, one, mul):
    """base**e for an integer e >= 0 by square-and-multiply over the bits
    of e, with the product mul: one() is called only for e = 0, the unit
    is never multiplied in and the square after the last bit is skipped,
    so base**1 is base itself."""
    if e < 0:
        raise ValueError("negative exponent")
    if not e:
        return one()
    out = None
    while True:
        if e & 1:
            out = base if out is None else mul(out, base)
        e >>= 1
        if not e:
            return out
        base = mul(base, base)


# ---------------------------------------------------------------------------
# dense univariate polynomials


class UniPoly(Immutable):
    """Dense univariate polynomial; immutable value type.

    >>> from endok.fields import QQ
    >>> str(UniPoly(QQ, [-1, 0, 1]))
    't^2 - 1'
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        raw = [field.coerce(c) for c in coeffs]
        while raw and not raw[-1]:
            raw.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(raw))

    @classmethod
    def _from_canonical(cls, field, coeffs):
        """A polynomial over a list of canonical scalars, low to high, taken
        as they are apart from trimming trailing zeros; the list is
        consumed."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        f = object.__new__(cls)
        object.__setattr__(f, "field", field)
        object.__setattr__(f, "coeffs", tuple(coeffs))
        return f

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def gen(cls, field):
        """The polynomial t."""
        return cls(field, (field.zero, field.one))

    # -- inspection --------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.one

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, UniPoly):
            raise TypeError(f"expected UniPoly, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields {self.field} and {other.field}")

    def __add__(self, other):
        self._check(other)
        F = self.field
        return UniPoly._from_canonical(F, _add(self.coeffs, other.coeffs, F.characteristic))

    def __sub__(self, other):
        self._check(other)
        F = self.field
        return UniPoly._from_canonical(F, _sub(self.coeffs, other.coeffs, F.characteristic))

    def __neg__(self):
        F = self.field
        return UniPoly._from_canonical(F, _neg(self.coeffs, F.characteristic))

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other)
        self._check(other)
        F = self.field
        return UniPoly._from_canonical(F, _mul(self.coeffs, other.coeffs, F.characteristic))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        F = self.field
        return UniPoly._from_canonical(F, _scale(self.coeffs, F.coerce(c), F.characteristic))

    def __pow__(self, e):
        return _power(self, e, lambda: UniPoly.one(self.field), mul)

    def __divmod__(self, g):
        self._check(g)
        F = self.field
        quo, rem = _divmod(self.coeffs, g.coeffs, F.characteristic)
        return UniPoly._from_canonical(F, quo), UniPoly._from_canonical(F, rem)

    def __floordiv__(self, g):
        return divmod(self, g)[0]

    def __mod__(self, g):
        return divmod(self, g)[1]

    def monic(self):
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return self.scale(self.field.inv(self.lc))

    def __call__(self, x):
        """Evaluate at a scalar by Horner's rule; returns a raw scalar."""
        F = self.field
        x = F.coerce(x)
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.coerce(acc * x + c)
        return acc

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        terms = [((i,), c) for i, c in enumerate(self.coeffs) if c]
        terms.sort(key=lambda t: grlex_key(t[0]), reverse=True)
        return render_terms(self.field, terms, 1)

    def __repr__(self):
        return f"UniPoly({self.field!r}, {self!s})"


def _integral(f):
    """The primitive integer polynomial that is a rational multiple of f
    (over Q)."""
    return _primitive(_cleared(f.coeffs)[0])


def _as_monic(f, field):
    """The monic UniPoly of a nonzero coefficient list: residues already
    monic over F_p, integers over Q."""
    if field.characteristic:
        return UniPoly._from_canonical(field, f)
    lc = f[-1]
    return UniPoly._from_canonical(field, [Fraction(c, lc) for c in f])


def _squarefree_parts(f):
    """``_squarefree`` of a nonzero f: on its monic coefficients over F_p,
    on its primitive integer multiple over Q."""
    p = f.field.characteristic
    return _squarefree(_monic(list(f.coeffs), p) if p else _integral(f), p)


def uni_gcd(f, g):
    """Monic greatest common divisor; gcd with 0 is the monic cofactor."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    F = f.field
    if F.characteristic:
        return UniPoly._from_canonical(F, _gcd(f.coeffs, g.coeffs, F.characteristic))
    return _as_monic(_gcd(_integral(f), _integral(g), 0), F)


def squarefree_part(f):
    """Product of the distinct monic irreducible factors of a monic f."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if not f.is_monic:
        raise ValueError("expected a monic polynomial")
    p = f.field.characteristic
    out = [1]
    for q, _ in _squarefree_parts(f):
        out = _mul(out, q, p)
    return _as_monic(out, f.field)


def signed_reversal(q, inverse=False):
    """The degree-preserving bijection q(t) <-> (-1)^deg * t^deg * q(-1/t).

    Forward takes a monic q to a constant-term-1 polynomial (coefficient of
    t^j is (-1)^j * q_{deg-j}); the degree drops exactly when q(0) = 0.
    Inverse recovers the monic preimage of matching degree, which is a true
    inverse on polynomials with nonzero constant term.  Both reverse the
    coefficients and negate the odd positions; the inverse then multiplies
    by (-1)^deg, which makes its result monic.
    """
    F = q.field
    if inverse:
        if q.is_zero or q.constant_term != F.one:
            raise ValueError("inverse reversal needs constant term 1")
    elif q.is_zero or not q.is_monic:
        raise ValueError("forward reversal needs a monic polynomial")
    d = q.degree
    r = UniPoly(F, [q[d - j] if j % 2 == 0 else -q[d - j] for j in range(d + 1)])
    return -r if inverse and d % 2 else r


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


def _merge(field, nvars, pairs, f=None):
    """The one place like terms are added: a MultiPoly (f, or a new one)
    over raw (exponents, scalar) pairs.  The scalars at each monomial are
    summed with Python operators and each sum is coerced once (one % p over
    F_p); zero sums are dropped and the terms sorted descending in grlex."""
    acc = {}
    for e, c in pairs:
        acc[e] = acc[e] + c if e in acc else c
    coerce = field.coerce
    order = sorted(acc, key=grlex_key, reverse=True)
    terms = [(e, c) for e in order if (c := coerce(acc[e]))]
    if f is None:
        f = object.__new__(MultiPoly)
    object.__setattr__(f, "field", field)
    object.__setattr__(f, "nvars", nvars)
    object.__setattr__(f, "terms", tuple(terms))
    return f


def _variable_index(i, nvars):
    i = index(i)
    if not 0 <= i < nvars:
        raise ValueError(f"variable index {i} out of range for nvars {nvars}")
    return i


class MultiPoly(Immutable):
    """Sparse polynomial in t1..tn; terms sorted descending in grlex.

    The constructor checks and coerces outside input; it and the
    arithmetic hand raw (exponents, scalar) pairs to ``_merge``, the one
    place like terms are added and zeros dropped.
    """

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        checked = []
        for exps, c in terms.items() if isinstance(terms, dict) else terms:
            exps = tuple(map(index, exps))
            if len(exps) != nvars:
                raise ValueError(f"monomial arity {len(exps)} != nvars {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            checked.append((exps, field.coerce(c)))
        _merge(field, nvars, checked, self)

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, ())

    @classmethod
    def one(cls, field, nvars):
        return cls(field, nvars, {(0,) * nvars: field.one})

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, i):
        """The generator t_{i+1} (0-based index i)."""
        i = _variable_index(i, nvars)
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exps: field.one})

    @classmethod
    def from_unipoly(cls, u, nvars=1, var=0):
        """u as a polynomial in t_{var+1} (0-based var) of nvars variables."""
        var = _variable_index(var, nvars)
        pairs = [
            (tuple(i if j == var else 0 for j in range(nvars)), c)
            for i, c in enumerate(u.coeffs)
        ]
        return _merge(u.field, nvars, pairs)

    def to_unipoly(self):
        if self.nvars != 1:
            raise ValueError("only single-variable polynomials convert to UniPoly")
        out = [self.field.zero] * (self.total_degree + 1 if self.terms else 0)
        for (e,), c in self.terms:
            out[e] = c
        return UniPoly(self.field, out)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return sum(self.terms[0][0])

    @property
    def leading_monomial(self):
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def leading_coeff(self):
        if not self.terms:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def coeff(self, exps):
        exps = tuple(exps)
        for e, c in self.terms:
            if e == exps:
                return c
        return self.field.zero

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields {self.field} and {other.field}")
        if other.nvars != self.nvars:
            raise FieldMismatchError(
                f"mixed arities {self.nvars} and {other.nvars}"
            )

    def __add__(self, other):
        self._check(other)
        return _merge(self.field, self.nvars, self.terms + other.terms)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        pairs = [
            (mono_mul(e1, e2), c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms
        ]
        return _merge(self.field, self.nvars, pairs)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.field.coerce(c)
        return _merge(self.field, self.nvars, [(e, c * a) for e, a in self.terms])

    def __pow__(self, e):
        return _power(self, e, lambda: MultiPoly.one(self.field, self.nvars), mul)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (
                self.field == other.field
                and self.nvars == other.nvars
                and self.terms == other.terms
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.nvars, self.terms))

    def __str__(self):
        return render_terms(self.field, self.terms, self.nvars)

    def __repr__(self):
        return f"MultiPoly({self.field!r}, {self.nvars}, {self!s})"


def normal_form(p, basis):
    """Remainder of p under multivariate division by basis (grlex order).

    No term of the result is divisible by any basis leading monomial, which
    makes the map idempotent; when basis is a Groebner basis this is the
    canonical representative of p modulo the ideal.  Each working
    coefficient is computed with Python's operators and coerced once, so
    the remainder's terms go to ``_merge`` as they are.
    """
    for b in basis:
        p._check(b)
        if b.is_zero:
            raise ValueError("zero polynomial in reduction basis")
    F = p.field
    work = dict(p.terms)
    rem = {}
    lead = [(b.leading_monomial, b) for b in basis]
    while work:
        m = max(work, key=grlex_key)
        c = work[m]
        for lm, b in lead:
            if mono_divides(lm, m):
                # subtract (c / lc(b)) * x^(m-lm) * b; the lead term cancels
                # to 0 only because c and each v are coerced
                factor = F.coerce(c * F.inv(b.leading_coeff))
                shift = mono_quot(m, lm)
                for e, bc in b.terms:
                    e2 = mono_mul(shift, e)
                    v = F.coerce(work.get(e2, F.zero) - factor * bc)
                    if v:
                        work[e2] = v
                    elif e2 in work:
                        del work[e2]
                break
        else:
            rem[m] = c
            del work[m]
    return _merge(F, p.nvars, rem.items())
