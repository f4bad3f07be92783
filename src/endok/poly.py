"""Polynomial arithmetic over an exact field.

Two representations:

* ``UniPoly``: dense univariate, coefficients stored low-to-high with
  trailing zeros trimmed.  The zero polynomial has degree ``NEG_INF``.
  Its arithmetic runs on the private coefficient-list helpers below
  (``_add``, ``_mul``, ``_divmod``, ``_pow_mod``, ``_gcd``, ...), which
  work on lists of raw scalars with Python operators and reduce each
  result coefficient with one ``% p`` over F_p; the F_p factoring loops
  and Zassenhaus over Z call the same helpers directly.
* ``MultiPoly``: sparse multivariate, a tuple of (exponents, coefficient)
  terms kept sorted descending in the graded lexicographic order with
  t1 > t2 > ... > tn.  The order is fixed package-wide so that reduced
  Groebner bases (and hence ideal keys) are canonical.

Canonical text rendering lives here as well; it is shared by the CLI and
by the deterministic sort keys used for ideals.
"""

from .errors import FieldMismatchError

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
# result coefficient is reduced with one % p, over Q (p = 0) the scalars
# are Fractions used as they are, and over Z (p = 0, plain ints) a divisor
# must be monic unless it goes through ``_div_exact``.  Inputs are never
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
    """f**e modulo a nonzero m, for e >= 1."""
    base = _divmod(f, m, p)[1]
    out = None
    while True:
        if e & 1:
            out = base if out is None else _divmod(_mul(out, base, p), m, p)[1]
        e >>= 1
        if not e:
            return out
        base = _divmod(_mul(base, base, p), m, p)[1]


def _gcd(f, g, p):
    """Monic gcd over a field; f and g not both zero."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _derivative(f, p):
    out = [i * f[i] for i in range(1, len(f))]
    return _trim([x % p for x in out] if p else out)


def _squarefree(f, p):
    """Yun/Musser on a monic f of degree >= 0: [(g_i, e_i)] with the g_i
    monic, squarefree, pairwise coprime and f = prod g_i^e_i.  In
    characteristic p a vanishing derivative means f = g(t^p), and p-th
    roots of coefficients are the identity on F_p."""
    factors = []
    n = 1
    while len(f) > 1:
        d = _derivative(f, p)
        if d:
            g = _gcd(f, d, p)
            h = _divmod(f, g, p)[0]
            i = 1
            while len(h) > 1:
                G = _gcd(g, h, p)
                H = _divmod(h, G, p)[0]
                if len(H) > 1:
                    factors.append((H, i * n))
                g, h, i = _divmod(g, G, p)[0], G, i + 1
            if len(g) == 1:
                break
            f = g
        # now every factor of f has multiplicity divisible by p: f = g(t^p)
        f = f[::p]
        n *= p
    return factors


# ---------------------------------------------------------------------------
# dense univariate polynomials


class UniPoly:
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

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

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
        if e < 0:
            raise ValueError("negative exponent")
        out = UniPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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

    def derivative(self):
        F = self.field
        return UniPoly._from_canonical(F, _derivative(self.coeffs, F.characteristic))

    def __call__(self, x):
        """Evaluate at a scalar by Horner's rule; returns a raw scalar."""
        F = self.field
        x = F.coerce(x)
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
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


def uni_gcd(f, g):
    """Monic greatest common divisor; gcd with 0 is the monic cofactor."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    F = f.field
    return UniPoly._from_canonical(F, _gcd(f.coeffs, g.coeffs, F.characteristic))


def uni_lcm(f, g):
    if f.is_zero or g.is_zero:
        return UniPoly.zero(f.field)
    return ((f * g) // uni_gcd(f, g)).monic()


def uni_gcdex(f, g):
    """Extended Euclid: returns (d, s, t) with s*f + t*g = d, d monic."""
    F = f.field
    old_r, r = f, g
    old_s, s = UniPoly.one(F), UniPoly.zero(F)
    old_t, t = UniPoly.zero(F), UniPoly.one(F)
    while not r.is_zero:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    c = F.inv(old_r.lc)
    return old_r.scale(c), old_s.scale(c), old_t.scale(c)


def pow_mod(base, e, modulus):
    """base**e reduced modulo a nonzero polynomial."""
    if modulus.is_zero:
        raise ZeroDivisionError("zero modulus")
    F = base.field
    if not e:
        return UniPoly.one(F)
    return UniPoly._from_canonical(
        F, _pow_mod(base.coeffs, e, modulus.coeffs, F.characteristic)
    )


def squarefree_decomposition(f):
    """Multiplicity-graded squarefree split of a nonzero polynomial.

    Returns [(g_i, e_i)] with the g_i monic, squarefree, pairwise coprime
    and f = lc(f) * prod g_i^e_i.  Works in characteristic 0 (Yun/Musser)
    and characteristic p, where a vanishing derivative means f = g(t^p)
    and p-th roots of coefficients are the identity on F_p.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    F = f.field
    p = F.characteristic
    return [
        (UniPoly._from_canonical(F, g), e)
        for g, e in _squarefree(_monic(list(f.coeffs), p), p)
    ]


def squarefree_part(f):
    """Product of the distinct monic irreducible factors of a monic f."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if not f.is_monic:
        raise ValueError("expected a monic polynomial")
    out = UniPoly.one(f.field)
    for q, _ in squarefree_decomposition(f):
        out = out * q
    return out


def signed_reversal(q, inverse=False):
    """The degree-preserving bijection q(t) <-> (-1)^deg * t^deg * q(-1/t).

    Forward takes a monic q to a constant-term-1 polynomial (coefficient of
    t^j is (-1)^j * q_{deg-j}); the degree drops exactly when q(0) = 0.
    Inverse recovers the monic preimage of matching degree, which is a true
    inverse on polynomials with nonzero constant term.
    """
    F = q.field
    if inverse:
        if q.is_zero or q.constant_term != F.one:
            raise ValueError("inverse reversal needs constant term 1")
        e = q.degree
        out = [F.zero] * (e + 1)
        for i in range(e + 1):
            c = q[e - i]
            out[i] = c if (e - i) % 2 == 0 else F.neg(c)
        return UniPoly(F, out)
    if q.is_zero or not q.is_monic:
        raise ValueError("forward reversal needs a monic polynomial")
    d = q.degree
    out = [F.zero] * (d + 1)
    for j in range(d + 1):
        c = q[d - j]
        out[j] = c if j % 2 == 0 else F.neg(c)
    return UniPoly(F, out)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


class MultiPoly:
    """Sparse polynomial in t1..tn; terms sorted descending in grlex."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        acc = {}
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"monomial arity {len(exps)} != nvars {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = field.coerce(c)
            if exps in acc:
                c = field.add(acc[exps], c)
            if c:
                acc[exps] = c
            elif exps in acc:
                del acc[exps]
        ordered = sorted(acc.items(), key=lambda t: grlex_key(t[0]), reverse=True)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", tuple(ordered))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _from_canonical(cls, field, nvars, terms):
        """A polynomial over a tuple of terms with canonical nonzero
        coefficients, already sorted descending, taken as it is."""
        f = object.__new__(cls)
        object.__setattr__(f, "field", field)
        object.__setattr__(f, "nvars", nvars)
        object.__setattr__(f, "terms", terms)
        return f

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, ())

    @classmethod
    def one(cls, field, nvars):
        return cls(field, nvars, {(0,) * nvars: field.one})

    @classmethod
    def constant(cls, field, nvars, c):
        c = field.coerce(c)
        return cls._from_canonical(field, nvars, (((0,) * nvars, c),) if c else ())

    @classmethod
    def variable(cls, field, nvars, i):
        """The generator t_{i+1} (0-based index i)."""
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exps: field.one})

    @classmethod
    def from_unipoly(cls, u, nvars=1, var=0):
        terms = {}
        for i, c in enumerate(u.coeffs):
            if c:
                exps = tuple(i if j == var else 0 for j in range(nvars))
                terms[exps] = c
        return cls(u.field, nvars, terms)

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
    def is_one(self):
        return len(self.terms) == 1 and self.terms[0] == (
            (0,) * self.nvars,
            self.field.one,
        )

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
        F = self.field
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = F.add(acc.get(e, F.zero), c)
        return MultiPoly(F, self.nvars, acc)

    def __neg__(self):
        F = self.field
        return MultiPoly(F, self.nvars, [(e, F.neg(c)) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                v = F.mul(c1, c2)
                if e in acc:
                    v = F.add(acc[e], v)
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
        return MultiPoly(F, self.nvars, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return MultiPoly(F, self.nvars, [(e, F.mul(c, a)) for e, a in self.terms])

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent")
        out = MultiPoly.one(self.field, self.nvars)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def monic(self):
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(self.field.inv(self.leading_coeff))

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
    canonical representative of p modulo the ideal.
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
                factor = F.div(c, b.leading_coeff)
                shift = mono_quot(m, lm)
                for e, bc in b.terms:
                    e2 = mono_mul(shift, e)
                    v = F.sub(work.get(e2, F.zero), F.mul(factor, bc))
                    if v:
                        work[e2] = v
                    elif e2 in work:
                        del work[e2]
                break
        else:
            rem[m] = c
            del work[m]
    return MultiPoly(F, p.nvars, rem)
