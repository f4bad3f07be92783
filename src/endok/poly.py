"""Polynomial arithmetic over an exact field.

Two representations:

* ``UniPoly``: dense univariate, coefficients stored low-to-high with
  trailing zeros trimmed.  The zero polynomial has degree ``NEG_INF``.
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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return UniPoly._from_canonical(F, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return UniPoly._from_canonical(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        F = self.field
        if not isinstance(other, UniPoly):
            return self.scale(other)
        self._check(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(F)
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return UniPoly._from_canonical(F, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return UniPoly._from_canonical(F, [F.mul(c, a) for a in self.coeffs])

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
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dg = len(g.coeffs) - 1
        if len(rem) - 1 < dg:
            return UniPoly.zero(F), self
        inv_lc = F.inv(g.lc)
        quo = [F.zero] * (len(rem) - dg)
        for k in range(len(rem) - dg - 1, -1, -1):
            c = F.mul(rem[k + dg], inv_lc)
            if not c:
                continue
            quo[k] = c
            for i, gc in enumerate(g.coeffs):
                rem[k + i] = F.sub(rem[k + i], F.mul(c, gc))
        return UniPoly._from_canonical(F, quo), UniPoly._from_canonical(F, rem[:dg])

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
        out = []
        for i in range(1, len(self.coeffs)):
            ifield = F.coerce(i)
            out.append(F.mul(ifield, self.coeffs[i]))
        return UniPoly(F, out)

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
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


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
    result = UniPoly.one(base.field)
    base = base % modulus
    while e:
        if e & 1:
            result = result * base % modulus
        base = base * base % modulus
        e >>= 1
    return result


def squarefree_decomposition(f):
    """Multiplicity-graded squarefree split of a nonzero polynomial.

    Returns [(g_i, e_i)] with the g_i monic, squarefree, pairwise coprime
    and f = lc(f) * prod g_i^e_i.  Works in characteristic 0 (Yun/Musser)
    and characteristic p, where a vanishing derivative means f = g(t^p)
    and p-th roots of coefficients are the identity on F_p.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    field = f.field
    p = field.characteristic
    f = f.monic()
    factors = []
    n = 1
    while f.degree >= 1:
        d = f.derivative()
        if not d.is_zero:
            g = uni_gcd(f, d)
            h = f // g
            i = 1
            while not h.is_one:
                G = uni_gcd(g, h)
                H = h // G
                if H.degree > 0:
                    factors.append((H, i * n))
                g, h, i = g // G, G, i + 1
            if g.is_one:
                break
            f = g
        # now every factor of f has multiplicity divisible by p: f = g(t^p)
        f = UniPoly(field, f.coeffs[::p])
        n *= p
    return factors


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
