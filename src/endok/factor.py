"""Irreducible factorization of univariate polynomials over Q and F_p.

Over F_p: squarefree decomposition, then distinct-degree splitting
followed by randomized Cantor-Zassenhaus equal-degree splitting.

Over Q: squarefree decomposition, then Zassenhaus on each primitive
integer part: reduce modulo a good prime, Hensel-lift the modular factors
above the Mignotte coefficient bound, and recombine subsets.  Squarefree
parts of degree beyond ``RATIONAL_DEGREE_CAP`` are rejected so
recombination stays bounded.

All randomized steps draw from a caller-supplied ``random.Random``; when
none is given a generator with a fixed seed is used, so repeated runs are
reproducible.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, count

from .fields import GF, QQ, is_prime
from .poly import UniPoly, pow_mod, squarefree_decomposition, uni_gcd, uni_gcdex

DEFAULT_SEED = 0
RATIONAL_DEGREE_CAP = 64


def factor_univariate(f, rng=None):
    """Factor a nonzero univariate polynomial into monic irreducibles.

    Returns [(q_i, e_i)] with each q_i monic irreducible over f's field and
    f = lc(f) * prod q_i**e_i.  Factors are sorted by degree, then by their
    coefficient sequence, so the output is canonical.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if rng is None:
        rng = random.Random(DEFAULT_SEED)
    if f.degree < 1:
        return []
    if f.field.is_rationals:
        pairs = _factor_rationals(f, rng)
    else:
        pairs = _factor_prime_field(f, rng)
    pairs.sort(key=lambda pair: (pair[0].degree, pair[0].coeffs))
    return pairs


def is_irreducible(f, rng=None):
    """True when f is irreducible (degree >= 1 and a single factor once)."""
    if f.is_zero or f.degree < 1:
        return False
    factors = factor_univariate(f, rng)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# prime fields


def _factor_prime_field(f, rng):
    out = {}
    for g, mult in squarefree_decomposition(f):
        for q in _factor_squarefree_modp(g, rng):
            out[q] = out.get(q, 0) + mult
    return list(out.items())


def _factor_squarefree_modp(g, rng):
    """Monic squarefree g over F_p -> unsorted list of monic irreducibles."""
    if g.degree <= 1:
        return [g] if g.degree == 1 else []
    parts = []
    for h, d in _distinct_degree_split(g):
        parts.extend(_equal_degree_split(h, d, rng))
    return parts


def _distinct_degree_split(g):
    """Monic squarefree g -> [(h_d, d)] with h_d the product of its
    irreducible factors of degree d.  Uses gcd(g, t^(p^d) - t)."""
    field = g.field
    p = field.characteristic
    x = UniPoly.gen(field)
    factors = []
    cur = g
    h = x
    d = 0
    while cur.degree >= 1:
        d += 1
        if cur.degree < 2 * d:
            factors.append((cur, cur.degree))
            break
        h = pow_mod(h, p, cur)
        G = uni_gcd(cur, h - x) if not (h - x).is_zero else cur
        if not G.is_one:
            factors.append((G, d))
            cur = cur // G
            h = h % cur
    return factors


def _equal_degree_split(h, d, rng):
    """Cantor-Zassenhaus split of h into its degree-d irreducible factors."""
    n = h.degree
    if n == d:
        return [h]
    field = h.field
    p = field.characteristic
    while True:
        r = UniPoly(field, [rng.randrange(p) for _ in range(2 * d)])
        if r.degree < 1:
            continue
        if p == 2:
            # trace map r + r^2 + ... + r^(2^(d-1)) splits half the factors
            sq = r % h
            acc = sq
            for _ in range(d - 1):
                sq = sq * sq % h
                acc = (acc + sq) % h
            probe = acc
        else:
            e = (p**d - 1) // 2
            probe = pow_mod(r, e, h) - UniPoly.one(field)
        if probe.is_zero:
            continue
        g = uni_gcd(h, probe)
        if 0 < g.degree < n:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(
                h // g, d, rng
            )


# ---------------------------------------------------------------------------
# rationals (Zassenhaus)
#
# Integer polynomials are plain low-to-high int lists here; only the entry
# and exit points speak UniPoly.


def _factor_rationals(f, rng):
    out = {}
    for g, mult in squarefree_decomposition(f):
        if g.degree > RATIONAL_DEGREE_CAP:
            raise ValueError(
                f"degree too large: squarefree part of degree {g.degree} exceeds "
                f"the factorization cap {RATIONAL_DEGREE_CAP}"
            )
        for q in _factor_squarefree_rationals(g, rng):
            out[q] = out.get(q, 0) + mult
    return list(out.items())


def _factor_squarefree_rationals(g, rng):
    """Monic squarefree g over Q -> list of monic irreducible UniPoly."""
    field = g.field
    factors = []
    if not g.constant_term:
        factors.append(UniPoly.gen(field))
        g = g // UniPoly.gen(field)
    if g.degree < 1:
        return factors
    if g.degree == 1:
        factors.append(g.monic())
        return factors
    # clear denominators: g monic, so lcm(denominators) * g is integral
    den = 1
    for c in g.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    F = [int(c * den) for c in g.coeffs]
    F = _zprimitive(F)[1]
    for q in _zassenhaus(F, rng):
        factors.append(UniPoly(field, [Fraction(c) for c in q]).monic())
    return factors


def _ztrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _zmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _ztrim(out)


def _zsub(f, g):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] += a
    for i, b in enumerate(g):
        out[i] -= b
    return _ztrim(out)


def _zadd(f, g):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] += a
    for i, b in enumerate(g):
        out[i] += b
    return _ztrim(out)


def _ztrunc_sym(f, m):
    """Coefficients reduced to the symmetric range (-m/2, m/2]."""
    out = []
    half = m // 2
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _ztrim(out)


def _zprimitive(f):
    content = 0
    for c in f:
        content = math.gcd(content, c)
    if content == 0:
        return 0, []
    return content, [c // content for c in f]


def _zdivmod_monic(f, g):
    """Integer division by a monic g; exact in Z[t]."""
    rem = list(f)
    dg = len(g) - 1
    if len(rem) - 1 < dg:
        return [], _ztrim(rem)
    quo = [0] * (len(rem) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dg]
        if c:
            quo[k] = c
            for i, gc in enumerate(g):
                rem[k + i] -= c * gc
    return _ztrim(quo), _ztrim(rem[:dg])


def _zdiv_exact(f, g):
    """Quotient of f by g when the division is exact over Z, else None."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    rem = [Fraction(c) for c in f]
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return None
    glc = g[-1]
    quo = [Fraction(0)] * (len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dg] / glc
        quo[k] = c
        if c:
            for i, gc in enumerate(g):
                rem[k + i] -= c * gc
    if any(rem) or any(q.denominator != 1 for q in quo):
        return None
    return _ztrim([int(q) for q in quo])


def _hensel_step(m, f, g, h, s, t):
    """Quadratic Hensel step: from f = g*h and s*g + t*h = 1 (mod m) to the
    same congruences mod m**2, with h kept monic.  Gathen & Gerhard 15.10."""
    M = m * m
    e = _ztrunc_sym(_zsub(f, _zmul(g, h)), M)
    q, r = _zdivmod_monic(_zmul(s, e), h)
    q = _ztrunc_sym(q, M)
    r = _ztrunc_sym(r, M)
    u = _zadd(_zmul(t, e), _zmul(q, g))
    G = _ztrunc_sym(_zadd(g, u), M)
    H = _ztrunc_sym(_zadd(h, r), M)
    u = _zadd(_zmul(s, G), _zmul(t, H))
    b = _ztrunc_sym(_zsub(u, [1]), M)
    c, d = _zdivmod_monic(_zmul(s, b), H)
    c = _ztrunc_sym(c, M)
    d = _ztrunc_sym(d, M)
    u = _zadd(_zmul(t, b), _zmul(c, G))
    S = _ztrunc_sym(_zsub(s, d), M)
    T = _ztrunc_sym(_zsub(t, u), M)
    return G, H, S, T


def _modp_poly(f, p):
    return UniPoly(GF(p), f)


def _sym_int_poly(u, p):
    return _ztrunc_sym([int(c) for c in u.coeffs], p)


def _hensel_lift(p, f, flist, l):
    """Lift monic pairwise-coprime factors of f mod p to factors mod p**l,
    splitting the factor list in two and recursing."""
    r = len(flist)
    lc = f[-1]
    if r == 1:
        inv = pow(lc, -1, p**l)
        return [_ztrunc_sym([c * inv for c in f], p**l)]
    m = p
    k = r // 2
    steps = max(1, math.ceil(math.log2(l)))
    gp = _modp_poly([lc], p)
    for fi in flist[:k]:
        gp = gp * _modp_poly(fi, p)
    hp = _modp_poly(flist[k][:], p)
    for fi in flist[k + 1 :]:
        hp = hp * _modp_poly(fi, p)
    _, sp, tp = uni_gcdex(gp, hp)
    g, h = _sym_int_poly(gp, p), _sym_int_poly(hp, p)
    s, t = _sym_int_poly(sp, p), _sym_int_poly(tp, p)
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, flist[:k], l) + _hensel_lift(p, h, flist[k:], l)


def _good_prime(F):
    """Smallest odd prime not dividing lc(F) with squarefree image mod p."""
    for p in count(3, 2):
        if not is_prime(p) or F[-1] % p == 0:
            continue
        fp = _modp_poly(F, p)
        d = fp.derivative()
        if d.is_zero:
            continue
        if uni_gcd(fp, d).is_one:
            return p


def _zassenhaus(F, rng):
    """Factor a primitive squarefree integer polynomial of degree >= 2."""
    n = len(F) - 1
    A = max(abs(c) for c in F)
    b = F[-1]
    # Mignotte: any factor has coefficients bounded by sqrt(n+1)*2^n*A*|b|
    B = (math.isqrt(n + 1) + 1) * (1 << n) * A * abs(b)
    p = _good_prime(F)
    modular = _factor_squarefree_modp(_modp_poly(F, p).monic(), rng)
    if len(modular) == 1:
        return [F]
    l = 1
    pl = p
    while pl < 2 * B + 1:
        pl *= p
        l += 1
    lifted = _hensel_lift(p, F, [_sym_int_poly(q, p) for q in modular], l)
    pl = p**l

    remaining = list(range(len(lifted)))
    factors = []
    f = F
    s = 1
    while 2 * s <= len(remaining):
        hit = None
        for S in combinations(remaining, s):
            G = [f[-1]]
            for i in S:
                G = _zmul(G, lifted[i])
            G = _ztrunc_sym(G, pl)
            Gp = _zprimitive(G)[1]
            q = _zdiv_exact(f, Gp)
            if q is not None:
                factors.append(Gp)
                f = q
                hit = set(S)
                break
        if hit is None:
            s += 1
        else:
            remaining = [i for i in remaining if i not in hit]
    if len(f) > 1:
        factors.append(f)
    return factors
