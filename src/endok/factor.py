"""Irreducible factorization of univariate polynomials over Q and F_p.

One routine serves both fields: ``factor_univariate`` takes pairwise
coprime squarefree parts of f, splits each part into irreducibles and
gives each irreducible its part's multiplicity, so no multiplicities are
added up.  Over Q the parts are Yun's (``poly._squarefree_parts``, on
f's primitive integer multiple).

Over F_p the roots come first when p <= ROOT_EVAL_LIMIT: the monic f is
evaluated at every element of F_p at once (Horner on int64 arrays, after
folding f modulo t^p - t to degree < p), and each zero a is divided out
by synthetic division for as long as t - a divides, which gives its
multiplicity in any characteristic, multiplicities >= p included.  Yun's
squarefree split, distinct-degree splitting and Cantor-Zassenhaus
equal-degree splitting then see only the root-free cofactor, whose
factors have degree 2 or more: below degree 4 it is irreducible, and
distinct-degree splitting starts at degree 2.  The limit is a measured
crossover: evaluation costs about min(deg, p) * p array steps, and on
products of k distinct linear factors (some squared) with a random monic
cofactor, degree 2 to 64, 20 inputs each, best of 5, against the same
inputs with the root stage off, the root stage won or tied on every shape
up to p = 2039 (k = 2 with a degree-30 cofactor: 3267 against 3390 us),
tied on the shapes with few roots at p = 4093 (k = 2, degree 64:
13225 against 12873 us) and lost on them from p = 8191 (k = 2 with a
degree-14 cofactor: 1113 against 949 us); the limit, 2^11, keeps a
margin below, as the timings swing.  Shapes with many roots win to
p = 16381.  For larger p the linear factors go through both splittings
with the rest.  Both splittings raise to the
p-th power with the Frobenius matrix of g (``_frobenius``: row i is
t^(ip) mod g, Berlekamp's Q): Frobenius is F_p-linear, so h^p mod g is
the one vector-matrix product h.Q mod p on a residue array, and h^p mod a
divisor f of g is that product reduced mod f, so one Q serves every
modulus of g's splitting.  Everything else, gcds and products included,
runs on the coefficient lists of :mod:`endok.poly` (raw residues, one
reduction mod p per coefficient).  Distinct-degree splitting takes one
such step per degree; equal-degree splitting takes r^((p^d - 1)/2) as
the norm r.r^p...r^(p^(d-1)), d - 1 steps, raised to the power
(p - 1)/2, and over F_2 the trace r + r^2 + ... + r^(2^(d-1)) in d - 1
steps (von zur Gathen-Shoup).

Over Q the parts are primitive integer polynomials, and a linear part is
its own factor.  Zassenhaus factors each other part: reduce modulo a good
prime, factor there (the same root stage first), Hensel-lift the modular
factors above the half-degree bound, and recombine subsets, with a
candidate factor checked by exact division over Z.  Here too the linear
factors come first, t among them
as the root 0: a rational root r of F has |lc.r| <= |lc| + max|F_i|
(Cauchy), and lc.r is an integer, so each root a of a linear modular
factor is lifted by Newton's iteration until p^k exceeds twice that
bound, and lc.t - (lc.a mod p^k, symmetric) is a factor of F exactly when
its primitive part divides the cofactor.  A proven root takes its modular
factor with it; the Hensel lift and the subset search run on the
cofactor alone, and not at all when at most one modular factor is left.
Recombination rebuilds, for each subset, whichever of the subset and its
complement has at most half the cofactor's degree, so the lift need only
recover factors of degree <= m = floor(deg F / 2): p^l above
2 C(m, floor(m/2)) ceil(||F||_2) (Mignotte; von zur Gathen-Gerhard,
Theorem 6.32).  Integer polynomials use the same coefficient-list helpers
with p = 0, and only the monic irreducible factors become Fractions.
Recombination tries at most ``RECOMBINATION_BUDGET`` subsets per
squarefree part and raises ValueError past it, so its exponential worst
case stays bounded.

Cantor-Zassenhaus, the one randomized step, draws from its own generator
seeded with ``DEFAULT_SEED``; the sorted factors do not depend on the draws.
"""

import math
import random
from itertools import combinations, count

import numpy as np

from . import _kernels
from .fields import is_prime
from .poly import (
    _add,
    _as_monic,
    _derivative,
    _div_exact,
    _divmod,
    _gcd,
    _gcdex,
    _monic,
    _mul,
    _pow_mod,
    _primitive,
    _squarefree,
    _squarefree_parts,
    _sub,
    _trim,
)

DEFAULT_SEED = 0
# Zassenhaus tries at most this many subsets of the lifted modular factors
# for one squarefree part; t^70 - 1 has 10 factors mod 3, and once its
# roots +-1 are proven the other 8 need 11
RECOMBINATION_BUDGET = 1 << 14
# F_p with p at most this many elements takes the roots of f first, by
# evaluation; below the measured crossover (see above), with a margin
ROOT_EVAL_LIMIT = 1 << 11


def factor_univariate(f):
    """Factor a nonzero univariate polynomial into monic irreducibles.

    Returns [(q_i, e_i)] with each q_i monic irreducible over f's field and
    f = lc(f) * prod q_i**e_i.  Factors are sorted by degree, then by their
    coefficient sequence, so the output is canonical.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree < 1:
        return []
    F = f.field
    p = F.characteristic
    pairs = [
        (_as_monic(q, F), e)
        for g, e in _parts(f)
        for q in (
            _factor_squarefree_modp(g, p) if p else _zassenhaus(g) if len(g) > 2 else [g]
        )
    ]
    pairs.sort(key=lambda pair: (pair[0].degree, pair[0].coeffs))
    return pairs


def _parts(f):
    """[(g, e)] with the g squarefree and pairwise coprime and f = lc *
    prod g^e: over F_p the linear factors of ``_linear_factors`` with their
    multiplicities, then Yun's parts of the root-free cofactor; over Q
    Yun's parts of f's primitive integer multiple."""
    p = f.field.characteristic
    if not p:
        return _squarefree_parts(f)
    linear, g = _linear_factors(_monic(list(f.coeffs), p), p)
    return linear + _squarefree(g, p)


# ---------------------------------------------------------------------------
# prime fields
#
# The loops run on the coefficient lists of endok.poly (raw residues, lowest
# degree first); only factor_univariate speaks UniPoly.


def _linear_factors(f, p):
    """The roots of a monic f over F_p first, for p <= ROOT_EVAL_LIMIT:
    ([(t - a, e)], g) over the zeros a of ``_roots``, e the multiplicity
    of a, and g the root-free cofactor.  Each t - a is divided out for as
    long as it divides, so e is exact in any characteristic, e >= p
    included.  For larger p, ([], f)."""
    if p > ROOT_EVAL_LIMIT or len(f) < 2:
        return [], f
    linear = []
    for a in _roots(f, p):
        e = 0
        while (q := _divide_root(f, a, p)) is not None:
            f = q
            e += 1
        linear.append(([-a % p, 1], e))
    return linear, f


def _divide_root(f, a, p):
    """f / (t - a) over F_p by synthetic division, or None when a is not a
    root of f."""
    acc = 0
    out = []
    for c in reversed(f):
        acc = (acc * a + c) % p
        out.append(acc)
    if out.pop():
        return None
    out.reverse()
    return out


def _factor_squarefree_modp(g, p):
    """Monic squarefree g over F_p -> unsorted list of monic irreducibles.
    For p <= ROOT_EVAL_LIMIT g has no roots (``_linear_factors`` took
    them), so its factors have degree 2 or more: below degree 4 it is
    irreducible, and distinct-degree splitting starts at degree 2.  One
    generator serves the equal-degree splits, if any part needs one."""
    lowest = 2 if p <= ROOT_EVAL_LIMIT else 1
    if len(g) - 1 < 2 * lowest:
        return [g] if len(g) > 1 else []
    q = _frobenius(g, p)
    parts = _distinct_degree_split(g, p, q, lowest)
    rng = random.Random(DEFAULT_SEED) if any(len(h) - 1 > d for h, d in parts) else None
    return [f for h, d in parts for f in _equal_degree_split(h, d, p, rng, q)]


def _roots(h, p):
    """The zeros in F_p of h, in increasing order: h evaluated at every
    element at once, by Horner on int64 arrays (p^2 + p < 2^63).  As
    a^p = a on F_p, h is first folded modulo t^p - t, to degree < p."""
    if len(h) > p:
        folded = h[:p]
        for k in range(p, len(h)):
            folded[(k - 1) % (p - 1) + 1] += h[k]
        h = folded
    x = np.arange(p, dtype=np.int64)
    acc = np.full(p, h[-1] % p, np.int64)
    for c in reversed(h[:-1]):
        acc *= x
        acc += c % p
        acc %= p
    return np.flatnonzero(acc == 0).tolist()


def _frobenius(g, p):
    """The Frobenius matrix of a monic g of degree n >= 1 over F_p: the n x n
    residue array Q, of dtype ``_kernels.dtype(p)``, whose row i is the
    coefficients of t^(ip) mod g.  For h of degree < n, h^p = h.Q mod g.

    M = C^p, C the companion matrix of g (row i is t^(i+1) mod g), holds
    t^(i+p) mod g in row i.  It is found by repeated squaring over the
    bits of p from the top, where each multiplication by C is a shift of
    the columns plus one rank-one update.  Then Q[0] = e_0 and
    Q[i] = Q[i-1].M, filled in blocks that double: Q[k + i] = Q[i].M^k
    for k = 1, 2, 4, ..."""
    n = len(g) - 1
    tail = np.array([-x % p for x in g[:-1]], _kernels.dtype(p))
    m = np.zeros((n, n), tail.dtype)
    m[range(n - 1), range(1, n)] = 1
    m[n - 1] = tail
    for bit in bin(p)[3:]:
        m = (m @ m) % p
        if bit == "1":
            # column j of M.C is -g_j times column n - 1 of M, plus
            # column j - 1 of M
            mc = m[:, -1:] * tail
            mc[:, 1:] += m[:, :-1]
            m = mc % p
    q = np.zeros_like(m)
    q[0, 0] = 1
    k = 1
    while k < n:
        # here m = M^k
        q[k : 2 * k] = (q[: min(k, n - k)] @ m) % p
        k *= 2
        if k < n:
            m = (m @ m) % p
    return q


def _frobenius_step(h, q, f, p):
    """h^p mod f, for q = _frobenius(g, p), f a divisor of g and h reduced
    mod f: h.Q is h^p mod g, and f divides g."""
    v = np.zeros(len(q), q.dtype)
    v[: len(h)] = h
    return _divmod(_trim(((v @ q) % p).tolist()), f, p)[1]


def _distinct_degree_split(g, p, q, lowest):
    """Monic squarefree g with no irreducible factor of degree below
    ``lowest`` -> [(h_d, d)] with h_d the product of its irreducible
    factors of degree d.  Uses gcd(g, t^(p^d) - t) for d >= lowest, with
    t^(p^d) mod ``cur`` one Frobenius step from t^(p^(d-1)), for q =
    _frobenius(g, p)."""
    x = [0, 1]
    factors = []
    cur = g
    h = x
    d = 0
    while len(cur) > 1:
        d += 1
        if len(cur) - 1 < 2 * d:
            factors.append((cur, len(cur) - 1))
            break
        h = _frobenius_step(h, q, cur, p)
        if d < lowest:
            continue
        hx = _sub(h, x, p)
        G = _gcd(cur, hx, p) if hx else cur
        if len(G) > 1:
            factors.append((G, d))
            cur = _divmod(cur, G, p)[0]
            h = _divmod(h, cur, p)[1]
    return factors


def _equal_degree_split(h, d, p, rng, q):
    """Cantor-Zassenhaus split of h into its degree-d irreducible factors,
    for q the Frobenius matrix of a multiple of h."""
    n = len(h) - 1
    if n == d:
        return [h]
    while True:
        r = _trim([rng.randrange(p) for _ in range(2 * d)])
        if len(r) < 2:
            continue
        r = _divmod(r, h, p)[1]
        if p == 2:
            # trace map r + r^2 + ... + r^(2^(d-1)) splits half the factors
            probe = r
            for _ in range(d - 1):
                r = _frobenius_step(r, q, h, p)
                probe = _add(probe, r, p)
        else:
            # r^((p^d - 1)/2) = (r.r^p...r^(p^(d-1)))^((p - 1)/2)
            norm = r
            for _ in range(d - 1):
                r = _frobenius_step(r, q, h, p)
                norm = _divmod(_mul(norm, r, p), h, p)[1]
            probe = _sub(_pow_mod(norm, (p - 1) // 2, h, p), [1], p)
        if not probe:
            continue
        g = _gcd(h, probe, p)
        if 0 < len(g) - 1 < n:
            return _equal_degree_split(g, d, p, rng, q) + _equal_degree_split(
                _divmod(h, g, p)[0], d, p, rng, q
            )


# ---------------------------------------------------------------------------
# rationals (Zassenhaus)
#
# Integer polynomials are plain low-to-high int lists here, on the same
# coefficient-list helpers with p = 0; only factor_univariate speaks UniPoly.


def _ztrunc_sym(f, m):
    """Coefficients reduced to the symmetric range (-m/2, m/2]."""
    out = []
    half = m // 2
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _trim(out)


def _hensel_step(m, f, g, h, s, t):
    """Quadratic Hensel step: from f = g*h and s*g + t*h = 1 (mod m) to the
    same congruences mod m**2, with h kept monic.  Gathen & Gerhard 15.10."""
    M = m * m
    e = _ztrunc_sym(_sub(f, _mul(g, h, 0), 0), M)
    q, r = _divmod(_mul(s, e, 0), h, 0)
    q = _ztrunc_sym(q, M)
    r = _ztrunc_sym(r, M)
    u = _add(_mul(t, e, 0), _mul(q, g, 0), 0)
    G = _ztrunc_sym(_add(g, u, 0), M)
    H = _ztrunc_sym(_add(h, r, 0), M)
    u = _add(_mul(s, G, 0), _mul(t, H, 0), 0)
    b = _ztrunc_sym(_sub(u, [1], 0), M)
    c, d = _divmod(_mul(s, b, 0), H, 0)
    c = _ztrunc_sym(c, M)
    d = _ztrunc_sym(d, M)
    u = _add(_mul(t, b, 0), _mul(c, G, 0), 0)
    S = _ztrunc_sym(_sub(s, d, 0), M)
    T = _ztrunc_sym(_sub(t, u, 0), M)
    return G, H, S, T


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
    gp = [lc % p]
    for fi in flist[:k]:
        gp = _mul(gp, fi, p)
    hp = [1]
    for fi in flist[k:]:
        hp = _mul(hp, fi, p)
    _, sp, tp = _gcdex(gp, hp, p)
    g, h, s, t = (_ztrunc_sym(x, p) for x in (gp, hp, sp, tp))
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, flist[:k], l) + _hensel_lift(p, h, flist[k:], l)


def _good_prime(F):
    """Smallest odd prime not dividing lc(F) with squarefree image mod p."""
    for p in count(3, 2):
        if not is_prime(p) or F[-1] % p == 0:
            continue
        fp = [c % p for c in F]
        d = _derivative(fp, p)
        if d and len(_gcd(fp, d, p)) == 1:
            return p


def _root_bound(F):
    """Cauchy: every rational root r of F has |r| <= 1 + max|F_i/lc|, so
    |lc.r| <= |lc| + max|F_i|, and lc.r is an integer for lc the leading
    coefficient of a primitive F."""
    return abs(F[-1]) + max(abs(c) for c in F)


def _lift_root(F, a, p, bound):
    """A root a mod p of F, with F'(a) a unit mod p, lifted by Newton's
    iteration to a root mod some m = p^(2^j) > 2 * bound; returns (a, m).
    One Horner pass gives F(a) and F'(a)."""
    m = p
    while m <= 2 * bound:
        m *= m
        fa = dfa = 0
        for c in reversed(F):
            dfa = (dfa * a + fa) % m
            fa = (fa * a + c) % m
        a = (a - fa * pow(dfa, -1, m)) % m
    return a, m


def _zassenhaus(F):
    """Factor a primitive squarefree integer polynomial of degree >= 2:
    proven rational roots first, then ``_recombine`` on the cofactor."""
    p = _good_prime(F)
    linear, g = _linear_factors(_monic([c % p for c in F], p), p)
    factors = []
    f = F
    rest = []
    lc = F[-1]
    bound = _root_bound(F)
    for q in [q for q, _ in linear] + _factor_squarefree_modp(g, p):
        if len(q) == 2:
            a, m = _lift_root(F, -q[0] % p, p, bound)
            G = _primitive(_ztrunc_sym([-lc * a, lc], m))
            cofactor = _div_exact(f, G)
            if cofactor is not None:
                factors.append(G)
                f = cofactor
                continue
        rest.append(q)
    if len(rest) > 1:
        factors += _recombine(f, p, rest)
    elif len(f) > 1:
        factors.append(f)
    return factors


def _recombine(F, p, modular):
    """The irreducible factors of F from its monic modular factors mod p,
    at least two of them: Hensel-lift them above the half-degree bound,
    and try subsets of the lifted factors by exact division.

    A subset S stands for a factor D of the current cofactor f, and for
    its cofactor f / D, the product of the other factors.  Whichever of
    the two has degree <= deg f / 2 is rebuilt, as lc(f) times its lifted
    factors mod p^l, and divided into f; when it is the other factor that
    divides exactly, S's factor is the quotient.  A factor D of degree
    k <= m = floor(deg F / 2) of f, itself a factor of F, is rebuilt as
    (lc f / lc D) * D, whose coefficients are at most
    C(k, i) * M(F) <= C(m, floor(m/2)) * ||F||_2 (Mignotte's bound, with
    the Mahler measure M(F) <= ||F||_2), so p^l above twice that recovers
    it exactly."""
    n = len(F) - 1
    m = n // 2
    # ceil(||F||_2) = 1 + isqrt(||F||_2^2 - 1) for F != 0
    B = math.comb(m, m // 2) * (1 + math.isqrt(sum(c * c for c in F) - 1))
    l = 1
    pl = p
    while pl < 2 * B + 1:
        pl *= p
        l += 1
    lifted = _hensel_lift(p, F, [_ztrunc_sym(q, p) for q in modular], l)
    pl = p**l
    degree = [len(g) - 1 for g in lifted]

    remaining = list(range(len(lifted)))
    factors = []
    f = F
    s = 1
    tried = 0
    while 2 * s <= len(remaining):
        hit = None
        for S in combinations(remaining, s):
            tried += 1
            if tried > RECOMBINATION_BUDGET:
                raise ValueError(
                    f"factorization too hard: recombining the {len(lifted)} modular "
                    f"factors of a degree-{n} squarefree part needs more than "
                    f"RECOMBINATION_BUDGET = {RECOMBINATION_BUDGET} subsets"
                )
            small = 2 * sum(degree[i] for i in S) <= len(f) - 1
            G = [f[-1]]
            for i in S if small else [i for i in remaining if i not in S]:
                G = _mul(G, lifted[i], 0)
            Gp = _primitive(_ztrunc_sym(G, pl))
            q = _div_exact(f, Gp)
            if q is not None:
                if not small:
                    Gp, q = q, Gp
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
