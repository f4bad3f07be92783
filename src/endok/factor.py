"""Irreducible factorization of univariate polynomials over Q and F_p.

One driver serves both fields: ``factor_univariate`` takes Yun's
squarefree parts of f (``poly._squarefree_parts``: of its monic residues
over F_p, of its primitive integer multiple over Q), splits each part into
irreducibles and gives each irreducible its part's multiplicity.  The
parts are pairwise coprime, in characteristic p too, so every irreducible
comes out of exactly one part and no multiplicities are added up.

Over F_p each part g goes through distinct-degree splitting followed by
randomized Cantor-Zassenhaus equal-degree splitting.  The linear factors
come first when p <= ROOT_EVAL_LIMIT: the degree-1 part, a product of
distinct monic linear factors, is evaluated at every element of F_p at
once (Horner on int64 arrays) and its zeros name them.  The limit is a
measured crossover: evaluation costs about deg * p array steps, and
Cantor-Zassenhaus about deg^2 * log p list steps, and evaluation won at
every degree tried up to p = 12007 (degree 2, where it wins least) and
up to about 30000 at degree 8; the limit, 2^13, keeps a margin below, as
the timings swing.  Parts of degree d > 1, and the degree-1
part for larger p, go to Cantor-Zassenhaus.  Both splittings raise to the
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
prime, Hensel-lift the modular factors above the Mignotte coefficient
bound, and recombine subsets, with a candidate factor checked by exact
division over Z.  Here too the linear factors come first, t among them
as the root 0: a rational root r of F has |lc.r| <= |lc| + max|F_i|
(Cauchy), and lc.r is an integer, so each root a of a linear modular
factor is lifted by Newton's iteration until p^k exceeds twice that
bound, and lc.t - (lc.a mod p^k, symmetric) is a factor of F exactly when
its primitive part divides the cofactor.  A proven root takes its modular
factor with it; the Mignotte bound, the Hensel lift and the subset search
run on the cofactor alone, and not at all when at most one modular factor
is left.  Integer polynomials use the same coefficient-list helpers with
p = 0, and only the monic irreducible factors become Fractions.
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
    _squarefree_parts,
    _sub,
    _trim,
)

DEFAULT_SEED = 0
# Zassenhaus tries at most this many subsets of the lifted modular factors
# for one squarefree part; t^70 - 1 has 10 factors mod 3, and once its
# roots +-1 are proven the other 8 need 11
RECOMBINATION_BUDGET = 1 << 14
# F_p with p at most this many elements splits the degree-1 part by
# evaluation; below the measured crossover (see above), with a margin
ROOT_EVAL_LIMIT = 1 << 13


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
        for g, e in _squarefree_parts(f)
        for q in (
            _factor_squarefree_modp(g, p) if p else _zassenhaus(g) if len(g) > 2 else [g]
        )
    ]
    pairs.sort(key=lambda pair: (pair[0].degree, pair[0].coeffs))
    return pairs


# ---------------------------------------------------------------------------
# prime fields
#
# The loops run on the coefficient lists of endok.poly (raw residues, lowest
# degree first); only factor_univariate speaks UniPoly.


def _factor_squarefree_modp(g, p):
    """Monic squarefree g over F_p -> unsorted list of monic irreducibles.
    For p <= ROOT_EVAL_LIMIT the degree-1 part is split by ``_roots``; one
    generator serves the equal-degree splits, if any part needs one."""
    if len(g) <= 2:
        return [g] if len(g) == 2 else []
    q = _frobenius(g, p)
    parts = _distinct_degree_split(g, p, q)
    linear = []
    h, d = parts[0]
    if d == 1 and len(h) > 2 and p <= ROOT_EVAL_LIMIT:
        linear = [[-a % p, 1] for a in _roots(h, p)]
        parts = parts[1:]
    rng = random.Random(DEFAULT_SEED) if any(len(h) - 1 > d for h, d in parts) else None
    return linear + [f for h, d in parts for f in _equal_degree_split(h, d, p, rng, q)]


def _roots(h, p):
    """The zeros in F_p of h, in increasing order: h evaluated at every
    element at once, by Horner on int64 arrays (p^2 + p < 2^63)."""
    x = np.arange(p, dtype=np.int64)
    acc = np.full(p, h[-1], np.int64)
    for c in reversed(h[:-1]):
        acc *= x
        acc += c
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


def _distinct_degree_split(g, p, q):
    """Monic squarefree g -> [(h_d, d)] with h_d the product of its
    irreducible factors of degree d.  Uses gcd(g, t^(p^d) - t), with
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
    factors = []
    f = F
    rest = []
    lc = F[-1]
    bound = _root_bound(F)
    for q in _factor_squarefree_modp(_monic([c % p for c in F], p), p):
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
    at least two of them: Hensel-lift them above the Mignotte bound, and
    try subsets of the lifted factors by exact division."""
    n = len(F) - 1
    A = max(abs(c) for c in F)
    b = F[-1]
    # Mignotte: any factor has coefficients bounded by sqrt(n+1)*2^n*A*|b|
    B = (math.isqrt(n + 1) + 1) * (1 << n) * A * abs(b)
    l = 1
    pl = p
    while pl < 2 * B + 1:
        pl *= p
        l += 1
    lifted = _hensel_lift(p, F, [_ztrunc_sym(q, p) for q in modular], l)
    pl = p**l

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
            G = [f[-1]]
            for i in S:
                G = _mul(G, lifted[i], 0)
            G = _ztrunc_sym(G, pl)
            Gp = _primitive(G)
            q = _div_exact(f, Gp)
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
