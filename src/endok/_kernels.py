"""Mod-p dense linear-algebra kernels on numpy residue arrays.

The kernels are exact.  They take and return residues in [0, p).
``dtype(p)`` picks the array type: int64 below ``PRIME_LIMIT``, where a
sum of up to 2^23 products of two residues, plus one residue, stays below
2^63, and ``object`` (exact Python integers) from there up to the 2^63
bound on p.

One int64 bound serves every kernel that defers its reduction: k
products of two residues mod M on top of one residue stay below 2^63
while k (M - 1)^2 + M < 2^63, that is for k up to ``terms(M)``.
``rref_mod`` reduces its array once at the end and after every
``terms(p)`` pivot steps, as each step moves an entry by less than
(p - 1)^2; ``charpoly_mod`` sums its trace contraction in chunks of
``terms(M)``; and ``linalg.eval_poly_at_matrix`` sums the terms c.A^e of
a polynomial on residue arrays the same way.  The rule needs no change
for ``object`` arrays, where ``max(1, terms(p))`` is 1 from p = 2^31.5
on, so a reduction follows every step, nor for an int64 limit raised as
far as 2^31, where it is 2.

``charpoly_mod`` takes characteristic polynomials of a stack of int64
residue matrices, one prime p per layer, from the power sums tr(A^j) and
Newton's identities: about 2 sqrt(d) stacked products and one
contraction, with no pivots.  Newton's identities divide by j = 1..d, so
each layer works modulo M = p^e, e = 1 + v_p(d!) (``newton_modulus``),
which is p itself when p > d, and divides the p-part of each j out
exactly.  Its int64 sums need d M^2 < 2^63: an entry of a product sums d
products below M^2, and the contraction, which sums d^2 of them per power
sum, runs in chunks of ``terms(M)``, each reduced mod M.

numpy multiplies int64 matrices without BLAS: a 32 x 32 product takes
20-30 us in int64 and about 2 us in float64.  float64 holds every integer
below 2^53 exactly, so ``charpoly_mod`` takes its stack products in
float64 where d (M - 1)^2 < 2^53, which bounds every entry sum, and where
the stack does at least ``BLAS_WORK`` = 2^12 multiply-adds (k d^3 for k
layers), the measured crossover below which the casts cost more than BLAS
saves.  The products are cast back to int64 and reduced there: ``%`` on
float64 is three times slower than on int64.
"""

from math import gcd, isqrt
from operator import mul

import numpy as np

PRIME_LIMIT = 1 << 20

# Every int64 sum stays below this.
INT64_BOUND = 1 << 63

# float64 holds every integer below this exactly.
FLOAT64_EXACT = 1 << 53

# The fewest multiply-adds, k d^3, for which a (k, d, d) stack product runs
# faster in float64, by BLAS, than in int64: the measured crossover.
BLAS_WORK = 1 << 12

# The benchmark's run record (perfbench/run.py) reads this name.
BACKEND = "numpy"


def dtype(p):
    """The numpy dtype of residue arrays mod p."""
    return np.int64 if p < PRIME_LIMIT else object


def matmul_mod(a, b, p):
    return (a @ b) % p


def rref_mod(a, p):
    """Reduced row echelon form of a residue matrix, in its dtype.

    Returns (rref array, list of pivot columns).

    The reduction mod p is deferred.  Each pivot step reduces only the
    pivot column, so that the search for a pivot tests residues, and the
    pivot row, before it is scaled to 1 (not at all when its pivot is 1
    already); the step then subtracts col x row, an outer product of two
    residue vectors, from the whole array.  Every entry thus falls by at
    most (p - 1)^2 per step and stays above -k (p - 1)^2 after k steps,
    so the whole array is reduced once at the end and after every
    ``terms(p)`` pivots, which keeps int64 entries above -2^63.

    Over GF(7), where the second row is 3 times the first:

    >>> r, pivots = rref_mod(np.array([[2, 4, 1], [6, 5, 3], [1, 0, 1]]), 7)
    >>> r.tolist(), pivots
    ([[1, 0, 1], [0, 1, 5], [0, 0, 0]], [0, 1])
    """
    a = a.copy()
    rows = len(a)
    every = max(1, terms(p))
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == rows:
            break
        col = a[:, c] % p
        nz = col[r:].nonzero()[0]
        if not nz.size:
            continue
        i = r + int(nz[0])
        row = a[i] % p
        if i != r:
            a[i] = a[r]
            col[i] = col[r]
        if row[c] != 1:
            row = row * pow(int(row[c]), p - 2, p) % p
        a[r] = row
        col[r] = 0
        a -= col[:, None] * row
        pivots.append(c)
        if not (r + 1) % every:
            a %= p
    a %= p
    return a, pivots


def echelon_insert_mod(rows, pivots, w, width, p):
    """Reduce the residue row w against rows, which are fully reduced at
    pivots (row i is 1 at pivots[i] and 0 at every other pivot), with one
    product w - w[pivots].rows mod p.  Columns from width on are not
    eliminated: they carry the combination a row equals (the [A | I]
    trick).

    Returns (lead, w reduced).  lead is None when w's first width entries
    reduce to zero; otherwise w is scaled to 1 at its first nonzero column
    lead, and that column is cleared from rows in place with one outer
    product, so rows plus w is again fully reduced.

    One dependency over GF(97), in a store of two rows of width 3 with
    combination columns for three generators: 2.e0 + e1 and e1 + e2 are
    added, and 2.e0 + 2.e1 + e2 reduces to zero with combination tail
    -1, -1 after its own 1, so it is 1.(2.e0 + e1) + 1.(e1 + e2).

    >>> store = np.zeros((2, 6), np.int64)
    >>> lead, store[0] = echelon_insert_mod(store[:0], [], np.array([2, 1, 0, 1, 0, 0]), 3, 97)
    >>> lead, store[0].tolist()
    (0, [1, 49, 0, 49, 0, 0])
    >>> lead, store[1] = echelon_insert_mod(store[:1], [0], np.array([0, 1, 1, 0, 1, 0]), 3, 97)
    >>> lead, store.tolist()
    (1, [[1, 0, 48, 49, 48, 0], [0, 1, 1, 0, 1, 0]])
    >>> lead, w = echelon_insert_mod(store, [0, 1], np.array([2, 2, 1, 0, 0, 1]), 3, 97)
    >>> lead, w.tolist(), (-w[3:5] % 97).tolist()
    (None, [0, 0, 0, 96, 96, 1], [1, 1])
    """
    w = (w - w[pivots] @ rows) % p
    nonzero = w[:width].nonzero()[0]
    if not nonzero.size:
        return None, w
    lead = int(nonzero[0])
    w = w * pow(int(w[lead]), p - 2, p) % p
    rows -= rows[:, lead, None] * w
    rows %= p
    return lead, w


def newton_modulus(p, d):
    """p^e for e = 1 + v_p(d!), by Legendre's formula: the modulus in which
    ``charpoly_mod`` keeps every coefficient right mod p at dim d, and p
    itself when p > d.

    >>> newton_modulus(97, 96), newton_modulus(2, 3), newton_modulus(2, 31)
    (97, 4, 134217728)
    """
    e, q = 1, p
    while q <= d:
        e += d // q
        q *= p
    return p**e


def terms(modulus):
    """The most products of two residues mod modulus that one int64 sum
    may hold on top of one residue."""
    return (INT64_BOUND - modulus) // (modulus - 1) ** 2


def charpoly_mod(a, primes):
    """Coefficient lists, lowest first, of det(xI - A) mod p for each layer
    A of a (k, d, d) int64 stack of residues and its prime p in primes,
    where d M^2 < 2^63 for M = ``newton_modulus(p, d)``.

    With m = isqrt(d) + 1, the baby steps A^0..A^(m-1) and the giant steps
    A^0, A^m, A^2m, .. take about 2 sqrt(d) products of the whole stack
    mod M, and tr(A^(im) A^r) = sum of A^(im) * (A^r)^T gives every power
    sum s_j = tr(A^j) mod M, j = im + r <= d, in one contraction.  The
    coefficient c_j of x^(d-j) then follows from Newton's identities,
    j c_j = -(c_(j-1) s_1 + c_(j-2) s_2 + .. + c_0 s_j) with c_0 = 1, which
    hold over the integers for any integer lift of A.

    Modulo M = p^e, e = 1 + v_p(d!), the right-hand side is divided by
    p^v, v = v_p(j), exactly, then multiplied by the inverse mod M of
    j / p^v.  By induction on j, c_j is then right mod p^(e - v_p(j!)):
    the right-hand side is right mod p^(e - v_p((j-1)!)) = p^(e - v_p(j!)
    + v), a multiple of p^(v+1) as e > v_p(j!), so its residue is, like
    j c_j, a multiple of p^v.  As e - v_p(j!) >= 1, every c_j is right
    mod p.  When p > d, M = p and every j is a unit, so the layer runs the
    identities mod p as they are.

    No int64 sum overflows: an entry of a product sums d products of two
    residues below M, less than 2^63 in all; the contraction sums d^2 of
    them, so it runs in chunks of ``terms(M)`` terms, reduced mod M after
    each.  Where d (M - 1)^2 < 2^53 for the largest M and k d^3 >=
    ``BLAS_WORK``, the baby and giant steps are float64 products, exact as
    every entry sum stays below 2^53, cast back to int64 and reduced there.
    Newton's identities run on Python integers.

    The companion matrix of x^2 - 3x + 2 mod 7, a 3 x 3 matrix with every
    entry 6 = -1 mod 7, whose characteristic polynomial is x^3 + 3x^2, and
    the 3 x 3 identity over F_2, where p <= d and (x - 1)^3 = x^3 + x^2 +
    x + 1:

    >>> charpoly_mod(np.array([[[0, 5], [1, 3]]]), [7])
    [[2, 4, 1]]
    >>> charpoly_mod(np.full((1, 3, 3), 6), [7])
    [[0, 0, 3, 1]]
    >>> charpoly_mod(np.eye(3, dtype=np.int64)[None], [2])
    [[1, 1, 1, 1]]
    """
    k, d, _ = a.shape
    if not d:
        return [[1] for _ in range(k)]
    moduli = [newton_modulus(p, d) for p in primes]
    mod = np.array(moduli, np.int64)[:, None, None]
    m = isqrt(d) + 1
    g = d // m + 1  # giant steps, so that (g - 1) m + m - 1 >= d
    baby = np.zeros((k, m, d, d), np.int64)
    giant = np.zeros((k, g, d, d), np.int64)
    baby.reshape(k, m, d * d)[:, 0, :: d + 1] = 1
    giant.reshape(k, g, d * d)[:, 0, :: d + 1] = 1
    exact = d * (max(moduli) - 1) ** 2 < FLOAT64_EXACT
    if exact and k * d**3 >= BLAS_WORK:

        def step(x, y):
            return np.matmul(x, y, dtype=np.float64).astype(np.int64) % mod

    else:

        def step(x, y):
            return x @ y % mod

    baby[:, 1] = a
    for r in range(2, m):
        baby[:, r] = step(baby[:, r - 1], a)
    if g > 1:
        giant[:, 1] = step(baby[:, m - 1], a)
        for i in range(2, g):
            giant[:, i] = step(giant[:, i - 1], giant[:, 1])
    flat = giant.reshape(k, g, d * d)
    flat_t = baby.swapaxes(2, 3).reshape(k, m, d * d).swapaxes(1, 2)
    sums = np.zeros((k, g, m), np.int64)  # sums[:, i, r] = tr(A^(im + r))
    chunk = terms(max(moduli))
    for lo in range(0, d * d, chunk):
        sums += flat[:, :, lo : lo + chunk] @ flat_t[:, lo : lo + chunk]
        sums %= mod
    out = []
    # per layer s_d, .., s_1: the last j are s_j, .., s_1, against c_0, .., c_(j-1)
    for p, q, s in zip(primes, moduli, sums.reshape(k, g * m)[:, d:0:-1].tolist()):
        c = [1]
        for j in range(1, d + 1):
            t = -sum(map(mul, c, s[d - j :]))
            if q == p:  # p > d
                c.append(t * pow(j, -1, q) % q)
            else:
                u = gcd(j, q)  # p^v_p(j), as v_p(j) < e
                c.append(t % q // u * pow(j // u, -1, q) % q)
        out.append(c[::-1] if q == p else [x % p for x in reversed(c)])
    return out
