"""Mod-p dense linear-algebra kernels on numpy residue arrays.

The kernels are exact.  They work on residues in [0, p) and reduce
eagerly.  ``dtype(p)`` picks the array type: int64 below ``PRIME_LIMIT``,
where a sum of up to 2^23 products of two residues stays below 2^63, and
``object`` (exact Python integers) from there up to the 2^63 bound on p.
"""

import numpy as np

PRIME_LIMIT = 1 << 20

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
    """
    a = a % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
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
