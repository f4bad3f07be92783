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
