"""Mod-p dense linear-algebra kernels on int64 residue arrays.

The kernels are exact.  They work on int64 residues in [0, p) and reduce
eagerly; :mod:`endok.linalg` only dispatches here for p below
``PRIME_LIMIT`` so that no intermediate product can overflow 63 bits.
"""

import numpy as np

PRIME_LIMIT = 1 << 20

# The benchmark's run record (perfbench/run.py) reads this name.
BACKEND = "numpy"


def matmul_mod(a, b, p):
    return (a @ b) % p


def rref_mod(a, p):
    """Reduced row echelon form of an int64 residue matrix.

    Returns (rref array, list of pivot columns).
    """
    a = np.array(a, dtype=np.int64) % p
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
