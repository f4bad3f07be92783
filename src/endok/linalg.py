"""Dense exact linear algebra over ``QQ`` or ``GF(p)``.

Matrices are immutable, and each field keeps them in one integer form
between operations; ``entries``, the row tuples of raw field scalars, is
built from that form when first asked for and kept.

Over prime fields small enough for int64 arithmetic a matrix is an int64
residue array: products and row reduction run in :mod:`endok._kernels`,
and sums, differences, negation, scaling and submatrices are numpy
operations with one reduction mod p.  Over larger primes a product entry
is one Python integer dot product reduced mod p once.

Over Q a matrix is N/D: row tuples N of integer numerators over one
positive denominator D, with gcd(content(N), D) = 1, which makes the form
canonical.  Products, sums, negation, scaling and submatrices are integer
list operations followed by that one gcd; row reduction is fraction-free
Gauss-Jordan on primitive integer rows (each elimination a.row_i - b.row_r
divided by its content), which kernels, spans and the incremental
``Echelon`` read directly.  The characteristic polynomial of N/D is
D^(-d) chi_N(D x), and chi_N comes from the Hessenberg recurrence modulo
primes just below 2^61, combined by the Chinese remainder theorem until
their product passes 2 max_k C(d, k) R^k, twice Hadamard's bound on the
coefficients of chi_N for R the largest Euclidean row norm of N.
``Fraction``s appear only in ``entries`` and in results that are field
scalars.  A matrix built from rows of Fractions (or of residues) converts
to its integer form once, on its first integer operation, and keeps it.

Scalars are coerced once, where they enter: the public ``Matrix`` and
``Subspace`` constructors coerce and check their input, while matrices
and subspaces built here from already canonical scalars go through
``_from_canonical`` (or ``_from_array``, ``_from_integers``).
"""

from fractions import Fraction
from itertools import chain
from math import comb, gcd, isqrt, lcm
from operator import mul

import numpy as np

from . import _kernels
from .errors import FieldMismatchError
from .fields import is_prime
from .poly import MultiPoly, UniPoly, _cleared, _primitive, uni_lcm


def _arrays_enabled(field):
    return field.is_prime_field and field.characteristic < _kernels.PRIME_LIMIT


class Matrix:
    """Immutable dense matrix over an exact field.

    A matrix holds its entries as row tuples of raw scalars, or, in its
    field's integer form, as the read-only int64 array an operation
    produced (F_p with arrays enabled) or as integer numerators over one
    denominator (Q); each form is built from the other at most once, when
    it is first asked for, and then kept.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "_array", "_num", "_den")

    def __init__(self, field, entries, cols=None):
        grid = tuple(tuple(field.coerce(x) for x in row) for row in entries)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, found {width}")
        else:
            width = cols or 0
        _init(self, field, len(grid), width, entries=grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _from_canonical(cls, field, grid, cols):
        """A matrix over rows of canonical scalars, all of length cols,
        taken as they are: no coercion and no shape check."""
        return _init(object.__new__(cls), field, len(grid), cols, entries=tuple(map(tuple, grid)))

    @classmethod
    def _from_array(cls, field, arr):
        """A matrix over a 2-d int64 array of residues mod p, which it
        keeps, made read-only; no copy and no reduction."""
        arr.flags.writeable = False
        return _init(object.__new__(cls), field, *arr.shape, array=arr)

    @classmethod
    def _from_integers(cls, field, num, den, cols):
        """num/den for integer rows num, all of length cols, and den > 0.
        Over Q it is brought to the canonical form by dividing out
        gcd(content, den); over F_p den must be 1 and num residues."""
        if field.characteristic:
            return cls._from_canonical(field, num, cols)
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g > 1:
                num = [[x // g for x in row] for row in num]
                den //= g
        num = tuple(map(tuple, num))
        return _init(object.__new__(cls), field, len(num), cols, num=num, den=den)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._from_integers(field, [(0,) * cols] * rows, 1, cols)

    @classmethod
    def identity(cls, field, d):
        grid = [[int(i == j) for j in range(d)] for i in range(d)]
        return cls._from_integers(field, grid, 1, d)

    @classmethod
    def companion(cls, q):
        """Companion matrix of a monic polynomial: maps e_i to e_{i+1} and
        e_d to minus the low coefficients."""
        if not q.is_monic or q.degree < 1:
            raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
        F = q.field
        d = q.degree
        z = F.zero
        grid = [[z] * d for _ in range(d)]
        for i in range(1, d):
            grid[i][i - 1] = F.one
        for i in range(d):
            grid[i][d - 1] = F.neg(q[i])
        return cls(F, grid)

    @classmethod
    def block_diag(cls, field, blocks):
        size = sum(b.rows for b in blocks)
        z = field.zero
        grid = [[z] * size for _ in range(size)]
        off = 0
        for b in blocks:
            if b.rows != b.cols or b.field != field:
                raise ValueError("block_diag needs square blocks over one field")
            for i in range(b.rows):
                for j in range(b.cols):
                    grid[off + i][off + j] = b.entries[i][j]
            off += b.rows
        return cls(field, grid, cols=size)

    # -- inspection --------------------------------------------------------

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def entries(self):
        """Row tuples of raw scalars (Python ints over F_p, Fractions over Q)."""
        grid = self._entries
        if grid is None:
            if self._array is not None:
                grid = tuple(map(tuple, self._array.tolist()))
            else:
                den = self._den
                grid = tuple(tuple(_fraction(x, den) for x in row) for row in self._num)
            object.__setattr__(self, "_entries", grid)
        return grid

    @property
    def is_zero(self):
        if self._array is not None:
            return not self._array.any()
        if self._num is not None:
            return not any(map(any, self._num))
        return not any(map(any, self.entries))

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def to_array(self):
        """The entries as a read-only int64 array, built once and kept."""
        arr = self._array
        if arr is None:
            arr = np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)
            arr.flags.writeable = False
            object.__setattr__(self, "_array", arr)
        return arr

    def to_integers(self):
        """(rows, den): over Q the canonical integer form, row tuples of
        numerators over one positive denominator, built once and kept;
        over F_p the residue rows over 1."""
        if self.field.characteristic:
            return self.entries, 1
        if self._num is None:
            nums, den = _cleared([x for row in self._entries for x in row])
            c = self.cols
            num = tuple(tuple(nums[i * c : i * c + c]) for i in range(self.rows))
            object.__setattr__(self, "_num", num)
            object.__setattr__(self, "_den", den)
        return self._num, self._den

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields {self.field} and {other.field}")

    def _check_shape(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._check_shape(other)
        F = self.field
        p = F.characteristic
        if _arrays_enabled(F):
            return Matrix._from_array(F, (self.to_array() + other.to_array()) % p)
        if p:
            pairs = zip(self.entries, other.entries)
            grid = [[(a + b) % p for a, b in zip(r1, r2)] for r1, r2 in pairs]
            return Matrix._from_canonical(F, grid, self.cols)
        (a, da), (b, db) = self.to_integers(), other.to_integers()
        if da == db:
            grid = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
        else:
            den = lcm(da, db)
            sa, sb = den // da, den // db
            grid = [[sa * x + sb * y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
            da = den
        return Matrix._from_integers(F, grid, da, self.cols)

    def __sub__(self, other):
        self._check_shape(other)
        F = self.field
        if _arrays_enabled(F):
            return Matrix._from_array(F, (self.to_array() - other.to_array()) % F.characteristic)
        return self + (-other)

    def __neg__(self):
        F = self.field
        p = F.characteristic
        if _arrays_enabled(F):
            return Matrix._from_array(F, -self.to_array() % p)
        if p:
            grid = [[-x % p for x in row] for row in self.entries]
            return Matrix._from_canonical(F, grid, self.cols)
        num, den = self.to_integers()
        return Matrix._from_integers(F, [[-x for x in row] for row in num], den, self.cols)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        p = F.characteristic
        if _arrays_enabled(F):
            return Matrix._from_array(F, self.to_array() * c % p)
        if p:
            grid = [[c * x % p for x in row] for row in self.entries]
            return Matrix._from_canonical(F, grid, self.cols)
        num, den = self.to_integers()
        a = c.numerator
        grid = [[a * x for x in row] for row in num]
        return Matrix._from_integers(F, grid, den * c.denominator if a else 1, self.cols)

    def __rmul__(self, c):
        return self.scale(c)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        F = self.field
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(F, self.rows, other.cols)
        p = F.characteristic
        if _arrays_enabled(F):
            out = _kernels.matmul_mod(self.to_array(), other.to_array(), p)
            return Matrix._from_array(F, out)
        (a, da), (b, db) = self.to_integers(), other.to_integers()
        cols = list(zip(*b))
        if p:
            grid = [[sum(map(mul, row, col)) % p for col in cols] for row in a]
        else:
            grid = [[sum(map(mul, row, col)) for col in cols] for row in a]
        return Matrix._from_integers(F, grid, da * db, other.cols)

    def mul_vec(self, v):
        F = self.field
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        p = F.characteristic
        if p:
            return tuple(sum(map(mul, row, v)) % p for row in self.entries)
        num, den = self.to_integers()
        vnum, vden = _cleared(v)
        den *= vden
        return tuple(_fraction(sum(map(mul, row, vnum)), den) for row in num)

    def pow(self, e):
        if not self.is_square:
            raise ValueError("matrix power needs a square matrix")
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return Matrix.identity(self.field, self.rows)
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out @ base
            e >>= 1
            if not e:
                return out
            base = base @ base

    def transpose(self):
        """The transpose, in the same integer form."""
        F = self.field
        if self._array is not None:
            return Matrix._from_array(F, self._array.T.copy())
        num, den = self.to_integers()
        grid = list(zip(*num)) if self.rows else [()] * self.cols
        return Matrix._from_integers(F, grid, den, self.rows)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self._array is not None and other._array is not None:
            return np.array_equal(self._array, other._array)
        if self.field.characteristic:
            return self.entries == other.entries
        return self.to_integers() == other.to_integers()

    def __hash__(self):
        if self.field.characteristic:
            return hash((self.field, self.cols, self.entries))
        return hash((self.field, self.cols, self.to_integers()))

    def __str__(self):
        if self.rows == 0:
            return "[[]]"
        F = self.field
        return "[" + ";".join("[" + ",".join(F.render(x) for x in row) + "]" for row in self.entries) + "]"

    def __repr__(self):
        return f"Matrix({self.field!r}, {self!s})"


def _init(m, field, rows, cols, entries=None, array=None, num=None, den=1):
    """Fill the slots of a new matrix with the forms given; returns it."""
    for name, value in (
        ("field", field),
        ("rows", rows),
        ("cols", cols),
        ("_entries", entries),
        ("_array", array),
        ("_num", num),
        ("_den", den),
    ):
        object.__setattr__(m, name, value)
    return m


def _submatrix(m, rows, cols):
    """The block of m on the given row and column indices."""
    if m._array is not None:
        return Matrix._from_array(m.field, m._array.take(rows, 0).take(cols, 1))
    num, den = m.to_integers()
    grid = [[row[j] for j in cols] for row in map(num.__getitem__, rows)]
    return Matrix._from_integers(m.field, grid, den, len(cols))


def _stack(mats):
    """The matrices, all with the same columns, one above the other."""
    F, cols = mats[0].field, mats[0].cols
    if _arrays_enabled(F):
        return Matrix._from_array(F, np.concatenate([m.to_array() for m in mats]))
    forms = [m.to_integers() for m in mats]
    den = lcm(*(d for _, d in forms))
    grid = [[x * (den // d) for x in row] for num, d in forms for row in num]
    return Matrix._from_integers(F, grid, den, cols)


_ZERO = Fraction(0)


def _fraction(n, d):
    """The canonical rational n/d, for integers n and d != 0."""
    return Fraction(n, d) if n else _ZERO


def _integer_echelon(grid):
    """Fraction-free Gauss-Jordan on integer rows.

    Returns (rows, pivots): each pivot column is zero outside its own row,
    the rows below the last pivot row are zero, and every row is primitive,
    which keeps the entries from growing between eliminations.
    """
    rows = [_primitive(row) for row in grid]
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        a = prow[c]
        for i, row in enumerate(rows):
            b = row[c]
            if b and i != r:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                rows[i] = _primitive([ag * x - bg * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(m):
    """Reduced row echelon form by exact Gauss-Jordan.

    Returns (R, pivots); R is canonical whichever implementation runs.
    """
    F = m.field
    if not (m.rows and m.cols):
        return m, []
    p = F.characteristic
    if _arrays_enabled(F):
        arr, pivots = _kernels.rref_mod(m.to_array(), p)
        return Matrix._from_array(F, arr), list(pivots)
    if not p:
        rows, pivots = _integer_echelon(m.to_integers()[0])
        # row r of R is rows[r] over its pivot entry: one denominator for all
        den = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
        for r, c in enumerate(pivots):
            s = den // rows[r][c]
            rows[r] = [s * x for x in rows[r]]
        return Matrix._from_integers(F, rows, den, m.cols), pivots
    grid = [list(row) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == len(grid):
            break
        piv = next((i for i in range(r, len(grid)) if grid[i][c]), None)
        if piv is None:
            continue
        grid[r], grid[piv] = grid[piv], grid[r]
        inv = pow(grid[r][c], p - 2, p)
        prow = [inv * x % p for x in grid[r]]
        grid[r] = prow
        for i, row in enumerate(grid):
            f = row[c]
            if f and i != r:
                grid[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return Matrix._from_canonical(F, grid, m.cols), pivots


class Subspace:
    """A subspace of k^n held in canonical reduced-echelon form.

    ``matrix`` holds the basis as its rows, in the field's integer form;
    ``basis`` is its entries.  Equal subspaces always have identical
    bases, so equality is literal.
    """

    __slots__ = ("field", "ambient_dim", "matrix", "pivots")

    def __init__(self, field, ambient_dim, vectors):
        vecs = [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
        self._span(Matrix._from_canonical(field, vecs, ambient_dim))

    @classmethod
    def _from_canonical(cls, field, ambient_dim, vectors):
        """The span of a list of vectors of canonical scalars, all of
        length ambient_dim, taken as they are: no coercion and no length
        check."""
        return cls._row_space(Matrix._from_canonical(field, vectors, ambient_dim))

    @classmethod
    def _row_space(cls, m):
        """The span of the rows of a matrix."""
        sp = object.__new__(cls)
        sp._span(m)
        return sp

    def _span(self, m):
        R, piv = rref(m)
        if len(piv) < R.rows:
            R = _submatrix(R, range(len(piv)), range(m.cols))
        self._set(m.field, m.cols, R, piv)

    def _set(self, field, ambient_dim, matrix, pivots):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field, ambient_dim):
        # the identity rows are their own reduced echelon form
        sp = object.__new__(cls)
        sp._set(field, ambient_dim, Matrix.identity(field, ambient_dim), range(ambient_dim))
        return sp

    @property
    def basis(self):
        return self.matrix.entries

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def is_zero(self):
        return not self.pivots

    def reduce(self, v):
        """Residual of v after subtracting its component in the subspace."""
        F = self.field
        work = [F.coerce(x) for x in v]
        for row, p in zip(self.basis, self.pivots):
            c = work[p]
            if c:
                work = [F.sub(x, F.mul(c, y)) for x, y in zip(work, row)]
        return tuple(work)

    def contains(self, v):
        z = self.field.zero
        return all(x == z for x in self.reduce(v))

    def complement_coords(self):
        """Ambient coordinates not used as pivots; they index a complement."""
        pivset = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in pivset)

    def sum(self, other):
        if other.field != self.field or other.ambient_dim != self.ambient_dim:
            raise FieldMismatchError("subspace sum needs one ambient space")
        return Subspace._row_space(_stack([self.matrix, other.matrix]))

    def __eq__(self, other):
        if isinstance(other, Subspace):
            return (
                self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.matrix == other.matrix
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.matrix))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


class Echelon:
    """Incremental echelon store over integer rows.

    Over F_p a stored row holds residues with pivot entry 1, and reducing
    a vector against it is one update (x - b*y) % p per entry.  Over Q a
    vector enters as integer numerators over a denominator, a stored row
    is primitive, and each elimination is the fraction-free step
    a*w - b*row followed by division by the content, as in
    ``_integer_echelon``.  Row i has zeros at the pivots of the rows
    before it, so reducing against the rows in insertion order clears
    every pivot.

    With ``track`` each row carries beside it the integer combination of
    the generators (the vectors ``insert`` added, each cleared over Q)
    that it equals; the combination takes the same row operations and
    content division as the row, and becomes field scalars only when
    ``insert`` reports a dependency.
    """

    def __init__(self, field, width, track=False):
        self.field = field
        self.width = width
        self.track = track
        self.rows = []
        self.pivots = []
        self.combos = []  # combos[i][g]: coefficient of generator g in rows[i]
        self.dens = []  # dens[g]: the denominator cleared from generator g

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, v):
        """Try to add a vector of field scalars.  Returns (added, combo):
        combo rewrites a dependent v over the previously added generators,
        as a dict from generator index to nonzero field scalar (only when
        tracking)."""
        F = self.field
        work = [F.coerce(x) for x in v]
        if F.characteristic:
            return self.insert_integers(work, 1)
        return self.insert_integers(*_cleared(work))

    def insert_integers(self, work, den):
        """``insert`` for the vector work/den, given over Q as integer
        numerators over den > 0 and over F_p as residues over 1."""
        p = self.field.characteristic
        gens = len(self.rows)
        # work = sum of combo[g] * generator g, the new vector at index gens
        combo = [0] * gens + [1] if self.track else None
        for row, c, rc in zip(self.rows, self.pivots, self.combos or self.rows):
            b = work[c]
            if not b:
                continue
            if p:
                work = [(x - b * y) % p for x, y in zip(work, row)]
                if self.track:
                    k = len(rc)
                    combo[:k] = [(x - b * y) % p for x, y in zip(combo, rc)]
                continue
            a = row[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            work = [a * x - b * y for x, y in zip(work, row)]
            if self.track:
                k = len(rc)
                combo = [a * x - b * y for x, y in zip(combo, rc)] + [
                    a * x for x in combo[k:]
                ]
                g = gcd(*work, *combo)
                if g > 1:
                    work = [x // g for x in work]
                    combo = [x // g for x in combo]
            else:
                work = _primitive(work)
        lead = next((j for j, x in enumerate(work) if x), None)
        if lead is None:
            if not self.track:
                return False, None
            s = combo[gens]
            if p:  # s == 1
                return False, {g: -x % p for g, x in enumerate(combo[:gens]) if x}
            return False, {
                g: Fraction(-x * self.dens[g], s * den)
                for g, x in enumerate(combo[:gens])
                if x
            }
        if p:
            inv = pow(work[lead], p - 2, p)
            work = [x * inv % p for x in work]
            if self.track:
                combo = [x * inv % p for x in combo]
        elif not self.track:
            work = _primitive(work)
        self.rows.append(work)
        self.pivots.append(lead)
        if self.track:
            self.combos.append(combo)
        self.dens.append(den)
        return True, None


def _kernel_rows(m):
    """(K, free): the rows of K are a basis of the right null space, read
    off one reduced echelon form, and free lists the non-pivot columns.

    With R = N/D the reduced echelon form, free column j gives the kernel
    vector e_j minus column j of R at the pivots, so K is the identity on
    the free columns: a vector w of the null space is w[free].K.  Over Q,
    K is D e_j minus column j of N over the denominator D."""
    F = m.field
    p = F.characteristic
    R, pivots = rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    num, den = R.to_integers()
    vectors = []
    for j in free:
        v = [0] * m.cols
        v[j] = den
        for i, pc in enumerate(pivots):
            v[pc] = -num[i][j] % p if p else -num[i][j]
        vectors.append(v)
    return Matrix._from_integers(F, vectors, den, m.cols), free


def kernel_basis(m):
    """Canonical basis of the right null space; dim = cols - rank."""
    return Subspace._row_space(_kernel_rows(m)[0])


def column_space(m):
    return Subspace._row_space(m.transpose())


# The CRT primes for charpoly over Q: the largest primes below 2^61, in
# descending order, found when first needed and kept.
_CRT_PRIMES = []


def _crt_prime(i):
    while len(_CRT_PRIMES) <= i:
        q = _CRT_PRIMES[-1] - 2 if _CRT_PRIMES else (1 << 61) - 1
        while not is_prime(q):
            q -= 2
        _CRT_PRIMES.append(q)
    return _CRT_PRIMES[i]


def _charpoly_mod(rows, p):
    """Coefficients, lowest first, of det(xI - A) mod p for a square A
    given by rows of residues mod p.

    Similarity reduction to upper Hessenberg form, then the standard
    recurrence on characteristic polynomials of leading principal minors
    (Cohen, Algorithm 2.2.9), each entry reduced mod p once per update.
    """
    d = len(rows)
    h = [list(row) for row in rows]
    for j in range(d - 2):
        piv = None
        for i in range(j + 1, d):
            if h[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        pivot_row = h[j + 1]
        inv = pow(pivot_row[j], -1, p)
        for i in range(j + 2, d):
            if not h[i][j]:
                continue
            f = h[i][j] * inv % p
            # row_i -= f * row_{j+1}, col_{j+1} += f * col_i: a similarity
            h[i][j:] = [(x - f * y) % p for x, y in zip(h[i][j:], pivot_row[j:])]
            for r in h:
                r[j + 1] = (r[j + 1] + f * r[i]) % p
    # polys[k]: coefficients, lowest first, of the k-th leading minor's
    # characteristic polynomial
    polys = [[1]]
    for k in range(1, d + 1):
        prev = polys[k - 1]
        a = h[k - 1][k - 1]
        pk = [0] + prev
        for e, c in enumerate(prev):
            pk[e] -= a * c
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * h[i][i - 1] % p
            coeff = h[i - 1][k - 1] * prod
            if coeff:
                for e, c in enumerate(polys[i - 1]):
                    pk[e] -= coeff * c
        polys.append([x % p for x in pk])
    return polys[d]


def _charpoly_integer(num):
    """Coefficients, lowest first, of det(xI - N) for a square integer N,
    from ``_charpoly_mod`` modulo the CRT primes.

    The coefficient of x^(d-k) is a signed sum of C(d, k) principal k x k
    minors, each at most R^k by Hadamard's inequality for R the largest
    Euclidean row norm of N; once the product M of the primes passes
    twice the largest such bound, the residues in (-M/2, M/2) are the
    coefficients.
    """
    d = len(num)
    r2 = max((sum(x * x for x in row) for row in num), default=0)
    r = isqrt(r2)
    r += r * r < r2  # the least integer >= R
    bound = 2 * max(comb(d, k) * r**k for k in range(d + 1))
    coeffs, modulus = None, 1
    i = 0
    while modulus <= bound:
        q = _crt_prime(i)
        res = _charpoly_mod([[x % q for x in row] for row in num], q)
        if coeffs is None:
            coeffs = res
        else:
            # Garner: the integer = coeffs mod modulus and = res mod q
            inv = pow(modulus, -1, q)
            coeffs = [x + modulus * ((y - x) * inv % q) for x, y in zip(coeffs, res)]
        modulus *= q
        i += 1
    half = modulus // 2
    return [x - modulus if x > half else x for x in coeffs]


def charpoly(m):
    """det(xI - m), monic of degree dim, over any exact field.

    Over F_p the Hessenberg recurrence of ``_charpoly_mod`` runs on the
    residues.  Over Q, with m = N/D in its integer form,
    chi_m(x) = D^(-d) chi_N(D x), so the coefficient of x^k is
    c_k / D^(d-k) for c_k those of ``_charpoly_integer(N)``; only the d + 1
    result coefficients become Fractions.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    F = m.field
    p = F.characteristic
    if p:
        return UniPoly._from_canonical(F, _charpoly_mod(m.entries, p))
    num, den = m.to_integers()
    d = m.rows
    coeffs = _charpoly_integer(num)
    return UniPoly._from_canonical(
        F, [_fraction(c, den ** (d - k)) for k, c in enumerate(coeffs)]
    )


def minimal_polynomial(m):
    """Monic least-degree q with q(m) = 0, as the lcm of the annihilators
    of the standard basis vectors under Krylov iteration."""
    if not m.is_square:
        raise ValueError("minimal polynomial needs a square matrix")
    F = m.field
    d = m.rows
    if d == 0:
        return UniPoly.one(F)
    result = UniPoly.one(F)
    for start in range(d):
        ech = Echelon(F, d, track=True)
        v = tuple(F.one if i == start else F.zero for i in range(d))
        while True:
            added, combo = ech.insert(v)
            if not added:
                k = ech.rank
                coeffs = [F.neg(combo.get(j, F.zero)) for j in range(k)]
                coeffs.append(F.one)
                ann = UniPoly(F, coeffs)
                break
            v = m.mul_vec(v)
        result = uni_lcm(result, ann)
        if result.degree == d:
            break
    return result


def eval_poly_at_matrix(q, ms):
    """Evaluate a polynomial at square matrices (t_i -> ms[i]) as a sum of
    products of cached powers, each scaled by its term's coefficient.

    Multivariate evaluation assumes the matrices commute pairwise, which
    callers passing CommutingTuple members always guarantee.
    """
    if not ms:
        raise ValueError("need at least one matrix")
    F = ms[0].field
    d = ms[0].rows
    for m in ms:
        if not m.is_square or m.rows != d or m.field != F:
            raise ValueError("matrices must be square, equal-sized, one field")
    if isinstance(q, UniPoly):
        if len(ms) != 1:
            raise ValueError("univariate evaluation takes exactly one matrix")
        terms = [((e,), c) for e, c in enumerate(q.coeffs) if c]
    elif isinstance(q, MultiPoly):
        if len(ms) != q.nvars:
            raise ValueError(f"{q.nvars} variables but {len(ms)} matrices")
        terms = q.terms
    else:
        raise TypeError(f"expected UniPoly or MultiPoly, got {q!r}")
    if q.field != F:
        raise FieldMismatchError("polynomial and matrix fields differ")
    powers = [[None, m] for m in ms]
    acc = None
    for exps, c in terms:
        term = None
        for i, e in enumerate(exps):
            if e:
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] @ ms[i])
                term = cache[e] if term is None else term @ cache[e]
        if term is None:
            term = Matrix.identity(F, d)
        if c != F.one:
            term = term.scale(c)
        acc = term if acc is None else acc + term
    return Matrix.zeros(F, d, d) if acc is None else acc
