"""Dense exact linear algebra over ``QQ`` or ``GF(p)``.

Matrices are immutable.  Over prime fields small enough for int64
arithmetic a matrix stays an int64 residue array between operations:
products and row reduction run in :mod:`endok._kernels`, and sums,
differences, negation, scaling and submatrices are numpy operations with
one reduction mod p.  Its ``entries``, row tuples of Python ints, are read
from the array when first asked for and kept; a matrix built from rows
converts to an array once, on its first array operation, and keeps it.
Over larger primes a product entry is one Python integer dot product
reduced mod p once.  Over Q both run on Python integers: a product clears
each row of A and each column of B to integer numerators over one common
denominator, so an entry is one integer dot product and one ``Fraction``;
row reduction scales each row to integers, eliminates with integer row
operations a.row_i - b.row_r, keeps every row primitive by dividing out
its content, and divides each pivot row by its pivot only at the end.
The field alone decides, and every path computes the same canonical
results.

Scalars are coerced once, where they enter: the public ``Matrix`` and
``Subspace`` constructors coerce and check their input, while matrices
and subspaces built here from already canonical scalars go through
``_from_canonical`` (or ``_from_array``).  Off the array path, sums,
negation, scaling and the characteristic polynomial use Python operators
on raw scalars, reducing each entry mod p once over F_p.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from . import _kernels
from .errors import FieldMismatchError
from .poly import MultiPoly, UniPoly, uni_lcm


def _arrays_enabled(field):
    return field.is_prime_field and field.characteristic < _kernels.PRIME_LIMIT


class Matrix:
    """Immutable dense matrix over an exact field.

    A matrix holds its entries as row tuples of raw scalars, or, over a
    prime field with arrays enabled, as the read-only int64 array an
    operation produced; each form is built from the other at most once,
    when it is first asked for, and then kept.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "_array")

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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_entries", grid)
        object.__setattr__(self, "_array", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _from_canonical(cls, field, grid, cols):
        """A matrix over rows of canonical scalars, all of length cols,
        taken as they are: no coercion and no shape check."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", len(grid))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_entries", tuple(map(tuple, grid)))
        object.__setattr__(m, "_array", None)
        return m

    @classmethod
    def _from_array(cls, field, arr):
        """A matrix over a 2-d int64 array of residues mod p, which it
        keeps, made read-only; no copy and no reduction."""
        arr.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", arr.shape[0])
        object.__setattr__(m, "cols", arr.shape[1])
        object.__setattr__(m, "_entries", None)
        object.__setattr__(m, "_array", arr)
        return m

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._from_canonical(field, [(field.zero,) * cols] * rows, cols)

    @classmethod
    def identity(cls, field, d):
        z, o = field.zero, field.one
        grid = [[o if i == j else z for j in range(d)] for i in range(d)]
        return cls._from_canonical(field, grid, d)

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
        """Row tuples of raw scalars (Python ints over F_p)."""
        grid = self._entries
        if grid is None:
            grid = tuple(map(tuple, self._array.tolist()))
            object.__setattr__(self, "_entries", grid)
        return grid

    @property
    def is_zero(self):
        if self._array is not None:
            return not self._array.any()
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

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
        grid = [
            _canonical([a + b for a, b in zip(r1, r2)], p)
            for r1, r2 in zip(self.entries, other.entries)
        ]
        return Matrix._from_canonical(F, grid, self.cols)

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
        grid = [_canonical([-x for x in row], p) for row in self.entries]
        return Matrix._from_canonical(F, grid, self.cols)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        p = F.characteristic
        if _arrays_enabled(F):
            return Matrix._from_array(F, self.to_array() * c % p)
        grid = [_canonical([c * x for x in row], p) for row in self.entries]
        return Matrix._from_canonical(F, grid, self.cols)

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
        cols = list(zip(*other.entries))
        if p:
            grid = [[sum(map(mul, row, col)) % p for col in cols] for row in self.entries]
        else:
            cleared = [_cleared(col) for col in cols]
            grid = [
                [_fraction(sum(map(mul, num, cnum)), den * cden) for cnum, cden in cleared]
                for num, den in map(_cleared, self.entries)
            ]
        return Matrix._from_canonical(F, grid, other.cols)

    def mul_vec(self, v):
        F = self.field
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        p = F.characteristic
        if p:
            return tuple(sum(map(mul, row, v)) % p for row in self.entries)
        vnum, vden = _cleared(v)
        return tuple(
            _fraction(sum(map(mul, num, vnum)), den * vden)
            for num, den in map(_cleared, self.entries)
        )

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

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self._array is not None and other._array is not None:
            return np.array_equal(self._array, other._array)
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

    def __str__(self):
        if self.rows == 0:
            return "[[]]"
        F = self.field
        return "[" + ";".join("[" + ",".join(F.render(x) for x in row) + "]" for row in self.entries) + "]"

    def __repr__(self):
        return f"Matrix({self.field!r}, {self!s})"


def _submatrix(m, rows, cols):
    """The block of m on the given row and column indices."""
    if m._array is not None:
        return Matrix._from_array(m.field, m._array.take(rows, 0).take(cols, 1))
    grid = [[row[j] for j in cols] for row in map(m.entries.__getitem__, rows)]
    return Matrix._from_canonical(m.field, grid, len(cols))


_ZERO = Fraction(0)


def _canonical(xs, p):
    """Scalars computed with Python operators, made canonical: integers
    reduced mod p over F_p; over Q (p = 0) Fractions already are."""
    return [x % p for x in xs] if p else xs


def _fraction(n, d):
    """The canonical rational n/d, for integers n and d != 0."""
    return Fraction(n, d) if n else _ZERO


def _cleared(xs):
    """(numerators, den): rationals xs as integers over their least common
    denominator."""
    den = lcm(*(x.denominator for x in xs))
    if den == 1:
        return [x.numerator for x in xs], 1
    return [x.numerator * (den // x.denominator) for x in xs], den


def _primitive(row):
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


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
        rows, pivots = _integer_echelon([_cleared(row)[0] for row in m.entries])
        for r, c in enumerate(pivots):
            a = rows[r][c]
            rows[r] = [_fraction(x, a) for x in rows[r]]
        for r in range(len(pivots), len(rows)):
            rows[r] = [_ZERO] * m.cols
        return Matrix._from_canonical(F, rows, m.cols), pivots
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

    Equal subspaces always have identical bases, so equality is literal.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, vectors):
        vecs = [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
        self._span(field, ambient_dim, vecs)

    @classmethod
    def _from_canonical(cls, field, ambient_dim, vectors):
        """The span of a list of vectors of canonical scalars, all of
        length ambient_dim, taken as they are: no coercion and no length
        check."""
        sp = object.__new__(cls)
        sp._span(field, ambient_dim, vectors)
        return sp

    def _span(self, field, ambient_dim, vectors):
        if vectors:
            R, piv = rref(Matrix._from_canonical(field, vectors, ambient_dim))
            basis = R.entries[: len(piv)]
        else:
            basis, piv = (), []
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "pivots", tuple(piv))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field, ambient_dim):
        # the identity rows are their own reduced echelon form
        sp = object.__new__(cls)
        object.__setattr__(sp, "field", field)
        object.__setattr__(sp, "ambient_dim", ambient_dim)
        object.__setattr__(sp, "basis", Matrix.identity(field, ambient_dim).entries)
        object.__setattr__(sp, "pivots", tuple(range(ambient_dim)))
        return sp

    @property
    def dim(self):
        return len(self.basis)

    @property
    def is_zero(self):
        return not self.basis

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
        vectors = self.basis + other.basis
        return Subspace._from_canonical(self.field, self.ambient_dim, vectors)

    def __eq__(self, other):
        if isinstance(other, Subspace):
            return (
                self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


class Echelon:
    """Incremental echelon store over integer rows.

    Over F_p a stored row holds residues with pivot entry 1, and reducing
    a vector against it is one update (x - b*y) % p per entry.  Over Q a
    vector is cleared to integers once, a stored row is primitive, and
    each elimination is the fraction-free step a*w - b*row followed by
    division by the content, as in ``_integer_echelon``.  Row i has zeros
    at the pivots of the rows before it, so reducing against the rows in
    insertion order clears every pivot.

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
        """Try to add v.  Returns (added, combo): combo rewrites a dependent
        v over the previously added generators, as a dict from generator
        index to nonzero field scalar (only when tracking)."""
        F = self.field
        p = F.characteristic
        work = [F.coerce(x) for x in v]
        den = 1
        if not p:
            work, den = _cleared(work)
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


def kernel_basis(m):
    """Canonical basis of the right null space; dim = cols - rank."""
    F = m.field
    R, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    vectors = []
    for j in free:
        v = [F.zero] * m.cols
        v[j] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R.entries[i][j])
        vectors.append(v)
    return Subspace._from_canonical(F, m.cols, vectors)


def column_space(m):
    columns = [m.column(j) for j in range(m.cols)]
    return Subspace._from_canonical(m.field, m.rows, columns)


def charpoly(m):
    """det(xI - m), monic of degree dim, over any exact field.

    Similarity reduction to upper Hessenberg form, then the standard
    recurrence on characteristic polynomials of leading principal minors
    (Cohen, Algorithm 2.2.9).  Both run on raw scalars with Python
    operators, each entry reduced mod p once per update over F_p; the
    minors' polynomials are coefficient lists, and only the last becomes a
    ``UniPoly``.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    F = m.field
    p = F.characteristic
    d = m.rows
    h = [list(row) for row in m.entries]
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
        inv = F.inv(pivot_row[j])
        for i in range(j + 2, d):
            if not h[i][j]:
                continue
            f = h[i][j] * inv % p if p else h[i][j] * inv
            # row_i -= f * row_{j+1}, col_{j+1} += f * col_i: a similarity
            tail = [x - f * y for x, y in zip(h[i][j:], pivot_row[j:])]
            h[i][j:] = _canonical(tail, p)
            col = _canonical([r[j + 1] + f * r[i] for r in h], p)
            for r, x in zip(h, col):
                r[j + 1] = x
    # polys[k]: coefficients, lowest first, of the k-th leading minor's
    # characteristic polynomial
    polys = [[F.one]]
    for k in range(1, d + 1):
        prev = polys[k - 1]
        a = h[k - 1][k - 1]
        pk = [F.zero] + prev
        for e, c in enumerate(prev):
            pk[e] -= a * c
        prod = F.one
        for i in range(k - 1, 0, -1):
            prod = prod * h[i][i - 1] % p if p else prod * h[i][i - 1]
            coeff = h[i - 1][k - 1] * prod
            if coeff:
                for e, c in enumerate(polys[i - 1]):
                    pk[e] -= coeff * c
        polys.append(_canonical(pk, p))
    return UniPoly._from_canonical(F, polys[d])


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
