"""Dense exact linear algebra over ``QQ`` or ``GF(p)``.

Matrices are immutable row-major grids of raw field scalars.  Over prime
fields small enough for int64 arithmetic, multiplication and row
reduction dispatch to the array kernels in :mod:`endok._kernels`; over Q
and larger primes they run through the generic exact loops below.  The
field alone decides, and both paths compute identical canonical results.
"""

import numpy as np

from . import _kernels
from .errors import FieldMismatchError
from .poly import MultiPoly, UniPoly, uni_lcm


def _arrays_enabled(field):
    return field.is_prime_field and field.characteristic < _kernels.PRIME_LIMIT


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries")

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
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field, d):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(d)] for i in range(d)])

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
    def is_zero(self):
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def to_array(self):
        return np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)

    @classmethod
    def _from_array(cls, field, arr):
        return cls(field, arr.tolist(), cols=arr.shape[1])

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields {self.field} and {other.field}")

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        F = self.field
        return Matrix(
            F,
            [
                [F.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return Matrix(F, [[F.neg(x) for x in row] for row in self.entries], cols=self.cols)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return Matrix(F, [[F.mul(c, x) for x in row] for row in self.entries], cols=self.cols)

    def __rmul__(self, c):
        return self.scale(c)

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        F = self.field
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(F, self.rows, other.cols)
        if _arrays_enabled(F):
            out = _kernels.matmul_mod(self.to_array(), other.to_array(), F.characteristic)
            return Matrix._from_array(F, out)
        bt = list(zip(*other.entries))
        grid = []
        for row in self.entries:
            out_row = []
            for col in bt:
                acc = F.zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = F.add(acc, F.mul(a, b))
                out_row.append(acc)
            grid.append(out_row)
        return Matrix(F, grid, cols=other.cols)

    def mul_vec(self, v):
        F = self.field
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = F.zero
            for a, b in zip(row, v):
                if a and b:
                    acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return tuple(out)

    def pow(self, e):
        if not self.is_square:
            raise ValueError("matrix power needs a square matrix")
        if e < 0:
            raise ValueError("negative exponent")
        out = Matrix.identity(self.field, self.rows)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base = base @ base
            e >>= 1
        return out

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return (
                self.field == other.field
                and self.cols == other.cols
                and self.entries == other.entries
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

    def __str__(self):
        if self.rows == 0:
            return "[[]]"
        F = self.field
        return "[" + ";".join("[" + ",".join(F.render(x) for x in row) + "]" for row in self.entries) + "]"

    def __repr__(self):
        return f"Matrix({self.field!r}, {self!s})"


def rref(m):
    """Reduced row echelon form by exact Gauss-Jordan.

    Returns (R, pivots); R is canonical whichever implementation runs.
    """
    F = m.field
    if m.rows and m.cols and _arrays_enabled(F):
        arr, pivots = _kernels.rref_mod(m.to_array(), F.characteristic)
        return Matrix._from_array(F, arr), list(pivots)
    grid = [list(row) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == len(grid):
            break
        piv = None
        for i in range(r, len(grid)):
            if grid[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            grid[r], grid[piv] = grid[piv], grid[r]
        inv = F.inv(grid[r][c])
        grid[r] = [F.mul(inv, x) for x in grid[r]]
        for i in range(len(grid)):
            if i != r and grid[i][c]:
                f = grid[i][c]
                grid[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
    return Matrix(F, grid, cols=m.cols), pivots


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
        if vecs:
            R, piv = rref(Matrix(field, vecs, cols=ambient_dim))
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
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).entries)

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
        return Subspace(self.field, self.ambient_dim, self.basis + other.basis)

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
    """Incremental echelon store; optionally tracks how each stored row was
    built from the inserted generators, so a dependent vector can be
    rewritten over them."""

    def __init__(self, field, width, track=False):
        self.field = field
        self.width = width
        self.track = track
        self.rows = []
        self.pivots = []
        self.combos = []  # combos[i]: dict gen_index -> coeff with rows[i] = sum
        self.gens = 0

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, v):
        """Try to add v.  Returns (added, combo): combo rewrites a dependent
        v over the previously added generators (only when tracking)."""
        F = self.field
        work = [F.coerce(x) for x in v]
        combo = {} if self.track else None
        for row, p, rc in zip(self.rows, self.pivots, self.combos or self.rows):
            c = work[p]
            if c:
                work = [F.sub(x, F.mul(c, y)) for x, y in zip(work, row)]
                if self.track:
                    for g, coeff in rc.items():
                        val = F.add(combo.get(g, F.zero), F.mul(c, coeff))
                        if val:
                            combo[g] = val
                        elif g in combo:
                            del combo[g]
        lead = None
        for j, x in enumerate(work):
            if x:
                lead = j
                break
        if lead is None:
            return False, combo
        inv = F.inv(work[lead])
        row = tuple(F.mul(inv, x) for x in work)
        if self.track:
            rc = {g: F.mul(inv, F.neg(c)) for g, c in combo.items()}
            rc[self.gens] = inv
            self.combos.append(rc)
        self.rows.append(row)
        self.pivots.append(lead)
        self.gens += 1
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
    return Subspace(F, m.cols, vectors)


def column_space(m):
    return Subspace(m.field, m.rows, [m.column(j) for j in range(m.cols)])


def charpoly(m):
    """det(xI - m), monic of degree dim, over any exact field.

    Similarity reduction to upper Hessenberg form, then the standard
    recurrence on characteristic polynomials of leading principal minors
    (Cohen, Algorithm 2.2.9).
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    F = m.field
    d = m.rows
    if d == 0:
        return UniPoly.one(F)
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
        inv = F.inv(h[j + 1][j])
        for i in range(j + 2, d):
            if not h[i][j]:
                continue
            f = F.mul(h[i][j], inv)
            # row_i -= f * row_{j+1}, col_{j+1} += f * col_i: a similarity
            for c in range(j, d):
                h[i][c] = F.sub(h[i][c], F.mul(f, h[j + 1][c]))
            for r in range(d):
                h[r][j + 1] = F.add(h[r][j + 1], F.mul(f, h[r][i]))
    x = UniPoly.gen(F)
    polys = [UniPoly.one(F)]
    for k in range(1, d + 1):
        pk = (x - UniPoly.constant(F, h[k - 1][k - 1])) * polys[k - 1]
        prod = F.one
        for i in range(k - 1, 0, -1):
            prod = F.mul(prod, h[i][i - 1])
            coeff = F.mul(h[i - 1][k - 1], prod)
            if coeff:
                pk = pk - polys[i - 1].scale(coeff)
        polys.append(pk)
    return polys[d]


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
        q = MultiPoly.from_unipoly(q)
    if not isinstance(q, MultiPoly):
        raise TypeError(f"expected UniPoly or MultiPoly, got {q!r}")
    if len(ms) != q.nvars:
        raise ValueError(f"{q.nvars} variables but {len(ms)} matrices")
    if q.field != F:
        raise FieldMismatchError("polynomial and matrix fields differ")
    ident = Matrix.identity(F, d)
    powers = [[ident] for _ in ms]
    acc = Matrix.zeros(F, d, d)
    for exps, c in q.terms:
        term = ident
        for i, e in enumerate(exps):
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] @ ms[i])
            if e:
                term = cache[e] if term is ident else term @ cache[e]
        acc = acc + term.scale(c)
    return acc
