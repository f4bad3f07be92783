"""Dense exact linear algebra over ``QQ`` or ``GF(p)``.

Every matrix, over either field, is one integer form N/D: a read-only
numpy array N of integers over a positive integer D, built with the
matrix and made canonical in one place, ``Matrix._from_integers``, so
equal matrices have equal forms.  Over F_p, N holds residues in [0, p) of
dtype ``_kernels.dtype(p)`` (int64 for p below ``_kernels.PRIME_LIMIT``,
exact Python integers, dtype ``object``, above it) and D = 1.  Over Q, N
holds Python integers (dtype ``object``) with gcd(content(N), D) = 1.

N is 2-d for a matrix.  A stack of k matrices of one shape, such as the
n maps of a ``modules.CommutingTuple``, is one ``Matrix`` whose N has a
leading axis, (k, rows, cols), over one common D (``_stack_layers``);
``rows`` and ``cols`` are its last two axes, and ``@``, ``_submatrix``,
``transpose``, sums, ``block_diag``, ``==`` and ``_from_integers`` act on
the last two axes, broadcasting over the leading one, so one numpy call
does the work of k.  ``_layer(S, i)`` reads layer i back as a canonical
2-d matrix, and ``_layer_rows(S)`` the layers, one above the other, as
one matrix: for k = 1 the one layer, with no canonical step.  Where
a step needs only the numbers, ``_product`` multiplies two integer forms
(N, D) with no ``Matrix`` and no canonical step, and ``_first_difference``
compares two, layer by layer.

Sums, differences, negation, scaling, transposes, submatrices, stacking,
kernel rows, subspace reduction, equality and hashing are one code path
on N/D for both fields.  Submatrices and stacks of forms over D = 1,
which is every form over F_p, and ``identity`` and ``zeros`` are
canonical as they are built and skip the canonical step.  The field is
read only where the arithmetic differs:

* ``_from_integers``: reduction mod p, or division by gcd(content, D);
* ``entries``: Python ints, or ``Fraction``s, read off N/D when first
  asked for and kept;
* ``@`` and ``_product``: ``_kernels.matmul_mod`` over F_p, numpy's ``@``
  on the object arrays over Q;
* ``rref``: ``_kernels.rref_mod`` over F_p; over Q fraction-free
  Gauss-Jordan on primitive integer rows, each elimination a.row_i -
  b.row_r divided by its content;
* ``charpoly``: power sums tr(A^j) from about 2 sqrt(d) products of
  int64 residue arrays, then Newton's identities
  (``_kernels.charpoly_mod``), modulo M = p^e, e = 1 + v_p(d!), which
  is p when p > d, so that the identities' divisions by j = 1..d leave
  every coefficient right mod p; wherever d M^2 < 2^63, which keeps every
  int64 sum of the kernel below 2^63.  The Hessenberg recurrence on lists
  takes F_p past that bound: F_2 at d >= 32, F_3 at d >= 39, and primes
  from sqrt(2^63 / d) up (``_charpoly_residues`` holds this rule).
  Over Q, chi_{N/D}(x) = D^(-d) chi_N(D x), with chi_N from the power
  sums modulo the largest primes below ``_kernels.PRIME_LIMIT``, all in
  one batched call, combined by the Chinese remainder theorem once their
  product passes 2 max_k C(d, k) R^k, twice Hadamard's bound on the
  coefficients of chi_N for R the largest Euclidean row norm of N;
* the ``Matrix`` constructor, which builds N/D from rows of field scalars;
* ``Echelon``, the incremental store of vectors (integer forms N/D, flattened
  row by row): over F_p one fully reduced residue array, each insert one
  product in ``_kernels.echelon_insert_mod``; over Q primitive integer
  rows and fraction-free steps.
* ``eval_poly_at_matrix``: the terms c.A^e are summed as one integer
  form for both fields, and p is read only to reduce the sum mod p
  after every ``_kernels.terms(p)`` terms.

``Fraction``s appear only in ``entries`` and in results that are field
scalars.

Scalars are coerced where they enter: the ``Matrix`` constructor, which
``Subspace`` also uses, coerces and checks its rows, and matrices built
here from integer arrays go through ``_from_integers`` or ``_from_form``.
Only a literal with an expression entry (``parse._walk_matrix``) passes
rows of canonical scalars to the constructor, which coerces them again.
"""

from fractions import Fraction
from itertools import chain, zip_longest
from math import comb, gcd, isqrt, lcm, prod
from operator import matmul

import numpy as np

from . import _kernels
from .errors import FieldMismatchError
from .fields import Immutable, is_prime
from .poly import MultiPoly, UniPoly, _cleared, _power, _primitive


class Matrix(Immutable):
    """Immutable dense matrix over an exact field, held as N/D.

    N is a read-only numpy array of integers, 2-d, or 3-d for a stack of
    matrices, and D a positive integer, made canonical by
    ``_from_integers`` (see the module docstring), so equal matrices have
    equal forms.  ``entries``, the row tuples of raw field scalars, is the
    input rows where the matrix was built from rows, and otherwise is read
    off N/D when first asked for and kept.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "_num", "_den")

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
        p = field.characteristic
        if p:
            num, den = np.array(grid, dtype=_kernels.dtype(p)), 1
        else:
            # the numerators over the least common denominator: canonical
            nums, den = _cleared(list(chain.from_iterable(grid)))
            num = np.array(nums, dtype=object)
        _init(self, field, num.reshape(len(grid), width), den, grid)

    @classmethod
    def _from_integers(cls, field, num, den=1):
        """num/den for an integer array num, 2-d or a stack, and an integer
        den > 0, brought to the canonical form: over F_p (where den must
        be 1) residues of dtype ``_kernels.dtype(p)``, over Q Python
        integers with gcd(content(num), den) divided out."""
        p = field.characteristic
        if p:
            num = (num % p).astype(_kernels.dtype(p), copy=False)
        else:
            num, den = _reduced(num.astype(object, copy=False), den)
        return _init(object.__new__(cls), field, num, den)

    @classmethod
    def _from_form(cls, field, num, den=1):
        """A matrix over num/den already in its canonical form, kept as
        it is: no reduction and no copy."""
        return _init(object.__new__(cls), field, num, den)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._from_form(field, np.zeros((rows, cols), _dtype(field)))

    @classmethod
    def identity(cls, field, d):
        return cls._from_form(field, np.eye(d, dtype=_dtype(field)))

    @classmethod
    def companion(cls, q):
        """Companion matrix of a monic polynomial: maps e_i to e_{i+1} and
        e_d to minus the low coefficients."""
        if not q.is_monic or q.degree < 1:
            raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
        d = q.degree
        nums, den = _cleared([-c for c in q.coeffs[:d]])
        num = np.eye(d, k=-1, dtype=object) * den
        num[:, d - 1] = nums
        return cls._from_integers(q.field, num, den)

    @classmethod
    def block_diag(cls, field, blocks):
        """The square blocks down the diagonal, or, for stacks of one
        leading shape, the block sum of each layer."""
        if any(b.rows != b.cols or b.field != field for b in blocks):
            raise ValueError("block_diag needs square blocks over one field")
        den = lcm(*(b._den for b in blocks))
        size = sum(b.rows for b in blocks)
        lead = blocks[0]._num.shape[:-2] if blocks else ()
        num = np.zeros(lead + (size, size), object)
        off = 0
        for b in blocks:
            num[..., off : off + b.rows, off : off + b.rows] = b._num * (den // b._den)
            off += b.rows
        return cls._from_integers(field, num, den)

    # -- inspection --------------------------------------------------------

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def entries(self):
        """Row tuples of raw scalars (Python ints over F_p, Fractions over Q)."""
        grid = self._entries
        if grid is None:
            rows = self._num.tolist()
            if self.field.characteristic:
                grid = tuple(map(tuple, rows))
            else:
                den = self._den
                grid = tuple(tuple(_fraction(x, den) for x in row) for row in rows)
            object.__setattr__(self, "_entries", grid)
        return grid

    @property
    def is_zero(self):
        return not self._num.any()

    def to_integers(self):
        """(N, D): the canonical integer form, a read-only numpy array N of
        integers, 2-d or a stack, over the positive integer D, which is 1
        over F_p."""
        return self._num, self._den

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed fields {self.field} and {other.field}")

    def _combine(self, other, op):
        """op(self, other) for numpy's add or subtract, over the least
        common denominator."""
        self._check(other)
        if self._num.shape != other._num.shape:
            raise ValueError("shape mismatch")
        (a, da), (b, db) = self.to_integers(), other.to_integers()
        if da != db:
            den = lcm(da, db)
            a, b, da = a * (den // da), b * (den // db), den
        return Matrix._from_integers(self.field, op(a, b), da)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __neg__(self):
        return Matrix._from_integers(self.field, -self._num, self._den)

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix._from_integers(
            self.field, self._num * c.numerator, self._den * c.denominator
        )

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        F = self.field
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            lead = np.broadcast_shapes(self._num.shape[:-2], other._num.shape[:-2])
            return Matrix._from_form(F, np.zeros(lead + (self.rows, other.cols), _dtype(F)))
        # ``_product``, inlined: this is the hot path of every product
        p = F.characteristic
        if p:
            return Matrix._from_form(F, _kernels.matmul_mod(self._num, other._num, p))
        return Matrix._from_integers(F, self._num @ other._num, self._den * other._den)

    def pow(self, e):
        if not self.is_square:
            raise ValueError("matrix power needs a square matrix")
        return _power(self, e, lambda: Matrix.identity(self.field, self.rows), matmul)

    def transpose(self):
        return Matrix._from_form(self.field, self._num.swapaxes(-1, -2), self._den)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self._num.shape == other._num.shape
            and self._den == other._den
            and np.array_equal(self._num, other._num)
        )

    def __hash__(self):
        flat = tuple(self._num.ravel().tolist())
        return hash((self.field, self._num.shape, self._den, flat))

    def __str__(self):
        if self.rows == 0:
            return "[[]]"
        F = self.field
        return "[" + ";".join("[" + ",".join(F.render(x) for x in row) + "]" for row in self.entries) + "]"

    def __repr__(self):
        return f"Matrix({self.field!r}, {self!s})"


def _dtype(field):
    """The dtype of N in the canonical form over field."""
    p = field.characteristic
    return _kernels.dtype(p) if p else object


def _init(m, field, num, den, entries=None):
    """Fill the slots of a new matrix with its canonical form num/den,
    made read-only, and its entries if known; returns it."""
    num.setflags(write=False)
    rows, cols = num.shape[-2:]
    put = object.__setattr__
    put(m, "field", field)
    put(m, "rows", rows)
    put(m, "cols", cols)
    put(m, "_entries", entries)
    put(m, "_num", num)
    put(m, "_den", den)
    return m


def _reduced(num, den):
    """num/den with gcd(content(num), den) divided out: the canonical form
    of an array num of residues or integers over den, as den = 1 over
    F_p, and every integer form over 1 is canonical."""
    if den != 1:
        g = gcd(den, *num.flat)
        if g > 1:
            num, den = num // g, den // g
    return num, den


def _from_part(field, num, den):
    """The matrix num/den, for num an array of entries of canonical forms
    (residues over F_p) over den, brought to its canonical form by
    ``_reduced`` with no reduction mod p."""
    return Matrix._from_form(field, *_reduced(num, den))


def _product(field, x, y):
    """The product of two integer forms x = (N, D) and y, broadcast over
    their leading axes, as a form: residues over 1 over F_p, and N_x.N_y
    over D_x.D_y over Q, which ``_reduced`` brings to the canonical
    form."""
    (a, da), (b, db) = x, y
    p = field.characteristic
    if p:
        return _kernels.matmul_mod(a, b, p), 1
    return a @ b, da * db


def _first_difference(x, y):
    """The first index over the leading axes, in row-major order, at which
    the integer forms x = (N, D) and y, of one shape, differ as matrices
    over their last two axes, or None when they are equal: over F_p the
    residues, over Q N_x.D_y and N_y.D_x."""
    (a, da), (b, db) = x, y
    if da != db:
        a, b = a * db, b * da
    differ = (a != b).any(axis=(-2, -1))
    if not differ.any():
        return None
    return tuple(int(k) for k in np.unravel_index(differ.argmax(), differ.shape))


def _submatrix(m, rows, cols):
    """The block of m on the given row and column indices, of every layer
    of a stack."""
    return _from_part(m.field, m._num.take(rows, -2).take(cols, -1), m._den)


def _joined(mats, join):
    """join (numpy's concatenate or stack) of the numerators of the
    matrices, all of one shape but for their rows, over their least
    common denominator."""
    den = lcm(*(m._den for m in mats))
    num = join([m._num if m._den == den else m._num * (den // m._den) for m in mats])
    return _from_part(mats[0].field, num, den)


def _stack(mats):
    """The matrices, all with the same columns, one above the other."""
    return _joined(mats, np.concatenate)


def _stack_layers(mats):
    """The matrices, all of one shape, as the layers of one stack."""
    return _joined(mats, np.stack)


def _layer(s, i):
    """Layer i of a stack, as a canonical 2-d matrix."""
    return _from_part(s.field, s._num[i], s._den)


def _layer_rows(s):
    """The layers of a stack one above the other, as one matrix; the
    stack's canonical form is its own, as it holds the same entries."""
    num = s._num
    return Matrix._from_form(s.field, num.reshape(prod(num.shape[:-1]), s.cols), s._den)


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
    """Reduced row echelon form by exact Gauss-Jordan: on the residue
    array in ``_kernels.rref_mod`` over F_p, on primitive integer rows
    over Q.  Returns (R, pivots)."""
    F = m.field
    if not (m.rows and m.cols):
        return m, []
    p = F.characteristic
    if p:
        arr, pivots = _kernels.rref_mod(m._num, p)
        return Matrix._from_form(F, arr), list(pivots)
    rows, pivots = _integer_echelon(m._num.tolist())
    # row r of R is rows[r] over its pivot entry: one denominator for all
    den = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    for r, c in enumerate(pivots):
        s = den // rows[r][c]
        rows[r] = [s * x for x in rows[r]]
    return Matrix._from_integers(F, np.array(rows, dtype=object), den), pivots


class Subspace(Immutable):
    """A subspace of k^n held in canonical reduced-echelon form.

    ``matrix`` holds the basis as its rows, in the field's integer form;
    ``basis`` is its entries.  Equal subspaces always have identical
    bases, so equality is literal.
    """

    __slots__ = ("field", "ambient_dim", "matrix", "pivots")

    def __init__(self, field, ambient_dim, vectors):
        vecs = list(map(tuple, vectors))
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
        self._span(Matrix(field, vecs, cols=ambient_dim))

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

    def _residual(self, v):
        """v - v[pivots].B as a one-row matrix, for B the basis: a reduced
        echelon row is 1 at its own pivot and 0 at the others, so the
        coefficient of basis row i in v's component is v[pivot i]."""
        w = Matrix(self.field, [v], cols=self.ambient_dim)
        return w - _submatrix(w, [0], self.pivots) @ self.matrix

    def contains(self, v):
        return self._residual(v).is_zero

    def complement_coords(self):
        """Ambient coordinates not used as pivots; they index a complement."""
        pivset = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in pivset)

    def __eq__(self, other):
        # the basis matrix carries the field, and ambient_dim as its width
        if isinstance(other, Subspace):
            return self.matrix == other.matrix
        return NotImplemented

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


class Echelon:
    """Incremental echelon store: vectors enter one at a time, as an
    integer form N/D, such as a matrix's ``to_integers()``, flattened row
    by row, and those outside the span of the vectors added before are
    added.

    Over F_p the stored rows are one residue array, fully reduced: row i
    is 1 at its own pivot and 0 at every other pivot.  A vector w is
    reduced by one product, w - w[pivots].rows mod p, and a new row clears
    its pivot column from the stored rows with one outer product
    (``_kernels.echelon_insert_mod``).  The array grows with the rank, by
    doubling.  Over Q the stored rows are primitive integer lists, each
    with zeros at the pivots of the rows before it; a vector is reduced
    against them in insertion order by the fraction-free step a*w - b*row
    that clears the row's pivot column, then divided by its content, as
    in ``_integer_echelon``.

    With ``track`` a vector carries, after its ``width`` entries, the
    integer combination of the generators (the numerators of the vectors
    ``insert`` added) that it equals, the [A | I] trick: the k-th vector
    enters with k zeros and a 1 after its entries, so every row operation
    acts on the combination too.  A row stored earlier has zeros for the
    later generators.  The combination becomes field scalars only when
    ``insert`` reports a dependency; over F_p it is minus the tail, as the
    vector's own coefficient stays 1.
    """

    def __init__(self, field, width, track=False):
        self.field = field
        self.width = width
        self.track = track
        self.rank = 0
        p = field.characteristic
        if p:
            self._store = np.zeros((0, width), _kernels.dtype(p))
            self._pivots = np.zeros(width, np.intp)  # the rank is at most width
        else:
            self._rows = []
            self._pivots = []
            self._dens = []  # _dens[g]: the denominator of generator g

    def insert(self, num, den=1):
        """Try to add an integer form num/den, residues over F_p and any
        integers over Q, flattened row by row, as one vector.  Returns
        (added, combo): combo rewrites a dependent vector over the
        previously added generators, as a dict from generator index to
        nonzero field scalar (only when tracking)."""
        if self.field.characteristic:
            return self._insert_mod(num.ravel())
        return self._insert_rational(num.ravel().tolist(), den)

    def _insert_mod(self, v):
        p, width, r = self.field.characteristic, self.width, self.rank
        store = self._store
        if r == len(store):  # room for w as row r, and for its generator column
            cap = max(2 * r, 4)
            grown = np.zeros((cap, width + cap if self.track else width), store.dtype)
            grown[:r, : store.shape[1]] = store
            self._store = store = grown
        used = width + r + 1 if self.track else width
        w = np.zeros(used, store.dtype)
        w[:width] = v
        if self.track:
            w[-1] = 1
        lead, w = _kernels.echelon_insert_mod(store[:r, :used], self._pivots[:r], w, width, p)
        if lead is None:
            if not self.track:
                return False, None
            return False, {g: p - x for g, x in enumerate(w[width:-1].tolist()) if x}
        store[r, :used] = w
        self._pivots[r] = lead
        self.rank += 1
        return True, None

    def _insert_rational(self, work, den):
        if self.track:
            work += [0] * self.rank + [1]
        for row, c in zip(self._rows, self._pivots):
            b = work[c]
            if not b:
                continue
            # the fraction-free step a*w - b*row clears column c
            a = row[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            work = _primitive([a * x - b * y for x, y in zip_longest(work, row, fillvalue=0)])
        lead = next((j for j, x in enumerate(work[: self.width]) if x), None)
        if lead is None:
            if not self.track:
                return False, None
            # 0 = sum of combo[g] * generator g + s * the new vector
            combo, s = work[self.width : -1], work[-1]
            return False, {
                g: Fraction(-x * self._dens[g], s * den) for g, x in enumerate(combo) if x
            }
        self._rows.append(_primitive(work))
        self._pivots.append(lead)
        self._dens.append(den)
        self.rank += 1
        return True, None


def _kernel_rows(m):
    """(K, free): the rows of K are a basis of the right null space, read
    off one reduced echelon form by ``_echelon_kernel``, and free lists the
    non-pivot columns."""
    return _echelon_kernel(*rref(m))


def _echelon_kernel(R, pivots):
    """``_kernel_rows`` of any matrix with reduced echelon form R and
    pivot columns pivots.

    With R = N/D, free column j gives the kernel vector e_j minus column j
    of R at the pivots, so K is the identity on the free columns: a vector
    w of the null space is w[free].K.  Over Q, K is D e_j minus column j of
    N over the denominator D."""
    pivset = set(pivots)
    free = [j for j in range(R.cols) if j not in pivset]
    num, den = R.to_integers()
    K = np.zeros((len(free), R.cols), num.dtype)
    K[range(len(free)), free] = den
    K[:, pivots] = -num[: len(pivots), free].T
    return Matrix._from_integers(R.field, K, den), free


def kernel_basis(m):
    """Canonical basis of the right null space; dim = cols - rank."""
    return Subspace._row_space(_kernel_rows(m)[0])


# The CRT primes for charpoly over Q: the largest primes below
# ``_kernels.PRIME_LIMIT``, in descending order, found when first needed
# and kept.
_CRT_PRIMES = []


def _crt_prime(i):
    while len(_CRT_PRIMES) <= i:
        q = _CRT_PRIMES[-1] - 2 if _CRT_PRIMES else _kernels.PRIME_LIMIT - 1
        while not is_prime(q):
            q -= 2
        _CRT_PRIMES.append(q)
    return _CRT_PRIMES[i]


def _charpoly_residues(stack, primes):
    """Coefficient lists, lowest first, of det(xI - A) mod p for each
    layer A of a (k, d, d) stack of residues and its prime p in primes.

    This is the one rule for which algorithm runs.  The power sums of
    ``_kernels.charpoly_mod`` run wherever d M^2 < 2^63 for every p and
    M = ``_kernels.newton_modulus(p, d)``, the modulus p^e, e = 1 +
    v_p(d!), in which the kernel divides by j = 1..d: its int64 sums then
    stay below 2^63, and residues of ``object`` stacks, below M, are cast
    to int64.  That is every prime over Q, F_p for d < p < sqrt(2^63 / d),
    and F_2 up to d = 31, F_3 up to 38, F_5 up to 49 and
    F_97 up to 387.  The Hessenberg recurrence of ``_charpoly_mod`` on
    lists runs past that bound.
    """
    d = stack.shape[1]
    if d * max(_kernels.newton_modulus(p, d) for p in primes) ** 2 < _kernels.INT64_BOUND:
        return _kernels.charpoly_mod(stack.astype(np.int64, copy=False), primes)
    return [_charpoly_mod(a.tolist(), p) for a, p in zip(stack, primes)]


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
    """Coefficients, lowest first, of det(xI - N) for a square integer
    array N, from its residues modulo the CRT primes, all in one
    ``_charpoly_residues`` call.

    The coefficient of x^(d-k) is a signed sum of C(d, k) principal k x k
    minors, each at most R^k by Hadamard's inequality for R the largest
    Euclidean row norm of N; once the product M of the primes passes
    twice the largest such bound, the residues in (-M/2, M/2) are the
    coefficients.
    """
    d = len(num)
    r2 = max((sum(x * x for x in row) for row in num.tolist()), default=0)
    r = isqrt(r2)
    r += r * r < r2  # the least integer >= R
    bound = 2 * max(comb(d, k) * r**k for k in range(d + 1))
    primes, modulus = [], 1
    while modulus <= bound:
        q = _crt_prime(len(primes))
        primes.append(q)
        modulus *= q
    residues = num % np.array(primes, object)[:, None, None]
    coeffs, modulus = None, 1
    for q, res in zip(primes, _charpoly_residues(residues, primes)):
        if coeffs is None:
            coeffs = res
        else:
            # Garner: the integer = coeffs mod modulus and = res mod q
            inv = pow(modulus, -1, q)
            coeffs = [x + modulus * ((y - x) * inv % q) for x, y in zip(coeffs, res)]
        modulus *= q
    half = modulus // 2
    return [x - modulus if x > half else x for x in coeffs]


def charpoly(m):
    """det(xI - m), monic of degree dim, over any exact field.

    Over F_p the residue array goes to ``_charpoly_residues`` as it is:
    wherever d M^2 < 2^63 for M = p^e, e = 1 + v_p(d!), the power sums
    tr(A^j) of about 2 sqrt(d) int64 products mod M and Newton's
    identities, whose divisions by j = 1..d leave every coefficient right
    mod p (``_kernels.charpoly_mod``); the Hessenberg recurrence of
    ``_charpoly_mod`` on lists past that bound.
    Over Q, with m = N/D in its integer form, chi_m(x) = D^(-d) chi_N(D x),
    so the coefficient of x^k is c_k / D^(d-k) for c_k those of
    ``_charpoly_integer(N)``, which runs the power sums modulo the largest
    primes below ``_kernels.PRIME_LIMIT``, all in one call; only the d + 1
    result coefficients become Fractions.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    F = m.field
    p = F.characteristic
    num, den = m.to_integers()
    if p:
        return UniPoly._from_canonical(F, _charpoly_residues(num[None], [p])[0])
    d = m.rows
    coeffs = _charpoly_integer(num)
    return UniPoly._from_canonical(
        F, [_fraction(c, den ** (d - k)) for k, c in enumerate(coeffs)]
    )


def minimal_polynomial(m):
    """Monic least-degree q with q(m) = 0, from one Krylov run: I, m, m^2,
    .. enter one tracking ``Echelon`` of width d^2, and the first power
    m^k that depends on those before it gives q = t^k minus its
    combination of them."""
    if not m.is_square:
        raise ValueError("minimal polynomial needs a square matrix")
    F = m.field
    ech = Echelon(F, m.rows * m.cols, track=True)
    power = Matrix.identity(F, m.rows)
    while True:
        added, combo = ech.insert(*power.to_integers())
        if not added:
            coeffs = [-combo.get(j, F.zero) for j in range(ech.rank)]
            return UniPoly(F, coeffs + [F.one])
        power = power @ m


def eval_poly_at_matrix(q, ms):
    """Evaluate a polynomial at square matrices (t_i -> ms[i]) as a sum of
    products of cached powers, each scaled by its term's coefficient.

    The sum is one integer form num/den, for both fields: each term
    c.N/D, c = a/b, adds a.N times den/(b.D) after den becomes the least
    common multiple of den and b.D (over F_p both stay 1), and the
    constant term adds to the diagonal.  ``_from_integers`` brings the
    sum to its canonical form once, at the end.  Over F_p each term adds
    less than (p - 1)^2 to an entry, so the sum is also reduced mod p
    after every ``_kernels.terms(p)`` terms, which keeps int64 entries
    below 2^63.

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
    p = F.characteristic
    every = max(1, _kernels.terms(p)) if p else 0
    powers = [[None, m] for m in ms]
    num, den = np.zeros((d, d), _dtype(F)), 1
    for k, (exps, c) in enumerate(terms, 1):
        term = None
        for i, e in enumerate(exps):
            if e:
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] @ ms[i])
                term = cache[e] if term is None else term @ cache[e]
        a, b = c.numerator, c.denominator * (1 if term is None else term._den)
        if b != den:
            common = lcm(den, b)
            num, den, a = num * (common // den), common, a * (common // b)
        if term is None:
            num.flat[:: d + 1] += a
        else:
            num += a * term._num
        if every and not k % every:
            num %= p
    return Matrix._from_integers(F, num, den)
