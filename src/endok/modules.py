"""Commuting matrix tuples as finite-dimensional k[t1..tn]-modules.

A ``CommutingTuple`` is a vector space k^d with n pairwise-commuting
endomorphisms.  This module provides the structural operations on them:
invariant submodules with restriction and quotient, the annihilator ideal
(kernel of evaluating polynomials at the tuple, as a reduced Groebner
basis with its standard monomials), the radical submodule and filtration,
and the splitting into local pieces supported at single maximal ideals.
"""

import heapq
import random
import weakref
from collections import deque

from .errors import FieldMismatchError, NonCommutingError
from .factor import DEFAULT_SEED, factor_univariate
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    _submatrix,
    charpoly,
    column_space,
    eval_poly_at_matrix,
    kernel_basis,
    minimal_polynomial,
    rref,
)
from .poly import MultiPoly, grlex_key, mono_divides, normal_form, squarefree_part


class Ideal:
    """A zero-dimensional ideal of k[t1..tn], held as a reduced Groebner
    basis in the global graded-lex order, together with the standard
    monomials (a basis of the finite-dimensional quotient).

    Generators are stored monic, sorted descending by leading monomial;
    equality of ideals is literal equality of these canonical tuples.
    """

    __slots__ = ("field", "nvars", "gens", "standard_monomials")

    def __init__(self, field, nvars, gens, standard_monomials):
        gens = tuple(
            sorted(gens, key=lambda g: grlex_key(g.leading_monomial), reverse=True)
        )
        for g in gens:
            if g.field != field or g.nvars != nvars:
                raise FieldMismatchError("generator field/arity mismatch")
            if g.is_zero:
                raise ValueError("zero generator")
            if g.leading_coeff != field.one:
                raise ValueError("generators must be monic")
        std = tuple(sorted((tuple(m) for m in standard_monomials), key=grlex_key))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "standard_monomials", std)

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    @classmethod
    def from_groebner_basis(cls, field, nvars, gens):
        """Rebuild an ideal from a reduced Groebner basis alone, recovering
        the standard monomials as the complement of the leading-term
        monoid (requires zero-dimensionality: every variable must occur as
        a pure power among the leading monomials)."""
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        leads = [g.leading_monomial for g in gens]
        for i in range(nvars):
            if not any(
                lm[i] and all(e == 0 for j, e in enumerate(lm) if j != i)
                for lm in leads
            ):
                raise ValueError(
                    f"not zero-dimensional: no pure power of t{i + 1} among "
                    "the leading monomials"
                )
        std = []
        seen = set()
        queue = deque([(0,) * nvars])
        seen.add((0,) * nvars)
        while queue:
            m = queue.popleft()
            if any(mono_divides(lm, m) for lm in leads):
                continue
            std.append(m)
            for i in range(nvars):
                child = tuple(e + 1 if j == i else e for j, e in enumerate(m))
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return cls(field, nvars, gens, std)

    @property
    def quotient_dim(self):
        return len(self.standard_monomials)

    @property
    def is_unit(self):
        return self.quotient_dim == 0

    def normal_form(self, p):
        return normal_form(p, list(self.gens))

    def contains(self, p):
        return self.normal_form(p).is_zero

    def generator_strings(self):
        return tuple(str(g) for g in self.gens)

    def __eq__(self, other):
        if isinstance(other, Ideal):
            return (
                self.field == other.field
                and self.nvars == other.nvars
                and self.gens == other.gens
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.nvars, self.gens))

    def __repr__(self):
        return f"Ideal({', '.join(self.generator_strings())})"


def multiplication_matrix(ideal, p):
    """Matrix of multiplication by p on k[T]/I over the standard-monomial
    basis.  Normal forms against a reduced Groebner basis are supported on
    standard monomials, so columns read off directly."""
    std = ideal.standard_monomials
    index = {m: i for i, m in enumerate(std)}
    F = ideal.field
    cols = []
    for m in std:
        mono = MultiPoly(F, ideal.nvars, {m: F.one})
        r = ideal.normal_form(p * mono)
        col = [F.zero] * len(std)
        for e, c in r.terms:
            col[index[e]] = c
        cols.append(col)
    grid = [[cols[j][i] for j in range(len(std))] for i in range(len(std))]
    return Matrix(F, grid, cols=len(std))


SEPARATING_ATTEMPTS = 25  # random probes of each kind for a separating element
EXHAUSTIVE_BOUND = 4096  # quotient_is_field enumerates k[T]/I when p^dim <= this


def _candidates(ideal, rng):
    """Seeded elements of k[T]/I to probe: the variables, then random
    linear combinations of them, then random elements over the standard
    monomials."""
    F, n = ideal.field, ideal.nvars
    units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    for i in range(n):
        yield MultiPoly.variable(F, n, i)
    for _ in range(SEPARATING_ATTEMPTS):
        yield MultiPoly(F, n, {u: F.random_scalar(rng) for u in units})
    for _ in range(SEPARATING_ATTEMPTS):
        yield MultiPoly(
            F, n, {m: F.random_scalar(rng) for m in ideal.standard_monomials}
        )


def _separating_element(ideal, rng):
    """For a reduced A = k[T]/I (a product of finite field extensions),
    find g in A that settles whether A is a field.

    Returns (g, factors), factors being the factored characteristic
    polynomial of multiplication by g: one irreducible factor of degree
    dim A makes A = k[g] a field, two or more distinct ones split A into
    the generalised eigenspaces of g.  None when no candidate settles it.
    """
    k = ideal.quotient_dim
    for g in _candidates(ideal, rng):
        factors = factor_univariate(charpoly(multiplication_matrix(ideal, g)), rng)
        if len(factors) >= 2 or factors[0][0].degree == k:
            return g, factors
    return None


def quotient_is_field(ideal, rng=None):
    """Decide whether k[T]/I is a field (i.e. I is maximal).

    Strategy: the quotient is reduced iff every variable's multiplication
    matrix has squarefree minimal polynomial (both fields are perfect).
    A reduced quotient is then settled by a separating element.  Over a
    small prime field, fall back to exhaustively checking that every
    nonzero element is invertible.  This is the slow independent check;
    production code builds keys constructively and never calls it.
    """
    from itertools import product as _product

    if rng is None:
        rng = random.Random(DEFAULT_SEED)
    k = ideal.quotient_dim
    if k == 0:
        return False  # unit ideal: the zero ring
    F = ideal.field
    n = ideal.nvars
    for i in range(n):
        mp = minimal_polynomial(
            multiplication_matrix(ideal, MultiPoly.variable(F, n, i))
        )
        if squarefree_part(mp) != mp:
            return False  # t_i has a nonzero nilpotent part
    found = _separating_element(ideal, rng)
    if found is not None:
        return len(found[1]) == 1
    if F.is_prime_field and F.characteristic**k <= EXHAUSTIVE_BOUND:
        p = F.characteristic
        std = ideal.standard_monomials
        for coeffs in _product(range(p), repeat=k):
            if not any(coeffs):
                continue
            elem = MultiPoly(F, n, dict(zip(std, coeffs)))
            _, piv = rref(multiplication_matrix(ideal, elem))
            if len(piv) < k:
                return False
        return True
    raise RuntimeError("could not certify the quotient either way")


class MaximalIdealKey:
    """Canonical tag of a maximal ideal of k[t1..tn]: its reduced Groebner
    basis plus the residue field degree dim_k k[T]/M."""

    __slots__ = ("ideal", "residue_degree", "__weakref__")

    def __init__(self, ideal, residue_degree):
        if residue_degree != ideal.quotient_dim:
            raise ValueError("residue degree must equal the quotient dimension")
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "residue_degree", residue_degree)

    def __setattr__(self, name, value):
        raise AttributeError("MaximalIdealKey is immutable")

    def sort_key(self):
        return (self.residue_degree, self.ideal.generator_strings())

    def __eq__(self, other):
        if isinstance(other, MaximalIdealKey):
            return self.ideal == other.ideal
        return NotImplemented

    def __hash__(self):
        return hash(self.ideal)

    def __repr__(self):
        return f"MaximalIdealKey([{', '.join(self.ideal.generator_strings())}])"


# The live keys CommutingTuple._key and ktheory.principal_maximal_key have
# returned, by ideal.  Every piece at one maximal ideal then shares one key
# object, so the classes a caller keeps hold each Groebner basis once
# instead of once per class.
_KEYS = weakref.WeakValueDictionary()


class InvariantSubmodule:
    """A subspace closed under every matrix of a commuting tuple."""

    __slots__ = ("parent_dim", "space")

    def __init__(self, t, space):
        if space.field != t.field or space.ambient_dim != t.dim:
            raise ValueError("subspace does not live in the module's space")
        t._submodule_maps(space)
        object.__setattr__(self, "parent_dim", t.dim)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantSubmodule is immutable")

    @classmethod
    def _checked(cls, parent_dim, space):
        """A submodule whose invariance the caller has already checked."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent_dim", parent_dim)
        object.__setattr__(sub, "space", space)
        return sub

    @property
    def dim(self):
        return self.space.dim

    def __eq__(self, other):
        if isinstance(other, InvariantSubmodule):
            return self.parent_dim == other.parent_dim and self.space == other.space
        return NotImplemented

    def __hash__(self):
        return hash((self.parent_dim, self.space))

    def __repr__(self):
        return f"InvariantSubmodule(dim {self.dim} of k^{self.parent_dim})"


class CommutingTuple:
    """n pairwise-commuting d x d matrices over an exact field.

    Commutation is checked at construction; a failing pair is reported
    with its indices.
    """

    __slots__ = ("field", "nvars", "dim", "mats")

    def __init__(self, field, nvars, dim, mats):
        mats = tuple(mats)
        if nvars < 1:
            raise ValueError("need at least one endomorphism")
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(mats) != nvars:
            raise ValueError(f"expected {nvars} matrices, got {len(mats)}")
        for k, m in enumerate(mats):
            if not isinstance(m, Matrix):
                raise TypeError(f"matrix {k} is not a Matrix")
            if m.field != field:
                raise FieldMismatchError(f"matrix {k} is over {m.field}, not {field}")
            if m.rows != dim or m.cols != dim:
                raise ValueError(
                    f"matrix {k} is {m.rows}x{m.cols}, expected {dim}x{dim}"
                )
        for i in range(nvars):
            for j in range(i + 1, nvars):
                if mats[i] @ mats[j] != mats[j] @ mats[i]:
                    raise NonCommutingError(i, j)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "mats", mats)

    def __setattr__(self, name, value):
        raise AttributeError("CommutingTuple is immutable")

    @classmethod
    def zeros(cls, field, nvars, dim):
        return cls(field, nvars, dim, [Matrix.zeros(field, dim, dim)] * nvars)

    @classmethod
    def direct_sum(cls, *tuples):
        if not tuples:
            raise ValueError("need at least one summand")
        field, nvars = tuples[0].field, tuples[0].nvars
        for t in tuples:
            if t.field != field or t.nvars != nvars:
                raise FieldMismatchError("summands must share field and arity")
        mats = [
            Matrix.block_diag(field, [t.mats[i] for t in tuples])
            for i in range(nvars)
        ]
        return cls(field, nvars, sum(t.dim for t in tuples), mats)

    def __eq__(self, other):
        if isinstance(other, CommutingTuple):
            return (
                self.field == other.field
                and self.nvars == other.nvars
                and self.mats == other.mats
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.nvars, self.mats))

    def __repr__(self):
        return f"CommutingTuple(n={self.nvars}, dim={self.dim} over {self.field!r})"

    # -- submodules ----------------------------------------------------------

    def _as_space(self, s):
        if isinstance(s, InvariantSubmodule):
            if s.parent_dim != self.dim:
                raise ValueError("submodule belongs to a different module")
            return s.space
        if isinstance(s, Subspace):
            return s
        raise TypeError(f"expected InvariantSubmodule or Subspace, got {s!r}")

    def generated_submodule(self, vectors):
        """Smallest invariant subspace containing the vectors."""
        F = self.field
        vectors = [tuple(F.coerce(x) for x in v) for v in vectors]
        basis = self._close(Echelon(F, self.dim), vectors)
        space = Subspace._from_canonical(F, self.dim, basis)
        return InvariantSubmodule(self, space)

    def _close(self, ech, vectors):
        """Insert canonical vectors into ech and close its span under every
        matrix, breadth-first; returns the vectors it added, which span
        the new part of the closure."""
        added = [v for v in vectors if ech.insert(v)[0]]
        queue = deque(added)
        while queue:
            v = queue.popleft()
            for m in self.mats:
                w = m.mul_vec(v)
                if ech.insert(w)[0]:
                    added.append(w)
                    queue.append(w)
        return added

    def _generators(self):
        """Indices j of identity columns e_j that generate V as a
        k[T]-module: e_j is taken when it is outside the closure of the
        columns taken before it."""
        F, d = self.field, self.dim
        ech = Echelon(F, d)
        taken = []
        for j in range(d):
            if ech.rank == d:
                break
            e = (F.zero,) * j + (F.one,) + (F.zero,) * (d - j - 1)
            if self._close(ech, [e]):
                taken.append(j)
        return taken

    def _submodule_maps(self, sp):
        """(B, [R_k]) for an echelon subspace, B its basis as columns and R_k
        the pivot rows of f_k.B.  As w is in the span iff w = sum w[p_i].b_i,
        B.R_k == f_k.B is exactly invariance under f_k; a failure raises."""
        F = self.field
        grid = [[b[i] for b in sp.basis] for i in range(self.dim)]
        B = Matrix._from_canonical(F, grid, sp.dim)
        rs = []
        for k, m in enumerate(self.mats):
            fb = m @ B
            r = _submatrix(fb, sp.pivots, range(sp.dim))
            if B @ r != fb:
                raise ValueError(f"subspace is not invariant under matrix {k}")
            rs.append(r)
        return B, rs

    def restrict(self, s):
        """The induced tuple on an invariant subspace, in its echelon basis."""
        sp = self._as_space(s)
        _, rs = self._submodule_maps(sp)
        return CommutingTuple(self.field, self.nvars, sp.dim, rs)

    def quotient(self, s):
        """The induced tuple on V/s over the complement basis indexed by the
        non-pivot coordinates comp: M acts as M[comp, comp] -
        B[comp, :].M[pivots, comp], with B the submodule's echelon basis."""
        sp = self._as_space(s)
        B, _ = self._submodule_maps(sp)
        comp = sp.complement_coords()
        bc = _submatrix(B, comp, range(sp.dim))
        mats = [
            _submatrix(m, comp, comp) - bc @ _submatrix(m, sp.pivots, comp)
            for m in self.mats
        ]
        return CommutingTuple(self.field, self.nvars, len(comp), mats)

    # -- annihilator ideal -----------------------------------------------------

    def annihilator_ideal(self):
        """Kernel of evaluation k[t1..tn] -> k[f1..fn], as a reduced
        Groebner basis plus the standard monomials.

        It is the annihilator of the identity columns that generate V as
        a k[T]-module (``_generators``): p(f) kills every vector once it
        kills the generators, as p(f) commutes with each f_i.  The reduced
        basis is unique, so starting from d x c instead of d x d changes
        the width of the search from d^2 to d*c and nothing else.
        """
        F, d = self.field, self.dim
        cols = self._generators()
        grid = [[F.one if i == j else F.zero for j in cols] for i in range(d)]
        return self._annihilator(Matrix._from_canonical(F, grid, len(cols)))

    def _annihilator(self, start):
        """The ideal of all p with p(f).start = 0, for a d x c matrix start.

        Buchberger-Moller, breadth-first over monomials in increasing
        graded-lex order: monomial m maps to f^m.start, whose d*c flattened
        entries are reduced against those of the standard monomials in a
        tracking ``Echelon`` (integer rows); a dependency yields a
        generator, m minus its combination of standard monomials (and m is
        not expanded), independence makes m standard and enqueues its
        variable multiples.  Terminates because the standard count is at
        most d*c.
        """
        F, n = self.field, self.nvars
        ech = Echelon(F, start.rows * start.cols, track=True)
        std = []
        std_mats = {}
        gens = []
        leads = []
        origin = (0,) * n
        heap = [(grlex_key(origin), origin)]
        seen = {origin}
        while heap:
            _, m = heapq.heappop(heap)
            if any(mono_divides(lm, m) for lm in leads):
                continue
            if m == origin:
                mat = start
            else:
                mat = None
                for i in range(n):
                    if m[i]:
                        parent = tuple(e - 1 if j == i else e for j, e in enumerate(m))
                        if parent in std_mats:
                            mat = self.mats[i] @ std_mats[parent]
                            break
                if mat is None:
                    raise RuntimeError(f"no standard parent for monomial {m}")
            vec = [x for row in mat.entries for x in row]
            added, combo = ech.insert(vec)
            if added:
                std_mats[m] = mat
                std.append(m)
                for i in range(n):
                    child = tuple(e + 1 if j == i else e for j, e in enumerate(m))
                    if child not in seen:
                        seen.add(child)
                        heapq.heappush(heap, (grlex_key(child), child))
            else:
                terms = {m: F.one}
                for g, c in combo.items():
                    terms[std[g]] = F.neg(c)
                gens.append(MultiPoly(F, n, terms))
                leads.append(m)
        return Ideal(F, n, gens, std)

    # -- radical and filtration --------------------------------------------

    def radical_submodule(self):
        """The subspace Jac(R).V for R = k[T]/Ann(V): the sum of the images
        of s_i(f_i) with s_i the squarefree part of f_i's characteristic
        polynomial (Seidenberg; needs a perfect field, which both supported
        fields are)."""
        images = []
        for m in self.mats:
            q = squarefree_part(charpoly(m))
            images += column_space(eval_poly_at_matrix(q, [m])).basis
        space = Subspace._from_canonical(self.field, self.dim, images)
        return InvariantSubmodule(self, space)

    def semisimplify(self):
        """The semisimple quotient V/(Jac.V)."""
        return self.quotient(self.radical_submodule())

    def radical_filtration(self):
        """Layers (rad^j V)/(rad^{j+1} V), top down; each is semisimple and
        the dimensions add up to dim V."""
        layers = []
        cur = self
        while cur.dim > 0:
            r = cur.radical_submodule()
            layers.append(cur.quotient(r))
            if r.dim == 0:
                break
            cur = cur.restrict(r)
        return layers

    # -- primary decomposition ------------------------------------------------

    def _local_pieces(self, rng=None):
        """Split V into local pieces; returns [(submodule, piece, key)]
        sorted by the canonical key order.

        A work item is (subspace, restricted tuple, qs), where qs maps
        each generator already known to be primary on the item to the
        irreducible q_i of its characteristic polynomial; restriction to an
        invariant subspace keeps it primary, so each generator is factored
        once per lineage.  The first generator whose characteristic
        polynomial has two distinct factors splits the item into
        generalised eigenspaces.  An item on which every generator is
        primary goes to ``_key``, which keys it by the annihilator of one
        socle vector and either certifies it local or names an element g
        whose g(f) splits it further.
        """
        if rng is None:
            rng = random.Random(DEFAULT_SEED)
        F, n, d = self.field, self.nvars, self.dim
        if d == 0:
            return []
        work = [(Subspace.full(F, d), self, {})]
        out = []
        while work:
            sp, t, qs = work.pop()
            split = None
            for i in range(n):
                if i in qs:
                    continue
                factors = factor_univariate(charpoly(t.mats[i]), rng)
                if len(factors) >= 2:
                    split = (t.mats[i], factors, i)
                    break
                qs[i] = factors[0][0]
            if split is None:
                key, g = t._key(qs, rng)
                if key is not None:
                    # sp is the whole space, or restrict() checked it when queued
                    out.append((InvariantSubmodule._checked(d, sp), t, key))
                    continue
                m = eval_poly_at_matrix(g, list(t.mats))
                split = (m, factor_univariate(charpoly(m), rng), None)
            m, factors, i = split
            basis = Matrix._from_canonical(F, sp.basis, d)
            for q, v in factors:
                ker = _generalised_eigenspace(m, q, v)
                lifted = Matrix._from_canonical(F, ker.basis, sp.dim) @ basis
                child = Subspace._from_canonical(F, d, lifted.entries)
                child_qs = dict(qs) if i is None else {**qs, i: q}
                work.append((child, self.restrict(child), child_qs))
        if sum(sub.dim for sub, _, _ in out) != d:
            raise RuntimeError("primary decomposition lost dimensions")
        stacked = Subspace._from_canonical(
            F, d, [v for sub, _, _ in out for v in sub.space.basis]
        )
        if stacked.dim != d:
            raise RuntimeError("primary decomposition pieces are not independent")
        out.sort(key=lambda item: item[2].sort_key())
        return out

    def primary_decomposition(self, rng=None):
        """V as a direct sum of pieces, each local at one maximal ideal:
        on every piece each f_i acts with irreducible-power characteristic
        polynomial.  Pieces come back in canonical key order."""
        return [(sub, piece) for sub, piece, _ in self._local_pieces(rng)]

    def maximal_ideal_key(self, rng=None):
        """The key of a local tuple, the one-piece case of the primary
        decomposition; ValueError on the zero module or a non-local tuple."""
        if self.dim == 0:
            raise ValueError("the zero module has no maximal ideal key")
        pieces = self._local_pieces(rng)
        if len(pieces) != 1:
            raise ValueError(f"tuple is not local: it has {len(pieces)} local pieces")
        return pieces[0][2]

    def _key(self, qs, rng):
        """For a tuple on which every f_i has characteristic polynomial a
        power of the irreducible qs[i]: (key, None) when it is local, or
        (None, g) when it is not, with g(f) splitting it.

        Soc, the intersection of the ker q_i(f_i), is the socle: the
        q_i(t_i) generate the Jacobson radical (Seidenberg; both fields are
        perfect).  It has the support of V, and M = Ann(s) for its first
        basis vector s is the intersection of the maximal ideals at which s
        has a component.  Each k[t_i]/(q_i) embeds in every residue field,
        so dim k[T]/M = max deg q_i leaves room for one; otherwise a
        separating element of k[T]/M decides, and when M is not maximal it
        splits k[T].s, a submodule of V.  A maximal M is the only point of
        V iff it kills Soc: a generator g of M with g(f).Soc != 0 is
        nilpotent on the piece at M and a unit on another, so g(f) splits
        V.  On a local V, M = Ann(V/Jac.V)."""
        F, d = self.field, self.dim
        rows = [
            row
            for i, q in qs.items()
            for row in eval_poly_at_matrix(q, [self.mats[i]]).entries
        ]
        soc = kernel_basis(Matrix._from_canonical(F, rows, d))
        s = Matrix._from_canonical(F, [[x] for x in soc.basis[0]], 1)
        ideal = self._annihilator(s)
        rd = ideal.quotient_dim
        if rd != max(q.degree for q in qs.values()):
            found = _separating_element(ideal, rng)
            if found is None:
                raise RuntimeError("could not certify that a piece is local")
            g, factors = found
            if len(factors) >= 2:
                return None, g
        if soc.dim > rd:
            for g in ideal.gens:
                gf = eval_poly_at_matrix(g, list(self.mats))
                if any(any(gf.mul_vec(v)) for v in soc.basis):
                    return None, g
        # local: Soc is a vector space over the residue field k[T]/M
        if soc.dim % rd:
            raise RuntimeError(
                "socle dimension is not a multiple of the residue degree"
            )
        return _KEYS.setdefault(ideal, MaximalIdealKey(ideal, rd)), None


def _generalised_eigenspace(m, q, v):
    """ker q(m)^v for an irreducible q with q^v exactly dividing the
    characteristic polynomial of m; its dimension is deg q * v."""
    ker = kernel_basis(eval_poly_at_matrix(q, [m]).pow(v))
    if ker.dim != q.degree * v:
        raise RuntimeError(
            f"generalised eigenspace of {q} has dimension {ker.dim}, "
            f"expected {q.degree * v}"
        )
    return ker
