"""Commuting matrix tuples as finite-dimensional k[t1..tn]-modules.

A ``CommutingTuple`` is a vector space k^d with n pairwise-commuting
endomorphisms.  This module provides the structural operations on them:
submodules with restriction and quotient, the annihilator ideal (kernel of
evaluating polynomials at the tuple, as a reduced Groebner basis with its
standard monomials), the radical submodule and filtration, and the
splitting into local pieces supported at single maximal ideals.  Each
maximal ideal is tagged by one interned ``MaximalIdealKey``, and the test
whether a quotient k[T]/I is a field reads its regular representation.

A tuple holds its n maps once, as one stack S (``linalg._stack_layers``),
and checks that they commute once, where matrices come in: in the
constructor.  ``restrict``, ``quotient`` and ``direct_sum`` build their
tuples from stacks whose layers commute by construction, with no check.
Every step that acts with all n maps at once does so on S, with one
product where the per-map code took n: the commutation check, ``_close``,
the restriction and quotient maps and their invariance check, the
radical series, and the Buchberger-Moller children in ``_annihilator``.
A map is read off S as a matrix (``linalg._layer``, or the ``mats``
property for all n) only where it acts alone, as in its characteristic
polynomial.

A submodule is a plain ``linalg.Subspace`` of k^d.  ``generated_submodule``,
``radical_submodule`` and ``primary_decomposition`` return ``Subspace``s
that are invariant by construction.  ``_close``, the breadth-first closure
of rows, ``_submodule_maps``, the invariance check that ``restrict``,
``quotient`` and the split into local pieces all call, ``_annihilator``
and ``_key`` are functions of the stack alone.
"""

import heapq
import weakref
from collections import deque
from itertools import count, islice

from .errors import FieldMismatchError, NonCommutingError
from .factor import factor_univariate
from .fields import Immutable
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    _echelon_kernel,
    _first_difference,
    _from_part,
    _kernel_rows,
    _layer,
    _layer_rows,
    _product,
    _reduced,
    _stack,
    _stack_layers,
    _submatrix,
    charpoly,
    eval_poly_at_matrix,
    rref,
)
from .poly import (
    MultiPoly,
    _merge,
    grlex_key,
    mono_divides,
    normal_form,
    render_terms,
    squarefree_part,
)


class Ideal(Immutable):
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
        mono = _merge(F, ideal.nvars, [(m, F.one)])
        r = normal_form(p * mono, ideal.gens)
        col = [F.zero] * len(std)
        for e, c in r.terms:
            col[index[e]] = c
        cols.append(col)
    grid = [[cols[j][i] for j in range(len(std))] for i in range(len(std))]
    return Matrix(F, grid, cols=len(std))


def _regular_maps(ideal):
    """The regular representation of k[T]/I: the matrices T_i of
    multiplication by t_i over the standard monomials.  They commute when
    the gens are a Groebner basis, and may not when they are not."""
    F, n = ideal.field, ideal.nvars
    return [multiplication_matrix(ideal, MultiPoly.variable(F, n, i)) for i in range(n)]


def _split_or_field(ideal, ts):
    """For a reduced A = k[T]/I, a product of finite field extensions of
    k: None when A is a field, else an element g of A whose multiplication
    has two distinct irreducible factors, so that g(f) splits any module
    over A that contains A.  Both fields start from ts, the T_i of
    ``_regular_maps``, which the caller builds.

    Over F_p the fixed algebra of the Frobenius Phi: a -> a^p is F_p^r, r
    the number of points of A (Berlekamp), so A is a field iff
    ker(Phi - 1) is F_p.1, its first kernel row; any other row g has
    g^p = g, is not constant and takes two values in F_p.  Phi(t^m) =
    Y^m.1 for Y_i = T_i^p, one product with a standard parent's column
    (standard monomials are closed under division).  Over Q,
    g = t_1 + c t_2 + .. + c^(n-1) t_n, which acts as the sum of the
    c^(i-1) T_i, separates the k points of A for all but at most
    (n - 1) C(k, 2) values of c (Rouillier), so c = 0, 1, 2, .. ends at a
    c whose multiplication splits or has one factor, of degree k
    (A = k[g] is a field).
    """
    F, n, k = ideal.field, ideal.nvars, ideal.quotient_dim
    p = F.characteristic
    if not p:
        for c in count():
            g = _merge(F, n, [(tuple(int(j == i) for j in range(n)), c**i) for i in range(n)])
            factors = factor_univariate(charpoly(eval_poly_at_matrix(g, ts)))
            if len(factors) >= 2:
                return g
            if factors[0][0].degree == k:
                return None
    std = ideal.standard_monomials
    ys = [t.pow(p) for t in ts]
    cols = {std[0]: _submatrix(Matrix.identity(F, k), range(k), [0])}
    for m in std[1:]:
        i = next(i for i, e in enumerate(m) if e)
        cols[m] = ys[i] @ cols[m[:i] + (m[i] - 1,) + m[i + 1 :]]
    phi = _stack([c.transpose() for c in cols.values()]).transpose()
    fixed = _kernel_rows(phi - Matrix.identity(F, k))[0]
    return None if fixed.rows == 1 else _merge(F, n, zip(std, fixed.entries[1]))


def quotient_is_field(ideal):
    """Decide whether k[T]/I is a field (i.e. I is maximal), by
    ``_is_field`` on the regular representation, the T_i of
    ``_regular_maps``.

    >>> from endok.fields import GF
    >>> from endok.parse import parse_poly
    >>> F2 = GF(2)
    >>> def ideal(*gens):
    ...     return Ideal.from_groebner_basis(F2, 2, [parse_poly(g, F2, 2) for g in gens])
    >>> quotient_is_field(ideal("t1^2 + t1 + 1", "t2^2 + t2 + 1"))  # F4 x F4
    False
    >>> quotient_is_field(ideal("t1^2 + t1 + 1", "t2^3 + t2 + 1"))  # F64
    True
    """
    F, n, k = ideal.field, ideal.nvars, ideal.quotient_dim
    return _is_field(ideal, CommutingTuple(F, n, k, _regular_maps(ideal)))


def _is_field(ideal, regular):
    """Whether k[T]/I is a field, for regular the tuple of its regular
    representation, built once by the caller for both tests: the quotient
    is reduced iff the radical of that module is zero, and a reduced
    quotient is a field iff ``_split_or_field`` finds no element that
    splits it.  The class path never calls it, ``class_from_json`` does,
    with the tuple it has built for its own check; it is not independent
    of the key path, which calls ``_split_or_field`` too, so the tests
    also check keys over F_p by enumerating the quotient."""
    if ideal.is_unit:
        return False  # the zero ring
    if not regular.radical_submodule().is_zero:
        return False  # some t_i has a nonzero nilpotent part
    return _split_or_field(ideal, regular.mats) is None


class MaximalIdealKey(Immutable):
    """Canonical tag of a maximal ideal M of k[t1..tn]: its reduced
    Groebner basis, with the residue degree dim_k k[T]/M.

    Keys are interned by a canonical form of that basis, the field, the
    arity and the generators' term tuples: ``MaximalIdealKey(ideal)``
    derives it from the ideal, ``_principal_key`` from the coefficients of
    the q_i alone, and either returns the live key of that form if there
    is one.  So one ideal has one key object, whichever path made it, keys
    compare by identity, and the classes a caller keeps hold each basis
    once.  A key sorts and renders from its own term tuples
    (``generator_strings``); a key made without an ``Ideal`` builds one
    only on the first read of ``ideal``, which the tilde maps and the
    tests make.  The caller vouches that the ideal is maximal."""

    __slots__ = ("field", "nvars", "residue_degree", "_gens", "_ideal", "_strings", "__weakref__")

    def __new__(cls, ideal):
        gens = tuple(g.terms for g in ideal.gens)
        return _interned(ideal.field, ideal.nvars, gens, ideal.quotient_dim, ideal)

    @property
    def ideal(self):
        ideal = self._ideal
        if ideal is None:
            F, n = self.field, self.nvars
            gens = [_merge(F, n, terms) for terms in self._gens]
            ideal = Ideal.from_groebner_basis(F, n, gens)
            object.__setattr__(self, "_ideal", ideal)
        return ideal

    def generator_strings(self):
        """The text of each generator, rendered once from its term tuple."""
        strings = self._strings
        if strings is None:
            F, n = self.field, self.nvars
            strings = tuple(render_terms(F, terms, n) for terms in self._gens)
            object.__setattr__(self, "_strings", strings)
        return strings

    def sort_key(self):
        return (self.residue_degree, self.generator_strings())

    def __repr__(self):
        return f"MaximalIdealKey([{', '.join(self.generator_strings())}])"


# The live keys, by canonical form, that MaximalIdealKey and _principal_key
# intern; the table holds no key strongly.
_KEYS = weakref.WeakValueDictionary()


def _interned(field, nvars, gens, degree, ideal=None):
    """The live key of the form (field, nvars, gens), gens the term tuples
    of a reduced basis in the order of ``Ideal.gens``, or a new one."""
    form = (field, nvars, gens)
    key = _KEYS.get(form)
    if key is None:
        key = _KEYS[form] = object.__new__(MaximalIdealKey)
        for name, value in (
            ("field", field),
            ("nvars", nvars),
            ("residue_degree", degree),
            ("_gens", gens),
            ("_ideal", ideal),
            ("_strings", None),
        ):
            object.__setattr__(key, name, value)
    return key


class CommutingTuple(Immutable):
    """n pairwise-commuting d x d matrices over an exact field.

    The tuple holds its n maps once, as the stack ``_maps`` (n, d, d);
    ``mats`` reads its layers as matrices.  Commutation is checked once,
    in the constructor, where matrices come from outside: one product
    gives S_i.S_j and one S_j.S_i for every pair i < j, and the first
    failing pair, in lexicographic order, is reported with its indices.
    A tuple derived from a tuple (``restrict``, ``quotient``,
    ``direct_sum``) commutes by construction and is built unchecked by
    ``_from_stack``.
    """

    __slots__ = ("field", "nvars", "dim", "_maps")

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
        s = _stack_layers(mats)
        pairs = [(i, j) for i in range(nvars) for j in range(i + 1, nvars)]
        if pairs:
            num, den = s.to_integers()
            a, b = ((num.take(ix, 0), den) for ix in zip(*pairs))
            k = _first_difference(_product(field, a, b), _product(field, b, a))
            if k is not None:
                raise NonCommutingError(*pairs[k[0]])
        self._set(s)

    @classmethod
    def _from_stack(cls, s):
        """The tuple of the layers of a stack (n, d, d) that commute by
        construction, with no products.  Its callers' layers do:
        ``restrict``'s R_k satisfy B.R_k = f_k.B for B of full column
        rank, which forces R_i.R_j = R_j.R_i (``_invariant_maps``);
        ``quotient``'s are the maps that commuting f_k induce on V/s,
        once the same check has found s invariant; and ``direct_sum``'s
        are block sums of commuting tuples."""
        t = object.__new__(cls)
        t._set(s)
        return t

    def _set(self, s):
        """Fill the slots from the stack s."""
        put = object.__setattr__
        put(self, "field", s.field)
        put(self, "nvars", len(s.to_integers()[0]))
        put(self, "dim", s.rows)
        put(self, "_maps", s)

    @property
    def mats(self):
        """The n maps, as matrices: the layers of the stack."""
        return tuple(_layer(self._maps, i) for i in range(self.nvars))

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
        return cls._from_stack(Matrix.block_diag(field, [t._maps for t in tuples]))

    def __eq__(self, other):
        # equal stacks are equal maps, as the canonical form is unique
        if isinstance(other, CommutingTuple):
            return self._maps == other._maps
        return NotImplemented

    def __hash__(self):
        return hash(self._maps)

    def __repr__(self):
        return f"CommutingTuple(n={self.nvars}, dim={self.dim} over {self.field!r})"

    # -- submodules ----------------------------------------------------------

    def generated_submodule(self, vectors):
        """Smallest invariant subspace containing the vectors, as a
        ``Subspace``; a vector of another length is a ValueError."""
        F, d = self.field, self.dim
        rows = [Matrix(F, [v], cols=d) for v in vectors]
        added = _close(self._maps, Echelon(F, d), _stack(rows)) if rows else []
        return Subspace._row_space(_stack(added)) if added else Subspace.zero(F, d)

    def _generators(self):
        """Indices j of identity columns e_j that generate V as a
        k[T]-module: e_j is taken when it is outside the closure of the
        columns taken before it."""
        F, d = self.field, self.dim
        one = Matrix.identity(F, d)
        ech = Echelon(F, d)
        taken = []
        for j in range(d):
            if ech.rank == d:
                break
            if _close(self._maps, ech, _submatrix(one, [j], range(d))):
                taken.append(j)
        return taken

    def restrict(self, s):
        """The induced tuple on an invariant ``Subspace``, in its echelon
        basis."""
        if not isinstance(s, Subspace):
            raise TypeError(f"expected a Subspace, got {s!r}")
        return CommutingTuple._from_stack(
            _submodule_maps(self._maps, s.matrix.transpose(), s.pivots)
        )

    def quotient(self, s):
        """The induced tuple on V/s, s an invariant ``Subspace``, over the
        complement basis indexed by the non-pivot coordinates comp: M acts
        as M[comp, comp] - B[comp, :].M[pivots, comp], with B the echelon
        basis of s."""
        if not isinstance(s, Subspace):
            raise TypeError(f"expected a Subspace, got {s!r}")
        B, maps = s.matrix.transpose(), self._maps
        _submodule_maps(maps, B, s.pivots)
        comp = s.complement_coords()
        bc = _submatrix(B, comp, range(s.dim))
        return CommutingTuple._from_stack(
            _submatrix(maps, comp, comp) - bc @ _submatrix(maps, s.pivots, comp)
        )

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
        one = Matrix.identity(self.field, self.dim)
        start = _submatrix(one, range(self.dim), self._generators())
        return _annihilator(self._maps, start)

    # -- radical and filtration --------------------------------------------

    def radical_submodule(self):
        """The ``Subspace`` Jac(R).V for R = k[T]/Ann(V): the sum of the
        images of s_i(f_i) with s_i the squarefree part of f_i's
        characteristic polynomial (Seidenberg; needs a perfect field, which
        both supported fields are).  Each s_i(f_i) commutes with every f_j,
        so the sum is invariant."""
        return list(islice(self._radical_series(), 2))[-1]  # V when V = 0

    def _radical_series(self):
        """Yields the radical series V, rad V, .., 0 as ``Subspace``s, each
        strictly inside the one before (just V when V = 0), evaluating the
        s_i(f_i) of V once: rad W = sum_i s_i(f_i).W for every invariant W,
        as on W, s_i is W's own squarefree part times a factor u_i coprime
        to the characteristic polynomial of f_i on W, so u_i(f_i) is a
        unit on W that commutes with every f.  The s_i(f_i)^T are one
        stack, so each step is one product."""
        ss = _stack_layers(
            [eval_poly_at_matrix(squarefree_part(charpoly(m)), [m]) for m in self.mats]
        ).transpose()
        w = Subspace.full(self.field, self.dim)
        yield w
        while not w.is_zero:
            w = Subspace._row_space(_layer_rows(w.matrix @ ss))
            yield w

    def semisimplify(self):
        """The semisimple quotient V/(Jac.V)."""
        return self.quotient(self.radical_submodule())

    def radical_filtration(self):
        """Layers (rad^j V)/(rad^{j+1} V), top down; each is semisimple and
        the dimensions add up to dim V.  Layer j is rad^j V, in its echelon
        basis, modulo rad^(j+1) V, whose rows at the pivots of rad^j V are
        its coordinates in that basis."""
        series = list(self._radical_series())
        return [
            self.restrict(w).quotient(
                Subspace._row_space(_submatrix(r.matrix, range(r.dim), w.pivots))
            )
            for w, r in zip(series, series[1:])
        ]

    # -- primary decomposition ------------------------------------------------

    def _local_pieces(self):
        """Split V into local pieces; returns [(W, key)] sorted by the
        canonical key order, the rows of W spanning the piece in V's
        coordinates, so that its dimension is W.rows.

        A work item is (W, S, qs): S is the stack of the f on the span of W's
        rows in that basis, and qs maps each generator already known to be
        primary on the item to the irreducible q_i of its characteristic
        polynomial; restriction to an invariant subspace keeps it primary, so
        each generator is factored once per lineage.  The first generator m
        whose characteristic polynomial q_1^v_1...q_k^v_k has two distinct
        factors splits the item into its generalised eigenspaces, peeled off
        one at a time, largest deg q_j * v_j first so that what remains
        shrinks fastest.  For j < k, one elimination of A = q_j(m)^v_j on what
        remains gives both halves: its kernel rows K
        (``linalg._echelon_kernel``) are child j, K.W, where the f act as the
        free rows of S.K^T, one product (``_submodule_maps``); its image, the
        sum of the other eigenspaces, is spanned by the pivot columns B of A,
        and as A = B.R' for R' the nonzero rows of the reduced echelon form,
        every f commuting with A has f.B = B.(R'.f[:, pivots]), one product
        R'.S[:, :, pivots] for all f (``_on_image``).  The split goes on in
        that image, lifted as B^T.W, and its last and smallest piece is what
        remains, with no elimination: k - 1 eliminations per split, on
        shrinking matrices.  Each piece's dimension must be deg q_j * v_j, and
        each restriction's invariance is checked once, for all f at once, by
        ``_invariant_maps``, which raises RuntimeError here: the loop computed
        the subspace.  The step runs on integer forms (``linalg._product``);
        only what the work list keeps, the child stacks, W and m, become
        matrices.  An item on which every generator is primary goes to
        ``_key``, which either keys it or names an element g whose g(f) splits
        it further, into at least two pieces, or the loop raises rather than
        take the item again; so does, with no more primary tests, an item
        where some q_i has degree W.rows, as it is simple (Schur's lemma, see
        ``_key``), and ``_key`` keys it by the annihilator of its first basis
        vector unless every generator is already primary.  At the end the
        pieces' dimensions must add up to dim V and the stacked W must have
        full rank.
        """
        F, n, d = self.field, self.nvars, self.dim
        if d == 0:
            return []
        work = [(Matrix.identity(F, d), self._maps, {})]
        out = []
        while work:
            w, maps, qs = work.pop()
            split = None
            for i in range(n):
                if i in qs:
                    continue
                if any(q.degree == w.rows for q in qs.values()):
                    break  # a simple piece: _key needs no other q_j
                f = _layer(maps, i)
                factors = factor_univariate(charpoly(f))
                if len(factors) >= 2:
                    split = (f, factors, i)
                    break
                qs[i] = factors[0][0]
            if split is None:
                key, g = _key(maps, qs)
                if key is not None:
                    out.append((w, key))
                    continue
                m = eval_poly_at_matrix(g, [_layer(maps, i) for i in range(n)])
                factors = factor_univariate(charpoly(m))
                if len(factors) < 2:
                    raise RuntimeError(f"the key step's element {g} does not split a piece")
                split = (m, factors, None)
            m, factors, i = split
            factors = sorted(factors, key=lambda qv: -qv[0].degree * qv[1])
            for j, (q, v) in enumerate(factors):
                child_qs = dict(qs) if i is None else {**qs, i: q}
                if j == len(factors) - 1:
                    _check_eigenspace(q, v, w.rows)
                    work.append((w, maps, child_qs))
                    break
                a = eval_poly_at_matrix(q, [m]).pow(v)
                R, pivots = rref(a)
                ker, free = _echelon_kernel(R, pivots)
                _check_eigenspace(q, v, ker.rows)
                child = _submodule_maps(maps, ker.transpose(), free, RuntimeError)
                work.append((ker @ w, child, child_qs))
                # what remains is the image of a, in the basis of its pivot
                # columns B, where f acts as R'.f[:, pivots]
                B = _submatrix(a, range(a.rows), pivots)
                maps = _invariant_maps(maps, B, _on_image(R, pivots, maps), error=RuntimeError)
                m = _layer(maps, i) if i is not None else _from_part(F, *_on_image(R, pivots, m))
                w = B.transpose() @ w
        if sum(w.rows for w, _ in out) != d:
            raise RuntimeError("primary decomposition lost dimensions")
        if len(rref(_stack([w for w, _ in out]))[1]) != d:
            raise RuntimeError("primary decomposition pieces are not independent")
        out.sort(key=lambda item: item[1].sort_key())
        return out

    def primary_decomposition(self):
        """V as a direct sum of pieces, each local at one maximal ideal:
        on every piece each f_i acts with irreducible-power characteristic
        polynomial.  Pieces come back in canonical key order, each as its
        ``Subspace`` and the tuple restricted to it in its echelon basis."""
        out = []
        for w, _ in self._local_pieces():
            sp = Subspace._row_space(w)
            out.append((sp, self.restrict(sp)))
        return out

    def maximal_ideal_key(self):
        """The key of a local tuple, the one-piece case of the primary
        decomposition; ValueError on the zero module or a non-local tuple."""
        if self.dim == 0:
            raise ValueError("the zero module has no maximal ideal key")
        pieces = self._local_pieces()
        if len(pieces) != 1:
            raise ValueError(f"tuple is not local: it has {len(pieces)} local pieces")
        return pieces[0][1]


def _close(maps, ech, rows):
    """Insert the rows of a matrix into ech and close their span under
    every f in the stack maps, breadth-first, level by level: one product
    V.S^T gives every row v.f^T of the next level, in the order of a
    queue, row by row and f by f.  Returns the matrices of the rows it
    added, one per level, which span the new part of the closure."""
    F = maps.field
    st = maps.transpose().to_integers()
    added = []
    level = rows.to_integers()
    while True:
        num, den = level
        kept = [r for r, v in enumerate(num) if ech.insert(v, den)[0]]
        if not kept:
            return added
        level = _reduced(num.take(kept, 0), den)
        added.append(Matrix._from_form(F, *level))
        num, den = _product(F, level, st)
        level = (num.swapaxes(0, 1).reshape(-1, maps.cols), den)


def _on_image(R, pivots, f):
    """The integer form R'.f[:, pivots], for R' the nonzero rows of R, the
    reduced echelon form of some A = B.R' with B its pivot columns: the
    map, or stack of maps, f, commuting with A, on the image of A in the
    basis B, as f.B = f.A[:, pivots] = A.f[:, pivots] = B.R'.f[:, pivots]."""
    (r, rd), (num, den) = R.to_integers(), f.to_integers()
    return _product(R.field, (r[: len(pivots)], rd), (num.take(pivots, -1), den))


def _submodule_maps(maps, B, coords, error=ValueError):
    """The stack R of the f_k in the stack maps on the span of the columns
    of B, in that basis, for a B whose rows at coords form the identity:
    an echelon basis with its pivots, or kernel rows with their free
    columns (``linalg._kernel_rows``).  R is the rows coords of S.B, one
    product for all k.  As w is in the span iff w = B.w[coords], B.R_k ==
    f_k.B is exactly invariance under f_k, checked by ``_invariant_maps``
    (raising error); a B over another field or of another height than the
    f_k raises ValueError."""
    if B.field != maps.field or B.rows != maps.rows:
        raise ValueError("subspace does not live in the module's space")
    fb = _product(maps.field, maps.to_integers(), B.to_integers())
    return _invariant_maps(maps, B, (fb[0].take(coords, -2), fb[1]), fb, error)


def _invariant_maps(maps, B, rs, fb=None, error=ValueError):
    """The stack of the R_k in the integer form rs, the claimed matrices of
    the f_k in the stack maps on the span of the columns of B (full column
    rank) in that basis, once B.R_k == f_k.B holds for every k: the
    invariance check, and the only one, one product B.R and one product
    S.B, unless the caller has it as fb, for all k at once.  A failure
    raises error naming the first failing k: ValueError on a caller's
    subspace, RuntimeError on one the split loop computed.  The R_k
    commute because the f_k do: B.R_i.R_j = f_i.f_j.B = f_j.f_i.B =
    B.R_j.R_i, and B cancels."""
    F, b = maps.field, B.to_integers()
    if fb is None:
        fb = _product(F, maps.to_integers(), b)
    k = _first_difference(_product(F, b, rs), fb)
    if k is not None:
        raise error(f"subspace is not invariant under matrix {k[0]}")
    return _from_part(F, *rs)


def _annihilator(maps, start):
    """The ideal of all p with p(f).start = 0, for f in the stack maps,
    start d x c.

    Buchberger-Moller, breadth-first over monomials in increasing
    graded-lex order: monomial m maps to f^m.start, whose d*c flattened
    entries are reduced against those of the standard monomials in a
    tracking ``Echelon`` (integer rows); a dependency yields a generator,
    m minus its combination of standard monomials (and m is not
    expanded), independence makes m standard and enqueues its variable
    multiples m + e_i, with their vectors f_i.(f^m.start): one product
    S.(f^m.start) for all i, kept as integer forms and brought to their
    canonical form (``linalg._reduced``) only when popped.  Terminates
    because the standard count is at most d*c.

    A monomial m that is popped lies outside the multiples of every
    leading monomial found so far, and so do all its divisors, which
    come earlier in the order; so each divisor is standard, and m was
    enqueued with its vector when the first of them was found standard.
    A popped monomial with no vector raises RuntimeError.
    """
    F = start.field
    s = maps.to_integers()
    n = len(s[0])
    ech = Echelon(F, start.rows * start.cols, track=True)
    std = []
    gens = []
    leads = []
    origin = (0,) * n
    heap = [(grlex_key(origin), origin)]
    vectors = {origin: start.to_integers()}
    while heap:
        _, m = heapq.heappop(heap)
        if any(mono_divides(lm, m) for lm in leads):
            continue
        if m not in vectors:
            raise RuntimeError(f"no standard parent for monomial {m}")
        v = _reduced(*vectors[m])
        added, combo = ech.insert(*v)
        if added:
            std.append(m)
            num, den = _product(F, s, v)
            for i in range(n):
                child = m[:i] + (m[i] + 1,) + m[i + 1 :]
                if child not in vectors:
                    vectors[child] = (num[i], den)
                    heapq.heappush(heap, (grlex_key(child), child))
        else:
            terms = [(m, F.one)] + [(std[g], -c) for g, c in combo.items()]
            gens.append(_merge(F, n, terms))
            leads.append(m)
    return Ideal(F, n, gens, std)


def _key(maps, qs):
    """For commuting f in the stack maps, each f_i in qs with characteristic
    polynomial a power of the irreducible qs[i] (every f_i, unless some
    deg q_i = d = dim V): (key, None) when their module V is local, or
    (None, g) when it is not, with g(f) splitting it.

    When deg q_i = d, V is simple (Schur's lemma): K = k[f_i] is a field
    of degree d, V is a K-line, and each f_j commutes with f_i, so it is
    K-linear, multiplication by an element of K; the f_j not yet in qs are
    left out, and V is keyed by the annihilator of its first basis vector.

    Each q_i(f_i) is nilpotent on V, so every maximal ideal M of the
    support of V contains I = (q_1(t_1), .., q_n(t_n)): a power of
    q_i(t_i) kills V and M is prime.  When every q_i is known and at most
    one has degree above 1, the others are t_i - a_i and k[T]/I =
    k[t_j]/(q_j) is a field; I is maximal, so M = I and V is local at I,
    keyed by ``_principal_key`` with no linear algebra, and V is a vector
    space over k[T]/M.

    Otherwise M comes from the socle Soc, the intersection of the
    ker q_i(f_i), as the q_i(t_i) generate the Jacobson radical
    (Seidenberg; both fields are perfect): a simple V is its own socle,
    and on any other V it is taken as kernel rows.  Soc has the support
    of V, and M = Ann(s) for its first basis vector s is the intersection
    of the maximal ideals at which s has a component; on a local V that
    is the one maximal ideal, whichever nonzero s it is.  Each
    k[t_i]/(q_i) embeds in every residue field, so dim k[T]/M =
    max deg q_i leaves room for one, and on a simple V, where Ann(s) is
    maximal of codimension d, is the only case; otherwise
    ``_split_or_field`` decides whether the reduced k[T]/M is a field, or
    names a g that splits k[T].s, a submodule of V.  A maximal M is the
    only point of V iff it kills Soc: a generator g of M with g(f).Soc !=
    0 is nilpotent on the piece at M and a unit on another, so g(f)
    splits V, and otherwise Soc is a vector space over k[T]/M.

    Either way the dimension of that vector space, V's or Soc's, must be
    a multiple of the residue degree, the one check on a key's degree."""
    F, n, d = maps.field, len(maps.to_integers()[0]), maps.rows
    if len(qs) == n and sum(q.degree > 1 for q in qs.values()) <= 1:
        key, dim = _principal_key([qs[i] for i in range(n)]), d
    else:
        simple = any(q.degree == d for q in qs.values())
        if simple:
            socle = Matrix.identity(F, d)
        else:
            parts = [eval_poly_at_matrix(q, [_layer(maps, i)]) for i, q in qs.items()]
            socle = _kernel_rows(_stack(parts))[0].transpose()
        ideal = _annihilator(maps, _submatrix(socle, range(d), [0]))
        rd = ideal.quotient_dim
        if rd != max(q.degree for q in qs.values()):
            if simple:
                raise RuntimeError("a simple piece is not local")
            g = _split_or_field(ideal, _regular_maps(ideal))
            if g is not None:
                return None, g
        if socle.cols > rd:
            mats = [_layer(maps, i) for i in range(n)]
            for g in ideal.gens:
                if not (eval_poly_at_matrix(g, mats) @ socle).is_zero:
                    return None, g
        key, dim = MaximalIdealKey(ideal), socle.cols
    if dim % key.residue_degree:
        raise RuntimeError("dimension is not a multiple of the residue degree")
    return key, None


def _principal_key(qs):
    """The key of the maximal ideal (q_1(t_1), .., q_n(t_n)), for monic
    irreducible q_i, at most one of degree above 1, of residue degree
    max deg q_i.  Its reduced graded-lex basis is the q_i(t_i) themselves
    (pairwise coprime leading monomials, and no other term divisible by a
    leading monomial), by degree, then by variable, so its form is read
    off the coefficients of the q_i with no ``MultiPoly`` or ``Ideal``."""
    n = len(qs)
    order = sorted(range(n), key=lambda i: -qs[i].degree)
    degree = qs[order[0]].degree
    gens = tuple(
        tuple(
            ((0,) * i + (k,) + (0,) * (n - 1 - i), c)
            for k, c in reversed(list(enumerate(qs[i].coeffs)))
            if c
        )
        for i in order
    )
    return _interned(qs[0].field, n, gens, degree)


def _check_eigenspace(q, v, dim):
    """Raise unless dim, that of the generalised eigenspace of an
    irreducible q with q^v exactly dividing the characteristic
    polynomial, is deg q * v."""
    if dim != q.degree * v:
        raise RuntimeError(
            f"generalised eigenspace of {q} has dimension {dim}, "
            f"expected {q.degree * v}"
        )
