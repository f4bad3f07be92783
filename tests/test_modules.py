import random
from fractions import Fraction
from itertools import product
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from endok import modules
from endok.bruteforce import random_commuting_tuple, random_vector
from endok.errors import FieldMismatchError, NonCommutingError
from endok.factor import factor_univariate
from endok.fields import GF, QQ
from endok.ktheory import k0_class
from endok.linalg import (
    Matrix,
    Subspace,
    _submatrix,
    charpoly,
    eval_poly_at_matrix,
    minimal_polynomial,
    rref,
)
from endok.modules import (
    CommutingTuple,
    Ideal,
    multiplication_matrix,
    quotient_is_field,
)
from endok.poly import MultiPoly, UniPoly, normal_form

from conftest import (
    ALL_FIELDS,
    P61,
    assert_canonical,
    conjugate,
    fat_point,
    field_id,
    tensor,
    twisted_points,
)

F2, F3, F5, F97 = GF(2), GF(3), GF(5), GF(97)
J = Matrix(QQ, [[0, 1], [0, 0]])
Z2 = Matrix.zeros(QQ, 2, 2)


def random_poly_matrix(field, rng, d):
    """Random d x d matrix with small entries."""
    if field.is_prime_field:
        p = field.characteristic
        return Matrix(field, [[rng.randrange(p) for _ in range(d)] for _ in range(d)])
    return Matrix(field, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])


# -- construction -----------------------------------------------------------------


def test_make_tuple_examples():
    JF2 = Matrix(F2, [[0, 1], [0, 0]])
    t = CommutingTuple(F2, 2, 2, [JF2, Matrix.zeros(F2, 2, 2)])
    assert t.dim == 2 and t.nvars == 2

    with pytest.raises(NonCommutingError) as exc:
        CommutingTuple(QQ, 2, 2, [J, Matrix(QQ, [[0, 0], [1, 0]])])
    assert (exc.value.i, exc.value.j) == (0, 1)

    single = CommutingTuple(QQ, 1, 3, [Matrix(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])])
    assert single.nvars == 1  # a single matrix always commutes with itself


def test_make_tuple_validation():
    with pytest.raises(ValueError):
        CommutingTuple(QQ, 2, 2, [J])  # wrong count
    with pytest.raises(ValueError):
        CommutingTuple(QQ, 1, 3, [J])  # wrong size
    with pytest.raises(FieldMismatchError):
        CommutingTuple(QQ, 1, 2, [Matrix.zeros(F2, 2, 2)])
    with pytest.raises(ValueError):
        CommutingTuple(QQ, 0, 2, [])


def test_immutability():
    t = CommutingTuple(QQ, 1, 2, [J])
    with pytest.raises(AttributeError):
        t.dim = 5


# -- generated submodules -----------------------------------------------------------


def test_generated_submodule_examples():
    t = CommutingTuple(QQ, 2, 2, [J, Z2])
    assert t.generated_submodule([(0, 1)]).dim == 2  # J e2 = e1
    assert t.generated_submodule([(1, 0)]).dim == 1  # J e1 = 0
    assert t.generated_submodule([]).dim == 0


def test_generated_submodule_rejects_wrong_length():
    t = CommutingTuple(QQ, 2, 2, [J, Z2])
    for v in ((1,), (0, 1, 0), ()):
        with pytest.raises(ValueError, match="expected 2 columns"):
            t.generated_submodule([(1, 0), v])


def test_invariant_submodule_rejects_noninvariant():
    # span e2 is stable under the zero map and not under J
    t = CommutingTuple(QQ, 2, 2, [Z2, J])
    s = Subspace(QQ, 2, [(0, 1)])
    for op in (t.restrict, t.quotient):
        with pytest.raises(ValueError, match="not invariant under matrix 1"):
            op(s)


# -- restrict / quotient -------------------------------------------------------------


def test_restrict_quotient_examples():
    t = CommutingTuple(QQ, 2, 2, [J, Z2])
    line = t.generated_submodule([(1, 0)])
    sub = t.restrict(line)
    quo = t.quotient(line)
    assert sub.dim == 1 and all(m.is_zero for m in sub.mats)
    assert quo.dim == 1 and all(m.is_zero for m in quo.mats)
    full = t.restrict(Subspace.full(QQ, 2))
    assert full.mats == t.mats


def test_restrict_rejects_noninvariant():
    t = CommutingTuple(QQ, 1, 2, [J])
    bad = Subspace(QQ, 2, [(0, 1)])
    with pytest.raises(ValueError):
        t.restrict(bad)
    with pytest.raises(ValueError):
        t.quotient(bad)


def test_restrict_quotient_reject_foreign_subspaces():
    t = CommutingTuple(QQ, 1, 2, [J])
    foreign = (
        Subspace(QQ, 3, [(1, 0, 0)]),  # k^3 against k^2
        Subspace.zero(QQ, 3),
        Subspace(F3, 2, [(1, 0)]),  # invariant in shape, over another field
        Subspace.full(F3, 2),
    )
    for op in (t.restrict, t.quotient):
        for s in foreign:
            with pytest.raises(ValueError, match="subspace does not live in the module's space"):
                op(s)
        for s in ([(1, 0)], Matrix(QQ, [[1, 0]]), None):
            with pytest.raises(TypeError):
                op(s)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_restrict_quotient_dims_add(field):
    rng = random.Random(21)
    for _ in range(25):
        t = random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 5), rng)
        s = t.generated_submodule([random_vector(field, t.dim, rng)])
        sub = t.restrict(s)
        quo = t.quotient(s)
        assert sub.dim + quo.dim == t.dim
        # both results pass the commutation check at construction; rebuild
        CommutingTuple(field, t.nvars, sub.dim, sub.mats)
        CommutingTuple(field, t.nvars, quo.dim, quo.mats)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_restrict_quotient_formulas(field):
    # restrict: f.B = B.R over the echelon basis B; quotient: pi(f.e_j) =
    # Q.pi(e_j) with pi(v) = (v - B.v[pivots])[comp].  Transposes of
    # commuting matrices commute and have the same composition factors,
    # so only these identities tell R and Q from their transposes.
    rng = random.Random(22)
    F = field
    for _ in range(20):
        t = random_commuting_tuple(field, rng.randint(2, 3), rng.randint(1, 6), rng)
        d = t.dim
        for sp in (
            t.generated_submodule([random_vector(field, d, rng)]),
            t.generated_submodule([]),
            Subspace.full(field, d),
        ):
            comp = sp.complement_coords()

            def combine(coeffs):
                out = [F.zero] * d
                for b, c in zip(sp.basis, coeffs):
                    out = [F.coerce(x + c * y) for x, y in zip(out, b)]
                return tuple(out)

            def project(v):
                w = combine([v[p] for p in sp.pivots])
                return tuple(F.coerce(v[c] - w[c]) for c in comp)

            def apply(m, v):
                # m.v, the product with v as a column
                return (Matrix(F, [v], cols=m.cols) @ m.transpose()).entries[0]

            sub, quo = t.restrict(sp), t.quotient(sp)
            for f, r, q in zip(t.mats, sub.mats, quo.mats):
                for j, b in enumerate(sp.basis):
                    assert apply(f, b) == combine(r.transpose().entries[j])
                for c in comp:
                    e = tuple(F.one if i == c else F.zero for i in range(d))
                    assert project(apply(f, e)) == apply(q, project(e))


# -- the stack of the maps against per-matrix products ------------------------------

STACK_FIELDS = [F2, F97, QQ]


def fat_point_and_random_tuple(field, nvars, rng):
    """(parts, t): a fat point moved to a random point and a random tuple,
    and t their direct sum in a random basis."""
    one = Matrix.identity(field, 1)
    point = CommutingTuple(field, nvars, 1, [one.scale(rng.randint(0, 4)) for _ in range(nvars)])
    parts = [
        tensor(point, fat_point(field, nvars, 2)),
        random_commuting_tuple(field, nvars, rng.randint(1, 3), rng),
    ]
    return parts, conjugate(CommutingTuple.direct_sum(*parts), rng)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(STACK_FIELDS), st.integers(2, 3), st.integers(0, 2**16))
def test_stack_restrict_and_quotient_match_per_matrix_products(field, nvars, seed):
    # restrict and quotient by the submodule a random vector generates
    # give, map by map, what the per-matrix products give
    rng = random.Random(seed)
    _, t = fat_point_and_random_tuple(field, nvars, rng)
    s = t.generated_submodule([random_vector(field, t.dim, rng)])
    B, comp = s.matrix.transpose(), s.complement_coords()
    bc = _submatrix(B, comp, range(s.dim))
    sub, quo = t.restrict(s), t.quotient(s)
    assert (sub.nvars, quo.nvars) == (nvars, nvars)
    for f, r, q in zip(t.mats, sub.mats, quo.mats):
        assert_canonical(r)
        assert_canonical(q)
        fb = f @ B
        assert B @ r == fb
        assert r == _submatrix(fb, s.pivots, range(s.dim))
        assert q == _submatrix(f, comp, comp) - bc @ _submatrix(f, s.pivots, comp)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(STACK_FIELDS), st.integers(0, 2**16))
def test_stack_invariance_check_names_the_failing_map(field, seed):
    # two scalars, under which every subspace is invariant, and a shift N,
    # in a random basis: a line that N moves fails for matrix 2 alone
    rng = random.Random(seed)
    d = rng.randint(2, 5)
    shift = Matrix(field, [[int(i == j + 1) for j in range(d)] for i in range(d)])
    scalars = [Matrix.identity(field, d).scale(rng.randint(-3, 3)) for _ in range(2)]
    t = conjugate(CommutingTuple(field, 3, d, [*scalars, shift]), rng)
    line = Subspace(field, d, [random_vector(field, d, rng)])
    assume(not line.is_zero)
    assume(not line.contains((line.matrix @ t.mats[2].transpose()).entries[0]))
    for op in (t.restrict, t.quotient):
        with pytest.raises(ValueError, match="not invariant under matrix 2$"):
            op(line)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(STACK_FIELDS), st.integers(0, 2**16))
def test_stack_commutation_check_names_the_failing_pair(field, seed):
    # a scalar commutes with two random matrices that do not commute with
    # each other: the pair named is theirs, wherever the scalar sits
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    scalar = Matrix.identity(field, d).scale(rng.randint(-3, 3))
    x, y = (random_poly_matrix(field, rng, d) for _ in range(2))
    assume(x @ y != y @ x)
    orders = (([scalar, x, y], (1, 2)), ([x, scalar, y], (0, 2)), ([x, y, scalar], (0, 1)))
    for mats, pair in orders:
        with pytest.raises(NonCommutingError) as exc:
            CommutingTuple(field, 3, d, mats)
        assert (exc.value.i, exc.value.j) == pair


# -- derived tuples, built from their stacks with no commutation check ----------------


def block_sum_entries(tuples):
    """The entries of each map of the direct sum of the tuples, placed
    block by block one scalar at a time."""
    F, size = tuples[0].field, sum(t.dim for t in tuples)
    grids = [[[F.zero] * size for _ in range(size)] for _ in range(tuples[0].nvars)]
    off = 0
    for t in tuples:
        for grid, m in zip(grids, t.mats):
            for i, row in enumerate(m.entries):
                grid[off + i][off : off + t.dim] = row
        off += t.dim
    return [tuple(map(tuple, grid)) for grid in grids]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(STACK_FIELDS), st.integers(1, 3), st.integers(0, 2**16))
def test_derived_tuples_equal_their_checked_rebuilds(field, nvars, seed):
    # restrict, quotient and direct_sum skip the commutation check; what
    # they build passes it, map by map, and direct_sum puts each summand
    # on its own diagonal block
    rng = random.Random(seed)
    parts, t = fat_point_and_random_tuple(field, nvars, rng)
    s = t.generated_submodule([random_vector(field, t.dim, rng)])
    summands = [*parts, t.restrict(s), t]
    total = CommutingTuple.direct_sum(*summands)
    for r in (t.restrict(s), t.quotient(s), total):
        assert r == CommutingTuple(field, nvars, r.dim, r.mats)
        for m in r.mats:
            assert_canonical(m)
    assert [m.entries for m in total.mats] == block_sum_entries(summands)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(STACK_FIELDS), st.integers(1, 3), st.integers(0, 2**16))
def test_tuple_equality_and_hash_agree_with_the_maps(field, nvars, seed):
    # tuples compare and hash by their stacks; that is equality of the
    # maps one by one, mixed denominators over Q included
    rng = random.Random(seed)
    parts, t = fat_point_and_random_tuple(field, nvars, rng)
    d = t.dim
    half = Matrix.identity(field, d).scale(Fraction(1, 2) if field == QQ else 1)
    other = F97 if field == QQ else QQ
    candidates = [
        t,
        CommutingTuple(field, nvars, d, t.mats),
        CommutingTuple(field, nvars, d, t.mats[::-1]),
        CommutingTuple(field, nvars, d, [t.mats[0] + half, *t.mats[1:]]),
        CommutingTuple(field, nvars, d, [m.scale(Fraction(1, 3) if field == QQ else 2) for m in t.mats]),
        conjugate(t, rng),
        t.restrict(t.generated_submodule([random_vector(field, d, rng)])),
        *parts,
        CommutingTuple.zeros(field, nvars, d),
        CommutingTuple.zeros(other, nvars, d),
        CommutingTuple.zeros(field, nvars + 1, d),
    ]
    assert candidates[0] == candidates[1] and candidates[0] != candidates[3]
    for a, b in product(candidates, repeat=2):
        same = (
            a.field == b.field
            and a.nvars == b.nvars
            and a.dim == b.dim
            and all(x == y for x, y in zip(a.mats, b.mats))
        )
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(STACK_FIELDS), st.integers(1, 3), st.integers(0, 2**16))
def test_only_the_invariance_check_compares_in_derived_tuples(field, nvars, seed):
    # restrict and quotient compare once, in the invariance check, and
    # direct_sum never; the constructor compares once for n >= 2, in the
    # commutation check
    rng = random.Random(seed)
    parts, t = fat_point_and_random_tuple(field, nvars, rng)
    s = t.generated_submodule([random_vector(field, t.dim, rng)])
    builds = [
        (lambda: t.restrict(s), 1),
        (lambda: t.quotient(s), 1),
        (lambda: CommutingTuple.direct_sum(*parts), 0),
        (lambda: CommutingTuple(field, nvars, t.dim, t.mats), int(nvars > 1)),
    ]
    with patch.object(modules, "_first_difference", wraps=modules._first_difference) as spy:
        for build, calls in builds:
            spy.reset_mock()
            build()
            assert spy.call_count == calls


# -- annihilator ideal -----------------------------------------------------------------


def test_annihilator_examples():
    z = CommutingTuple(QQ, 1, 2, [Z2])
    ideal = z.annihilator_ideal()
    assert ideal.generator_strings() == ("t",)
    assert ideal.standard_monomials == ((0,),)

    pair = CommutingTuple(QQ, 2, 2, [J, Z2])
    ideal = pair.annihilator_ideal()
    assert ideal.generator_strings() == ("t1^2", "t2")
    assert ideal.standard_monomials == ((0, 0), (1, 0))

    comp = CommutingTuple(F3, 1, 2, [Matrix.companion(UniPoly(F3, [1, 0, 1]))])
    ideal = comp.annihilator_ideal()
    assert ideal.generator_strings() == ("t^2 + 1",)
    assert ideal.standard_monomials == ((0,), (1,))


def test_annihilator_three_variables():
    z = CommutingTuple.zeros(F2, 3, 2)
    ideal = z.annihilator_ideal()
    assert ideal.generator_strings() == ("t1", "t2", "t3")
    assert ideal.standard_monomials == ((0, 0, 0),)
    assert k0_class(z).lines() == ["2 * [t1, t2, t3]"]


def test_annihilator_dim_zero_is_unit_ideal():
    z = CommutingTuple.zeros(QQ, 2, 0)
    ideal = z.annihilator_ideal()
    assert ideal.is_unit and ideal.standard_monomials == ()
    assert normal_form(MultiPoly.one(QQ, 2), ideal.gens).is_zero


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_annihilator_soundness(field):
    rng = random.Random(22)
    for _ in range(15):
        n = rng.randint(1, 3)
        t = random_commuting_tuple(field, n, rng.randint(1, 5), rng)
        ideal = t.annihilator_ideal()
        zero = Matrix.zeros(field, t.dim, t.dim)
        # every generator evaluates to the zero matrix
        for g in ideal.gens:
            assert eval_poly_at_matrix(g, list(t.mats)) == zero
        # the basis is reduced: leading monomials are pairwise indivisible,
        # generators are monic, and every tail monomial is standard
        from endok.poly import mono_divides

        std_set = set(ideal.standard_monomials)
        leads = [g.leading_monomial for g in ideal.gens]
        for a, g in enumerate(ideal.gens):
            assert g.leading_coeff == field.one
            for b, lm in enumerate(leads):
                if a != b:
                    assert not mono_divides(lm, g.leading_monomial)
            for mono, _ in g.terms[1:]:
                assert mono in std_set
        # standard monomials evaluate to independent matrices spanning k[f]
        mono_mats = [
            eval_poly_at_matrix(MultiPoly(field, n, {m: field.one}), list(t.mats))
            for m in ideal.standard_monomials
        ]
        flat = Subspace(
            field,
            t.dim * t.dim,
            [[x for row in mm.entries for x in row] for mm in mono_mats],
        )
        assert flat.dim == len(ideal.standard_monomials)
        # reduction is evaluation-faithful: nf(p) = 0 iff p(f) = 0
        for _ in range(5):
            p = MultiPoly(
                field,
                n,
                {
                    tuple(rng.randint(0, 2) for _ in range(n)): field.random_scalar(rng)
                    for _ in range(3)
                },
            )
            nf = normal_form(p, ideal.gens)
            val = eval_poly_at_matrix(p, list(t.mats))
            assert val == eval_poly_at_matrix(nf, list(t.mats))
            assert nf.is_zero == (val == zero)


def whole_identity_annihilator(t):
    """The annihilator from the whole identity: every column, d^2 wide."""
    return modules._annihilator(t._maps, Matrix.identity(t.field, t.dim))


def transpose(t):
    """The dual module: each f_i transposed, which still commute."""
    mats = [Matrix(t.field, list(zip(*m.entries)), cols=t.dim) for m in t.mats]
    return CommutingTuple(t.field, t.nvars, t.dim, mats)


def annihilator_inputs():
    """Seeded random tuples (block sums among them, so e_1 often generates
    only one block), non-cyclic fat points and their duals, twisted points
    and fat points moved onto them, in block and in random bases."""
    quadratics = {
        F2: UniPoly(F2, [1, 1, 1]),
        F3: UniPoly(F3, [1, 0, 1]),
        F97: UniPoly(F97, [92, 0, 1]),
        QQ: UniPoly(QQ, [-2, 0, 1]),
    }
    for field, q in quadratics.items():
        rng = random.Random(24)
        for nvars, d in ((1, 6), (1, 20), (2, 9), (2, 16), (3, 12), (3, 20)):
            yield random_commuting_tuple(field, nvars, d, rng)
        fat = fat_point(field, 2, 2)
        yield fat
        yield transpose(fat_point(field, 2, 3))
        yield conjugate(CommutingTuple.direct_sum(fat, transpose(fat)), rng)
        points = CommutingTuple.direct_sum(*twisted_points(q, rng))
        yield points
        yield conjugate(points, rng)
        moved = [tensor(pt, fat) for pt in twisted_points(q, rng)]
        yield CommutingTuple.direct_sum(*moved)
        yield conjugate(transpose(CommutingTuple.direct_sum(*moved)), rng)


def test_annihilator_matches_whole_identity_start(monkeypatch):
    starts = []
    annihilator = modules._annihilator

    def recording(mats, start):
        starts.append((start.cols, start.rows))
        return annihilator(mats, start)

    seen = set()
    for t in annihilator_inputs():
        seen.add(t.field)
        monkeypatch.setattr(modules, "_annihilator", recording)
        ideal = t.annihilator_ideal()
        monkeypatch.undo()
        expected = whole_identity_annihilator(t)
        assert ideal == expected, t
        assert ideal.standard_monomials == expected.standard_monomials
    assert seen == {F2, F3, F97, QQ}
    assert len(starts) == 4 * 13
    assert any(cols < dim for cols, dim in starts)
    assert any(cols >= 3 for cols, _ in starts)  # non-cyclic inputs need several


def test_ideal_from_groebner_basis_roundtrip():
    rng = random.Random(23)
    for field in (QQ, F3):
        for _ in range(10):
            t = random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 4), rng)
            if t.dim == 0:
                continue
            ideal = t.annihilator_ideal()
            rebuilt = Ideal.from_groebner_basis(field, ideal.nvars, ideal.gens)
            assert rebuilt == ideal
            assert rebuilt.standard_monomials == ideal.standard_monomials


def test_equal_ideals_built_apart_hash_equal():
    # the annihilator of (C, 3C) for C the companion matrix of t^2 - 2,
    # and the same reduced basis written by hand
    c = Matrix.companion(UniPoly(QQ, [-2, 0, 1]))
    found = CommutingTuple(QQ, 2, 2, [c, c.scale(3)]).annihilator_ideal()
    written = Ideal.from_groebner_basis(
        QQ,
        2,
        [
            MultiPoly(QQ, 2, {(1, 0): 1, (0, 1): Fraction(-1, 3)}),
            MultiPoly(QQ, 2, {(0, 2): 1, (0, 0): -18}),
        ],
    )
    assert found == written
    assert hash(found) == hash(written) == hash(written)
    assert {found: 1}[written] == 1
    assert hash(written) == hash((QQ, 2, written.gens))
    for name in ("gens", "standard_monomials"):
        with pytest.raises(AttributeError):
            setattr(written, name, None)
    assert hash(written) == hash(found)


def test_ideal_requires_zero_dimensionality():
    x1 = MultiPoly.variable(QQ, 2, 0)
    with pytest.raises(ValueError, match="zero-dimensional"):
        Ideal.from_groebner_basis(QQ, 2, [x1])


# -- radical ---------------------------------------------------------------------------


def test_radical_examples():
    tJ = CommutingTuple(QQ, 1, 2, [J])
    rad = tJ.radical_submodule()
    assert rad == Subspace(QQ, 2, [(1, 0)])

    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    assert diag.radical_submodule().dim == 0
    ident = CommutingTuple(QQ, 1, 2, [Matrix.identity(QQ, 2)])
    assert ident.radical_submodule().dim == 0


def test_radical_filtration_examples():
    J3 = Matrix(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    layers = CommutingTuple(QQ, 1, 3, [J3]).radical_filtration()
    assert [l.dim for l in layers] == [1, 1, 1]

    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    layers = diag.radical_filtration()
    assert len(layers) == 1 and layers[0].dim == 2

    assert CommutingTuple.zeros(QQ, 1, 0).radical_filtration() == []


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_radical_filtration_properties(field):
    rng = random.Random(24)
    for _ in range(15):
        t = random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 5), rng)
        layers = t.radical_filtration()
        assert sum(l.dim for l in layers) == t.dim
        for layer in layers:
            assert layer.radical_submodule().dim == 0  # semisimple


# -- primary decomposition ----------------------------------------------------------------


def test_primary_decomposition_examples():
    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    pieces = diag.primary_decomposition()
    assert [s.basis for s, _ in pieces] == [
        ((QQ.one, QQ.zero),),
        ((QQ.zero, QQ.one),),
    ]

    tJ = CommutingTuple(QQ, 1, 2, [J])
    pieces = tJ.primary_decomposition()
    assert len(pieces) == 1 and pieces[0][0].dim == 2

    blk = Matrix.block_diag(
        F3, [Matrix.companion(UniPoly(F3, [1, 0, 1])), Matrix(F3, [[1]])]
    )
    pieces = CommutingTuple(F3, 1, 3, [blk]).primary_decomposition()
    assert sorted(s.dim for s, _ in pieces) == [1, 2]


def test_primary_decomposition_checks_each_piece_once(monkeypatch):
    t = CommutingTuple(QQ, 1, 3, [Matrix(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 5]])])
    checked = []
    check = modules._invariant_maps

    def counting(maps, B, rs, *rest, **kwargs):
        if maps is t._maps:
            checked.append(Subspace._row_space(B.transpose()))
        return check(maps, B, rs, *rest, **kwargs)

    monkeypatch.setattr(modules, "_invariant_maps", counting)
    pieces = t._local_pieces()
    # one split into two pieces, and one invariance check for each
    assert len(checked) == 2
    assert set(checked) == {Subspace._row_space(w) for w, _ in pieces}
    # primary_decomposition checks each piece once more, as it restricts
    # to the canonical basis it returns
    checked.clear()
    pieces = t.primary_decomposition()
    assert len(checked) == 4 and set(checked) == {s for s, _ in pieces}


def test_equal_keys_share_one_object():
    rng = random.Random(26)
    t = random_commuting_tuple(QQ, 2, 5, rng)
    first, second = k0_class(t), k0_class(t)
    assert first == second
    for key in first.support:
        assert next(k for k in second.support if k == key) is key


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_primary_decomposition_properties(field):
    rng = random.Random(25)
    for _ in range(15):
        t = random_commuting_tuple(field, rng.randint(1, 3), rng.randint(1, 5), rng)
        pieces = t.primary_decomposition()
        assert sum(s.dim for s, _ in pieces) == t.dim
        stacked = Subspace(
            field, t.dim, [v for s, _ in pieces for v in s.basis]
        )
        assert stacked.dim == t.dim
        for _, piece in pieces:
            for m in piece.mats:
                assert len(factor_univariate(minimal_polynomial(m))) <= 1


# -- maximal ideal keys -----------------------------------------------------------------


def test_maximal_ideal_key_examples():
    tJ = CommutingTuple(QQ, 1, 2, [J])
    key = tJ.maximal_ideal_key()
    assert key.ideal.generator_strings() == ("t",) and key.residue_degree == 1

    pair = CommutingTuple(F2, 2, 2, [Matrix(F2, [[0, 1], [0, 0]]), Matrix.zeros(F2, 2, 2)])
    key = pair.maximal_ideal_key()
    assert key.ideal.generator_strings() == ("t1", "t2") and key.residue_degree == 1

    comp = CommutingTuple(F3, 1, 2, [Matrix.companion(UniPoly(F3, [1, 0, 1]))])
    key = comp.maximal_ideal_key()
    assert key.ideal.generator_strings() == ("t^2 + 1",) and key.residue_degree == 2


def test_maximal_ideal_key_rejects_nonlocal():
    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    with pytest.raises(ValueError, match="not local"):
        diag.maximal_ideal_key()
    with pytest.raises(ValueError):
        CommutingTuple.zeros(QQ, 1, 0).maximal_ideal_key()


def test_keys_are_field_quotients():
    # quotient_is_field shares _split_or_field with the key path, so every
    # F_p key with p^k <= 4096 is also checked by enumerating k[T]/M
    rng = random.Random(26)
    cases = []
    for field in (F2, F3, QQ):
        for _ in range(6):
            t = random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 4), rng)
            for _, key in t._local_pieces():
                cases.append(key)
    for field in (F2, F3):
        quadratic, cubic = (UniPoly(field, c) for c in IRREDUCIBLES[field])
        # a residue field of degree 6, and pairs of points that share each
        # coordinate's minimal polynomial, which only the field test splits
        tuples = [compositum(quadratic, cubic)]
        for q in (quadratic, cubic):
            tuples.append(conjugate(CommutingTuple.direct_sum(*twisted_points(q, rng)), rng))
        for t in tuples:
            cases += [key for _, key in t._local_pieces()]
    enumerated = []
    for key in cases:
        assert quotient_is_field(key.ideal)
        assert key.residue_degree == key.ideal.quotient_dim
        p = key.ideal.field.characteristic
        if p and p**key.residue_degree <= 4096:
            assert field_by_enumeration(key.ideal)
            enumerated.append(key.residue_degree)
    assert len(enumerated) == 26 and enumerated.count(6) == 2


def test_quotient_is_field_rejects_nonmaximal():
    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    assert not quotient_is_field(diag.annihilator_ideal())  # k x k
    tJ = CommutingTuple(QQ, 1, 2, [J])
    assert not quotient_is_field(tJ.annihilator_ideal())  # k[t]/(t^2)
    for field in (QQ, F2):
        for n in (1, 2):
            # the unit ideal: k[T]/I is the zero ring
            assert not quotient_is_field(CommutingTuple.zeros(field, n, 0).annihilator_ideal())


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_keys_render_their_own_term_tuples(field):
    # a key's text, read off its term tuples, is its ideal's, generator by
    # generator, for keys from the q_i, from a socle and from a simple piece
    rng = random.Random(39)
    seen = 0
    for _ in range(12):
        t = random_commuting_tuple(field, rng.randint(2, 3), rng.randint(1, 5), rng)
        for _, key in t._local_pieces():
            strings = key.ideal.generator_strings()
            assert key.generator_strings() == strings
            assert repr(key) == f"MaximalIdealKey([{', '.join(strings)}])"
            assert key.sort_key() == (key.residue_degree, strings)
            seen += len(strings) > 1
    assert seen


# -- the exact field test ----------------------------------------------------


def field_by_enumeration(ideal):
    """The reference over F_p: a reduced k[T]/I is a field iff
    multiplication by each of its p^k - 1 nonzero elements is
    invertible."""
    F, k = ideal.field, ideal.quotient_dim
    for coeffs in product(range(F.characteristic), repeat=k):
        if any(coeffs):
            elem = MultiPoly(F, ideal.nvars, dict(zip(ideal.standard_monomials, coeffs)))
            if len(rref(multiplication_matrix(ideal, elem))[1]) < k:
                return False
    return True


def multiplication_factors(ideal, g):
    return factor_univariate(charpoly(multiplication_matrix(ideal, g)))


def compositum(q1, q2):
    """The point (C_1 (x) 1, 1 (x) C_2), C_i the companion matrix of q_i:
    for irreducibles of coprime degrees its residue field has degree
    deg q_1 * deg q_2, which neither coordinate alone generates."""
    F = q1.field
    zeros = [Matrix.zeros(F, q.degree, q.degree) for q in (q1, q2)]
    a = CommutingTuple(F, 2, q1.degree, [Matrix.companion(q1), zeros[0]])
    b = CommutingTuple(F, 2, q2.degree, [zeros[1], Matrix.companion(q2)])
    return tensor(a, b)


def scalar_point(field, a, b):
    return CommutingTuple(field, 2, 1, [Matrix(field, [[a]]), Matrix(field, [[b]])])


# a quadratic and a cubic irreducible over each field
IRREDUCIBLES = {
    F2: ([1, 1, 1], [1, 1, 0, 1]),
    F3: ([1, 0, 1], [1, 2, 0, 1]),
    F5: ([2, 0, 1], [1, 1, 0, 1]),
}


def split_or_field(ideal):
    """``_split_or_field`` on the regular representation of k[T]/I."""
    return modules._split_or_field(ideal, modules._regular_maps(ideal))


def field_test_cases(field, rng):
    """(tuple, is_field): twisted points, alone and summed, in a random
    basis; a twisted pair with one or two rational points, so 3 or 4
    points; and a compositum point, whose residue field has degree 6.
    is_field tells whether Ann(V) is maximal."""
    quadratic, cubic = (UniPoly(field, c) for c in IRREDUCIBLES[field])
    for q in (quadratic, cubic):
        for _ in range(3):
            points = twisted_points(q, rng)
            distinct = points[0] != points[1]
            yield conjugate(CommutingTuple.direct_sum(*points), rng), not distinct
            yield points[0], True
    points = twisted_points(quadratic, rng)
    rational = [scalar_point(field, 1, 0), scalar_point(field, 0, 1)]
    for extra in (rational[:1], rational):
        yield conjugate(CommutingTuple.direct_sum(*points, *extra), rng), False
    yield compositum(quadratic, cubic), True


@pytest.mark.parametrize("field", [F2, F3, F5], ids=field_id)
def test_field_test_matches_enumeration(field, monkeypatch):
    # the ideals are Ann(V) of each case and those the key step hands the
    # field test on its way to the class, Ann(s) of a socle vector on
    # several points; the reference enumerates k[T]/I where p^k <= 4096
    rng = random.Random(50)
    recorded, known = [], {}
    original = modules._split_or_field

    def recording(ideal, ts):
        recorded.append(ideal)
        return original(ideal, ts)

    monkeypatch.setattr(modules, "_split_or_field", recording)
    for t, is_field in field_test_cases(field, rng):
        k0_class(t)
        known[t.annihilator_ideal()] = is_field
    monkeypatch.undo()
    assert recorded  # the key step ran the field test

    def no_factoring(f):
        raise AssertionError("the field test over F_p factors a polynomial")

    monkeypatch.setattr(modules, "factor_univariate", no_factoring)
    p = field.characteristic
    enumerated = set()
    for ideal in [*recorded, *known]:
        g = split_or_field(ideal)
        if ideal in known:
            assert (g is None) == known[ideal]
        if p**ideal.quotient_dim <= 4096:
            assert (g is None) == field_by_enumeration(ideal)
            enumerated.add(g is None)
        if g is not None:
            # g^p = g, and g takes two distinct values
            m = multiplication_matrix(ideal, g)
            assert m.pow(p) == m
            assert len(multiplication_factors(ideal, g)) >= 2
    assert enumerated == {True, False}


def test_field_test_at_large_primes():
    # Frobenius powers by 61-bit and 20-bit p: twisted points are fields
    # one at a time, and their sum splits
    for field, a in ((P61, 3), (GF(1000003), 2)):
        p = field.characteristic
        rng = random.Random(51)
        points = twisted_points(UniPoly(field, [p - a, 0, 1]), rng)
        assert points[0] != points[1]
        for point in points:
            assert split_or_field(point.annihilator_ideal()) is None
        ideal = CommutingTuple.direct_sum(*points).annihilator_ideal()
        g = split_or_field(ideal)
        assert len(multiplication_factors(ideal, g)) == 2
        assert quotient_is_field(points[0].annihilator_ideal())
        assert not quotient_is_field(ideal)


def test_quotient_is_field_builds_the_regular_maps_once(monkeypatch):
    # the radical test and _split_or_field share one regular representation
    rng = random.Random(53)
    cases = [
        (fat_point(F3, 2, 2).annihilator_ideal(), False),  # not reduced
        (compositum(UniPoly(QQ, [-2, 0, 1]), UniPoly(QQ, [-3, 0, 1])).annihilator_ideal(), True),
    ]
    for q in (UniPoly(F2, [1, 1, 1]), UniPoly(QQ, [-2, 0, 1])):
        points = twisted_points(q, rng)
        while points[0] == points[1]:
            points = twisted_points(q, rng)
        cases.append((points[0].annihilator_ideal(), True))
        cases.append((CommutingTuple.direct_sum(*points).annihilator_ideal(), False))
    calls = []
    original = modules._regular_maps

    def counted(ideal):
        calls.append(ideal)
        return original(ideal)

    monkeypatch.setattr(modules, "_regular_maps", counted)
    for ideal, is_field in cases:
        calls.clear()
        assert quotient_is_field(ideal) == is_field
        assert calls == [ideal]


def test_field_test_over_q_tries_few_linear_forms(monkeypatch):
    # Q(sqrt 2, sqrt 3) is a field, but t1 (c = 0) has characteristic
    # polynomial (t^2 - 2)^2 and decides nothing; t1 + t2 decides.  On k
    # points in n variables at most (n - 1) C(k, 2) values of c fail
    tries = []
    original = modules.charpoly

    def counted(m):
        tries.append(m)
        return original(m)

    def field_test(ideal):
        tries.clear()
        monkeypatch.setattr(modules, "charpoly", counted)
        g = split_or_field(ideal)
        monkeypatch.undo()
        k = ideal.quotient_dim
        assert 1 <= len(tries) <= (ideal.nvars - 1) * comb(k, 2) + 1
        return g

    ideal = compositum(UniPoly(QQ, [-2, 0, 1]), UniPoly(QQ, [-3, 0, 1])).annihilator_ideal()
    assert ideal.quotient_dim == 4
    assert field_test(ideal) is None and len(tries) == 2
    assert quotient_is_field(ideal)
    # twisted sqrt(a) points, alone, summed, and the key step's ideals
    rng = random.Random(52)
    ideals = []
    recorded = modules._split_or_field

    def recording(ideal, ts):
        ideals.append(ideal)
        return recorded(ideal, ts)

    for a in (2, 3, 5):
        for _ in range(3):
            points = twisted_points(UniPoly(QQ, [-a, 0, 1]), rng)
            for point in points:
                assert field_test(point.annihilator_ideal()) is None
            t = CommutingTuple.direct_sum(*points)
            if points[0] != points[1]:
                ideals.append(t.annihilator_ideal())
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(modules, "_split_or_field", recording)
                k0_class(conjugate(t, rng))
    assert len(ideals) > 9
    for ideal in ideals:
        g = field_test(ideal)
        assert len(multiplication_factors(ideal, g)) >= 2
        assert not quotient_is_field(ideal)


def test_multiplication_matrix():
    comp = CommutingTuple(F3, 1, 2, [Matrix.companion(UniPoly(F3, [1, 0, 1]))])
    ideal = comp.annihilator_ideal()
    mt = multiplication_matrix(ideal, MultiPoly.variable(F3, 1, 0))
    # multiplication by t on basis {1, t} modulo t^2+1 is the companion matrix
    assert mt == Matrix.companion(UniPoly(F3, [1, 0, 1]))


def test_key_equality_and_ordering():
    tJ = CommutingTuple(QQ, 1, 2, [J])
    k1 = tJ.maximal_ideal_key()
    k2 = CommutingTuple(QQ, 1, 1, [Matrix.zeros(QQ, 1, 1)]).maximal_ideal_key()
    assert k1 == k2 and hash(k1) == hash(k2)
    k3 = CommutingTuple(QQ, 1, 1, [Matrix.identity(QQ, 1)]).maximal_ideal_key()
    assert k1 != k3
    assert k1.sort_key() < k3.sort_key()  # "t" sorts before "t - 1"


# -- stability under quotients ----------------------------------------------------------


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_class_support_stable_under_quotient(field):
    rng = random.Random(27)
    for _ in range(12):
        t = random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 5), rng)
        base_support = set(k0_class(t).support)
        s = t.generated_submodule([random_vector(field, t.dim, rng)])
        for derived in (t.restrict(s), t.quotient(s)):
            assert set(k0_class(derived).support) <= base_support
