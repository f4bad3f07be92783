import random

import pytest

from endok.bruteforce import random_commuting_tuple, random_vector
from endok.errors import FieldMismatchError, NonCommutingError
from endok.factor import factor_univariate
from endok.fields import GF, QQ
from endok.ktheory import k0_class
from endok.linalg import (
    Matrix,
    Subspace,
    eval_poly_at_matrix,
    minimal_polynomial,
)
from endok.modules import (
    CommutingTuple,
    Ideal,
    InvariantSubmodule,
    MaximalIdealKey,
    multiplication_matrix,
    quotient_is_field,
)
from endok.poly import MultiPoly, UniPoly

from conftest import ALL_FIELDS, field_id

F2, F3 = GF(2), GF(3)
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


def test_invariant_submodule_rejects_noninvariant():
    t = CommutingTuple(QQ, 1, 2, [J])
    with pytest.raises(ValueError):
        InvariantSubmodule(t, Subspace(QQ, 2, [(0, 1)]))  # span e2 not J-stable


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
        for s in (
            t.generated_submodule([random_vector(field, d, rng)]),
            t.generated_submodule([]),
            InvariantSubmodule(t, Subspace.full(field, d)),
        ):
            sp = s.space
            comp = sp.complement_coords()

            def combine(coeffs):
                out = [F.zero] * d
                for b, c in zip(sp.basis, coeffs):
                    out = [F.add(x, F.mul(c, y)) for x, y in zip(out, b)]
                return tuple(out)

            def project(v):
                w = combine([v[p] for p in sp.pivots])
                return tuple(F.sub(v[c], w[c]) for c in comp)

            sub, quo = t.restrict(s), t.quotient(s)
            for f, r, q in zip(t.mats, sub.mats, quo.mats):
                for j, b in enumerate(sp.basis):
                    assert f.mul_vec(b) == combine(r.column(j))
                for c in comp:
                    e = tuple(F.one if i == c else F.zero for i in range(d))
                    assert project(f.mul_vec(e)) == q.mul_vec(project(e))


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
    assert ideal.contains(MultiPoly.one(QQ, 2))


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
            nf = ideal.normal_form(p)
            val = eval_poly_at_matrix(p, list(t.mats))
            assert val == eval_poly_at_matrix(nf, list(t.mats))
            assert nf.is_zero == (val == zero)


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


def test_ideal_requires_zero_dimensionality():
    x1 = MultiPoly.variable(QQ, 2, 0)
    with pytest.raises(ValueError, match="zero-dimensional"):
        Ideal.from_groebner_basis(QQ, 2, [x1])


# -- radical ---------------------------------------------------------------------------


def test_radical_examples():
    tJ = CommutingTuple(QQ, 1, 2, [J])
    rad = tJ.radical_submodule()
    assert rad.space == Subspace(QQ, 2, [(1, 0)])

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
    assert [s.space.basis for s, _ in pieces] == [
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


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_primary_decomposition_properties(field):
    rng = random.Random(25)
    for _ in range(15):
        t = random_commuting_tuple(field, rng.randint(1, 3), rng.randint(1, 5), rng)
        pieces = t.primary_decomposition(rng)
        assert sum(s.dim for s, _ in pieces) == t.dim
        stacked = Subspace(
            field, t.dim, [v for s, _ in pieces for v in s.space.basis]
        )
        assert stacked.dim == t.dim
        for _, piece in pieces:
            for m in piece.mats:
                assert len(factor_univariate(minimal_polynomial(m), rng)) <= 1


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
    # the slow independent certificate, test builds only
    rng = random.Random(26)
    cases = []
    for field in (F2, F3, QQ):
        for _ in range(6):
            t = random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 4), rng)
            for _, piece, key in t._local_pieces(rng):
                cases.append(key)
    assert cases
    for key in cases:
        assert quotient_is_field(key.ideal, rng)
        assert key.residue_degree == key.ideal.quotient_dim


def test_quotient_is_field_rejects_nonmaximal():
    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    assert not quotient_is_field(diag.annihilator_ideal())  # k x k
    tJ = CommutingTuple(QQ, 1, 2, [J])
    assert not quotient_is_field(tJ.annihilator_ideal())  # k[t]/(t^2)


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
        base_support = set(k0_class(t, rng).support)
        s = t.generated_submodule([random_vector(field, t.dim, rng)])
        for derived in (t.restrict(s), t.quotient(s)):
            assert set(k0_class(derived, rng).support) <= base_support
