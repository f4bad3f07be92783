import gc
import random
from fractions import Fraction

import pytest

from endok import linalg, modules
from endok.bruteforce import k0_class_oracle, random_commuting_tuple, random_vector
from endok.errors import FieldMismatchError
from endok.factor import factor_univariate
from endok.fields import GF, QQ
from endok.ktheory import (
    GrothendieckClass,
    TildeClass,
    compare_splittings,
    free_abelian_to_tilde,
    k0_class,
    kelley_spanier_split,
    lambda_t,
    principal_maximal_key,
    tilde_to_free_abelian,
    verify_additivity,
)
from endok.linalg import Matrix
from endok.modules import CommutingTuple
from endok.poly import UniPoly

from conftest import ALL_FIELDS, conjugate, field_id

F2, F3, F5 = GF(2), GF(3), GF(5)
J = Matrix(QQ, [[0, 1], [0, 0]])


def rand_ct1_poly(field, rng, max_deg):
    """Random polynomial with constant term exactly 1."""
    coeffs = [field.one] + [field.random_scalar(rng) for _ in range(rng.randint(0, max_deg))]
    return UniPoly(field, coeffs)


def rand_tilde(field, rng, max_deg=8):
    return TildeClass(rand_ct1_poly(field, rng, max_deg), rand_ct1_poly(field, rng, max_deg))


# -- k0_class ---------------------------------------------------------------------


def test_k0_class_examples():
    z = CommutingTuple(QQ, 1, 2, [Matrix.zeros(QQ, 2, 2)])
    assert k0_class(z).lines() == ["2 * [t]"]

    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    assert k0_class(diag).lines() == ["1 * [t]", "1 * [t - 1]"]

    comp = CommutingTuple(F3, 1, 2, [Matrix.companion(UniPoly(F3, [1, 0, 1]))])
    assert k0_class(comp).lines() == ["1 * [t^2 + 1]"]

    pair = CommutingTuple(
        F2, 2, 2, [Matrix(F2, [[0, 1], [0, 0]]), Matrix.zeros(F2, 2, 2)]
    )
    assert k0_class(pair).lines() == ["2 * [t1, t2]"]

    assert k0_class(CommutingTuple.zeros(QQ, 1, 0)).is_zero


def test_class_group_operations():
    z = CommutingTuple(QQ, 1, 2, [Matrix.zeros(QQ, 2, 2)])
    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    a = k0_class(z)
    b = k0_class(diag)
    assert (a - a).is_zero
    assert (a + b).lines() == ["3 * [t]", "1 * [t - 1]"]
    assert a + b - b == a
    # pairs at one key are added, in any order, and a zero sum is dropped
    k, k2 = (key for key, _ in (a + b).items())
    assert GrothendieckClass(QQ, 1, [(k, 2), (k2, 1), (k, -2)]).support == {k2: 1}
    assert GrothendieckClass(QQ, 1, iter([(k, 1), (k, 2)])).lines() == ["3 * [t]"]
    with pytest.raises(FieldMismatchError):
        GrothendieckClass(F2, 1, [(k, 1)])
    with pytest.raises(FieldMismatchError):
        a + GrothendieckClass.zero(F2, 1)
    with pytest.raises(FieldMismatchError):
        a + GrothendieckClass.zero(QQ, 2)


def test_equal_classes_hash_equal():
    # equal values built in different ways are one dict key
    z = CommutingTuple(QQ, 1, 2, [Matrix.zeros(QQ, 2, 2)])
    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    a = k0_class(CommutingTuple.direct_sum(z, diag))
    k, k1 = principal_maximal_key(UniPoly.gen(QQ)), principal_maximal_key(UniPoly(QQ, [-1, 1]))
    b = GrothendieckClass(QQ, 1, [(k1, 2), (k, 3), (k1, -1)])
    assert a == b and hash(a) == hash(b) and {a: "v"}[b] == "v"
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    x = TildeClass(one + t) * TildeClass(one - t)
    y = TildeClass(3 * (one - t * t) * (one + 2 * t), UniPoly.constant(QQ, 3) * (one + 2 * t))
    assert x == y and hash(x) == hash(y) and {x: "v"}[y] == "v"


@pytest.mark.parametrize("mult", [1.5, 2.0, "2", Fraction(3), None], ids=repr)
def test_class_rejects_non_integer_multiplicities(mult):
    # never rounded or parsed: 1.5 is not stored as 1, nor "2" as 2
    key = principal_maximal_key(UniPoly.gen(QQ))
    with pytest.raises(TypeError, match="multiplicity must be an integer"):
        GrothendieckClass(QQ, 1, {key: mult})
    with pytest.raises(TypeError, match="multiplicity must be an integer"):
        GrothendieckClass(QQ, 1, [(key, 1), (key, mult)])
    assert GrothendieckClass(QQ, 1, {key: 2}).multiplicity(key) == 2


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_direct_sum_additivity_and_bookkeeping(field):
    rng = random.Random(31)
    for _ in range(15):
        t1 = random_commuting_tuple(field, 2, rng.randint(1, 3), rng)
        t2 = random_commuting_tuple(field, 2, rng.randint(1, 3), rng)
        both = CommutingTuple.direct_sum(t1, t2)
        assert k0_class(both) == k0_class(t1) + k0_class(t2)
        cls = k0_class(both)
        assert sum(m * k.residue_degree for k, m in cls.items()) == both.dim
        assert all(m > 0 for _, m in cls.items())


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_additivity_on_generated_submodules(field):
    rng = random.Random(32)
    for _ in range(15):
        t = random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 5), rng)
        s = t.generated_submodule([random_vector(field, t.dim, rng)])
        assert verify_additivity(t, s)
        # the trivial submodules are degenerate cases of the same identity
        assert verify_additivity(t, t.generated_submodule([]))


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_devissage(field):
    rng = random.Random(33)
    for _ in range(12):
        t = random_commuting_tuple(field, rng.randint(1, 2), rng.randint(1, 5), rng)
        total = GrothendieckClass.zero(field, t.nvars)
        for layer in t.radical_filtration():
            total = total + k0_class(layer)
        assert total == k0_class(t)


# -- n = 1: the factored characteristic polynomial against the structural path ------


# p^dim up to which the brute-force oracle runs here: its enumeration of
# subspaces takes 0.3 s at F2 dim 6 and 50 s at F2 dim 8
ORACLE_BOUND = 81


def structural_class(t):
    """The class summed over the local pieces that ``_local_pieces`` builds:
    the path every tuple with n >= 2 takes."""
    support = {}
    for w, key in t._local_pieces():
        support[key] = support.get(key, 0) + w.rows // key.residue_degree
    return GrothendieckClass(t.field, t.nvars, support)


def assert_matches_structural(t):
    cls = k0_class(t)
    structural = structural_class(t)
    assert cls == structural, (t, cls, structural)
    same = {key: key for key in structural.support}
    assert all(key is same[key] for key in cls.support)
    F = t.field
    if F.is_prime_field and F.characteristic**t.dim <= ORACLE_BOUND:
        assert cls == k0_class_oracle(t)


def single(m):
    return CommutingTuple(m.field, 1, m.rows, [m])


def companion_sum(field, specs, rng):
    """One endomorphism: companion blocks of q^e for (coefficients of q,
    e) in specs, in a seeded random basis."""
    blocks = [Matrix.companion(UniPoly(field, q) ** e) for q, e in specs]
    return conjugate(single(Matrix.block_diag(field, blocks)), rng)


def jordan_sum(field, sizes, rng):
    """Nilpotent Jordan blocks of the given sizes, in a seeded random basis."""
    blocks = [
        Matrix(field, [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k)])
        for k in sizes
    ]
    return conjugate(single(Matrix.block_diag(field, blocks)), rng)


# irreducibles, lowest coefficient first, with repeated and mixed degrees
COMPANION_SPECS = {
    F2: [([0, 1], 2), ([1, 1], 1), ([1, 1], 3), ([1, 1, 1], 2), ([1, 1, 1], 1)],
    F3: [([1, 0, 1], 2), ([1, 0, 1], 1), ([1, 1], 2), ([2, 2, 0, 1], 1)],
    GF(97): [([92, 0, 1], 2), ([94, 1], 3), ([94, 1], 1), ([0, 1], 1)],
    QQ: [([-2, 0, 1], 2), ([-2, 0, 1], 1), ([-1, 1], 2), ([2, 0, 0, 1], 1), ([0, 1], 1)],
}


@pytest.mark.parametrize("field", [F2, F3, GF(97), QQ], ids=field_id)
def test_single_endomorphism_matches_structural_path(field):
    rng = random.Random(f"n=1 {field!r}")
    for d in (0, 1, 2, 3, 4, 6, 8, 11, 16, 20, 24):
        assert_matches_structural(random_commuting_tuple(field, 1, d, rng))
    specs = COMPANION_SPECS[field]
    for k in range(1, len(specs) + 1):
        assert_matches_structural(companion_sum(field, specs[:k], rng))
    for sizes in ((1,), (3,), (2, 2, 1), (4, 3, 3, 1)):
        assert_matches_structural(jordan_sum(field, sizes, rng))
    for d in (0, 1, 5):
        assert_matches_structural(CommutingTuple.zeros(field, 1, d))


def test_single_endomorphism_builds_no_pieces(monkeypatch):
    """One endomorphism's class needs no piece and no kernel."""
    rng = random.Random(42)
    cases = [
        companion_sum(QQ, COMPANION_SPECS[QQ], rng),
        companion_sum(F2, COMPANION_SPECS[F2], rng),
        jordan_sum(F3, (2, 1), rng),
        CommutingTuple.zeros(QQ, 1, 0),
    ]
    expected = [structural_class(t).lines() for t in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the n = 1 class built a piece or a kernel")

    monkeypatch.setattr(CommutingTuple, "_local_pieces", forbidden)
    monkeypatch.setattr(modules, "_kernel_rows", forbidden)
    monkeypatch.setattr(linalg, "_kernel_rows", forbidden)
    monkeypatch.setattr(linalg, "kernel_basis", forbidden)
    assert [k0_class(t).lines() for t in cases] == expected


def test_principal_keys_are_shared():
    rng = random.Random(43)
    t = companion_sum(QQ, COMPANION_SPECS[QQ], rng)
    cls = k0_class(t)
    image = tilde_to_free_abelian(TildeClass(lambda_t(t.mats[0])))
    same = {key: key for key in cls.support}
    # every key but (t), as the same objects
    assert len(image.support) == len(cls.support) - 1
    assert all(key is same[key] for key in image.support)
    q = UniPoly(QQ, [-2, 0, 1])
    assert principal_maximal_key(q) is principal_maximal_key(q)
    # the split loop's key of the n = 1 tuple (C) is the same object
    piece = CommutingTuple(QQ, 1, 2, [Matrix.companion(q)])
    assert piece.maximal_ideal_key() is principal_maximal_key(q)
    for bad in (UniPoly(QQ, [1, 2]), UniPoly.one(QQ)):
        with pytest.raises(ValueError, match="monic polynomial of degree >= 1"):
            principal_maximal_key(bad)


@pytest.mark.parametrize(
    "field, coeffs", [(QQ, [-1, 0, 1]), (F5, [1, 0, 1]), (F2, [0, 0, 1]), (QQ, [2, -3, 1])]
)
def test_principal_maximal_key_rejects_a_reducible_polynomial(field, coeffs):
    # (t^2 - 1) over Q, (t^2 + 1) over F_5, (t^2) and ((t - 1)(t - 2)) are
    # no maximal ideals: no key is made for them, as class_from_json makes
    # none for a non-maximal ideal
    q = UniPoly(field, coeffs)
    gc.collect()
    live = len(modules._KEYS)
    with pytest.raises(ValueError, match="not a maximal ideal"):
        principal_maximal_key(q)
    assert len(modules._KEYS) == live


# -- lambda_t -----------------------------------------------------------------------


def test_lambda_examples():
    assert lambda_t(Matrix.zeros(QQ, 3, 3)).is_one
    assert str(lambda_t(Matrix.identity(QQ, 2))) == "t^2 + 2*t + 1"
    comp = Matrix.companion(UniPoly(F3, [1, 0, 1]))
    assert str(lambda_t(comp)) == "t^2 + 1"


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_lambda_multiplicative_on_blocks(field):
    rng = random.Random(34)
    for _ in range(20):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        if field.is_prime_field:
            p = field.characteristic
            f = Matrix(field, [[rng.randrange(p) for _ in range(d1)] for _ in range(d1)])
            g = Matrix(field, [[rng.randrange(p) for _ in range(d2)] for _ in range(d2)])
        else:
            f = Matrix(field, [[rng.randint(-3, 3) for _ in range(d1)] for _ in range(d1)])
            g = Matrix(field, [[rng.randint(-3, 3) for _ in range(d2)] for _ in range(d2)])
        both = Matrix.block_diag(field, [f, g])
        assert lambda_t(both) == lambda_t(f) * lambda_t(g)
        assert lambda_t(both).constant_term == field.one


def test_lambda_kills_nilpotents():
    for d in range(1, 5):
        n = Matrix(QQ, [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d)])
        assert lambda_t(n).is_one


# -- splitting -------------------------------------------------------------------------


def test_kelley_spanier_split_examples():
    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    rank, tilde = kelley_spanier_split(diag)
    assert rank == 2 and str(tilde) == "t + 1"

    tJ = CommutingTuple(QQ, 1, 2, [J])
    rank, tilde = kelley_spanier_split(tJ)
    assert rank == 2 and tilde.is_one

    comp = CommutingTuple(F3, 1, 2, [Matrix.companion(UniPoly(F3, [1, 0, 1]))])
    rank, tilde = kelley_spanier_split(comp)
    assert rank == 2 and str(tilde) == "t^2 + 1"

    pair = CommutingTuple(QQ, 2, 1, [Matrix(QQ, [[1]]), Matrix(QQ, [[1]])])
    with pytest.raises(ValueError):
        kelley_spanier_split(pair)


# -- tilde group -------------------------------------------------------------------------


def test_tilde_group_examples():
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    a = TildeClass(one + t)
    assert (a * a.inverse()).is_one
    b = TildeClass(one + 2 * t + t * t, one + t)
    assert b == a  # cancellation
    assert str(a.inverse()) == "(1)/(t + 1)"


def test_tilde_normalization_and_errors():
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    scaled = TildeClass(2 * (one + t), UniPoly.constant(QQ, 2))
    assert scaled == TildeClass(one + t)
    with pytest.raises(ValueError):
        TildeClass(t)  # constant term 0
    with pytest.raises(ValueError):
        TildeClass(one + t, UniPoly.constant(QQ, 3))  # mismatched constants
    with pytest.raises(ValueError):
        TildeClass(UniPoly.zero(QQ))
    with pytest.raises(FieldMismatchError):
        TildeClass(UniPoly.one(QQ), UniPoly.one(F2))


def test_tilde_to_free_abelian_examples():
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    assert tilde_to_free_abelian(TildeClass.one(QQ)).is_zero
    # 1 + t = lambda of the eigenvalue 1, i.e. the maximal ideal (t - 1)
    img = tilde_to_free_abelian(TildeClass(one + t))
    assert img.lines() == ["1 * [t - 1]"]
    img = tilde_to_free_abelian(TildeClass(one + 2 * t + t * t, one + t))
    assert img.lines() == ["1 * [t - 1]"]


def test_free_abelian_to_tilde_examples():
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    assert free_abelian_to_tilde(GrothendieckClass.zero(QQ, 1)).is_one
    c = free_abelian_to_tilde(
        GrothendieckClass(QQ, 1, {principal_maximal_key(t - one): 1})
    )
    assert str(c) == "t + 1"
    c = free_abelian_to_tilde(
        GrothendieckClass(QQ, 1, {principal_maximal_key(t + one): -1})
    )
    assert str(c) == "(1)/(-t + 1)"


def test_free_abelian_to_tilde_rejects_t_and_wrong_arity():
    t = UniPoly.gen(QQ)
    cls = GrothendieckClass(QQ, 1, {principal_maximal_key(t): 1})
    with pytest.raises(ValueError, match="no tilde image"):
        free_abelian_to_tilde(cls)
    with pytest.raises(ValueError):
        free_abelian_to_tilde(GrothendieckClass.zero(QQ, 2))


@pytest.mark.parametrize("field", [QQ, F5], ids=field_id)
def test_corollary_homomorphism_and_roundtrips(field):
    rng = random.Random(35)
    for _ in range(60):
        a = rand_tilde(field, rng)
        b = rand_tilde(field, rng)
        assert tilde_to_free_abelian(a * b) == tilde_to_free_abelian(
            a
        ) + tilde_to_free_abelian(b)
        # tilde -> class -> tilde
        assert free_abelian_to_tilde(tilde_to_free_abelian(a)) == a
    # class -> tilde -> class on random classes over irreducibles != t
    t = UniPoly.gen(field)
    one = UniPoly.one(field)
    irreducibles = []
    seen = set()
    while len(irreducibles) < 6:
        q = UniPoly(
            field,
            [field.random_scalar(rng) for _ in range(rng.randint(1, 4))] + [field.one],
        )
        if q.constant_term and factor_univariate(q) == [(q, 1)] and q not in seen:
            seen.add(q)
            irreducibles.append(q)
    for _ in range(30):
        support = {}
        for q in rng.sample(irreducibles, rng.randint(1, 4)):
            support[principal_maximal_key(q)] = rng.choice([-3, -2, -1, 1, 2, 3])
        cls = GrothendieckClass(field, 1, support)
        assert tilde_to_free_abelian(free_abelian_to_tilde(cls)) == cls


def test_kernel_of_tilde_map_is_trivial():
    rng = random.Random(36)
    for field in (QQ, F5):
        for _ in range(20):
            a = rand_tilde(field, rng)
            if tilde_to_free_abelian(a).is_zero:
                assert a.is_one


# -- comparison -----------------------------------------------------------------------


def test_compare_splittings_examples():
    diag = CommutingTuple(QQ, 1, 2, [Matrix(QQ, [[0, 0], [0, 1]])])
    tJ = CommutingTuple(QQ, 1, 2, [J])
    comp = CommutingTuple(F3, 1, 2, [Matrix.companion(UniPoly(F3, [1, 0, 1]))])
    for t in (diag, tJ, comp):
        assert compare_splittings(t)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=field_id)
def test_compare_splittings_random(field):
    rng = random.Random(37)
    for _ in range(25):
        t = random_commuting_tuple(field, 1, rng.randint(0, 6), rng)
        assert compare_splittings(t)
