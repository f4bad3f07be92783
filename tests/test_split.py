"""The split loop of ``CommutingTuple._local_pieces`` and its key step.

Pieces are split along generalised eigenspaces of the factored
characteristic polynomials, each generator is factored once per lineage,
and a piece on which every generator is primary but which is not local is
split further by the key step: along the element that the exact field
test ``_split_or_field`` names when its first socle vector lies on several
points, or along a generator of that vector's annihilator that does not
kill the whole socle.  Classes are checked against the brute-force oracle
where enumeration is cheap, and against the class fixed by the
construction otherwise.  Every internal check of the loop, given a fault
to catch, ends ``endok class`` with exit 3.
"""

import ast
import heapq
import inspect
import random
import weakref
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import endok.linalg as linalg
import endok.modules as modules
from conftest import (
    conjugate,
    fat_point,
    job_text,
    local_pieces,
    simple_point,
    tensor,
    twisted_points,
)
from endok import _kernels
from endok.bruteforce import (
    DEFAULT_BOUND,
    k0_class_oracle,
    random_commuting_tuple,
    subspace_count,
)
from endok.cli import main
from endok.factor import factor_univariate
from endok.fields import GF, QQ
from endok.ktheory import compare_splittings, k0_class
from endok.linalg import (
    Matrix,
    Subspace,
    _kernel_rows,
    _stack,
    _submatrix,
    charpoly,
    eval_poly_at_matrix,
    kernel_basis,
)
from endok.modules import CommutingTuple, Ideal, quotient_is_field
from endok.poly import MultiPoly, UniPoly, grlex_key

F2, F3, F97 = GF(2), GF(3), GF(97)


def jordan(field, a, size):
    """The Jordan block J_size(a)."""
    return Matrix(
        field,
        [[a if i == j else 1 if j == i + 1 else 0 for j in range(size)] for i in range(size)],
    )


def bookkeeping(cls):
    return sum(mult * key.residue_degree for key, mult in cls.items())


def count_separations(monkeypatch):
    """Count the elements g with which the key step splits a piece: one
    named by the exact field test, or a generator of a socle vector's annihilator
    that does not kill the whole socle."""
    hits = []
    original = modules._key

    def counted(mats, qs):
        key, g = original(mats, qs)
        if key is None:
            hits.append(g)
        return key, g

    monkeypatch.setattr(modules, "_key", counted)
    return hits


def count_separating_elements(monkeypatch):
    """Count the elements that the exact field test names to split a
    piece."""
    hits = []
    original = modules._split_or_field

    def counted(ideal, ts):
        g = original(ideal, ts)
        if g is not None:
            hits.append(g)
        return g

    monkeypatch.setattr(modules, "_split_or_field", counted)
    return hits


# -- pieces on which every generator is primary but which are not local ---------


def test_nonlocal_piece_over_f2_matches_oracle(monkeypatch):
    # W is multiplication by a root w of t^2 + t + 1 on F4; the two blocks
    # are the points (w, w) and (w, w^2), which share each coordinate's
    # minimal polynomial
    hits = count_separations(monkeypatch)
    W = Matrix(F2, [[0, 1], [1, 1]])
    t = CommutingTuple(
        F2,
        2,
        4,
        [Matrix.block_diag(F2, [W, W]), Matrix.block_diag(F2, [W, W @ W])],
    )
    cls = k0_class(t)
    assert cls.lines() == [
        "1 * [t2^2 + t2 + 1, t1 + t2]",
        "1 * [t2^2 + t2 + 1, t1 + t2 + 1]",
    ]
    assert cls == k0_class_oracle(t)
    assert hits
    assert [sub.dim for sub, _ in t.primary_decomposition()] == [2, 2]
    # A = F4 x F4 is reduced but not a field; the shared probe splits it
    assert not quotient_is_field(t.annihilator_ideal())


def test_nonlocal_piece_with_unequal_multiplicities(monkeypatch):
    # the point (w, w) twice and (w, w^2) once: dim V/Jac.V = 6 is not a
    # multiple of dim A = 4, so locality must be decided before the
    # residue-degree bookkeeping is checked
    hits = count_separations(monkeypatch)
    W = Matrix(F2, [[0, 1], [1, 1]])
    t = CommutingTuple(
        F2,
        2,
        6,
        [Matrix.block_diag(F2, [W, W, W]), Matrix.block_diag(F2, [W, W, W @ W])],
    )
    cls = k0_class(t)
    assert cls.lines() == [
        "2 * [t2^2 + t2 + 1, t1 + t2]",
        "1 * [t2^2 + t2 + 1, t1 + t2 + 1]",
    ]
    assert cls == k0_class_oracle(t)
    assert hits
    assert sorted(sub.dim for sub, _ in t.primary_decomposition()) == [2, 4]
    with pytest.raises(ValueError, match="not local"):
        t.maximal_ideal_key()

    # (C, g(C)) + (C, g(C)) + (C, g(C)^p) for C the companion matrix of
    # t^3 + t + 1: two distinct residue fields F8; dim 9 is beyond quick
    # enumeration, so check the summands against the oracle and the sum
    # by additivity
    C = Matrix.companion(UniPoly(F2, [1, 1, 0, 1]))
    gC = C @ C
    a = CommutingTuple(F2, 2, 3, [C, gC])
    b = CommutingTuple(F2, 2, 3, [C, gC.pow(2)])
    assert k0_class(a) == k0_class_oracle(a)
    assert k0_class(b) == k0_class_oracle(b)
    cls = k0_class(CommutingTuple.direct_sum(a, a, b))
    assert cls == k0_class(a) + k0_class(a) + k0_class(b)
    assert sorted(mult for _, mult in cls.items()) == [1, 2]
    assert bookkeeping(cls) == 9


def test_random_direct_sums_match_oracle():
    # dims stay where subspace enumeration is quick (p^dim <= 64 over F2,
    # <= 243 over F3)
    for field, dmax in ((F2, 6), (F3, 5)):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(1, 3)
            d1 = rng.randint(1, dmax - 1)
            d2 = rng.randint(1, dmax - d1)
            t = CommutingTuple.direct_sum(
                random_commuting_tuple(field, n, d1, rng),
                random_commuting_tuple(field, n, d2, rng),
            )
            cls = k0_class(t)
            assert cls == k0_class_oracle(t)
            assert bookkeeping(cls) == t.dim


def test_frobenius_twisted_sums_match_oracle(monkeypatch):
    # (C, g(C)) + (C, g(C)^p) with C the companion matrix of an irreducible
    # q: the points (w, g(w)) and (w, g(w)^p) share each coordinate's
    # minimal polynomial, so only an element the key step names tells
    # them apart
    hits = count_separations(monkeypatch)
    for field, q in (
        (F2, UniPoly(F2, [1, 1, 1])),
        (F2, UniPoly(F2, [1, 1, 0, 1])),
        (F3, UniPoly(F3, [1, 0, 1])),
    ):
        p = field.characteristic
        rng = random.Random(32)
        C = Matrix.companion(q)
        for _ in range(4):
            g = UniPoly(field, [rng.randrange(p) for _ in range(q.degree)])
            gC = eval_poly_at_matrix(g, [C])
            t = CommutingTuple.direct_sum(
                CommutingTuple(field, 2, q.degree, [C, gC]),
                CommutingTuple(field, 2, q.degree, [C, gC.pow(p)]),
            )
            cls = k0_class(t)
            assert cls == k0_class_oracle(t)
            assert bookkeeping(cls) == t.dim
    assert hits


def test_conjugated_twisted_sums_split_both_ways(monkeypatch):
    # in its block basis the first socle vector lies on one point, so its
    # annihilator is maximal and the socle check splits; in a random basis
    # it lies on both, so its annihilator is not maximal and the element
    # the exact field test names splits
    splits = count_separations(monkeypatch)
    separations = count_separating_elements(monkeypatch)
    for q in (
        UniPoly(F2, [1, 1, 1]),
        UniPoly(F2, [1, 1, 0, 1]),
        UniPoly(F3, [1, 0, 1]),
    ):
        rng = random.Random(34)
        for _ in range(4):
            t = CommutingTuple.direct_sum(*twisted_points(q, rng))
            for u in (t, conjugate(t, rng)):
                cls = k0_class(u)
                assert cls == k0_class_oracle(u)
                assert bookkeeping(cls) == u.dim
    assert separations
    assert len(splits) > len(separations)


def test_socle_key_matches_semisimple_quotient_key():
    # every piece's key is the annihilator of its semisimple quotient V/Jac.V
    tuples = []
    for field in (F2, F3, F97, QQ):
        rng = random.Random(35)
        for n in (1, 2, 3):
            for _ in range(4):
                tuples.append(random_commuting_tuple(field, n, rng.randint(1, 8), rng))
    quadratics = [
        UniPoly(F2, [1, 1, 1]),
        UniPoly(F3, [1, 0, 1]),
        UniPoly(F97, [92, 0, 1]),
        UniPoly(QQ, [-2, 0, 1]),
    ]
    for q in quadratics + [UniPoly(F2, [1, 1, 0, 1])]:
        rng = random.Random(36)
        for _ in range(3):
            t = CommutingTuple.direct_sum(*twisted_points(q, rng))
            tuples.append(conjugate(t, rng))
    # non-cyclic fat points, alone and moved to two twisted points: the
    # socle is wider than the residue field, so the socle check runs on
    # local pieces
    for q in quadratics:
        rng = random.Random(37)
        for power in (2, 3):
            fat = fat_point(q.field, 2, power)
            at = [tensor(pt, fat) for pt in twisted_points(q, rng)]
            tuples += [fat, conjugate(CommutingTuple.direct_sum(*at), rng)]
    for t in tuples:
        for _, piece, key in local_pieces(t):
            assert piece.semisimplify().annihilator_ideal() == key.ideal


# -- characteristic-polynomial exponents at or above p --------------------------


def test_exponents_at_least_p_single_endomorphism():
    small = CommutingTuple(
        F2, 1, 5, [Matrix.block_diag(F2, [jordan(F2, 1, 3), jordan(F2, 0, 2)])]
    )
    assert k0_class(small) == k0_class_oracle(small)

    # J_5(1) + J_3(0): charpoly (t + 1)^5 t^3 over F2; p^dim is beyond quick
    # enumeration, so check the class fixed by the construction
    t = CommutingTuple(
        F2, 1, 8, [Matrix.block_diag(F2, [jordan(F2, 1, 5), jordan(F2, 0, 3)])]
    )
    cls = k0_class(t)
    assert cls.lines() == ["3 * [t]", "5 * [t + 1]"]
    assert bookkeeping(cls) == 8
    assert compare_splittings(t)
    assert [sub.dim for sub, _ in t.primary_decomposition()] == [3, 5]


def test_exponents_at_least_p_pair():
    small = Matrix.block_diag(F3, [jordan(F3, 2, 2), jordan(F3, 1, 3)])
    t = CommutingTuple(F3, 2, 5, [small, small @ small])
    assert k0_class(t) == k0_class_oracle(t)

    # (J, J^2) with J = J_3(2) + J_4(1): J^2 has charpoly (t - 1)^7, so it
    # never splits; J does, into the points (2, 1) and (1, 1)
    J = Matrix.block_diag(F3, [jordan(F3, 2, 3), jordan(F3, 1, 4)])
    t = CommutingTuple(F3, 2, 7, [J, J @ J])
    cls = k0_class(t)
    assert cls.lines() == ["3 * [t1 + 1, t2 + 2]", "4 * [t1 + 2, t2 + 2]"]
    assert bookkeeping(cls) == 7


# -- the zero module ------------------------------------------------------------


def test_dim_zero_tuple():
    for field in (F2, F97):
        z = CommutingTuple.zeros(field, 2, 0)
        assert k0_class(z).is_zero
        assert z.primary_decomposition() == []
        assert z.radical_submodule().dim == 0


# -- work done per class ---------------------------------------------------------


def test_no_minimal_polynomials_and_one_factorization_per_generator(monkeypatch):
    rng = random.Random(33)
    t = CommutingTuple.direct_sum(
        random_commuting_tuple(F97, 3, 5, rng, block_split=False),
        random_commuting_tuple(F97, 3, 6, rng, block_split=False),
    )
    minpolys, charpolys, factor_calls = [], [], []
    original_charpoly = modules.charpoly
    original_factor = modules.factor_univariate

    def recording_charpoly(m):
        charpolys.append(m)  # keeps m alive, so ids stay unique
        return original_charpoly(m)

    def counting_factor(f):
        factor_calls.append(f)
        return original_factor(f)

    # modules imports no minimal_polynomial; one called through linalg is
    # recorded
    assert not hasattr(modules, "minimal_polynomial")
    monkeypatch.setattr(linalg, "minimal_polynomial", minpolys.append)
    monkeypatch.setattr(modules, "charpoly", recording_charpoly)
    monkeypatch.setattr(modules, "factor_univariate", counting_factor)

    cls = k0_class(t)
    assert bookkeeping(cls) == t.dim and len(cls.items()) >= 2
    assert minpolys == []
    # each factorization is of a distinct matrix's characteristic polynomial
    assert len(factor_calls) == len(charpolys)
    assert len({id(m) for m in charpolys}) == len(charpolys)
    # children inherit the split generator's q, and a child where it has
    # full degree is simple, so nothing more is factored on it: at most n
    # factorizations at the root and n - 1 on each piece that is not
    # simple, which here is one piece of six
    simple = [mult == 1 for _, mult in cls.items()]
    assert simple.count(False) == 1
    assert len(factor_calls) <= t.nvars + (t.nvars - 1) * simple.count(False)


def split_cases():
    """n = 2 tuples in random bases that split and whose pieces reach the
    socle path: twisted points over F_2, F_97 and Q, and non-cyclic fat
    points moved onto them."""
    for q in (UniPoly(F2, [1, 1, 1]), UniPoly(F97, [92, 0, 1]), UniPoly(QQ, [-2, 0, 1])):
        rng = random.Random(43)
        points = twisted_points(q, rng)
        fat = fat_point(q.field, 2, 2)
        yield conjugate(CommutingTuple.direct_sum(*points), rng)
        yield conjugate(CommutingTuple.direct_sum(*(tensor(pt, fat) for pt in points)), rng)


def test_split_builds_no_tuples(monkeypatch, tmp_path, capsys):
    # the split loop carries matrices: no CommutingTuple, with its
    # pairwise commutation check, is built inside _local_pieces, for the
    # class or for endok decompose
    built, inside, socles = [], [], []
    init = CommutingTuple.__init__
    split = CommutingTuple._local_pieces
    kernel_rows = modules._kernel_rows

    def counted_init(self, *args):
        if inside:
            built.append(args)
        init(self, *args)

    def marked(self):
        inside.append(self)
        try:
            return split(self)
        finally:
            inside.pop()

    def socle(m):
        socles.append(m)
        return kernel_rows(m)

    monkeypatch.setattr(CommutingTuple, "__init__", counted_init)
    monkeypatch.setattr(CommutingTuple, "_local_pieces", marked)
    monkeypatch.setattr(modules, "_kernel_rows", socle)
    path = tmp_path / "job.txt"
    for t in split_cases():
        socles.clear()
        assert len(k0_class(t).items()) >= 2
        assert socles
        path.write_text(job_text(t))
        assert main(["decompose", str(path)]) == 0
        assert "piece 2:" in capsys.readouterr().out
    assert built == []


def test_key_builds_no_quotient(monkeypatch):
    # pieces are keyed from one socle vector: no semisimple quotient, and
    # every annihilator taken on the class path is of a single column
    quotients, starts = [], []
    original_quotient = CommutingTuple.quotient
    original_annihilator = modules._annihilator

    def counting_quotient(self, s):
        quotients.append(s)
        return original_quotient(self, s)

    def recording_annihilator(mats, start):
        starts.append(start)
        return original_annihilator(mats, start)

    monkeypatch.setattr(CommutingTuple, "quotient", counting_quotient)
    monkeypatch.setattr(modules, "_annihilator", recording_annihilator)
    rng = random.Random(38)
    for field, n in ((F97, 3), (QQ, 2)):
        t = CommutingTuple.direct_sum(
            random_commuting_tuple(field, n, 5, rng, block_split=False),
            random_commuting_tuple(field, n, 4, rng, block_split=False),
        )
        cls = k0_class(t)
        assert bookkeeping(cls) == t.dim
    assert quotients == []
    assert starts and all(start.cols == 1 for start in starts)


def test_key_skips_cayley_hamilton_zeros(monkeypatch):
    # q_i(f_i) = 0 when deg q_i equals the piece's dimension, and the
    # piece is simple: _key evaluates no q_i and reads the key off the
    # first basis vector
    calls = []
    original = modules.eval_poly_at_matrix

    def counted(q, ms):
        calls.append(q)
        return original(q, ms)

    # two q_i of degree 2 keep the key on the annihilator path
    q = UniPoly(QQ, [-2, 0, 1])
    q3 = UniPoly(QQ, [-18, 0, 1])
    c = Matrix.companion(q)
    cc = Matrix.block_diag(QQ, [c, c])
    cases = [
        # 3C has characteristic polynomial t^2 - 18, irreducible
        (CommutingTuple(QQ, 2, 2, [c, c.scale(3)]), {0: q, 1: q3}, []),
        # on C + C both q_i have degree 2 < 4, so both are evaluated
        (CommutingTuple(QQ, 2, 4, [cc, cc.scale(3)]), {0: q, 1: q3}, [q, q3]),
    ]
    for t, qs, evaluated in cases:
        expected = t.maximal_ideal_key()
        calls.clear()
        monkeypatch.setattr(modules, "eval_poly_at_matrix", counted)
        key, g = modules._key(t._maps, qs)
        monkeypatch.undo()
        assert g is None and key == expected and key.residue_degree == 2
        # the q_i(f_i) evaluated; the socle check then evaluates M's
        # generators, which are multivariate
        assert [q for q in calls if isinstance(q, UniPoly)] == evaluated


# -- pieces in kernel bases, and keys read off (q_1(t_1), .., q_n(t_n)) ---------

KEY_FIELDS = [F2, F3, F97, QQ]


def one_wide_point(field, nvars, rng):
    """A point whose first coordinate is the companion matrix of an
    irreducible quadratic and whose others are scalars, tensored with a
    fat point: one q_i of degree 2, the rest linear, and a socle wider
    than the residue field."""
    q = {F2: [1, 1, 1], F3: [1, 0, 1], F97: [92, 0, 1], QQ: [-2, 0, 1]}[field]
    c = Matrix.companion(UniPoly(field, q))
    one = Matrix.identity(field, 2)
    mats = [c] + [one.scale(rng.randint(0, 5)) for _ in range(nvars - 1)]
    return tensor(CommutingTuple(field, nvars, 2, mats), fat_point(field, nvars, 2))


@st.composite
def key_cases(draw):
    """(tuple, wide): a seeded random tuple, or (wide) a point with one
    wide coordinate in a seeded random basis."""
    field = draw(st.sampled_from(KEY_FIELDS))
    nvars = draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        return random_commuting_tuple(field, nvars, draw(st.integers(1, 6)), rng), False
    return conjugate(one_wide_point(field, nvars, rng), rng), True


def primary_qs(piece):
    """The irreducible q_i of each generator's characteristic polynomial
    on a piece where every generator is primary."""
    qs = {}
    for i, m in enumerate(piece.mats):
        factors = factor_univariate(charpoly(m))
        assert len(factors) == 1
        qs[i] = factors[0][0]
    return qs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(key_cases())
def test_shortcut_key_matches_socle_annihilator(case):
    # with at most one q_i of degree above 1, (q_1(t_1), .., q_n(t_n)) is
    # the key; it equals the annihilator of a canonical socle vector, and
    # _key finds it without an annihilator or a matrix evaluation
    t, wide = case
    shortcuts = 0
    for _, piece, key in local_pieces(t):
        qs = primary_qs(piece)
        if sum(q.degree > 1 for q in qs.values()) > 1:
            continue
        parts = [eval_poly_at_matrix(q, [piece.mats[i]]) for i, q in qs.items()]
        soc = kernel_basis(_stack(parts))
        s = _submatrix(soc.matrix.transpose(), range(piece.dim), [0])
        assert modules._annihilator(piece._maps, s) == key.ideal
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modules, "_annihilator", lambda *a: calls.append(a))
            patch.setattr(modules, "eval_poly_at_matrix", lambda *a: calls.append(a))
            shortcut, g = modules._key(piece._maps, qs)
        assert calls == [] and g is None and shortcut is key
        shortcuts += 1
    assert shortcuts or not wide


def test_twisted_points_take_the_annihilator_path(monkeypatch):
    # two q_i of degree 2: (q_1(t_1), q_2(t_2)) is not maximal, so the key
    # runs Buchberger-Moller, which finds two points and splits
    starts = []
    original = modules._annihilator

    def recording(mats, start):
        starts.append(start)
        return original(mats, start)

    monkeypatch.setattr(modules, "_annihilator", recording)
    for q in (
        UniPoly(F2, [1, 1, 1]),
        UniPoly(F3, [1, 0, 1]),
        UniPoly(F97, [92, 0, 1]),
        UniPoly(QQ, [-2, 0, 1]),
    ):
        rng = random.Random(39)
        for _ in range(3):
            points = twisted_points(q, rng)
            if points[0].mats[1] == points[1].mats[1]:
                continue  # g constant: one point, and f_2 has a linear q
            t = conjugate(CommutingTuple.direct_sum(*points), rng)
            starts.clear()
            pieces = t._local_pieces()
            assert starts
            assert len(pieces) == 2 and [w.rows for w, _ in pieces] == [2, 2]
            assert k0_class(t) == k0_class(points[0]) + k0_class(points[1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(key_cases())
def test_local_pieces_match_primary_decomposition(case):
    # each W has full rank and spans the canonical piece that
    # primary_decomposition returns, the restriction to it is invariant
    # (restrict checks it), local at the key, and each generator on it
    # has one irreducible factor
    t, _ = case
    pieces = t._local_pieces()
    canonical = t.primary_decomposition()
    assert len(pieces) == len(canonical)
    for (w, key), (sub, restricted) in zip(pieces, canonical):
        assert Subspace._row_space(w) == sub
        assert w.rows == sub.dim == restricted.dim
        assert restricted.maximal_ideal_key() is key
        assert all(len(factor_univariate(charpoly(r))) == 1 for r in restricted.mats)


def test_elimination_count_on_a_fixed_tuple(monkeypatch):
    # k - 1 eliminations for a split into k generalised eigenspaces, as
    # the last one is what the others leave, and one of the stacked
    # pieces; the keys of this tuple's pieces need none
    calls = []
    original = _kernels.rref_mod

    def counted(a, p):
        calls.append(a.shape)
        return original(a, p)

    rng = random.Random(40)
    t = CommutingTuple.direct_sum(
        random_commuting_tuple(F97, 3, 6, rng, block_split=False),
        random_commuting_tuple(F97, 3, 7, rng, block_split=False),
        random_commuting_tuple(F97, 3, 5, rng, block_split=False),
    )
    monkeypatch.setattr(_kernels, "rref_mod", counted)
    cls = k0_class(t)
    assert bookkeeping(cls) == 18 and len(cls.items()) == 7
    assert len(calls) == 7


# -- generalised eigenspaces peeled off one at a time ---------------------------


def kernel_per_factor_pieces(t):
    """The split loop of ``_local_pieces`` with every generalised
    eigenspace taken as the kernel of q(m)^v on the whole item, one
    elimination per factor: the reference for peeling.  An item holds
    the stack of its maps, as in ``_local_pieces``, and a piece the
    maps read off it."""
    work = [(Matrix.identity(t.field, t.dim), t._maps, {})]
    out = []
    while work:
        w, maps, qs = work.pop()
        mats = [linalg._layer(maps, i) for i in range(t.nvars)]
        split = None
        for i, f in enumerate(mats):
            if i in qs:
                continue
            factors = factor_univariate(charpoly(f))
            if len(factors) >= 2:
                split = (f, factors, i)
                break
            qs[i] = factors[0][0]
        if split is None:
            key, g = modules._key(maps, qs)
            if key is not None:
                out.append((w, mats, key))
                continue
            m = eval_poly_at_matrix(g, mats)
            split = (m, factor_univariate(charpoly(m)), None)
        m, factors, i = split
        for q, v in factors:
            ker, free = _kernel_rows(eval_poly_at_matrix(q, [m]).pow(v))
            assert ker.rows == q.degree * v
            child = modules._submodule_maps(maps, ker.transpose(), free)
            work.append((ker @ w, child, dict(qs) if i is None else {**qs, i: q}))
    out.sort(key=lambda item: item[2].sort_key())
    return out


def orbit_points(q, rng):
    """(C, g(C^(p^j))) for j < deg q, C the companion matrix of an
    irreducible q over F_p and g random of degree < deg q: deg q points
    that share each coordinate's minimal polynomial, so an element g
    named by the key step splits them, into deg q pieces when it
    separates them all."""
    F = q.field
    c = Matrix.companion(q)
    g = UniPoly(F, [rng.randrange(F.characteristic) for _ in range(q.degree)])
    return [
        CommutingTuple(F, 2, q.degree, [c, eval_poly_at_matrix(g, [c.pow(F.characteristic**j)])])
        for j in range(q.degree)
    ]


def peel_cases(field):
    """Seeded sums of points that only an element named by the key step
    splits (twisted points, and over F_p the three points of a cubic's
    Frobenius orbit), a point with one wide coordinate, and fat points at
    the origin and moved to a random point, in random bases: the first
    generator mostly splits into three generalised eigenspaces, so two
    are peeled."""
    q = UniPoly(field, {F2: [1, 1, 1], F97: [92, 0, 1], QQ: [-2, 0, 1]}[field])
    rng = random.Random(41)
    for _ in range(3):
        a, b = (Matrix.identity(field, 1).scale(rng.randint(1, 5)) for _ in range(2))
        moved = tensor(CommutingTuple(field, 2, 1, [a, b]), fat_point(field, 2, 2))
        parts = [
            *twisted_points(q, rng),
            one_wide_point(field, 2, rng),
            fat_point(field, 2, 2),
            moved,
        ]
        yield conjugate(CommutingTuple.direct_sum(*parts), rng)
    if field.is_prime_field:
        cubic = UniPoly(field, [1, 1, 0, 1])  # irreducible over F_2 and F_97
        for _ in range(3):
            yield conjugate(CommutingTuple.direct_sum(*orbit_points(cubic, rng)), rng)


@pytest.mark.parametrize("field", [F2, F97, QQ], ids=repr)
def test_peeled_pieces_match_a_kernel_per_factor(field, monkeypatch):
    hits = count_separations(monkeypatch)
    separated = 0
    for t in peel_cases(field):
        reference = kernel_per_factor_pieces(t)
        hits.clear()
        peeled = list(local_pieces(t))
        separated += bool(hits)
        assert [key for _, _, key in peeled] == [key for _, _, key in reference]
        for (w, piece, _), (v, mats, _) in zip(peeled, reference):
            assert w.rows == v.rows == piece.dim
            assert Subspace._row_space(w) == Subspace._row_space(v)
            # the reference's mats are the f in the basis of V's rows, and
            # similar to the peeled piece's
            for f, m, r in zip(t.mats, mats, piece.mats):
                assert f @ v.transpose() == v.transpose() @ m
                assert charpoly(m) == charpoly(r)
    # an element g named by the key step split some of them (the twisted
    # points), on the path where g(f) is no generator
    assert separated


# -- simple pieces, keyed by Schur's lemma ---------------------------------------


def irreducible(field, degree, rng):
    """A seeded monic irreducible of the given degree: t^degree - a with a
    squarefree (Eisenstein) over Q, a random one over F_p."""
    if field == QQ:
        return UniPoly(QQ, [-rng.choice([2, 3, 5, 6, 7])] + [0] * (degree - 1) + [1])
    p = field.characteristic
    while True:
        q = UniPoly(field, [rng.randrange(p) for _ in range(degree)] + [1])
        if factor_univariate(q) == [(q, 1)]:
            return q


def coordinate(q, scalar, rng):
    """h for a coordinate h(C) of a point at q: a constant, or of degree
    1..deg q - 1, so that h(C) is not a scalar matrix."""
    F = q.field
    if scalar:
        return UniPoly(F, [rng.randint(0, 5)])
    low = [rng.randint(-3, 3) for _ in range(rng.randint(1, q.degree - 1))]
    return UniPoly(F, low + [1])


def simple_cases(field, rng):
    """(tuple, points, fat): simple points at an irreducible q of each
    degree 2..6, for n = 2 and 3 with scalar and non-scalar h_j; direct
    sums of points with distinct q; and (fat) points tensored with a fat
    point, whose pieces are local but not simple.  points are the
    summands, one per piece."""
    qs = [irreducible(field, k, rng) for k in range(2, 7)]
    for q in qs:
        for pattern in ([True], [False], [True, True], [True, False], [False, False]):
            point = simple_point(q, [coordinate(q, s, rng) for s in pattern], rng)
            yield point, [point], False
    for group in (qs[:2], qs[1:4]):
        points = [simple_point(q, [coordinate(q, rng.random() < 0.5, rng)], rng) for q in group]
        yield conjugate(CommutingTuple.direct_sum(*points), rng), points, False
    fat = fat_point(field, 2, 2)
    points = [simple_point(q, [coordinate(q, False, rng)], rng) for q in qs[:2]]
    fats = [tensor(point, fat) for point in points]
    yield conjugate(CommutingTuple.direct_sum(*fats), rng), points, True


@pytest.mark.parametrize("field", KEY_FIELDS, ids=repr)
def test_simple_piece_keys_match_annihilators(field):
    # a piece on which some q_i has degree dim W is keyed without primary
    # tests of the other generators; the key must still be the annihilator
    # of the whole piece, from starts other than the loop's e_0, a maximal
    # ideal, and the class the brute-force oracle finds
    rng = random.Random(44)
    for t, points, fat in simple_cases(field, rng):
        pieces = list(local_pieces(t))
        assert len(pieces) == len(points)
        # for a simple point, Ann(V) is the maximal ideal at it
        assert {key.ideal for _, _, key in pieces} == {pt.annihilator_ideal() for pt in points}
        for w, piece, key in pieces:
            d = piece.dim
            one = Matrix.identity(field, d)
            whole = modules._annihilator(piece._maps, one)
            last = modules._annihilator(piece._maps, _submatrix(one, range(d), [d - 1]))
            if fat:
                # Ann(W) is M-primary, not M: the control
                assert d == 3 * key.residue_degree
                assert whole != key.ideal and whole.quotient_dim > key.residue_degree
            else:
                assert d == key.residue_degree
                assert whole == last == piece.annihilator_ideal() == key.ideal
            assert quotient_is_field(key.ideal)
            p = field.characteristic
            if p and subspace_count(p, d) <= DEFAULT_BOUND:
                assert k0_class(piece) == k0_class_oracle(piece)
        cls = k0_class(t)
        assert [mult for _, mult in cls.items()] == [3 if fat else 1] * len(points)


def partner(q, kind, rng):
    """h for a coordinate h(C) of a point at q: a constant, of degree 1
    with a slope other than 1 where the field has one, or (deg q >= 3)
    of degree 2..deg q - 1, which is not affine in C."""
    F = q.field
    p = F.characteristic
    if kind == "higher" and q.degree >= 3:
        degree = rng.randint(2, q.degree - 1)
        return UniPoly(F, [rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 4)])
    if kind == "scalar":
        return UniPoly(F, [rng.randint(-5, 5)])
    slope = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 3])) if not p else rng.randrange(1, p)
    return UniPoly(F, [rng.randint(-5, 5), slope])


@st.composite
def affine_cases(draw):
    """(tuple, q, affine): a simple point at a seeded irreducible q of
    degree 1..5, with n = 2 or 3 and other coordinates of each kind of
    ``partner``; affine when every other coordinate is affine in the
    first."""
    field = draw(st.sampled_from(KEY_FIELDS))
    degree = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["scalar", "linear", "higher"]), min_size=1, max_size=2))
    rng = random.Random(draw(st.integers(0, 10**6)))
    q = irreducible(field, degree, rng)
    hs = [partner(q, kind, rng) for kind in kinds]
    affine = degree == 1 or all(h.degree <= 1 for h in hs)
    return simple_point(q, hs, rng), q, affine


def read_and_searched_keys(t, q, read_first):
    """The key _key reads off the simple point t, with the annihilator
    calls it makes, and the key of the annihilator of e_0, built in the
    order read_first names."""
    e0 = _submatrix(Matrix.identity(t.field, t.dim), range(t.dim), [0])
    calls = []
    original = modules._annihilator

    def read():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modules, "_annihilator", lambda *a: calls.append(a) or original(*a))
            key, g = modules._key(t._maps, {0: q})
        assert g is None
        return key

    def searched():
        ideal = original(t._maps, e0)
        return modules.MaximalIdealKey(ideal), ideal

    if read_first:
        key = read()
        return key, *searched(), len(calls)
    theirs, ideal = searched()
    return read(), theirs, ideal, len(calls)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(affine_cases())
def test_read_off_keys_are_the_annihilators_keys(case):
    # on a simple point whose other coordinates are affine in the first,
    # _key reads the reduced basis off their coefficients with no
    # annihilator; the key is the very object that interning the
    # annihilator of e_0 gives, whichever is built first, and renders the
    # same; any other point runs the annihilator once
    t, q, affine = case
    for read_first in (True, False):
        ours, theirs, ideal, calls = read_and_searched_keys(t, q, read_first)
        assert ours is theirs
        assert ours.generator_strings() == ideal.generator_strings()
        assert ours.residue_degree == ideal.quotient_dim == q.degree
        assert calls == (0 if affine else 1)
        # the key of this round dies with its last reference, so the next
        # round interns its form afresh, in the other order
        live = weakref.ref(ours)
        del ours, theirs
        assert live() is None


def test_simple_pieces_are_neither_factored_nor_searched(monkeypatch):
    # f_1 splits a sum of simple points into its points, each with f_1's q
    # of full degree: no charpoly or factorization runs on them.  A point
    # whose other generator is affine in f_1 (a scalar, or h of degree 1)
    # is keyed by reading off its coefficients; only the others run the
    # annihilator of the first basis vector.  The twisted pair shares
    # every q_i, so its 4-dimensional piece runs the primary test of f_2
    # and a split by an element g that the key step names; the two simple
    # pieces it splits into, of dimension 2, are read off.
    rng = random.Random(45)
    cubic, other_cubic = irreducible(F97, 3, rng), irreducible(F97, 3, rng)
    assert cubic != other_cubic
    quintic = irreducible(F97, 5, rng)
    twisted = twisted_points(UniPoly(F97, [92, 0, 1]), rng)
    assert twisted[0].mats[1] != twisted[1].mats[1]
    points = [
        simple_point(UniPoly(F97, [-4, 1]), [UniPoly(F97, [7])], rng),
        simple_point(cubic, [UniPoly(F97, [5])], rng),
    ]
    degrees = []
    for q in (other_cubic, quintic):
        h = coordinate(q, False, rng)
        degrees.append(h.degree)
        points.append(simple_point(q, [h], rng))
    assert degrees == [2, 1]
    points += twisted
    t = conjugate(CommutingTuple.direct_sum(*points), rng)
    charpolys, factor_calls, starts = [], [], []
    original_charpoly = modules.charpoly
    original_factor = modules.factor_univariate
    original_annihilator = modules._annihilator

    def recording_charpoly(m):
        charpolys.append(m.rows)
        return original_charpoly(m)

    def counting_factor(f):
        factor_calls.append(f)
        return original_factor(f)

    def recording_annihilator(mats, start):
        starts.append(start.rows)
        return original_annihilator(mats, start)

    monkeypatch.setattr(modules, "charpoly", recording_charpoly)
    monkeypatch.setattr(modules, "factor_univariate", counting_factor)
    monkeypatch.setattr(modules, "_annihilator", recording_annihilator)
    cls = k0_class(t)
    assert [mult for _, mult in cls.items()] == [1] * 6
    # the root's f_1, then only on the twisted piece: its f_2 and the g(f)
    # that splits it; the field test over F_97 factors nothing
    assert len(factor_calls) == len(charpolys)
    assert charpolys.count(t.dim) == 1
    assert set(charpolys) == {t.dim, 4}
    # the twisted piece's socle key and the cubic with h of degree 2
    assert sorted(starts) == [3, 4]


# -- every internal check of the split loop ends in exit 3 ----------------------


def calls_at_most(bound, fn):
    """fn, raising AssertionError from call bound + 1 on: a fault that
    sends the split loop round forever fails the row instead of hanging
    it."""
    calls = count(1)

    def counted(*args):
        if next(calls) > bound:
            raise AssertionError(f"{fn.__name__} called more than {bound} times")
        return fn(*args)

    return counted


def q_pair():
    """(C, C^2) over Q for C the companion matrix of t^3 - 2: a simple
    piece, as f_1's q has degree 3 = dim, whose f_2 is not affine in f_1,
    so that its key runs the annihilator of its first basis vector."""
    c = Matrix.companion(UniPoly(QQ, [-2, 0, 0, 1]))
    return CommutingTuple(QQ, 2, 3, [c, c @ c])


def fault_progress(patch):
    # (C, C) + (C, C) over F_3, C the companion matrix of t^2 + 1, with the
    # annihilator's first generator g_1 returned as g_1 + 1: the socle
    # check then names g_1 + 1, whose g(f) is the identity and splits
    # nothing; the loop would take the piece again forever
    c = Matrix.companion(UniPoly(F3, [1, 0, 1]))
    cc = Matrix.block_diag(F3, [c, c])
    t = CommutingTuple(F3, 2, 4, [cc, cc])
    original = modules._annihilator

    def shifted(mats, start):
        ideal = original(mats, start)
        gens = list(ideal.gens)
        gens[0] = gens[0] + MultiPoly.one(F3, 2)
        return Ideal(F3, 2, gens, ideal.standard_monomials)

    patch.setattr(modules, "_annihilator", calls_at_most(10, shifted))
    return t, "the key step's element t2^2 + 2 does not split a piece"


def fault_simple_piece(patch):
    # the annihilator of the simple piece's first basis vector comes back
    # as (t1, t2), of codimension 1 instead of dim W = 3
    origin = Ideal.from_groebner_basis(QQ, 2, [MultiPoly.variable(QQ, 2, i) for i in range(2)])
    patch.setattr(modules, "_annihilator", calls_at_most(10, lambda mats, start: origin))
    return q_pair(), "a simple piece is not local"


def fault_residue_degree(patch):
    # the factorization of (t^2 - 2)(t - 1) loses its linear factor, so
    # f_1 looks primary at t^2 - 2 on a 3-dimensional piece
    c = Matrix.companion(UniPoly(QQ, [-2, 0, 1]))
    f = Matrix.block_diag(QQ, [c, Matrix(QQ, [[1]])])
    t = CommutingTuple(QQ, 2, 3, [f, Matrix.zeros(QQ, 3, 3)])
    original = modules.factor_univariate

    def lossy(g):
        factors = original(g)
        return [qv for qv in factors if qv[0].degree > 1] or factors

    patch.setattr(modules, "factor_univariate", calls_at_most(10, lossy))
    return t, "dimension is not a multiple of the residue degree"


def fault_socle_residue_degree(patch):
    # (J_2(C) + C, the same) over Q, C the companion matrix of t^2 - 2:
    # both q_i are t^2 - 2, so the piece is keyed from its socle, of
    # dimension 4 in the piece's 6.  Its annihilator comes back as the
    # maximal ideal (t1^2 - 2, t2^2 - t1), of residue degree 4: a field,
    # which divides the socle's dimension, so only the piece's is left
    # to catch it
    c = Matrix.companion(UniPoly(QQ, [-2, 0, 1]))
    shift = Matrix(QQ, [[int(j == i + 2) for j in range(4)] for i in range(4)])
    f = Matrix.block_diag(QQ, [Matrix.block_diag(QQ, [c, c]) + shift, c])
    t = CommutingTuple(QQ, 2, 6, [f, f])
    gens = [
        MultiPoly(QQ, 2, {(2, 0): 1, (0, 0): -2}),
        MultiPoly(QQ, 2, {(0, 2): 1, (1, 0): -1}),
    ]
    quartic = Ideal.from_groebner_basis(QQ, 2, gens)
    patch.setattr(modules, "_annihilator", calls_at_most(10, lambda mats, start: quartic))
    return t, "dimension is not a multiple of the residue degree"


def eigenspace_fault(q, v):
    """A fault where the factorization of the characteristic polynomial
    of J_3(2) + (5) reads multiplicity v for its factor q."""

    def fault(patch):
        f = Matrix.block_diag(QQ, [jordan(QQ, 2, 3), Matrix(QQ, [[5]])])
        t = CommutingTuple(QQ, 2, 4, [f, Matrix.zeros(QQ, 4, 4)])
        original = modules.factor_univariate

        def wrong(g):
            return [(r, v if r == q else e) for r, e in original(g)]

        patch.setattr(modules, "factor_univariate", calls_at_most(10, wrong))
        dim = q.degree * v
        return t, f"generalised eigenspace of {q} has dimension {dim - 1}, expected {dim}"

    return fault


def fault_standard_parent(patch):
    # a priority queue in Buchberger-Moller that files each monomial one
    # power of t1 too high, so (1, 1) comes up before any of its parents
    def heappush(heap, item):
        m = item[1]
        m = (m[0] + 1,) + m[1:]
        heapq.heappush(heap, (grlex_key(m), m))

    class Skewed:
        heappop = staticmethod(heapq.heappop)

    Skewed.heappush = staticmethod(calls_at_most(10, heappush))
    patch.setattr(modules, "heapq", Skewed)
    return q_pair(), "no standard parent for monomial (1, 1)"


def kernel_fault(patch, change):
    """Replace ``_echelon_kernel`` by change(K, free) of its result."""
    original = modules._echelon_kernel

    def wrong(R, pivots):
        return change(*original(R, pivots))

    patch.setattr(modules, "_echelon_kernel", calls_at_most(10, wrong))


def diagonal(*entries):
    """(diag(entries), 0) over Q."""
    d = len(entries)
    f = Matrix(QQ, [[entries[i] if i == j else 0 for j in range(d)] for i in range(d)])
    return CommutingTuple(QQ, 2, d, [f, Matrix.zeros(QQ, d, d)])


def fault_lost_dimension(patch):
    # the kernel of (f - 2)^2 loses a row; each eigenspace check alone
    # would catch that, so this row switches it off too, and only the
    # final count of dimensions is left
    def short(K, free):
        return _submatrix(K, range(K.rows - 1), range(K.cols)), free[:-1]

    kernel_fault(patch, short)
    patch.setattr(modules, "_check_eigenspace", lambda q, v, dim: None)
    return diagonal(2, 2, 5), "primary decomposition lost dimensions"


def fault_dependent_pieces(patch):
    # the kernel of (f - 2)^2 comes back as e_0 twice: the right number of
    # rows, invariant as e_0 is an eigenvector, but not independent
    def doubled(K, free):
        return _stack([_submatrix(K, [0], range(K.cols))] * K.rows), free

    kernel_fault(patch, doubled)
    return diagonal(2, 2, 5), "primary decomposition pieces are not independent"


def jordan_pair():
    """(J_2(2) + (5), 0) over Q: (f_1 - 2)^2 is diag(0, 0, 9)."""
    f = Matrix.block_diag(QQ, [jordan(QQ, 2, 2), Matrix(QQ, [[5]])])
    return CommutingTuple(QQ, 2, 3, [f, Matrix.zeros(QQ, 3, 3)])


def fault_invariant_kernel(patch):
    # the kernel of (f_1 - 2)^2 comes back as span(e_2, e_3): the right
    # dimension, the identity on its free columns, but not invariant, as
    # f_1 e_2 = e_1 + 2 e_2
    def moved(K, free):
        return _submatrix(Matrix.identity(QQ, 3), [1, 2], range(3)), [1, 2]

    kernel_fault(patch, moved)
    return jordan_pair(), "subspace is not invariant under matrix 0"


def fault_invariant_remainder(patch):
    # the reduced echelon form of (f_1 - 2)^2 comes back with its pivot
    # row doubled: the kernel read off it is still span(e_1, e_2), but
    # f_1 on what remains, span(e_3), is read as 10 instead of 5
    original = modules.rref

    def doubled(m):
        R, pivots = original(m)
        return R.scale(2), pivots

    patch.setattr(modules, "rref", calls_at_most(10, doubled))
    return jordan_pair(), "subspace is not invariant under matrix 0"


FAULTS = {
    "progress": fault_progress,
    "simple-piece": fault_simple_piece,
    "residue-degree": fault_residue_degree,
    "residue-degree-socle-key": fault_socle_residue_degree,
    # (t - 2)^4 is peeled first, and its kernel is 3-dimensional
    "eigenspace-peeled": eigenspace_fault(UniPoly(QQ, [-2, 1]), 4),
    # (t - 2)^3 is peeled, and what remains, (t - 5), is 1-dimensional
    "eigenspace-remainder": eigenspace_fault(UniPoly(QQ, [-5, 1]), 2),
    "standard-parent": fault_standard_parent,
    "lost-dimension": fault_lost_dimension,
    "dependent-pieces": fault_dependent_pieces,
    "invariant-kernel": fault_invariant_kernel,
    "invariant-remainder": fault_invariant_remainder,
}


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_internal_checks_end_in_exit_3(fault, monkeypatch, tmp_path, capsys):
    # one row per RuntimeError that modules.py raises: the fault is a wrong
    # answer from the step before the check, and the CLI reports the
    # check's message as one internal error, with nothing on stdout
    t, message = fault(monkeypatch)
    path = tmp_path / "job.txt"
    path.write_text(job_text(t))
    assert main(["class", str(path)]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: internal: {message}\n")


@pytest.mark.parametrize("fault", ["residue-degree", "residue-degree-socle-key"])
def test_decompose_checks_the_residue_degree(fault, monkeypatch, tmp_path, capsys):
    # the key step checks every key's degree, so decompose, which builds
    # no class, stops at the same faults as class
    t, message = FAULTS[fault](monkeypatch)
    path = tmp_path / "job.txt"
    path.write_text(job_text(t))
    assert main(["decompose", str(path)]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: internal: {message}\n")


def raised_texts(source):
    """The leading literal text of the message of every ``raise
    RuntimeError(...)`` and ``raise error(...)`` in source: a plain
    string, or an f-string up to its first field."""
    texts = []
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
            continue
        if call.func.id not in ("RuntimeError", "error"):
            continue
        message = call.args[0]
        if isinstance(message, ast.JoinedStr):
            message = message.values[0]
        texts.append(message.value)
    return texts


def test_every_internal_check_has_a_fault_row(monkeypatch):
    # the rows of test_internal_checks_end_in_exit_3 are keyed by message:
    # each check in modules.py that can end in exit 3 needs a row whose
    # message starts with its own text, so a check that moves keeps its row
    texts = raised_texts(inspect.getsource(modules))
    assert "a simple piece is not local" in texts
    messages = [fault(monkeypatch)[1] for fault in FAULTS.values()]
    for text in texts:
        assert any(m.startswith(text) for m in messages), text
