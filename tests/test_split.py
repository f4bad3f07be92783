"""The split loop of ``CommutingTuple._local_pieces`` and its key step.

Pieces are split along generalised eigenspaces of the factored
characteristic polynomials, each generator is factored once per lineage,
and a piece on which every generator is primary but which is not local is
split further along a separating element.  Classes are checked against the
brute-force oracle where enumeration is cheap, and against the class fixed
by the construction otherwise.
"""

import random

import pytest

import endok.modules as modules
from endok.bruteforce import k0_class_oracle, random_commuting_tuple
from endok.fields import GF
from endok.ktheory import compare_splittings, k0_class
from endok.linalg import Matrix, eval_poly_at_matrix
from endok.modules import CommutingTuple, quotient_is_field
from endok.poly import UniPoly

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
    """Count the separating elements that split a piece."""
    hits = []
    original = modules._separating_element

    def counted(ideal, rng):
        found = original(ideal, rng)
        if found is not None and len(found[1]) >= 2:
            hits.append(found[0])
        return found

    monkeypatch.setattr(modules, "_separating_element", counted)
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
            cls = k0_class(t, rng)
            assert cls == k0_class_oracle(t)
            assert bookkeeping(cls) == t.dim


def test_frobenius_twisted_sums_match_oracle(monkeypatch):
    # (C, g(C)) + (C, g(C)^p) with C the companion matrix of an irreducible
    # q: the points (w, g(w)) and (w, g(w)^p) share each coordinate's
    # minimal polynomial, so only a separating element tells them apart
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
            cls = k0_class(t, rng)
            assert cls == k0_class_oracle(t)
            assert bookkeeping(cls) == t.dim
    assert hits


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
    minpolys, charpolys, factor_calls, restricts = [], [], [], []
    original_charpoly = modules.charpoly
    original_factor = modules.factor_univariate
    original_restrict = CommutingTuple.restrict

    def recording_charpoly(m):
        charpolys.append(m)  # keeps m alive, so ids stay unique
        return original_charpoly(m)

    def counting_factor(f, rng=None):
        factor_calls.append(f)
        return original_factor(f, rng)

    def counting_restrict(self, s):
        restricts.append(s)
        return original_restrict(self, s)

    monkeypatch.setattr(modules, "minimal_polynomial", minpolys.append)
    monkeypatch.setattr(modules, "charpoly", recording_charpoly)
    monkeypatch.setattr(modules, "factor_univariate", counting_factor)
    monkeypatch.setattr(CommutingTuple, "restrict", counting_restrict)

    cls = k0_class(t, random.Random(0))
    assert bookkeeping(cls) == t.dim and len(cls.items()) >= 2
    assert minpolys == []
    # each factorization is of a distinct matrix's characteristic polynomial
    assert len(factor_calls) == len(charpolys)
    assert len({id(m) for m in charpolys}) == len(charpolys)
    # one work item per restriction plus the root; children inherit the
    # split generator, so fewer than n factorizations per item
    work_items = len(restricts) + 1
    assert len(factor_calls) < t.nvars * work_items
