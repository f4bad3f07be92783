import gc
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest

from endok import bruteforce, modules
from endok.bruteforce import (
    DEFAULT_BOUND,
    all_invariant_submodules,
    all_subspaces,
    composition_factors_bruteforce,
    k0_class_oracle,
    random_commuting_tuple,
    subspace_count,
)
from endok.errors import EnumerationBoundError
from endok.fields import GF, QQ
from endok.ktheory import k0_class, principal_maximal_key
from endok.linalg import Matrix
from endok.modules import CommutingTuple, Ideal, MaximalIdealKey, quotient_is_field
from endok.parse import class_from_json, field_to_string
from endok.poly import MultiPoly, UniPoly

F2, F3 = GF(2), GF(3)


def test_subspace_counts():
    # d = 2, p = 2: 1 + 3 + 1 subspaces
    assert len(all_subspaces(F2, 2)) == 5 == subspace_count(2, 2)
    for p, d in ((2, 3), (3, 2), (2, 4), (3, 3), (5, 2)):
        subspaces = all_subspaces(GF(p), d)
        assert len(subspaces) == subspace_count(p, d)
        assert len(set(subspaces)) == len(subspaces)  # no duplicates


def test_subspaces_of_zero_space():
    assert len(all_subspaces(F2, 0)) == 1


def test_bound_and_field_enforced(monkeypatch):
    with pytest.raises(EnumerationBoundError):
        all_subspaces(F2, 13)
    with pytest.raises(EnumerationBoundError):
        all_subspaces(QQ, 2)
    with pytest.raises(EnumerationBoundError):
        k0_class_oracle(CommutingTuple.zeros(QQ, 1, 2))
    # the cap counts subspaces: F2 dim 6 has 2825 and F3 dim 5 has 2664,
    # while F2 dim 7 has 29212 and dim 8 has 417199, where the oracle would
    # run for seconds to minutes
    assert subspace_count(2, 8) == 417199 > DEFAULT_BOUND
    assert max(subspace_count(2, 6), subspace_count(3, 5)) <= DEFAULT_BOUND
    assert subspace_count(2, 7) > DEFAULT_BOUND
    t = random_commuting_tuple(F2, 1, 8, random.Random(8))
    # the bound is checked before anything is enumerated
    monkeypatch.setattr(bruteforce, "Subspace", None)
    with pytest.raises(EnumerationBoundError):
        k0_class_oracle(t)
    for dim in (7, 8, 400):
        with pytest.raises(EnumerationBoundError):
            all_subspaces(F2, dim)


def test_invariant_submodules_examples():
    ident = CommutingTuple(F2, 1, 2, [Matrix.identity(F2, 2)])
    assert len(all_invariant_submodules(ident)) == 5  # everything is invariant

    J2 = CommutingTuple(F2, 1, 2, [Matrix(F2, [[0, 1], [0, 0]])])
    subs = all_invariant_submodules(J2)
    assert len(subs) == 3  # 0, span{e1}, full
    assert sorted(s.dim for s in subs) == [0, 1, 2]


def test_composition_factors_examples():
    J2 = CommutingTuple(F2, 1, 2, [Matrix(F2, [[0, 1], [0, 0]])])
    facs = composition_factors_bruteforce(J2)
    assert len(facs) == 2
    assert all(f.dim == 1 and f.mats[0].is_zero for f in facs)

    comp = CommutingTuple(F2, 1, 2, [Matrix.companion(UniPoly(F2, [1, 1, 1]))])
    facs = composition_factors_bruteforce(comp)
    assert len(facs) == 1 and facs[0].dim == 2

    diag = CommutingTuple(F3, 1, 2, [Matrix(F3, [[0, 0], [0, 1]])])
    facs = composition_factors_bruteforce(diag)
    assert sorted(str(f.mats[0]) for f in facs) == ["[[0]]", "[[1]]"]


def test_factors_are_simple_and_annihilators_maximal():
    rng = random.Random(41)
    for _ in range(10):
        t = random_commuting_tuple(F2, rng.randint(1, 2), rng.randint(1, 4), rng)
        for simple in composition_factors_bruteforce(t):
            assert len(all_invariant_submodules(simple)) == 2
            assert quotient_is_field(simple.annihilator_ideal())


def test_oracle_examples():
    J2 = CommutingTuple(F2, 1, 2, [Matrix(F2, [[0, 1], [0, 0]])])
    assert k0_class_oracle(J2).lines() == ["2 * [t]"]

    comp = CommutingTuple(F2, 1, 2, [Matrix.companion(UniPoly(F2, [1, 1, 1]))])
    assert k0_class_oracle(comp).lines() == ["1 * [t^2 + t + 1]"]

    pair = CommutingTuple(
        F2, 2, 2, [Matrix(F2, [[0, 1], [0, 0]]), Matrix.zeros(F2, 2, 2)]
    )
    assert k0_class_oracle(pair).lines() == ["2 * [t1, t2]"]


def test_oracle_agreement_exhaustive_dim2():
    for bits in product((0, 1), repeat=4):
        m = Matrix(F2, [bits[:2], bits[2:]])
        t = CommutingTuple(F2, 1, 2, [m])
        assert k0_class(t) == k0_class_oracle(t)


def test_oracle_agreement_random_pairs():
    rng = random.Random(42)
    for i in range(20):
        field = F2 if i % 2 else F3
        t = random_commuting_tuple(field, 2, rng.randint(1, 4), rng)
        assert k0_class(t) == k0_class_oracle(t)


def test_one_key_object_per_ideal():
    # the class path, the oracle and class_from_json all intern through
    # MaximalIdealKey: the keys of one ideal are one object
    rng = random.Random(47)
    keys = 0
    for i in range(12):
        field = F2 if i % 2 else F3
        t = random_commuting_tuple(field, 1 + i % 3, rng.randint(2, 4), rng)
        cls = k0_class(t)
        entries = cls.to_json_entries()
        obj = {"field": field_to_string(field), "nvars": t.nvars, "class": entries}
        ours = [k for k, _ in cls.items()]
        for other in (k0_class_oracle(t), class_from_json(obj)):
            theirs = [k for k, _ in other.items()]
            assert len(theirs) == len(ours)
            assert all(a is b for a, b in zip(theirs, ours))
        assert all(MaximalIdealKey(k.ideal) is k for k in ours)
        keys += len(ours)
    assert keys >= 20
    # n = 1: every path to the key of (q) meets one object, whose ideal is
    # built on first read, and the table lets it go with its last holder
    for field, coeffs in (
        (QQ, [-7, 0, 1]),
        (QQ, [Fraction(3, 2), -5, 0, 1]),
        (F3, [2, 2, 0, 1]),
        (GF(97), [5, 1]),
    ):
        q = UniPoly(field, coeffs)
        gc.collect()
        before = len(modules._KEYS)
        ref = principal_key_paths(q)
        gc.collect()
        assert ref() is None
        assert len(modules._KEYS) == before


def principal_key_paths(q):
    """Check the keys of (q) from k0_class, principal_maximal_key,
    class_from_json, the split loop and the annihilator path; return a
    weak reference to the one key."""
    F, d = q.field, q.degree
    t = CommutingTuple(F, 1, d, [Matrix.companion(q)])
    cls = k0_class(t)
    (key,) = cls.support
    assert key._ideal is None and key.residue_degree == d
    old_way = Ideal(F, 1, [MultiPoly.from_unipoly(q)], [(k,) for k in range(d)])
    assert key.ideal == old_way
    assert key.ideal.gens == old_way.gens
    assert key.ideal.standard_monomials == old_way.standard_monomials
    obj = {"field": field_to_string(F), "nvars": 1, "class": cls.to_json_entries()}
    (theirs,) = class_from_json(obj).support
    assert theirs is key
    assert principal_maximal_key(q) is key
    assert t.maximal_ideal_key() is key
    assert MaximalIdealKey(t.annihilator_ideal()) is key
    return weakref.ref(key)
