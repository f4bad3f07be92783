"""Over F_p every matrix is N/1 for a numpy residue array N, built with
the matrix.

The dtype of N is int64 for p below ``_kernels.PRIME_LIMIT`` and ``object``
(exact Python integers) from there on.  The array operations are checked
against the plain textbook loops of ``conftest``, and whole computations
give identical results on int64 arrays and on object arrays; the tests
reach the object arrays for small primes by lowering ``PRIME_LIMIT`` to 2.
"""

import contextlib
import json
import random
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endok import _kernels, linalg
from endok.bruteforce import random_commuting_tuple
from endok.cli import main
from endok.fields import GF, QQ, is_prime
from endok.ktheory import k0_class
from endok.linalg import Matrix, charpoly, rref
from endok.modules import CommutingTuple
from endok.poly import UniPoly

from conftest import (
    P61,
    PMAX,
    assert_canonical,
    conjugate,
    fat_point,
    field_id,
    job_text,
    largest_prime_below,
    plain_matmul,
    plain_ops,
    plain_rref,
    tensor,
)


@contextlib.contextmanager
def object_arrays(monkeypatch):
    """Build every F_p matrix of the block on exact Python-int arrays."""
    with monkeypatch.context() as m:
        m.setattr(_kernels, "PRIME_LIMIT", 2)
        yield


def count_kernel_calls(monkeypatch):
    calls = {"matmul_mod": 0, "rref_mod": 0}
    for name in calls:
        original = getattr(_kernels, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_kernels, name, counted)
    return calls


def random_matrix(field, rng, rows, cols, rank=None):
    """A random rows x cols matrix; with ``rank``, its rows are random
    combinations of ``rank`` random rows, so its rank is at most ``rank``."""
    p = field.characteristic

    def row():
        return [rng.randrange(p) for _ in range(cols)]

    if rank is None:
        return Matrix(field, [row() for _ in range(rows)], cols=cols)
    basis = [row() for _ in range(rank)]
    grid = []
    for _ in range(rows):
        coeffs = [rng.randrange(p) for _ in basis]
        grid.append([sum(c * b[j] for c, b in zip(coeffs, basis)) % p for j in range(cols)])
    return Matrix(field, grid, cols=cols)


def plain_elementwise(field, c):
    """(plus, minus, neg, scale) on row tuples by the textbook formulas."""
    add, sub, mul, _ = plain_ops(field)

    def plus(x, y):
        return tuple(tuple(map(add, r, s)) for r, s in zip(x, y))

    def minus(x, y):
        return tuple(tuple(map(sub, r, s)) for r, s in zip(x, y))

    def neg(x):
        return tuple(tuple(sub(field.zero, v) for v in r) for r in x)

    def scale(x):
        return tuple(tuple(mul(c, v) for v in r) for r in x)

    return plus, minus, neg, scale


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_array_path_matches_generic_path(p, monkeypatch):
    # the generic path: the textbook loops in conftest
    field = GF(p)
    rng = random.Random(p + 100)
    cases = []
    for _ in range(30):
        rows, mid, cols = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.choice([None, 0, 1, min(rows, mid) // 2])
        a = random_matrix(field, rng, rows, mid, rank)
        cases.append((a, random_matrix(field, rng, rows, mid), random_matrix(field, rng, mid, cols)))
    c = rng.randrange(p)
    calls = count_kernel_calls(monkeypatch)
    fast = [(a @ b, rref(a), rref(b), a + a2, a - a2, -a, a.scale(c)) for a, a2, b in cases]
    assert calls == {"matmul_mod": len(cases), "rref_mod": 2 * len(cases)}
    plus, minus, neg, scale = plain_elementwise(field, c)
    for (a, a2, b), (ab, (ra, pa), (rb, pb), *sums) in zip(cases, fast):
        assert ab.entries == plain_matmul(field, a.entries, b.entries)
        assert (ra.entries, pa) == plain_rref(field, a.entries)
        assert (rb.entries, pb) == plain_rref(field, b.entries)
        assert [m.entries for m in sums] == [
            plus(a.entries, a2.entries),
            minus(a.entries, a2.entries),
            neg(a.entries),
            scale(a.entries),
        ]
    assert any(len(pa) < min(a.rows, a.cols) for (a, _, _), (_, (_, pa), *_) in zip(cases, fast))


def array_ops(a, b, c, e):
    """Every array operation, on row-built inputs and again on the
    array-built results of earlier ones."""
    ab = a @ b
    first = [a + b, a - b, -a, a.scale(c), a.pow(e), ab, rref(a)[0]]
    chained = [ab + a, ab - first[0], -ab, ab.scale(c), ab.pow(e), ab @ first[1], rref(ab)[0]]
    return first + chained


def plain_array_ops(field, a, b, c, e):
    """``array_ops`` on row tuples by the textbook loops."""
    plus, minus, neg, scale = plain_elementwise(field, c)
    d = len(a)
    one = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))

    def power(x):
        out = one
        for _ in range(e):
            out = plain_matmul(field, out, x)
        return out

    def reduced(x):
        return plain_rref(field, x)[0]

    ab = plain_matmul(field, a, b)
    first = [plus(a, b), minus(a, b), neg(a), scale(a), power(a), ab, reduced(a)]
    chained = [
        plus(ab, a),
        minus(ab, first[0]),
        neg(ab),
        scale(ab),
        power(ab),
        plain_matmul(field, ab, first[1]),
        reduced(ab),
    ]
    return first + chained


@pytest.mark.parametrize("p", [2, 3, 97])
def test_array_backed_results_match_generic_path(p):
    # the generic path: the textbook loops in conftest
    field = GF(p)
    rng = random.Random(p + 200)
    cases = []
    for _ in range(20):
        d = rng.randint(1, 7)
        rank = rng.choice([None, 0, 1, d // 2])
        a, b = random_matrix(field, rng, d, d, rank), random_matrix(field, rng, d, d)
        cases.append((a, b, rng.randrange(p), rng.randint(0, 5)))
    fast = [array_ops(*case) for case in cases]
    for results, (_, _, _, e) in zip(fast, cases):
        # built as arrays, with no entries read yet; a.pow(1) is the
        # row-built a itself
        backed = [m._entries is None for m in results]
        assert all(backed[:4] + backed[5:]), backed
        assert backed[4] == (e != 1)
        for m in results:
            assert_canonical(m)
    plain = [plain_array_ops(field, a.entries, b.entries, c, e) for a, b, c, e in cases]
    assert [[m.entries for m in ms] for ms in fast] == plain
    assert fast == [[Matrix(field, grid) for grid in grids] for grids in plain]


def test_array_backed_matrix_equals_and_hashes_like_row_built():
    field = GF(97)
    a = Matrix(field, [[1, 2, 3], [4, 5, 96]])
    backed = a @ Matrix.identity(field, 3)
    assert backed._entries is None
    rows = Matrix(field, [[1, 2, 3], [4, 5, 96]])
    assert backed == rows and rows == backed and hash(backed) == hash(rows)
    assert backed != Matrix(field, [[1, 2, 3], [4, 5, 95]])
    flat = Matrix(field, [[1, 2], [3, 4], [5, 6]])
    tall = Matrix(field, [[1, 2, 3], [4, 5, 6]])
    assert flat != tall  # the same six residues in another shape
    assert Matrix(GF(5), [[1]]) @ Matrix(GF(5), [[1]]) != Matrix(GF(7), [[1]])


def test_array_backed_entries_are_python_ints():
    for field in (GF(97), P61):
        m = Matrix(field, [[-1, 5], [7, 0]])
        for out in (m @ m, m + m, -m, m.scale(3), m.pow(3), rref(m)[0]):
            assert all(type(x) is int for row in out.entries for x in row)
            assert all(type(row) is tuple for row in out.entries)
            assert json.loads(json.dumps(out.entries)) == [list(row) for row in out.entries]
            assert out.entries is out.entries  # read once, then kept


def test_cached_arrays_reject_writes():
    field = GF(97)
    m = Matrix(field, [[1, 2], [3, 4]])
    arr = m.to_integers()[0]
    assert m.to_integers()[0] is arr  # built with the matrix
    for out in (m, m @ m, m + m, m.transpose(), rref(m)[0]):
        assert_canonical(out)
        with pytest.raises(ValueError):
            out.to_integers()[0][0, 0] = 5
    assert m.entries == ((1, 2), (3, 4))


# the largest int64 prime, and the least prime of the object arrays
INT64_TOP = largest_prime_below(_kernels.PRIME_LIMIT)
OBJECT_LOW = 1048583


@st.composite
def residue_matrices(draw):
    """(a, p): a residue array of ``_kernels.dtype(p)``, up to 12 x 12,
    tall, wide or square, with random entries, every entry p - 1, every
    entry 0, or of rank below its size."""
    p = draw(st.sampled_from((2, 3, 97, INT64_TOP, OBJECT_LOW, P61.characteristic)))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    fill = draw(st.sampled_from(("random", "top", "zero", "deficient")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if fill == "deficient":
        k = rng.randrange(max(min(rows, cols), 1))
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
        grid = [[sum(x * y[j] for x, y in zip(row, right)) % p for j in range(cols)] for row in left]
    else:
        entry = {"random": lambda: rng.randrange(p), "top": lambda: p - 1, "zero": lambda: 0}[fill]
        grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    return np.array(grid, _kernels.dtype(p)).reshape(rows, cols), p


def steep_int64_top(d):
    """(L.U mod p, p) for p = ``INT64_TOP``, unit lower triangular L with
    -1 below the diagonal and U with 2 on it and -2 above it: each pivot
    step of the elimination subtracts about p^2 from every entry below and
    right of its pivot, and each pivot 2 scales its row by (p + 1) / 2."""
    p = INT64_TOP
    low = np.tril(np.full((d, d), -1, object), -1) + np.eye(d, dtype=object)
    up = 2 * (np.eye(d, dtype=object) - np.triu(np.ones((d, d), object), 1))
    return ((low @ up) % p).astype(np.int64), p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(residue_matrices(), st.sampled_from((None, 1, 2)))
@example(steep_int64_top(24), None)
@example((np.array([[1, 2], [2, 1]]), 3), None)
def test_rref_mod_matches_plain_gauss_jordan(case, every):
    # every: the reduction period, patched down so that the periodic
    # reduction fires mid-elimination
    a, p = case
    given_rows = a.tolist()
    period = mock.patch.object(_kernels, "terms", lambda modulus: every)
    with period if every else contextlib.nullcontext():
        r, pivots = _kernels.rref_mod(a, p)
    rows, plain_pivots = plain_rref(GF(p), given_rows)
    assert r.dtype == a.dtype and r.shape == a.shape
    assert (r.tolist(), pivots) == ([list(row) for row in rows], plain_pivots)
    assert a.tolist() == given_rows  # the input is left as it was


def test_dtype_follows_prime_limit():
    below = largest_prime_below(_kernels.PRIME_LIMIT)
    above = _kernels.PRIME_LIMIT + 1
    while not is_prime(above):
        above += 1
    for p, dtype in ((below, np.int64), (above, object)):
        field = GF(p)
        a = Matrix(field, [[p - 1, 1], [0, p - 1]])
        sq = a @ a
        assert sq.entries == (((p - 1) ** 2 % p, 2 * (p - 1) % p), (0, (p - 1) ** 2 % p))
        R, piv = rref(a)
        assert piv == [0, 1] and R == Matrix.identity(field, 2)
        built = [a, sq, R, a + a, -a, a.scale(2), Matrix.zeros(field, 2, 3)]
        for m in built:
            assert_canonical(m)
            assert m.to_integers()[0].dtype == dtype


@pytest.mark.parametrize("field", [GF(97), P61], ids=field_id)
def test_identity_and_zeros_built_in_the_field_form(field):
    for d in (0, 1, 4):
        one = Matrix.identity(field, d)
        assert one._entries is None  # no rows built or converted
        assert_canonical(one)
        rows = Matrix(field, [[int(i == j) for j in range(d)] for i in range(d)], cols=d)
        assert one == rows and rows == one and hash(one) == hash(rows)
    zero = Matrix.zeros(field, 0, 3)
    assert_canonical(zero)
    assert (zero.rows, zero.cols) == (0, 3) and zero._entries is None
    assert zero == Matrix(field, [], cols=3) and zero.is_zero


@pytest.mark.parametrize("field", [P61, PMAX], ids=field_id)
def test_fat_point_over_large_prime(field):
    # k[x, y]/(x, y)^2 moved to the point (p - 1, p - 2), as it is and in
    # a random basis: one local piece, three composition factors at that
    # point, charpoly (t - a)^3 and (f - a)^2 = 0 for each coordinate
    p = field.characteristic
    a, b = p - 1, p - 2
    point = CommutingTuple(field, 2, 1, [Matrix(field, [[a]]), Matrix(field, [[b]])])
    ((key, _),) = k0_class(point).items()
    fat = tensor(point, fat_point(field, 2, 2))
    x, one = UniPoly.gen(field), Matrix.identity(field, 3)
    for t in (fat, conjugate(fat, random.Random(0))):
        assert all(m.to_integers()[0].dtype == object for m in t.mats)
        assert k0_class(t).items() == [(key, 3)]
        assert k0_class(t).lines() == ["3 * [t1 + 1, t2 + 2]"]
        ((sub, piece),) = t.primary_decomposition()
        assert sub.dim == 3 and piece == t
        for m, c in zip(t.mats, (a, b)):
            assert charpoly(m) == (x - UniPoly.constant(field, c)) ** 3
            n = m - one.scale(c)
            assert not n.is_zero and n.pow(2).is_zero


def seeded_tuples():
    rng = random.Random(4)
    return [
        random_commuting_tuple(field, nvars, dim, rng)
        for field in (GF(3), GF(97))
        for nvars, dim in ((1, 5), (2, 6), (2, 8), (3, 7))
    ]


def algebra(t):
    return (
        k0_class(t),
        t.primary_decomposition(),
        t.radical_submodule(),
        t.annihilator_ideal(),
    )


def test_algebra_identical_across_paths(monkeypatch):
    # int64 arrays against arrays of exact Python ints on the same tuples
    calls = count_kernel_calls(monkeypatch)
    int64 = [algebra(t) for t in seeded_tuples()]
    assert calls["matmul_mod"] and calls["rref_mod"]
    with object_arrays(monkeypatch):
        tuples = seeded_tuples()
        assert all(m.to_integers()[0].dtype == object for t in tuples for m in t.mats)
        exact = [algebra(t) for t in tuples]
    assert int64 == exact


def test_end_to_end_output_identical_across_paths(tmp_path, monkeypatch, capsys):
    jobs = []
    for k, t in enumerate(seeded_tuples()):
        path = tmp_path / f"job{k}.txt"
        path.write_text(job_text(t))
        jobs.append(str(path))
    argvs = [[cmd, path, "--json"] for path in jobs for cmd in ("class", "decompose")]

    def outputs():
        out = []
        for argv in argvs:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    int64 = outputs()
    with object_arrays(monkeypatch):
        exact = outputs()
    assert int64 == exact


def test_class_over_large_prime_field():
    p = _kernels.PRIME_LIMIT + 1
    while not is_prime(p):
        p += 1
    field = GF(p)
    m = Matrix(field, [[0, 1], [0, 0]])
    t = CommutingTuple(field, 1, 2, [m])
    assert k0_class(t).lines() == ["2 * [t]"]


def raising(*args):
    raise AssertionError("this charpoly algorithm must not run here")


def list_charpolys(stack, primes):
    """``_kernels.charpoly_mod`` by the list Hessenberg recurrence, layer
    by layer."""
    return [linalg._charpoly_mod(a.tolist(), p) for a, p in zip(stack, primes)]


def test_power_sums_alone_take_f2_f3_f97_and_rational_charpolys(monkeypatch):
    # k0_class over F_2 and F_3, where many charpolys have p <= d, over
    # F_97 and over Q never reaches the list recurrence, and gives the
    # classes that the lists give
    rng = random.Random(89)
    tuples = [
        random_commuting_tuple(field, nvars, dim, rng)
        for field in (GF(2), GF(3), GF(97), QQ)
        for nvars, dim in ((1, 6), (2, 8), (3, 7), (2, 16))
    ]
    with monkeypatch.context() as m:
        m.setattr(_kernels, "charpoly_mod", list_charpolys)
        by_lists = [k0_class(t) for t in tuples]
    monkeypatch.setattr(linalg, "_charpoly_mod", raising)
    assert [k0_class(t) for t in tuples] == by_lists


def first_dim_past_the_bound(p):
    past = (d for d in range(1, 100) if d * _kernels.newton_modulus(p, d) ** 2 >= 1 << 63)
    return next(past, None)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2**31 - 1), P61], ids=field_id)
def test_lists_alone_take_small_and_large_primes(field, monkeypatch):
    # past the int64 bound d M^2 < 2^63 of the power sums, M = p^e, e = 1 +
    # v_p(d!): F_2 from d = 32, F_3 from 39, GF(2^31 - 1) from 3 and
    # GF(2^61 - 1) at every dim never reach them; a companion matrix in a
    # random basis gives back its polynomial, and k0_class runs at 2^61 - 1
    p = field.characteristic
    first = first_dim_past_the_bound(p)
    assert first == {2: 32, 3: 39, 2**31 - 1: 3}.get(p, 1)
    monkeypatch.setattr(_kernels, "charpoly_mod", raising)
    rng = random.Random(101)
    for d in (first, first + 1):
        q = UniPoly(field, [rng.randrange(p) for _ in range(d)] + [1])
        m = Matrix.companion(q)
        (m,) = conjugate(CommutingTuple(field, 1, d, [m]), rng).mats
        assert charpoly(m) == q
    if first == 1:
        for nvars, dim in ((1, 5), (2, 6)):
            t = random_commuting_tuple(field, nvars, dim, rng)
            cls = k0_class(t)
            assert sum(mult * key.residue_degree for key, mult in cls.items()) == dim


@st.composite
def small_prime_stacks(draw):
    """(stack, primes): one to three random matrices over F_2 or F_3, one
    prime per layer, of one dim up to the int64 bound of the power sums
    (31 with an F_2 layer, else 38), dense or sparse."""
    primes = draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=3))
    d = draw(st.integers(0, 31 if 2 in primes else 38))
    density = draw(st.sampled_from((0.05, 0.3, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    grid = [
        [[rng.randrange(p) if rng.random() < density else 0 for _ in range(d)] for _ in range(d)]
        for p in primes
    ]
    return np.array(grid, np.int64).reshape(len(primes), d, d), primes


@settings(derandomize=True, max_examples=80, deadline=None)
@given(small_prime_stacks())
@example((np.eye(31, dtype=np.int64)[None], [2]))
@example((np.eye(38, k=1, dtype=np.int64)[None], [3]))
@example((np.ones((2, 31, 31), np.int64), [2, 3]))
def test_power_sums_match_lists_over_f2_and_f3(case):
    stack, primes = case
    assert _kernels.charpoly_mod(stack, primes) == list_charpolys(stack, primes)


def test_power_sums_chunk_a_mixed_stack_by_its_largest_modulus():
    # F_2 at d = 16 works modulo 2^16 and takes the contraction in one
    # chunk; the largest prime q with 16 q^2 < 2^63 takes it in chunks of
    # 16 terms, and so does the whole stack
    q = largest_prime_below(isqrt((1 << 63) // 16) + 1)
    assert _kernels.newton_modulus(2, 16) == 2**16 and _kernels.terms(q) == 16
    rng = random.Random(103)
    stack = np.array(
        [[[rng.randrange(max(p - 8, 0), p) for _ in range(16)] for _ in range(16)] for p in (2, q)]
    )
    assert _kernels.charpoly_mod(stack, [2, q]) == list_charpolys(stack, [2, q])
