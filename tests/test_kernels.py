"""The int64 array path and the generic object path must agree exactly.

The field decides the path: prime fields below ``_kernels.PRIME_LIMIT`` use
the array kernels.  Tests force the generic path by replacing
``linalg._arrays_enabled``; while forced, the kernels raise if called, so a
passing comparison cannot be the array path checked against itself.
"""

import contextlib
import random

import pytest

from endok import _kernels, linalg
from endok.bruteforce import random_commuting_tuple
from endok.cli import main
from endok.fields import GF, FieldSpec, is_prime
from endok.ktheory import k0_class
from endok.linalg import Matrix, rref
from endok.modules import CommutingTuple


@contextlib.contextmanager
def generic_path(monkeypatch):
    """Run the block on the generic exact loops, with the kernels disarmed."""

    def unreachable(*args):
        raise AssertionError("array kernel called on the generic path")

    with monkeypatch.context() as m:
        m.setattr(linalg, "_arrays_enabled", lambda field: False)
        m.setattr(_kernels, "matmul_mod", unreachable)
        m.setattr(_kernels, "rref_mod", unreachable)
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


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_array_path_matches_generic_path(p, monkeypatch):
    field = GF(p)
    rng = random.Random(p + 100)
    pairs = []
    for _ in range(30):
        rows, mid, cols = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.choice([None, 0, 1, min(rows, mid) // 2])
        pairs.append(
            (random_matrix(field, rng, rows, mid, rank), random_matrix(field, rng, mid, cols))
        )
    calls = count_kernel_calls(monkeypatch)
    fast = [(a @ b, rref(a), rref(b)) for a, b in pairs]
    assert calls == {"matmul_mod": len(pairs), "rref_mod": 2 * len(pairs)}
    with generic_path(monkeypatch):
        slow = [(a @ b, rref(a), rref(b)) for a, b in pairs]
    assert fast == slow
    assert any(len(piv) < min(a.rows, a.cols) for (a, _), (_, (_, piv), _) in zip(pairs, fast))


def test_large_prime_uses_generic_path():
    p = _kernels.PRIME_LIMIT + 1
    while not is_prime(p):
        p += 1
    field = FieldSpec.prime(p)
    a = Matrix(field, [[p - 1, 1], [0, p - 1]])
    sq = a @ a
    assert sq.entries[0][0] == (p - 1) * (p - 1) % p
    R, piv = rref(a)
    assert piv == [0, 1]


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
    tuples = seeded_tuples()
    calls = count_kernel_calls(monkeypatch)
    fast = [algebra(t) for t in tuples]
    assert calls["matmul_mod"] and calls["rref_mod"]
    with generic_path(monkeypatch):
        slow = [algebra(t) for t in tuples]
    assert fast == slow


def job_text(t):
    header = f"field F {t.field.characteristic}\nvars {t.nvars}\ndim {t.dim}\n"
    return header + "".join(f"{m}\n" for m in t.mats)


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

    fast = outputs()
    with generic_path(monkeypatch):
        slow = outputs()
    assert fast == slow


def test_class_over_large_prime_field():
    p = _kernels.PRIME_LIMIT + 1
    while not is_prime(p):
        p += 1
    field = FieldSpec.prime(p)
    m = Matrix(field, [[0, 1], [0, 0]])
    t = CommutingTuple(field, 1, 2, [m])
    assert k0_class(t).lines() == ["2 * [t]"]
