import os
import random
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from endok import _kernels
from endok.fields import GF, MAX_PRIME, QQ, is_prime
from endok.linalg import Matrix, Subspace, eval_poly_at_matrix
from endok.modules import CommutingTuple, Ideal, multiplication_matrix
from endok.poly import MultiPoly, UniPoly

ALL_FIELDS = [QQ, GF(2), GF(3), GF(5)]


def largest_prime_below(n):
    p = n - 1
    while not is_prime(p):
        p -= 1
    return p


# primes whose residue products overflow int64
P61 = GF(2**61 - 1)
PMAX = GF(largest_prime_below(MAX_PRIME))


SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env():
    """The environment for a ``python -m endok.cli`` child process: this
    one, with the checkout's ``src`` first on PYTHONPATH, so the child
    imports the same package as the tests, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def rng():
    return random.Random(0)


def field_id(field):
    return repr(field)


# -- textbook matrix loops on raw scalars, shared by the kernel tests ---------


def plain_ops(field):
    """(add, sub, mul, div) on raw scalars by the textbook formulas."""
    p = field.characteristic
    if not p:
        return (
            (lambda a, b: a + b),
            (lambda a, b: a - b),
            (lambda a, b: a * b),
            (lambda a, b: a / b),
        )
    return (
        (lambda a, b: (a + b) % p),
        (lambda a, b: (a - b) % p),
        (lambda a, b: a * b % p),
        (lambda a, b: a * pow(b, p - 2, p) % p),
    )


def plain_matmul(field, a, b):
    add, _, mul, _ = plain_ops(field)
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = field.zero
            for k, x in enumerate(row):
                acc = add(acc, mul(x, b[k][j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def plain_rref(field, grid):
    """(rows, pivots) of the reduced row echelon form of grid, by
    Gauss-Jordan one scalar at a time."""
    _, sub, mul, div = plain_ops(field)
    rows = [list(row) for row in grid]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        a = rows[r][c]
        rows[r] = [div(x, a) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(map(tuple, rows)), pivots


def plain_reduce(field, basis, pivots, v):
    """v minus its component in the span of reduced echelon rows, one
    row at a time over field scalars."""
    _, sub, mul, _ = plain_ops(field)
    work = [field.coerce(x) for x in v]
    for row, c in zip(basis, pivots):
        f = work[c]
        if f:
            work = [sub(x, mul(f, y)) for x, y in zip(work, row)]
    return tuple(work)


def assert_canonical(m):
    """m holds the one integer form N/D of its field: a read-only array
    N of the matrix's shape over D > 0, residues of dtype
    ``_kernels.dtype(p)`` over 1 over F_p, Python integers with
    gcd(content(N), D) = 1 over Q."""
    num, den = m.to_integers()
    assert not num.flags.writeable
    assert num.shape == (m.rows, m.cols)
    p = m.field.characteristic
    if p:
        assert num.dtype == _kernels.dtype(p) and den == 1
        assert all(0 <= x < p for x in num.flat)
    else:
        assert num.dtype == object and den > 0
        assert all(type(x) is int for x in num.flat)
        assert gcd(den, *num.flat) == 1


# -- tuple builders shared by the split, module and sweep tests ------------------


def conjugate(t, rng):
    """t in a seeded random basis: each f_i becomes P.f_i.P^-1, where
    P = L.U for random unit lower and upper triangular L and U."""
    F, d = t.field, t.dim
    one = Matrix.identity(F, d)

    def unit_triangular(strict):
        grid = [
            [rng.randint(-2, 2) if strict(i, j) else 0 for j in range(d)]
            for i in range(d)
        ]
        n = Matrix(F, grid, cols=d)
        # (1 + n)^-1 = 1 - n + n^2 - ..., as n is nilpotent
        inv = power = one
        for _ in range(d - 1):
            power = power @ -n
            inv = inv + power
        return one + n, inv

    l, l_inv = unit_triangular(lambda i, j: i > j)
    u, u_inv = unit_triangular(lambda i, j: i < j)
    p, p_inv = l @ u, u_inv @ l_inv
    return CommutingTuple(F, t.nvars, d, [p @ m @ p_inv for m in t.mats])


def twisted_points(q, rng):
    """(C, g(C)) and (C, g(C')) for C the companion matrix of an irreducible
    q, C' its conjugate and g random of degree < deg q: two points that
    share each coordinate's minimal polynomial.  C' is C^p over F_p and -C
    over Q, where q must then be t^2 - a."""
    F = q.field
    c = Matrix.companion(q)
    conj = c.pow(F.characteristic) if F.is_prime_field else -c
    g = UniPoly(F, [rng.randint(-3, 3) for _ in range(q.degree)])
    return [
        CommutingTuple(F, 2, q.degree, [c, eval_poly_at_matrix(g, [m])])
        for m in (c, conj)
    ]


def simple_point(q, hs, rng):
    """(C, h_2(C), .., h_n(C)) for C the companion matrix of an irreducible
    q and hs the polynomials h_j, in a seeded random basis: a simple
    module, as k[C] is a field of degree deg q = dim and each h_j(C) lies
    in it.  A constant h_j gives a scalar matrix."""
    c = Matrix.companion(q)
    mats = [c] + [eval_poly_at_matrix(h, [c]) for h in hs]
    return conjugate(CommutingTuple(q.field, len(mats), q.degree, mats), rng)


def fat_point(field, nvars, power):
    """k[t1..tn]/(t1..tn)^power by multiplication matrices.  For n >= 2 and
    power >= 2 it is not cyclic over its socle: the socle, spanned by the
    monomials of degree power - 1, is wider than the residue field."""
    gens = [
        MultiPoly(field, nvars, {m: field.one})
        for m in product(range(power + 1), repeat=nvars)
        if sum(m) == power
    ]
    ideal = Ideal.from_groebner_basis(field, nvars, gens)
    mats = [
        multiplication_matrix(ideal, MultiPoly.variable(field, nvars, i))
        for i in range(nvars)
    ]
    return CommutingTuple(field, nvars, ideal.quotient_dim, mats)


def tensor(a, b):
    """a (x) b with t_i acting as f_i (x) 1 + 1 (x) h_i; tensoring a point
    with a fat point at the origin moves the fat point to that point."""
    F = a.field

    def kron(x, y):
        grid = [
            [u * v for u in xrow for v in yrow]
            for xrow in x.entries
            for yrow in y.entries
        ]
        return Matrix(F, grid, cols=x.cols * y.cols)

    ia, ib = Matrix.identity(F, a.dim), Matrix.identity(F, b.dim)
    mats = [kron(f, ib) + kron(ia, h) for f, h in zip(a.mats, b.mats)]
    return CommutingTuple(F, a.nvars, a.dim * b.dim, mats)


def local_pieces(t):
    """(W, piece, key) for each local piece of t: ``_local_pieces`` gives
    the rows W and the key, and piece is t restricted to the span of W's
    rows, in its echelon basis."""
    for w, key in t._local_pieces():
        yield w, t.restrict(Subspace._row_space(w)), key


def job_text(t):
    """The job file of a tuple, as the CLI reads it."""
    field = "Q" if t.field == QQ else f"F {t.field.characteristic}"
    mats = "".join(f"{m}\n" if t.dim else "[[]]\n" for m in t.mats)
    return f"field {field}\nvars {t.nvars}\ndim {t.dim}\n{mats}"
