"""Seeded input generators for the benchmark.

Inputs are built only through the package's public constructors
(``Matrix``, ``Matrix.companion``, ``Matrix.block_diag`` and
``random_commuting_tuple``).  Every generator that knows the class of
what it builds returns that knowledge alongside the matrices, as a map
from the rendered generators of a maximal ideal to a multiplicity, so the
checker can compare against it without running the code being timed.

A generated input is a ``Case``: the field, the matrices (already
conjugated), the job text the program parses, and what the construction
guarantees about the class.
"""

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations_with_replacement

from endok import Matrix, UniPoly, random_commuting_tuple
from endok.modules import Ideal
from endok.poly import MultiPoly


@dataclass(eq=False)
class Case:
    """One benchmark input.

    ``exact`` is the whole class when the construction fixes it (else
    None); ``at_least`` holds lower bounds on multiplicities that the
    construction guarantees (fat-point blocks, whose point a curvilinear
    block may share).  Cases compare and hash by identity, so checks can
    be memoised per case.
    """

    field: object
    mats: list
    nvars: int
    dim: int
    label: str
    exact: dict | None = None
    at_least: dict = dataclass_field(default_factory=dict)
    text: str = ""
    tuple: object = None  # the CommutingTuple parsed from ``text``
    command: str = ""  # the CLI command, for cli-mix cases


def point_key(field, point):
    """Rendered generators of the maximal ideal (t1 - a1, ..., tn - an)."""
    n = len(point)
    gens = []
    for i, a in enumerate(point):
        ti = MultiPoly.variable(field, n, i)
        gens.append(ti - MultiPoly.constant(field, n, a))
    return Ideal(field, n, gens, [(0,) * n]).generator_strings()


def principal_key(q):
    """Rendered generator of the maximal ideal (q) of k[t], q monic irreducible."""
    return (str(MultiPoly.from_unipoly(q)),)


def fat_point_block(field, point, order):
    """The module k[x1..xn]/(x1..xn)^order with t_i acting as a_i + x_i.

    Its basis is the monomials of total degree below ``order``; the module
    is local at the rational point ``point`` with multiplicity equal to its
    dimension, and for n >= 2, order >= 2 it is not cyclic.
    """
    n = len(point)
    monos = [(0,) * n]
    for deg in range(1, order):
        for combo in combinations_with_replacement(range(n), deg):
            monos.append(tuple(combo.count(i) for i in range(n)))
    index = {m: k for k, m in enumerate(monos)}
    d = len(monos)
    mats = []
    for i, a in enumerate(point):
        grid = [[0] * d for _ in range(d)]
        for col, m in enumerate(monos):
            grid[col][col] = a
            up = tuple(e + 1 if j == i else e for j, e in enumerate(m))
            if up in index:
                grid[index[up]][col] = 1
        mats.append(Matrix(field, grid, cols=d))
    return mats


def curvilinear_block(field, nvars, dim, rng):
    """Polynomials in one random seed matrix, so the module is cyclic."""
    return list(random_commuting_tuple(field, nvars, dim, rng, block_split=False).mats)


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def cyclic_block(field, nvars, dim, rng):
    """A curvilinear tuple whose t1 is the companion matrix of a random
    monic polynomial and whose other t_i are quadratics in t1.

    Because t1 alone generates the algebra, splitting along t1's minimal
    polynomial already yields local pieces.  Over F2 a tuple gets exactly
    one such block in place of ``curvilinear_block`` blocks: ``k0_class``
    raises on pieces where every t_i is primary but the tuple is not local
    (two points over F_{2^k} that share each coordinate's minimal
    polynomial), and random polynomial tuples over F2, or sums of two
    blocks like this one, produce such pieces often.
    """
    p = field.characteristic

    def scalar():
        return rng.randrange(p) if p else rng.randint(-2, 2)

    c = Matrix.companion(UniPoly(field, [scalar() for _ in range(dim)] + [1]))
    grid = [list(row) for row in c.entries]
    square = _matmul(grid, grid)
    mats = [c]
    for _ in range(nvars - 1):
        a0, a1, a2 = scalar(), scalar(), scalar()
        g = [
            [a0 * (i == j) + a1 * grid[i][j] + a2 * square[i][j] for j in range(dim)]
            for i in range(dim)
        ]
        mats.append(Matrix(field, g, cols=dim))
    return mats


def direct_sum(field, blocks):
    """Block-diagonal sum of tuples given as lists of matrices."""
    nvars = len(blocks[0])
    return [Matrix.block_diag(field, [b[i] for b in blocks]) for i in range(nvars)]


def conjugate(field, mats, rng, steps):
    """P f P^-1 for each f, with P a product of ``steps`` random transvections.

    A transvection E = I + c e_ij acts by row_i += c row_j followed by
    col_j -= c col_i.  Over Q, c = +-1 keeps P unimodular and entries
    integral; over F_p, c is any nonzero residue.
    """
    d = mats[0].rows
    if d < 2:
        return mats
    grids = [[list(row) for row in m.entries] for m in mats]
    p = field.characteristic
    moves = []
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.randrange(1, p) if p else rng.choice((-1, 1))
        moves.append((i, j, c))
    for g in grids:
        for i, j, c in moves:
            gi, gj = g[i], g[j]
            for k in range(d):
                gi[k] = gi[k] + c * gj[k]
            for row in g:
                row[j] = row[j] - c * row[i]
            if p:
                for row in g:
                    row[j] %= p
                g[i] = [x % p for x in g[i]]
    return [Matrix(field, g, cols=d) for g in grids]


def job_text(field, mats):
    """The job file the CLI and ``parse_input`` read for this tuple."""
    head = "field Q" if field.is_rationals else f"field F {field.characteristic}"
    lines = [head, f"vars {len(mats)}", f"dim {mats[0].rows}"]
    lines += [str(m) for m in mats]
    return "\n".join(lines) + "\n"


def _finish(case, rng, steps):
    case.mats = conjugate(case.field, case.mats, rng, steps)
    case.text = job_text(case.field, case.mats)
    return case


def tuple_case(
    field, nvars, curvilinear_dims, fat_points, rng, conj_steps, block=curvilinear_block
):
    """Curvilinear blocks (made by ``block``) plus fat-point blocks,
    conjugated.

    ``fat_points`` lists (point, order) pairs.  The class is only partly
    known: each fat point contributes its dimension at its point.
    """
    blocks = [block(field, nvars, d, rng) for d in curvilinear_dims]
    at_least = {}
    for point, order in fat_points:
        b = fat_point_block(field, point, order)
        blocks.append(b)
        key = point_key(field, point)
        at_least[key] = at_least.get(key, 0) + b[0].rows
    mats = direct_sum(field, blocks)
    dim = mats[0].rows
    label = f"{field!r} n={nvars} dim={dim}"
    case = Case(field, mats, nvars, dim, label, at_least=at_least)
    return _finish(case, rng, conj_steps)


def companion_case(field, specs, rng, conj_steps):
    """n = 1: companion blocks of q^e for certified irreducible q.

    ``specs`` lists (q, e).  The class is e * [q] summed over blocks.
    """
    blocks = []
    exact = {}
    for q, e in specs:
        blocks.append([Matrix.companion(q**e)])
        key = principal_key(q)
        exact[key] = exact.get(key, 0) + e
    mats = direct_sum(field, blocks)
    dim = mats[0].rows
    case = Case(field, mats, 1, dim, f"{field!r} n=1 dim={dim}", exact=exact)
    return _finish(case, rng, conj_steps)


def random_point(field, nvars, rng):
    p = field.characteristic
    if p:
        return tuple(rng.randrange(p) for _ in range(nvars))
    return tuple(rng.randint(-3, 3) for _ in range(nvars))


def eisenstein(field, degree, rng):
    """Monic x^deg + c_{deg-1} x^{deg-1} + ... + c_0 irreducible over Q by
    Eisenstein's criterion at a prime p: p divides every c_i and p^2 does
    not divide c_0."""
    p = rng.choice((2, 3))
    coeffs = [p * rng.choice((-1, 1))]
    coeffs += [p * rng.randint(-1, 1) for _ in range(degree - 1)]
    return UniPoly(field, coeffs + [1])


def linear(field, root):
    return UniPoly(field, [-root, 1])


def quadratic_nonsplit(field, rng):
    """x^2 - r, irreducible over F_p (p odd) because r is a quadratic
    non-residue, certified by Euler's criterion r^((p-1)/2) = -1."""
    p = field.characteristic
    while True:
        r = rng.randrange(2, p)
        if pow(r, (p - 1) // 2, p) == p - 1:
            return UniPoly(field, [-r, 0, 1])
