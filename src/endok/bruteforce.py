"""Exhaustive ground truth on tiny prime-field instances.

Everything here goes the long way around on purpose: subspaces are listed
one by one (as reduced-echelon basis matrices, so each appears exactly
once), invariance is a literal filter, and classes are assembled by
peeling composition series, each simple factor counted at the interned
``MaximalIdealKey`` of its annihilator; no enumeration passes
``DEFAULT_BOUND`` subspaces.  The results cross-check the structural
algorithms in :mod:`endok.modules` and :mod:`endok.ktheory`.
"""

from itertools import combinations, product

from .errors import EnumerationBoundError
from .ktheory import GrothendieckClass
from .linalg import Matrix, Subspace, eval_poly_at_matrix
from .modules import CommutingTuple, MaximalIdealKey
from .poly import UniPoly

# Cap on the number of subspaces of F_p^dim, which the oracle enumerates:
# it admits F2 up to dim 6 (2825 subspaces) and F3 up to dim 5 (2664), and
# rejects F2 dim 7 (29212), where one oracle class takes seconds.
DEFAULT_BOUND = 2**12


def subspace_count(p, dim):
    """The number of subspaces of F_p^dim: the sum over k of the Gaussian
    binomials (dim choose k)_p."""
    total = 0
    for k in range(dim + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (dim - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def _check_bound(field, dim):
    """Refuse an enumeration over more than DEFAULT_BOUND subspaces.  The
    middle Gaussian binomial alone is at least p^(h*(dim-h)) for
    h = dim // 2, which rejects large dims without counting."""
    if not field.is_prime_field:
        raise EnumerationBoundError("exhaustive enumeration needs a prime field")
    p, h, bound = field.characteristic, dim // 2, DEFAULT_BOUND
    if h * (dim - h) >= bound.bit_length() or subspace_count(p, dim) > bound:
        raise EnumerationBoundError(
            f"F_{p}^{dim} has more than {bound} subspaces to enumerate"
        )


def all_subspaces(field, dim):
    """Every subspace of F_p^dim exactly once, by enumerating all reduced
    row echelon basis matrices dimension by dimension."""
    _check_bound(field, dim)
    p = field.characteristic
    out = [Subspace.zero(field, dim)]
    for k in range(1, dim + 1):
        for pivots in combinations(range(dim), k):
            free_slots = [
                (i, j)
                for i in range(k)
                for j in range(dim)
                if j > pivots[i] and j not in pivots
            ]
            for values in product(range(p), repeat=len(free_slots)):
                rows = [[0] * dim for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free_slots, values):
                    rows[i][j] = v
                out.append(Subspace(field, dim, rows))
    return out


def all_invariant_submodules(t):
    """Exactly the subspaces closed under every matrix, by brute filter."""
    subs = []
    transposes = [m.transpose() for m in t.mats]
    for s in all_subspaces(t.field, t.dim):
        if all(s.contains(w) for mt in transposes for w in (s.matrix @ mt).entries):
            subs.append(s)
    return subs


def composition_factors_bruteforce(t):
    """Multiset of simple subquotients: repeatedly peel off a minimal
    nonzero invariant submodule.  Each returned tuple is re-verified to
    have exactly the two trivial invariant submodules."""
    _check_bound(t.field, t.dim)
    factors = []
    cur = t
    while cur.dim > 0:
        minimal = next(
            s for s in all_invariant_submodules(cur) if s.dim >= 1
        )
        simple = cur.restrict(minimal)
        if len(all_invariant_submodules(simple)) != 2:
            raise RuntimeError("peeled factor is not simple")
        factors.append(simple)
        cur = cur.quotient(minimal)
    return factors


def k0_class_oracle(t):
    """Class as a plain composition-factor count: one unit at the
    annihilator of each simple factor."""
    factors = composition_factors_bruteforce(t)
    pairs = [(MaximalIdealKey(s.annihilator_ideal()), 1) for s in factors]
    return GrothendieckClass(t.field, t.nvars, pairs)


# ---------------------------------------------------------------------------
# generators for randomized tests: tuples commute by construction because
# every matrix is a polynomial in one seed matrix (plus block sums of such)


def random_vector(field, dim, rng):
    return tuple(field.random_scalar(rng) for _ in range(dim))


def random_matrix(field, dim, rng):
    if field.is_prime_field:
        p = field.characteristic
        entries = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
    else:
        entries = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
    return Matrix(field, entries, cols=dim)


def _polynomial_tuple(field, nvars, dim, rng):
    seed = random_matrix(field, dim, rng)
    mats = []
    for _ in range(nvars):
        if field.is_prime_field:
            coeffs = [rng.randrange(field.characteristic) for _ in range(3)]
        else:
            coeffs = [rng.randint(-2, 2) for _ in range(3)]
        g = UniPoly(field, coeffs)
        mats.append(eval_poly_at_matrix(g, [seed]))
    return CommutingTuple(field, nvars, dim, mats)


def random_commuting_tuple(field, nvars, dim, rng, block_split=True):
    if dim == 0:
        return CommutingTuple.zeros(field, nvars, 0)
    if block_split and dim >= 2 and rng.randrange(2):
        d1 = rng.randint(1, dim - 1)
        return CommutingTuple.direct_sum(
            _polynomial_tuple(field, nvars, d1, rng),
            _polynomial_tuple(field, nvars, dim - d1, rng),
        )
    return _polynomial_tuple(field, nvars, dim, rng)
