"""Output checks for the benchmark, run outside the timed region.

The checks do not trust the path being timed.  ``k0_class`` and the CLI
commands never compute a characteristic polynomial, so the class check
rests on the Hessenberg ``charpoly``, on ``multiplication_matrix`` over
the reported key ideals and on matrix arithmetic written here:

* bookkeeping: sum of mult * residue degree equals the dimension;
* each key's residue algebra k[T]/M is reduced, and each t_i has a
  characteristic polynomial on it that is a pure power of its eliminant;
* per variable, charpoly(f_i) equals the product over keys of
  charpoly(t_i on k[T]/M)^mult;
* the part of the class fixed by the construction (whole classes for
  companion sums, lower bounds for fat points) is present.

Matrix evaluation and ranks run on int64 arrays modulo p over F_p, which
is exact, and modulo the prime CHECK_PRIME over Q.  The inputs over Q are
integral, so a rank mod CHECK_PRIME is a lower bound on the rank over Q,
and a polynomial that vanishes on the tuple vanishes mod CHECK_PRIME; a
wrong output passes only if every entry of a nonzero rational matrix is
divisible by CHECK_PRIME.

A verdict depends only on the input and the output, so it is memoised
per (input, rendered output): the cycled pool pays for each check once.
"""

from fractions import Fraction

import numpy as np

from endok.linalg import charpoly
from endok.modules import Ideal, multiplication_matrix
from endok.parse import parse_poly
from endok.poly import MultiPoly, UniPoly, squarefree_part

CHECK_PRIME = 33554393  # 2^25 - 39: d * (p - 1)^2 stays inside int64


def _modulus(F):
    return F.characteristic or CHECK_PRIME


def _residue(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _array(F, rows):
    p = _modulus(F)
    return np.array([[_residue(x, p) for x in row] for row in rows], dtype=np.int64)


def _eval(F, poly, arrays):
    """poly (MultiPoly) at commuting matrices (residue arrays), mod p."""
    p = _modulus(F)
    d = arrays[0].shape[0]
    powers = [[np.eye(d, dtype=np.int64)] for _ in arrays]

    def power(i, e):
        while len(powers[i]) <= e:
            powers[i].append(powers[i][-1] @ arrays[i] % p)
        return powers[i][e]

    acc = np.zeros((d, d), dtype=np.int64)
    for exps, c in poly.terms:
        term = np.eye(d, dtype=np.int64)
        for i, e in enumerate(exps):
            if e:
                term = term @ power(i, e) % p
        acc = (acc + _residue(c, p) * term) % p
    return acc


def _rank(F, rows):
    """Rank of the rows of a residue array by Gauss elimination mod p."""
    p = _modulus(F)
    work = np.array(rows, dtype=np.int64) % p
    rank = 0
    for c in range(work.shape[1] if work.size else 0):
        nz = np.nonzero(work[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        work[[rank, piv]] = work[[piv, rank]]
        work[rank] = work[rank] * pow(int(work[rank, c]), -1, p) % p
        below = work[rank + 1 :, c].copy()
        work[rank + 1 :] = (work[rank + 1 :] - np.outer(below, work[rank])) % p
        rank += 1
        if rank == work.shape[0]:
            break
    return rank


class Checker:
    """Memoised output checks against the benchmark's own inputs."""

    def __init__(self):
        self._verdicts = {}
        self._charpolys = {}

    def verdict(self, case, output_key, check):
        key = (case, output_key)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = bool(check())
            except (ValueError, ArithmeticError, KeyError, TypeError):
                self._verdicts[key] = False
        return self._verdicts[key]

    def _reference_charpolys(self, case):
        if case not in self._charpolys:
            self._charpolys[case] = [charpoly(m) for m in case.mats]
        return self._charpolys[case]

    # -- classes ---------------------------------------------------------

    def class_ok(self, case, entries):
        """entries: [(generator strings, residue degree, multiplicity)]."""
        entries = [(tuple(g), int(deg), int(mult)) for g, deg, mult in entries]
        return self.verdict(
            case, ("class", tuple(sorted(entries))), lambda: self._class(case, entries)
        )

    def _class(self, case, entries):
        F, n = case.field, case.nvars
        gens_seen = set()
        total = 0
        products = [UniPoly.one(F)] * n
        for gens, deg, mult in entries:
            if gens in gens_seen or mult <= 0:
                return False
            gens_seen.add(gens)
            ideal = Ideal.from_groebner_basis(
                F, n, [parse_poly(g, F, n) for g in gens]
            )
            if ideal.quotient_dim != deg:
                return False
            total += mult * deg
            for i in range(n):
                mi = multiplication_matrix(ideal, MultiPoly.variable(F, n, i))
                c = charpoly(mi)
                elim = squarefree_part(c)
                if deg % elim.degree or elim ** (deg // elim.degree) != c:
                    return False
                at = _eval(F, MultiPoly.from_unipoly(elim), [_array(F, mi.entries)])
                if at.any():
                    return False  # t_i is not semisimple: k[T]/M is not reduced
                products[i] = products[i] * c**mult
        if total != case.dim:
            return False
        got = {gens: mult for gens, _, mult in entries}
        if case.exact is not None and got != case.exact:
            return False
        if any(got.get(k, 0) < m for k, m in case.at_least.items()):
            return False
        return products == self._reference_charpolys(case)

    # -- CLI documents -----------------------------------------------------

    def decompose_ok(self, case, doc):
        mults = {}
        for piece in doc["pieces"]:
            dim, deg = int(piece["dim"]), int(piece["residue_degree"])
            if dim % deg:
                return False
            gens = tuple(piece["generators"])
            mults[gens] = (deg, mults.get(gens, (deg, 0))[1] + dim // deg)
        return self.class_ok(case, [(g, deg, m) for g, (deg, m) in mults.items()])

    def radical_ok(self, case, doc):
        return self.verdict(
            case,
            ("radical", repr(sorted(doc.items()))),
            lambda: self._radical(case, doc),
        )

    def _radical(self, case, doc):
        F, d = case.field, case.dim
        dims = [int(x) for x in doc["layer_dims"]]
        rad = int(doc["radical_dim"])
        basis = _array(F, doc["radical_basis"])
        if sum(dims) != d or any(x <= 0 for x in dims):
            return False
        if rad != d - dims[0] or len(basis) != rad:
            return False
        if not rad:
            return True
        if _rank(F, basis) != rad:
            return False
        p = _modulus(F)
        for m in case.mats:
            images = basis @ _array(F, m.entries).T % p
            if _rank(F, np.vstack([basis, images])) != rad:
                return False  # the radical is not invariant
        return True

    def annihilator_ok(self, case, doc):
        return self.verdict(
            case,
            ("annihilator", tuple(doc["generators"]), tuple(doc["standard_monomials"])),
            lambda: self._annihilator(case, doc),
        )

    def _annihilator(self, case, doc):
        """Every generator vanishes on the tuple, and the standard monomials
        (the complement of the generators' leading terms) evaluate to
        independent matrices; together these force equality with Ann."""
        F, n = case.field, case.nvars
        arrays = [_array(F, m.entries) for m in case.mats]
        gens = [parse_poly(g, F, n) for g in doc["generators"]]
        if any(_eval(F, g, arrays).any() for g in gens):
            return False
        std = {parse_poly(s, F, n).leading_monomial for s in doc["standard_monomials"]}
        if len(std) != int(doc["dimension"]):
            return False
        if set(Ideal.from_groebner_basis(F, n, gens).standard_monomials) != std:
            return False
        flat = [_eval(F, MultiPoly(F, n, {m: F.one}), arrays).ravel() for m in std]
        return _rank(F, flat) == len(std)
