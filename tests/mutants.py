"""A catalogue of mutants: small wrong edits of the package, each with the
tests that must fail on it.

Each entry names a patch, the file (from the repository root) whose old
text, found exactly once, it replaces by the new text, and the pytest ids
of the tests that must kill it.  ``tests/test_source.py`` checks that
every old text still occurs once, so the catalogue cannot rot unseen.

Running this file,

    python tests/mutants.py [name ...]

copies ``src``, ``tests``, ``perfbench`` and ``pyproject.toml`` to a new
temporary directory for each mutant (``TMPDIR`` picks where), applies its
patch there, runs its tests with ``-x`` and reports it killed (a test
failed, or the tests did not end within ``TIMEOUT`` seconds: a mutant
can make a loop endless), survived (every test passed) or broken (pytest
could not run them).  It runs every mutant, or those named, and exits 1
unless every one was killed.  The checkout itself is never changed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 120  # seconds; the tests of a mutant whose loops end take far less

Mutant = namedtuple("Mutant", "name path old new tests")

FACTOR = "src/endok/factor.py"
KERNELS = "src/endok/_kernels.py"
FIELDS = "src/endok/fields.py"
LINALG = "src/endok/linalg.py"
MODULES = "src/endok/modules.py"
PARSE = "src/endok/parse.py"
POLY = "src/endok/poly.py"

MUTANTS = [
    # power sums modulo p^e
    Mutant(
        "newton-modulus-p",
        KERNELS,
        "    return p**e\n",
        "    return p\n",
        ["tests/test_differential.py::test_charpoly_for_p_at_most_d_matches_sympy"],
    ),
    Mutant(
        "newton-modulus-one-power-short",
        KERNELS,
        "    return p**e\n",
        "    return p ** (e - (e > 1))\n",
        ["tests/test_differential.py::test_charpoly_for_p_at_most_d_matches_sympy"],
    ),
    Mutant(
        "newton-no-p-part-division",
        KERNELS,
        "c.append(t % q // u * pow(j // u, -1, q) % q)",
        "c.append(t % q * pow(j // u, -1, q) % q)",
        ["tests/test_differential.py::test_charpoly_for_p_at_most_d_matches_sympy"],
    ),
    Mutant(
        "contraction-skips-last-chunk",
        KERNELS,
        "for lo in range(0, d * d, chunk):",
        "for lo in range(0, max(d * d - chunk, 1), chunk):",
        ["tests/test_differential.py::test_charpoly_in_trace_chunks_matches_sympy"],
    ),
    Mutant(
        "contraction-chunked-by-smallest-modulus",
        KERNELS,
        "chunk = terms(max(moduli))",
        "chunk = terms(min(moduli))",
        ["tests/test_kernels.py::test_power_sums_chunk_a_mixed_stack_by_its_largest_modulus"],
    ),
    Mutant(
        "blas-past-float64-bound",
        KERNELS,
        "    exact = d * (max(moduli) - 1) ** 2 < FLOAT64_EXACT\n",
        "    exact = True\n",
        ["tests/test_kernels.py::test_power_sums_on_both_sides_of_the_float64_bound"],
    ),
    Mutant(
        "crt-one-prime-too-few",
        LINALG,
        "    residues = num % np.array(primes, object)[:, None, None]\n",
        "    primes = primes[:-1] or primes\n    residues = num % np.array(primes, object)[:, None, None]\n",
        ["tests/test_linalg.py::test_rational_charpoly_by_crt_matches_fraction_hessenberg"],
    ),
    # deferred reduction mod p
    Mutant(
        "rref-mod-no-final-reduction",
        KERNELS,
        "    a %= p\n    return a, pivots\n",
        "    return a, pivots\n",
        ["tests/test_kernels.py::test_rref_mod_matches_plain_gauss_jordan"],
    ),
    Mutant(
        "rref-mod-tests-unreduced-column",
        KERNELS,
        "nz = col[r:].nonzero()[0]",
        "nz = a[r:, c].nonzero()[0]",
        ["tests/test_kernels.py::test_rref_mod_matches_plain_gauss_jordan"],
    ),
    Mutant(
        "rref-mod-scales-unreduced-row",
        KERNELS,
        "        row = a[i] % p\n",
        "        row = a[i]\n",
        ["tests/test_kernels.py::test_rref_mod_matches_plain_gauss_jordan"],
    ),
    Mutant(
        "fraction-residue-unreduced",
        FIELDS,
        "return x.numerator * self.inv(x.denominator % p) % p",
        "return x.numerator * self.inv(x.denominator % p)",
        ["tests/test_fields.py::test_canonical_forms"],
    ),
    Mutant(
        # a residue left unreduced never cancels as a lead term: the loop
        # does not end, and the timeout kills the mutant
        "normal-form-subtraction-unreduced",
        POLY,
        "v = F.coerce(work.get(e2, F.zero) - factor * bc)",
        "v = work.get(e2, F.zero) - factor * bc",
        ["tests/test_differential.py::test_normal_forms_and_multiplication_matrices_match_sympy"],
    ),
    Mutant(
        "from-part-no-gcd",
        LINALG,
        "    return Matrix._from_form(field, *_reduced(num, den))\n",
        "    return Matrix._from_form(field, num, den)\n",
        ["tests/test_linalg.py::test_every_operation_keeps_the_canonical_form"],
    ),
    Mutant(
        "pow-mod-unit-one",
        POLY,
        "        lambda: _divmod([1], m, p)[1],\n",
        "        lambda: [1],\n",
        ["tests/test_poly.py::test_lcm_and_pow_mod"],
    ),
    # equal-degree splitting by trace values
    Mutant(
        "trace-split-keeps-one-value",
        FACTOR,
        "                for c in values\n",
        "                for c in values[:1]\n",
        ["tests/test_differential.py::test_equal_degree_products_match_sympy"],
    ),
    # roots by the power table, and the Hensel ladder
    Mutant(
        "power-table-block-short",
        FACTOR,
        "        step = table[top].astype(np.int64)\n",
        "        step = table[top - 1].astype(np.int64)\n",
        ["tests/test_factor.py::test_roots_match_evaluation_at_every_element"],
    ),
    Mutant(
        "hensel-ladder-one-short",
        FACTOR,
        "    ladder = [l]\n",
        "    ladder = [l - 1]\n",
        ["tests/test_factor.py::test_hensel_lift_reaches_p_to_the_l"],
    ),
    # the key layer
    Mutant(
        "affine-key-skips-its-check",
        MODULES,
        "    rest = x * num[:, l, l] - y * fi[l, l] - c\n"
        "    if (rest % p if p else rest).any():\n"
        "        return None\n"
        "    rest = x * num - y[:, None, None] * fi\n"
        "    rest[:, range(d), range(d)] -= c[:, None]\n"
        "    if (rest % p if p else rest).any():\n"
        "        return None\n",
        "",
        ["tests/test_split.py::test_read_off_keys_are_the_annihilators_keys"],
    ),
    Mutant(
        "affine-key-unscaled-slope",
        MODULES,
        "slope = coerce(b[j] * F.inv(coerce(b[s])))",
        "slope = coerce(b[j])",
        ["tests/test_split.py::test_read_off_keys_are_the_annihilators_keys"],
    ),
    Mutant(
        "key-renders-generators-reversed",
        MODULES,
        "render_terms(F, terms, n) for terms in self._gens)",
        "render_terms(F, terms, n) for terms in reversed(self._gens))",
        ["tests/test_modules.py::test_keys_render_their_own_term_tuples"],
    ),
    Mutant(
        "class-json-skips-annihilator-check",
        PARSE,
        "            or regular.annihilator_ideal() != ideal\n",
        "",
        ["tests/test_parse.py::test_class_json_rejects_keys_that_are_not_maximal_in_reduced_form"],
    ),
    # the stack of the maps
    Mutant(
        "invariance-names-previous-map",
        MODULES,
        'raise error(f"subspace is not invariant under matrix {k[0]}")',
        'raise error(f"subspace is not invariant under matrix {k[0] - 1}")',
        ["tests/test_modules.py::test_stack_invariance_check_names_the_failing_map"],
    ),
    Mutant(
        "submodule-maps-unchecked",
        MODULES,
        "    return _invariant_maps(maps, B, (fb[0].take(coords, -2), fb[1]), fb, error)\n",
        "    return _from_part(maps.field, fb[0].take(coords, -2), fb[1])\n",
        ["tests/test_modules.py::test_stack_invariance_check_names_the_failing_map"],
    ),
    Mutant(
        "submatrix-first-two-axes",
        LINALG,
        "m._num.take(rows, -2).take(cols, -1)",
        "m._num.take(rows, 0).take(cols, 1)",
        ["tests/test_modules.py::test_stack_restrict_and_quotient_match_per_matrix_products"],
    ),
    Mutant(
        "annihilator-children-wrong-layer",
        MODULES,
        "vectors[child] = (num[i], den)",
        "vectors[child] = (num[n - 1 - i], den)",
        ["tests/test_modules.py::test_annihilator_examples"],
    ),
    Mutant(
        "commutation-names-last-pair",
        MODULES,
        "raise NonCommutingError(*pairs[k[0]])",
        "raise NonCommutingError(*pairs[-1])",
        ["tests/test_modules.py::test_stack_commutation_check_names_the_failing_pair"],
    ),
    # derived tuples, the minimal polynomial and evaluation
    Mutant(
        "quotient-adds-correction",
        MODULES,
        "_submatrix(maps, comp, comp) - bc @",
        "_submatrix(maps, comp, comp) + bc @",
        ["tests/test_modules.py::test_restrict_quotient_dims_add"],
    ),
    Mutant(
        "block-sum-columns-from-the-end",
        LINALG,
        "num[..., off : off + b.rows, off : off + b.rows]",
        "num[..., off : off + b.rows, size - off - b.rows : size - off]",
        ["tests/test_modules.py::test_derived_tuples_equal_their_checked_rebuilds"],
    ),
    Mutant(
        "minpoly-sign-flipped",
        LINALG,
        "coeffs = [-combo.get(j, F.zero) for j in range(ech.rank)]",
        "coeffs = [combo.get(j, F.zero) for j in range(ech.rank)]",
        ["tests/test_linalg.py::test_minpoly_matches_lcm_of_krylov_annihilators"],
    ),
    Mutant(
        "eval-constant-off-diagonal",
        LINALG,
        "num.flat[:: d + 1] += a",
        "num.flat[1 :: d + 1] += a",
        [
            "tests/test_linalg.py::test_eval_over_fp_matches_horner",
            "tests/test_linalg.py::test_eval_over_q_with_mixed_denominators_matches_horner",
        ],
    ),
]


def run(mutant):
    """'killed', 'survived' or 'broken (exit k)' for one mutant, run in a
    temporary copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "broken (old text not found once)"
        path.write_text(text.replace(mutant.old, mutant.new))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
                + mutant.tests,
                cwd=copy,
                env={**os.environ, "PYTHONPATH": str(copy / "src")},
                capture_output=True,
                timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "killed"  # the tests hang
    # pytest exits 1 when a test failed and 0 when all passed
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"broken (exit {proc.returncode})")


def main(names):
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    results = []
    for mutant in chosen:
        result = run(mutant)
        results.append(result)
        print(f"{result:10} {mutant.name}", flush=True)
    return 0 if all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
