"""Command-line driver.

Usage: ``endok <command> <input-file> [--json] [--seed N]``.

Commands operate on a job file (see :mod:`endok.parse` for the grammar)
and print deterministic text, or a stable JSON document with ``--json``.
``--seed`` only picks verify-additivity's random vectors; no other output
depends on it.  Exit codes: 0 success; 1 input error (any ``ValueError``,
``ParseError`` among them) or stdout closed before the output was written;
2 usage error (argparse's ``usage:`` line: an unknown command, a missing
argument, a bad ``--seed``) or verification failure (verify-additivity or
oracle-check found a mismatch); 3 internal error (a failed consistency
check, or a ``TypeError`` or ``ZeroDivisionError``, which no input
reaches, so a program fault).
"""

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .bruteforce import k0_class_oracle, random_vector
from .ktheory import (
    k0_class,
    kelley_spanier_split,
    tilde_to_free_abelian,
    verify_additivity,
)
from .linalg import charpoly
from .parse import field_to_string, parse_input
from .poly import render_monomial, signed_reversal


def _cmd_class(job):
    t = job.tuple()
    cls = k0_class(t)
    payload = {
        "nvars": t.nvars,
        "dim": t.dim,
        "class": cls.to_json_entries(),
    }
    return cls.lines(), payload, 0


def _cmd_charpoly(job):
    t = job.tuple()
    lines = []
    mats = []
    for m in t.mats:
        c = charpoly(m)
        lam = signed_reversal(c)
        lines.append(f"charpoly {c}")
        lines.append(f"lambda {lam}")
        mats.append({"charpoly": str(c), "lambda": str(lam)})
    payload = {
        "nvars": t.nvars,
        "dim": t.dim,
        "matrices": mats,
    }
    return lines, payload, 0


def _cmd_split(job):
    t = job.tuple()
    rank, tilde = kelley_spanier_split(t)
    lines = [f"rank {rank}", f"tilde {tilde}"]
    payload = {
        "dim": t.dim,
        "rank": rank,
        "tilde": {"num": str(tilde.num), "den": str(tilde.den)},
    }
    return lines, payload, 0


def _cmd_decompose(job):
    t = job.tuple()
    lines = []
    pieces = []
    for i, (w, key) in enumerate(t._local_pieces(), 1):
        gens = ", ".join(key.generator_strings())
        lines.append(
            f"piece {i}: dim {w.rows}, key [{gens}], residue {key.residue_degree}"
        )
        pieces.append(
            {
                "dim": w.rows,
                "generators": list(key.generator_strings()),
                "residue_degree": key.residue_degree,
            }
        )
    payload = {
        "nvars": t.nvars,
        "dim": t.dim,
        "pieces": pieces,
    }
    return lines, payload, 0


def _cmd_radical(job):
    t = job.tuple()
    # the radical series V, rad V, .., 0 gives the radical and the layer
    # dimensions, from one s_i(f_i) per generator; for V = 0 it is [0]
    series = list(t._radical_series())
    rad = series[1] if t.dim else series[0]
    dims = [w.dim - r.dim for w, r in zip(series, series[1:])]
    basis = [[t.field.render(x) for x in row] for row in rad.basis]
    lines = [f"radical dim {rad.dim}"]
    if basis:
        lines.append(f"basis {rad.matrix}")
    lines.append("layers " + " ".join(str(d) for d in dims) if dims else "layers")
    payload = {
        "nvars": t.nvars,
        "dim": t.dim,
        "radical_dim": rad.dim,
        "radical_basis": basis,
        "layer_dims": dims,
    }
    return lines, payload, 0


def _cmd_annihilator(job):
    t = job.tuple()
    ideal = t.annihilator_ideal()
    gens = ideal.generator_strings()
    lines = [f"generator {g}" for g in gens]
    monos = [render_monomial(m, t.nvars) or "1" for m in ideal.standard_monomials]
    lines.append("standard " + ", ".join(monos) if monos else "standard")
    lines.append(f"dimension {ideal.quotient_dim}")
    payload = {
        "nvars": t.nvars,
        "dim": t.dim,
        "generators": list(gens),
        "standard_monomials": monos,
        "dimension": ideal.quotient_dim,
    }
    return lines, payload, 0


def _cmd_verify_additivity(job, rng):
    t = job.tuple()
    vectors = [random_vector(t.field, t.dim, rng) for _ in range(3)]
    spans = [[v] for v in vectors] + [vectors[:2]]
    submodules = [t.generated_submodule(vs) for vs in spans]
    failures = [i for i, s in enumerate(submodules) if not verify_additivity(t, s)]
    payload = {
        "dim": t.dim,
        "ok": not failures,
        "submodules": len(submodules),
        "failures": failures,
    }
    if failures:
        lines = [f"additivity FAILED for submodule {i}" for i in failures]
        return lines, payload, 2
    return [f"additivity ok ({len(submodules)} submodules)"], payload, 0


def _cmd_tilde_mul(job):
    if not job.tildes:
        raise ValueError("tilde-mul needs at least one num/den pair")
    acc = job.tildes[0]
    for other in job.tildes[1:]:
        acc = acc * other
    payload = {
        "tilde": {"num": str(acc.num), "den": str(acc.den)},
    }
    return [f"tilde {acc}"], payload, 0


def _cmd_tilde_map(job):
    if len(job.tildes) != 1:
        raise ValueError("tilde-map needs exactly one num/den pair")
    cls = tilde_to_free_abelian(job.tildes[0])
    payload = {
        "nvars": 1,
        "class": cls.to_json_entries(),
    }
    return cls.lines(), payload, 0


def _cmd_oracle_check(job):
    t = job.tuple()
    cls = k0_class(t)
    oracle = k0_class_oracle(t)
    match = cls == oracle
    lines = ["class:"]
    lines += cls.lines()
    lines.append("oracle:")
    lines += oracle.lines()
    lines.append("oracle ok" if match else "oracle MISMATCH")
    payload = {
        "nvars": t.nvars,
        "dim": t.dim,
        "class": cls.to_json_entries(),
        "oracle": oracle.to_json_entries(),
        "match": match,
    }
    return lines, payload, 0 if match else 2


_HANDLERS = {
    "class": _cmd_class,
    "charpoly": _cmd_charpoly,
    "split": _cmd_split,
    "decompose": _cmd_decompose,
    "radical": _cmd_radical,
    "annihilator": _cmd_annihilator,
    "verify-additivity": _cmd_verify_additivity,
    "tilde-mul": _cmd_tilde_mul,
    "tilde-map": _cmd_tilde_map,
    "oracle-check": _cmd_oracle_check,
}


# built once: main runs once per command, in-process callers many times
_PARSER = argparse.ArgumentParser(
    prog="endok",
    description="Exact K0 invariants of commuting matrix tuples over Q and F_p.",
)
_PARSER.add_argument("command", choices=_HANDLERS)
_PARSER.add_argument("input", help="job file path, or '-' for stdin")
_PARSER.add_argument("--json", action="store_true", help="emit stable JSON")
_PARSER.add_argument(
    "--seed",
    type=int,
    default=0,
    help="seed of verify-additivity's random vectors; no other output "
    "depends on it (default %(default)s)",
)


def main(argv=None):
    """The command line; returns the exit code.  A ``MemoryError`` from
    anywhere ends in one ``error:`` line and exit 1, never a traceback."""
    try:
        return _main(argv)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def _main(argv):
    args = _PARSER.parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.input).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        job = parse_input(text)
        if args.command == "verify-additivity":
            lines, payload, code = _cmd_verify_additivity(job, random.Random(args.seed))
        else:
            lines, payload, code = _HANDLERS[args.command](job)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, TypeError, ZeroDivisionError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    if args.json:
        payload["field"] = field_to_string(job.field)
        lines = [json.dumps(payload, indent=2, sort_keys=True)]
    out = "\n".join(lines)
    try:
        if out:
            print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # quiet the flush at exit too (Python's signal docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
