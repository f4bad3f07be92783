"""The benchmark's four workloads.

Each workload builds a pool of cases from the seed, in a fixed cycle of
shapes, so every seed gives the same mix of fields, arities and dims and
only the random entries change.  Shape dims are chosen so that the shapes
of one workload cost about the same per op: the median then sits inside
one cluster rather than on the edge between two.

Why each workload exists:

* fp-tuples: k0_class over F2 and F97 for n = 2, 3.  The _kernels array
  path, Cantor-Zassenhaus and the split and key loop do the work; native
  F_p arrays, the socle key and factor reuse show here.  Fat-point blocks
  keep a socle-key shortcut that only works on cyclic modules honest.
* q-tuples: the same shapes over Q.  Fraction arithmetic in the generic
  linalg loops, Zassenhaus and the key annihilator dominate; _kernels does
  nothing, so an F_p array change must not move it, and multimodular Q
  must.
* single-endo: k0_class for n = 1 over F97 and Q, on companion sums of
  certified irreducibles.  The n = 1 charpoly shortcut removes the split
  and key loop here and nowhere else; the tuple workloads are its control.
* cli-mix: in-process endok.cli.main over job texts, rotating class,
  decompose, radical and annihilator.  The only workload where parse and
  CLI rendering run, and where annihilator and radical act on whole
  modules.
"""

import contextlib
import io
import json
import random
import sys

from endok import GF, QQ, cli, k0_class
from endok.parse import parse_input

import gen

F2, F97 = GF(2), GF(97)

# Every op gets a fresh generator with this seed, so randomized splitting
# makes the same choices on every run.
OP_SEED = 0


def _sub_rng(seed, k):
    return random.Random(f"{seed}:{k}")


def _tuple_shape(field, nvars, curvilinear_dims, fat_orders):
    block = gen.curvilinear_block
    if field == F2:
        assert len(curvilinear_dims) == 1, "see gen.cyclic_block"
        block = gen.cyclic_block

    def make(rng):
        fats = [(gen.random_point(field, nvars, rng), o) for o in fat_orders]
        steps = 3 * sum(curvilinear_dims)
        return gen.tuple_case(
            field, nvars, curvilinear_dims, fats, rng, steps, block=block
        )

    return make


def _f97_endo(nlinear, nquadratic, power):
    def make(rng):
        specs = [(gen.linear(F97, rng.randrange(97)), power) for _ in range(nlinear)]
        specs += [(gen.quadratic_nonsplit(F97, rng), power) for _ in range(nquadratic)]
        return gen.companion_case(F97, specs, rng, 40)

    return make


def _q_endo(nlinear, eisenstein_degrees, power):
    def make(rng):
        specs = [(gen.linear(QQ, rng.randint(-3, 3)), power) for _ in range(nlinear)]
        specs += [(gen.eisenstein(QQ, d, rng), 1) for d in eisenstein_degrees]
        return gen.companion_case(QQ, specs, rng, 20)

    return make


class Workload:
    """A pool of cases, one op per case, and the check of its output."""

    pool_size = 40

    def __init__(self, shapes):
        self.shapes = shapes

    def build(self, seed):
        """Generate the pool and parse each job text into its tuple."""
        cases = []
        for k in range(self.pool_size):
            case = self.shapes[k % len(self.shapes)](_sub_rng(seed, k))
            case.tuple = parse_input(case.text).tuple()
            cases.append(case)
        return cases

    def op(self, case):
        return k0_class(case.tuple, random.Random(OP_SEED))

    def check(self, checker, case, output):
        entries = [
            (key.ideal.generator_strings(), key.residue_degree, mult)
            for key, mult in output.items()
        ]
        return checker.class_ok(case, entries)


class CliWorkload(Workload):
    """Ops are in-process ``endok.cli.main`` calls on the case's job text."""

    def op(self, case):
        out = io.StringIO()
        stdin = io.StringIO(case.text)
        argv = [case.command, "-", "--json", "--seed", str(OP_SEED)]
        with contextlib.redirect_stdout(out), _stdin(stdin):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, checker, case, output):
        code, text = output
        if code != 0:
            return False
        doc = json.loads(text)
        if (doc["nvars"], doc["dim"]) != (case.nvars, case.dim):
            return False
        if case.command == "class":
            entries = [
                (e["generators"], e["degree"], e["multiplicity"]) for e in doc["class"]
            ]
            return checker.class_ok(case, entries)
        if case.command == "decompose":
            return checker.decompose_ok(case, doc)
        if case.command == "radical":
            return checker.radical_ok(case, doc)
        return checker.annihilator_ok(case, doc)


@contextlib.contextmanager
def _stdin(stream):
    saved = sys.stdin
    sys.stdin = stream
    try:
        yield
    finally:
        sys.stdin = saved


def _cli(command, make):
    def make_job(rng):
        case = make(rng)
        case.command = command
        return case

    return make_job


WORKLOADS = {
    "fp-tuples": Workload(
        [
            _tuple_shape(F97, 2, (6, 6, 4), (2,)),
            _tuple_shape(F2, 2, (18,), (3, 2)),
            _tuple_shape(F97, 3, (6, 6), (2, 2)),
            _tuple_shape(F2, 3, (18,), (2, 2)),
        ]
    ),
    "q-tuples": Workload(
        [
            _tuple_shape(QQ, 2, (4, 3), (2,)),
            _tuple_shape(QQ, 3, (3, 3), (2,)),
            _tuple_shape(QQ, 2, (3, 2, 2), (2,)),
            _tuple_shape(QQ, 3, (4,), (2,)),
        ]
    ),
    "single-endo": Workload(
        [
            _f97_endo(8, 4, 2),
            _q_endo(3, (4, 4), 1),
            _f97_endo(8, 3, 2),
            _q_endo(2, (3, 3), 2),
        ]
    ),
    "cli-mix": CliWorkload(
        [
            _cli("class", _tuple_shape(F97, 2, (8, 8), (2,))),
            _cli("decompose", _tuple_shape(QQ, 2, (4, 3), (2,))),
            _cli("radical", _tuple_shape(F2, 3, (14,), (2,))),
            _cli("annihilator", _tuple_shape(F97, 1, (14, 13), ())),
            _cli("class", _q_endo(3, (3, 3), 2)),
            _cli("decompose", _tuple_shape(F2, 2, (20,), (3,))),
            _cli("radical", _tuple_shape(QQ, 3, (4,), (2,))),
            _cli("annihilator", _tuple_shape(QQ, 2, (4, 4), (2,))),
        ]
    ),
}
