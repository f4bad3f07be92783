"""No output depends on a seed.

Cantor-Zassenhaus draws from its own generator with a fixed seed, the
factors it returns do not depend on the draws, and ``--seed`` only picks
verify-additivity's random vectors.  So the CLI's stdout is the same under
every ``--seed`` and every state of the module-level ``random``, and no
function of the class path takes a generator.
"""

import ast
import random
from pathlib import Path
from types import SimpleNamespace

from endok import cli, factor
from endok.bruteforce import random_commuting_tuple
from endok.cli import main
from endok.fields import GF, QQ
from endok.ktheory import k0_class
from endok.linalg import Matrix
from endok.modules import CommutingTuple
from endok.poly import UniPoly

from conftest import conjugate, job_text

F2, F97 = GF(2), GF(97)

# per field, monic irreducibles with two of one degree above 1, so that
# an equal-degree split has work to do
IRREDUCIBLES = {
    F2: ([1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1]),
    F97: ([-5, 0, 1], [-20, 0, 1], [-3, 1]),
    QQ: ([-2, 0, 1], [-3, 0, 1], [1, 1]),
}
TILDES = {
    F2: "field F 2\nnum (1+t^2+t^3)*(1+t+t^3)\nden 1+t+t^2\n",
    F97: "field F 97\nnum (1-5*t^2)*(1-20*t^2)\nden 1-3*t\n",
    QQ: "field Q\nnum (1-2*t^2)*(1-3*t^2)\nden 1+t\n",
}


def tuples():
    """Per field: a conjugated companion matrix of a product of the
    irreducibles, the pair (C, C^2 + 1) on it, and random tuples for
    n = 2 and 3."""
    rng = random.Random(26)
    for field, coeffs in IRREDUCIBLES.items():
        q = UniPoly.one(field)
        for c in coeffs:
            q = q * UniPoly(field, c)
        c = Matrix.companion(q)
        one = Matrix.identity(field, c.rows)
        yield conjugate(CommutingTuple(field, 1, c.rows, [c]), rng)
        yield conjugate(CommutingTuple(field, 2, c.rows, [c, c @ c + one]), rng)
        yield random_commuting_tuple(field, 2, 6, rng)
        yield random_commuting_tuple(field, 3, 5, rng)


def jobs():
    texts = [job_text(t) for t in tuples()]
    for command in ("class", "decompose", "radical", "annihilator"):
        for text in texts:
            yield command, text
    for text in TILDES.values():
        yield "tilde-map", text


def stdouts(tmp_path, capsys, args):
    out = []
    path = tmp_path / "job.txt"
    for command, text in jobs():
        path.write_text(text)
        for mode in ([], ["--json"]):
            assert main([command, str(path), *mode, *args]) == 0
            out.append(capsys.readouterr().out)
    return out


def test_no_output_depends_on_a_seed(tmp_path, capsys, monkeypatch):
    made = []

    def recording(seed):
        made.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(factor, "random", SimpleNamespace(Random=recording))
    reference = stdouts(tmp_path, capsys, [])
    # the jobs reach Cantor-Zassenhaus, over F_p and in Zassenhaus over Q
    assert made and set(made) == {factor.DEFAULT_SEED}
    for seed in (0, 7, 99991):
        assert stdouts(tmp_path, capsys, ["--seed", str(seed)]) == reference
    random.seed(12345)
    random.random()
    assert stdouts(tmp_path, capsys, []) == reference


def test_k0_class_ignores_its_generator():
    # the parameter is inert, kept only until the benchmark's op stops
    # passing it
    for t in tuples():
        cls = k0_class(t)
        for seed in (0, 7, 99991):
            assert k0_class(t, random.Random(seed)) == cls


# -- no generator on the class path ------------------------------------------

# The functions of src/endok, outside bruteforce.py, that may take an rng:
# the test inputs of FieldSpec.random_scalar, verify-additivity's vectors,
# the one generator of a Cantor-Zassenhaus recursion, and k0_class's inert
# parameter.  bruteforce.py's generators all take one.
RNG_PARAMETERS = {
    "cli._cmd_verify_additivity",
    "factor._equal_degree_split",
    "fields.PrimeField.random_scalar",
    "fields.Rationals.random_scalar",
    "ktheory.k0_class",
}


def rng_parameters(source, prefix):
    """Qualified names of the functions in source, methods and nested
    functions included, that have a parameter named rng."""
    names = []
    for node in ast.iter_child_nodes(source):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if "rng" in [a.arg for a in params]:
                    names.append(name)
            names += rng_parameters(node, name)
        else:
            names += rng_parameters(node, prefix)
    return names


def test_only_the_listed_functions_take_an_rng():
    found = set()
    importers = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.stem == "bruteforce":
            continue
        tree = ast.parse(path.read_text())
        found.update(rng_parameters(tree, path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) and "random" in [a.name for a in node.names]:
                importers.add(path.stem)
    assert found == RNG_PARAMETERS
    assert importers == {"cli", "factor"}
