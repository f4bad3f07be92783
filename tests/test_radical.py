"""The radical series against a per-layer reference.

``CommutingTuple._radical_series`` evaluates each s_i(f_i), s_i the
squarefree part of f_i's characteristic polynomial on V, once, and reads
every layer off V's own s_i(f_i).  The reference below recomputes the
radical of each layer's module from that module's own characteristic
polynomials, restricting to the radical and taking the quotient by it
layer by layer.  The radical, the layer tuples and the output of
``endok radical --json`` must agree literally, over F2, F3, F97 and Q, on
modules with several layers up to dim 32.
"""

import json
import random

import pytest

from conftest import conjugate, fat_point, field_id, job_text, tensor, twisted_points
from endok.bruteforce import random_commuting_tuple
from endok.cli import main
from endok.fields import GF, QQ
from endok.linalg import Subspace, _stack, charpoly, eval_poly_at_matrix
from endok.modules import CommutingTuple
from endok.parse import field_to_string
from endok.poly import UniPoly, squarefree_part

FIELDS = (GF(2), GF(3), GF(97), QQ)

# an irreducible quadratic per field; over Q twisted_points needs t^2 - a
QUADRATICS = {2: [1, 1, 1], 3: [1, 0, 1], 97: [-5, 0, 1], 0: [-2, 0, 1]}


def reference_radical(t):
    """Jac.V from t's own characteristic polynomials: the sum of the images
    of s_i(f_i), s_i the squarefree part of charpoly(f_i)."""
    images = [
        eval_poly_at_matrix(squarefree_part(charpoly(m)), [m]).transpose()
        for m in t.mats
    ]
    return Subspace._row_space(_stack(images))


def reference_filtration(t):
    """The layers, each the quotient of the current module by its radical,
    recursing into the radical restricted in its echelon basis."""
    layers = []
    cur = t
    while cur.dim > 0:
        r = reference_radical(cur)
        layers.append(cur.quotient(r))
        if r.dim == 0:
            break
        cur = cur.restrict(r)
    return layers


def reference_json(t, rad, layers):
    """The ``endok radical --json`` document of t, with radical rad and
    layers from the reference."""
    payload = {
        "field": field_to_string(t.field),
        "nvars": t.nvars,
        "dim": t.dim,
        "radical_dim": rad.dim,
        "radical_basis": [[t.field.render(x) for x in row] for row in rad.basis],
        "layer_dims": [layer.dim for layer in layers],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def modules_with_layers(field, rng):
    """Fat points, twisted points tensored with fat points, and their sums,
    in seeded random bases: dims 6 to 32, with up to six layers."""
    F = field
    near, far = twisted_points(UniPoly(F, QUADRATICS[F.characteristic]), rng)
    return [
        conjugate(fat_point(F, 2, 3), rng),
        conjugate(fat_point(F, 2, 6), rng),
        conjugate(fat_point(F, 3, 4), rng),
        conjugate(
            CommutingTuple.direct_sum(
                tensor(near, fat_point(F, 2, 3)), tensor(far, fat_point(F, 2, 2)), near
            ),
            rng,
        ),
        conjugate(
            CommutingTuple.direct_sum(
                tensor(near, fat_point(F, 2, 4)), tensor(far, fat_point(F, 2, 3))
            ),
            rng,
        ),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_radical_series_matches_per_layer_reference(field, tmp_path, capsys):
    rng = random.Random(61)
    cases = modules_with_layers(field, rng)
    cases += [CommutingTuple.zeros(field, 2, 0), CommutingTuple.zeros(field, 1, 3)]
    for _ in range(10):
        cases.append(random_commuting_tuple(field, rng.randint(1, 3), rng.randint(1, 9), rng))
    assert max(t.dim for t in cases) == 32
    path = tmp_path / "job.txt"
    depth = 0
    for t in cases:
        rad, layers = reference_radical(t), reference_filtration(t)
        assert t.radical_submodule() == rad
        assert t.radical_filtration() == layers
        path.write_text(job_text(t))
        assert main(["radical", str(path), "--json"]) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (reference_json(t, rad, layers), "")
        depth = max(depth, len(layers))
    assert depth == 6  # k[x, y]/(x, y)^6
