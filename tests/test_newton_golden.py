"""Golden monomial geometry: pins Newton polyhedra across refactors.

For a seeded family of generator sets in 2, 3 and 4 variables the file
records the `(normal, offset)` facets of `newton_polyhedron`, the volume
multiplicity after adding pure powers (the fixture records it in 2 and 3
variables only; a power is now and then left out, so some cases record the
error message) and the Caratheodory oracle's verdicts on a small grid.
Regenerate with `PYTHONPATH=src python tests/test_newton_golden.py` only
when a change to the geometry is intended, and say why in the change
description.
"""

import json
import random
from itertools import product
from pathlib import Path

from reesval import (
    membership_oracle_caratheodory,
    monomial_multiplicity,
    newton_polyhedron,
)
from reesval.errors import PreconditionError

from conftest import _exps_ideal

GOLDEN = Path(__file__).parent / "golden" / "newton_polyhedra.json"

# nvars -> (number of generator sets, grid side, powers n of the oracle)
FAMILY = {2: (24, 7, (1, 2, 3)), 3: (18, 4, (1, 2)), 4: (8, 3, (1,))}


def _case(rng, nvars, side, powers):
    gens = []
    while not gens:
        gens = [
            tuple(rng.randrange(5) for _ in range(nvars))
            for _ in range(rng.randint(2, 5))
        ]
        gens = [g for g in gens if sum(g) > 0]
    np_ = newton_polyhedron(_exps_ideal(gens, nvars))
    case = {
        "nvars": nvars,
        "gens": gens,
        "facets": [[f.normal, f.offset] for f in np_.facets],
        "caratheodory": {
            str(n): "".join(
                "1" if membership_oracle_caratheodory(gens, nvars, e, n) else "0"
                for e in product(range(side), repeat=nvars)
            )
            for n in powers
        },
    }
    if nvars <= 3:
        primary = gens + [
            tuple(rng.randint(1, 6) if j == i else 0 for j in range(nvars))
            for i in range(nvars)
            if rng.random() < 0.9
        ]
        try:
            value = {"value": monomial_multiplicity(_exps_ideal(primary, nvars))}
        except PreconditionError as exc:
            value = {"error": str(exc)}
        case["multiplicity"] = {"gens": primary, **value}
    return case


def golden_blob():
    rng = random.Random(6006)
    cases = [
        _case(rng, nvars, side, powers)
        for nvars, (count, side, powers) in FAMILY.items()
        for _ in range(count)
    ]
    return json.dumps(cases, indent=1) + "\n"


def test_newton_polyhedra_byte_identical():
    assert golden_blob() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(golden_blob(), encoding="utf-8")
