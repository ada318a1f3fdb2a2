"""Workspaces and seeded module lists shared by the test modules."""

import random

from quiverext.dsl import parse_workspace
from quiverext.fields import QQ, PrimeField
from quiverext.fixtures import load_fixture
from quiverext.suites import random_module

F101 = PrimeField(101)
F2 = PrimeField(2)

# k[x,y]/(x^2, y^2, xy - yx): one vertex, two loops, so an arrow meets
# itself in a relation and shares its source and target blocks.
LOOPS_WS = """\
quiver LOOPS
vertex 1
arrow x : 1 -> 1
arrow y : 1 -> 1
relation r1 : x*x
relation r2 : y*y
relation r3 : x*y - y*x
field {field}

module S : dim 1
module X : dim 2
  x = [ 0 0 ; 1 0 ]
module B : dim 2
  x = [ 0 0 ; 1 0 ]
  y = [ 0 0 ; 2 0 ]
module A : dim 4
  x = [ 0 0 0 0 ; 1 0 0 0 ; 0 0 0 0 ; 0 0 1 0 ]
  y = [ 0 0 0 0 ; 0 0 0 0 ; 1 0 0 0 ; 0 1 0 0 ]
"""


def case_workspace(name, field):
    if name == "loops":
        return parse_workspace(LOOPS_WS.format(field=field.name))
    return load_fixture(name, field=field)


def case_modules(name, field, seed, max_summands=2):
    """The named modules of a workspace plus three seeded random ones."""
    ws = case_workspace(name, field)
    names = sorted(ws.modules)
    rng = random.Random(seed)
    randoms = [random_module(ws, names, rng, max_summands) for _ in range(3)]
    return [ws.modules[n] for n in names] + randoms


CASES = [(name, field) for name in ("f1", "f2", "f3", "loops") for field in (QQ, F101)]
