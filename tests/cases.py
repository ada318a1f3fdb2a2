"""Workspaces and seeded module lists shared by the test modules."""

import random
from fractions import Fraction

from quiverext.dsl import parse_workspace
from quiverext.fields import QQ, PrimeField
from quiverext.fixtures import load_fixture
from quiverext.geometry import gl_action
from quiverext.linalg import Matrix
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


def with_rational_conjugates(mods):
    """Over Q, add each seeded module conjugated by 1 + N/2 at every vertex,
    N the shift matrix, so that entries (the diagonal ones too) are
    non-integral Fractions and sums of them can come out integral."""
    if mods[0].field.char:
        return mods
    half = Fraction(1, 2)
    out = list(mods)
    for M in mods[-3:]:
        g = {x: Matrix(QQ, [[1 if i == j else half if j == i + 1 else 0
                             for j in range(d)] for i in range(d)], d)
             for x, d in M.dims.items()}
        out.append(gl_action(g, M))
    return out


NAMES = ("f1", "f2", "f3", "loops")
CASES = [(name, field) for name in NAMES for field in (QQ, F101)]
CASES_WITH_F2 = [(name, field) for name in NAMES for field in (QQ, F101, F2)]
