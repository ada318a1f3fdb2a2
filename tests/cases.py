"""Workspaces and seeded module lists shared by the test modules."""

import random
from fractions import Fraction

from quiverext.dsl import parse_workspace
from quiverext.ext2 import _cover
from quiverext.fields import QQ, PrimeField
from quiverext.fixtures import load_fixture
from quiverext.geometry import gl_action
from quiverext.linalg import Matrix, _rref
from quiverext.quiver import QuiverError
from quiverext.rep import RelationCochain, kernel_representation
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


def standard_cover(N):
    """The cover by one P(y) per coordinate of N_y: every coordinate of N
    is a generator, so the shape depends only on the dimension vector."""
    return _cover(N, {y: range(N.dims[y]) for y in N.bq.quiver.vertices})[1]


def standard_syzygy(N):
    """The kernel of ``standard_cover``: a syzygy of N, not minimal."""
    return kernel_representation(standard_cover(N))[0]


def position_pair_compose(Zp, Zpp):
    """The position-pair body of ``compose_cocycles``, kept as its oracle.

    For each relation term c * a_1...a_m (rightmost acting first) and
    each ordered pair of positions j1 < j2 <= m, the contribution is

        c * U(a_1..a_{j1-1}) Zp_{a_{j1}} V(a_{j1+1}..a_{j2-1})
              Zpp_{a_{j2}} W(a_{j2+1}..a_m)

    where Zp runs V -> U and Zpp runs W -> V.
    """
    V, U = Zp.source, Zp.target
    W = Zpp.source
    if Zpp.target != V:
        raise QuiverError("composition needs matching middle representations")
    field = U.field
    quiver = W.bq.quiver
    mats = {}
    for rel in W.bq.relations:
        out = Matrix.zeros(field, U.dims[rel.target], W.dims[rel.source])
        for coeff, p in rel.terms:
            arrows = p.arrows
            m = len(arrows)
            for j2 in range(2, m + 1):
                a2 = quiver.arrow_map[arrows[j2 - 1]]
                tail = W.eval_arrow_word(arrows[j2:], p.source)
                right = Zpp.mats[a2.name] @ tail
                for j1 in range(1, j2):
                    a1 = quiver.arrow_map[arrows[j1 - 1]]
                    head = U.eval_arrow_word(arrows[:j1 - 1], a1.target)
                    mid = V.eval_arrow_word(arrows[j1:j2 - 1], a2.target)
                    term = head @ Zp.mats[a1.name] @ mid @ right
                    out = out + term.scale(field.of_fraction(coeff))
        mats[rel.name] = out
    return RelationCochain(W, U, mats)


def rref_reducer(field, vectors):
    """The coset reducer of the span W of vectors, by reduction against the
    RREF of W with the field's methods: for each RREF row in turn, subtract
    the vector's current entry at the row's pivot times the row.  The
    reference for ``SubspaceBasis.reduce``."""
    rows, pivots = _rref(field, vectors)

    def reduce(vec):
        v = [field.of(x) for x in vec]
        for row, p in zip(rows, pivots):
            c = v[p]
            if not field.is_zero(c):
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
        return v

    return reduce


def typed(rows):
    """Entries with their types, so 2 and Fraction(2) differ."""
    return [[(type(x), x) for x in row] for row in rows]


NAMES = ("f1", "f2", "f3", "loops")
CASES = [(name, field) for name in NAMES for field in (QQ, F101)]
CASES_WITH_F2 = [(name, field) for name in NAMES for field in (QQ, F101, F2)]
