"""Seeded inputs for the benchmark, built without importing quiverext.

Everything the program receives is workspace text produced here: the
catalogue modules, their seeded direct sums conjugated by integer
unimodular base changes, and the short exact sequences for the
certificate queries.  The same seed gives byte-identical text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# -- bound quivers ---------------------------------------------------------

SQUARE = {
    "name": "Sq",
    "vertices": ("1", "2", "3", "4"),
    "arrows": (("a", "2", "1"), ("b", "4", "2"), ("c", "3", "1"), ("d", "4", "3")),
    # (name, source, target, text); a*b acts by b then a, from 4 to 1
    "relations": (("r", "4", "1", "a*b - c*d"),),
    "field": "Q",
}

LOOPS = {
    "name": "Lp",
    "vertices": ("1",),
    "arrows": (("x", "1", "1"), ("y", "1", "1")),
    "relations": (("rx", "1", "1", "x*x"), ("ry", "1", "1", "y*y"),
                  ("rxy", "1", "1", "x*y - y*x")),
    "field": "F101",
}


def _unit(n, m, entries):
    """An n x m integer matrix with ones at the given (row, col) places."""
    out = [[0] * m for _ in range(n)]
    for i, j in entries:
        out[i][j] = 1
    return out


@dataclass(frozen=True)
class CatModule:
    """A catalogue module: dims per vertex and integer arrow matrices."""

    name: str
    dims: tuple
    mats: dict = field(hash=False, compare=False)
    projective_at: str | None = None  # vertex x when this is P_x


def _square_catalogue():
    def mod(name, dims, arrows, proj=None):
        d = dict(zip(SQUARE["vertices"], dims))
        mats = {}
        for a, s, t in SQUARE["arrows"]:
            mats[a] = _unit(d[t], d[s], [(0, 0)] if a in arrows else [])
        return CatModule(name, dims, mats, proj)

    return (
        mod("S1", (1, 0, 0, 0), "", "1"),
        mod("S2", (0, 1, 0, 0), ""),
        mod("S3", (0, 0, 1, 0), ""),
        mod("S4", (0, 0, 0, 1), ""),
        mod("P2", (1, 1, 0, 0), "a", "2"),
        mod("P3", (1, 0, 1, 0), "c", "3"),
        mod("I2", (0, 1, 0, 1), "b"),
        mod("I3", (0, 0, 1, 1), "d"),
        mod("R4", (1, 1, 1, 0), "ac"),
        mod("Q4", (0, 1, 1, 1), "bd"),
        mod("P4", (1, 1, 1, 1), "abcd", "4"),
    )


def _loops_catalogue():
    def mod(name, n, xs, ys, proj=None):
        return CatModule(name, (n,), {"x": _unit(n, n, xs), "y": _unit(n, n, ys)}, proj)

    # x and y act on column vectors; entry (i, j) = 1 sends basis j to i
    return (
        mod("S", 1, [], []),
        mod("Cx", 2, [(1, 0)], []),
        mod("Cy", 2, [], [(1, 0)]),
        mod("Bd", 2, [(1, 0)], [(1, 0)]),
        mod("Top", 3, [(1, 0)], [(2, 0)]),            # A / soc A
        mod("Rad", 3, [(2, 1)], [(2, 0)]),            # rad A
        mod("W4", 4, [(2, 0), (3, 1)], [(3, 0)]),
        mod("A", 4, [(1, 0), (3, 2)], [(2, 0), (3, 1)], "1"),
        mod("W5", 5, [(2, 0), (3, 1)], [(3, 0), (4, 1)]),
        mod("M5", 5, [(3, 0), (4, 1)], [(3, 1), (4, 2)]),
    )


CATALOGUES = {"square": _square_catalogue(), "loops": _loops_catalogue()}
QUIVERS = {"square": SQUARE, "loops": LOOPS}


def catalogue(kind):
    return {m.name: m for m in CATALOGUES[kind]}


# Non-split sequences U -> M -> V of catalogue modules with Ext^1(V, U) of
# dimension one, so every nonzero class has M as middle term.  XI3 is the
# commutative-square example of the paper.
SQUARE_SEQUENCES = (
    ("XI3", "R4", "P4", "S4"),
    ("E12", "S1", "P2", "S2"),
    ("E13", "S1", "P3", "S3"),
    ("E24", "S2", "I2", "S4"),
    ("E34", "S3", "I3", "S4"),
    ("EP2", "P2", "P4", "I3"),
    ("EQ2", "S2", "Q4", "I3"),
    ("EQ1", "S1", "P4", "Q4"),
)

# Summands added to both U and M of a base sequence: Ext^1(V, W) = 0 and
# Hom(V, W) = 0 for the base quotients they pad, so Ext^1 stays one.
SQUARE_PADDINGS = {
    "XI3": ("P2", "P3", "S1"),
    "EP2": ("P3", "S1", "P3"),
}


# -- integer linear algebra for building inputs ------------------------------


def matmul(a, b):
    """Product of nonempty integer matrices given as row lists."""
    m = len(b[0])
    out = []
    for row in a:
        new = [0] * m
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j in range(m):
                    new[j] += x * bk[j]
        out.append(new)
    return out


def unimodular(n, rng):
    """A seeded integer matrix of determinant +-1 and its integer inverse."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    if n < 2:
        s = rng.choice((1, -1))
        return [[s]] if n else [], [[s]] if n else []
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        m = rng.choice((1, -1, 2, -2))
        g[i] = [x + m * y for x, y in zip(g[i], g[j])]
        for row in ginv:
            row[j] -= m * row[i]
    return g, ginv


def block_sum(kind, names):
    """Direct sum of catalogue modules: dims and block-diagonal matrices."""
    quiver, cat = QUIVERS[kind], catalogue(kind)
    verts = quiver["vertices"]
    dims = {x: sum(cat[n].dims[i] for n in names) for i, x in enumerate(verts)}
    mats = {}
    for a, s, t in quiver["arrows"]:
        out = [[0] * dims[s] for _ in range(dims[t])]
        r0 = c0 = 0
        for n in names:
            block = cat[n].mats[a]
            for i, row in enumerate(block):
                out[r0 + i][c0:c0 + len(row)] = row
            r0 += cat[n].dims[verts.index(t)]
            c0 += cat[n].dims[verts.index(s)]
        mats[a] = out
    return dims, mats


def conjugate(kind, dims, mats, rng):
    """Move a module along its base-change orbit by seeded unimodular g."""
    quiver = QUIVERS[kind]
    g = {x: unimodular(dims[x], rng) for x in quiver["vertices"]}
    out = {}
    for a, s, t in quiver["arrows"]:
        if dims[s] and dims[t]:
            out[a] = matmul(matmul(g[t][0], mats[a]), g[s][1])
        else:
            out[a] = mats[a]
    return out


# -- the generated module set --------------------------------------------


@dataclass
class GenModule:
    """A generated module: its workspace name and its summands."""

    name: str
    summands: tuple
    dims: dict
    mats: dict


@dataclass
class Inputs:
    """Everything a library workload feeds to the program."""

    text: str
    modules: dict          # name -> GenModule
    rungs: list            # [(rung label, [query tuples])]


def random_decomposition(kind, target, rng):
    """Catalogue summands whose dimension vectors add up to target."""
    cat = CATALOGUES[kind]
    left = list(target)
    names = []
    while any(left):
        fits = [m for m in cat if all(d <= l for d, l in zip(m.dims, left))
                and any(m.dims)]
        m = rng.choice(fits)
        names.append(m.name)
        left = [l - d for l, d in zip(left, m.dims)]
    rng.shuffle(names)
    return tuple(names)


class Builder:
    """Collects generated modules and prints them as one workspace text."""

    def __init__(self, kind, rng):
        self.kind = kind
        self.rng = rng
        self.modules = {}

    def add(self, name, summands, conjugated=True):
        dims, mats = block_sum(self.kind, summands)
        if conjugated:
            mats = conjugate(self.kind, dims, mats, self.rng)
        self.modules[name] = GenModule(name, tuple(summands), dims, mats)
        return name

    def text(self, sequences=()):
        quiver = QUIVERS[self.kind]
        p = 101 if quiver["field"] == "F101" else None
        out = [f"quiver {quiver['name']}",
               "vertex " + " ".join(quiver["vertices"])]
        out += [f"arrow {a} : {s} -> {t}" for a, s, t in quiver["arrows"]]
        out += [f"relation {r} : {body}" for r, _, _, body in quiver["relations"]]
        out.append(f"field {quiver['field']}")
        for m in self.modules.values():
            out.append("")
            out.append(f"module {m.name} : dim "
                       + " ".join(str(m.dims[x]) for x in quiver["vertices"]))
            for a, _, _ in quiver["arrows"]:
                rows = m.mats[a]
                if not any(any(r) for r in rows):
                    continue
                body = " ; ".join(" ".join(str(x % p if p else x) for x in r)
                                  for r in rows)
                out.append(f"  {a} = [ {body} ]")
        if sequences:
            out.append("")
            out += [f"ses {n} : {u} -> {m} -> {v}" for n, u, m, v in sequences]
        return "\n".join(out) + "\n"


# Ladders: (rung label, dimension vector of each module, number of pairs).
SQUARE_LADDER = (
    ("r4", (1, 1, 1, 1), 12),
    ("r6", (2, 1, 1, 2), 12),
    ("r8", (2, 2, 2, 2), 24),
)

LOOPS_LADDER = (
    ("d2", (2,), (2,), 8),
    ("d3", (3,), (3,), 12),
    ("d4", (4,), (4,), 5),
)


def square_inputs(seed: int) -> Inputs:
    """square-q: seeded pairs on the ladder plus certificate sequences."""
    rng = random.Random(f"square-q:{seed}")
    b = Builder("square", rng)
    rungs = []
    for label, dvec, npairs in SQUARE_LADDER:
        queries = []
        for i in range(npairs):
            v = b.add(f"V_{label}_{i}", random_decomposition("square", dvec, rng))
            u = b.add(f"U_{label}_{i}", random_decomposition("square", dvec, rng))
            queries += [("hom", v, u), ("ext1", v, u), ("ext2", v, u),
                        ("ext2small", v, u), ("tangent", v)]
        rungs.append((label, queries))
    sequences, small, padded = [], [], []
    for name, u, m, v in SQUARE_SEQUENCES:
        ids = (b.add(f"U_{name}", (u,)), b.add(f"M_{name}", (m,)),
               b.add(f"V_{name}", (v,)))
        sequences.append((name,) + ids)
        small.append(("certify", name) + ids)
    for name, pad in SQUARE_PADDINGS.items():
        u, m, v = next(s[1:] for s in SQUARE_SEQUENCES if s[0] == name)
        ids = (b.add(f"U_{name}p", (u,) + pad), b.add(f"M_{name}p", (m,) + pad),
               b.add(f"V_{name}p", (v,)))
        sequences.append((name + "p",) + ids)
        padded.append(("certify", name + "p") + ids)
    rungs[0][1].extend(small)
    rungs[-1][1].extend(padded)
    return Inputs(b.text(sequences), b.modules, rungs)


def loops_inputs(seed: int) -> Inputs:
    """loops-f101: seeded pairs of local modules on the ladder."""
    rng = random.Random(f"loops-f101:{seed}")
    b = Builder("loops", rng)
    rungs = []
    for label, dv, du, npairs in LOOPS_LADDER:
        queries = []
        for i in range(npairs):
            v = b.add(f"V_{label}_{i}", random_decomposition("loops", dv, rng))
            u = b.add(f"U_{label}_{i}", random_decomposition("loops", du, rng))
            queries += [("hom", v, u), ("ext1", v, u), ("ext2", v, u),
                        ("tangent", v)]
        rungs.append((label, queries))
    return Inputs(b.text(), b.modules, rungs)


def cli_inputs(seed: int):
    """fixtures-cli: a generated square workspace for the second rung.

    Holds a conjugated copy of the paper's sequence XI3 and a padded,
    conjugated sequence XP with the same quotient.  Returns the text and
    the generated modules.
    """
    rng = random.Random(f"fixtures-cli:{seed}")
    b = Builder("square", rng)
    u, m, v = next(s[1:] for s in SQUARE_SEQUENCES if s[0] == "XI3")
    pad = SQUARE_PADDINGS["XI3"]
    xi = ("XI", b.add("R4c", (u,)), b.add("P4c", (m,)), b.add("S4c", (v,)))
    xp = ("XP", b.add("Up", (u,) + pad), b.add("Mp", (m,) + pad), b.add("Vp", (v,)))
    return b.text([xi, xp]), b.modules
