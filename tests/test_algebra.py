"""The algebra basis against the level loop, and the refusals of bad input.

The level loop is kept here as an oracle that shares no code with the
Gröbner completion.  It spans the products u*rho*v of the relations
inside the paths of bounded length, by dense elimination.  Its level is
the least n at which the honest products of window n (those whose terms
all have length at most n) span every path of length n.  Its basis is the
set of non-pivot paths modulo the products truncated to that window, with
longer paths preferred as pivots.
"""

import random
from fractions import Fraction

import pytest

from quiverext.algebra import AdmissibilityError, algebra_basis, minimality_check
from quiverext.cli import main
from quiverext.fields import QQ
from quiverext.linalg import SubspaceBasis, _rref
from quiverext.quiver import Path, trivial_path, validate_bound_quiver

from cases import F2, F101, NAMES, case_workspace

ORACLE_CAP = 6
COEFFS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2))


# -- the level loop ---------------------------------------------------------


def paths_by_length(quiver, max_len):
    """The paths of length <= max_len, by length, up to the first empty length."""
    layers = [[trivial_path(x) for x in quiver.vertices]]
    while len(layers) <= max_len and layers[-1]:
        layers.append([Path(p.source, a.target, (a.name,) + p.arrows)
                       for p in layers[-1] for a in quiver.arrows if a.source == p.target])
    return layers


def products(bq, field, layers, window, honest):
    """Term lists of the products u*rho*v by vertex pair.  Honest products
    have every term in the window; the others drop the terms past it."""
    out = {}
    for rel in bq.relations:
        reach = window - (rel.max_length() if honest else rel.min_length())
        for left_len in range(min(reach, len(layers) - 1) + 1):
            for right_len in range(min(reach - left_len, len(layers) - 1) + 1):
                for left in layers[left_len]:
                    for right in layers[right_len]:
                        if left.source != rel.target or right.target != rel.source:
                            continue
                        terms = [(field.of_fraction(c),
                                  Path(right.source, left.target,
                                       left.arrows + p.arrows + right.arrows))
                                 for c, p in rel.terms
                                 if left_len + right_len + p.length <= window]
                        out.setdefault((left.target, right.source), []).append(terms)
    return out


def by_pair(layers, max_len):
    out = {}
    for layer in layers[:max_len + 1]:
        for p in layer:
            out.setdefault((p.target, p.source), []).append(p)
    return out


def reducer(field, paths, rows_terms):
    """(paths, index, RREF basis of the rows), the basis reducing the span
    of the paths modulo the rows; longer paths come first so that they are
    the pivots."""
    paths = sorted(paths, key=lambda p: (-p.length, p.arrows))
    index = {p.arrows: i for i, p in enumerate(paths)}
    rows = []
    for terms in rows_terms:
        v = [field.zero] * len(paths)
        for c, p in terms:
            v[index[p.arrows]] = field.add(v[index[p.arrows]], c)
        rows.append(v)
    return paths, index, SubspaceBasis(field, len(paths), *_rref(field, rows))


def unit(field, index, p):
    v = [field.zero] * len(index)
    v[index[p.arrows]] = field.one
    return v


def closes(bq, field, layers, level, window):
    """Whether the honest products of the window span every path of length level."""
    if level >= len(layers):
        return True
    prods = products(bq, field, layers, window, honest=True)
    pairs = by_pair(layers, window)
    for pair in {(p.target, p.source) for p in layers[level]}:
        paths, index, quot = reducer(field, pairs[pair], prods.get(pair, []))
        if not all(quot.contains(unit(field, index, p)) for p in layers[level]
                   if (p.target, p.source) == pair):
            return False
    return True


def level_loop(bq, field, cap=ORACLE_CAP):
    """(level, basis, reduce_path) as the level loop builds them, or None
    when no level <= cap closes the ideal."""
    layers = paths_by_length(bq.quiver, cap)
    level = next((n for n in range(1, cap + 1) if closes(bq, field, layers, n, n)), None)
    if level is None:
        return None
    prods = products(bq, field, layers, level, honest=False)
    reducers = {pair: reducer(field, paths, prods.get(pair, []))
                for pair, paths in by_pair(layers, level).items()}
    basis = {}
    for pair, (paths, index, quot) in reducers.items():
        kept = sorted((paths[j] for j in quot.free_coordinates()),
                      key=lambda p: (p.length, p.arrows))
        if kept:
            basis[pair] = kept

    def reduce_path(p):
        if p.length > level:
            return []
        paths, index, quot = reducers[(p.target, p.source)]
        red = quot.reduce(unit(field, index, p))
        return [(red[index[q.arrows]], q) for q in basis.get((p.target, p.source), ())
                if not field.is_zero(red[index[q.arrows]])]

    return level, basis, reduce_path


def window_dim(bq, field, level, window):
    """Dimension of the paths shorter than level modulo the honest products
    of the window, whose terms of length >= level are dropped."""
    layers = paths_by_length(bq.quiver, window)
    prods = products(bq, field, layers, window, honest=True)
    return sum(len(reducer(field, paths, [[(c, p) for c, p in t if p.length < level]
                                          for t in prods.get(pair, [])])[2].free_coordinates())
               for pair, paths in by_pair(layers, level - 1).items())


# -- seeded bound quivers -----------------------------------------------------


def _grouped_paths(arrows, max_len):
    """Arrow-name lists of the paths of length 2..max_len, by endpoints."""
    layer = [(a[1], a[2], [a[0]]) for a in arrows]
    groups = {}
    for _ in range(max_len - 1):
        layer = [(s, at, [name] + w) for s, t, w in layer
                 for name, a_s, at in arrows if a_s == t]
        for s, t, w in layer:
            groups.setdefault((s, t), []).append(w)
    return groups


def acyclic_bound_quiver(rng):
    """A line 1 -> ... -> n with a shortcut of two steps and random further
    arrows forward; the first relation mixes path lengths."""
    n = rng.randint(4, 5)
    i = rng.randint(1, n - 2)
    arrows = [(f"c{j}", str(j), str(j + 1)) for j in range(1, n)] + [("s", str(i), str(i + 2))]
    for k in range(rng.randint(0, 2)):
        j = rng.randint(1, n - 1)
        arrows.append((f"a{k}", str(j), str(rng.randint(j + 1, n))))
    groups = _grouped_paths(arrows, n)
    mixed = sorted(k for k, ws in groups.items() if len({len(w) for w in ws}) > 1)
    rels = []
    for r in range(rng.randint(1, 3)):
        ws = groups[rng.choice(mixed if r == 0 else sorted(groups))]
        chosen = rng.sample(ws, min(len(ws), rng.randint(1, 3)))
        if r == 0 and len({len(w) for w in chosen}) == 1:
            chosen.append(rng.choice([w for w in ws if len(w) != len(chosen[0])]))
        rels.append((f"r{r}", [(rng.choice(COEFFS), w) for w in chosen]))
    return validate_bound_quiver("A", [str(j) for j in range(1, n + 1)], arrows, rels)


def two_loop_algebra(rng):
    """One vertex, loops x and y, x^a = y^b = 0 and one or two relations on
    random words of length 2 and 3."""
    loops = [("x", "1", "1"), ("y", "1", "1")]
    a, b = rng.randint(2, 3), rng.randint(2, 3)
    rels = [("rx", [(1, ["x"] * a)]), ("ry", [(1, ["y"] * b)])]
    words = [w for ws in _grouped_paths(loops, 3).values() for w in ws]
    for r in range(rng.randint(1, 2)):
        chosen = rng.sample(words, rng.randint(1, 3))
        rels.append((f"r{r}", [(rng.choice(COEFFS), w) for w in chosen]))
    return validate_bound_quiver("L", ["1"], loops, rels)


def family(name, field):
    if name == "fixtures":
        return [case_workspace(n, field).bound_quiver for n in NAMES]
    make, count = {"acyclic": (acyclic_bound_quiver, 300),
                   "two-loops": (two_loop_algebra, 150)}[name]
    return [make(random.Random(f"{name}:{seed}")) for seed in range(count)]


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
@pytest.mark.parametrize("name, counts", [
    ("fixtures", (4, 0)), ("acyclic", (300, 0)), ("two-loops", (57, 35))])
def test_the_normal_basis_agrees_with_the_level_loop(name, counts, field):
    """Where the level loop closes, the same basis and the same reduction of
    every path up to one past the level.  Where only the completion closes,
    at level L, the honest products of some window up to 2L span every path
    of length L, and the dimension modulo them is the basis size.  The
    counts are of the inputs compared and of those checked by a window."""
    compared = windowed = 0
    for bq in family(name, field):
        old = level_loop(bq, field)
        try:
            new = algebra_basis(bq, field)
        except AdmissibilityError:
            assert old is None
            continue
        if old is not None:
            level, basis, reduce_path = old
            assert new.basis == basis
            for layer in paths_by_length(bq.quiver, max(level, new.level) + 1):
                for p in layer:
                    assert new.reduce_path(p) == reduce_path(p)
            compared += 1
            continue
        level = new.level
        layers = paths_by_length(bq.quiver, 2 * level)
        window = next((w for w in range(level, 2 * level + 1)
                       if closes(bq, field, layers, level, w)), None)
        assert window is not None
        assert window_dim(bq, field, level, window) == new.total_dim
        windowed += 1
    assert (compared, windowed) == counts


# -- inputs the level loop could not decide -----------------------------------


def loops_workspace(tmp_path, *relations, arrows="xy"):
    text = "quiver L\nvertex 1\n" + "".join(f"arrow {a} : 1 -> 1\n" for a in arrows)
    text += "".join(f"relation r{i} : {r}\n" for i, r in enumerate(relations))
    ws = tmp_path / "loops.qv"
    ws.write_text(text + "module S : dim 1\n", encoding="utf-8")
    return str(ws)


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
def test_relations_of_mixed_lengths_bound_an_admissible_algebra(field):
    """x*x = y*y*y with x*y = y*x = 0: the level loop never closes, since x^4
    lies in the ideal only through a product with a term of length 5."""
    bq = validate_bound_quiver("L", ["1"], [("x", "1", "1"), ("y", "1", "1")], [
        ("r", [(1, ["x", "x"]), (-1, ["y", "y", "y"])]),
        ("s", [(1, ["x", "y"])]), ("t", [(1, ["y", "x"])])])
    ab = algebra_basis(bq, field)
    assert ab.level == 4
    assert [str(p) for p in ab.basis[("1", "1")]] == ["e_1", "x", "y", "x*x", "y*y"]
    yyy = bq.quiver.path(["y", "y", "y"])
    assert ab.reduce_path(yyy) == [(field.one, bq.quiver.path(["x", "x"]))]


def test_an_idempotent_in_the_arrow_ideal_is_refused(capsys, tmp_path):
    """x*x = x*x*x makes x*x idempotent: four normal paths, and no level."""
    ws = loops_workspace(tmp_path, "x*x - x*x*x", "x*y", "y*x", "y*y")
    assert main(["ext2", ws, "S", "S"]) == 2
    assert capsys.readouterr().err == (
        "error: the arrow ideal is not nilpotent: R^2 = R^3 has dimension 1\n")


@pytest.mark.parametrize("cap", ["12", "100000"])
def test_commuting_loops_are_refused_with_their_cycle_at_any_cap(capsys, tmp_path, cap):
    ws = loops_workspace(tmp_path, "x*y - y*x")
    assert main(["ext2", ws, "S", "S", f"--truncation-cap={cap}"]) == 2
    assert capsys.readouterr().err == (
        "error: the algebra is infinite-dimensional: every power of the cycle x "
        "is a normal path\n")


def test_a_completion_past_its_budget_is_refused(capsys, tmp_path):
    """The braid relation has an infinite Gröbner basis under this order."""
    ws = loops_workspace(tmp_path, "x*y*x - y*x*y")
    assert main(["ext2", ws, "S", "S"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: admissibility bound exceeded: "
                          "the completion reached the overlap ")
    assert err.endswith(" of length 25, past twice the truncation cap 12, "
                        "with 21 elements in the Gröbner basis\n")


def test_minimality_needs_no_finite_dimensional_subideal():
    """Without x*x the loops algebra is infinite-dimensional, but a Gröbner
    basis of the other relations still shows that x*x is not in their ideal."""
    assert minimality_check(case_workspace("loops", QQ).bound_quiver, QQ) == ()
