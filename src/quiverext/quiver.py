"""Quivers, paths, relation elements, and the combinatorial forms.

Paths compose right to left: in a path (a1, ..., an) the last arrow an
acts first, so source(path) = source(an) and target(path) = target(a1).
The product written p*q in the relation DSL means "apply q, then p" and
requires source(p) == target(q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter


class QuiverError(ValueError):
    """Raised when quiver, relation, or dimension data is inconsistent."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A directed path, stored as the tuple of arrow names, rightmost first to act."""

    source: str
    target: str
    arrows: tuple

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __str__(self):
        if self.is_trivial:
            return f"e_{self.source}"
        return "*".join(self.arrows)


def trivial_path(x: str) -> Path:
    return Path(x, x, ())


def compose_paths(p: Path, q: Path) -> Path:
    """The product p*q (apply q first); requires source(p) == target(q)."""
    if p.source != q.target:
        raise QuiverError(f"paths {p} and {q} do not compose")
    return Path(q.source, p.target, p.arrows + q.arrows)


@dataclass(frozen=True)
class RelationElement:
    """A linear combination of parallel paths of length >= 2."""

    name: str
    source: str
    target: str
    terms: tuple  # of (Fraction coefficient, Path)

    def max_length(self) -> int:
        return max(p.length for _, p in self.terms)

    def min_length(self) -> int:
        return min(p.length for _, p in self.terms)

    def __str__(self):
        parts = []
        for c, p in self.terms:
            parts.append(f"{c}*{p}" if c != 1 else str(p))
        return " + ".join(parts)


class Quiver:
    """A finite quiver with named vertices and arrows."""

    def __init__(self, name: str, vertices, arrows):
        self.name = name
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise QuiverError(f"arrow {a.name}: endpoint not a declared vertex")
        self.arrow_map = {a.name: a for a in self.arrows}
        self.vertex_index = {x: i for i, x in enumerate(self.vertices)}

    def path(self, arrow_names) -> Path:
        """Build and validate a path from arrow names (composition order)."""
        names = tuple(arrow_names)
        if not names:
            raise QuiverError("a path from arrow names needs at least one arrow")
        arrows = []
        for n in names:
            if n not in self.arrow_map:
                raise QuiverError(f"unknown arrow {n!r}")
            arrows.append(self.arrow_map[n])
        for left, right in zip(arrows, arrows[1:]):
            if left.source != right.target:
                raise QuiverError(
                    f"arrows {left.name} and {right.name} do not compose "
                    f"(source {left.source} != target {right.target})"
                )
        return Path(arrows[-1].source, arrows[0].target, names)


class BoundQuiver:
    """A quiver together with an admissible set of relation elements."""

    def __init__(self, quiver: Quiver, relations=(), truncation_cap: int = 12):
        self.quiver = quiver
        self.relations = tuple(relations)
        self.truncation_cap = truncation_cap
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate relation names")
        for rel in self.relations:
            self._check_relation(rel)
        self._algebra_cache = {}
        # filled by ext2: global-dimension verdicts by field name, and the
        # presentations of the simples (whose P are the indecomposable
        # projectives) by (field name, vertex)
        self._gldim_cache = {}
        self._projective_cache = {}
        # structural data: the slot list of each cochain kind, by kind
        # (filled by rep.Cochain.slots), and the is_acyclic verdict
        self._slot_cache = {}
        self._acyclic = None
        self._opposite = None

    def _check_relation(self, rel: RelationElement):
        if not rel.terms:
            raise QuiverError(f"relation {rel.name}: no terms")
        for coeff, p in rel.terms:
            if coeff == 0:
                raise QuiverError(f"relation {rel.name}: zero coefficient")
            if p.length < 2:
                raise QuiverError(
                    f"relation {rel.name}: term {p} has length {p.length} < 2"
                )
            # re-validate the path against this quiver
            built = self.quiver.path(p.arrows)
            if (built.source, built.target) != (p.source, p.target):
                raise QuiverError(f"relation {rel.name}: inconsistent path endpoints")
            if (p.source, p.target) != (rel.source, rel.target):
                raise QuiverError(
                    f"relation {rel.name}: terms are not parallel "
                    f"({p} runs {p.source}->{p.target}, expected {rel.source}->{rel.target})"
                )

    # The truncated algebra basis is field-dependent (relation coefficients
    # may degenerate mod p), so the cache is keyed by field and cap.
    def algebra_basis(self, field, cap: int | None = None):
        from . import algebra  # local import to avoid a cycle

        cap = self.truncation_cap if cap is None else cap
        key = (field.name, cap)
        if key not in self._algebra_cache:
            self._algebra_cache[key] = algebra.algebra_basis(self, field, cap)
        return self._algebra_cache[key]

    def opposite(self) -> "BoundQuiver":
        """The opposite bound quiver: arrows reversed, relation paths reversed."""
        if self._opposite is None:
            q = self.quiver
            arrows = [Arrow(a.name, a.target, a.source) for a in q.arrows]
            opp_q = Quiver(q.name + "_op", q.vertices, arrows)
            rels = []
            for rel in self.relations:
                terms = []
                for coeff, p in rel.terms:
                    rev = tuple(reversed(p.arrows))
                    terms.append((coeff, Path(p.target, p.source, rev)))
                rels.append(RelationElement(rel.name, rel.target, rel.source, tuple(terms)))
            opp = BoundQuiver(opp_q, rels, self.truncation_cap)
            opp._opposite = self
            self._opposite = opp
        return self._opposite


def validate_bound_quiver(name, vertices, arrows, relations=(),
                          truncation_cap: int = 12) -> BoundQuiver:
    """Assemble and validate a bound quiver from raw data.

    ``arrows`` is an iterable of (name, source, target) triples;
    ``relations`` an iterable of (name, [(coefficient, [arrow names]), ...]).
    """
    quiver = Quiver(name, vertices, [Arrow(*a) for a in arrows])
    rels = []
    for rname, terms in relations:
        built = []
        for coeff, arrow_names in terms:
            built.append((Fraction(coeff), quiver.path(arrow_names)))
        if not built:
            raise QuiverError(f"relation {rname}: no terms")
        src, tgt = built[0][1].source, built[0][1].target
        rels.append(RelationElement(rname, src, tgt, tuple(built)))
    return BoundQuiver(quiver, rels, truncation_cap)


def is_acyclic(bq: BoundQuiver) -> bool:
    """True when the arrow digraph has no directed cycle.

    The verdict depends only on the quiver, so it is kept on bq.
    """
    if bq._acyclic is None:
        graph = {x: set() for x in bq.quiver.vertices}
        for a in bq.quiver.arrows:
            graph[a.target].add(a.source)
        try:
            TopologicalSorter(graph).prepare()
            bq._acyclic = True
        except CycleError:
            bq._acyclic = False
    return bq._acyclic


# -- dimension forms ---------------------------------------------------
#
# Dimension vectors are plain dicts {vertex: int}.


def _check_dimvec(bq: BoundQuiver, d: dict):
    for x in bq.quiver.vertices:
        if x not in d:
            raise QuiverError(f"dimension vector misses vertex {x!r}")
        if not isinstance(d[x], int) or d[x] < 0:
            raise QuiverError(f"dimension at vertex {x!r} must be a nonnegative int")
    extra = set(d) - set(bq.quiver.vertices)
    if extra:
        raise QuiverError(f"dimension vector names unknown vertices {sorted(extra)}")


def euler_form(bq: BoundQuiver, d1: dict, d2: dict) -> int:
    """The bilinear form with vertex, arrow, and relation contributions.

    Counts hom minus first minus-sign block minus second:
    sum_x d1_x d2_x  -  sum_arrows d1_src d2_tgt  +  sum_relations d1_src d2_tgt.
    Meaningful as an Euler characteristic only when the relation set is
    minimal; callers that care should consult minimality_check.
    """
    _check_dimvec(bq, d1)
    _check_dimvec(bq, d2)
    total = sum(d1[x] * d2[x] for x in bq.quiver.vertices)
    total -= sum(d1[a.source] * d2[a.target] for a in bq.quiver.arrows)
    total += sum(d1[r.source] * d2[r.target] for r in bq.relations)
    return total


def chi(bq: BoundQuiver, d: dict) -> int:
    """The quadratic form euler_form(d, d)."""
    return euler_form(bq, d, d)


def a_of_d(bq: BoundQuiver, d: dict) -> int:
    """Arrow minus relation count form: dim of the product of GL factors minus chi."""
    _check_dimvec(bq, d)
    total = sum(d[a.source] * d[a.target] for a in bq.quiver.arrows)
    total -= sum(d[r.source] * d[r.target] for r in bq.relations)
    return total


def mixed_a_form(bq: BoundQuiver, d1: dict, d2: dict) -> int:
    """The mixed companion of a_of_d: arrows cross-term minus relations cross-term."""
    _check_dimvec(bq, d1)
    _check_dimvec(bq, d2)
    total = sum(d1[a.source] * d2[a.target] for a in bq.quiver.arrows)
    total -= sum(d1[r.source] * d2[r.target] for r in bq.relations)
    return total


def gl_dim(bq: BoundQuiver, d: dict) -> int:
    _check_dimvec(bq, d)
    return sum(d[x] ** 2 for x in bq.quiver.vertices)
