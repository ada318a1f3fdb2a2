"""Truncated bases of a bound path algebra.

The two-sided ideal generated by the relations is accumulated degree by
degree inside the space of paths of bounded length, by spanning all
left/right path multiples of the relation elements — no Groebner bases.
The admissibility level L is the smallest length at which every path of
that length already lies in the span of multiples that fit entirely
inside the length-L window.  Once that holds, every path of length >= L
is an ideal member, which justifies two later conveniences:

* products of relation elements whose long terms overflow the window may
  be truncated to the window (the dropped paths are ideal members), and
* any path longer than the window reduces to zero.

For inhomogeneous relation sets this degree-synchronous closure is the
defining computation; the cap guards quivers where no level is reached.
"""

from __future__ import annotations

from .linalg import QuotientSpace, SubspaceBasis, _rref
from .quiver import BoundQuiver, Path, QuiverError, is_acyclic, trivial_path


class AdmissibilityError(RuntimeError):
    """No admissibility level exists within the truncation cap."""


def _paths_up_to(bq: BoundQuiver, max_len: int):
    """All paths of length <= max_len, grouped by length, up to the first
    empty length (every longer one is empty too)."""
    by_length = [[trivial_path(x) for x in bq.quiver.vertices]]
    while len(by_length) <= max_len and by_length[-1]:
        by_length.append([Path(p.source, a.target, (a.name,) + p.arrows)
                          for p in by_length[-1] for a in bq.quiver.arrows
                          if a.source == p.target])
    return by_length


class _PairSpace:
    """Coordinate bookkeeping for the span of parallel paths x <- y."""

    def __init__(self, field, paths):
        # Longer paths first so they are preferred as pivots; the quotient
        # basis then consists of the shortest available representatives.
        self.paths = sorted(paths, key=lambda p: (-p.length, p.arrows))
        self.index = {p.arrows: i for i, p in enumerate(self.paths)}
        self.field = field

    def vector_of(self, terms):
        """Coordinates of a list of (coefficient, Path); unknown paths are dropped."""
        v = [self.field.zero] * len(self.paths)
        for coeff, p in terms:
            i = self.index.get(p.arrows)
            if i is not None:
                v[i] = self.field.add(v[i], coeff)
        return v


class AlgebraBasis:
    """Bases of the vertex-to-vertex pieces of the quotient algebra.

    ``basis[(x, y)]`` lists the residue classes of paths y -> x surviving
    modulo the relation ideal; ``rad_basis`` is the length >= 1 part.
    ``reduce_path`` rewrites any path (of any length) in those bases.
    """

    def __init__(self, bq, field, level, reducers):
        self.bq = bq
        self.field = field
        self.level = level
        self._reducers = reducers  # {(x, y): (paths, index, QuotientSpace)}
        self.basis = {}
        self.rad_basis = {}
        for (x, y), (paths, index, quot) in reducers.items():
            free = quot.free_coordinates()
            surviving = sorted((paths[j] for j in free), key=lambda p: (p.length, p.arrows))
            self.basis[(x, y)] = surviving
            self.rad_basis[(x, y)] = [p for p in surviving if p.length >= 1]

    def dim(self, x, y) -> int:
        return len(self.basis.get((x, y), ()))

    @property
    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def reduce_path(self, path: Path):
        """Expand a path in the surviving basis, as [(coefficient, Path)].

        Paths longer than the window are ideal members and reduce to [].
        """
        if path.length > self.level:
            return []
        return self.reduce_terms(path.target, path.source, [(self.field.one, path)])

    def reduce_terms(self, x, y, terms):
        """Reduce a combination of parallel paths y -> x against the ideal."""
        key = (x, y)
        if key not in self._reducers:
            return []
        paths, index, quot = self._reducers[key]
        v = [self.field.zero] * len(paths)
        for coeff, p in terms:
            if p.length > self.level:
                continue  # beyond the window: an ideal member
            i = index.get(p.arrows)
            if i is None:
                raise QuiverError(f"path {p} does not run {y} -> {x}")
            v[i] = self.field.add(v[i], coeff)
        red = quot.reduce(v)
        out = []
        for p in self.basis[key]:
            c = red[index[p.arrows]]
            if not self.field.is_zero(c):
                out.append((c, p))
        return out


def _relation_products(bq, field, by_length, window, strict_only):
    """Span vectors of p * rho * q products per vertex pair.

    With strict_only, only products all of whose terms fit in the window
    are produced (these are honest ideal elements and safe for the
    admissibility test).  Otherwise products are truncated to the window,
    which is sound once admissibility holds at the window length.
    """
    paths_from = {}   # vertex v -> paths with source v (left multipliers)
    paths_into = {}   # vertex v -> paths with target v (right multipliers)
    for layer in by_length[: window + 1]:
        for p in layer:
            paths_from.setdefault(p.source, []).append(p)
            paths_into.setdefault(p.target, []).append(p)

    out = {}  # (x, y) -> list of term-lists
    for rel in bq.relations:
        max_len = rel.max_length()
        min_len = rel.min_length()
        coeffs = [(field.of_fraction(c), p) for c, p in rel.terms]
        for left in paths_from.get(rel.target, ()):
            for right in paths_into.get(rel.source, ()):
                pad = left.length + right.length
                if pad + min_len > window:
                    continue
                if strict_only and pad + max_len > window:
                    continue
                terms = []
                for c, p in coeffs:
                    if pad + p.length > window:
                        continue  # truncated: the dropped path is an ideal member
                    terms.append((c, Path(right.source, left.target,
                                          left.arrows + p.arrows + right.arrows)))
                if terms:
                    out.setdefault((left.target, right.source), []).append(terms)
    return out


def admissibility_check(bq: BoundQuiver, field):
    """Smallest level L <= cap = ``bq.truncation_cap`` with every length-L
    path in the ideal span.

    Returns the level, or None when the cap is exhausted, at once when no
    relation bounds an oriented cycle (the algebra is infinite-dimensional).
    """
    if not bq.relations and not is_acyclic(bq):
        return None
    cap = bq.truncation_cap
    by_length = _paths_up_to(bq, cap)
    for level in range(1, cap + 1):
        frontier = by_length[level] if level < len(by_length) else ()
        if not frontier:
            return level
        products = _relation_products(bq, field, by_length, level, strict_only=True)
        ok = True
        grouped = {}
        for p in frontier:
            grouped.setdefault((p.target, p.source), []).append(p)
        for pair, paths_needed in grouped.items():
            rows_terms = products.get(pair, [])
            space = _PairSpace(field, [q for q in _pair_paths(by_length, level, pair)])
            rows = [space.vector_of(t) for t in rows_terms]
            rref_rows, pivots = _rref(field, rows)
            quot = QuotientSpace(field, len(space.paths),
                                 SubspaceBasis(field, len(space.paths), rref_rows))
            for p in paths_needed:
                if not quot.contains(space.vector_of([(field.one, p)])):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return level
    return None


def _pair_paths(by_length, window, pair):
    x, y = pair
    for layer in by_length[: window + 1]:
        for p in layer:
            if p.target == x and p.source == y:
                yield p


def algebra_basis(bq: BoundQuiver, field) -> AlgebraBasis:
    """Truncated basis of the quotient algebra, per ordered vertex pair."""
    level = admissibility_check(bq, field)
    if level is None:
        raise AdmissibilityError(
            f"admissibility bound exceeded: no level <= {bq.truncation_cap} "
            "closes the ideal"
        )
    by_length = _paths_up_to(bq, level)
    products = _relation_products(bq, field, by_length, level, strict_only=False)
    reducers = {}
    for x in bq.quiver.vertices:
        for y in bq.quiver.vertices:
            pair = (x, y)
            paths = list(_pair_paths(by_length, level, pair))
            if not paths:
                continue
            space = _PairSpace(field, paths)
            rows = [space.vector_of(t) for t in products.get(pair, [])]
            rref_rows, _ = _rref(field, rows)
            quot = QuotientSpace(field, len(space.paths),
                                 SubspaceBasis(field, len(space.paths), rref_rows))
            reducers[pair] = (space.paths, space.index, quot)
    return AlgebraBasis(bq, field, level, reducers)


def minimality_check(bq: BoundQuiver, field):
    """Names of relations generated by the others (empty tuple = minimal).

    Each candidate is reduced against the ideal of the remaining
    relations, computed at that subideal's own admissibility level.
    Raises AdmissibilityError when a subideal has no level within the cap.
    """
    redundant = []
    for rel in bq.relations:
        others = [r for r in bq.relations if r.name != rel.name]
        sub = BoundQuiver(bq.quiver, others, truncation_cap=bq.truncation_cap)
        try:
            sub_basis = algebra_basis(sub, field)
        except AdmissibilityError as exc:
            raise AdmissibilityError(
                f"admissibility bound exceeded on the subideal without {rel.name}: {exc}"
            ) from exc
        terms = [(field.of_fraction(c), p) for c, p in rel.terms]
        if not sub_basis.reduce_terms(rel.target, rel.source, terms):
            redundant.append(rel.name)
    return tuple(redundant)
