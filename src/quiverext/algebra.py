"""The basis of a bound path algebra, read off a Gröbner basis of its ideal.

Paths are words in the arrows, ordered longer first and, at one length,
by their arrows tuple; the first term of a combination is its leading
path.  Buchberger-Mora completion (Mora, LNCS 229, 1986; Green, Progr.
Math. 173, 1999) turns the relations into a Gröbner basis of their ideal
I, kept as rules that rewrite each leading path to the rest of its
element.  The normal paths, which hold no leading path, are a basis of
kQ/I, and rewriting is the normal form.  The algebra is accepted when

* it is finite-dimensional: the normal paths are infinitely many exactly
  when the Ufnarovski graph of the leading paths has a cycle (Ufnarovski,
  Math. Notes 31, 1982), and the refusal names the cycle;
* its level L, the least n with R^n = 0 for R the arrow ideal of kQ/I,
  is at most the truncation cap, and the completion takes up overlaps of
  length at most twice the cap.  Normal paths of every length below L do
  not show L when relations mix lengths: with x*x - x*x*x, x*x is a
  nonzero idempotent.
"""

from __future__ import annotations

import heapq
from itertools import count

from .linalg import _rref
from .quiver import BoundQuiver, Path, QuiverError, trivial_path


class AdmissibilityError(RuntimeError):
    """The relations bound no finite-dimensional admissible algebra within the cap."""


def _order(word):
    """Sort key under which a combination's leading path comes first."""
    return (-len(word), word)


def _divisor(rules, word):
    """(position, leading path) of the first leading path in ``word``, or None."""
    for i in range(len(word) - 1):
        for j in range(i + 2, len(word) + 1):
            if word[i:j] in rules:
                return i, word[i:j]
    return None


def _terms(field, rel):
    """A relation as {arrows: coefficient} over the field."""
    terms = {}
    for c, p in rel.terms:
        terms[p.arrows] = field.add(terms.get(p.arrows, field.zero), field.of_fraction(c))
    return terms


def _normal_form(field, rules, terms):
    """Rewrite {arrows: coefficient} of parallel paths until no path holds
    a leading path.  A rewrite yields only later paths in the order, so the
    paths are taken first to last and each is met once."""
    todo = dict(terms)
    heap = [_order(w) for w in todo]
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)[1]
        c = todo.pop(w)
        if field.is_zero(c):
            continue
        hit = _divisor(rules, w)
        if hit is None:
            out[w] = c
            continue
        i, lead = hit
        u, v = w[:i], w[i + len(lead):]
        for t, d in rules[lead].items():
            x = u + t + v
            if x not in todo:
                heapq.heappush(heap, _order(x))
            todo[x] = field.add(todo.get(x, field.zero), field.mul(c, d))
    return out


def _complete(bq: BoundQuiver, field):
    """Rules {leading path: {path: coefficient}} of a Gröbner basis of the
    relation ideal.

    Work is taken shortest first.  A new rule retires every rule whose
    leading path contains its own, so no leading path contains another and
    the overlaps of leading paths are the only ambiguities to resolve.
    """
    budget = 2 * bq.truncation_cap
    rules, work, seq = {}, [], count()
    for rel in bq.relations:
        heapq.heappush(work, (rel.max_length(), next(seq), _terms(field, rel), (), ()))
    while work:
        length, _, terms, parents, word = heapq.heappop(work)
        if any(p not in rules for p in parents):
            continue  # an overlap of a retired rule
        if parents and length > budget:
            raise AdmissibilityError(
                f"admissibility bound exceeded: the completion reached the overlap "
                f"{'*'.join(word)} of length {length}, "
                f"past twice the truncation cap {bq.truncation_cap}, with "
                f"{len(rules)} elements in the Gröbner basis")
        h = _normal_form(field, rules, terms)
        if not h:
            continue
        lead = min(h, key=_order)
        inv = field.inv(h.pop(lead))
        for old in [r for r in rules if _divisor({lead: None}, r)]:
            tail = {w: field.neg(c) for w, c in rules.pop(old).items()}
            heapq.heappush(work, (len(old), next(seq), {old: field.one, **tail}, (), ()))
        rules[lead] = {w: field.neg(field.mul(inv, c)) for w, c in h.items()}
        for s in rules:
            for a, b in dict.fromkeys([(s, lead), (lead, s)]):
                for k in range(1, min(len(a), len(b))):
                    if a[len(a) - k:] == b[:k]:
                        # a*v = u*b is the overlap; its two rewrites differ by
                        # rules[a]*v - u*rules[b], an element of the ideal
                        u, v = a[:len(a) - k], b[k:]
                        diff = {w + v: c for w, c in rules[a].items()}
                        for w, c in rules[b].items():
                            diff[u + w] = field.sub(diff.get(u + w, field.zero), c)
                        heapq.heappush(work, (len(a + v), next(seq), diff, (a, b), a + v))
    return rules


def _normal_paths(bq: BoundQuiver, rules):
    """Every normal path, shortest first.

    A word is normal when its windows of n + 1 arrows are, n one less than
    the longest leading path, so the windows of n arrows are the vertices
    of the Ufnarovski graph.  A normal path whose last window repeats an
    earlier one walks a cycle of that graph, and every power of the arrows
    after the earlier window is normal.  A graph with a cycle has such a
    path within n plus its vertex count arrows, so the search ends.
    """
    n = max(map(len, rules), default=2) - 1
    layer, paths = [trivial_path(x) for x in bq.quiver.vertices], []
    while layer:
        paths += layer
        layer = [Path(a.source, p.target, p.arrows + (a.name,))
                 for p in layer for a in bq.quiver.arrows
                 if a.target == p.source and not _divisor(rules, p.arrows + (a.name,))]
        for p in layer:
            w = p.arrows
            for i in range(n, len(w)):
                if w[i - n:i] == w[len(w) - n:]:
                    raise AdmissibilityError(
                        f"the algebra is infinite-dimensional: every power of the "
                        f"cycle {'*'.join(w[i:])} is a normal path")
    return paths


def _level(bq: BoundQuiver, field, rules, paths):
    """The least n with R^n = 0.  R^(n+1) is spanned by the normal forms of
    u*a, u in R^n and a an arrow, so the powers shrink until they vanish or
    repeat, and a repeat means that R is not nilpotent."""
    radical = [p.arrows for p in paths if p.arrows]
    index = {w: i for i, w in enumerate(radical)}
    arrow = bq.quiver.arrow_map
    power, n = [{w: field.one} for w in radical], 1
    while power:
        if n >= bq.truncation_cap:
            raise AdmissibilityError(
                f"admissibility bound exceeded: no level <= {bq.truncation_cap} "
                f"closes the ideal (R^{n} has dimension {len(power)})")
        rows = []
        for u in power:
            for a in bq.quiver.arrows:
                ua = {w + (a.name,): c for w, c in u.items() if arrow[w[-1]].source == a.target}
                row = [field.zero] * len(radical)
                for w, c in _normal_form(field, rules, ua).items():
                    row[index[w]] = c
                rows.append(row)
        rows, _ = _rref(field, rows)
        if len(rows) == len(power):
            raise AdmissibilityError(f"the arrow ideal is not nilpotent: "
                                     f"R^{n} = R^{n + 1} has dimension {len(rows)}")
        power = [{radical[j]: c for j, c in enumerate(row) if not field.is_zero(c)}
                 for row in rows]
        n += 1
    return n


class AlgebraBasis:
    """Bases of the vertex-to-vertex pieces of the quotient algebra.

    ``basis[(x, y)]`` lists the normal paths y -> x, shortest first, for
    each pair with one; ``reduce_path`` and ``reduce_terms`` rewrite in
    those bases.
    """

    def __init__(self, bq, field, level, rules, paths):
        self.bq = bq
        self.field = field
        self.level = level
        self._rules = rules
        self.basis = {}
        for p in sorted(paths, key=lambda p: (p.length, p.arrows)):
            self.basis.setdefault((p.target, p.source), []).append(p)

    def dim(self, x, y) -> int:
        return len(self.basis.get((x, y), ()))

    @property
    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def reduce_path(self, path: Path):
        """Expand a path in the normal basis, as [(coefficient, Path)]."""
        return self.reduce_terms(path.target, path.source, [(self.field.one, path)])

    def reduce_terms(self, x, y, terms):
        """Reduce a combination of parallel paths y -> x against the ideal."""
        field = self.field
        words = {}
        for c, p in terms:
            if (p.source, p.target) != (y, x):
                raise QuiverError(f"path {p} does not run {y} -> {x}")
            if p.length < self.level:  # a longer path lies in the ideal
                words[p.arrows] = field.add(words.get(p.arrows, field.zero), c)
        nf = _normal_form(field, self._rules, words)
        return [(nf[p.arrows], p) for p in self.basis.get((x, y), ()) if p.arrows in nf]


def algebra_basis(bq: BoundQuiver, field) -> AlgebraBasis:
    """Normal-path basis of the quotient algebra, per ordered vertex pair."""
    rules = _complete(bq, field)
    paths = _normal_paths(bq, rules)
    return AlgebraBasis(bq, field, _level(bq, field, rules, paths), rules, paths)


def minimality_check(bq: BoundQuiver, field):
    """Names of relations generated by the others (empty tuple = minimal).

    Each candidate is reduced by a Gröbner basis of the remaining
    relations, so the quotient by those need not be finite-dimensional.
    Raises AdmissibilityError when that completion exceeds its budget.
    """
    redundant = []
    for rel in bq.relations:
        others = [r for r in bq.relations if r.name != rel.name]
        try:
            rules = _complete(BoundQuiver(bq.quiver, others, bq.truncation_cap), field)
        except AdmissibilityError as exc:
            raise AdmissibilityError(f"on the subideal without {rel.name}: {exc}") from exc
        if not _normal_form(field, rules, _terms(field, rel)):
            redundant.append(rel.name)
    return tuple(redundant)
