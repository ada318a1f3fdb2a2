"""Representations of a bound quiver, their morphisms, and cochain layouts.

A representation assigns a space k^{d_x} to each vertex and a matrix to
each arrow (shape d_target x d_source); the defining constraint is that
every relation element evaluates to the zero matrix.  Evaluation of a
path multiplies the arrow matrices in composition order, the rightmost
arrow acting first; the trivial path evaluates to the identity.

Vertex, arrow and relation cochains share one block layout (``Cochain``);
Hom, the cocycle and coboundary systems and the small Ext^2 model all
read their coordinates from it.
"""

from __future__ import annotations

from .fields import canonical
from .linalg import (
    Matrix,
    block_diag,
    coordinates_in_basis,
    kernel_basis,
    rank,
)
from .quiver import BoundQuiver, Path, QuiverError, RelationElement


class Representation:
    def __init__(self, bq: BoundQuiver, field, dims: dict, mats: dict,
                 name: str | None = None, check: bool = True):
        self.bq = bq
        self.field = field
        self.dims = {x: int(dims.get(x, 0)) for x in bq.quiver.vertices}
        self.mats = {}
        for a in bq.quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                m = Matrix.zeros(field, self.dims[a.target], self.dims[a.source])
            if m.shape() != (self.dims[a.target], self.dims[a.source]):
                raise QuiverError(
                    f"matrix for arrow {a.name} has shape {m.shape()}, "
                    f"expected {(self.dims[a.target], self.dims[a.source])}"
                )
            if m.field != field:
                raise QuiverError(f"matrix for arrow {a.name} is over the wrong field")
            self.mats[a.name] = m
        self.name = name
        if check:
            for rel in bq.relations:
                if not self.eval_relation(rel).is_zero():
                    raise QuiverError(
                        f"relation {rel.name} does not vanish on this representation"
                    )

    # -- basic data ----------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> dict:
        return dict(self.dims)

    def eval_path(self, path: Path) -> Matrix:
        if path.length == 0:
            return Matrix.identity(self.field, self.dims[path.source])
        out = self.mats[path.arrows[0]]
        for name in path.arrows[1:]:
            out = out @ self.mats[name]
        return out

    def eval_arrow_word(self, arrow_names, source_vertex) -> Matrix:
        """Evaluate a (possibly empty) arrow word; empty words need a vertex.

        An empty word gives a new identity matrix; the relation system,
        ``z_path`` and ``yoneda_matrices`` skip empty words instead of
        asking for one.
        """
        if not arrow_names:
            return Matrix.identity(self.field, self.dims[source_vertex])
        out = self.mats[arrow_names[0]]
        for name in arrow_names[1:]:
            out = out @ self.mats[name]
        return out

    def eval_relation(self, rel: RelationElement) -> Matrix:
        out = Matrix.zeros(self.field, self.dims[rel.target], self.dims[rel.source])
        for coeff, p in rel.terms:
            out = out + self.eval_path(p).scale(self.field.of_fraction(coeff))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and other.bq is self.bq
            and other.field == self.field
            and other.dims == self.dims
            and all(other.mats[a] == self.mats[a] for a in self.mats)
        )

    def __repr__(self):
        label = self.name or "rep"
        dims = ",".join(str(self.dims[x]) for x in self.bq.quiver.vertices)
        return f"<{label} ({dims}) over {self.field.name}>"


def zero_rep(bq: BoundQuiver, field, dims: dict | None = None) -> Representation:
    dims = dims or {x: 0 for x in bq.quiver.vertices}
    return Representation(bq, field, dims, {}, check=False)


def simple(bq: BoundQuiver, field, vertex) -> Representation:
    if vertex not in bq.quiver.vertex_index:
        raise QuiverError(f"unknown vertex {vertex!r}")
    dims = {x: 1 if x == vertex else 0 for x in bq.quiver.vertices}
    return Representation(bq, field, dims, {}, name=f"S{vertex}")


def direct_sum(*reps: Representation) -> Representation:
    """Block-diagonal direct sum; summand order fixes the block order."""
    if not reps:
        raise ValueError("direct_sum needs at least one summand")
    bq, field = reps[0].bq, reps[0].field
    for r in reps[1:]:
        if r.bq is not bq or r.field != field:
            raise QuiverError("direct summands live over different quivers or fields")
    dims = {x: sum(r.dims[x] for r in reps) for x in bq.quiver.vertices}
    mats = {a.name: block_diag(field, [r.mats[a.name] for r in reps])
            for a in bq.quiver.arrows}
    return Representation(bq, field, dims, mats, check=False)


class Cochain:
    """Blocks source -> target in a fixed slot layout.

    A slot is (key, source vertex, target vertex) and holds a
    d_target x d_source block: d_target from the target representation
    at the slot's target vertex, d_source from the source representation
    at its source vertex.  Coordinates run through the slots in order,
    each block row-major.  Subclasses only name their slots
    (``_slot_list``); the list depends only on the bound quiver, so
    ``slots`` keeps it there, one per cochain kind.
    """

    def __init__(self, source: Representation, target: Representation, mats: dict):
        self.source = source
        self.target = target
        self.mats = {}
        for key, x, y in self.slots(source.bq):
            shape = (target.dims[y], source.dims[x])
            m = mats.get(key)
            if m is None:
                m = Matrix.zeros(source.field, *shape)
            if m.shape() != shape:
                raise QuiverError(f"{self.kind} {key}: cochain block has shape "
                                  f"{m.shape()}, expected {shape}")
            self.mats[key] = m

    @classmethod
    def slots(cls, bq):
        """The slots (key, source vertex, target vertex) of this kind on bq."""
        cache = bq._slot_cache
        out = cache.get(cls.kind)
        if out is None:
            out = cache[cls.kind] = tuple(cls._slot_list(bq))
        return out

    @classmethod
    def offsets(cls, source, target):
        """The first coordinate of each slot, by key, and the total."""
        start, pos = {}, 0
        for key, x, y in cls.slots(source.bq):
            start[key] = pos
            pos += target.dims[y] * source.dims[x]
        return start, pos

    @classmethod
    def space_dim(cls, source, target) -> int:
        return cls.offsets(source, target)[1]

    def to_vector(self):
        return [x for m in self.mats.values() for row in m.rows for x in row]

    @classmethod
    def from_vector(cls, source, target, vec):
        start, total = cls.offsets(source, target)
        if total != len(vec):
            raise ValueError(f"vector length does not match the {cls.kind} layout")
        mats = {}
        for key, x, y in cls.slots(source.bq):
            r, c, pos = target.dims[y], source.dims[x], start[key]
            rows = [vec[pos + i * c: pos + (i + 1) * c] for i in range(r)]
            mats[key] = Matrix(source.field, rows, c)
        return cls(source, target, mats)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {})

    def scale(self, c):
        return type(self)(self.source, self.target,
                          {k: m.scale(c) for k, m in self.mats.items()})

    def add(self, other):
        return type(self)(self.source, self.target,
                          {k: m + other.mats[k] for k, m in self.mats.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())


class VertexCochain(Cochain):
    """A tuple of per-vertex matrices source_x -> target_x.

    Morphisms of representations are exactly the vertex cochains that
    intertwine the arrow matrices.
    """

    kind = "vertex"

    @staticmethod
    def _slot_list(bq):
        return [(x, x, x) for x in bq.quiver.vertices]

    def is_morphism(self) -> bool:
        V, U = self.source, self.target
        for a in V.bq.quiver.arrows:
            left = self.mats[a.target] @ V.mats[a.name]
            right = U.mats[a.name] @ self.mats[a.source]
            if left != right:
                return False
        return True

    def compose(self, other: "VertexCochain") -> "VertexCochain":
        """self after other (vertexwise matrix product)."""
        if other.target != self.source:
            raise QuiverError("cochain composition: targets and sources do not match")
        mats = {x: self.mats[x] @ other.mats[x] for x in self.mats}
        return VertexCochain(other.source, self.target, mats)


class ArrowCochain(Cochain):
    """Per-arrow matrices source_rep -> target_rep across each arrow."""

    kind = "arrow"

    @staticmethod
    def _slot_list(bq):
        return [(a.name, a.source, a.target) for a in bq.quiver.arrows]


class RelationCochain(Cochain):
    """Per-relation matrices source_rep -> target_rep across each relation."""

    kind = "relation"

    @staticmethod
    def _slot_list(bq):
        return [(r.name, r.source, r.target) for r in bq.relations]


def hom_system(M: Representation, N: Representation) -> Matrix:
    """Matrix of the map f |-> (f_tgt M_a - N_a f_src)_a on vertex cochains.

    Columns follow ``VertexCochain.offsets(M, N)`` and rows
    ``ArrowCochain.offsets(M, N)``: one row-major block per vertex and
    per arrow, in vertex and arrow order.  Entry (i, j) of the block of a
    takes M_a[q][j] from f_tgt[i][q] and -N_a[i][p] from f_src[p][j]; both
    are written straight into the rows (on a loop they meet in one entry)
    and each entry is brought to canonical form once.  Its kernel is
    Hom(M, N).
    """
    if M.bq is not N.bq:
        raise QuiverError("hom of representations over different quivers")
    field = M.field
    col0, ncols = VertexCochain.offsets(M, N)
    row0, nrows = ArrowCochain.offsets(M, N)
    rows = [[0] * ncols for _ in range(nrows)]
    for a in M.bq.quiver.arrows:
        m_a, n_a = M.mats[a.name].rows, N.mats[a.name].rows
        m_t, m_s = M.dims[a.target], M.dims[a.source]
        c_t, c_s = col0[a.target], col0[a.source]
        m_cols = [[(q, row[j]) for q, row in enumerate(m_a) if row[j]]
                  for j in range(m_s)]
        r = row0[a.name]
        for i, n_row in enumerate(n_a):
            n_cells = [(p, y) for p, y in enumerate(n_row) if y]
            for j, cells in enumerate(m_cols):
                row = rows[r]
                r += 1
                for q, x in cells:
                    row[c_t + i * m_t + q] += x
                for p, y in n_cells:
                    row[c_s + p * m_s + j] -= y
    p = field.char
    if p:
        rows = [[x % p for x in row] for row in rows]
    else:
        rows = [[x if type(x) is int else canonical(x) for x in row] for row in rows]
    return Matrix(field, rows, ncols)


def hom_basis(M: Representation, N: Representation):
    """Canonical basis of the space of morphisms M -> N."""
    ker = kernel_basis(hom_system(M, N))
    return [VertexCochain.from_vector(M, N, v) for v in ker.vectors]


def hom_dim(M: Representation, N: Representation) -> int:
    """dim Hom(M, N), the nullity of ``hom_system(M, N)``: its column
    count minus its ``rank``, with no kernel basis built."""
    system = hom_system(M, N)
    return system.ncols - rank(system)


def kernel_representation(f: VertexCochain):
    """The kernel subrepresentation of a morphism, with its inclusion."""
    if not f.is_morphism():
        raise QuiverError("kernel_representation expects a morphism")
    M = f.source
    field = M.field
    bases = {x: kernel_basis(f.mats[x]) for x in M.bq.quiver.vertices}
    dims = {x: bases[x].dim for x in M.bq.quiver.vertices}
    mats = {}
    for a in M.bq.quiver.arrows:
        src, tgt = bases[a.source], bases[a.target]
        cols = []
        for v in src.vectors:
            w = M.mats[a.name].apply(v)
            coords = coordinates_in_basis(tgt, w)
            if coords is None:
                raise QuiverError("arrow does not preserve the kernel (not a morphism?)")
            cols.append(coords)
        mats[a.name] = Matrix.from_columns(field, tgt.dim, cols)
    K = Representation(M.bq, field, dims, mats, check=False)
    incl = VertexCochain(K, M, {
        x: bases[x].matrix_of_columns() for x in M.bq.quiver.vertices
    })
    return K, incl
