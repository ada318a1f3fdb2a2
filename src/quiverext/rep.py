"""Finite-dimensional representations of a bound quiver and their morphisms.

A representation assigns a space k^{d_x} to each vertex and a matrix to
each arrow (shape d_target x d_source); the defining constraint is that
every relation element evaluates to the zero matrix.  Evaluation of a
path multiplies the arrow matrices in composition order, the rightmost
arrow acting first; the trivial path evaluates to the identity.
"""

from __future__ import annotations

from .linalg import (
    Matrix,
    coordinates_in_basis,
    kernel_basis,
    kron_add,
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

    def dim_at(self, x) -> int:
        return self.dims[x]

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
        """Evaluate a (possibly empty) arrow word; empty words need a vertex."""
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

    def relabel(self, name: str) -> "Representation":
        clone = Representation(self.bq, self.field, self.dims, self.mats,
                               name=name, check=False)
        return clone


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
    mats = {}
    for a in bq.quiver.arrows:
        out = Matrix.zeros(field, dims[a.target], dims[a.source])
        r0 = c0 = 0
        for r in reps:
            block = r.mats[a.name]
            for i in range(block.nrows):
                out.rows[r0 + i][c0:c0 + block.ncols] = list(block.rows[i])
            r0 += block.nrows
            c0 += block.ncols
        mats[a.name] = out
    return Representation(bq, field, dims, mats, check=False)


class VertexCochain:
    """A tuple of per-vertex matrices source_x -> target_x.

    Morphisms of representations are exactly the vertex cochains that
    intertwine the arrow matrices.
    """

    def __init__(self, source: Representation, target: Representation, mats: dict):
        self.source = source
        self.target = target
        self.mats = {}
        for x in source.bq.quiver.vertices:
            m = mats.get(x)
            if m is None:
                m = Matrix.zeros(source.field, target.dims[x], source.dims[x])
            if m.shape() != (target.dims[x], source.dims[x]):
                raise QuiverError(f"vertex {x}: block has shape {m.shape()}, "
                                  f"expected {(target.dims[x], source.dims[x])}")
            self.mats[x] = m

    def is_morphism(self) -> bool:
        V, U = self.source, self.target
        for a in V.bq.quiver.arrows:
            left = self.mats[a.target] @ V.mats[a.name]
            right = U.mats[a.name] @ self.mats[a.source]
            if left != right:
                return False
        return True

    def to_vector(self):
        out = []
        for x in self.source.bq.quiver.vertices:
            for row in self.mats[x].rows:
                out.extend(row)
        return out

    @classmethod
    def from_vector(cls, source, target, vec):
        mats = {}
        pos = 0
        for x in source.bq.quiver.vertices:
            r, c = target.dims[x], source.dims[x]
            rows = [vec[pos + i * c: pos + (i + 1) * c] for i in range(r)]
            pos += r * c
            mats[x] = Matrix(source.field, rows, c)
        if pos != len(vec):
            raise ValueError("vector length does not match the vertex layout")
        return cls(source, target, mats)

    @staticmethod
    def space_dim(source, target) -> int:
        return sum(target.dims[x] * source.dims[x] for x in source.bq.quiver.vertices)

    def compose(self, other: "VertexCochain") -> "VertexCochain":
        """self after other (vertexwise matrix product)."""
        if other.target != self.source:
            raise QuiverError("cochain composition: targets and sources do not match")
        mats = {x: self.mats[x] @ other.mats[x] for x in self.mats}
        return VertexCochain(other.source, self.target, mats)


def hom_system(M: Representation, N: Representation) -> Matrix:
    """Matrix of the map f |-> (f_tgt M_a - N_a f_src)_a on vertex cochains.

    Columns follow ``VertexCochain.to_vector`` for M -> N; rows hold one
    row-major block per arrow, in arrow order.  Its kernel is Hom(M, N).
    """
    field = M.field
    quiver = M.bq.quiver
    col0, ncols = {}, 0
    for x in quiver.vertices:
        col0[x] = ncols
        ncols += N.dims[x] * M.dims[x]
    nrows = sum(N.dims[a.target] * M.dims[a.source] for a in quiver.arrows)
    rows = [[field.zero] * ncols for _ in range(nrows)]
    minus_one = field.neg(field.one)
    row0 = 0
    for a in quiver.arrows:
        eye_t = Matrix.identity(field, N.dims[a.target])
        eye_s = Matrix.identity(field, M.dims[a.source])
        kron_add(field, rows, row0, col0[a.target], field.one, eye_t, M.mats[a.name])
        kron_add(field, rows, row0, col0[a.source], minus_one, N.mats[a.name], eye_s)
        row0 += N.dims[a.target] * M.dims[a.source]
    return Matrix(field, rows, ncols)


def hom_basis(M: Representation, N: Representation):
    """Canonical basis of the space of morphisms M -> N."""
    if M.bq is not N.bq:
        raise QuiverError("hom of representations over different quivers")
    ker = kernel_basis(hom_system(M, N))
    return [VertexCochain.from_vector(M, N, v) for v in ker.vectors]


def hom_dim(M: Representation, N: Representation) -> int:
    return len(hom_basis(M, N))


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
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(tgt.dim)]
        mats[a.name] = Matrix(field, rows, len(cols))
    K = Representation(M.bq, field, dims, mats, check=False)
    incl = VertexCochain(K, M, {
        x: bases[x].matrix_of_columns() for x in M.bq.quiver.vertices
    })
    return K, incl
