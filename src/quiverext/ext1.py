"""First extension groups as cocycles modulo coboundaries.

For representations V (the quotient side) and U (the sub side), an arrow
cochain assigns to each arrow a matrix V_source -> U_target.  Extending
a cochain Z to paths by the product rule

    Z(a1...an) = sum_i  U(a1..a_{i-1}) Z(a_i) V(a_{i+1}..a_n)

and to relation elements linearly, the cocycles are the cochains killing
every relation element, the coboundaries are the cochains of the form
U_a h_src - h_tgt V_a for a vertex cochain h, and the quotient is the
space of extension classes of V by U.  Each cocycle Z has an explicit
middle term: the block upper-triangular representation [[U, Z], [0, V]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    Matrix,
    QuotientSpace,
    SubspaceBasis,
    _product,
    coordinates_in_basis,
    kernel_basis,
    kron_add,
    rank,
    row_space_basis,
)
from .quiver import Path, QuiverError, RelationElement
from .rep import (
    ArrowCochain,
    RelationCochain,
    Representation,
    VertexCochain,
    hom_system,
)


def z_path(Z: ArrowCochain, path: Path) -> Matrix:
    """Product-rule extension of an arrow cochain to a path.

    The term at the first (last) arrow of the path has an empty head
    (tail); that identity factor is skipped, not multiplied.
    """
    V, U = Z.source, Z.target
    if path.length == 0:
        return Matrix.zeros(V.field, U.dims[path.source], V.dims[path.source])
    arrows = path.arrows
    last = len(arrows) - 1
    quiver = V.bq.quiver
    total = None
    for i, name in enumerate(arrows):
        term = Z.mats[name]
        if i:
            term = U.eval_arrow_word(arrows[:i], quiver.arrow_map[name].target) @ term
        if i < last:
            term = term @ V.eval_arrow_word(arrows[i + 1:], path.source)
        total = term if total is None else total + term
    return total


def z_rho(Z: ArrowCochain, rel: RelationElement) -> Matrix:
    """Linear extension of the product rule to a relation element."""
    V, U = Z.source, Z.target
    field = V.field
    out = Matrix.zeros(field, U.dims[rel.target], V.dims[rel.source])
    for coeff, p in rel.terms:
        out = out + z_path(Z, p).scale(field.of_fraction(coeff))
    return out


def is_cocycle(Z: ArrowCochain) -> bool:
    return all(z_rho(Z, rel).is_zero() for rel in Z.source.bq.relations)


def relation_boundary_matrix(V: Representation, U: Representation) -> Matrix:
    """Matrix of the map sending an arrow cochain to its relation values.

    Columns follow ``ArrowCochain.offsets(V, U)`` and rows
    ``RelationCochain.offsets(V, U)``.  By the product rule, the term
    c*path of a relation sends Z_a, at each position of a in the path, to
    c * H Z_a T, where H is U of the arrows after that position and T
    is V of the arrows before it; each such term is one Kronecker block,
    written straight into the rows by ``kron_add``.  An empty H or T is
    an identity and is passed as its size, so it is no matrix and adds
    one entry per row.
    """
    field = V.field
    quiver = V.bq.quiver
    col0, ncols = ArrowCochain.offsets(V, U)
    row0, nrows = RelationCochain.offsets(V, U)
    rows = [[field.zero] * ncols for _ in range(nrows)]
    for rel in V.bq.relations:
        for coeff, path in rel.terms:
            c = field.of_fraction(coeff)
            arrows = path.arrows
            last = len(arrows) - 1
            for i, name in enumerate(arrows):
                target = quiver.arrow_map[name].target
                head = U.eval_arrow_word(arrows[:i], target) if i else U.dims[target]
                tail = (V.eval_arrow_word(arrows[i + 1:], path.source) if i < last
                        else V.dims[path.source])
                kron_add(field, rows, row0[rel.name], col0[name], c, head, tail)
    return Matrix._adopt(field, rows, ncols)


def z_space(V: Representation, U: Representation) -> SubspaceBasis:
    """Basis of the cocycle space: cochains killing every relation element."""
    return kernel_basis(relation_boundary_matrix(V, U))


def z_dim(V: Representation, U: Representation) -> int:
    """dim Z(V, U), the nullity of the relation system, with no basis built."""
    system = relation_boundary_matrix(V, U)
    return system.ncols - rank(system)


def coboundary(h: VertexCochain) -> ArrowCochain:
    """The cochain a |-> U_a h_src - h_tgt V_a attached to a vertex cochain."""
    V, U = h.source, h.target
    mats = {}
    for a in V.bq.quiver.arrows:
        mats[a.name] = U.mats[a.name] @ h.mats[a.source] - h.mats[a.target] @ V.mats[a.name]
    return ArrowCochain(V, U, mats)


def b_space(V: Representation, U: Representation) -> SubspaceBasis:
    """Basis of the coboundary space inside the arrow-cochain coordinates.

    The coboundary U_a h_src - h_tgt V_a is minus the intertwining defect
    f_tgt V_a - U_a f_src of ``hom_system(V, U)``, so the columns of that
    matrix span the coboundaries, and its transpose is reduced as it is.
    """
    return row_space_basis(hom_system(V, U).transpose())


def b_dim(V: Representation, U: Representation) -> int:
    """dim B(V, U), the rank of ``hom_system(V, U)``, with no basis built."""
    return rank(hom_system(V, U))


@dataclass
class Ext1Class:
    """An extension class held as a canonical coordinate vector."""

    space: "ExtSpace1"
    coords: tuple

    @property
    def is_zero(self) -> bool:
        return all(self.space.field.is_zero(c) for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, Ext1Class) and self.space is other.space \
            and self.coords == other.coords

    def representative(self) -> ArrowCochain:
        vec = self.space.z.combine(self.coords)
        return ArrowCochain.from_vector(self.space.source, self.space.target, vec)


class ExtSpace1:
    """Cocycles, coboundaries, and their quotient for a pair (V, U).

    Z, B and the check that B lies in Z are built at once.  Once that
    check passes, the coordinates of B's basis in Z are independent, so
    dim Ext^1 = dim Z - dim B with no further elimination; the quotient
    (the coset reducer on Z-coordinates) is built on first use.
    """

    def __init__(self, V: Representation, U: Representation):
        self.source = V
        self.target = U
        self.field = V.field
        self.z = z_space(V, U)
        self.b = b_space(V, U)
        # coordinates read at Z's lead columns, checked by one recombination
        coords = [[bvec[j] for j in self.z.leads] for bvec in self.b.vectors]
        if _product(self.field, coords, self.z.vectors, self.z.ambient_dim) != self.b.vectors:
            raise QuiverError("coboundary outside the cocycle space")
        self._b_coords = coords
        self.dim = self.z.dim - self.b.dim

    @cached_property
    def quotient(self) -> QuotientSpace:
        return QuotientSpace(self.field, self.z.dim,
                             SubspaceBasis(self.field, self.z.dim, self._b_coords))

    def class_of(self, Z: ArrowCochain) -> Ext1Class:
        vec = Z.to_vector()
        coords = coordinates_in_basis(self.z, vec)
        if coords is None:
            raise QuiverError("cochain is not a cocycle for this pair")
        return Ext1Class(self, tuple(self.quotient.reduce(coords)))

    def zero_class(self) -> Ext1Class:
        return Ext1Class(self, tuple([self.field.zero] * self.z.dim))

    def basis_cocycles(self):
        return [ArrowCochain.from_vector(self.source, self.target, v)
                for v in self.z.vectors]


def ext1(V: Representation, U: Representation) -> ExtSpace1:
    return ExtSpace1(V, U)


def is_split(Z: ArrowCochain) -> bool:
    """True when the cocycle is a coboundary (its extension splits)."""
    V, U = Z.source, Z.target
    if not is_cocycle(Z):
        raise QuiverError("is_split expects a cocycle")
    b = b_space(V, U)
    quot = QuotientSpace(V.field, ArrowCochain.space_dim(V, U), b)
    return quot.contains(Z.to_vector())


def middle_term(Z: ArrowCochain):
    """The extension realized by a cocycle, with its canonical maps.

    Returns (W, incl, proj): W places U in the upper blocks and V in the
    lower, each arrow acting by [[U_a, Z_a], [0, V_a]]; incl embeds U,
    proj maps onto V, and incl -> W -> proj is exact.  Every row of
    these matrices is written once, with no zero or identity block; Z
    is checked to be a cocycle and W to satisfy the relations.
    """
    V, U = Z.source, Z.target
    if not is_cocycle(Z):
        raise QuiverError("middle_term expects a cocycle (a relation check failed)")
    field = V.field
    zero, one = field.zero, field.one
    bq = V.bq
    dims = {x: U.dims[x] + V.dims[x] for x in bq.quiver.vertices}
    mats = {}
    for a in bq.quiver.arrows:
        pad = [zero] * U.dims[a.source]
        rows = [ur + zr for ur, zr in zip(U.mats[a.name].rows, Z.mats[a.name].rows)]
        rows += [pad + vr for vr in V.mats[a.name].rows]
        mats[a.name] = Matrix._adopt(field, rows, dims[a.source])
    W = Representation(bq, field, dims, mats, check=True)
    incl, proj = {}, {}
    for x in bq.quiver.vertices:
        du, dv = U.dims[x], V.dims[x]
        incl[x] = Matrix._adopt(
            field, [[one if j == i else zero for j in range(du)] for i in range(du)]
            + [[zero] * du for _ in range(dv)], du)
        proj[x] = Matrix._adopt(
            field, [[zero] * du + [one if j == i else zero for j in range(dv)]
                    for i in range(dv)], du + dv)
    return W, VertexCochain(U, W, incl), VertexCochain(W, V, proj)


def pushout_class(h: VertexCochain, Z: ArrowCochain,
                  target_space: ExtSpace1 | None = None) -> Ext1Class:
    """Image of [Z] under a morphism h: U -> M on the sub side.

    The image class is represented by the cochain a |-> h_tgt Z_a.
    """
    V, U = Z.source, Z.target
    if h.source != U:
        raise QuiverError("pushout: morphism must start at the cocycle's target")
    if not h.is_morphism():
        raise QuiverError("pushout expects a morphism")
    M = h.target
    mats = {a.name: h.mats[a.target] @ Z.mats[a.name] for a in V.bq.quiver.arrows}
    pushed = ArrowCochain(V, M, mats)
    space = target_space or ext1(V, M)
    return space.class_of(pushed)


def pullback_class(Z: ArrowCochain, h: VertexCochain,
                   target_space: ExtSpace1 | None = None) -> Ext1Class:
    """Image of [Z] under a morphism h: M -> V on the quotient side.

    The image class is represented by the cochain a |-> Z_a h_src.
    """
    V, U = Z.source, Z.target
    if h.target != V:
        raise QuiverError("pullback: morphism must land in the cocycle's source")
    if not h.is_morphism():
        raise QuiverError("pullback expects a morphism")
    M = h.source
    mats = {a.name: Z.mats[a.name] @ h.mats[a.source] for a in V.bq.quiver.arrows}
    pulled = ArrowCochain(M, U, mats)
    space = target_space or ext1(M, U)
    return space.class_of(pulled)
