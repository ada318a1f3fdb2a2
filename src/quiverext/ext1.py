"""First extension groups as cocycles modulo coboundaries.

For representations V (the quotient side) and U (the sub side), an arrow
cochain assigns to each arrow a matrix V_source -> U_target.  Extending
a cochain Z to paths by the product rule

    Z(a1...an) = sum_i  U(a1..a_{i-1}) Z(a_i) V(a_{i+1}..a_n)

and to relation elements linearly, the cocycles are the cochains killing
every relation element, the coboundaries are the cochains of the form
U_a h_src - h_tgt V_a for a vertex cochain h, and the quotient is the
space of extension classes of V by U.  Each cocycle Z has an explicit
middle term: the block upper-triangular representation [[U, Z], [0, V]],
its splice.  The product rule has two routes: ``relation_boundary_matrix``
builds it from Kronecker blocks, and every other sum reads a block of
paths evaluated on a splice (``_splice``): Z(p) is the (U, V) block of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .linalg import (
    Matrix,
    SubspaceBasis,
    _kernel_of_rref,
    _product,
    _rref,
    column_space_basis,
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


def _splice(reps, cochains, check: bool = False) -> Representation:
    """The block upper-triangular representation of a chain of cochains.

    reps sit on the diagonal, top first, and cochains[i]: reps[i+1] ->
    reps[i] just right of reps[i]; each arrow row is written once, and the
    relations are checked only when ``check`` is set.  The block from
    reps[j] to reps[i] of a path on the splice sums every way of passing
    cochains[i], ..., cochains[j-1] along it: the product rule, with no
    index ranges of its own.
    """
    bq, field = reps[0].bq, reps[0].field
    zero = field.zero
    dims = {x: sum([R.dims[x] for R in reps]) for x in bq.quiver.vertices}
    mats = {}
    for a in bq.quiver.arrows:
        rows, pad, width = [], [], dims[a.source]
        for R, C, after in zip(reps, cochains, reps[1:]):
            tail = [zero] * (width - len(pad) - R.dims[a.source] - after.dims[a.source])
            rows += [[*pad, *r, *z, *tail]
                     for r, z in zip(R.mats[a.name].rows, C.mats[a.name].rows)]
            pad = pad + [zero] * R.dims[a.source]
        rows += [[*pad, *r] for r in reps[-1].mats[a.name].rows]
        mats[a.name] = Matrix._adopt(field, rows, width)
    return Representation(bq, field, dims, mats, check=check)


def _corner(value: Matrix, top: Representation, bottom: Representation, elem) -> Matrix:
    """The block from bottom to top of the value of a path or relation
    element elem on a splice whose first and last representations they are."""
    ncols = bottom.dims[elem.source]
    return Matrix._adopt(value.field, [row[value.ncols - ncols:]
                                       for row in value.rows[:top.dims[elem.target]]], ncols)


def z_path(Z: ArrowCochain, path: Path) -> Matrix:
    """Product-rule extension of an arrow cochain to a path: the (U, V)
    block of the path on the splice [[U, Z], [0, V]]."""
    return _corner(_splice([Z.target, Z.source], [Z]).eval_path(path), Z.target, Z.source, path)


def z_rho(Z: ArrowCochain, rel: RelationElement) -> Matrix:
    """Linear extension of the product rule to a relation element: the
    (U, V) block of the relation on the splice [[U, Z], [0, V]]."""
    return _corner(_splice([Z.target, Z.source], [Z]).eval_relation(rel), Z.target, Z.source, rel)


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


def b_space(V: Representation, U: Representation) -> SubspaceBasis:
    """Basis of the coboundary space inside the arrow-cochain coordinates.

    The coboundary U_a h_src - h_tgt V_a is minus the intertwining defect
    f_tgt V_a - U_a f_src of ``hom_system(V, U)``, so the columns of that
    matrix span the coboundaries, and its transpose is reduced as it is.
    """
    return row_space_basis(hom_system(V, U).transpose())


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

    Construction builds the pair's two systems once each, R =
    ``relation_boundary_matrix(V, U)`` and H = ``hom_system(V, U)``, and
    eliminates R once.  Its kernel is Z, and its echelon rows E, which
    span the row space of R, check that B lies in Z: the columns of H
    span the coboundaries, so E H = 0 says exactly that every coboundary
    lies in ker R = Z.  The check is exact and runs on every
    construction.  Once it passes, dim Ext^1 = dim Z - rank H, read from
    ``rank`` (or from ``b`` when built).  The bases ``z``, ``b`` (the
    RREF of H^T) and ``homs`` (the kernel of H), the RREF basis of B in
    Z-coordinates (``_b_in_z``, the coset reducer of ``class_of``) and
    the small Ext^2 model on R and its pivot count are built on first
    use.
    """

    def __init__(self, V: Representation, U: Representation):
        self.source = V
        self.target = U
        self.field = field = V.field
        self._boundary = relation_boundary_matrix(V, U)
        self._rows, self._pivots = _rref(field, self._boundary.rows)
        self._hom = hom_system(V, U)
        if any(map(any, _product(field, self._rows, self._hom.rows, self._hom.ncols))):
            raise QuiverError("coboundary outside the cocycle space")

    @cached_property
    def z(self) -> SubspaceBasis:
        return _kernel_of_rref(self.field, self._boundary.ncols, self._rows, self._pivots)

    @cached_property
    def b(self) -> SubspaceBasis:
        return column_space_basis(self._hom)

    @cached_property
    def homs(self) -> list:
        """The canonical basis of Hom(V, U), as ``hom_basis`` builds it."""
        return [VertexCochain.from_vector(self.source, self.target, v)
                for v in kernel_basis(self._hom).vectors]

    @cached_property
    def dim(self) -> int:
        b_dim = self.b.dim if "b" in vars(self) else rank(self._hom)
        return self._boundary.ncols - len(self._pivots) - b_dim

    @cached_property
    def small_model(self):
        """``ext2_small_model(V, U)``, gated as it is, on R."""
        from .ext2 import Ext2Model, _check_hypotheses  # local import to avoid a cycle

        _check_hypotheses(self.source)
        return Ext2Model(self.source, self.target, self._boundary, len(self._pivots))

    @cached_property
    def _b_in_z(self) -> SubspaceBasis:
        # B lies in Z, so its coordinates are its entries at Z's lead columns
        coords = [[bvec[j] for j in self.z.leads] for bvec in self.b.vectors]
        return row_space_basis(Matrix._adopt(self.field, coords, self.z.dim))

    def class_of(self, Z: ArrowCochain) -> Ext1Class:
        vec = Z.to_vector()
        coords = coordinates_in_basis(self.z, vec)
        if coords is None:
            raise QuiverError("cochain is not a cocycle for this pair")
        return Ext1Class(self, tuple(self._b_in_z.reduce(coords)))

    def basis_cocycles(self):
        return [ArrowCochain.from_vector(self.source, self.target, v)
                for v in self.z.vectors]


def ext1(V: Representation, U: Representation) -> ExtSpace1:
    return ExtSpace1(V, U)


def middle_term(Z: ArrowCochain):
    """The extension realized by a cocycle, with its canonical maps.

    Returns (W, incl, proj): W is the splice [[U, Z], [0, V]], each arrow
    acting by [[U_a, Z_a], [0, V_a]]; incl embeds U, proj maps onto V,
    and incl -> W -> proj is exact.  Every row of these matrices is
    written once, with no zero or identity block.  W's relation check is
    the cocycle check: its (U, V) blocks are ``z_rho``.
    """
    V, U = Z.source, Z.target
    field = V.field
    zero, one = field.zero, field.one
    W = _splice([U, V], [Z], check=True)
    incl, proj = {}, {}
    for x in V.bq.quiver.vertices:
        du, dw = U.dims[x], W.dims[x]
        incl[x] = Matrix._adopt(
            field, [[one if j == i else zero for j in range(du)] for i in range(dw)], du)
        proj[x] = Matrix._adopt(
            field, [[one if j == i else zero for j in range(dw)] for i in range(du, dw)], dw)
    return W, VertexCochain(U, W, incl), VertexCochain(W, V, proj)


def pushout_class(h: VertexCochain, Z: ArrowCochain) -> Ext1Class:
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
    return ext1(V, M).class_of(ArrowCochain(V, M, mats))


def pullback_class(Z: ArrowCochain, h: VertexCochain) -> Ext1Class:
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
    return ext1(M, U).class_of(ArrowCochain(M, U, mats))
