"""Projective covers and second extension groups.

Second extensions are computed in two ways.  The reference model is
unconditional: first extensions of the minimal syzygy of N
(``syzygy``), the kernel of the projective cover, read by
``ext2_via_omega`` and by the syzygy-route Yoneda product
(``yoneda_left_omega``).  The small model lives on relation cochains --
one matrix per relation element -- and is a faithful quotient only over
acyclic quivers of global dimension at most two, so it is gated by
those checks.  ``Ext2Model`` is handed R and its rank by whoever
eliminated R, ``ext2_small_model`` or an ``ExtSpace1`` space, and builds
its coset reducer, the RREF basis of the relation coboundaries, on first
use.  The certificate
(``geometry.regularity_certificate``) and the pairing
(``geometry.psi_map``) read their Ext^2 from the small models of
``ExtSpace1`` spaces; the syzygy route stays the independent model.
Yoneda composition of cocycle representatives (``compose_cocycles``), a
corner of relations on a splice of three representations, its matrices
for a fixed cocycle, blocks of relation systems on that cocycle's splice
(``yoneda_matrices``), and the projectivity and global-dimension tests
all live here.

The indecomposable projective P(x) spans the normal paths out of x; it
is built, checked and memoised once per bound quiver, field and vertex
(``indecomposable_projective``).  One builder, ``_cover``, takes a set
of generators (coordinates of N) and returns the direct sum of one P(y)
per generator with its map onto N, evaluating each path on the
generator columns only.  ``syzygy`` hands it a transversal of the top
(``_top``), checks the cover once and reads the kernel with
``rep.kernel_representation``.  ``is_projective`` builds no cover: it
counts the P(y), one per top coordinate at y (Nakayama's lemma).

Each module's presentation is built once and read for every partner:
the top and the pair (Omega, inclusion) are memoised on the module
itself (``Representation._memo``), as P(x) is on the bound
quiver.  The cover's morphism check and the surjectivity count run on
that first build; a build that fails them is not stored.
``ext2_via_omega``, ``yoneda_left_omega``, ``is_projective``,
``gldim_le2_check`` and ``geometry.pd_le1`` all read the memo.  Nothing
per pair is memoised: the Hom and Ext^1 systems are built per call.
"""

from __future__ import annotations

from functools import cached_property

from .ext1 import (
    Ext1Class,
    ExtSpace1,
    _corner,
    _splice,
    ext1,
    relation_boundary_matrix,
)
from .linalg import (
    Matrix,
    SubspaceBasis,
    _forward_pivots,
    _product,
    column_space_basis,
    rank,
)
from .quiver import BoundQuiver, Path, QuiverError, is_acyclic
from .rep import (
    ArrowCochain,
    RelationCochain,
    Representation,
    VertexCochain,
    direct_sum,
    kernel_representation,
    simple,
    zero_rep,
)


class HypothesisError(RuntimeError):
    """A gated model was requested while its validity hypotheses fail."""


def ext2_via_omega(N: Representation, M: Representation) -> ExtSpace1:
    """Second extensions of N by M as first extensions of the minimal
    syzygy of N, the kernel of the projective cover (``syzygy``).

    Two syzygies of N differ by projective summands (Schanuel's lemma),
    on which Ext^1 vanishes, so any syzygy gives the same dimension; the
    returned space lives on the minimal one, built and checked on the
    first call for N and memoised on N, while the Ext^1 space of the pair
    is built anew on every call.
    """
    return ext1(syzygy(N)[0], M)


# -- the small model on relation cochains ------------------------------


class Ext2Model:
    """Relation cochains modulo relation coboundaries for a pair (N, M).

    The relation coboundaries are the column space of the relation
    boundary matrix R, which the caller gates, builds and eliminates, so
    dim = (relation-cochain dimension) - rank R.  Their RREF basis
    ``bprime``, built from R on first use, is the coset reducer.
    """

    def __init__(self, N: Representation, M: Representation, boundary: Matrix,
                 rank_r: int):
        self.source, self.target, self.field = N, M, N.field
        self.ambient_dim = RelationCochain.space_dim(N, M)
        self._boundary = boundary
        self.dim = self.ambient_dim - rank_r

    @cached_property
    def bprime(self) -> SubspaceBasis:
        return column_space_basis(self._boundary)

    def class_of(self, rc: RelationCochain) -> "Ext2Class":
        return Ext2Class(self, tuple(self.bprime.reduce(rc.to_vector())))


class Ext2Class:
    """A second-extension class as canonically reduced relation coordinates."""

    def __init__(self, model: Ext2Model, coords: tuple):
        self.model = model
        self.coords = coords

    @property
    def is_zero(self) -> bool:
        return all(self.model.field.is_zero(c) for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, Ext2Class) and self.model is other.model \
            and self.coords == other.coords


def ext2_small_model(N: Representation, M: Representation) -> Ext2Model:
    """The gated small model; raises when its hypotheses fail."""
    _check_hypotheses(N)
    boundary = relation_boundary_matrix(N, M)
    return Ext2Model(N, M, boundary, rank(boundary))


def _check_hypotheses(N: Representation):
    """The gate: raise ``HypothesisError`` unless the model is faithful."""
    problems = []
    if not is_acyclic(N.bq):
        problems.append("the quiver has an oriented cycle")
    if not gldim_le2_check(N.bq, N.field):
        problems.append("global dimension exceeds two")
    if problems:
        raise HypothesisError("hypotheses not satisfied: " + "; ".join(problems))


# -- Yoneda composition of cocycles -------------------------------------


def compose_cocycles(Zp: ArrowCochain, Zpp: ArrowCochain) -> RelationCochain:
    """Yoneda composition on cocycle representatives.

    Zp runs V -> U and Zpp runs W -> V.  On the splice [[U, Zp, 0], [0,
    V, Zpp], [0, 0, W]] the only way from the W block to the U block
    passes Zpp, then Zp, so the (U, W) block of each relation element is
    a relation cochain W -> U whose class in the small model is the
    product of the two extension classes.
    """
    V, U = Zp.source, Zp.target
    W = Zpp.source
    if Zpp.target != V:
        raise QuiverError("composition needs matching middle representations")
    E = _splice([U, V, W], [Zp, Zpp])
    return RelationCochain(W, U, {rel.name: _corner(E.eval_relation(rel), U, W, rel)
                                  for rel in W.bq.relations})


def _window(kind, source: Representation, target: Representation, rows, cols) -> list:
    """The coordinates of ``kind``'s layout on (source, target) at the
    entries (i, j) with i in rows[y] and j in cols[x] of each slot
    (key, x, y), slot by slot, each block row-major."""
    start, _ = kind.offsets(source, target)
    return [start[key] + i * source.dims[x] + j for key, x, y in kind.slots(source.bq)
            for i in rows[y] for j in cols[x]]


def _block(m: Matrix, rows: list, cols: list) -> Matrix:
    return Matrix._adopt(m.field, [[m.rows[r][c] for c in cols] for r in rows], len(cols))


def yoneda_matrices(xi: ArrowCochain):
    """Matrices of Yoneda composition with a fixed cocycle xi: V -> U.

    Returns (left, right): left is the matrix of Z |-> compose_cocycles(Z,
    xi) on arrow cochains U -> U, right that of Z |-> compose_cocycles(xi,
    Z) on arrow cochains V -> V.  Rows follow ``RelationCochain.offsets(V,
    U)``, columns ``ArrowCochain.offsets`` of (U, U) and of (V, V).  On
    the splice E = [[U, xi], [0, V]], [Z, 0]: E -> U carries Z o xi in its
    V columns, so left is the block of ``relation_boundary_matrix(E, U)``
    at the V columns of each relation block and the U columns of each
    arrow block; [0; Z]: V -> E carries xi o Z in its U rows, so right is
    that of ``relation_boundary_matrix(V, E)`` at the U rows of each
    relation block and the V rows of each arrow block.
    """
    V, U = xi.source, xi.target
    E = _splice([U, V], [xi])
    vertices = V.bq.quiver.vertices
    u_in_e = {x: range(U.dims[x]) for x in vertices}
    v_in_e = {x: range(U.dims[x], E.dims[x]) for x in vertices}
    all_v = {x: range(V.dims[x]) for x in vertices}
    left = _block(relation_boundary_matrix(E, U), _window(RelationCochain, E, U, u_in_e, v_in_e),
                  _window(ArrowCochain, E, U, u_in_e, u_in_e))
    right = _block(relation_boundary_matrix(V, E), _window(RelationCochain, V, E, u_in_e, all_v),
                   _window(ArrowCochain, V, E, v_in_e, all_v))
    return left, right


def yoneda_left_omega(Z: ArrowCochain, cls: Ext1Class) -> Ext1Class:
    """Yoneda composition landing in the unconditional syzygy model.

    Z runs U -> M, cls extends V by U.  The cover P -> V of ``syzygy(V)``
    lifts into the middle term of the class: the label (y, j, sigma) of
    P goes to sigma applied to e_j on the splice of the class
    representative, its U part (``z_path``) plus its image in V.  On the
    syzygy Omega the V part vanishes, so the lift restricts to a
    morphism h: Omega -> U, and the image cochain Z_a h at each arrow a
    is the product; its class lies in ``ext1(Omega, M)``.  The cover's
    labels follow ``_top(V)``, and both it and Omega are read from V's
    memo, so neither is rebuilt for a second class on V.  No
    global-dimension hypothesis enters, so this is the independent
    oracle for the small-model product of ``compose_cocycles``.
    """
    U = Z.source
    if cls.space.target != U:
        raise QuiverError("class target does not match the fixed cocycle")
    V, M = cls.space.source, Z.target
    omega, incl = syzygy(V)
    E = _splice([U, V], [cls.representative()])
    ab, top = V.bq.algebra_basis(V.field), _top(V)
    vertices = V.bq.quiver.vertices
    h = {}
    for x in vertices:  # the U block of the lift, in the labels' order
        cols = []
        for y in vertices:
            along = [_corner(E.eval_path(sigma), U, V, sigma)
                     for sigma in ab.basis.get((x, y), ())]
            cols += [z.col(j) for j in top[y] for z in along]
        h[x] = Matrix.from_columns(V.field, U.dims[x], cols) @ incl.mats[x]
    image = ArrowCochain(omega, M, {a.name: Z.mats[a.name] @ h[a.source]
                                    for a in V.bq.quiver.arrows})
    return ext1(omega, M).class_of(image)


# -- projectivity and global dimension ----------------------------------


def indecomposable_projective(bq: BoundQuiver, field, x) -> Representation:
    """The indecomposable projective P(x) of the path algebra mod relations.

    P(x) has at z one coordinate per normal path x -> z, shortest first,
    and its arrow a sends the path sigma to the normal form of a*sigma.
    It is built, checked to satisfy the relations, and memoised on the
    bound quiver once per field and vertex.
    """
    cache = bq._memo
    key = ("projective", field.name, x)
    if key not in cache:
        ab = bq.algebra_basis(field)
        quiver = bq.quiver
        dims = {z: ab.dim(z, x) for z in quiver.vertices}
        mats = {}
        for a in quiver.arrows:
            index = {tau.arrows: i for i, tau in enumerate(ab.basis.get((a.target, x), ()))}
            cols = []
            for sigma in ab.basis.get((a.source, x), ()):
                col = [field.zero] * dims[a.target]
                for c, tau in ab.reduce_path(Path(x, a.target, (a.name,) + sigma.arrows)):
                    col[index[tau.arrows]] = c
                cols.append(col)
            mats[a.name] = Matrix.from_columns(field, dims[a.target], cols)
        cache[key] = Representation(bq, field, dims, mats, check=True)
    return cache[key]


def _cover(M: Representation, gens: dict):
    """The projective on a set of generators of M, and its map to M.

    gens[y] lists coordinates j of M_y.  Returns (P, cover): P is the
    direct sum of one ``indecomposable_projective`` P(y) per generator
    (y, j), vertices in quiver order and each gens[y] in its order, so
    the labels of P at z run (y, j, sigma) over the normal paths
    sigma: y -> z; cover: P -> M sends the label to M_sigma e_j.  Paths
    are evaluated on the generator columns only: the trivial path gives
    the e_j themselves, and a path a*tau is M_a applied to the value of
    tau, computed once per call.  The cover is not checked here: its
    caller, ``syzygy``, checks it once.
    """
    bq, field = M.bq, M.field
    quiver = bq.quiver
    ab = bq.algebra_basis(field)
    zero, one = field.zero, field.one
    summands = []
    cover_rows = {z: [[] for _ in range(M.dims[z])] for z in quiver.vertices}
    for y in quiver.vertices:
        cols = gens[y]
        if not cols:
            continue
        summands.extend([indecomposable_projective(bq, field, y)] * len(cols))
        # rows of M_sigma restricted to the columns e_j, by arrow word
        # (arrows[0] acts last)
        images = {(): [[one if r == j else zero for j in cols]
                       for r in range(M.dims[y])]}

        def image(arrows):
            out = images.get(arrows)
            if out is None:
                out = images[arrows] = _product(
                    field, M.mats[arrows[0]].rows, image(arrows[1:]), len(cols))
            return out

        for z in quiver.vertices:
            evals = [image(sigma.arrows) for sigma in ab.basis.get((z, y), ())]
            if evals:
                for r, row in enumerate(cover_rows[z]):
                    at_r = [e[r] for e in evals]
                    row.extend([e[k] for k in range(len(cols)) for e in at_r])
    P = direct_sum(*summands) if summands else zero_rep(bq, field)
    return P, VertexCochain(P, M, {z: Matrix._adopt(field, rows, P.dims[z])
                                   for z, rows in cover_rows.items()})


def _top(M: Representation) -> dict:
    """A transversal of the top of M: the generators at each vertex.

    The columns of the arrows into x span the radical of M at x, so the
    coordinates off their pivots span a complement of it.  Built once and
    memoised on M (``M._memo["top"]``); callers do not change it.
    """
    memo = M._memo
    if "top" not in memo:
        field, quiver = M.field, M.bq.quiver
        top = {}
        for x in quiver.vertices:
            columns = [list(c) for a in quiver.arrows if a.target == x
                       for c in zip(*M.mats[a.name].rows)]
            leads = set(_forward_pivots(field, columns))
            top[x] = [i for i in range(M.dims[x]) if i not in leads]
        memo["top"] = top
    return memo["top"]


def syzygy(M: Representation):
    """Kernel of the minimal projective cover, with its inclusion.

    The cover is ``_cover`` on ``_top(M)``, checked to be a morphism.
    Both come from ``kernel_representation`` of the cover, which is
    checked to be onto at every vertex by dim P_z - dim Omega_z =
    d_z(M), which reads the kernel's elimination.  The pair is built and
    checked on the first call and memoised on M
    (``M._memo["syzygy"]``), so every later call, for any
    partner, returns the same objects; a failed check stores nothing and
    raises again on the next call.
    """
    memo = M._memo
    if "syzygy" not in memo:
        P, cover = _cover(M, _top(M))
        if not cover.is_morphism():
            raise QuiverError("projective cover construction failed to be a morphism")
        omega, incl = kernel_representation(cover)
        if any(P.dims[z] - omega.dims[z] != M.dims[z] for z in M.bq.quiver.vertices):
            raise QuiverError("projective cover failed to be surjective")
        memo["syzygy"] = omega, incl
    return memo["syzygy"]


def is_projective(M: Representation) -> bool:
    """Whether M is isomorphic to the projective built on its own top.

    The top generates M (Nakayama's lemma), so the cover by one P(y) per
    top coordinate at y is onto, and invertible exactly when those P(y)
    add up to M's dimension vector.  That count builds no cover, so,
    unlike ``syzygy``, it does not check that M satisfies the relations;
    it reads the top memoised on M.
    """
    bq, field, vertices = M.bq, M.field, M.bq.quiver.vertices
    top = _top(M)
    dims = [(len(top[y]), indecomposable_projective(bq, field, y).dims)
            for y in vertices if top[y]]
    return all(sum(n * p[z] for n, p in dims) == M.dims[z] for z in vertices)


def gldim_le2_check(bq: BoundQuiver, field) -> bool:
    """Whether every simple has projective second syzygy."""
    cache, key = bq._memo, ("gldim", field.name)
    if key in cache:
        return cache[key]
    verdict = True
    for x in bq.quiver.vertices:
        first = syzygy(simple(bq, field, x))[0]
        second = syzygy(first)[0]
        if not is_projective(second):
            verdict = False
            break
    cache[key] = verdict
    return verdict
