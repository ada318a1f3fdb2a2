"""Orbits, tangent spaces, and degeneration certificates on module varieties.

The points of the module variety for a fixed dimension vector are the
representations themselves; the base-change group acts by conjugating
arrow matrices.  Everything here is k-point linear algebra: orbit
dimensions from endomorphism counts, tangent spaces as cocycle spaces,
the two tangent-pair criteria (through morphisms and through second
extensions), the pairing into second extensions along a fixed sequence,
scaling degenerations of middle terms, witness searches, and the final
accounting report that compares the tangent dimension with the expected
component dimension.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from .ext1 import (
    ExtSpace1,
    ext1,
    middle_term,
    z_dim,
    z_rho,
    z_space,
)
from .ext2 import (
    Ext2Model,
    is_projective,
    syzygy,
    yoneda_matrices,
)
from .iso import IsoCertificate, _vertexwise_invertible, iso_test
from .linalg import (
    Matrix,
    SubspaceBasis,
    _product,
    block_diag,
    coordinates_in_basis,
    hstack,
    kernel_basis,
    linear_map_matrix,
    row_space_basis,
    vstack,
)
from .quiver import QuiverError, a_of_d, gl_dim
from .rep import (
    ArrowCochain,
    RelationCochain,
    Representation,
    VertexCochain,
    direct_sum,
    hom_dim,
)


# -- the base-change action and orbits ---------------------------------


def gl_action(g: dict, M: Representation) -> Representation:
    """Conjugate the arrow matrices by an invertible vertex family."""
    field = M.field
    blocks, inverses = {}, {}
    for x in M.bq.quiver.vertices:
        mat = g.get(x)
        if mat is None:
            mat = Matrix.identity(field, M.dims[x])
        if mat.shape() != (M.dims[x], M.dims[x]):
            raise QuiverError(f"vertex {x}: group element has shape {mat.shape()}")
        inv = mat.inverse()
        if inv is None:
            raise QuiverError(f"vertex {x}: group element is not invertible")
        blocks[x] = mat
        inverses[x] = inv
    mats = {}
    for a in M.bq.quiver.arrows:
        mats[a.name] = blocks[a.target] @ M.mats[a.name] @ inverses[a.source]
    return Representation(M.bq, field, dict(M.dims), mats, check=True)


@dataclass
class OrbitInfo:
    module: Representation
    group_dim: int
    end_dim: int
    orbit_dim: int


def orbit_dim(M: Representation) -> OrbitInfo:
    """Orbit dimension = dim of the base-change group minus endomorphisms."""
    group = gl_dim(M.bq, M.dim_vector())
    end = hom_dim(M, M)
    dim = group - end
    if dim < 0:
        raise QuiverError("endomorphism count exceeds the group dimension")
    return OrbitInfo(M, group, end, dim)


@dataclass
class TangentSpace:
    """The tangent space at a point N: its self-cocycles Z(N, N).

    The dimension is a nullity read from a rank (``z_dim``); the cocycle
    basis is built on first read.
    """

    base: Representation

    @cached_property
    def dim(self) -> int:
        return z_dim(self.base, self.base)

    @cached_property
    def basis(self) -> SubspaceBasis:
        return z_space(self.base, self.base)


def tangent_module_variety(N: Representation) -> TangentSpace:
    """Tangent vectors at a point are the self-cocycles of the point."""
    return TangentSpace(N)


def tangent_block_decomposition(U: Representation, V: Representation):
    """Dims of the four cocycle blocks at the split point U + V.

    Returns (dim Z(U,U), dim Z(V,V), dim Z(U,V), dim Z(V,U)); their sum
    is checked against the tangent dimension at the direct sum.  Each is
    a nullity (``z_dim``); no cocycle basis is built.
    """
    duu = z_dim(U, U)
    dvv = z_dim(V, V)
    duv = z_dim(U, V)
    dvu = z_dim(V, U)
    total = z_dim(direct_sum(U, V), direct_sum(U, V))
    if duu + dvv + duv + dvu != total:
        raise QuiverError("tangent block dimensions fail to add up")
    return duu, dvv, duv, dvu


# -- tangent pairs ------------------------------------------------------


@dataclass
class TangentPairs:
    """A subspace of pairs (Z', Z'') of self-cocycles of U and of V.

    Vectors are coordinates in the concatenated cocycle bases: the
    first block are coefficients against the basis of Z(U,U), the
    second against the basis of Z(V,V).  ``space`` is the Ext^1(V, U)
    the pairs were built on, handed on with them for its counts.
    """

    U: Representation
    V: Representation
    zu: SubspaceBasis
    zv: SubspaceBasis
    basis: SubspaceBasis
    space: ExtSpace1 = dataclass_field(compare=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def pair_from_coords(self, vec):
        du = self.zu.dim
        zp_vec = self.zu.combine(vec[:du])
        zpp_vec = self.zv.combine(vec[du:])
        return (ArrowCochain.from_vector(self.U, self.U, zp_vec),
                ArrowCochain.from_vector(self.V, self.V, zpp_vec))

    def contains_pair(self, Zp: ArrowCochain, Zpp: ArrowCochain) -> bool:
        cu = coordinates_in_basis(self.zu, Zp.to_vector())
        cv = coordinates_in_basis(self.zv, Zpp.to_vector())
        if cu is None or cv is None:
            return False
        return self.basis.contains(list(cu) + list(cv))


def hom_tangent_pairs(space: ExtSpace1) -> TangentPairs:
    """Pairs whose two sides agree on every morphism V -> U up to boundaries.

    Column j of the system is the image of the j-th basis cocycle: a
    cocycle Z' of U sends a morphism f to Z'_a f_src, a cocycle Z'' of V
    to -f_tgt Z''_a, each reduced modulo the coboundaries B(V, U); the
    morphisms and B are read from ``space``, which is Ext^1(V, U).
    """
    V, U = space.source, space.target
    field = U.field
    arrows = U.bq.quiver.arrows
    zu = z_space(U, U)
    zv = z_space(V, V)
    homs = space.homs
    ambient = ArrowCochain.space_dim(V, U)

    images = []  # per basis cocycle: its arrow blocks V -> U, one set per morphism
    for vec in zu.vectors:
        Zp = ArrowCochain.from_vector(U, U, vec)
        images.append([{a.name: Zp.mats[a.name] @ f.mats[a.source] for a in arrows}
                       for f in homs])
    for vec in zv.vectors:
        Zpp = ArrowCochain.from_vector(V, V, vec)
        images.append([{a.name: -(f.mats[a.target] @ Zpp.mats[a.name]) for a in arrows}
                       for f in homs])
    cols = [[x for mats in image
             for x in space.b.reduce(ArrowCochain(V, U, mats).to_vector())]
            for image in images]
    system = Matrix.from_columns(field, len(homs) * ambient, cols)
    return TangentPairs(U, V, zu, zv, kernel_basis(system), space)


def _images(matrix: Matrix, vectors) -> list:
    """The images matrix @ v of the given vectors, each as a list."""
    return _product(matrix.field, vectors, matrix.transpose().rows, matrix.nrows)


def _pairing_images(Zxi: ArrowCochain, zu: SubspaceBasis, zv: SubspaceBasis) -> list:
    """[Z' o xi] for each basis cocycle Z' of zu, then [xi o Z''] for zv.

    Each image is a relation-cochain vector, unreduced; both sides come
    from the composition matrices of ``yoneda_matrices``.
    """
    left, right = yoneda_matrices(Zxi)
    return _images(left, zu.vectors) + _images(right, zv.vectors)


def ext_tangent_pairs(hpairs: TangentPairs) -> TangentPairs:
    """The given hom-tangent pairs that also act trivially on second extensions.

    The extra condition composes each pair against every cocycle
    V -> U and asks for a relation coboundary; it is tested in the
    small model, so its hypotheses are enforced.  Column j of the
    system is the image of the j-th basis pair of ``hpairs``: for each
    basis cocycle xi, the composition matrices of ``yoneda_matrices``
    applied to the cocycle bases give the image of every basis cocycle,
    the pair basis combines them, and each column is reduced once
    modulo the relation coboundaries.  The cocycles xi and the small
    model both come from ``hpairs.space``.
    """
    U, V, field = hpairs.U, hpairs.V, hpairs.U.field
    model = hpairs.space.small_model  # raises HypothesisError when gated out
    zvu = hpairs.space.z
    if zvu.dim == 0 or hpairs.dim == 0:
        return hpairs
    cols = [[] for _ in hpairs.basis.vectors]
    for v in zvu.vectors:
        images = _pairing_images(ArrowCochain.from_vector(V, U, v), hpairs.zu, hpairs.zv)
        pairs = _product(field, hpairs.basis.vectors, images, model.ambient_dim)
        for col, image in zip(cols, pairs):
            col.extend(model.bprime.reduce(image))
    codom = zvu.dim * model.ambient_dim
    inner = kernel_basis(Matrix.from_columns(field, codom, cols))
    lifted = [hpairs.basis.combine(v) for v in inner.vectors]
    rows = Matrix(field, lifted, hpairs.basis.ambient_dim)
    return TangentPairs(U, V, hpairs.zu, hpairs.zv, row_space_basis(rows), hpairs.space)


# -- the pairing into second extensions ---------------------------------


@dataclass
class PsiMap:
    """The pairing of tangent pairs against a fixed extension cocycle."""

    U: Representation
    V: Representation
    xi: ArrowCochain
    model: Ext2Model
    matrix: Matrix
    domain_dim: int
    rank: int

    @property
    def kernel_dim(self) -> int:
        return self.domain_dim - self.rank

    @property
    def surjective(self) -> bool:
        return self.rank == self.model.dim


def psi_map(space: ExtSpace1, Zxi: ArrowCochain) -> PsiMap:
    """Matrix of (Z', Z'') -> [Z' o xi] + [xi o Z''] into Ext2(V, U).

    ``space`` is ``ext1(V, U)``, the space of the fixed cocycle xi (the
    witness search's ``SesWitness.space``); the classes are reduced in
    its small model, on the relation system it eliminated.  Column j is
    the image of the j-th basis cocycle of Z(U, U), then of Z(V, V): the
    composition matrices of ``yoneda_matrices`` applied to the cocycle
    bases, each column reduced once in the small model.
    """
    V, U = space.source, space.target
    if Zxi.source != V or Zxi.target != U:
        raise QuiverError("the fixed cocycle must run V -> U")
    field = U.field
    model = space.small_model
    zu = z_space(U, U)
    zv = z_space(V, V)
    cols = [model.bprime.reduce(image) for image in _pairing_images(Zxi, zu, zv)]
    mat = Matrix.from_columns(field, model.ambient_dim, cols)
    return PsiMap(U, V, Zxi, model, mat, zu.dim + zv.dim, mat.rank())


@dataclass
class LeftCompReport:
    domain_dim: int
    target_dim: int
    rank: int

    @property
    def surjective(self) -> bool:
        return self.rank == self.target_dim


def left_comp_surjectivity(space: ExtSpace1, Zxi: ArrowCochain) -> LeftCompReport:
    """Rank of composing with xi from Ext1(V,V) into Ext2(V,U).

    ``space`` is ``ext1(V, U)``, the space of xi, whose small model
    holds Ext2(V, U).  The right composition matrix of
    ``yoneda_matrices`` is applied to the basis cocycles of Z(V, V) at
    the free coordinates of Ext1(V, V) (a transversal of the
    coboundaries), and each image is reduced once in the small model.
    """
    V, U = space.source, space.target
    if Zxi.source != V or Zxi.target != U:
        raise QuiverError("the fixed cocycle must run V -> U")
    model = space.small_model
    space_vv = ext1(V, V)
    _, right = yoneda_matrices(Zxi)
    transversal = [space_vv.z.vectors[i] for i in space_vv._b_in_z.free_coordinates()]
    cols = [model.bprime.reduce(image) for image in _images(right, transversal)]
    mat = Matrix.from_columns(U.field, model.ambient_dim, cols)
    return LeftCompReport(space_vv.dim, model.dim, mat.rank())


# -- the opposite reading and the projective dimension bound -----------


def opposite_rep(M: Representation) -> Representation:
    """The same data read over the opposite bound quiver."""
    opp = M.bq.opposite()
    mats = {a.name: M.mats[a.name].transpose() for a in M.bq.quiver.arrows}
    return Representation(opp, M.field, dict(M.dims), mats, check=True)


def pd_le1(M: Representation) -> bool:
    """Projective dimension at most one: the minimal syzygy is projective.

    The syzygy comes from ``ext2.syzygy``, the one cover built, checked
    on the first call for M and memoised on M, and ``is_projective``
    counts its top, memoised on the syzygy; this is the same as
    Ext^2(M, S) = 0 for every simple S, which the tests keep as the
    oracle.
    """
    return is_projective(syzygy(M)[0])


# -- scaling families and degeneration witnesses ------------------------


@dataclass
class ScalingFamily:
    """The one-parameter family of middle terms over a fixed cocycle."""

    U: Representation
    V: Representation
    Z: ArrowCochain
    t: object
    rep: Representation
    conjugation: dict | None
    verified: bool
    note: str


def scaling_family(Z: ArrowCochain, t) -> ScalingFamily:
    """The middle term of t*Z, with a conjugation certificate when t != 0.

    Every nonzero t gives a point conjugate to the middle term of Z
    itself; t = 0 gives the split sum.  Together: the split sum is a
    degeneration of the middle term.  t is anything ``field.of`` takes.
    """
    V, U = Z.source, Z.target
    field = U.field
    tval = field.of(t)
    note = "the middle term degenerates to the split direct sum"
    if field.is_zero(tval):
        return ScalingFamily(U, V, Z, tval, direct_sum(U, V), None, True, note)
    W, _, _ = middle_term(Z)
    Wt, _, _ = middle_term(Z.scale(tval))
    s = field.inv(tval)
    g = {x: block_diag(field, [Matrix.identity(field, U.dims[x]),
                               Matrix.identity(field, V.dims[x]).scale(s)])
         for x in U.bq.quiver.vertices}
    moved = gl_action(g, W)
    return ScalingFamily(U, V, Z, tval, Wt, g, moved == Wt, note)


@dataclass
class SesWitness:
    """A certified short exact sequence presenting M as a middle term."""

    M: Representation
    U: Representation
    V: Representation
    Z: ArrowCochain
    middle: Representation
    certificate: IsoCertificate
    space: ExtSpace1 = dataclass_field(compare=False)  # Z's Ext^1(V, U)

    def verify(self) -> bool:
        if (self.space.source, self.space.target) != (self.V, self.U):
            return False
        if self.certificate.verdict != "yes" or self.certificate.witness is None:
            return False
        w = self.certificate.witness
        if w.source != self.middle or w.target != self.M:
            return False
        if not w.is_morphism() or not _vertexwise_invertible(w):
            return False
        rebuilt, _, _ = middle_term(self.Z)
        return rebuilt == self.middle


class InconclusiveSearch(RuntimeError):
    """A witness search that could neither find a witness nor rule one out."""


def degeneration_witness_search(M: Representation, U: Representation,
                                V: Representation, seed: int = 0):
    """Look for a cocycle whose middle term is isomorphic to M.

    Exhaustive over small integer coefficient grids in low cocycle
    dimension, then seeded random sampling.  The rank of each arrow map
    is an isomorphism invariant, so a middle term whose arrow ranks
    differ from M's (computed once per search) is skipped before
    ``iso_test``.  Returns a verified witness, carrying the ``ext1(V, U)``
    its cocycle came from, or None; None is conclusive only in the
    forced-split case (Ext^1(V, U) = 0) where it means the split sum
    misses M.  In that case an ``unknown`` isomorphism verdict raises
    ``InconclusiveSearch`` instead, since None would read as a conclusive
    miss; a split sum refuted by its ranks never reaches ``iso_test``, so
    its None is conclusive.
    """
    return _search_over(M, ext1(V, U), seed)


def _search_over(M: Representation, space: ExtSpace1, seed: int):
    """``degeneration_witness_search`` over the given space ``ext1(V, U)``,
    so that a caller can read its dimension after a miss."""
    field = M.field
    U, V = space.target, space.source
    dsum = {x: U.dims[x] + V.dims[x] for x in M.bq.quiver.vertices}
    if dsum != M.dim_vector():
        raise QuiverError("dimension vectors of the ends do not sum to the middle")
    zs, split_only = space.z, space.dim == 0
    ranks = {name: m.rank() for name, m in M.mats.items()}

    def try_coeffs(coeffs):
        vec = zs.combine(coeffs)
        Z = ArrowCochain.from_vector(V, U, vec)
        W, _, _ = middle_term(Z)
        if any(W.mats[name].rank() != r for name, r in ranks.items()):
            return None
        cert = iso_test(W, M, seed=seed)
        if cert.verdict == "yes":
            return SesWitness(M, U, V, Z, W, cert, space)
        if split_only and cert.verdict == "unknown":
            raise InconclusiveSearch(
                "only the split sum is a middle term, and testing it "
                f"against M was inconclusive: {cert.reason}")
        return None

    if split_only:
        # only split middle terms exist; the answer is decided by U + V
        witness = try_coeffs([field.zero] * zs.dim)
        return witness  # None here is conclusive

    if zs.dim <= 4:
        for raw in itertools.product((0, 1, -1, 2, -2), repeat=zs.dim):
            witness = try_coeffs([field.of(c) for c in raw])
            if witness is not None:
                return witness
    rng = random.Random(seed)
    for _ in range(200):
        raw = [rng.randint(-9, 9) for _ in range(zs.dim)]
        witness = try_coeffs([field.of(c) for c in raw])
        if witness is not None:
            return witness
    return None


# -- the regularity accounting certificate -------------------------------


@dataclass
class RegularityReport:
    M: Representation
    U: Representation
    V: Representation
    a_d_sub: int
    a_d_quot: int
    hom_vu: int
    ext1_vu: int
    ext2_vu: int
    hom_uv: int
    ext1_uv: int
    ext2_uv: int
    z_uv_dim: int
    z_vu_dim: int
    ext_pairs_dim: int
    z_nn_dim: int
    a_d: int
    bound: int
    orbit_dim_n: int
    flags: dict = dataclass_field(default_factory=dict)
    verdict: str = "inconclusive"

    @property
    def bound_matches_a(self) -> bool:
        return self.bound == self.a_d

    @property
    def tangent_matches_a(self) -> bool:
        return self.z_nn_dim == self.a_d


def regularity_certificate(M: Representation, U: Representation,
                           V: Representation,
                           witness: SesWitness) -> RegularityReport:
    """Tangent accounting at the split point of a certified sequence.

    All the quantities of the dimension count are computed
    independently and reported; the verdict is "regular-tangent"
    exactly when the tangent dimension at U + V equals the expected
    component dimension and every hypothesis flag holds.  Each Hom,
    Ext^1, Ext^2 and mixed cocycle count is read from one Ext^1 space
    per pair: (M, M), (U, V), and the witness's (V, U), on which the
    pairing is built too, so a witness search plus its certificate build
    each pair's relation and Hom systems once.  Ext^2 is read from each
    space's small model, whose gate raises ``HypothesisError`` before
    the pairing runs; the syzygy route (``ext2_via_omega``) stays the
    independent model the tests and the suites check it against.  The
    flag pd M <= 1 is ``pd_le1(M)``, which reads the minimal syzygy
    memoised on M, built on the first call.  The tangent dimension at
    U + V is a nullity read from ``rank``.
    """
    if witness.M != M or witness.U != U or witness.V != V:
        raise QuiverError("witness does not match the given triple")
    if not witness.verify():
        raise QuiverError("unverified witness")

    bq = M.bq
    d = M.dim_vector()
    space_mm = ext1(M, M)
    ext2_mm = space_mm.small_model.dim  # a gated model raises here
    space_vu, space_uv = witness.space, ext1(U, V)
    epairs = ext_tangent_pairs(hom_tangent_pairs(space_vu))
    z_uv, z_vu = space_uv.z.dim, space_vu.z.dim
    N = direct_sum(U, V)
    z_nn = z_dim(N, N)

    flags = {
        "ext1_mm_vanishes": space_mm.dim == 0,
        "ext2_mm_vanishes": ext2_mm == 0,
        "hom_vu_vanishes": not space_vu.homs,
        "ext1_uv_vanishes": space_uv.dim == 0,
        "ext2_uv_vanishes": space_uv.small_model.dim == 0,
        "pd_m_le1": pd_le1(M),
    }
    verdict = "inconclusive"
    if all(flags.values()) and z_nn == a_of_d(bq, d):
        verdict = "regular-tangent"

    return RegularityReport(
        M=M, U=U, V=V,
        a_d_sub=a_of_d(bq, U.dim_vector()),
        a_d_quot=a_of_d(bq, V.dim_vector()),
        hom_vu=len(space_vu.homs), ext1_vu=space_vu.dim,
        ext2_vu=space_vu.small_model.dim,
        hom_uv=len(space_uv.homs), ext1_uv=space_uv.dim,
        ext2_uv=space_uv.small_model.dim,
        z_uv_dim=z_uv, z_vu_dim=z_vu,
        ext_pairs_dim=epairs.dim,
        z_nn_dim=z_nn,
        a_d=a_of_d(bq, d),
        bound=epairs.dim + z_uv + z_vu,
        orbit_dim_n=orbit_dim(N).orbit_dim,
        flags=flags,
        verdict=verdict,
    )


# -- dual-number probes ---------------------------------------------------


@dataclass
class DualNumberProbe:
    hom_dim_dual: int
    z_dim_dual: int
    hom_dim_base: int
    z_dim_base: int

    @property
    def hom_member(self) -> bool:
        return self.hom_dim_dual == 2 * self.hom_dim_base

    @property
    def ext_member(self) -> bool:
        return self.hom_member and self.z_dim_dual == 2 * self.z_dim_base


def _epsilon_matrix(field, d):
    """The square-zero operator [[0, 1], [0, 0]] on k^d + k^d."""
    return vstack(hstack(Matrix.zeros(field, d, d), Matrix.identity(field, d)),
                  Matrix.zeros(field, d, 2 * d))


def dual_number_oracle(U: Representation, Mbar: ArrowCochain,
                       V: Representation, Nbar: ArrowCochain) -> DualNumberProbe:
    """Tangent-pair membership, probed over the dual numbers.

    The doubled representations are the middle terms of the two
    self-cocycles; a square-zero operator marks the infinitesimal
    direction.  The returned counts are the dimensions of morphisms
    and of cocycles between the doubled representations that commute
    with that operator — the linear solves here never mention the
    tangent-pair systems, which is what makes this an oracle.  A probe
    that is no cocycle raises ``QuiverError`` in ``middle_term``.
    """
    if Mbar.source != U or Mbar.target != U or Nbar.source != V or Nbar.target != V:
        raise QuiverError("probe cochains must be self-cochains of the two ends")
    field = U.field
    DM, _, _ = middle_term(Mbar)
    DN, _, _ = middle_term(Nbar)
    eps_m = {x: _epsilon_matrix(field, U.dims[x]) for x in U.bq.quiver.vertices}
    eps_n = {x: _epsilon_matrix(field, V.dims[x]) for x in V.bq.quiver.vertices}

    hom_dom = VertexCochain.space_dim(DN, DM)

    def hom_constraints(vec):
        f = VertexCochain.from_vector(DN, DM, vec)
        out = []
        for a in DN.bq.quiver.arrows:
            delta = f.mats[a.target] @ DN.mats[a.name] - DM.mats[a.name] @ f.mats[a.source]
            for row in delta.rows:
                out.extend(row)
        for x in DN.bq.quiver.vertices:
            delta = f.mats[x] @ eps_n[x] - eps_m[x] @ f.mats[x]
            for row in delta.rows:
                out.extend(row)
        return out

    hom_codom = ArrowCochain.space_dim(DN, DM) + VertexCochain.space_dim(DN, DM)
    hom_dual = kernel_basis(
        linear_map_matrix(field, hom_dom, hom_codom, hom_constraints)).dim

    z_dom = ArrowCochain.space_dim(DN, DM)

    def z_constraints(vec):
        Z = ArrowCochain.from_vector(DN, DM, vec)
        out = []
        for rel in DN.bq.relations:
            for row in z_rho(Z, rel).rows:
                out.extend(row)
        for a in DN.bq.quiver.arrows:
            delta = Z.mats[a.name] @ eps_n[a.source] - eps_m[a.target] @ Z.mats[a.name]
            for row in delta.rows:
                out.extend(row)
        return out

    z_codom = RelationCochain.space_dim(DN, DM) + ArrowCochain.space_dim(DN, DM)
    z_dual = kernel_basis(
        linear_map_matrix(field, z_dom, z_codom, z_constraints)).dim

    return DualNumberProbe(hom_dual, z_dual, hom_dim(V, U), z_dim(V, U))
