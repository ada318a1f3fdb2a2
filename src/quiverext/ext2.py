"""Projective presentations and second extension groups.

Second extensions are computed in two ways.  The reference model is
unconditional: first extensions of a syzygy of N.  ``ext2_via_omega``
takes the minimal syzygy, the kernel of the projective cover
(``_minimal_syzygy``, which ``syzygy`` extends by its inclusion).  The
standard presentation (``ProjPresentation``) places at vertex x the span
of (basis path into x) tensor (coordinate of N); its larger syzygy
carries the labels that the transport map, the Yoneda oracle and the
suites index by, so they take the presentation itself.  The small model
lives on relation cochains -- one matrix per relation element -- and is
a faithful quotient only over acyclic quivers of global dimension at
most two, so it is gated by those checks.  ``Ext2Model`` is handed R
and its rank by whoever eliminated R, ``ext2_small_model`` or an
``ExtSpace1`` space, and builds its coset reducer on first use.  The
certificate (``geometry.regularity_certificate``) and the pairing
(``geometry.psi_map``) read their Ext^2 from the small models of
``ExtSpace1`` spaces; the syzygy route stays the independent model.
The transport map between the models, Yoneda composition of cocycle
representatives (``compose_cocycles``) and its matrices for a fixed
cocycle, assembled from Kronecker blocks (``yoneda_matrices``), and the
projectivity and global-dimension tests all live here.

The indecomposable projectives P(x) behind every projective cover are
the standard presentations of the simples, built and verified once per
bound quiver, field and vertex and memoised on the bound quiver
(``indecomposable_projective``).  A minimal syzygy is built in one
pass: the cover evaluates each path on the top generators only, is
checked to be a morphism once, and one kernel basis per vertex serves
both the kernel and the surjectivity check.
"""

from __future__ import annotations

from functools import cached_property

from .ext1 import (
    Ext1Class,
    ExtSpace1,
    ext1,
    relation_boundary_matrix,
    z_path,
)
from .linalg import (
    Matrix,
    QuotientSpace,
    SubspaceBasis,
    _forward_pivots,
    _product,
    column_space_basis,
    hstack,
    kernel_basis,
    kron_add,
    rank,
)
from .quiver import BoundQuiver, Path, QuiverError, is_acyclic
from .rep import (
    ArrowCochain,
    RelationCochain,
    Representation,
    VertexCochain,
    direct_sum,
    simple,
    zero_rep,
)


class HypothesisError(RuntimeError):
    """A gated model was requested while its validity hypotheses fail."""


class ProjPresentation:
    """The standard projective presentation of a representation N.

    The projective P places at vertex x one coordinate per pair
    (surviving path sigma: y -> x, coordinate j of N_y); the syzygy
    omega keeps the labels with sigma of positive length.  Both carry
    explicit label lists so cochains on them can be indexed by path
    decompositions.  The presentation is deliberately non-minimal: its
    shape depends only on dimension data, never on choices.  It is the
    route of ``phi``, the Yoneda oracle and the suites that index by its
    labels; ``ext2_via_omega`` uses the smaller minimal syzygy instead.
    For a simple at x, P is the indecomposable projective P(x), which
    ``indecomposable_projective`` memoises.

    The inclusion sends a syzygy label (y, sigma, j) to the same label of
    P minus N_sigma e_j placed on the labels of the trivial path at x.
    That correction lives only on trivial-path labels, which are not
    syzygy labels, so the rows of the inclusion at the syzygy labels form
    an identity.  Since the inclusion is a morphism, incl_t omega_a =
    P_a incl_s, and reading that product at the syzygy labels gives
    omega_a: the syzygy's arrow matrices are the rows of P_a @ incl at
    the syzygy labels, with no second path reduction or N_sigma term.
    Omega is built unchecked: ``_verify_exactness`` finds the inclusion an
    injective morphism into the checked P, which implies omega's relations.
    """

    def __init__(self, N: Representation):
        bq, field = N.bq, N.field
        ab = bq.algebra_basis(field)
        self.N = N
        self.bq = bq
        self.field = field
        self.basis = ab

        quiver = bq.quiver
        self.paths = {}
        self.p_labels, self.omega_labels = {}, {}
        self.p_index, self.omega_index = {}, {}
        for x in quiver.vertices:
            # only paths out of a vertex where N is nonzero carry labels
            self.paths[x] = [(y, sigma) for y in quiver.vertices if N.dims[y]
                             for sigma in ab.basis.get((x, y), ())]
            pl = [(y, sigma, j) for y, sigma in self.paths[x] for j in range(N.dims[y])]
            self.p_labels[x] = pl
            self.omega_labels[x] = [(y, s, j) for (y, s, j) in pl if s.length >= 1]
            self.p_index[x] = {(y, s.arrows, j): i
                               for i, (y, s, j) in enumerate(self.p_labels[x])}
            self.omega_index[x] = {(y, s.arrows, j): i
                                   for i, (y, s, j) in enumerate(self.omega_labels[x])}

        # N_sigma for each basis path, in the order of self.paths
        evals = {x: [N.eval_path(sigma) for _, sigma in self.paths[x]]
                 for x in quiver.vertices}
        self.P = self._build_p()
        incl_mats = self._incl_matrices(evals)
        self.omega = self._build_omega(incl_mats)
        self.incl = VertexCochain(self.omega, self.P, incl_mats)
        self.proj = self._build_proj(evals)
        self._verify_exactness()

    # -- construction -------------------------------------------------
    # The labels of a path (y, sigma) are (y, sigma, j) for every
    # coordinate j of N_y, consecutive, so each builder reduces or
    # evaluates a path once and spreads the result over its labels.

    def _build_p(self) -> Representation:
        field, quiver = self.field, self.bq.quiver
        dims = {x: len(self.p_labels[x]) for x in quiver.vertices}
        mats = {}
        for a in quiver.arrows:
            index = self.p_index[a.target]
            cols = []
            for y, sigma in self.paths[a.source]:
                reduced = self.basis.reduce_path(
                    Path(y, a.target, (a.name,) + sigma.arrows))
                for j in range(self.N.dims[y]):
                    col = [field.zero] * dims[a.target]
                    for c, tau in reduced:
                        col[index[(y, tau.arrows, j)]] = c
                    cols.append(col)
            mats[a.name] = Matrix.from_columns(field, dims[a.target], cols)
        return Representation(self.bq, field, dims, mats, check=True)

    def _incl_matrices(self, evals: dict) -> dict:
        field, N = self.field, self.N
        mats = {}
        for x in self.bq.quiver.vertices:
            index = self.p_index[x]
            trivial = [index[(x, (), i)] for i in range(N.dims[x])]
            cols = []
            for (y, sigma), n_sigma in zip(self.paths[x], evals[x]):
                if sigma.length == 0:
                    continue
                for j in range(N.dims[y]):
                    col = [field.zero] * len(self.p_labels[x])
                    col[index[(y, sigma.arrows, j)]] = field.one
                    for idx, row in zip(trivial, n_sigma.rows):
                        if not field.is_zero(row[j]):
                            col[idx] = field.neg(row[j])
                    cols.append(col)
            mats[x] = Matrix.from_columns(field, len(self.p_labels[x]), cols)
        return mats

    def _build_omega(self, incl_mats: dict) -> Representation:
        field, quiver = self.field, self.bq.quiver
        omega_rows = {x: [self.p_index[x][(y, s.arrows, j)]
                          for (y, s, j) in self.omega_labels[x]]
                      for x in quiver.vertices}
        dims = {x: len(rows) for x, rows in omega_rows.items()}
        mats = {}
        for a in quiver.arrows:
            image = self.P.mats[a.name] @ incl_mats[a.source]
            mats[a.name] = Matrix(field, [image.rows[i] for i in omega_rows[a.target]],
                                  dims[a.source])
        return Representation(self.bq, field, dims, mats, check=False)

    def _build_proj(self, evals: dict) -> VertexCochain:
        """At x, the blocks N_sigma side by side, in label order."""
        mats = {}
        for x in self.bq.quiver.vertices:
            rows = [[e for m in evals[x] for e in m.rows[i]]
                    for i in range(self.N.dims[x])]
            mats[x] = Matrix(self.field, rows, len(self.p_labels[x]))
        return VertexCochain(self.P, self.N, mats)

    def _verify_exactness(self):
        if not self.incl.is_morphism() or not self.proj.is_morphism():
            raise QuiverError("presentation maps fail to be morphisms")
        composed = self.proj.compose(self.incl)
        if any(not m.is_zero() for m in composed.mats.values()):
            raise QuiverError("presentation is not a complex")
        for x in self.bq.quiver.vertices:
            if self.incl.mats[x].rank() != self.omega.dims[x]:
                raise QuiverError("syzygy inclusion is not injective")
            if self.proj.mats[x].rank() != self.N.dims[x]:
                raise QuiverError("presentation cover is not surjective")
            if self.omega.dims[x] + self.N.dims[x] != self.P.dims[x]:
                raise QuiverError("presentation dimension count is off")


def ext2_via_omega(N: Representation, M: Representation) -> ExtSpace1:
    """Second extensions of N by M as first extensions of the minimal
    syzygy of N, the kernel of the projective cover (``_minimal_syzygy``).

    Two syzygies of N differ by projective summands (Schanuel's lemma),
    on which Ext^1 vanishes, so ``ext1(pres.omega, M)`` on a standard
    presentation has the same dimension; the returned space lives on the
    minimal syzygy.
    """
    return ext1(_minimal_syzygy(N)[0], M)


# -- the small model on relation cochains ------------------------------


class Ext2Model:
    """Relation cochains modulo relation coboundaries for a pair (N, M).

    The relation coboundaries are the column space of the relation
    boundary matrix R, which the caller gates, builds and eliminates, so
    dim = (relation-cochain dimension) - rank R; their basis ``bprime``
    and the coset reducer ``quotient`` are built from R on first use.
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

    @cached_property
    def quotient(self) -> QuotientSpace:
        return QuotientSpace(self.field, self.ambient_dim, self.bprime)

    def class_of(self, rc: RelationCochain) -> "Ext2Class":
        return Ext2Class(self, tuple(self.quotient.reduce(rc.to_vector())))

    def zero_class(self) -> "Ext2Class":
        return Ext2Class(self, tuple([self.field.zero] * self.ambient_dim))


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

    def add(self, other: "Ext2Class") -> "Ext2Class":
        if other.model is not self.model:
            raise QuiverError("classes live in different models")
        f = self.model.field
        return Ext2Class(self.model, tuple(
            f.add(a, b) for a, b in zip(self.coords, other.coords)))


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


# -- the transport map between the models -------------------------------


def phi(pres: ProjPresentation, M: Representation, Z: ArrowCochain) -> RelationCochain:
    """Transport a cochain on the syzygy of ``pres`` to relation cochains
    N -> M, with N = ``pres.N``.

    For each relation term c * a_1...a_m and each position j < m, the
    term contributes  c * M(a_1..a_{j-1}) Z_{a_j} T_j, where column n of
    T_j is tail_j tensor n, tail_j = a_{j+1}..a_m, expanded in the path
    basis of the syzygy.
    """
    if Z.source != pres.omega:
        raise QuiverError("cochain does not live on the given presentation's syzygy")
    N = pres.N
    field = N.field
    quiver = N.bq.quiver
    mats = {}
    for rel in N.bq.relations:
        out = Matrix.zeros(field, M.dims[rel.target], N.dims[rel.source])
        for coeff, p in rel.terms:
            arrows = p.arrows
            m = len(arrows)
            for j in range(1, m):
                aj = quiver.arrow_map[arrows[j - 1]]
                head = M.eval_arrow_word(arrows[:j - 1], aj.target)
                tail_path = Path(p.source, aj.source, arrows[j:])
                index = pres.omega_index[aj.source]
                tail = Matrix.zeros(field, pres.omega.dims[aj.source], N.dims[rel.source])
                for c, tau in pres.basis.reduce_terms(
                        aj.source, p.source, [(field.one, tail_path)]):
                    for jn in range(N.dims[rel.source]):
                        tail.rows[index[(rel.source, tau.arrows, jn)]][jn] = c
                out = out + (head @ Z.mats[aj.name] @ tail).scale(field.of_fraction(coeff))
        mats[rel.name] = out
    return RelationCochain(N, M, mats)


def exhibit_phi_kernel_boundary(pres: ProjPresentation, M: Representation,
                                Z: ArrowCochain) -> VertexCochain:
    """Vertex cochain h whose coboundary recovers a transport-kernel cocycle.

    Z runs from the syzygy of ``pres`` to M.  Built by peeling the
    last-acting arrow off each syzygy basis label: h vanishes on
    length-one labels, and on a longer label (a sigma tensor n) it takes
    the value M_a h(sigma tensor n) - Z_a(sigma tensor n), with sigma
    expanded in the path basis.  When Z is a
    cocycle killed by the transport map, the coboundary of h equals Z;
    callers re-derive Z from h to certify.
    """
    field = M.field
    omega = pres.omega
    arrow_map = omega.bq.quiver.arrow_map
    memo = {}

    def column(x, label):
        y, sigma, j = label
        key = (x, y, sigma.arrows, j)
        if key in memo:
            return memo[key]
        alpha = arrow_map[sigma.arrows[0]]
        tail_arrows = sigma.arrows[1:]
        if not tail_arrows:
            val = [field.zero] * M.dims[x]
        else:
            tail_path = Path(y, alpha.source, tail_arrows)
            reduced = pres.basis.reduce_terms(alpha.source, y,
                                              [(field.one, tail_path)])
            zvec = [field.zero] * omega.dims[alpha.source]
            coeffs, subs = [], []
            for c, tau in reduced:
                coeffs.append(c)
                subs.append(column(alpha.source, (y, tau, j)))
                pos = pres.omega_index[alpha.source][(y, tau.arrows, j)]
                zvec[pos] = field.add(zvec[pos], c)
            hvec = _product(field, [coeffs], subs, M.dims[alpha.source])[0]
            mh = M.mats[alpha.name].apply(hvec)
            zz = Z.mats[alpha.name].apply(zvec)
            val = [field.sub(a, b) for a, b in zip(mh, zz)]
        memo[key] = val
        return val

    hmats = {}
    for x in omega.bq.quiver.vertices:
        cols = [column(x, lab) for lab in pres.omega_labels[x]]
        hmats[x] = Matrix.from_columns(field, M.dims[x], cols)
    return VertexCochain(omega, M, hmats)


# -- Yoneda composition of cocycles -------------------------------------


def compose_cocycles(Zp: ArrowCochain, Zpp: ArrowCochain) -> RelationCochain:
    """Yoneda composition on cocycle representatives.

    For each relation term c * a_1...a_m (rightmost acting first) and
    each ordered pair of positions j1 < j2 <= m, the contribution is

        c * U(a_1..a_{j1-1}) Zp_{a_{j1}} V(a_{j1+1}..a_{j2-1})
              Zpp_{a_{j2}} W(a_{j2+1}..a_m)

    where Zp runs V -> U and Zpp runs W -> V.  The result is a relation
    cochain W -> U whose class in the small model is the product of the
    two extension classes.
    """
    V, U = Zp.source, Zp.target
    W = Zpp.source
    if Zpp.target != V:
        raise QuiverError("composition needs matching middle representations")
    field = U.field
    quiver = W.bq.quiver
    mats = {}
    for rel in W.bq.relations:
        out = Matrix.zeros(field, U.dims[rel.target], W.dims[rel.source])
        for coeff, p in rel.terms:
            arrows = p.arrows
            m = len(arrows)
            for j2 in range(2, m + 1):
                a2 = quiver.arrow_map[arrows[j2 - 1]]
                tail = W.eval_arrow_word(arrows[j2:], p.source)
                right = Zpp.mats[a2.name] @ tail
                for j1 in range(1, j2):
                    a1 = quiver.arrow_map[arrows[j1 - 1]]
                    head = U.eval_arrow_word(arrows[:j1 - 1], a1.target)
                    mid = V.eval_arrow_word(arrows[j1:j2 - 1], a2.target)
                    term = head @ Zp.mats[a1.name] @ mid @ right
                    out = out + term.scale(field.of_fraction(coeff))
        mats[rel.name] = out
    return RelationCochain(W, U, mats)


def yoneda_matrices(xi: ArrowCochain):
    """Matrices of Yoneda composition with a fixed cocycle xi: V -> U.

    Returns (left, right): left is the matrix of Z |-> compose_cocycles(Z,
    xi) on arrow cochains U -> U, right that of Z |-> compose_cocycles(xi,
    Z) on arrow cochains V -> V.  Rows follow ``RelationCochain.offsets(V,
    U)``, columns ``ArrowCochain.offsets`` of (U, U) and of (V, V).  Each
    term of ``compose_cocycles`` is linear in the free factor, X |-> A X B
    with the other factor folded into A or B, so both matrices are
    assembled from Kronecker blocks (``kron_add``), with no composition of
    unit cochains.  Empty arrow words are identity factors: they are
    skipped in the products and passed to ``kron_add`` as their size.
    """
    V, U = xi.source, xi.target
    field = U.field
    quiver = V.bq.quiver
    row0, nrows = RelationCochain.offsets(V, U)
    col_u, n_u = ArrowCochain.offsets(U, U)
    col_v, n_v = ArrowCochain.offsets(V, V)
    left = [[field.zero] * n_u for _ in range(nrows)]
    right = [[field.zero] * n_v for _ in range(nrows)]
    for rel in V.bq.relations:
        r0 = row0[rel.name]
        for coeff, p in rel.terms:
            c = field.of_fraction(coeff)
            arrows = p.arrows
            m = len(arrows)
            for j2 in range(2, m + 1):
                a2 = quiver.arrow_map[arrows[j2 - 1]]
                if j2 < m:
                    tail = V.eval_arrow_word(arrows[j2:], p.source)
                    xi_tail = xi.mats[a2.name] @ tail
                else:
                    tail, xi_tail = V.dims[p.source], xi.mats[a2.name]
                for j1 in range(1, j2):
                    a1 = quiver.arrow_map[arrows[j1 - 1]]
                    word = arrows[j1:j2 - 1]
                    if j1 > 1:
                        head = U.eval_arrow_word(arrows[:j1 - 1], a1.target)
                        head_xi = head @ xi.mats[a1.name]
                    else:
                        head, head_xi = U.dims[a1.target], xi.mats[a1.name]
                    if word:
                        u_mid = U.eval_arrow_word(word, a2.target) @ xi_tail
                        head_xi = head_xi @ V.eval_arrow_word(word, a2.target)
                    else:
                        u_mid = xi_tail
                    # Z at a1 with xi at a2, then xi at a1 with Z at a2
                    kron_add(field, left, r0, col_u[a1.name], c, head, u_mid)
                    kron_add(field, right, r0, col_v[a2.name], c, head_xi, tail)
    return Matrix._adopt(field, left, n_u), Matrix._adopt(field, right, n_v)


def yoneda_left(Z: ArrowCochain, cls: Ext1Class) -> Ext2Class:
    """Compose a fixed cocycle with a first-extension class on the right.

    Z runs U -> M and cls extends V by U; the result is the class of
    compose_cocycles(Z, representative) among second extensions of V
    by M (``ext2_small_model``, so its hypotheses are enforced).
    """
    U = Z.source
    if cls.space.target != U:
        raise QuiverError("class target does not match the fixed cocycle")
    V = cls.space.source
    model = ext2_small_model(V, Z.target)
    return model.class_of(compose_cocycles(Z, cls.representative()))


def yoneda_left_omega(Z: ArrowCochain, cls: Ext1Class) -> Ext1Class:
    """Yoneda composition landing in the unconditional syzygy model.

    Z runs U -> M, cls extends V by U.  The image cochain sends a
    basis label (sigma tensor v) of the syzygy of ``ProjPresentation(V)``
    across an arrow a to Z_a applied to the product-rule extension of
    the class representative along sigma; its class lies in
    ``ext1(omega, M)``.  Serves as the independent oracle for
    yoneda_left: no global-dimension hypothesis enters.
    """
    U = Z.source
    if cls.space.target != U:
        raise QuiverError("class target does not match the fixed cocycle")
    V = cls.space.source
    M = Z.target
    pres = ProjPresentation(V)
    Zp = cls.representative()
    field = V.field
    mats = {}
    for a in V.bq.quiver.arrows:
        cols = []
        for (y, sigma, j) in pres.omega_labels[a.source]:
            full = Z.mats[a.name] @ z_path(Zp, sigma)
            cols.append(full.col(j))
        mats[a.name] = Matrix.from_columns(field, M.dims[a.target], cols)
    image = ArrowCochain(pres.omega, M, mats)
    return ext1(pres.omega, M).class_of(image)


# -- projectivity and global dimension ----------------------------------


def radical_subspace(M: Representation, x) -> "Matrix | None":
    """Matrix whose columns span the radical piece at a vertex."""
    blocks = [M.mats[a.name] for a in M.bq.quiver.arrows if a.target == x]
    if not blocks:
        return None
    out = blocks[0]
    for b in blocks[1:]:
        out = hstack(out, b)
    return out


def indecomposable_projective(bq: BoundQuiver, field, x) -> ProjPresentation:
    """The standard presentation of the simple at x; its P is P(x).

    Built, and so verified, once per bound quiver, field and vertex: the
    presentations are memoised on the bound quiver.
    """
    cache = bq._projective_cache
    key = (field.name, x)
    if key not in cache:
        cache[key] = ProjPresentation(simple(bq, field, x))
    return cache[key]


def _cover(M: Representation):
    """The minimal projective cover of M, checked, with its kernel bases.

    Returns (P, cover, kernels): P is a direct sum of vertex projectives,
    one P(x) per top coordinate of M at x, from
    ``indecomposable_projective``; cover: P -> M sends the summand of the
    generator e_i of M_x, at its label of the path sigma: x -> z, to
    M_sigma e_i; kernels[z] is the ``kernel_basis`` of cover_z.  Paths
    are evaluated on the generator columns only: the trivial path gives
    the e_i themselves, and a path a*tau is M_a applied to the value of
    tau, computed once per call.  The cover is
    checked to be a morphism once, and onto at every vertex by
    dim P_z - dim ker = d_z(M), which reads the kernel's elimination.
    """
    bq, field = M.bq, M.field
    quiver = bq.quiver
    zero, one = field.zero, field.one
    summands = []
    cover_rows = {z: [[] for _ in range(M.dims[z])] for z in quiver.vertices}
    for x in quiver.vertices:
        rad = radical_subspace(M, x)
        # the coordinates off the pivots of the radical's columns span the top
        leads = set(_forward_pivots(field, rad.transpose().rows)) if rad is not None else ()
        free = [i for i in range(M.dims[x]) if i not in leads]
        if not free:
            continue
        proj = indecomposable_projective(bq, field, x)
        summands.extend([proj.P] * len(free))
        # rows of M_sigma restricted to the columns e_i, by arrow word
        # (arrows[0] acts last)
        images = {(): [[one if r == i else zero for i in free]
                       for r in range(M.dims[x])]}

        def image(arrows):
            out = images.get(arrows)
            if out is None:
                out = images[arrows] = _product(
                    field, M.mats[arrows[0]].rows, image(arrows[1:]), len(free))
            return out

        gens = range(len(free))
        for z in quiver.vertices:
            evals = [image(sigma.arrows) for _, sigma in proj.paths[z]]
            if evals:
                for r, row in enumerate(cover_rows[z]):
                    at_r = [e[r] for e in evals]
                    row.extend([e[k] for k in gens for e in at_r])
    P = direct_sum(*summands) if summands else zero_rep(bq, field)
    cover = VertexCochain(P, M, {z: Matrix._adopt(field, rows, P.dims[z])
                                 for z, rows in cover_rows.items()})
    if not cover.is_morphism():
        raise QuiverError("projective cover construction failed to be a morphism")
    kernels = {z: kernel_basis(cover.mats[z]) for z in quiver.vertices}
    for z in quiver.vertices:
        if P.dims[z] - kernels[z].dim != M.dims[z]:
            raise QuiverError("projective cover failed to be surjective")
    return P, cover, kernels


def projective_cover(M: Representation):
    """Minimal projective cover built from a transversal of the top.

    Returns (P, cover) with P a direct sum of vertex projectives, one
    per top coordinate, and cover: P -> M surjective.  The vertex
    projectives come from ``indecomposable_projective``, so they are
    built once per bound quiver and field; the cover is checked to be a
    morphism and onto (see ``_cover``).
    """
    P, cover, _ = _cover(M)
    return P, cover


def _minimal_syzygy(M: Representation):
    """The kernel of the minimal projective cover, with no inclusion built.

    Returns (omega, P, kernels), with P and kernels as in ``_cover``.
    The arrow matrix of omega at a: s -> t is one product, P_a applied
    to the kernel basis at s, read at the lead columns of the kernel
    basis at t and checked by one recombination; these are the
    coordinates ``kernel_representation`` reads vector by vector.
    """
    P, _, kernels = _cover(M)
    field = M.field
    mats = {}
    for a in M.bq.quiver.arrows:
        src, tgt = kernels[a.source], kernels[a.target]
        images = _product(field, src.vectors, P.mats[a.name].transpose().rows,
                          tgt.ambient_dim)
        coords = [[v[j] for j in tgt.leads] for v in images]
        if _product(field, coords, tgt.vectors, tgt.ambient_dim) != images:
            raise QuiverError("arrow does not preserve the kernel (not a morphism?)")
        mats[a.name] = Matrix._adopt(
            field, [[c[t] for c in coords] for t in range(tgt.dim)], src.dim)
    dims = {x: kernels[x].dim for x in M.bq.quiver.vertices}
    return Representation(M.bq, field, dims, mats, check=False), P, kernels


def syzygy(M: Representation):
    """Kernel of the minimal projective cover, with its inclusion.

    The kernel comes from ``_minimal_syzygy``; the inclusion's matrix at
    x has the kernel basis at x as its columns.
    """
    omega, P, kernels = _minimal_syzygy(M)
    return omega, VertexCochain(omega, P, {x: kernels[x].matrix_of_columns()
                                           for x in M.bq.quiver.vertices})


def is_projective(M: Representation) -> bool:
    """Whether M is isomorphic to the projective built on its own top.

    ``projective_cover`` raises unless its cover P -> M is onto at every
    vertex, and an onto map between spaces of equal dimension is
    invertible.  So M is projective exactly when P and M have the same
    dimension vector; no isomorphism search is needed.
    """
    P, _ = projective_cover(M)
    return P.dim_vector() == M.dim_vector()


def gldim_le2_check(bq: BoundQuiver, field) -> bool:
    """Whether every simple has projective second syzygy."""
    cache = bq._gldim_cache
    if field.name in cache:
        return cache[field.name]
    verdict = True
    for x in bq.quiver.vertices:
        first = _minimal_syzygy(simple(bq, field, x))[0]
        second = _minimal_syzygy(first)[0]
        if not is_projective(second):
            verdict = False
            break
    cache[field.name] = verdict
    return verdict
