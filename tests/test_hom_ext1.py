import importlib
import random
from fractions import Fraction

import pytest

from quiverext.ext1 import (
    ArrowCochain,
    RelationCochain,
    b_space,
    coboundary,
    coboundary_matrix,
    ext1,
    is_cocycle,
    is_split,
    middle_term,
    pullback_class,
    pushout_class,
    relation_boundary_matrix,
    z_path,
    z_rho,
    z_space,
)
from quiverext.ext2 import (
    ProjPresentation,
    indecomposable_projective,
    projective_cover,
    radical_subspace,
    top_dims,
)
from quiverext.fields import QQ
from quiverext.geometry import _epsilon_matrix, scaling_family
from quiverext.iso import iso_test
from quiverext.linalg import (
    Matrix,
    QuotientSpace,
    SubspaceBasis,
    column_space_basis,
    kernel_basis,
    linear_map_matrix,
    row_space_basis,
    solve,
)
from quiverext.quiver import Path, QuiverError
from quiverext.rep import (
    Representation,
    VertexCochain,
    direct_sum,
    hom_basis,
    hom_dim,
    hom_system,
    kernel_representation,
    simple,
    zero_rep,
)
from quiverext.suites import random_cocycle

from cases import CASES, F101, case_modules, case_workspace


def identity_hom(rep):
    return VertexCochain(rep, rep, {
        x: Matrix.identity(rep.field, rep.dims[x])
        for x in rep.bq.quiver.vertices
    })


def test_hom_dimensions(f2):
    m = f2.modules
    assert hom_dim(m["P2"], m["P3"]) == 1
    assert hom_dim(m["P3"], m["P2"]) == 0
    assert hom_dim(m["M"], m["M"]) == 3
    assert hom_dim(m["S2"], m["P3"]) == 1
    assert hom_dim(m["N"], m["N"]) == 4
    assert hom_dim(m["S2"], m["S1"]) == 0


def test_hom_basis_elements_are_morphisms(f2):
    for f in hom_basis(f2.modules["M"], f2.modules["M"]):
        assert f.is_morphism()


def test_kernel_of_a_projection_is_the_simple_socle(f2):
    m = f2.modules
    M, V = m["M"], m["V"]
    field = M.field
    proj = VertexCochain(M, V, {
        "2": Matrix.identity(field, 2),
        "3": Matrix.identity(field, 1),
    })
    assert proj.is_morphism()
    ker, incl = kernel_representation(proj)
    assert incl.is_morphism()
    assert iso_test(ker, m["S1"]).verdict == "yes"


def test_cocycle_space_dimensions(f2):
    m = f2.modules
    assert z_space(m["S2"], m["S1"]).dim == 1
    assert z_space(m["P3"], m["S1"]).dim == 0
    assert z_space(m["N"], m["N"]).dim == 3
    assert z_space(m["M"], m["M"]).dim == 3


def test_relation_rules_out_the_non_cocycle(f2):
    """Over a*b = 0 the block Z_a must kill the image of V_b."""
    m = f2.modules
    M, S1 = m["M"], m["S1"]
    assert z_space(M, S1).dim == 1
    bad = ArrowCochain.from_vector(M, S1, [S1.field.of(0), S1.field.of(1)])
    assert not is_cocycle(bad)
    with pytest.raises(QuiverError):
        ext1(M, S1).class_of(bad)


def test_path_action_follows_the_product_rule(f2):
    m = f2.modules
    M, P2 = m["M"], m["P2"]
    field = M.field
    ones = [field.of(1)] * 3
    Z = ArrowCochain.from_vector(M, P2, ones)
    val = z_path(Z, f2.bound_quiver.quiver.path(["a", "b"]))
    # U_a Z_b + Z_a V_b = [1][1] + [1 1][0;1], worked out by hand
    assert val.shape() == (1, 1)
    assert val.rows[0][0] == field.of(2)


def test_coboundaries_and_split_extensions(f2):
    m = f2.modules
    bs = b_space(m["P3"], m["S2"])
    assert bs.dim == 1
    assert ext1(m["P3"], m["S2"]).dim == 0
    Z = ArrowCochain.from_vector(m["P3"], m["S2"], bs.vectors[0])
    assert is_split(Z)


def test_extension_of_simples_realizes_the_projective(f2):
    m = f2.modules
    space = ext1(m["S2"], m["S1"])
    assert space.dim == 1
    Z = space.basis_cocycles()[0]
    assert not is_split(Z)
    W, incl, proj = middle_term(Z)
    assert incl.is_morphism() and proj.is_morphism()
    assert iso_test(W, m["P2"]).verdict == "yes"


def test_projectives_admit_no_extensions(f2):
    m = f2.modules
    assert ext1(m["S2"], m["P2"]).dim == 0
    assert ext1(m["P2"], m["S1"]).dim == 0
    assert ext1(m["M"], m["M"]).dim == 0


def test_middle_term_is_exact(f2):
    m = f2.modules
    space = ext1(m["S2"], m["S1"])
    W, incl, proj = middle_term(space.basis_cocycles()[0])
    ker, _ = kernel_representation(proj)
    assert ker.dim_vector() == m["S1"].dim_vector()
    for x in W.bq.quiver.vertices:
        assert (proj.mats[x] @ incl.mats[x]).is_zero()


def test_class_of_a_representative_round_trips(f2):
    m = f2.modules
    space = ext1(m["N"], m["N"])
    assert space.dim == 1
    rng = random.Random(5)
    for _ in range(12):
        Z = ArrowCochain.zero(m["N"], m["N"])
        for base in space.basis_cocycles():
            Z = Z.add(base.scale(space.field.of(rng.randint(-4, 4))))
        cls = space.class_of(Z)
        assert space.class_of(cls.representative()) == cls


def test_pushout_and_pullback_along_identities(f2):
    m = f2.modules
    space = ext1(m["S2"], m["S1"])
    Z = space.basis_cocycles()[0]
    assert pushout_class(identity_hom(m["S1"]), Z, space) == space.class_of(Z)
    assert pullback_class(Z, identity_hom(m["S2"]), space) == space.class_of(Z)


def test_pullback_to_a_projective_splits(f2):
    m = f2.modules
    field = f2.modules["S2"].field
    Z = ext1(m["S2"], m["S1"]).basis_cocycles()[0]
    cover = VertexCochain(m["P2"], m["S2"], {"2": Matrix.identity(field, 1)})
    assert cover.is_morphism()
    assert pullback_class(Z, cover).is_zero


def test_pushout_along_zero_kills_the_class(f2):
    m = f2.modules
    space = ext1(m["S2"], m["S1"])
    Z = space.basis_cocycles()[0]
    zero_hom = VertexCochain(m["S1"], m["S1"], {})
    assert pushout_class(zero_hom, Z, space).is_zero
    assert not space.class_of(Z).is_zero


def test_self_extensions_of_the_degeneration(f2):
    m = f2.modules
    assert ext1(m["N"], m["N"]).dim == 1
    assert ext1(m["S2"], m["S2"]).dim == 0


def test_semisimple_tangent_dimension(f2):
    m = f2.modules
    semi = direct_sum(m["S1"], m["S2"], m["S3"])
    assert z_space(semi, semi).dim == 2


def test_cochain_blocks_must_match_the_dimension_vectors(f2):
    m = f2.modules
    wrong = m["M"].mats["a"]  # 1 x 2; S2 -> S1 has a 1 x 0 block at 1 and r, 1 x 1 at a
    cases = ((VertexCochain, "vertex 1"), (ArrowCochain, "arrow a"),
             (RelationCochain, "relation r"))
    for cls, slot in cases:
        with pytest.raises(QuiverError, match=f"^{slot}: cochain block has shape"):
            cls(m["S2"], m["S1"], {slot.split()[1]: wrong})


# -- the cochain layout ----------------------------------------------------

KINDS = (VertexCochain, ArrowCochain, RelationCochain)


def _random_cochain(cls, V, U, rng):
    n = cls.space_dim(V, U)
    return cls.from_vector(V, U, [V.field.of(rng.randint(-5, 5)) for _ in range(n)])


def _block(vec, start, key, m):
    return vec[start[key]:start[key] + m.nrows * m.ncols]


def _flat(m):
    return [x for row in m.rows for x in row]


@pytest.mark.parametrize("name, field", [("f2", QQ), ("f3", F101), ("loops", QQ)], ids=str)
def test_cochain_layout_round_trips(name, field):
    mods = case_modules(name, field, seed=3, max_summands=1)
    rng = random.Random(7)
    for cls in KINDS:
        for V in mods:
            for U in mods:
                start, total = cls.offsets(V, U)
                assert total == cls.space_dim(V, U)
                # slots are consecutive, in slot order, each as large as its block
                pos = 0
                for key, x, y in cls.slots(V.bq):
                    assert start[key] == pos
                    pos += U.dims[y] * V.dims[x]
                assert pos == total
                vec = [field.of(rng.randint(-5, 5)) for _ in range(total)]
                c = cls.from_vector(V, U, vec)
                assert list(c.mats) == list(start)
                for key, m in c.mats.items():
                    assert _block(vec, start, key, m) == _flat(m)
                assert c.to_vector() == vec
                with pytest.raises(ValueError, match=f"{cls.kind} layout"):
                    cls.from_vector(V, U, vec + [field.zero])
                if total:
                    with pytest.raises(ValueError, match=f"{cls.kind} layout"):
                        cls.from_vector(V, U, vec[:-1])


@pytest.mark.parametrize("name, field", [("f2", QQ), ("f3", F101), ("loops", QQ)], ids=str)
def test_systems_follow_the_layout_offsets(name, field):
    """Row and column blocks of the Z and Hom systems sit at offsets()."""
    mods = case_modules(name, field, seed=9, max_summands=1)
    rng = random.Random(2)
    for V in mods:
        for U in mods:
            rel_start, nrel = RelationCochain.offsets(V, U)
            arr_start, narr = ArrowCochain.offsets(V, U)
            _, nvert = VertexCochain.offsets(V, U)
            boundary = relation_boundary_matrix(V, U)
            assert boundary.shape() == (nrel, narr)
            Z = _random_cochain(ArrowCochain, V, U, rng)
            image = boundary.apply(Z.to_vector())
            for rel in V.bq.relations:
                value = z_rho(Z, rel)
                assert _block(image, rel_start, rel.name, value) == _flat(value)
            system = hom_system(V, U)
            assert system.shape() == (narr, nvert)
            f = _random_cochain(VertexCochain, V, U, rng)
            image = system.apply(f.to_vector())
            for a in V.bq.quiver.arrows:
                defect = f.mats[a.target] @ V.mats[a.name] - U.mats[a.name] @ f.mats[a.source]
                assert _block(image, arr_start, a.name, defect) == _flat(defect)


# -- block-assembled systems against the probe route ----------------------
#
# The probe closures below are the reference: they push unit vectors
# through the cochain operations, one column at a time.


def probe_relation_matrix(V, U):
    def apply(vec):
        Z = ArrowCochain.from_vector(V, U, vec)
        return RelationCochain(V, U, {rel.name: z_rho(Z, rel)
                                      for rel in V.bq.relations}).to_vector()

    return linear_map_matrix(V.field, ArrowCochain.space_dim(V, U),
                             RelationCochain.space_dim(V, U), apply)


def probe_coboundary_matrix(V, U):
    def apply(vec):
        return coboundary(VertexCochain.from_vector(V, U, vec)).to_vector()

    return linear_map_matrix(V.field, VertexCochain.space_dim(V, U),
                             ArrowCochain.space_dim(V, U), apply)


def probe_hom_matrix(M, N):
    def apply(vec):
        f = VertexCochain.from_vector(M, N, vec)
        out = []
        for a in M.bq.quiver.arrows:
            delta = f.mats[a.target] @ M.mats[a.name] - N.mats[a.name] @ f.mats[a.source]
            for row in delta.rows:
                out.extend(row)
        return out

    return linear_map_matrix(M.field, VertexCochain.space_dim(M, N),
                             ArrowCochain.space_dim(M, N), apply)


@pytest.mark.parametrize("name, field", CASES, ids=str)
def test_assembled_systems_equal_the_probed_ones(name, field):
    mods = case_modules(name, field, seed=11)
    for V in mods:
        for U in mods:
            assert relation_boundary_matrix(V, U) == probe_relation_matrix(V, U)
            assert coboundary_matrix(V, U) == probe_coboundary_matrix(V, U)
            assert hom_system(V, U) == probe_hom_matrix(V, U)


@pytest.mark.parametrize("name, field", CASES, ids=str)
def test_ext1_readout_equals_the_solve_route(name, field):
    """Z, B and the coboundary coordinates match the old per-vector route."""
    mods = case_modules(name, field, seed=5, max_summands=1)
    for V in mods[-4:]:
        for U in mods[-4:]:
            space = ext1(V, U)
            assert space.z.vectors == kernel_basis(probe_relation_matrix(V, U)).vectors
            old_rows = probe_coboundary_matrix(V, U).transpose()
            assert space.b.vectors == row_space_basis(old_rows).vectors
            zcols = space.z.matrix_of_columns()
            coords = [solve(zcols, bvec) for bvec in space.b.vectors]
            assert space.quotient.subspace.vectors == coords
            assert space.dim == space.z.dim - space.b.dim


# -- block builders against the row-writing loops they replaced -----------
#
# Each oracle below writes the rows of its matrices by hand, as the
# library did before it assembled them from block_diag, hstack, vstack
# and existing maps.


def rows_direct_sum(*reps):
    bq, field = reps[0].bq, reps[0].field
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
    return mats


def rows_middle_term(Z):
    """The arrow, inclusion and projection matrices of the middle term."""
    V, U = Z.source, Z.target
    field = V.field
    mats, incl, proj = {}, {}, {}
    for a in V.bq.quiver.arrows:
        ua, za, va = U.mats[a.name], Z.mats[a.name], V.mats[a.name]
        rows = []
        for i in range(ua.nrows):
            rows.append(list(ua.rows[i]) + list(za.rows[i]))
        for i in range(va.nrows):
            rows.append([field.zero] * ua.ncols + list(va.rows[i]))
        mats[a.name] = Matrix(field, rows, ua.ncols + va.ncols)
    for x in V.bq.quiver.vertices:
        du, dv = U.dims[x], V.dims[x]
        eye_u = Matrix.identity(field, du)
        eye_v = Matrix.identity(field, dv)
        incl_rows = [list(r) for r in eye_u.rows] + [[field.zero] * du for _ in range(dv)]
        proj_rows = [[field.zero] * du + list(r) for r in eye_v.rows]
        incl[x] = Matrix(field, incl_rows, du)
        proj[x] = Matrix(field, proj_rows, du + dv)
    return mats, incl, proj


def path_reduced_omega(pres):
    """The syzygy's arrow matrices by path reduction and the N_sigma term."""
    field, quiver, N = pres.field, pres.bq.quiver, pres.N
    dims = {x: len(pres.omega_labels[x]) for x in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        cols = []
        for (y, sigma, j) in pres.omega_labels[a.source]:
            col = [field.zero] * dims[a.target]
            extended = Path(y, a.target, (a.name,) + sigma.arrows)
            for c, tau in pres.basis.reduce_path(extended):
                idx = pres.omega_index[a.target][(y, tau.arrows, j)]
                col[idx] = field.add(col[idx], c)
            n_sigma = N.eval_path(sigma)
            for i in range(N.dims[a.source]):
                c = n_sigma.rows[i][j]
                if field.is_zero(c):
                    continue
                idx = pres.omega_index[a.target][(a.source, (a.name,), i)]
                col[idx] = field.sub(col[idx], c)
            cols.append(col)
        mats[a.name] = Matrix.from_columns(field, dims[a.target], cols)
    return mats


def rows_scaling(field, du, dv, s):
    rows = []
    for i in range(du):
        row = [field.zero] * (du + dv)
        row[i] = field.one
        rows.append(row)
    for i in range(dv):
        row = [field.zero] * (du + dv)
        row[du + i] = s
        rows.append(row)
    return Matrix(field, rows, du + dv)


def rows_epsilon(field, d):
    rows = []
    for i in range(d):
        row = [field.zero] * (2 * d)
        row[d + i] = field.one
        rows.append(row)
    for _ in range(d):
        rows.append([field.zero] * (2 * d))
    return Matrix(field, rows, 2 * d)


def assert_same_entries(new, old):
    """Equal shapes, entries and entry types (2 and Fraction(2) differ)."""
    assert new.shape() == old.shape()
    assert [[(type(x), x) for x in r] for r in new.rows] == \
        [[(type(x), x) for x in r] for r in old.rows]


def assert_same_mats(new, old):
    assert list(new) == list(old)
    for key in old:
        assert_same_entries(new[key], old[key])


@pytest.mark.parametrize("name, field", CASES, ids=str)
def test_block_builders_equal_the_row_loops(name, field):
    mods = case_modules(name, field, seed=13)
    mods.append(zero_rep(mods[0].bq, field))  # dimension 0 at every vertex
    rng = random.Random(17)
    for V in mods:
        for U in mods:
            assert_same_mats(direct_sum(U, V, V).mats, rows_direct_sum(U, V, V))
            Z = random_cocycle(V, U, rng)
            W, incl, proj = middle_term(Z)
            mats, incl_rows, proj_rows = rows_middle_term(Z)
            assert_same_mats(W.mats, mats)
            assert_same_mats(incl.mats, incl_rows)
            assert_same_mats(proj.mats, proj_rows)
            t = field.of(rng.choice((1, -1, 2, 3, Fraction(1, 2))))
            fam = scaling_family(Z, t)
            s = field.inv(t)
            assert fam.verified
            assert_same_mats(fam.conjugation, {
                x: rows_scaling(field, U.dims[x], V.dims[x], s)
                for x in U.bq.quiver.vertices})
    for N in mods:
        pres = ProjPresentation(N)
        assert_same_mats(pres.omega.mats, path_reduced_omega(pres))
    for d in range(4):
        assert_same_entries(_epsilon_matrix(field, d), rows_epsilon(field, d))


def per_label_p(pres):
    """P's arrow matrices, reducing a*sigma once per label (y, sigma, j)."""
    field = pres.field
    mats = {}
    for a in pres.bq.quiver.arrows:
        n = len(pres.p_labels[a.target])
        cols = []
        for (y, sigma, j) in pres.p_labels[a.source]:
            col = [field.zero] * n
            extended = Path(y, a.target, (a.name,) + sigma.arrows)
            for c, tau in pres.basis.reduce_path(extended):
                col[pres.p_index[a.target][(y, tau.arrows, j)]] = c
            cols.append(col)
        mats[a.name] = Matrix.from_columns(field, n, cols)
    return mats


def per_label_incl(pres):
    """The syzygy inclusion, evaluating N_sigma once per label."""
    field, N = pres.field, pres.N
    mats = {}
    for x in pres.bq.quiver.vertices:
        cols = []
        for (y, sigma, j) in pres.omega_labels[x]:
            col = [field.zero] * len(pres.p_labels[x])
            col[pres.p_index[x][(y, sigma.arrows, j)]] = field.one
            n_sigma = N.eval_path(sigma)
            for i in range(N.dims[x]):
                c = n_sigma.rows[i][j]
                if field.is_zero(c):
                    continue
                idx = pres.p_index[x][(x, (), i)]
                col[idx] = field.sub(col[idx], c)
            cols.append(col)
        mats[x] = Matrix.from_columns(field, len(pres.p_labels[x]), cols)
    return mats


def per_label_proj(pres):
    """The cover P -> N, evaluating N_sigma once per label."""
    return {x: Matrix.from_columns(pres.field, pres.N.dims[x],
                                   [pres.N.eval_path(sigma).col(j)
                                    for (y, sigma, j) in pres.p_labels[x]])
            for x in pres.bq.quiver.vertices}


def per_generator_cover(M):
    """The minimal cover's matrices, one presentation of a simple per generator."""
    bq, field = M.bq, M.field
    cols = {z: [] for z in bq.quiver.vertices}
    for x in bq.quiver.vertices:
        rad = radical_subspace(M, x)
        free = (range(M.dims[x]) if rad is None else
                QuotientSpace(field, M.dims[x], column_space_basis(rad)).free_coordinates())
        for i in free:
            gen = [field.zero] * M.dims[x]
            gen[i] = field.one
            pres = ProjPresentation(simple(bq, field, x))
            for z in bq.quiver.vertices:
                for (_, sigma, _) in pres.p_labels[z]:
                    cols[z].append(M.eval_path(sigma).apply(gen))
    return {z: Matrix.from_columns(field, M.dims[z], c) for z, c in cols.items()}


@pytest.mark.parametrize("name, field", CASES, ids=str)
def test_presentation_builders_equal_the_per_label_loops(name, field, monkeypatch):
    """Presentations and covers evaluate each path of N once, same entries."""
    evaluated = []
    real_eval_path = Representation.eval_path

    def counting_eval_path(rep, path):
        evaluated.append((rep, path))
        return real_eval_path(rep, path)

    mods = case_modules(name, field, seed=19)
    mods.append(zero_rep(mods[0].bq, field))
    vertices = mods[0].bq.quiver.vertices
    for N in mods:
        monkeypatch.setattr(Representation, "eval_path", counting_eval_path)
        pres = ProjPresentation(N)
        P, cover = projective_cover(N)
        monkeypatch.undo()
        on_n = [path for rep, path in evaluated if rep is N]
        evaluated.clear()
        tops = [x for x in vertices if top_dims(N)[x]]
        paths = sum(len(pres.paths[x]) for x in vertices)
        paths += sum(len(indecomposable_projective(N.bq, field, x).paths[z])
                     for x in tops for z in vertices)
        assert len(on_n) == paths
        assert_same_mats(pres.P.mats, per_label_p(pres))
        assert_same_mats(pres.incl.mats, per_label_incl(pres))
        assert_same_mats(pres.proj.mats, per_label_proj(pres))
        assert_same_mats(cover.mats, per_generator_cover(N))


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_class_of_rejects_a_non_cocycle(field):
    ws = case_workspace("loops", field)
    X, S = ws.modules["X"], ws.modules["S"]
    space = ext1(X, S)
    # Z_x = 0 and Z_y = [0 1]: the relation x*y - y*x takes the value
    # -Z_y X_x = [-1 0], so this cochain is no cocycle
    bad = ArrowCochain.from_vector(X, S, [field.zero] * 3 + [field.one])
    assert not is_cocycle(bad)
    with pytest.raises(QuiverError):
        space.class_of(bad)
    for Z in space.basis_cocycles():
        cls = space.class_of(Z)
        assert space.class_of(cls.representative()) == cls


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_ext1_rejects_a_coboundary_outside_the_cocycles(field, monkeypatch):
    ws = case_workspace("loops", field)
    X, S = ws.modules["X"], ws.modules["S"]
    true_b = b_space(X, S)
    # the non-cocycle of test_class_of_rejects_a_non_cocycle
    outside = [field.zero] * 3 + [field.one]
    assert not is_cocycle(ArrowCochain.from_vector(X, S, outside))

    def planted_b_space(V, U):
        return SubspaceBasis(field, true_b.ambient_dim, true_b.vectors + [outside])

    # the package attribute quiverext.ext1 is the function, not the module
    monkeypatch.setattr(importlib.import_module("quiverext.ext1"), "b_space",
                        planted_b_space)
    with pytest.raises(QuiverError, match="^coboundary outside the cocycle space$"):
        ext1(X, S)
