import importlib
import random
from fractions import Fraction

import pytest

from quiverext.ext1 import (
    ArrowCochain,
    RelationCochain,
    b_space,
    ext1,
    is_cocycle,
    middle_term,
    pullback_class,
    pushout_class,
    relation_boundary_matrix,
    z_dim,
    z_path,
    z_rho,
    z_space,
)
from quiverext.ext2 import (
    Ext2Model,
    _cover,
    _top,
    indecomposable_projective,
    syzygy,
)
from quiverext.fields import QQ
from quiverext.geometry import _epsilon_matrix, scaling_family, tangent_module_variety
from quiverext.iso import iso_test
from quiverext.linalg import (
    Matrix,
    _product,
    _rref,
    column_space_basis,
    coordinates_in_basis,
    hstack,
    kernel_basis,
    kron_add,
    linear_map_matrix,
    rank,
    row_space_basis,
    solve,
)
from quiverext.quiver import Path, QuiverError, is_acyclic
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

from cases import (
    CASES,
    CASES_WITH_F2,
    F2,
    F101,
    case_modules,
    case_workspace,
    rref_reducer,
    standard_cover,
    typed,
    with_rational_conjugates,
)


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
    assert ext1(m["P3"], m["S2"]).class_of(Z).is_zero


def test_extension_of_simples_realizes_the_projective(f2):
    m = f2.modules
    space = ext1(m["S2"], m["S1"])
    assert space.dim == 1
    Z = space.basis_cocycles()[0]
    assert not space.class_of(Z).is_zero
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


def test_matrices_keyed_by_no_arrow_or_slot_are_refused(f2):
    """A misspelt key raises and is named, rather than being dropped."""
    m = f2.modules
    S1 = m["S1"]
    block = Matrix.zeros(S1.field, 1, 1)
    with pytest.raises(QuiverError, match="^matrices for no arrow: 1, z$"):
        Representation(S1.bq, S1.field, S1.dims, {"z": block, "1": block})
    cases = ((VertexCochain, "a"), (ArrowCochain, "1"), (RelationCochain, "a"))
    for cls, key in cases:
        with pytest.raises(QuiverError, match=f"^{cls.kind} cochain blocks for no slot: {key}$"):
            cls(S1, S1, {key: block})


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


@pytest.mark.parametrize("name", ["f1", "f2", "f3", "loops"])
def test_structural_data_is_kept_per_bound_quiver(name, monkeypatch):
    """Each kind's slot list and the acyclicity verdict are built once per
    bound quiver and equal a fresh build."""
    bq = case_workspace(name, QQ).bound_quiver
    for cls in KINDS:
        assert cls.slots(bq) is cls.slots(bq)
        assert list(cls.slots(bq)) == cls._slot_list(bq)
    quiver_module = importlib.import_module("quiverext.quiver")
    sorters = []
    real_sorter = quiver_module.TopologicalSorter

    def counting_sorter(graph):
        sorters.append(graph)
        return real_sorter(graph)

    monkeypatch.setattr(quiver_module, "TopologicalSorter", counting_sorter)
    other = case_workspace(name, QQ).bound_quiver
    verdicts = {is_acyclic(b) for b in (bq, other, bq, other)}
    assert len(sorters) == 2 and len(verdicts) == 1
    assert verdicts == {name != "loops"}


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
        h = VertexCochain.from_vector(V, U, vec)
        out = []
        for a in V.bq.quiver.arrows:
            delta = U.mats[a.name] @ h.mats[a.source] - h.mats[a.target] @ V.mats[a.name]
            for row in delta.rows:
                out.extend(row)
        return out

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
    mods = with_rational_conjugates(case_modules(name, field, seed=11))
    for V in mods:
        for U in mods:
            assert_same_entries(relation_boundary_matrix(V, U), probe_relation_matrix(V, U))
            assert_same_entries(-hom_system(V, U), probe_coboundary_matrix(V, U))
            assert_same_entries(hom_system(V, U), probe_hom_matrix(V, U))


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
            assert [coordinates_in_basis(space.z, bvec) for bvec in space.b.vectors] == coords
            assert (space._b_in_z.vectors, space._b_in_z.leads) == _rref(field, coords)
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
    assert typed(new.rows) == typed(old.rows)


def assert_same_mats(new, old):
    assert list(new) == list(old)
    for key in old:
        assert_same_entries(new[key], old[key])


@pytest.mark.parametrize("name, field", CASES, ids=str)
def test_block_builders_equal_the_row_loops(name, field):
    mods = with_rational_conjugates(case_modules(name, field, seed=13))
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
    for d in range(4):
        assert_same_entries(_epsilon_matrix(field, d), rows_epsilon(field, d))


def cover_labels(N, gens):
    """The labels (y, j, sigma) of the cover on gens, vertex by vertex."""
    ab = N.bq.algebra_basis(N.field)
    vertices = N.bq.quiver.vertices
    return {x: [(y, j, sigma) for y in vertices for j in gens[y]
                for sigma in ab.basis.get((x, y), ())] for x in vertices}


def per_label_p(N, labels):
    """P's arrow matrices, reducing a*sigma once per label (y, j, sigma)."""
    field, ab = N.field, N.bq.algebra_basis(N.field)
    mats = {}
    for a in N.bq.quiver.arrows:
        n = len(labels[a.target])
        index = {(y, j, tau.arrows): i for i, (y, j, tau) in enumerate(labels[a.target])}
        cols = []
        for (y, j, sigma) in labels[a.source]:
            col = [field.zero] * n
            for c, tau in ab.reduce_path(Path(y, a.target, (a.name,) + sigma.arrows)):
                col[index[(y, j, tau.arrows)]] = c
            cols.append(col)
        mats[a.name] = Matrix.from_columns(field, n, cols)
    return mats


def per_label_cover(N, labels):
    """The cover P -> N, evaluating N_sigma once per label."""
    return {x: Matrix.from_columns(N.field, N.dims[x],
                                   [N.eval_path(sigma).col(j) for (y, j, sigma) in labels[x]])
            for x in N.bq.quiver.vertices}


@pytest.mark.parametrize("name, field", CASES, ids=str)
def test_presentation_builders_equal_the_per_label_loops(name, field, monkeypatch):
    """The minimal and the standard cover evaluate no whole path matrix of
    N (only its generator columns); same entries."""
    evaluated = []
    real_eval_path = Representation.eval_path

    def counting_eval_path(rep, path):
        evaluated.append((rep, path))
        return real_eval_path(rep, path)

    mods = with_rational_conjugates(case_modules(name, field, seed=19))
    mods.append(zero_rep(mods[0].bq, field))
    vertices = mods[0].bq.quiver.vertices
    for N in mods:
        top = _top(N)
        for gens in (top, {y: range(N.dims[y]) for y in vertices}):
            monkeypatch.setattr(Representation, "eval_path", counting_eval_path)
            P, cover = _cover(N, gens)
            monkeypatch.undo()
            assert not any(rep is N for rep, _ in evaluated)
            evaluated.clear()
            labels = cover_labels(N, gens)
            assert all(len(labels[x]) == P.dims[x] for x in vertices)
            assert_same_mats(P.mats, per_label_p(N, labels))
            assert_same_mats(cover.mats, per_label_cover(N, labels))
        assert_same_mats(_cover(N, top)[1].mats, whole_path_cover(N)[1].mats)


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
def test_class_of_rejects_a_non_cocycle(field):
    ws = case_workspace("loops", field)
    X, S = ws.modules["X"], ws.modules["S"]
    space = ext1(X, S)
    # Z_x = 0 and Z_y = [0 1]: the relation x*y - y*x takes the value
    # -Z_y X_x = [-1 0], so this cochain is no cocycle
    bad = ArrowCochain.from_vector(X, S, [field.zero] * 3 + [field.one])
    assert not is_cocycle(bad)
    with pytest.raises(QuiverError, match="^cochain is not a cocycle for this pair$"):
        space.class_of(bad)
    with pytest.raises(QuiverError):  # its middle term fails the relation
        middle_term(bad)
    for Z in space.basis_cocycles():
        cls = space.class_of(Z)
        assert space.class_of(cls.representative()) == cls


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
def test_ext1_rejects_a_coboundary_outside_the_cocycles(field, monkeypatch):
    ws = case_workspace("loops", field)
    X, S = ws.modules["X"], ws.modules["S"]
    true_h = hom_system(X, S)
    # the non-cocycle of test_class_of_rejects_a_non_cocycle
    outside = [field.zero] * 3 + [field.one]
    assert not is_cocycle(ArrowCochain.from_vector(X, S, outside))

    def planted_hom_system(V, U):
        return hstack(true_h, Matrix.from_columns(field, true_h.nrows, [outside]))

    # the package attribute quiverext.ext1 is the function, not the module
    monkeypatch.setattr(importlib.import_module("quiverext.ext1"), "hom_system",
                        planted_hom_system)
    with pytest.raises(QuiverError, match="^coboundary outside the cocycle space$"):
        ext1(X, S)


def kron_hom_system(M, N):
    """The Hom system assembled as two Kronecker blocks per arrow."""
    field = M.field
    col0, ncols = VertexCochain.offsets(M, N)
    row0, nrows = ArrowCochain.offsets(M, N)
    rows = [[field.zero] * ncols for _ in range(nrows)]
    minus_one = field.neg(field.one)
    for a in M.bq.quiver.arrows:
        eye_t = Matrix.identity(field, N.dims[a.target])
        eye_s = Matrix.identity(field, M.dims[a.source])
        kron_add(field, rows, row0[a.name], col0[a.target], field.one, eye_t,
                 M.mats[a.name])
        kron_add(field, rows, row0[a.name], col0[a.source], minus_one,
                 N.mats[a.name], eye_s)
    return Matrix(field, rows, ncols)


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_hom_system_equals_the_kronecker_body(name, field):
    """Same entries of the same types; B and dim Hom read from it unchanged."""
    mods = with_rational_conjugates(case_modules(name, field, seed=41))
    for M in mods:
        for N in mods:
            want = kron_hom_system(M, N)
            assert_same_entries(hom_system(M, N), want)
            assert hom_dim(M, N) == len(hom_basis(M, N)) == kernel_basis(want).dim
            old_b = row_space_basis((-want).transpose())
            assert_same_entries(b_space(M, N).matrix_of_columns(), old_b.matrix_of_columns())


# -- one-pass builders against the bodies they replaced -------------------
#
# Each oracle below is the earlier body: whole path matrices, identity
# matrices for empty arrow words, zero and identity blocks, and the
# cover's morphism check and elimination done twice.


def radical_subspace(M, x):
    """Matrix whose columns span the radical piece at a vertex."""
    blocks = [M.mats[a.name] for a in M.bq.quiver.arrows if a.target == x]
    if not blocks:
        return None
    out = blocks[0]
    for b in blocks[1:]:
        out = hstack(out, b)
    return out


def path_reduced_projective(bq, field, x):
    """P(x) as the standard presentation of the simple at x built it: its
    labels (x, sigma, 0), with a*sigma reduced once per label."""
    N = simple(bq, field, x)
    ab = bq.algebra_basis(field)
    quiver = bq.quiver
    paths = {z: [(y, sigma) for y in quiver.vertices if N.dims[y]
                 for sigma in ab.basis.get((z, y), ())] for z in quiver.vertices}
    index = {z: {(y, sigma.arrows, j): i for i, (y, sigma, j) in enumerate(
        [(y, sigma, j) for y, sigma in paths[z] for j in range(N.dims[y])])}
        for z in quiver.vertices}
    dims = {z: len(index[z]) for z in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        cols = []
        for y, sigma in paths[a.source]:
            reduced = ab.reduce_path(Path(y, a.target, (a.name,) + sigma.arrows))
            for j in range(N.dims[y]):
                col = [field.zero] * dims[a.target]
                for c, tau in reduced:
                    col[index[a.target][(y, tau.arrows, j)]] = c
                cols.append(col)
        mats[a.name] = Matrix.from_columns(field, dims[a.target], cols)
    return Representation(bq, field, dims, mats, check=True)


def per_vector_kernel(f):
    """The kernel subrepresentation, each arrow's image of a kernel basis
    vector read in the target's kernel basis one vector at a time."""
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


def whole_path_cover(M):
    """The minimal cover from whole path matrices and block_diag."""
    bq, field = M.bq, M.field
    quiver = bq.quiver
    ab = bq.algebra_basis(field)
    summands = []
    cover_cols = {z: [] for z in quiver.vertices}
    for x in quiver.vertices:
        rad = radical_subspace(M, x)
        leads = set(column_space_basis(rad).leads) if rad is not None else ()
        free = [i for i in range(M.dims[x]) if i not in leads]
        if not free:
            continue
        proj = path_reduced_projective(bq, field, x)
        evals = {z: [M.eval_path(sigma) for sigma in ab.basis.get((z, x), ())]
                 for z in quiver.vertices}
        for i in free:
            summands.append(proj)
            for z in quiver.vertices:
                cover_cols[z].extend(m.col(i) for m in evals[z])
    if not summands:
        P = zero_rep(bq, field)
        return P, VertexCochain(P, M, {})
    P = direct_sum(*summands)
    mats = {z: Matrix.from_columns(field, M.dims[z], cover_cols[z])
            for z in quiver.vertices}
    cover = VertexCochain(P, M, mats)
    if not cover.is_morphism():
        raise QuiverError("projective cover construction failed to be a morphism")
    for z in quiver.vertices:
        if cover.mats[z].rank() != M.dims[z]:
            raise QuiverError("projective cover failed to be surjective")
    return P, cover


def whole_path_syzygy(M):
    return per_vector_kernel(whole_path_cover(M)[1])


def identity_word(R, arrows, vertex):
    if not arrows:
        return Matrix.identity(R.field, R.dims[vertex])
    return R.eval_arrow_word(arrows, vertex)


def identity_word_boundary_matrix(V, U):
    field = V.field
    quiver = V.bq.quiver
    col0, ncols = ArrowCochain.offsets(V, U)
    row0, nrows = RelationCochain.offsets(V, U)
    rows = [[field.zero] * ncols for _ in range(nrows)]
    for rel in V.bq.relations:
        for coeff, path in rel.terms:
            c = field.of_fraction(coeff)
            arrows = path.arrows
            for i, name in enumerate(arrows):
                head = identity_word(U, arrows[:i], quiver.arrow_map[name].target)
                tail = identity_word(V, arrows[i + 1:], path.source)
                kron_add(field, rows, row0[rel.name], col0[name], c, head, tail)
    return Matrix(field, rows, ncols)


def identity_word_z_path(Z, path):
    V, U = Z.source, Z.target
    if path.length == 0:
        return Matrix.zeros(V.field, U.dims[path.source], V.dims[path.source])
    arrows = path.arrows
    quiver = V.bq.quiver
    total = None
    for i, name in enumerate(arrows):
        head = identity_word(U, arrows[:i], quiver.arrow_map[name].target)
        tail = identity_word(V, arrows[i + 1:], path.source)
        term = head @ Z.mats[name] @ tail
        total = term if total is None else total + term
    return total


def one_pass_cases(name, field, seed):
    mods = with_rational_conjugates(case_modules(name, field, seed=seed))
    return mods + [zero_rep(mods[0].bq, field)]


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_syzygy_equals_the_whole_path_body(name, field):
    """The cover, Omega and its inclusion, entry for entry and type for type."""
    for M in one_pass_cases(name, field, seed=43):
        P, cover = _cover(M, _top(M))
        old_p, old_cover = whole_path_cover(M)
        assert P.dims == old_p.dims
        assert_same_mats(P.mats, old_p.mats)
        assert_same_mats(cover.mats, old_cover.mats)
        for N in (M, syzygy(M)[0]):  # the second syzygy runs on a built Omega
            omega, incl = syzygy(N)
            old_omega, old_incl = whole_path_syzygy(N)
            assert omega.dims == old_omega.dims
            assert_same_mats(omega.mats, old_omega.mats)
            assert incl.source is omega and incl.target.dims == old_incl.target.dims
            assert_same_mats(incl.mats, old_incl.mats)


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_projectives_equal_the_path_reduction_body(name, field):
    bq = case_workspace(name, field).bound_quiver
    for x in bq.quiver.vertices:
        P, old = indecomposable_projective(bq, field, x), path_reduced_projective(bq, field, x)
        assert P.dims == old.dims
        assert_same_mats(P.mats, old.mats)
        assert indecomposable_projective(bq, field, x) is P


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_kernel_representation_equals_the_per_vector_readout(name, field):
    """On minimal and standard covers, middle-term projections and
    endomorphisms: the same kernel and inclusion, entry for entry."""
    mods = one_pass_cases(name, field, seed=59)
    rng = random.Random(59)
    maps = []
    for M in mods:
        maps += [_cover(M, _top(M))[1], standard_cover(M)]
        maps += hom_basis(M, M)[:3]
        maps.append(middle_term(random_cocycle(M, rng.choice(mods), rng))[2])
    for f in maps:
        K, incl = kernel_representation(f)
        old_k, old_incl = per_vector_kernel(f)
        assert K.dims == old_k.dims
        assert_same_mats(K.mats, old_k.mats)
        assert incl.source is K and incl.target is f.source
        assert_same_mats(incl.mats, old_incl.mats)


def relation_breaking(name, field):
    """A representation, built unchecked, that breaks a relation."""
    ws = case_workspace(name, field)
    M = ws.modules["P4" if name == "f3" else "A"]
    mats = dict(M.mats)
    if name == "f3":  # a*b - c*d no longer vanishes
        mats["d"] = Matrix.zeros(field, 1, 1)
    else:  # y*x - x*y no longer vanishes
        mats["y"] = Matrix(field, [[0] * 4, [0] * 4, [1, 0, 0, 0], [0] * 4], 4)
    bad = Representation(M.bq, field, M.dims, mats, check=False)
    assert any(not bad.eval_relation(rel).is_zero() for rel in M.bq.relations)
    return bad


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
@pytest.mark.parametrize("name", ["f3", "loops"])
def test_syzygy_raises_as_the_whole_path_body_on_a_non_morphism(name, field):
    bad = relation_breaking(name, field)
    with pytest.raises(QuiverError) as new:
        syzygy(bad)
    with pytest.raises(QuiverError) as old:
        whole_path_syzygy(bad)
    assert str(new.value) == str(old.value) == \
        "projective cover construction failed to be a morphism"


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_boundary_matrix_z_path_and_middle_term_equal_the_identity_bodies(name, field):
    """No identity or zero block changes an entry or its type."""
    mods = one_pass_cases(name, field, seed=47)
    rng = random.Random(47)
    bq = mods[0].bq
    paths = [p for rel in bq.relations for _, p in rel.terms]
    paths += [p for ps in bq.algebra_basis(field).basis.values() for p in ps]
    for V in mods:
        for U in mods:
            assert_same_entries(relation_boundary_matrix(V, U),
                                identity_word_boundary_matrix(V, U))
            Z = random_cocycle(V, U, rng)
            for p in paths:
                assert_same_entries(z_path(Z, p), identity_word_z_path(Z, p))
            W, incl, proj = middle_term(Z)
            mats, incl_rows, proj_rows = rows_middle_term(Z)
            assert W.dims == {x: U.dims[x] + V.dims[x] for x in bq.quiver.vertices}
            assert_same_mats(W.mats, mats)
            assert incl.source is U and incl.target is W
            assert_same_mats(incl.mats, incl_rows)
            assert proj.source is W and proj.target is V
            assert_same_mats(proj.mats, proj_rows)


# -- dimensions read without the basis or the reducer behind them -----------


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_dimension_only_paths_equal_their_bases(name, field):
    """rank, hom_dim, z_dim, ExtSpace1.dim and Ext2Model.dim build
    no basis or reducer; each equals the count its basis or reducer gives."""
    mods = with_rational_conjugates(case_modules(name, field, seed=61))
    for M in mods:
        for N in mods:
            system = hom_system(M, N)
            assert rank(system) == len(_rref(field, system.rows)[1])
            assert hom_dim(M, N) == kernel_basis(system).dim == len(hom_basis(M, N))
            space = ext1(M, N)
            assert "_b_in_z" not in vars(space)
            reducer = space._b_in_z
            assert space.dim == len(reducer.free_coordinates()) == space.z.dim - reducer.dim
            boundary = relation_boundary_matrix(M, N)
            assert rank(boundary) == len(_rref(field, boundary.rows)[1])
            assert z_dim(M, N) == space.z.dim
            assert rank(system) == space.b.dim
            model = Ext2Model(M, N, boundary, rank(boundary))
            assert "bprime" not in vars(model)
            bprime = column_space_basis(boundary)
            assert model.dim == len(model.bprime.free_coordinates()) == \
                model.ambient_dim - bprime.dim
            assert model.bprime == bprime


# -- Ext^1 and tangent spaces with their bases built on first use -----------


class EagerExtSpace1:
    """The earlier ExtSpace1 body: Z, B and the recombination check of B's
    coordinates in Z, all at construction."""

    def __init__(self, V, U):
        self.field = V.field
        self.z = z_space(V, U)
        self.b = b_space(V, U)
        coords = [[bvec[j] for j in self.z.leads] for bvec in self.b.vectors]
        if _product(self.field, coords, self.z.vectors, self.z.ambient_dim) != self.b.vectors:
            raise QuiverError("coboundary outside the cocycle space")
        self._b_coords = coords
        self.dim = self.z.dim - self.b.dim
        self.reduce = rref_reducer(self.field, coords)

    def class_coords(self, Z):
        coords = coordinates_in_basis(self.z, Z.to_vector())
        if coords is None:
            raise QuiverError("cochain is not a cocycle for this pair")
        return tuple(self.reduce(coords))


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_lazy_ext1_and_tangent_spaces_equal_the_eager_body(name, field):
    """Z, B, B's coordinates in Z, the reducer and class_of as the eager
    body builds them, entry and type; the dimension is the same whether it
    is read before the bases or after them; the tangent dimension equals
    its basis and z_space.  Over Q on the loops modules most of the time is
    eliminating the relation systems, once each for the eager body, ext1
    and the z_space of the random cocycles."""
    mods = with_rational_conjugates(case_modules(name, field, seed=73))
    rng = random.Random(73)
    for V in mods:
        for U in mods:
            old = EagerExtSpace1(V, U)
            first = ext1(V, U)
            dim_before = first.dim
            assert not {"z", "b", "_b_in_z"} & set(vars(first))
            after = ext1(V, U)
            z, b = after.z, after.b
            assert dim_before == after.dim == old.dim == first.dim
            assert typed(z.vectors) == typed(old.z.vectors)
            assert z.leads == old.z.leads
            assert typed(b.vectors) == typed(old.b.vectors)
            assert b.leads == old.b.leads
            rows, pivots = _rref(field, old._b_coords)
            assert typed(after._b_in_z.vectors) == typed(rows)
            assert after._b_in_z.leads == pivots
            for _ in range(3):
                coords = [field.of(rng.randint(-5, 5)) for _ in range(z.dim)]
                assert typed([after._b_in_z.reduce(coords)]) == typed([old.reduce(coords)])
                Z = random_cocycle(V, U, rng)
                assert typed([first.class_of(Z).coords]) == \
                    typed([old.class_coords(Z)])
        tangent = tangent_module_variety(V)
        assert "basis" not in vars(tangent)
        dim = tangent.dim
        assert "basis" not in vars(tangent)
        want = z_space(V, V)
        assert dim == tangent.basis.dim == want.dim
        assert typed(tangent.basis.vectors) == typed(want.vectors)


@pytest.mark.parametrize("field", [F101, F2], ids=str)
def test_a_representation_with_unreduced_entries_equals_the_parsed_one(field):
    """Each entry shifted by p: the raw values differ from the parsed
    module's residues, the module does not."""
    shifted_entries = 0
    for M in case_workspace("f3", field).modules.values():
        p = field.char
        mats = {a: Matrix(field, [[x + p for x in row] for row in m.rows], m.ncols)
                for a, m in M.mats.items()}
        shifted = Representation(M.bq, field, M.dims, mats)
        assert shifted == M and M == shifted
        shifted_entries += sum(m.nrows * m.ncols for m in mats.values())
    assert shifted_entries
