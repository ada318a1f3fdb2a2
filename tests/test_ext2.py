import importlib

import pytest

from quiverext.ext1 import (
    ArrowCochain,
    RelationCochain,
    b_space,
    coboundary,
    ext1,
    z_space,
)
from quiverext.ext2 import (
    Ext2Model,
    HypothesisError,
    compose_cocycles,
    exhibit_phi_kernel_boundary,
    ext2_small_model,
    ext2_via_omega,
    gldim_le2_check,
    indecomposable_projective,
    is_projective,
    phi,
    proj_presentation,
    projective_cover,
    syzygy,
    top_dims,
    yoneda_left,
    yoneda_left_omega,
)
from quiverext.cli import main
from quiverext.fields import QQ
from quiverext.fixtures import fixture_source, load_fixture
from quiverext.geometry import (
    degeneration_witness_search,
    id_le1,
    opposite_rep,
    pd_le1,
    regularity_certificate,
)
from quiverext.iso import iso_test
from quiverext.linalg import kernel_basis, linear_map_matrix
from quiverext.quiver import is_acyclic, validate_bound_quiver
from quiverext.rep import direct_sum, simple, zero_rep

from cases import F2, F101, case_modules, with_rational_conjugates


def combine(field, basis, coeffs):
    vec = [field.zero] * basis.ambient_dim
    for c, bvec in zip(coeffs, basis.vectors):
        vec = [field.add(x, field.mul(c, y)) for x, y in zip(vec, bvec)]
    return vec


@pytest.mark.parametrize("name, p_dims, omega_name", [
    ("P2", {"1": 2, "2": 1, "3": 0}, "S1"),
    ("P3", {"1": 1, "2": 2, "3": 1}, "P2"),
    ("S3", {"1": 0, "2": 1, "3": 1}, "S2"),
])
def test_presentation_shapes(f2, name, p_dims, omega_name):
    pres = proj_presentation(f2.modules[name])
    assert pres.P.dim_vector() == p_dims
    assert iso_test(pres.omega, f2.modules[omega_name]).verdict == "yes"
    assert pres.incl.is_morphism() and pres.proj.is_morphism()


def test_presentation_of_the_square_corner(f3):
    pres = proj_presentation(f3.modules["S4"])
    assert iso_test(pres.P, f3.modules["P4"]).verdict == "yes"
    assert iso_test(pres.omega, f3.modules["R4"]).verdict == "yes"


def test_second_extension_spot_values(f2, f3):
    m = f2.modules
    assert ext2_via_omega(m["S3"], m["S1"]).dim == 1
    assert ext2_via_omega(m["S3"], m["S2"]).dim == 0
    assert ext2_via_omega(m["P3"], m["S1"]).dim == 0
    assert ext2_via_omega(f3.modules["S4"], f3.modules["S1"]).dim == 1


def test_the_two_models_agree(f2, f3):
    pairs = [("S3", "S1"), ("S3", "S2"), ("P3", "S1"), ("M", "M"), ("N", "N")]
    for n_name, m_name in pairs:
        N, M = f2.modules[n_name], f2.modules[m_name]
        assert ext2_small_model(N, M).dim == ext2_via_omega(N, M).dim
    N, M = f3.modules["S4"], f3.modules["S1"]
    assert ext2_small_model(N, M).dim == ext2_via_omega(N, M).dim == 1


def test_relation_cochain_spaces(f2):
    m = f2.modules
    assert RelationCochain.space_dim(m["S3"], m["S1"]) == 1
    assert Ext2Model(m["S3"], m["S1"]).bprime.dim == 0
    # for (P3, S1) the boundaries fill the whole ambient space
    full = RelationCochain.space_dim(m["P3"], m["S1"])
    assert Ext2Model(m["P3"], m["S1"]).bprime.dim == full == 1


def test_transport_sends_the_generator_to_a_generator(f2):
    N, M = f2.modules["S3"], f2.modules["S1"]
    pres = proj_presentation(N)
    space = ext1(pres.omega, M)
    assert space.dim == 1
    Z = space.basis_cocycles()[0]
    assert not space.class_of(Z).is_zero
    model = ext2_small_model(N, M)
    assert not model.class_of(phi(N, M, Z, pres)).is_zero


def test_transport_kernel_vectors_are_exhibited_boundaries(f3):
    """Each cocycle killed by the transport is certified as a coboundary.

    The exhibiting cochain is rebuilt into an arrow cochain and compared
    entry for entry, so the certificate is checked, not trusted.
    """
    N, M = f3.modules["S4"], f3.modules["S1"]
    pres = proj_presentation(N)
    zs = z_space(pres.omega, M)
    field = M.field

    def apply(coeffs):
        Z = ArrowCochain.from_vector(pres.omega, M, combine(field, zs, coeffs))
        return phi(N, M, Z, pres).to_vector()

    codom = RelationCochain.space_dim(N, M)
    system = linear_map_matrix(field, zs.dim, codom, apply)
    kernel = kernel_basis(system)
    assert kernel.dim == 1
    for coeffs in kernel.vectors:
        Z = ArrowCochain.from_vector(pres.omega, M, combine(field, zs, coeffs))
        h = exhibit_phi_kernel_boundary(N, M, Z, pres)
        assert coboundary(h).to_vector() == Z.to_vector()


def test_yoneda_product_of_the_simple_chain(f2):
    m = f2.modules
    Zxi = ext1(m["S2"], m["S1"]).basis_cocycles()[0]
    eta_space = ext1(m["S3"], m["S2"])
    cls = eta_space.class_of(eta_space.basis_cocycles()[0])
    model = ext2_small_model(m["S3"], m["S1"])
    product = yoneda_left(Zxi, cls, model)
    assert not product.is_zero
    assert not yoneda_left_omega(Zxi, cls).is_zero
    assert model.zero_class().add(product) == product


def test_yoneda_product_ignores_boundary_shifts(f3):
    m = f3.modules
    space = ext1(m["R4"], m["S1"])
    assert space.dim == 1
    Zxi = next(Z for Z in space.basis_cocycles()
               if not space.class_of(Z).is_zero)
    boundary = ArrowCochain.from_vector(
        m["R4"], m["S1"], b_space(m["R4"], m["S1"]).vectors[0])
    xi3 = ext1(m["S4"], m["R4"])
    rep = xi3.class_of(xi3.basis_cocycles()[0]).representative()
    model = ext2_small_model(m["S4"], m["S1"])
    plain = model.class_of(compose_cocycles(Zxi, rep))
    shifted = model.class_of(compose_cocycles(Zxi.add(boundary), rep))
    assert not plain.is_zero
    assert plain == shifted
    assert model.class_of(compose_cocycles(boundary, rep)).is_zero


def test_projectivity_detector(f2):
    m = f2.modules
    for name in ("S1", "P2", "P3", "M"):
        assert is_projective(m[name])
    for name in ("S2", "S3", "N", "V"):
        assert not is_projective(m[name])


def test_top_dimensions(f2):
    assert top_dims(f2.modules["M"]) == {"1": 0, "2": 1, "3": 1}
    assert top_dims(f2.modules["P2"]) == {"1": 0, "2": 1, "3": 0}


def test_syzygies_of_the_deep_simple(f2):
    m = f2.modules
    first, incl = syzygy(m["S3"])
    assert incl.is_morphism()
    assert iso_test(first, m["S2"]).verdict == "yes"
    second, _ = syzygy(first)
    assert iso_test(second, m["S1"]).verdict == "yes"
    assert is_projective(second)


def test_syzygies_over_the_commutative_square(f3):
    m = f3.modules
    first, _ = syzygy(m["S4"])
    assert iso_test(first, m["R4"]).verdict == "yes"
    second, _ = syzygy(first)
    assert iso_test(second, m["S1"]).verdict == "yes"
    assert is_projective(second)


def test_global_dimension_gate(f2, f3):
    assert gldim_le2_check(f2.bound_quiver, QQ)
    assert gldim_le2_check(f3.bound_quiver, QQ)


def deep_algebra():
    return validate_bound_quiver(
        "deep", ["1", "2", "3", "4"],
        [("a", "2", "1"), ("b", "3", "2"), ("c", "4", "3")],
        [("r", [(1, ["a", "b"])]), ("s", [(1, ["b", "c"])])])


def test_projectivity_and_gldim_run_no_isomorphism_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("isomorphism search run")

    monkeypatch.setattr(importlib.import_module("quiverext.ext2"), "iso_test",
                        no_search, raising=False)
    # fresh workspaces, so no global-dimension verdict is cached yet
    f2, f3 = load_fixture("f2"), load_fixture("f3")
    m = f2.modules
    names = ("S1", "P2", "P3", "M", "S2", "S3", "N", "V")
    assert [is_projective(m[n]) for n in names] == [True] * 4 + [False] * 4
    assert gldim_le2_check(f2.bound_quiver, QQ)
    assert gldim_le2_check(f3.bound_quiver, QQ)
    assert not gldim_le2_check(deep_algebra(), QQ)


def test_small_model_refuses_a_deep_algebra():
    bq = deep_algebra()
    assert not gldim_le2_check(bq, QQ)
    N, M = simple(bq, QQ, "4"), simple(bq, QQ, "1")
    with pytest.raises(HypothesisError, match="dimension"):
        ext2_small_model(N, M)
    # the syzygy route stays available regardless
    assert ext2_via_omega(N, M).dim >= 0


def test_small_model_refuses_an_oriented_cycle():
    bq = validate_bound_quiver(
        "cycle", ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        [("r", [(1, ["a", "b"])]), ("s", [(1, ["b", "a"])])])
    with pytest.raises(HypothesisError, match="cycle"):
        ext2_small_model(simple(bq, QQ, "1"), simple(bq, QQ, "2"))


def pd_le1_by_presentation(M):
    """The projective-dimension test on the standard presentation's syzygy."""
    pres = proj_presentation(M)
    return all(ext2_via_omega(M, simple(M.bq, M.field, x), pres).dim == 0
               for x in M.bq.quiver.vertices)


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
@pytest.mark.parametrize("name", ["f1", "f2", "f3", "loops"])
def test_minimal_syzygy_route_agrees_with_the_other_models(name, field):
    """Ext^2 on the minimal syzygy against the standard one and the small model.

    Over Q on the loops modules most of the time is the elimination inside
    ext1(Omega, M) on their large syzygies, the route under test."""
    mods = case_modules(name, field, seed=23)
    bq = mods[0].bq
    gated = not is_acyclic(bq) or not gldim_le2_check(bq, field)
    zero = zero_rep(bq, field)
    projectives = [indecomposable_projective(bq, field, x).P for x in bq.quiver.vertices]
    for N in mods:
        pres = proj_presentation(N)
        for M in mods:
            dim = ext2_via_omega(N, M).dim
            assert dim == ext2_via_omega(N, M, pres).dim
            if not gated:
                assert dim == ext2_small_model(N, M).dim
        assert ext2_via_omega(zero, N).dim == ext2_via_omega(N, zero).dim == 0
        assert all(ext2_via_omega(P, N).dim == 0 for P in projectives)
        assert pd_le1(N) == pd_le1_by_presentation(N)
        assert id_le1(N) == pd_le1_by_presentation(opposite_rep(N))


def test_projectives_are_built_once_per_vertex(monkeypatch):
    ext2_module = importlib.import_module("quiverext.ext2")
    real_init = ext2_module.ProjPresentation.__init__
    built = []

    def counting_init(self, N):
        built.append(N)
        real_init(self, N)

    monkeypatch.setattr(ext2_module.ProjPresentation, "__init__", counting_init)
    f3 = load_fixture("f3")  # a fresh bound quiver, so nothing is memoised yet
    m = f3.modules
    M = direct_sum(m["P4"], m["S4"], m["S1"])  # two top generators at vertex 4
    P, _ = projective_cover(M)
    again, _ = projective_cover(M)
    assert P.dim_vector() == again.dim_vector() == {"1": 3, "2": 2, "3": 2, "4": 2}
    assert gldim_le2_check(f3.bound_quiver, QQ)
    tops = [next(x for x, d in N.dims.items() if d) for N in built]
    assert all(N.total_dim == 1 for N in built)
    assert len(tops) == len(set(tops)) <= len(f3.bound_quiver.quiver.vertices)
    built.clear()
    assert ext2_via_omega(m["S4"], m["S1"]).dim == 1
    assert built == []


def _pd_le1_on(M, K):
    """pd M <= 1 by the Ext route on a minimal syzygy K of M: Ext^1(K, S) = 0
    for every simple S."""
    return all(ext1(K, simple(M.bq, M.field, x)).dim == 0
               for x in M.bq.quiver.vertices)


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
@pytest.mark.parametrize("name", ["f1", "f2", "f3", "loops"])
def test_pd_le1_and_the_certificate_flag_equal_the_ext_route(name, field):
    """is_projective of the minimal syzygy against Ext^2 into every simple.

    The flag is read from the certificate of the split sequence
    0 -> M -> M, where the small model is available."""
    mods = with_rational_conjugates(case_modules(name, field, seed=53))
    bq = mods[0].bq
    gated = not is_acyclic(bq) or not gldim_le2_check(bq, field)
    zero = zero_rep(bq, field)
    for M in mods:
        want = _pd_le1_on(M, syzygy(M)[0])
        assert pd_le1(M) == want
        assert id_le1(M) == _pd_le1_on(opposite_rep(M), syzygy(opposite_rep(M))[0])
        if not gated:
            witness = degeneration_witness_search(M, zero, M)
            report = regularity_certificate(M, zero, M, witness)
            assert report.flags["pd_m_le1"] == want


def test_certify_reads_pd_without_first_extensions(tmp_path, monkeypatch, capsys):
    """certify f3.qv XI3 builds three Ext^1 spaces, (M, M), (V, U) and
    (U, V): its Ext^2 dimensions come from the small model.  The Ext
    route of pd M <= 1 would add one per vertex of the square, four."""
    ext1_module = importlib.import_module("quiverext.ext1")
    real_init = ext1_module.ExtSpace1.__init__
    built = []

    def counting_init(self, V, U):
        built.append((V, U))
        real_init(self, V, U)

    path = tmp_path / "f3.qv"
    path.write_text(fixture_source("f3"), encoding="utf-8")
    monkeypatch.setattr(ext1_module.ExtSpace1, "__init__", counting_init)
    assert main(["certify", str(path), "XI3"]) == 0
    assert "regular-tangent" in capsys.readouterr().out
    assert len(built) == 3
    built.clear()
    f3 = load_fixture("f3")
    M = f3.module(f3.sequence("XI3").middle)
    assert _pd_le1_on(M, syzygy(M)[0])
    assert len(built) == 4
