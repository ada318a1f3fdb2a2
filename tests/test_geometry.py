import pytest

from quiverext import geometry, iso
from quiverext.ext1 import ArrowCochain, b_space, ext1, middle_term, z_space
from quiverext.ext2 import compose_cocycles, ext2_small_model, ext2_via_omega
from quiverext.fields import QQ, PrimeField
from quiverext.fixtures import load_fixture
from quiverext.geometry import (
    InconclusiveSearch,
    degeneration_witness_search,
    dual_number_oracle,
    ext_tangent_pairs,
    gl_action,
    hom_tangent_pairs,
    id_le1,
    left_comp_surjectivity,
    opposite_rep,
    orbit_dim,
    pd_le1,
    psi_map,
    regularity_certificate,
    scaling_family,
    tangent_block_decomposition,
    tangent_module_variety,
)
from quiverext.iso import IsoCertificate, iso_test
from quiverext.linalg import Matrix, QuotientSpace, linear_map_matrix
from quiverext.quiver import QuiverError, a_of_d
from quiverext.rep import direct_sum, hom_basis

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def ses1_witness(f2):
    m = f2.modules
    witness = degeneration_witness_search(m["M"], m["S1"], m["V"])
    assert witness is not None and witness.verify()
    return witness


def test_orbit_dimensions(f2):
    m = f2.modules
    info_m = orbit_dim(m["M"])
    assert (info_m.group_dim, info_m.end_dim, info_m.orbit_dim) == (6, 3, 3)
    info_n = orbit_dim(m["N"])
    assert (info_n.group_dim, info_n.end_dim, info_n.orbit_dim) == (6, 4, 2)
    assert info_n.codim_in(3) == 1


def test_conjugation_stays_in_the_orbit(f2):
    M = f2.modules["M"]
    field = M.field
    g = {
        "1": Matrix(field, [[field.of(2)]], 1),
        "2": Matrix(field, [[field.of(1), field.of(1)],
                            [field.of(0), field.of(1)]], 2),
    }
    moved = gl_action(g, M)
    assert iso_test(moved, M).verdict == "yes"
    assert orbit_dim(moved).orbit_dim == orbit_dim(M).orbit_dim


def test_singular_base_change_is_rejected(f2):
    M = f2.modules["M"]
    g = {"1": Matrix(M.field, [[M.field.zero]], 1)}
    with pytest.raises(QuiverError):
        gl_action(g, M)


def test_tangent_dimension_matches_the_component_count(f2):
    N = f2.modules["N"]
    tangent = tangent_module_variety(N)
    assert tangent.dim == 3
    assert tangent.dim == a_of_d(f2.bound_quiver, N.dim_vector())


def test_tangent_blocks_at_the_split_point(f2, f3):
    m = f2.modules
    assert tangent_block_decomposition(m["S1"], m["V"]) == (0, 2, 0, 1)
    n = f3.modules
    assert tangent_block_decomposition(n["R4"], n["S4"]) == (2, 0, 0, 1)


def test_tangent_pairs_of_the_certified_sequence(f2):
    m = f2.modules
    hpairs = hom_tangent_pairs(m["S1"], m["V"])
    epairs = ext_tangent_pairs(m["S1"], m["V"])
    assert hpairs.dim == 2
    assert epairs.dim == 2
    Zp, Zpp = epairs.pair_from_coords(epairs.basis.vectors[0])
    assert epairs.contains_pair(Zp, Zpp)


def test_pair_conditions_can_cut_to_zero(f3):
    """A pair can be tangent to the product without passing the hom test."""
    m = f3.modules
    U = m["S1"]
    V = direct_sum(m["S1"], m["S2"])
    assert z_space(V, V).dim == 1
    hpairs = hom_tangent_pairs(U, V)
    assert hpairs.dim == 0
    assert ext_tangent_pairs(U, V).dim == 0


# The probe closures below are the reference for the tangent-pair
# systems: they push unit vectors through the pair operations.


def probe_hom_pairs_matrix(U, V):
    field = U.field
    zu, zv = z_space(U, U), z_space(V, V)
    homs = hom_basis(V, U)
    ambient = ArrowCochain.space_dim(V, U)
    quot = QuotientSpace(field, ambient, b_space(V, U))

    def apply(vec):
        Zp = ArrowCochain.from_vector(U, U, zu.combine(vec[:zu.dim]))
        Zpp = ArrowCochain.from_vector(V, V, zv.combine(vec[zu.dim:]))
        out = []
        for f in homs:
            mats = {a.name: Zp.mats[a.name] @ f.mats[a.source]
                    - f.mats[a.target] @ Zpp.mats[a.name]
                    for a in U.bq.quiver.arrows}
            out.extend(quot.reduce(ArrowCochain(V, U, mats).to_vector()))
        return out

    return linear_map_matrix(field, zu.dim + zv.dim, len(homs) * ambient, apply)


def probe_ext_pairs_matrix(U, V, hpairs):
    model = ext2_small_model(V, U)
    xis = [ArrowCochain.from_vector(V, U, v) for v in z_space(V, U).vectors]

    def apply(coeffs):
        Zp, Zpp = hpairs.pair_from_coords(hpairs.basis.combine(coeffs))
        out = []
        for Zxi in xis:
            total = compose_cocycles(Zp, Zxi).add(compose_cocycles(Zxi, Zpp))
            out.extend(model.quotient.reduce(total.to_vector()))
        return out

    return linear_map_matrix(U.field, hpairs.dim, len(xis) * model.ambient_dim, apply)


# The two certified sequences have Hom(V, U) = 0, so their hom-pair
# systems have no rows; W against N + S3 makes both systems nonzero.
PAIR_CASES = [("f2", ("S1",), ("V",)), ("f3", ("R4",), ("S4",)),
              ("f2", ("W",), ("N", "S3"))]


@pytest.mark.parametrize("name, sub, quot", PAIR_CASES, ids=str)
@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_tangent_pair_systems_equal_the_probed_ones(monkeypatch, name, sub, quot, field):
    ws = load_fixture(name, field=field)
    U = direct_sum(*(ws.module(n) for n in sub))
    V = direct_sum(*(ws.module(n) for n in quot))
    systems = []  # the matrices geometry hands to kernel_basis, in call order
    kernel_basis = geometry.kernel_basis

    def spy(matrix):
        systems.append(matrix)
        return kernel_basis(matrix)

    monkeypatch.setattr(geometry, "kernel_basis", spy)
    hpairs = hom_tangent_pairs(U, V)
    assert systems == [probe_hom_pairs_matrix(U, V)]
    systems.clear()
    ext_tangent_pairs(U, V)
    assert len(systems) == 2  # the hom-pair system again, then the Ext2 one
    assert systems[0] == probe_hom_pairs_matrix(U, V)
    assert systems[1] == probe_ext_pairs_matrix(U, V, hpairs)
    assert systems[1].ncols == hpairs.dim > 0


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_symbolic_determinant_fallback(field):
    m = load_fixture("f3", field=field).modules
    P4, split = m["P4"], direct_sum(m["R4"], m["S4"])
    assert iso._symbolic_det_is_zero(P4, split, hom_basis(P4, split)) is True
    assert iso._symbolic_det_is_zero(P4, P4, hom_basis(P4, P4)) is False


def test_dual_number_probe_detects_the_cut(f3):
    m = f3.modules
    U = m["S1"]
    V = direct_sum(m["S1"], m["S2"])
    Mbar = ArrowCochain.zero(U, U)
    live = ArrowCochain.from_vector(V, V, z_space(V, V).vectors[0])
    assert not dual_number_oracle(U, Mbar, V, live).hom_member
    origin = dual_number_oracle(U, Mbar, V, ArrowCochain.zero(V, V))
    assert origin.ext_member


def test_dual_number_probe_confirms_members(f2):
    m = f2.modules
    U, V = m["S1"], m["V"]
    epairs = ext_tangent_pairs(U, V)
    for vec in epairs.basis.vectors:
        Zp, Zpp = epairs.pair_from_coords(vec)
        probe = dual_number_oracle(U, Zp, V, Zpp)
        assert probe.hom_member and probe.ext_member


def test_psi_kernel_accounting(f2, ses1_witness):
    m = f2.modules
    U, V = m["S1"], m["V"]
    report = psi_map(ses1_witness.Z, U, V)
    assert report.surjective
    expected = z_space(U, U).dim + z_space(V, V).dim \
        - ext2_via_omega(V, U).dim
    assert report.kernel_dim == expected == 2


def test_psi_needs_a_nonzero_target_to_fail(f2):
    m = f2.modules
    zero = ArrowCochain.zero(m["S3"], m["S1"])
    report = psi_map(zero, m["S1"], m["S3"])
    assert report.model.dim == 1
    assert report.domain_dim == 0
    assert not report.surjective


def test_left_composition_rank(f2, ses1_witness):
    m = f2.modules
    good = left_comp_surjectivity(ses1_witness.Z, m["S1"], m["V"])
    assert good.target_dim == 0 and good.surjective
    zero = ArrowCochain.zero(m["S3"], m["S1"])
    bad = left_comp_surjectivity(zero, m["S1"], m["S3"])
    assert bad.target_dim == 1 and not bad.surjective


def test_projective_dimension_bounds(f2):
    m = f2.modules
    assert not pd_le1(m["S3"])
    for name in ("S1", "S2", "P2", "P3", "M", "N", "V"):
        assert pd_le1(m[name])


def test_injective_dimension_bounds(f2):
    m = f2.modules
    assert not id_le1(m["S1"])
    for name in ("S2", "S3", "P3", "M"):
        assert id_le1(m[name])


def test_opposite_reading_is_an_involution(f2):
    M = f2.modules["M"]
    assert opposite_rep(opposite_rep(M)) == M


def test_scaling_family_certificates(f2, ses1_witness):
    Z = ses1_witness.Z
    fam = scaling_family(Z, 5)
    assert fam.verified and fam.conjugation is not None
    W5, _, _ = middle_term(Z.scale(Z.target.field.of(5)))
    assert fam.rep == W5
    limit = scaling_family(Z, 0)
    assert limit.verified and limit.conjugation is None
    assert limit.rep == direct_sum(Z.target, Z.source)


def test_witness_search_finds_the_middle(f2, ses1_witness):
    m = f2.modules
    assert iso_test(ses1_witness.middle, m["M"]).verdict == "yes"
    assert not ext1(m["V"], m["S1"]).class_of(ses1_witness.Z).is_zero


def test_witness_search_conclusive_miss(f2):
    m = f2.modules
    # only split middles exist for this pair, and the split sum is not M
    assert z_space(m["W"], m["S2"]).dim == 1
    assert degeneration_witness_search(m["M"], m["S2"], m["W"]) is None


def test_witness_search_does_not_turn_unknown_into_a_miss(f2, monkeypatch):
    m = f2.modules
    monkeypatch.setattr(geometry, "iso_test",
                        lambda W, M, seed=0: IsoCertificate("unknown", "forced"))
    with pytest.raises(InconclusiveSearch):
        degeneration_witness_search(m["M"], m["S2"], m["W"])
    # with nonsplit cocycles to try, unknown verdicts only exhaust the search
    assert degeneration_witness_search(m["M"], m["S1"], m["V"]) is None


def test_witness_search_checks_the_dimension_count(f2):
    m = f2.modules
    with pytest.raises(QuiverError):
        degeneration_witness_search(m["M"], m["S1"], m["S2"])


def test_regularity_certificate_of_the_main_sequence(f2, ses1_witness):
    m = f2.modules
    report = regularity_certificate(m["M"], m["S1"], m["V"], ses1_witness)
    assert report.verdict == "regular-tangent"
    assert report.a_d == 3 and report.bound == 3 and report.z_nn_dim == 3
    assert (report.a_d_sub, report.a_d_quot) == (0, 2)
    assert (report.hom_vu, report.ext1_vu, report.ext2_vu) == (0, 1, 0)
    assert (report.hom_uv, report.ext1_uv, report.ext2_uv) == (0, 0, 0)
    assert report.ext_pairs_dim == 2
    assert report.orbit_dim_n == 2
    assert report.bound_matches_a and report.tangent_matches_a
    assert all(report.flags.values())
    # the split locus sits in codimension one inside the component
    assert report.a_d - report.orbit_dim_n == 1


def test_regularity_certificate_of_the_square_sequence(f3):
    m = f3.modules
    witness = degeneration_witness_search(m["P4"], m["R4"], m["S4"])
    assert witness is not None and witness.verify()
    report = regularity_certificate(m["P4"], m["R4"], m["S4"], witness)
    assert report.verdict == "regular-tangent"
    assert report.bound == report.a_d == 3
    assert report.a_d - report.orbit_dim_n == 1


def test_regularity_certificate_rejects_a_mismatched_witness(f2, ses1_witness):
    m = f2.modules
    with pytest.raises(QuiverError):
        regularity_certificate(m["M"], m["S2"], m["W"], ses1_witness)
