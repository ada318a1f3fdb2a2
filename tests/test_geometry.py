import dataclasses
import importlib
import itertools
import random
from fractions import Fraction

import pytest

from quiverext import geometry, iso
from quiverext.ext1 import ArrowCochain, ExtSpace1, b_space, ext1, middle_term, z_space
from quiverext.ext2 import (
    Ext2Model,
    HypothesisError,
    compose_cocycles,
    ext2_small_model,
    ext2_via_omega,
    gldim_le2_check,
    yoneda_matrices,
)
from quiverext.fields import QQ, PrimeField
from quiverext.cli import main
from quiverext.fixtures import fixture_source, load_fixture
from quiverext.geometry import (
    InconclusiveSearch,
    degeneration_witness_search,
    dual_number_oracle,
    ext_tangent_pairs,
    gl_action,
    hom_tangent_pairs,
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
from quiverext.linalg import (
    Matrix,
    SubspaceBasis,
    kernel_basis,
    linear_map_matrix,
    row_space_basis,
)
from quiverext.quiver import QuiverError, a_of_d, is_acyclic
from quiverext.rep import (
    Cochain,
    RelationCochain,
    Representation,
    VertexCochain,
    direct_sum,
    hom_basis,
    hom_dim,
    hom_system,
    zero_rep,
)
from quiverext.suites import random_cocycle, random_invertible, run_suites

from cases import (
    CASES_WITH_F2,
    case_modules,
    case_workspace,
    position_pair_compose,
    typed,
    with_rational_conjugates,
)

F101 = PrimeField(101)
ext2_module = importlib.import_module("quiverext.ext2")


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
    assert 3 - info_n.orbit_dim == 1


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
    hpairs = hom_tangent_pairs(ext1(m["V"], m["S1"]))
    epairs = ext_tangent_pairs(hpairs)
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
    hpairs = hom_tangent_pairs(ext1(V, U))
    assert hpairs.dim == 0
    assert ext_tangent_pairs(hpairs).dim == 0


# The probe closures below are the reference for the tangent-pair
# systems: they push unit vectors through the pair operations.


def probe_hom_pairs_matrix(U, V):
    field = U.field
    zu, zv = z_space(U, U), z_space(V, V)
    homs = hom_basis(V, U)
    ambient = ArrowCochain.space_dim(V, U)
    coboundaries = b_space(V, U)

    def apply(vec):
        Zp = ArrowCochain.from_vector(U, U, zu.combine(vec[:zu.dim]))
        Zpp = ArrowCochain.from_vector(V, V, zv.combine(vec[zu.dim:]))
        out = []
        for f in homs:
            mats = {a.name: Zp.mats[a.name] @ f.mats[a.source]
                    - f.mats[a.target] @ Zpp.mats[a.name]
                    for a in U.bq.quiver.arrows}
            out.extend(coboundaries.reduce(ArrowCochain(V, U, mats).to_vector()))
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
            out.extend(model.bprime.reduce(total.to_vector()))
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
    hpairs = hom_tangent_pairs(ext1(V, U))
    assert systems == [probe_hom_pairs_matrix(U, V)]
    systems.clear()
    ext_tangent_pairs(hpairs)  # refines the pairs it is handed: one system
    assert systems == [probe_ext_pairs_matrix(U, V, hpairs)]
    assert systems[0].ncols == hpairs.dim > 0


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
    P4 = m["P4"]
    unit = [P4.field.one] + [P4.field.zero] * 3  # a*b - c*d takes the value 1
    with pytest.raises(QuiverError):
        dual_number_oracle(U, Mbar, P4, ArrowCochain.from_vector(P4, P4, unit))


def test_dual_number_probe_confirms_members(f2):
    m = f2.modules
    U, V = m["S1"], m["V"]
    epairs = ext_tangent_pairs(hom_tangent_pairs(ext1(V, U)))
    for vec in epairs.basis.vectors:
        Zp, Zpp = epairs.pair_from_coords(vec)
        probe = dual_number_oracle(U, Zp, V, Zpp)
        assert probe.hom_member and probe.ext_member


def test_psi_kernel_accounting(f2, ses1_witness):
    m = f2.modules
    U, V = m["S1"], m["V"]
    report = psi_map(ses1_witness.space, ses1_witness.Z)
    assert report.surjective
    expected = z_space(U, U).dim + z_space(V, V).dim \
        - ext2_via_omega(V, U).dim
    assert report.kernel_dim == expected == 2


def test_psi_needs_a_nonzero_target_to_fail(f2):
    m = f2.modules
    zero = ArrowCochain.zero(m["S3"], m["S1"])
    report = psi_map(ext1(m["S3"], m["S1"]), zero)
    assert report.model.dim == 1
    assert report.domain_dim == 0
    assert not report.surjective


def test_left_composition_rank(f2, ses1_witness):
    m = f2.modules
    good = left_comp_surjectivity(ses1_witness.space, ses1_witness.Z)
    assert good.target_dim == 0 and good.surjective
    zero = ArrowCochain.zero(m["S3"], m["S1"])
    bad = left_comp_surjectivity(ext1(m["S3"], m["S1"]), zero)
    assert bad.target_dim == 1 and not bad.surjective


def test_the_pairing_refuses_a_cocycle_of_another_pair(f2, ses1_witness):
    """The space fixes (V, U); a cocycle of another pair is refused."""
    other = ArrowCochain.zero(f2.modules["S3"], f2.modules["S1"])
    for run in (psi_map, left_comp_surjectivity):
        with pytest.raises(QuiverError, match="the fixed cocycle must run V -> U"):
            run(ses1_witness.space, other)


def test_projective_dimension_bounds(f2):
    m = f2.modules
    assert not pd_le1(m["S3"])
    for name in ("S1", "S2", "P2", "P3", "M", "N", "V"):
        assert pd_le1(m[name])


def test_injective_dimension_bounds(f2):
    m = f2.modules
    assert not pd_le1(opposite_rep(m["S1"]))
    for name in ("S2", "S3", "P3", "M"):
        assert pd_le1(opposite_rep(m[name]))


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


@pytest.mark.parametrize("field, t, expected", [(F101, Fraction(1, 2), 51),
                                                 (QQ, Fraction(4, 2), 2)], ids=str)
def test_scaling_family_brings_t_into_the_field(field, t, expected):
    m = load_fixture("f2", field=field).modules
    U, V = m["S1"], m["V"]
    Z = ArrowCochain.from_vector(V, U, z_space(V, U).vectors[0])
    fam = scaling_family(Z, t)
    assert fam.t == expected and type(fam.t) is int
    assert fam.verified


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
    # the split sum S2 + W has N's arrow ranks, so only iso_test can decide
    with pytest.raises(InconclusiveSearch):
        degeneration_witness_search(m["N"], m["S2"], m["W"])
    # its arrow a is zero where M's has rank one: refuted without iso_test
    assert degeneration_witness_search(m["M"], m["S2"], m["W"]) is None
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


def _field_entries(obj):
    """Every field element held by obj, through the package's containers."""
    if isinstance(obj, Matrix):
        for row in obj.rows:
            yield from row
    elif isinstance(obj, (Representation, Cochain)):
        for m in obj.mats.values():
            yield from _field_entries(m)
    elif isinstance(obj, SubspaceBasis):
        yield from _field_entries(obj.vectors)
    elif isinstance(obj, ExtSpace1):
        yield from _field_entries([obj.source, obj.target, obj.z, obj.b, obj._b_in_z])
    elif isinstance(obj, Ext2Model):
        yield from _field_entries([obj.source, obj.target, obj.bprime])
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _field_entries(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _field_entries(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _field_entries(v)
    elif type(obj) in (int, float, Fraction):
        yield obj


def test_rational_entries_stay_canonical_end_to_end(f3):
    """Integral values are ints, the others Fractions, and none is a float."""
    assert f3.field == QQ
    mods = f3.modules
    held = list(mods.values())
    for V in mods.values():
        for U in mods.values():
            held += [hom_basis(V, U), ext1(V, U), ext2_small_model(V, U),
                     ext2_via_omega(V, U)]
    ses = f3.sequence("XI3")
    M, U, V = mods[ses.middle], mods[ses.sub], mods[ses.quot]
    witness = degeneration_witness_search(M, U, V)
    held += [witness, regularity_certificate(M, U, V, witness)]
    entries = list(_field_entries(held))
    assert len(entries) > 500
    for x in entries:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)


def test_regularity_certificate_rejects_a_mismatched_witness(f2, ses1_witness):
    m = f2.modules
    with pytest.raises(QuiverError):
        regularity_certificate(m["M"], m["S2"], m["W"], ses1_witness)


# -- whole-matrix Yoneda systems against the per-pair bodies they replaced --

def compose_by_units(Zxi):
    """The composition matrices built column by column with the
    position-pair body of compose_cocycles, which shares no index
    ranges with the relation-system blocks of yoneda_matrices (and is
    checked against the splice route in test_ext2)."""
    V, U = Zxi.source, Zxi.target
    field = U.field

    def units(source, target):
        n = ArrowCochain.space_dim(source, target)
        for j in range(n):
            e = [field.zero] * n
            e[j] = field.one
            yield ArrowCochain.from_vector(source, target, e)

    rows = RelationCochain.space_dim(V, U)
    left = [position_pair_compose(Z, Zxi).to_vector() for Z in units(U, U)]
    right = [position_pair_compose(Zxi, Z).to_vector() for Z in units(V, V)]
    return (Matrix.from_columns(field, rows, left), Matrix.from_columns(field, rows, right))


def ext_tangent_pairs_per_pair(hpairs):
    """The pairing with its system read from probe_ext_pairs_matrix, whose
    column j is compose_cocycles on the j-th basis pair against every xi."""
    U, V = hpairs.U, hpairs.V
    system = probe_ext_pairs_matrix(U, V, hpairs)  # gated like the pairing
    if z_space(V, U).dim == 0 or hpairs.dim == 0:
        return hpairs
    inner = kernel_basis(system)
    lifted = [hpairs.basis.combine(v) for v in inner.vectors]
    rows = Matrix(U.field, lifted, hpairs.basis.ambient_dim)
    return geometry.TangentPairs(U, V, hpairs.zu, hpairs.zv, row_space_basis(rows),
                                 hpairs.space)


def psi_map_per_pair(Zxi, U, V):
    field = U.field
    model = ext2_small_model(V, U)
    zu = z_space(U, U)
    zv = z_space(V, V)
    cols = []
    for vec in zu.vectors:
        Zp = ArrowCochain.from_vector(U, U, vec)
        cols.append(model.bprime.reduce(compose_cocycles(Zp, Zxi).to_vector()))
    for vec in zv.vectors:
        Zpp = ArrowCochain.from_vector(V, V, vec)
        cols.append(model.bprime.reduce(compose_cocycles(Zxi, Zpp).to_vector()))
    mat = Matrix.from_columns(field, model.ambient_dim, cols)
    return geometry.PsiMap(U, V, Zxi, model, mat, zu.dim + zv.dim, mat.rank())


def left_comp_per_pair(Zxi, U, V):
    model = ext2_small_model(V, U)
    space = ext1(V, V)
    cols = []
    for i in space._b_in_z.free_coordinates():
        Zp = ArrowCochain.from_vector(V, V, space.z.vectors[i])
        cols.append(model.bprime.reduce(compose_cocycles(Zxi, Zp).to_vector()))
    mat = Matrix.from_columns(U.field, model.ambient_dim, cols)
    return geometry.LeftCompReport(space.dim, model.dim, mat.rank())


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_composition_matrices_equal_compose_cocycles_on_units(name, field):
    """Column j of each composition matrix is the composition on unit cochain j.

    Most of the time is the oracle: one composition per unit cochain."""
    mods = with_rational_conjugates(case_modules(name, field, seed=31, max_summands=1))
    rng = random.Random(31)
    for V in mods:
        for U in mods:
            n = ArrowCochain.space_dim(V, U)
            # any cochain will do: composition is bilinear on all of them
            Zxi = ArrowCochain.from_vector(V, U, [field.of(rng.randint(-3, 3))
                                                  for _ in range(n)])
            got = yoneda_matrices(Zxi)
            want = compose_by_units(Zxi)
            assert [typed(m.rows) for m in got] == [typed(m.rows) for m in want]
            assert [m.ncols for m in got] == [m.ncols for m in want]


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_pairing_systems_equal_the_per_pair_bodies(name, field):
    """Most of the time is the oracle: compose_cocycles on every pair of
    basis cocycles in ext_tangent_pairs_per_pair."""
    mods = with_rational_conjugates(case_modules(name, field, seed=37, max_summands=2))
    rng = random.Random(37)
    bq = mods[0].bq
    if not is_acyclic(bq) or not gldim_le2_check(bq, field):
        # the small model is gated out: every route refuses alike
        U, V = mods[-2:]
        Zxi = random_cocycle(V, U, rng)
        for run in (ext_tangent_pairs, ext_tangent_pairs_per_pair):
            with pytest.raises(HypothesisError):
                run(hom_tangent_pairs(ext1(V, U)))
        for run in (psi_map, left_comp_surjectivity):
            with pytest.raises(HypothesisError):
                run(ext1(V, U), Zxi)
        for run in (psi_map_per_pair, left_comp_per_pair):
            with pytest.raises(HypothesisError):
                run(Zxi, U, V)
        return
    for U in mods:
        for V in mods:
            space = ext1(V, U)
            hpairs = hom_tangent_pairs(space)
            new, old = ext_tangent_pairs(hpairs), ext_tangent_pairs_per_pair(hpairs)
            assert typed(new.basis.vectors) == typed(old.basis.vectors)
            assert new.basis.leads == old.basis.leads
            Zxi = random_cocycle(V, U, rng)
            new, old = psi_map(space, Zxi), psi_map_per_pair(Zxi, U, V)
            assert typed(new.matrix.rows) == typed(old.matrix.rows)
            assert (new.matrix.ncols, new.domain_dim, new.rank) == \
                (old.matrix.ncols, old.domain_dim, old.rank)
            assert left_comp_surjectivity(space, Zxi) == left_comp_per_pair(Zxi, U, V)


def test_certificate_builds_the_syzygy_of_the_middle_once(monkeypatch):
    """Ext^2(M, M) and pd M <= 1 share one minimal syzygy of M."""
    f3 = load_fixture("f3")  # fresh, so the global-dimension check runs inside
    ses = f3.sequence("XI3")
    M, U, V = (f3.module(n) for n in (ses.middle, ses.sub, ses.quot))
    calls = []
    real_syzygy = ext2_module.syzygy

    def counting_syzygy(N):
        calls.append(N)
        return real_syzygy(N)

    monkeypatch.setattr(ext2_module, "syzygy", counting_syzygy)
    monkeypatch.setattr(geometry, "syzygy", counting_syzygy)
    witness = degeneration_witness_search(M, U, V)
    report = regularity_certificate(M, U, V, witness)
    assert report.verdict == "regular-tangent" and report.flags["pd_m_le1"]
    assert sum(N == M for N in calls) == 1


# -- the witness search against the body that tested every candidate ------


def iso_on_every_candidate_search(M, U, V, seed=0):
    """The witness search with no rank filter: each middle term goes to iso_test."""
    field = M.field
    dsum = {x: U.dims[x] + V.dims[x] for x in M.bq.quiver.vertices}
    if dsum != M.dim_vector():
        raise QuiverError("dimension vectors of the ends do not sum to the middle")
    zs = z_space(V, U)
    split_only = zs.dim == b_space(V, U).dim

    def try_coeffs(coeffs):
        vec = zs.combine(coeffs)
        Z = ArrowCochain.from_vector(V, U, vec)
        W, _, _ = middle_term(Z)
        cert = iso_test(W, M, seed=seed)
        if cert.verdict == "yes":
            return geometry.SesWitness(M, U, V, Z, W, cert, ext1(V, U))
        if split_only and cert.verdict == "unknown":
            raise InconclusiveSearch(
                "only the split sum is a middle term, and testing it "
                f"against M was inconclusive: {cert.reason}")
        return None

    if split_only:
        return try_coeffs([field.zero] * zs.dim)
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


def witness_triples(name, field, seed):
    """Each declared sequence, then seeded triples: for pairs (U, V) with at
    most two cocycle dimensions, a conjugated middle term of a seeded cocycle
    and the conjugated split sum, each with ends (U, V) and (V, U) when the
    dimension vectors allow; and once, the semisimple module of the first
    middle term's dimension vector, which is no middle term when U + V has
    a nonzero arrow."""
    ws = case_workspace(name, field)
    triples = [(ws.module(s.middle), ws.module(s.sub), ws.module(s.quot))
               for s in ws.sequences.values()]
    mods = with_rational_conjugates(case_modules(name, field, seed, max_summands=1))
    rng = random.Random(seed)
    for U in mods:
        for V in mods:
            if not 1 <= z_space(V, U).dim <= 2 or rng.random() < 0.7:
                continue
            for W in (middle_term(random_cocycle(V, U, rng))[0], direct_sum(U, V)):
                g = {x: random_invertible(field, d, rng) for x, d in W.dims.items()}
                M = gl_action(g, W)
                triples.append((M, U, V))
                if U.dims == V.dims:
                    triples.append((M, V, U))
    M, U, V = next(t for t in triples[len(ws.sequences):]
                   if any(not m.is_zero() for m in direct_sum(t[1], t[2]).mats.values()))
    triples.append((zero_rep(M.bq, field, M.dims), U, V))
    return triples


def assert_same_witness(new, old):
    if old is None:
        assert new is None
        return
    assert typed([new.Z.to_vector()]) == typed([old.Z.to_vector()])
    assert new.middle == old.middle
    assert (new.certificate.verdict, new.certificate.reason) == \
        (old.certificate.verdict, old.certificate.reason)
    for x in old.M.bq.quiver.vertices:
        assert typed(new.certificate.witness.mats[x].rows) == \
            typed(old.certificate.witness.mats[x].rows)
    assert new.verify()


def arrow_ranks(R):
    return {name: m.rank() for name, m in R.mats.items()}


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_witness_search_equals_the_iso_on_every_candidate_body(name, field, monkeypatch):
    """Same witness (Z, middle term, certificate) or the same None, and
    iso_test runs only on middle terms with M's arrow ranks."""
    tested = []

    def recording_iso_test(W, M, seed=0):
        tested.append((W, M))
        return iso_test(W, M, seed=seed)

    monkeypatch.setattr(geometry, "iso_test", recording_iso_test)
    outcomes = set()
    for M, U, V in witness_triples(name, field, seed=59):
        witness = degeneration_witness_search(M, U, V)
        assert_same_witness(witness, iso_on_every_candidate_search(M, U, V))
        outcomes.add(witness is None)
    assert outcomes == {True, False}
    assert tested
    assert all(arrow_ranks(W) == arrow_ranks(M) for W, M in tested)


# -- the certificate's Ext^2 from the small model --------------------------


def regularity_certificate_by_public_calls(M, U, V, witness, ext2_dim):
    """The certificate with each count from its own public call (ext1,
    hom_dim, the pairing on a fresh ext1(V, U), z_space), so each builds
    its own pair systems, its Ext^2 dimensions from ext2_dim(N, M) and its
    tangent dimension from a kernel basis."""
    if witness.M != M or witness.U != U or witness.V != V:
        raise QuiverError("witness does not match the given triple")
    if not witness.verify():
        raise QuiverError("unverified witness")
    bq = M.bq
    d = M.dim_vector()
    ext1_mm = ext1(M, M).dim
    ext2_mm = ext2_dim(M, M)
    hom_vu = hom_dim(V, U)
    space_vu = ext1(V, U)
    ext2_vu = ext2_dim(V, U)
    hom_uv = hom_dim(U, V)
    space_uv = ext1(U, V)
    ext2_uv = ext2_dim(U, V)
    z_uv, z_vu = space_uv.z.dim, space_vu.z.dim
    epairs = ext_tangent_pairs(hom_tangent_pairs(ext1(V, U)))
    N = direct_sum(U, V)
    z_nn = z_space(N, N).dim
    flags = {
        "ext1_mm_vanishes": ext1_mm == 0,
        "ext2_mm_vanishes": ext2_mm == 0,
        "hom_vu_vanishes": hom_vu == 0,
        "ext1_uv_vanishes": space_uv.dim == 0,
        "ext2_uv_vanishes": ext2_uv == 0,
        "pd_m_le1": ext2_module.is_projective(ext2_module.syzygy(M)[0]),
    }
    verdict = "inconclusive"
    if all(flags.values()) and z_nn == a_of_d(bq, d):
        verdict = "regular-tangent"
    return geometry.RegularityReport(
        M=M, U=U, V=V,
        a_d_sub=a_of_d(bq, U.dim_vector()), a_d_quot=a_of_d(bq, V.dim_vector()),
        hom_vu=hom_vu, ext1_vu=space_vu.dim, ext2_vu=ext2_vu,
        hom_uv=hom_uv, ext1_uv=space_uv.dim, ext2_uv=ext2_uv,
        z_uv_dim=z_uv, z_vu_dim=z_vu, ext_pairs_dim=epairs.dim, z_nn_dim=z_nn,
        a_d=a_of_d(bq, d), bound=epairs.dim + z_uv + z_vu,
        orbit_dim_n=orbit_dim(N).orbit_dim, flags=flags, verdict=verdict)


@pytest.mark.parametrize("name, field", CASES_WITH_F2, ids=str)
def test_certificate_reads_ext2_from_the_small_model(name, field):
    """On every declared sequence and on seeded triples: the whole report
    equals the public-calls body's with Ext^2 through syzygies, its Ext^2
    fields equal ext2_via_omega on the same pairs, or both raise the same
    HypothesisError where the small model is gated."""
    certified = 0
    for M, U, V in witness_triples(name, field, seed=67):
        witness = degeneration_witness_search(M, U, V)
        if witness is None:
            continue
        try:
            want = regularity_certificate_by_public_calls(
                M, U, V, witness, lambda N, M: ext2_via_omega(N, M).dim)
        except HypothesisError as exc:
            with pytest.raises(HypothesisError) as got:
                regularity_certificate(M, U, V, witness)
            assert str(got.value) == str(exc)
            continue
        report = regularity_certificate(M, U, V, witness)
        assert report == want
        assert report.ext2_vu == ext2_via_omega(V, U).dim
        assert report.ext2_uv == ext2_via_omega(U, V).dim
        assert report.flags["ext2_mm_vanishes"] == (ext2_via_omega(M, M).dim == 0)
        N = direct_sum(U, V)
        assert report.z_nn_dim == z_space(N, N).dim
        certified += 1
    gated = not is_acyclic(M.bq) or not gldim_le2_check(M.bq, field)
    assert (certified == 0) == gated


def test_certificate_builds_no_syzygy_but_the_middle(monkeypatch):
    """One minimal syzygy per certificate, of M (for pd M <= 1)."""
    f3 = load_fixture("f3")
    gldim_le2_check(f3.bound_quiver, QQ)  # its syzygies are kept on the quiver
    ses = f3.sequence("XI3")
    M, U, V = (f3.module(n) for n in (ses.middle, ses.sub, ses.quot))
    witness = degeneration_witness_search(M, U, V)
    calls = []
    real_syzygy = ext2_module.syzygy

    def counting_syzygy(N):
        calls.append(N)
        return real_syzygy(N)

    monkeypatch.setattr(ext2_module, "syzygy", counting_syzygy)
    monkeypatch.setattr(geometry, "syzygy", counting_syzygy)
    regularity_certificate(M, U, V, witness)
    assert calls == [M]


# -- iso_test: the first seeded sample before the fingerprints -------------


def iso_test_candidate_then_fingerprints(M, N, seed=0, trials=20):
    """The isomorphism test with the fingerprints right after the all-ones
    candidate, before any seeded sample."""
    if M.dim_vector() != N.dim_vector():
        return IsoCertificate("no", "dimension vectors differ")
    if M.total_dim == 0:
        return IsoCertificate("yes", "both representations are zero",
                              VertexCochain(M, N, {}))
    cochains = hom_basis(M, N)
    field = M.field
    homs = kernel_basis(hom_system(M, N))
    if cochains:
        ones = [field.one] * len(cochains)
        candidate = VertexCochain.from_vector(M, N, homs.combine(ones))
        if iso._vertexwise_invertible(candidate):
            return IsoCertificate("yes", "invertible morphism found", candidate)
    fp_m = (hom_dim(M, M), len(cochains))
    fp_n = (hom_dim(N, N), hom_dim(N, M))
    if fp_m != fp_n:
        return IsoCertificate(
            "no",
            "hom-space fingerprints differ: "
            f"(end M, hom M->N) = {fp_m} but (end N, hom N->M) = {fp_n}",
        )
    if not cochains:
        return IsoCertificate("no", "no nonzero morphism exists")
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [field.of(rng.randint(-10**6, 10**6)) for _ in cochains]
        candidate = VertexCochain.from_vector(M, N, homs.combine(coeffs))
        if iso._vertexwise_invertible(candidate):
            return IsoCertificate("yes", "invertible morphism found", candidate)
    symbolic = iso._symbolic_det_is_zero(M, N, cochains)
    if symbolic is True:
        return IsoCertificate("no", "every morphism is singular at some vertex")
    if symbolic is False:
        for _ in range(200):
            coeffs = [field.of(rng.randint(-10**6, 10**6)) for _ in cochains]
            candidate = VertexCochain.from_vector(M, N, homs.combine(coeffs))
            if iso._vertexwise_invertible(candidate):
                return IsoCertificate("yes", "invertible morphism found", candidate)
    return IsoCertificate("unknown", "randomized and symbolic checks were inconclusive")


def assert_same_certificate(got, want):
    assert (got.verdict, got.reason) == (want.verdict, want.reason)
    if want.witness is None:
        assert got.witness is None
        return
    for x in want.witness.mats:
        assert typed(got.witness.mats[x].rows) == typed(want.witness.mats[x].rows)


def _first_tries(M, N, seed=0, trials=20):
    """Whether the all-ones candidate, and whether the first seeded sample
    (when trials allow one), is invertible: the two tries iso_test makes
    before the fingerprints."""
    basis = hom_basis(M, N)
    if not basis:
        return False, False
    field = M.field
    homs = kernel_basis(hom_system(M, N))
    rng = random.Random(seed)
    ones = [field.one] * len(basis)
    first = [field.of(rng.randint(-10**6, 10**6)) for _ in basis]
    by_ones, by_sample = (iso._vertexwise_invertible(VertexCochain.from_vector(
        M, N, homs.combine(coeffs))) for coeffs in (ones, first))
    return by_ones, by_sample and trials > 0


def suite_iso_pairs(field, monkeypatch):
    """The (W, M) pairs that iso_test sees in a run of every suite."""
    pairs = []

    def recording(W, M, seed=0):
        pairs.append((W, M, seed))
        return iso_test(W, M, seed=seed)

    monkeypatch.setattr(geometry, "iso_test", recording)
    run_suites("all", field)
    monkeypatch.undo()
    return pairs


@pytest.mark.parametrize("field", [QQ, F101, PrimeField(2)], ids=str)
def test_iso_test_equals_the_fingerprints_before_sampling_body(field, monkeypatch):
    """The same certificate (verdict, reason, witness) as the body that
    refutes by fingerprints before the first seeded sample, on the fixture
    pairs, the suites' pairs, seeded isomorphic pairs whose all-ones
    candidate fails (over Q and F101 also with one trial), and
    non-isomorphic pairs the fingerprints refute.  A verdict reached
    before the fingerprints computes no hom_dim, any other three."""
    pairs = [(M, N, 0) for name in ("f1", "f2", "f3")
             for mods in [list(load_fixture(name, field=field).modules.values())]
             for M in mods for N in mods]
    pairs += suite_iso_pairs(field, monkeypatch)
    rng = random.Random(f"iso:{field.name}")
    conjugates, refuted = 0, 0
    for name in ("f2", "f3", "loops"):
        mods = with_rational_conjugates(case_modules(name, field, seed=71))
        for M in mods:
            for _ in range(3):
                g = {x: random_invertible(field, d, rng) for x, d in M.dims.items()}
                N = gl_action(g, M)
                if not _first_tries(M, N)[0]:
                    seed = rng.randrange(100)
                    pairs.append((M, N, seed))
                    if field.char != 2:  # over F2 one sample often fails: slow sympy
                        pairs.append((M, N, seed, 1))
                    conjugates += 1
            for N in mods:
                if N.dims == M.dims and not iso_test_candidate_then_fingerprints(
                        M, N).reason.startswith("dimension"):
                    pairs.append((M, N, 0))
    sampled_first = 0
    hom_dims = []
    real_hom_dim = iso.hom_dim

    def counting_hom_dim(M, N):
        hom_dims.append((M, N))
        return real_hom_dim(M, N)

    for M, N, seed, *trials in pairs:
        trials = trials[0] if trials else 20
        want = iso_test_candidate_then_fingerprints(M, N, seed=seed, trials=trials)
        monkeypatch.setattr(iso, "hom_dim", counting_hom_dim)
        monkeypatch.setattr(iso, "_TRIALS", trials)
        got = iso_test(M, N, seed=seed)
        monkeypatch.undo()
        assert_same_certificate(got, want)
        refuted += want.reason.startswith("hom-space fingerprints differ")
        by_ones, by_sample = _first_tries(M, N, seed, trials)
        early = M.dim_vector() != N.dim_vector() or M.total_dim == 0 or by_ones or by_sample
        assert len(hom_dims) == (0 if early else 3)
        sampled_first += by_sample and not by_ones
        hom_dims.clear()
    assert conjugates and refuted and sampled_first


@pytest.mark.parametrize("name", ["f1", "f2", "f3"])
@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_iso_test_tries_the_first_candidate_before_the_fingerprints(name, field,
                                                                     monkeypatch):
    """Whole certificates as before; a first-candidate "yes" computes no hom_dim."""
    mods = load_fixture(name, field=field).modules
    dims = []
    real_hom_dim = iso.hom_dim

    def counting_hom_dim(M, N):
        dims.append((M, N))
        return real_hom_dim(M, N)

    first_yes = 0
    for M in mods.values():
        for N in mods.values():
            want = iso_test_candidate_then_fingerprints(M, N)
            monkeypatch.setattr(iso, "hom_dim", counting_hom_dim)
            got = iso_test(M, N)
            monkeypatch.undo()
            assert_same_certificate(got, want)
            by_ones, by_sample = _first_tries(M, N)
            same_dims = M.dim_vector() == N.dim_vector()
            first_yes += same_dims and (M.total_dim == 0 or by_ones)
            early = not same_dims or M.total_dim == 0 or by_ones or by_sample
            assert len(dims) == (0 if early else 3)
            dims.clear()
    assert first_yes >= len(mods)  # at least every module against itself


# -- one certificate, one set of pair systems ---------------------------------


def record_pair_builds(monkeypatch):
    """The list of (label, source, target) of every relation system R
    (relation_boundary_matrix) and Hom system H (hom_system) built from
    here on, in every module that builds one."""
    ext1_module = importlib.import_module("quiverext.ext1")
    rep_module = importlib.import_module("quiverext.rep")
    builds = []

    def recording(label, fn):
        def wrapper(*args):
            builds.append((label, *args[-2:]))
            return fn(*args)
        return wrapper

    for module in (ext1_module, ext2_module):
        monkeypatch.setattr(module, "relation_boundary_matrix",
                            recording("R", module.relation_boundary_matrix))
    for module in (rep_module, ext1_module, iso):
        monkeypatch.setattr(module, "hom_system", recording("H", module.hom_system))
    return builds


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
@pytest.mark.parametrize("padded", [False, True], ids=["XI3", "padded"])
def test_certificate_builds_each_pair_system_once(padded, field, monkeypatch):
    """One witness search plus its certificate build the relation system R
    and the Hom system H of each of (M, M), (V, U) and (U, V) exactly once,
    on XI3 and on XI3 with P2 + P3 + S1 added to its sub and middle terms;
    the report equals the public-calls body's."""
    f3 = load_fixture("f3", field=field)
    ses = f3.sequence("XI3")
    M, U, V = (f3.module(n) for n in (ses.middle, ses.sub, ses.quot))
    if padded:
        pad = [f3.module(n) for n in ("P2", "P3", "S1")]
        M, U = direct_sum(M, *pad), direct_sum(U, *pad)
    builds = record_pair_builds(monkeypatch)
    witness = degeneration_witness_search(M, U, V)
    report = regularity_certificate(M, U, V, witness)
    monkeypatch.undo()
    pairs = {"(M, M)": (M, M), "(V, U)": (V, U), "(U, V)": (U, V)}
    got = {(label, name): sum(b[0] == label and b[1] is source and b[2] is target
                              for b in builds)
           for name, (source, target) in pairs.items() for label in ("R", "H")}
    assert got == dict.fromkeys(got, 1)
    assert report == regularity_certificate_by_public_calls(
        M, U, V, witness, lambda N, M: ext2_small_model(N, M).dim)


def test_e_tangent_builds_the_hom_system_of_the_pair_once(monkeypatch, tmp_path, capsys):
    """The report's hom pairs are the ones its Ext^2 pairs refine."""
    path = tmp_path / "f3.qv"
    path.write_text(fixture_source("f3"), encoding="utf-8")
    builds = record_pair_builds(monkeypatch)
    assert main(["e-tangent", str(path), "R4", "S4"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    vu = [b for b in builds if (b[1].name, b[2].name) == ("S4", "R4")]
    assert [b[0] for b in vu].count("H") == 1


def test_psi_builds_the_pair_systems_of_the_sequence_once(monkeypatch, tmp_path, capsys):
    """The pairing reads Ext^2(V, U) from the witness's space, so R and H
    of (V, U) = (S4, R4) are built once each."""
    path = tmp_path / "f3.qv"
    path.write_text(fixture_source("f3"), encoding="utf-8")
    builds = record_pair_builds(monkeypatch)
    assert main(["psi", str(path), "XI3"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    vu = [b[0] for b in builds if (b[1].name, b[2].name) == ("S4", "R4")]
    assert sorted(vu) == ["H", "R"]


def test_the_psi_suite_builds_each_sequence_relation_system_once(monkeypatch):
    """The witness search, the pairing and the left composition of each
    declared sequence share one R(V, U)."""
    builds = record_pair_builds(monkeypatch)
    result, = run_suites("psi", QQ)
    monkeypatch.undo()
    assert result.passed
    for quot, sub in (("V", "S1"), ("S4", "R4")):  # SES1 on f2, XI3 on f3
        vu = [b[0] for b in builds if (b[1].name, b[2].name) == (quot, sub)]
        assert vu.count("R") == 1


@pytest.mark.parametrize("suite, miss", [
    ("psi", "no extension cocycle with the declared middle term"),
    ("regularity", "no witness found")], ids=["psi", "regularity"])
def test_an_inconclusive_search_fails_the_witness_case(monkeypatch, suite, miss):
    """The suite records the search's reason as a failed case and goes on."""
    def search(M, space, seed):
        raise InconclusiveSearch("forced by the test")

    monkeypatch.setattr(geometry, "_search_over", search)
    result, = run_suites(suite, QQ)
    assert result.failures == [
        {"case": f"{key}:witness", "detail": f"{miss}: forced by the test"}
        for key in ("f2:SES1", "f3:XI3")]


def test_a_witness_with_another_pairs_space_is_unverified(f2, ses1_witness):
    """The certificate reads the counts of (V, U) from the witness's space."""
    m = f2.modules
    other = dataclasses.replace(ses1_witness, space=ext1(m["W"], m["S2"]))
    assert other == ses1_witness  # the space is left out of equality
    assert not other.verify()
    with pytest.raises(QuiverError, match="unverified witness"):
        regularity_certificate(m["M"], m["S1"], m["V"], other)
