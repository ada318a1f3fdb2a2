"""Acceptance checklist: one test per numbered criterion.

Every test performs exact integer checks and then prints a single
``criterion N PASS`` line, so a piped ``pytest -v`` run shows the whole
checklist alongside the usual outcome markers.  All checks run at desk
scale; the slowest is the two-field comparison at the end.
"""

import random

from quiverext.dsl import parse_workspace, print_workspace, serialize_report
from quiverext.ext1 import ArrowCochain, b_space, ext1, z_space
from quiverext.ext2 import (
    compose_cocycles,
    ext2_small_model,
    ext2_via_omega,
    proj_presentation,
)
from quiverext.fields import QQ, field_by_name
from quiverext.fixtures import FIXTURE_NAMES, fixture_source, load_fixture
from quiverext.geometry import (
    degeneration_witness_search,
    dual_number_oracle,
    ext_tangent_pairs,
    orbit_dim,
    psi_map,
    scaling_family,
)
from quiverext.quiver import a_of_d, euler_form
from quiverext.rep import direct_sum, hom_dim
from quiverext.suites import random_cocycle, random_module, run_suites

CATALOG = ("S1", "S2", "S3", "P2", "P3")


def report(capfd, number, note):
    with capfd.disabled():
        print(f"criterion {number} PASS ({note})")


def random_boundary(V, U, rng):
    bs = b_space(V, U)
    coeffs = [U.field.of(rng.randint(-3, 3)) for _ in bs.vectors]
    return ArrowCochain.from_vector(V, U, bs.combine(coeffs))


def check_zdim(V, U):
    cross = sum(U.dims[x] * V.dims[x] for x in U.bq.quiver.vertices)
    assert z_space(V, U).dim == ext1(V, U).dim - hom_dim(V, U) + cross


def test_criterion_01_cocycle_dimension_formula(f2, capfd):
    m = f2.modules
    reps = [m[n] for n in CATALOG] + [direct_sum(m["P2"], m["P3"])]
    for V in reps:
        for U in reps:
            check_zdim(V, U)
    rng = random.Random(0)
    for _ in range(100):
        check_zdim(random_module(f2, CATALOG, rng),
                   random_module(f2, CATALOG, rng))
    report(capfd, 1, "36 catalog + 100 random pairs, both sides exact")


def test_criterion_02_euler_identity(f2, f3, capfd):
    total = 0
    for ws in (f2, f3):
        bq = ws.bound_quiver
        for M in ws.modules.values():
            pres = proj_presentation(M)
            for N in ws.modules.values():
                lhs = euler_form(bq, M.dim_vector(), N.dim_vector())
                rhs = hom_dim(M, N) - ext1(M, N).dim \
                    + ext2_via_omega(M, N, pres).dim
                assert lhs == rhs
                total += 1
    report(capfd, 2, f"chi = hom - ext1 + ext2 on {total} fixture pairs")


def test_criterion_03_second_extension_models_agree(f2, f3, capfd):
    total = 0
    for ws in (f2, f3):
        for N in ws.modules.values():
            pres = proj_presentation(N)
            for M in ws.modules.values():
                assert ext2_small_model(N, M).dim \
                    == ext2_via_omega(N, M, pres).dim
                total += 1
    assert ext2_small_model(f2.modules["S3"], f2.modules["S1"]).dim == 1
    assert ext2_small_model(f2.modules["P3"], f2.modules["S1"]).dim == 0
    assert ext2_small_model(f3.modules["S4"], f3.modules["S1"]).dim == 1
    report(capfd, 3, f"{total} pairs agree; spot values 1, 0, 1")


def test_criterion_04_yoneda_composition(f2, f3, capfd):
    m = f2.modules
    xi_space = ext1(m["S2"], m["S1"])
    eta_space = ext1(m["S3"], m["S2"])
    Zxi = xi_space.basis_cocycles()[0]
    Zeta = eta_space.class_of(eta_space.basis_cocycles()[0]).representative()
    model = ext2_small_model(m["S3"], m["S1"])
    assert model.dim == 1
    assert not model.class_of(compose_cocycles(Zxi, Zeta)).is_zero

    rng = random.Random(4)
    for _ in range(20):
        left = random_boundary(m["S2"], m["S1"], rng)
        right = random_boundary(m["S3"], m["S2"], rng)
        assert model.class_of(compose_cocycles(left, Zeta)).is_zero
        assert model.class_of(compose_cocycles(Zxi, right)).is_zero

    # the boundary spaces above are zero-dimensional, so the same check
    # is repeated where a boundary space is genuinely nonzero
    n = f3.modules
    space = ext1(n["R4"], n["S1"])
    Zfix = next(Z for Z in space.basis_cocycles()
                if not space.class_of(Z).is_zero)
    xi3 = ext1(n["S4"], n["R4"])
    rep3 = xi3.basis_cocycles()[0]
    model3 = ext2_small_model(n["S4"], n["S1"])
    plain = model3.class_of(compose_cocycles(Zfix, rep3))
    assert not plain.is_zero
    for _ in range(20):
        shift = random_boundary(n["R4"], n["S1"], rng)
        assert model3.class_of(compose_cocycles(shift, rep3)).is_zero
        assert model3.class_of(compose_cocycles(Zfix.add(shift), rep3)) == plain
    report(capfd, 4, "generator product nonzero; boundaries compose to zero")


def test_criterion_05_tangent_accounting_at_the_degeneration(f2, capfd):
    m = f2.modules
    M = direct_sum(m["P2"], m["P3"])
    N = direct_sum(m["S1"], m["S2"], m["P3"])
    assert ext1(M, M).dim == 0
    assert ext2_via_omega(M, M).dim == 0
    a = a_of_d(f2.bound_quiver, N.dim_vector())
    assert z_space(N, N).dim == 3 == a
    assert orbit_dim(N).orbit_dim == 2
    report(capfd, 5, "dim Z(N,N) = 3 = a(1,2,1), orbit dim 2: codimension one")


def test_criterion_06_psi_kernel_identity(f2, f3, capfd):
    checked = []
    for ws, ses_name in ((f2, "SES1"), (f3, "XI3")):
        decl = ws.sequence(ses_name)
        M = ws.module(decl.middle)
        U, V = ws.module(decl.sub), ws.module(decl.quot)
        witness = degeneration_witness_search(M, U, V)
        assert witness is not None and witness.verify()
        psi = psi_map(witness.Z, U, V)
        assert psi.surjective
        expected = z_space(U, U).dim + z_space(V, V).dim \
            - ext2_via_omega(V, U).dim
        assert psi.kernel_dim == expected
        checked.append(psi.kernel_dim)
    assert checked[0] == 2  # 2 = 0 + 2 - 0 on the first sequence
    report(capfd, 6, f"kernel dims {checked} match zU + zV - ext2")


def test_criterion_07_tangent_pair_oracle_equivalence(f2, f3, capfd):
    sweeps = 0
    for ws, u_name, v_name in ((f2, "S1", "V"), (f3, "R4", "S4")):
        U, V = ws.modules[u_name], ws.modules[v_name]
        epairs = ext_tangent_pairs(U, V)
        zu, zv = z_space(U, U), z_space(V, V)
        for vec in zu.vectors:
            Zp = ArrowCochain.from_vector(U, U, vec)
            Zpp = ArrowCochain.zero(V, V)
            member = epairs.contains_pair(Zp, Zpp)
            assert member == dual_number_oracle(U, Zp, V, Zpp).ext_member
            sweeps += 1
        for vec in zv.vectors:
            Zp = ArrowCochain.zero(U, U)
            Zpp = ArrowCochain.from_vector(V, V, vec)
            member = epairs.contains_pair(Zp, Zpp)
            assert member == dual_number_oracle(U, Zp, V, Zpp).ext_member
            sweeps += 1
    report(capfd, 7, f"oracle agreement on {sweeps} basis directions")


def test_criterion_08_scaling_degeneration_and_witnesses(f2, f3, capfd):
    rng = random.Random(8)
    pools = [(f2, CATALOG), (f3, ("S1", "S2", "S4", "P4", "R4"))]
    done = 0
    while done < 20:
        ws, names = pools[done % 2]
        V = random_module(ws, names, rng)
        U = random_module(ws, names, rng)
        Z = random_cocycle(V, U, rng)
        t = rng.choice((1, -1, 2, -2, 3, 5))
        fam = scaling_family(Z, t)
        assert fam.verified
        done += 1
    m = f2.modules
    limit = scaling_family(random_cocycle(m["V"], m["S1"], rng), 0)
    assert limit.verified and limit.rep == direct_sum(m["S1"], m["V"])

    witness = degeneration_witness_search(m["M"], m["S1"], m["V"])
    assert witness is not None and witness.verify()
    decoy_quot = direct_sum(m["S1"], m["P3"])
    assert degeneration_witness_search(m["M"], m["S2"], decoy_quot) is None
    report(capfd, 8, "20 conjugations entry-exact; witness found, decoy none")


def test_criterion_09_parser_and_report_determinism(capfd):
    for name in FIXTURE_NAMES:
        ws = parse_workspace(fixture_source(name))
        printed = print_workspace(ws)
        again = parse_workspace(printed)
        assert print_workspace(again) == printed
        assert sorted(again.modules) == sorted(ws.modules)
        for mod_name, rep in ws.modules.items():
            assert again.modules[mod_name].dim_vector() == rep.dim_vector()

    first = serialize_report(
        [r.to_task(QQ, 11) for r in run_suites("parser", seed=11)])
    second = serialize_report(
        [r.to_task(QQ, 11) for r in run_suites("parser", seed=11)])
    assert first == second
    report(capfd, 9, "round-trips stable; reports byte-identical")


def profile_dimensions(field):
    """Every dimension quantity used by criteria 1-7, keyed for comparison."""
    out = {}
    for name in ("f2", "f3"):
        ws = load_fixture(name, field=field)
        bq = ws.bound_quiver
        names = sorted(ws.modules)
        for nn in names:
            N = ws.modules[nn]
            pres = proj_presentation(N)
            for mn in names:
                M = ws.modules[mn]
                out[f"{name}:{nn}->{mn}"] = (
                    hom_dim(N, M),
                    ext1(N, M).dim,
                    z_space(N, M).dim,
                    ext2_via_omega(N, M, pres).dim,
                )
        ses_name = "SES1" if name == "f2" else "XI3"
        decl = ws.sequence(ses_name)
        M = ws.module(decl.middle)
        U, V = ws.module(decl.sub), ws.module(decl.quot)
        witness = degeneration_witness_search(M, U, V)
        psi = psi_map(witness.Z, U, V)
        out[f"{name}:psi"] = (psi.domain_dim, psi.rank, psi.kernel_dim,
                              psi.model.dim)
        out[f"{name}:pairs"] = ext_tangent_pairs(U, V).dim
        total = direct_sum(U, V)
        out[f"{name}:tangent"] = (z_space(total, total).dim,
                                  a_of_d(bq, total.dim_vector()),
                                  orbit_dim(total).orbit_dim)
    # the nonzero Yoneda product, as a final boolean dimension fact
    ws = load_fixture("f2", field=field)
    m = ws.modules
    Zxi = ext1(m["S2"], m["S1"]).basis_cocycles()[0]
    eta_space = ext1(m["S3"], m["S2"])
    Zeta = eta_space.basis_cocycles()[0]
    model = ext2_small_model(m["S3"], m["S1"])
    out["f2:yoneda_nonzero"] = \
        not model.class_of(compose_cocycles(Zxi, Zeta)).is_zero
    return out


def test_criterion_10_field_robustness(capfd):
    rational = profile_dimensions(QQ)
    modular = profile_dimensions(field_by_name("F101"))
    assert rational == modular
    report(capfd, 10,
           f"{len(rational)} dimension records identical over Q and F101")
