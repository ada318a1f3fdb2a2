"""Acceptance checklist: one test per numbered criterion.

Criteria 1, 2, 3, 4, 7 and 9 run their verification suite over Q and
assert that it passed with its usual case count; the others check cases
that no suite runs.  Every test then prints a single
``criterion N PASS`` line, so a piped ``pytest -v`` run shows the whole
checklist alongside the usual outcome markers.  All checks run at desk
scale; the slowest is the two-field comparison at the end.
"""

import random

from quiverext.dsl import serialize_report
from quiverext.ext1 import ext1, z_space
from quiverext.ext2 import (
    compose_cocycles,
    ext2_small_model,
    ext2_via_omega,
)
from quiverext.fields import QQ, field_by_name
from quiverext.fixtures import load_fixture
from quiverext.geometry import (
    degeneration_witness_search,
    ext_tangent_pairs,
    hom_tangent_pairs,
    orbit_dim,
    psi_map,
    scaling_family,
)
from quiverext.quiver import a_of_d
from quiverext.rep import direct_sum, hom_dim
from quiverext.suites import random_cocycle, random_module, run_suites

from cases import standard_syzygy

CATALOG = ("S1", "S2", "S3", "P2", "P3")


def report(capfd, number, note):
    with capfd.disabled():
        print(f"criterion {number} PASS ({note})")


def run_suite(name, cases, seed=0):
    """One verification suite over Q: no failures, its usual case count."""
    result, = run_suites(name, field=QQ, seed=seed)
    assert result.failures == []
    assert result.cases == cases
    return result


def test_criterion_01_cocycle_dimension_formula(capfd):
    run_suite("zdim", 136)
    report(capfd, 1, "36 catalog + 100 random pairs, both sides exact")


def test_criterion_02_euler_identity(capfd):
    run_suite("euler", 145)
    report(capfd, 2, "chi = hom - ext1 + ext2 on 145 fixture pairs")


def test_criterion_03_second_extension_models_agree(capfd):
    run_suite("ext2-agree", 148)
    report(capfd, 3, "145 pairs agree; spot values 1, 0, 1")


def test_criterion_04_yoneda_composition(capfd):
    run_suite("yoneda", 44, seed=4)
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
        M, U, V = ws.sequence_modules(ses_name)
        witness = degeneration_witness_search(M, U, V)
        assert witness is not None and witness.verify()
        psi = psi_map(witness.space, witness.Z)
        assert psi.surjective
        expected = z_space(U, U).dim + z_space(V, V).dim \
            - ext2_via_omega(V, U).dim
        assert psi.kernel_dim == expected
        checked.append(psi.kernel_dim)
    assert checked[0] == 2  # 2 = 0 + 2 - 0 on the first sequence
    report(capfd, 6, f"kernel dims {checked} match zU + zV - ext2")


def test_criterion_07_tangent_pair_oracle_equivalence(capfd):
    run_suite("schemeext", 35)
    report(capfd, 7, "oracle agreement on 35 tangent directions and pairs")


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
    first = run_suite("parser", 35, seed=11)
    second, = run_suites("parser", field=QQ, seed=11)
    assert serialize_report([first.to_task(QQ, 11)]) \
        == serialize_report([second.to_task(QQ, 11)])
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
            omega = standard_syzygy(N)
            for mn in names:
                M = ws.modules[mn]
                out[f"{name}:{nn}->{mn}"] = (
                    hom_dim(N, M),
                    ext1(N, M).dim,
                    z_space(N, M).dim,
                    ext1(omega, M).dim,
                )
        ses_name = "SES1" if name == "f2" else "XI3"
        M, U, V = ws.sequence_modules(ses_name)
        witness = degeneration_witness_search(M, U, V)
        psi = psi_map(witness.space, witness.Z)
        out[f"{name}:psi"] = (psi.domain_dim, psi.rank, psi.kernel_dim,
                              psi.model.dim)
        out[f"{name}:pairs"] = ext_tangent_pairs(hom_tangent_pairs(witness.space)).dim
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
