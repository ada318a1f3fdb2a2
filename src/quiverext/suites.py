"""Verification suites over the bundled fixtures.

Each suite pins one identity and reports counterexample data on
failure; `run_suites("all", ...)` executes every suite with the same
seed.  Case evaluation is sequential and report assembly sorts by case
key, so reports are deterministic functions of (suite, field, seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .dsl import ParseError, parse_workspace, print_workspace, serialize_report
from .ext1 import ArrowCochain, b_space, ext1, z_space
from .ext2 import (
    compose_cocycles,
    ext2_small_model,
    ext2_via_omega,
    yoneda_left_omega,
)
from .fields import QQ
from .fixtures import FIXTURE_NAMES, fixture_source, load_fixture
from .geometry import (
    degeneration_witness_search,
    dual_number_oracle,
    ext_tangent_pairs,
    gl_action,
    hom_tangent_pairs,
    left_comp_surjectivity,
    orbit_dim,
    psi_map,
    regularity_certificate,
    scaling_family,
    tangent_block_decomposition,
    tangent_module_variety,
)
from .linalg import Matrix
from .quiver import euler_form
from .rep import Representation, direct_sum, hom_dim


@dataclass
class SuiteResult:
    suite: str
    cases: int
    failures: list
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_task(self, field, seed: int) -> dict:
        # wall time stays out of the JSON payload so reports are
        # byte-identical across runs with the same seed
        return {
            "task": "verify",
            "inputs": {"suite": self.suite, "field": field.name, "seed": seed},
            "result": {
                "cases": self.cases,
                "failures": self.failures,
                "pass": self.passed,
            },
        }


class _Recorder:
    def __init__(self):
        self.cases = 0
        self.failures = []

    def check(self, key: str, ok: bool, detail: str = ""):
        self.cases += 1
        if not ok:
            self.failures.append({"case": key, "detail": detail})

    def equal(self, key: str, got, want):
        self.check(key, got == want, f"got {got!r}, expected {want!r}")

    def result(self, suite: str, started: float) -> SuiteResult:
        self.failures.sort(key=lambda f: f["case"])
        return SuiteResult(suite, self.cases,
                           self.failures, time.perf_counter() - started)


# -- seeded random modules -------------------------------------------------


def random_invertible(field, n: int, rng: random.Random) -> Matrix:
    """A product of integer shears: invertible with small exact entries."""
    mat = Matrix.identity(field, n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = field.of(rng.choice((-3, -2, -1, 1, 2, 3)))
        rows = [list(r) for r in mat.rows]
        rows[i] = [field.add(a, field.mul(c, b))
                   for a, b in zip(rows[i], rows[j])]
        mat = Matrix(field, rows, n)
    return mat


def random_module(ws, names, rng: random.Random,
                  max_summands: int = 3) -> Representation:
    """A conjugated direct sum of named modules from a workspace."""
    count = rng.randint(1, max_summands)
    picks = [ws.modules[rng.choice(names)] for _ in range(count)]
    total = direct_sum(*picks)
    g = {x: random_invertible(ws.field, total.dims[x], rng)
         for x in ws.bound_quiver.quiver.vertices}
    return gl_action(g, total)


def random_cocycle(V: Representation, U: Representation,
                   rng: random.Random) -> ArrowCochain:
    zs = z_space(V, U)
    coeffs = [U.field.of(rng.randint(-3, 3)) for _ in zs.vectors]
    return ArrowCochain.from_vector(V, U, zs.combine(coeffs))


_F2_CATALOG = ("S1", "S2", "S3", "P2", "P3")
_F3_CATALOG = ("S1", "S2", "S3", "S4", "P2", "P3", "P4", "R4")


# -- the suites ------------------------------------------------------------


def suite_zdim(field, seed: int) -> SuiteResult:
    """Cocycle-space dimension count against hom and first-extension dims."""
    started = time.perf_counter()
    rec = _Recorder()
    ws = load_fixture("f2", field=field)
    catalog = list(_F2_CATALOG) + ["M"]

    def check_pair(key, V, U):
        space = ext1(V, U)
        lhs = space.z.dim
        cross = sum(U.dims[x] * V.dims[x] for x in ws.bound_quiver.quiver.vertices)
        rhs = space.dim - hom_dim(V, U) + cross
        rec.equal(key, lhs, rhs)

    for vn in catalog:
        for un in catalog:
            check_pair(f"catalog:{vn}->{un}", ws.modules[vn], ws.modules[un])
    rng = random.Random(seed)
    for i in range(100):
        V = random_module(ws, _F2_CATALOG, rng)
        U = random_module(ws, _F2_CATALOG, rng)
        check_pair(f"random:{i:03d}", V, U)
    return rec.result("zdim", started)


def suite_euler(field, seed: int) -> SuiteResult:
    """Alternating hom/ext sum equals the bilinear form on dimension vectors."""
    started = time.perf_counter()
    rec = _Recorder()
    for name in ("f2", "f3"):
        ws = load_fixture(name, field=field)
        bq = ws.bound_quiver
        for mn, M in ws.modules.items():
            for nn, N in ws.modules.items():
                lhs = (hom_dim(M, N) - ext1(M, N).dim
                       + ext2_via_omega(M, N).dim)
                rhs = euler_form(bq, M.dim_vector(), N.dim_vector())
                rec.equal(f"{name}:{mn}->{nn}", lhs, rhs)
    return rec.result("euler", started)


def suite_ext2_agree(field, seed: int) -> SuiteResult:
    """The gated small second-extension model against the syzygy route."""
    started = time.perf_counter()
    rec = _Recorder()
    for name in ("f2", "f3"):
        ws = load_fixture(name, field=field)
        for nn, N in ws.modules.items():
            for mn, M in ws.modules.items():
                small = ext2_small_model(N, M).dim
                rec.equal(f"{name}:{nn}|{mn}", small, ext2_via_omega(N, M).dim)
    f2 = load_fixture("f2", field=field)
    rec.equal("spot:f2:S3|S1",
              ext2_small_model(f2.module("S3"), f2.module("S1")).dim, 1)
    rec.equal("spot:f2:P3|S1",
              ext2_small_model(f2.module("P3"), f2.module("S1")).dim, 0)
    f3 = load_fixture("f3", field=field)
    rec.equal("spot:f3:S4|S1",
              ext2_small_model(f3.module("S4"), f3.module("S1")).dim, 1)
    return rec.result("ext2-agree", started)


def _yoneda_triple(ws, u_name, v_name, w_name):
    """(U, V, W) plus generator cocycles V -> U and W -> V."""
    U, V, W = ws.module(u_name), ws.module(v_name), ws.module(w_name)
    zp = z_space(V, U)
    zpp = z_space(W, V)
    Zp = ArrowCochain.from_vector(V, U, zp.vectors[0])
    Zpp = ArrowCochain.from_vector(W, V, zpp.vectors[0])
    return U, V, W, Zp, Zpp


def suite_yoneda(field, seed: int) -> SuiteResult:
    """Nonvanishing of the composite class and boundary insensitivity."""
    started = time.perf_counter()
    rec = _Recorder()
    rng = random.Random(seed)
    triples = (("f2", "S1", "S2", "S3"), ("f3", "S1", "R4", "S4"))
    for wsname, un, vn, wn in triples:
        ws = load_fixture(wsname, field=field)
        U, V, W, Zp, Zpp = _yoneda_triple(ws, un, vn, wn)
        model = ext2_small_model(W, U)
        product = model.class_of(compose_cocycles(Zp, Zpp))
        key = f"{wsname}:{un}<{vn}<{wn}"
        rec.check(f"{key}:nonzero", not product.is_zero,
                  "composite class vanished")
        # the syzygy-route composite must vanish exactly together with it
        cls = ext1(W, V).class_of(Zpp)
        omega_cls = yoneda_left_omega(Zp, cls)
        rec.equal(f"{key}:omega-route", omega_cls.is_zero, product.is_zero)
        # boundary insensitivity in both factors
        bp = b_space(V, U)
        bpp = b_space(W, V)
        for i in range(20):
            if bp.dim:
                coeffs = [field.of(rng.randint(-4, 4)) for _ in bp.vectors]
                B = ArrowCochain.from_vector(V, U, bp.combine(coeffs))
                shifted = model.class_of(
                    compose_cocycles(Zp.add(B), Zpp))
                rec.equal(f"{key}:left-shift:{i:02d}", shifted.coords,
                          product.coords)
                pure = model.class_of(compose_cocycles(B, Zpp))
                rec.check(f"{key}:left-boundary:{i:02d}", pure.is_zero,
                          "pure boundary composed to a nonzero class")
            if bpp.dim:
                coeffs = [field.of(rng.randint(-4, 4)) for _ in bpp.vectors]
                B = ArrowCochain.from_vector(W, V, bpp.combine(coeffs))
                shifted = model.class_of(compose_cocycles(Zp, Zpp.add(B)))
                rec.equal(f"{key}:right-shift:{i:02d}", shifted.coords,
                          product.coords)
                pure = model.class_of(compose_cocycles(Zp, B))
                rec.check(f"{key}:right-boundary:{i:02d}", pure.is_zero,
                          "pure boundary composed to a nonzero class")
    return rec.result("yoneda", started)


def suite_tangent_blocks(field, seed: int) -> SuiteResult:
    """Block decomposition of the tangent space at a split point."""
    started = time.perf_counter()
    rec = _Recorder()
    rng = random.Random(seed)
    f2 = load_fixture("f2", field=field)
    rec.equal("f2:S1|V",
              tangent_block_decomposition(f2.module("S1"), f2.module("V")),
              (0, 2, 0, 1))
    f3 = load_fixture("f3", field=field)
    rec.equal("f3:R4|S4",
              tangent_block_decomposition(f3.module("R4"), f3.module("S4")),
              (2, 0, 0, 1))
    semi = direct_sum(f2.module("S1"), f2.module("S2"), f2.module("S3"))
    rec.equal("f2:semisimple-111", tangent_module_variety(semi).dim, 2)
    for name, catalog in (("f2", _F2_CATALOG), ("f3", _F3_CATALOG)):
        ws = load_fixture(name, field=field)
        for i in range(8):
            U = random_module(ws, catalog, rng, max_summands=2)
            V = random_module(ws, catalog, rng, max_summands=2)
            try:
                tangent_block_decomposition(U, V)
                rec.check(f"{name}:random:{i}", True)
            except Exception as exc:  # the sum check raises on mismatch
                rec.check(f"{name}:random:{i}", False, str(exc))
    return rec.result("tangent-blocks", started)


def _ses_ends(ws, ses_name):
    decl = ws.sequence(ses_name)
    return ws.module(decl.sub), ws.module(decl.quot)


def suite_schemeext(field, seed: int) -> SuiteResult:
    """Tangent-pair membership against the dual-number oracle."""
    started = time.perf_counter()
    rec = _Recorder()
    rng = random.Random(seed)
    for wsname, ses in (("f2", "SES1"), ("f3", "XI3")):
        ws = load_fixture(wsname, field=field)
        U, V = _ses_ends(ws, ses)
        hpairs = hom_tangent_pairs(ext1(V, U))
        pairs = ext_tangent_pairs(hpairs)
        zu, zv = hpairs.zu, hpairs.zv
        zero_u = ArrowCochain.zero(U, U)
        zero_v = ArrowCochain.zero(V, V)

        def agree(key, Zp, Zpp):
            probe = dual_number_oracle(U, Zp, V, Zpp)
            rec.equal(f"{key}:ext", probe.ext_member,
                      pairs.contains_pair(Zp, Zpp))
            rec.equal(f"{key}:hom", probe.hom_member,
                      hpairs.contains_pair(Zp, Zpp))

        for i, vec in enumerate(zu.vectors):
            agree(f"{wsname}:axis-u:{i}",
                  ArrowCochain.from_vector(U, U, vec), zero_v)
        for i, vec in enumerate(zv.vectors):
            agree(f"{wsname}:axis-v:{i}", zero_u,
                  ArrowCochain.from_vector(V, V, vec))
        for i, vec in enumerate(pairs.basis.vectors):
            Zp, Zpp = pairs.pair_from_coords(vec)
            agree(f"{wsname}:pair-basis:{i}", Zp, Zpp)
        for i in range(4):
            Zp = random_cocycle(U, U, rng)
            Zpp = random_cocycle(V, V, rng)
            agree(f"{wsname}:random:{i}", Zp, Zpp)
    # a proper containment: the hom condition alone already cuts this one
    f3 = load_fixture("f3", field=field)
    U = f3.module("S1")
    V = direct_sum(f3.module("S1"), f3.module("S2"))
    hpairs = hom_tangent_pairs(ext1(V, U))
    rec.equal("f3:S1|S1+S2:dim", hpairs.dim, 0)
    Zpp = ArrowCochain.from_vector(V, V, hpairs.zv.vectors[0])
    probe = dual_number_oracle(U, ArrowCochain.zero(U, U), V, Zpp)
    rec.equal("f3:S1|S1+S2:cut", probe.hom_member, False)
    probe0 = dual_number_oracle(U, ArrowCochain.zero(U, U), V,
                                ArrowCochain.zero(V, V))
    rec.equal("f3:S1|S1+S2:origin", probe0.ext_member, True)
    return rec.result("schemeext", started)


def suite_psi(field, seed: int) -> SuiteResult:
    """Kernel dimension of the pairing map at the fixture sequences."""
    started = time.perf_counter()
    rec = _Recorder()
    for wsname, ses in (("f2", "SES1"), ("f3", "XI3")):
        ws = load_fixture(wsname, field=field)
        decl = ws.sequence(ses)
        M = ws.module(decl.middle)
        U, V = ws.module(decl.sub), ws.module(decl.quot)
        witness = degeneration_witness_search(M, U, V, seed=seed)
        rec.check(f"{wsname}:{ses}:witness", witness is not None,
                  "no extension cocycle with the declared middle term")
        if witness is None:
            continue
        psi = psi_map(witness.space, witness.Z)
        rec.check(f"{wsname}:{ses}:surjective", psi.surjective,
                  f"rank {psi.rank} < target {psi.model.dim}")
        if psi.surjective:
            duu = z_space(U, U).dim
            dvv = z_space(V, V).dim
            # on the syzygy, so the suites exercise both routes
            ext2_vu = ext2_via_omega(V, U).dim
            rec.equal(f"{wsname}:{ses}:kernel", psi.kernel_dim,
                      duu + dvv - ext2_vu)
        left = left_comp_surjectivity(witness.space, witness.Z)
        rec.check(f"{wsname}:{ses}:left-comp", left.surjective,
                  f"rank {left.rank} < target {left.target_dim}")
    # a zero pairing into a nonzero target must not report surjective
    f2 = load_fixture("f2", field=field)
    U, V = f2.module("S1"), f2.module("S3")
    psi = psi_map(ext1(V, U), ArrowCochain.zero(V, U))
    rec.equal("f2:zero-pairing:target", psi.model.dim, 1)
    rec.equal("f2:zero-pairing:gate", psi.surjective, False)
    return rec.result("psi", started)


def suite_regularity(field, seed: int) -> SuiteResult:
    """The tangent accounting certificate on both fixture sequences."""
    started = time.perf_counter()
    rec = _Recorder()
    for wsname, ses, a_d in (("f2", "SES1", 3), ("f3", "XI3", 3)):
        ws = load_fixture(wsname, field=field)
        decl = ws.sequence(ses)
        M = ws.module(decl.middle)
        U, V = ws.module(decl.sub), ws.module(decl.quot)
        witness = degeneration_witness_search(M, U, V, seed=seed)
        rec.check(f"{wsname}:{ses}:witness", witness is not None,
                  "no witness found")
        if witness is None:
            continue
        report = regularity_certificate(M, U, V, witness)
        key = f"{wsname}:{ses}"
        rec.equal(f"{key}:verdict", report.verdict, "regular-tangent")
        rec.equal(f"{key}:a-of-d", report.a_d, a_d)
        rec.check(f"{key}:bound", report.bound_matches_a,
                  f"bound {report.bound} != a(d) {report.a_d}")
        rec.check(f"{key}:tangent", report.tangent_matches_a,
                  f"tangent {report.z_nn_dim} != a(d) {report.a_d}")
        codim = orbit_dim(M).orbit_dim - report.orbit_dim_n
        rec.equal(f"{key}:codim", codim, 1)
    return rec.result("regularity", started)


def suite_scaling(field, seed: int) -> SuiteResult:
    """Conjugation certificates for scaled cocycles; witness search gates."""
    started = time.perf_counter()
    rec = _Recorder()
    rng = random.Random(seed)
    ws = load_fixture("f2", field=field)
    produced = 0
    attempts = 0
    while produced < 20 and attempts < 200:
        attempts += 1
        U = random_module(ws, _F2_CATALOG, rng, max_summands=2)
        V = random_module(ws, _F2_CATALOG, rng, max_summands=2)
        if z_space(V, U).dim == 0:
            continue
        Z = random_cocycle(V, U, rng)
        t = rng.choice((1, -1, 2, -2, 3, 5))
        fam = scaling_family(Z, t)
        rec.check(f"random:{produced:02d}", fam.verified,
                  f"conjugation failed for t={t}")
        produced += 1
    rec.equal("random:produced", produced, 20)
    # t = 0 lands on the split sum
    U, V = ws.module("S1"), ws.module("V")
    Z = ArrowCochain.from_vector(V, U, z_space(V, U).vectors[0])
    fam0 = scaling_family(Z, 0)
    rec.equal("split-limit", fam0.rep.dim_vector(),
              direct_sum(U, V).dim_vector())
    rec.check("split-limit-equal", fam0.rep == direct_sum(U, V),
              "t = 0 member is not the split sum")
    found = degeneration_witness_search(ws.module("M"), U, V, seed=seed)
    rec.check("witness:M", found is not None and found.verify(),
              "expected a verified witness for the fixture middle term")
    decoy = degeneration_witness_search(ws.module("M"), ws.module("S2"),
                                        ws.module("W"), seed=seed)
    rec.check("witness:decoy", decoy is None,
              "the forced-split decoy produced a witness")
    return rec.result("scaling", started)


def suite_dualnum(field, seed: int) -> SuiteResult:
    """Internal laws of the dual-number probe."""
    started = time.perf_counter()
    rec = _Recorder()
    for wsname, ses in (("f2", "SES1"), ("f3", "XI3")):
        ws = load_fixture(wsname, field=field)
        U, V = _ses_ends(ws, ses)
        zero_u = ArrowCochain.zero(U, U)
        zero_v = ArrowCochain.zero(V, V)
        probe = dual_number_oracle(U, zero_u, V, zero_v)
        key = f"{wsname}:origin"
        rec.equal(f"{key}:hom", probe.hom_dim_dual, 2 * probe.hom_dim_base)
        rec.equal(f"{key}:z", probe.z_dim_dual, 2 * probe.z_dim_base)
        zu, zv = z_space(U, U), z_space(V, V)
        sweep = [(ArrowCochain.from_vector(U, U, v), zero_v)
                 for v in zu.vectors]
        sweep += [(zero_u, ArrowCochain.from_vector(V, V, v))
                  for v in zv.vectors]
        for i, (Zp, Zpp) in enumerate(sweep):
            probe = dual_number_oracle(U, Zp, V, Zpp)
            key = f"{wsname}:axis:{i}"
            rec.check(f"{key}:hom-bound",
                      probe.hom_dim_dual <= 2 * probe.hom_dim_base,
                      "dual hom dimension exceeded twice the base")
            rec.check(f"{key}:z-bound",
                      probe.z_dim_dual <= 2 * probe.z_dim_base,
                      "dual cocycle dimension exceeded twice the base")
            two = field.of(2)
            scaled = dual_number_oracle(U, Zp.scale(two), V, Zpp.scale(two))
            rec.equal(f"{key}:scale-invariance",
                      (scaled.hom_member, scaled.ext_member),
                      (probe.hom_member, probe.ext_member))
    return rec.result("dualnum", started)


def suite_parser(field, seed: int) -> SuiteResult:
    """Round-trip stability, report determinism, and rejection behavior."""
    started = time.perf_counter()
    rec = _Recorder()
    for name in FIXTURE_NAMES:
        src = fixture_source(name)
        ws = parse_workspace(src)
        printed = print_workspace(ws)
        ws2 = parse_workspace(printed)
        rec.equal(f"{name}:canonical", print_workspace(ws2), printed)
        rec.equal(f"{name}:modules", sorted(ws2.modules), sorted(ws.modules))
        for mn, rep in ws.modules.items():
            rec.check(f"{name}:matrices:{mn}",
                      all(rep.mats[a] == ws2.modules[mn].mats[a]
                          for a in rep.mats),
                      "module matrices changed under round-trip")
    ws = load_fixture("f2")
    tasks = [{"task": "hom", "inputs": {"source": mn, "target": "S1"},
              "result": hom_dim(ws.modules[mn], ws.modules["S1"])}
             for mn in sorted(ws.modules)]
    rec.equal("report:deterministic",
              serialize_report(tasks, meta={"quiver": ws.name}),
              serialize_report(list(tasks), meta={"quiver": ws.name}))
    rec.equal("report:empty", serialize_report([]), '{\n  "tasks": []\n}')

    bad_module = (
        "quiver F2\nvertex 1 2 3\narrow a : 2 -> 1\narrow b : 3 -> 2\n"
        "relation r : a*b\nmodule X : dim 1 1 1\n  a = [ 1 ]\n  b = [ 1 ]\n"
    )
    try:
        parse_workspace(bad_module)
        rec.check("reject:relation", False, "violating module was accepted")
    except ParseError as exc:
        rec.check("reject:relation", "relation r" in str(exc) and "X" in str(exc),
                  f"unhelpful error: {exc}")
    for key, text in (
        ("reject:shape", "quiver Q\nvertex 1 2\narrow a : 2 -> 1\n"
                         "module X : dim 1 0\n  a = [ 1 ]\n"),
        ("reject:unknown-vertex", "quiver Q\nvertex 1\narrow a : 2 -> 1\n"),
        ("reject:duplicate", "quiver Q\nvertex 1 2\narrow a : 2 -> 1\n"
                             "arrow a : 2 -> 1\n"),
        ("reject:field", "quiver Q\nvertex 1\nfield F6\n"),
        ("reject:decimal", "quiver Q\nvertex 1 2\narrow a : 2 -> 1\n"
                           "module X : dim 1 1\n  a = [ 0.5 ]\n"),
    ):
        try:
            parse_workspace(text)
            rec.check(key, False, "invalid source was accepted")
        except ParseError:
            rec.check(key, True)
    return rec.result("parser", started)


SUITES = {
    "zdim": suite_zdim,
    "euler": suite_euler,
    "ext2-agree": suite_ext2_agree,
    "yoneda": suite_yoneda,
    "tangent-blocks": suite_tangent_blocks,
    "schemeext": suite_schemeext,
    "psi": suite_psi,
    "regularity": suite_regularity,
    "scaling": suite_scaling,
    "dualnum": suite_dualnum,
    "parser": suite_parser,
}


def run_suites(name: str, field=None, seed: int = 0) -> list[SuiteResult]:
    """Run one suite, or all of them in registry order."""
    field = field or QQ
    if name == "all":
        return [fn(field, seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r} "
                       f"(expected one of {', '.join(SUITES)} or 'all')")
    return [SUITES[name](field, seed)]
