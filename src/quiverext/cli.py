"""Command-line interface: one subcommand per library operation."""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AdmissibilityError
from .dsl import (
    ParseError,
    cast_workspace,
    matrix_payload,
    parse_workspace,
    serialize_report,
)
from .ext1 import ext1
from .ext2 import HypothesisError, ext2_small_model, ext2_via_omega
from .fields import QQ, field_by_name
from .geometry import (
    InconclusiveSearch,
    _search_over,
    degeneration_witness_search,
    ext_tangent_pairs,
    hom_tangent_pairs,
    orbit_dim,
    psi_map,
    regularity_certificate,
    tangent_block_decomposition,
    tangent_module_variety,
)
from .quiver import QuiverError, a_of_d, euler_form
from .rep import hom_basis
from .suites import SUITES, run_suites


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default=None,
                        help="ground field override: Q or Fp (e.g. F101)")
    common.add_argument("--truncation-cap", type=int, default=None,
                        help="bound on the admissibility level of the algebra")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized searches and suites")
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    common.add_argument("--out", default=None,
                        help="write the report to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="quiverext",
        description="Extension spaces, tangent pairs, and degeneration "
                    "certificates for modules over bound quivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, positionals, _) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("workspace", help="workspace file (.qv)")
        for n in positionals:
            p.add_argument(n)
    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite over bundled fixtures")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    return parser


def _parse_dimvec(text: str, bq) -> dict:
    parts = text.split(",")
    vertices = bq.quiver.vertices
    if len(parts) != len(vertices):
        raise QuiverError(
            f"expected {len(vertices)} comma-separated entries, got {len(parts)}")
    # ASCII digits only: int() also takes '_', spaces and other scripts
    if not all(p.isascii() and p.removeprefix("-").isdigit() for p in parts):
        raise QuiverError(f"dimension vector entries must be integers: {text!r}")
    return dict(zip(vertices, map(int, parts)))


def _load_workspace(args):
    with open(args.workspace, encoding="utf-8") as fh:
        text = fh.read()
    ws = parse_workspace(text, truncation_cap=args.truncation_cap)
    if args.field is not None:
        ws = cast_workspace(ws, field_by_name(args.field))
    return ws


def _sequence_witness(ws, args, miss):
    """A task for the declared sequence ``args.ses`` and its verified
    witness; without one the task reads a null result and the warning
    ``miss``, plus the reason of an inconclusive search."""
    task = {"task": args.command, "inputs": {"ses": args.ses, "seed": args.seed}}
    try:
        witness = degeneration_witness_search(*ws.sequence_modules(args.ses),
                                              seed=args.seed)
    except InconclusiveSearch as exc:
        witness, miss = None, f"{miss}: {exc}"
    if witness is None:
        task["result"], task["warnings"] = None, [miss]
    return task, witness


# -- one task builder per command ----------------------------------------


_COMMANDS = {}


def _command(name, help_text, *positionals):
    """Register a task builder ``(ws, args) -> (task, exit code)`` as the
    subcommand ``name`` over a workspace file and ``positionals``."""
    def register(build):
        _COMMANDS[name] = (help_text, positionals, build)
        return build
    return register


@_command("check", "validate a workspace file")
def _task_check(ws, args):
    modules = {name: [rep.dims[x] for x in ws.bound_quiver.quiver.vertices]
               for name, rep in ws.modules.items()}
    return {
        "task": "check",
        "inputs": {"workspace": ws.name},
        "result": {
            "modules": modules,
            "relations": len(ws.bound_quiver.relations),
            "sequences": sorted(ws.sequences),
            "pass": True,
        },
    }, 0


@_command("hom", "dimension and basis of Hom(M, N)", "M", "N")
def _task_hom(ws, args):
    M, N = ws.module(args.M), ws.module(args.N)
    basis = hom_basis(M, N)
    cert = [{str(x): matrix_payload(f.mats[x])
             for x in ws.bound_quiver.quiver.vertices}
            for f in basis]
    return {
        "task": "hom",
        "inputs": {"source": args.M, "target": args.N},
        "result": len(basis),
        "certificate": cert,
    }, 0


@_command("ext1", "first extensions of V by U", "V", "U")
def _task_ext1(ws, args):
    V, U = ws.module(args.V), ws.module(args.U)
    space = ext1(V, U)
    # B is built first, so the dimension reads it rather than a second rank
    certificate = {"cocycles": space.z.dim, "coboundaries": space.b.dim}
    return {
        "task": "ext1",
        "inputs": {"source": args.V, "target": args.U},
        "result": space.dim,
        "certificate": certificate,
    }, 0


@_command("ext2", "second extensions of N by M, via both models", "N", "M")
def _task_ext2(ws, args):
    N, M = ws.module(args.N), ws.module(args.M)
    omega = ext2_via_omega(N, M).dim
    task = {
        "task": "ext2",
        "inputs": {"source": args.N, "target": args.M},
        "result": omega,
    }
    try:
        small = ext2_small_model(N, M).dim
    except HypothesisError as exc:
        # the syzygy model holds for every input; only the small one is gated
        task["certificate"] = {"small_model": f"gated: {exc}",
                               "syzygy_model": omega, "agree": None}
        return task, 0
    task["result"] = small
    task["certificate"] = {"small_model": small, "syzygy_model": omega,
                           "agree": small == omega}
    if small != omega:
        task["warnings"] = ["the two second-extension models disagree"]
        return task, 1
    return task, 0


@_command("euler", "bilinear form on two dimension vectors "
                  "(comma-separated)", "d1", "d2")
def _task_euler(ws, args):
    bq = ws.bound_quiver
    d1 = _parse_dimvec(args.d1, bq)
    d2 = _parse_dimvec(args.d2, bq)
    return {
        "task": "euler",
        "inputs": {"d1": [d1[x] for x in bq.quiver.vertices],
                   "d2": [d2[x] for x in bq.quiver.vertices]},
        "result": euler_form(bq, d1, d2),
    }, 0


@_command("orbit", "orbit dimension of a module", "M")
def _task_orbit(ws, args):
    info = orbit_dim(ws.module(args.M))
    return {
        "task": "orbit",
        "inputs": {"module": args.M},
        "result": info.orbit_dim,
        "certificate": {"group_dim": info.group_dim, "end_dim": info.end_dim},
    }, 0


@_command("tangent", "tangent dimension of the module variety at N", "N")
def _task_tangent(ws, args):
    N = ws.module(args.N)
    space = tangent_module_variety(N)
    a = a_of_d(ws.bound_quiver, N.dim_vector())
    return {
        "task": "tangent",
        "inputs": {"module": args.N},
        "result": space.dim,
        "certificate": {"a_of_d": a, "matches_a": space.dim == a},
    }, 0


@_command("e-tangent", "scheme-tangent pair space for a split point",
          "U", "V")
def _task_e_tangent(ws, args):
    U, V = ws.module(args.U), ws.module(args.V)
    hpairs = hom_tangent_pairs(ext1(V, U))
    pairs = ext_tangent_pairs(hpairs)
    blocks = tangent_block_decomposition(U, V)
    return {
        "task": "e-tangent",
        "inputs": {"sub": args.U, "quotient": args.V},
        "result": pairs.dim,
        "certificate": {"hom_pairs": hpairs.dim, "blocks": list(blocks)},
    }, 0


@_command("psi", "pairing-map rank and kernel at a declared sequence",
          "ses")
def _task_psi(ws, args):
    task, witness = _sequence_witness(
        ws, args, "no extension cocycle found for the sequence")
    if witness is None:
        return task, 1
    psi = psi_map(witness.space, witness.Z)
    task["result"] = {
        "domain_dim": psi.domain_dim,
        "rank": psi.rank,
        "kernel_dim": psi.kernel_dim,
        "target_dim": psi.model.dim,
        "surjective": psi.surjective,
    }
    task["certificate"] = {a.name: matrix_payload(witness.Z.mats[a.name])
                           for a in ws.bound_quiver.quiver.arrows}
    return task, 0


@_command("witness", "search for a short exact sequence presenting M",
          "M", "U", "V")
def _task_witness(ws, args):
    M, U, V = ws.module(args.M), ws.module(args.U), ws.module(args.V)
    task = {
        "task": "witness",
        "inputs": {"middle": args.M, "sub": args.U, "quotient": args.V,
                   "seed": args.seed},
    }
    space = ext1(V, U)
    try:
        witness = _search_over(M, space, args.seed)
    except InconclusiveSearch as exc:
        task["result"] = {"found": False, "conclusive": False}
        task["warnings"] = [str(exc)]
        return task, 1
    if witness is None:
        # every cocycle a coboundary: the split sum was the only candidate
        conclusive = space.dim == 0
        task["result"] = {"found": False, "conclusive": conclusive}
        if conclusive:
            return task, 0
        task["warnings"] = ["search exhausted without a verified witness"]
        return task, 1
    task["result"] = {"found": True, "conclusive": True}
    task["certificate"] = {
        "cocycle": {a.name: matrix_payload(witness.Z.mats[a.name])
                    for a in ws.bound_quiver.quiver.arrows},
        "middle_dims": [witness.middle.dims[x]
                        for x in ws.bound_quiver.quiver.vertices],
    }
    return task, 0


@_command("certify", "tangent accounting certificate at a declared "
                    "sequence", "ses")
def _task_certify(ws, args):
    task, witness = _sequence_witness(
        ws, args, "no verified witness for the sequence")
    if witness is None:
        return task, 1
    report = regularity_certificate(witness.M, witness.U, witness.V, witness)
    task["result"] = {
        "verdict": report.verdict,
        "a_of_d": report.a_d,
        "bound": report.bound,
        "tangent_dim": report.z_nn_dim,
        "orbit_dim_split": report.orbit_dim_n,
        "a_of_d_sub": report.a_d_sub,
        "a_of_d_quotient": report.a_d_quot,
        "hom_vu": report.hom_vu,
        "ext1_vu": report.ext1_vu,
        "ext2_vu": report.ext2_vu,
        "hom_uv": report.hom_uv,
        "ext1_uv": report.ext1_uv,
        "ext2_uv": report.ext2_uv,
        "pair_dim": report.ext_pairs_dim,
        "flags": report.flags,
    }
    return task, 0


# -- rendering -------------------------------------------------------------


def _render_text(tasks, results=None) -> str:
    lines = []
    for task in tasks:
        lines.append(f"task {task['task']}")
        for k, v in sorted(task.get("inputs", {}).items()):
            lines.append(f"  {k}: {v}")
        lines.append(f"  result: {json.dumps(task.get('result'), sort_keys=True)}")
        for w in task.get("warnings", ()):
            lines.append(f"  warning: {w}")
    if results:
        total = sum(r.wall_time for r in results)
        for r in results:
            status = "PASS" if r.passed else f"FAIL ({len(r.failures)})"
            lines.append(f"suite {r.suite}: {status} "
                         f"[{r.cases} cases, {r.wall_time:.2f}s]")
            for f in r.failures:
                lines.append(f"  {f['case']}: {f['detail']}")
        lines.append(f"total wall time: {total:.2f}s")
    return "\n".join(lines) + "\n"


def _emit(args, tasks, meta, results=None) -> None:
    if args.format == "json":
        payload = serialize_report(tasks, meta=meta) + "\n"
    else:
        payload = _render_text(tasks, results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            if args.truncation_cap is not None:
                raise QuiverError(
                    "verify runs the bundled fixtures at their default "
                    "truncation window")
            field = field_by_name(args.field) if args.field else QQ
            results = run_suites(args.suite, field=field, seed=args.seed)
            tasks = [r.to_task(field, args.seed) for r in results]
            meta = {"field": field.name, "quiver": "bundled-fixtures",
                    "truncation": 12}
            _emit(args, tasks, meta, results=results)
            return 0 if all(r.passed for r in results) else 1
        ws = _load_workspace(args)
        _, _, build = _COMMANDS[args.command]
        task, code = build(ws, args)
        meta = {"field": ws.field.name, "quiver": ws.name,
                "truncation": ws.bound_quiver.truncation_cap}
        _emit(args, [task], meta)
        return code
    except (ParseError, QuiverError, AdmissibilityError, HypothesisError,
            InconclusiveSearch, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
