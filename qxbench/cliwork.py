"""The fixtures-cli workload: fresh quiverext processes, one at a time.

Each query is a whole command as a user runs it, so every call pays for
interpreter start-up, ``import quiverext``, workspace parsing and the
JSON report.  The base rung runs the bundled fixtures; the second rung
runs the same kinds of command on a generated square workspace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import exact
import inputs

# The console script's body: ``quiverext = quiverext.cli:main``.
CLI_MAIN = "import sys\nfrom quiverext.cli import main\nsys.exit(main())"
TIMEOUT_S = 60


class CliWorkload:
    """The fixed command list over the bundled and a generated workspace."""

    def __init__(self, root, seed: int, out_dir):
        self.root = root
        self.text, self.modules = inputs.cli_inputs(seed)
        self.path = out_dir / f"cli-seed{seed}.qv"
        self.out_dir = out_dir
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        data = root / "src" / "quiverext" / "data"
        f2, f3, gen = str(data / "f2.qv"), str(data / "f3.qv"), str(self.path)
        self.rungs = [
            ("fixtures", [
                ("certify", f3, "XI3"), ("certify", f2, "SES1"),
                ("witness", f2, "M", "S1", "V"), ("psi", f3, "XI3"),
                ("e-tangent", f3, "R4", "S4"), ("ext2", f3, "S4", "S1"),
                ("verify", "all"),
            ]),
            ("generated", [
                ("e-tangent", gen, "Up", "Vp"), ("certify", gen, "XP"),
                ("witness", gen, "Mp", "Up", "Vp"), ("psi", gen, "XI"),
                ("ext2", gen, "Vp", "Up"),
            ]),
        ]
        self.first_output = {}
        self.trace_seq = 0

    def setup(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.path.write_text(self.text, encoding="utf-8")

    def command(self, args, trace=False):
        if trace:
            self.trace_seq += 1
            spans = self.out_dir / f"cli-spans-{self.trace_seq}.json"
            return [sys.executable, str(self.root / "qxbench" / "tracechild.py"),
                    str(spans), *args], spans
        return [sys.executable, "-c", CLI_MAIN, *args], None

    def run_one(self, args, trace=False):
        """Run one command to its end; (seconds, exit code, stdout, spans file)."""
        argv, spans = self.command(args, trace)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            code = f"none (killed after {TIMEOUT_S} s)"
            return time.perf_counter() - t0, code, b"", spans
        return time.perf_counter() - t0, proc.returncode, proc.stdout, spans

    def setup_seconds(self):
        """Wall time of one ``quiverext check`` on the generated workspace."""
        seconds, code, _, _ = self.run_one(("check", str(self.path)))
        if code != 0:
            raise RuntimeError(f"quiverext check exited {code}")
        return seconds

    def queries(self):
        return [(label, q) for label, qs in self.rungs for q in qs]

    def run_pass(self, trace=False):
        """One pass: per-query times, failures, and span files when traced."""
        got, times, failures, span_files = {}, [], [], []
        for label, q in self.queries():
            seconds, code, out, spans = self.run_one(q, trace)
            times.append((label, seconds))
            if spans is not None:
                span_files.append(spans)
            problems = self.check(q, code, out, got)
            if problems:
                failures.append((q, problems))
        return times, failures, span_files

    # -- checks ---------------------------------------------------------------

    def check(self, q, code, out, got):
        """Problems with one report; got holds this pass's earlier tasks."""
        if code != 0:
            return [f"exit code {code}"]
        first = self.first_output.setdefault(q, out)
        problems = [] if first == out else ["JSON differs from the first pass"]
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return problems + [f"report is not JSON: {exc}"]
        if q[0] == "verify":
            bad = [t["inputs"]["suite"] for t in doc["tasks"] if not t["result"]["pass"]]
            return problems + [f"suite {s} failed" for s in bad]
        task = doc["tasks"][0]
        got[q] = task
        check = getattr(self, "_check_" + q[0].replace("-", "_"))
        try:
            return problems + check(q, task, got)
        except (KeyError, TypeError) as exc:
            return problems + [f"report lacks a field: {exc!r}"]

    def _dims(self, name):
        return self.modules[name].dims

    def _check_certify(self, q, task, got):
        r = task["result"]
        if q[2] in ("XI3", "SES1"):
            # the paper's worked examples
            return (exact.differs("verdict", r["verdict"], "regular-tangent")
                    + exact.differs("a(d)", r["a_of_d"], 3)
                    + exact.differs("orbit codimension",
                               r["a_of_d"] - r["orbit_dim_split"], 1))
        blocks = got.get(("e-tangent", q[1], "Up", "Vp"))
        blocks = sum(blocks["certificate"]["blocks"]) if blocks else None
        return (exact.differs("a(d)", r["a_of_d"],
                         exact.a_of_d(inputs.SQUARE, self._dims("Mp")))
                + exact.differs("tangent dim vs the four e-tangent blocks",
                           r["tangent_dim"], blocks))

    def _check_witness(self, q, task, got):
        problems = exact.differs("found", task["result"]["found"], True)
        if q[1] == str(self.path):
            want = [self._dims(q[2])[x] for x in inputs.SQUARE["vertices"]]
            problems += exact.differs("middle dims",
                                 task.get("certificate", {}).get("middle_dims"), want)
        return problems

    def _check_psi(self, q, task, got):
        r = task["result"]
        problems = exact.differs("kernel dim", r["kernel_dim"], r["domain_dim"] - r["rank"])
        if not 0 <= r["rank"] <= min(r["domain_dim"], r["target_dim"]):
            problems.append("rank out of range")
        return problems + exact.differs("surjective", r["surjective"],
                                   r["rank"] == r["target_dim"])

    def _check_e_tangent(self, q, task, got):
        cert = task["certificate"]
        if not 0 <= task["result"] <= cert["hom_pairs"] or len(cert["blocks"]) != 4:
            return ["pair dimension exceeds the hom-pair dimension"]
        return []

    def _check_ext2(self, q, task, got):
        cert = task["certificate"]
        problems = exact.differs("small vs syzygy model", cert["small_model"],
                            cert["syzygy_model"])
        if q[2:] == ("S4", "S1"):
            # the one relation of the square runs from 4 to 1
            problems += exact.differs("Ext2(S4, S1)", cert["syzygy_model"], 1)
        return problems
