"""Benchmark for quiverext: exact Hom/Ext answers and the regularity certificate.

Usage, from the root of a source checkout:

    python3 qxbench/run.py --workload square-q --seed 1 --seconds 30 --trace 0
    python3 qxbench/run.py --self-test

A run builds its inputs from the seed, runs identical passes over a fixed
query list until the time is up (only whole passes count), checks every
answer, and prints one JSON object as its last line of standard output.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  See qxbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import cliwork
import library
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("square-q", "loops-f101", "fixtures-cli")
SETUP_SAMPLES = 5
END_TO_END = {"setup_s": "s", "queries_per_s": "1/s", "base_rung_s": "s",
              "peak_rss_mb": "MB"}


def _require_source():
    if not (ROOT / "src" / "quiverext" / "__init__.py").is_file():
        sys.exit(f"error: no quiverext source under {ROOT / 'src'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _setup_probe(workload, seed):
    """Child process: time the set-up of an in-process workload from scratch."""
    print(repr(library.LibraryWorkload(workload, seed).setup()))


def _setup_seconds(workload, seed):
    """Median set-up time over fresh processes (the import is cold in each)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return median(samples)


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


class Run:
    """Passes over one workload until the time is up, and their summary."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.passes = []          # [(times, failures)]
        self.setup_s = None
        self.tracer = None
        self.setup_layers = {}
        self.pass_layers = []

    def run(self):
        OUT.mkdir(parents=True, exist_ok=True)
        if self.workload == "fixtures-cli":
            self._run_cli()
        else:
            self._run_library()
        return self.result()

    # -- in-process workloads ------------------------------------------------------

    def _run_library(self):
        w = library.LibraryWorkload(self.workload, self.seed)
        if self.trace:
            import quiverext  # noqa: F401  (the tracer patches loaded modules)

            self.tracer = tracer.Tracer()
            self.tracer.install()
            self.tracer.enabled = True
        w.setup()
        if self.tracer:
            self.tracer.enabled = False
        w.build_references()
        if not self.trace:
            self.setup_s = _setup_seconds(self.workload, self.seed)
        self._loop(w.run_pass, len(w.queries()), w.rungs[0][0])
        self.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
        if self.tracer:
            phases = tracer.aggregate(self.tracer.spans, self.tracer.counts)
            self.setup_layers = phases.get("setup", {})
            self.pass_layers = [phases.get(f"pass{i}", {}) for i in range(len(self.passes))]
            self.tracer.dump(OUT / f"trace-{self.workload}-seed{self.seed}.json")

    def _loop(self, one_pass, nqueries, base_rung):
        self.nqueries, self.base_rung = nqueries, base_rung
        start = time.perf_counter()
        while not self.passes or time.perf_counter() - start < self.seconds:
            if self.tracer:
                self.tracer.phase = f"pass{len(self.passes)}"
                self.tracer.enabled = True
            times, failures = one_pass()
            if self.tracer:
                self.tracer.enabled = False
            self.passes.append((times, failures))

    # -- fixtures-cli -----------------------------------------------------------------

    def _run_cli(self):
        w = cliwork.CliWorkload(ROOT, self.seed, OUT)
        w.setup()
        if not self.trace:
            self.setup_s = median(w.setup_seconds() for _ in range(SETUP_SAMPLES))
        span_sets = []

        def one_pass():
            times, failures, files = w.run_pass(trace=self.trace)
            span_sets.append(files)
            return times, failures

        self._loop(one_pass, len(w.queries()), w.rungs[0][0])
        self.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        if self.trace:
            for files in span_sets:
                total = {}
                for f in files:
                    spans, counts = tracer.load(f)
                    for name, value in tracer.aggregate(spans, counts)["query"].items():
                        total[name] = total.get(name, 0) + value
                    f.unlink()
                self.pass_layers.append(total)

    # -- the result line ----------------------------------------------------------------

    def result(self):
        failed = sum(len(f) for _, f in self.passes)
        wrong = sum(1 for _, f in self.passes for _, problems in f
                    if not problems[0].startswith(("raised", "exit code")))
        attempted = self.nqueries * len(self.passes)
        if self.trace:
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            imports = tracer.import_times(sys.executable, env, ROOT)
            metrics = tracer.per_layer(self.setup_layers, self.pass_layers, imports)
        else:
            pass_s = [sum(t for _, t in times) for times, _ in self.passes]
            base_s = [sum(t for label, t in times if label == self.base_rung)
                      for times, _ in self.passes]
            values = {
                "setup_s": self.setup_s,
                "queries_per_s": median(self.nqueries / s for s in pass_s),
                "base_rung_s": median(base_s),
                "peak_rss_mb": self.peak_rss_mb,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        for i, (_, failures) in enumerate(self.passes):
            for q, problems in failures:
                print(f"pass {i}: FAILED {q}: {'; '.join(problems)}", file=sys.stderr)
        print(f"{self.workload} seed {self.seed}: {len(self.passes)} passes, "
              f"pass seconds {[round(sum(t for _, t in p[0]), 3) for p in self.passes]}, "
              f"peak RSS of this process {_peak_rss_mb(resource.RUSAGE_SELF):.1f} MB",
              file=sys.stderr)
        return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check input determinism, a planted wrong answer, "
                        "and one pass of each workload")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _require_source()
    if args.self_test:
        import selftest

        return selftest.main(ROOT, OUT)
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
