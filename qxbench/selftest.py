"""Self-test of the benchmark itself: python3 qxbench/run.py --self-test

1. The same seed gives byte-identical generated inputs (compared by the
   SHA-256 of the workspace text), and another seed gives other inputs.
2. A planted wrong answer (one Ext^1 dimension off by one) is reported
   as a failed query; any other failure it causes is on the same pair.
3. Short mode: one pass of each workload, with no failed query.
"""

from __future__ import annotations

import hashlib

import cliwork
import inputs
import library


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main(root, out_dir) -> int:
    problems = []
    gens = {"square-q": lambda s: inputs.square_inputs(s).text,
            "loops-f101": lambda s: inputs.loops_inputs(s).text,
            "fixtures-cli": lambda s: inputs.cli_inputs(s)[0]}
    for name, gen in gens.items():
        a, b, c = _digest(gen(7)), _digest(gen(7)), _digest(gen(8))
        print(f"inputs {name}: seed 7 -> {a[:16]}, again -> {b[:16]}, seed 8 -> {c[:16]}")
        if a != b:
            problems.append(f"{name}: the same seed gave different inputs")
        if a == c:
            problems.append(f"{name}: two seeds gave the same inputs")

    for name in ("square-q", "loops-f101"):
        w = library.LibraryWorkload(name, 0)
        w.setup()
        w.build_references()
        _, failures = w.run_pass(plant=True)
        print(f"planted wrong answer on {name}: {len(failures)} failed query "
              f"{[(q, p[:1]) for q, p in failures]}")
        # the wrong Ext^1 may also break the Euler identity of its pair
        if not failures or failures[0][0][0] != "ext1" \
                or any(q[1:3] != failures[0][0][1:3] for q, _ in failures):
            problems.append(f"{name}: the planted wrong answer was not reported alone")
        times, failures = w.run_pass()
        print(f"short pass {name}: {len(times)} queries, {len(failures)} failed, "
              f"{sum(t for _, t in times):.3f} s")
        if failures:
            problems.append(f"{name}: short pass failed {failures}")

    w = cliwork.CliWorkload(root, 0, out_dir)
    w.setup()
    times, failures, _ = w.run_pass()
    print(f"short pass fixtures-cli: {len(times)} commands, {len(failures)} failed, "
          f"{sum(t for _, t in times):.3f} s")
    if failures:
        problems.append(f"fixtures-cli: short pass failed {failures}")

    for p in problems:
        print("SELF-TEST FAILED:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0
