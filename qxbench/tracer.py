"""Per-layer tracing of quiverext from outside the package.

The tracer wraps the public functions of every quiverext module (plus
the private elimination kernel and the symbolic determinant), the
constructors of the classes that do work, ``Matrix`` products and the
algebra reducer.  A function imported by name into other modules
(``from .linalg import kernel_basis``) is bound separately in each, so
every module namespace that holds the object is patched.  Modules are
reached through ``sys.modules``: the package attribute ``quiverext.ext1``
is the function, not the module.

Spans (name, start, end, parent, phase, extra) stay in memory and are
written once, at the end.  Field operations are counted, not spanned,
by wrapping the methods of ``RationalField`` and ``PrimeField``.
"""

from __future__ import annotations

import functools
import inspect
import json
import subprocess
import sys
import time
from collections import Counter, defaultdict
from statistics import median

# Private callables that carry a per-layer metric of their own.
PRIVATE = {("linalg", "_rref"): "rref", ("iso", "_symbolic_det_is_zero"): "symbolic"}
# Classes whose constructors do the work of their layer.
CLASSES = {("ext1", "ExtSpace1"), ("ext2", "ProjPresentation"), ("ext2", "Ext2Model")}
FIELD_OPS = ("mul", "inv")

# Every per-layer metric the benchmark reports, with its unit.
PER_LAYER = (
    ("fields.mul.calls", "count"), ("fields.inv.calls", "count"),
    ("linalg.rref.calls", "count"), ("linalg.rref.cells", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.coordinates_in_basis.calls", "count"),
    ("linalg.linear_map_matrix.probes", "count"), ("linalg.linear_map_matrix.s", "s"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_s", "s"),
    ("linalg.matrix_init.calls", "count"),
    ("algebra.algebra_basis.calls", "count"), ("algebra.algebra_basis.s", "s"),
    ("algebra.reduce_terms.calls", "count"), ("algebra.reduce_terms.self_s", "s"),
    ("rep.hom_basis.calls", "count"), ("rep.hom_basis.self_s", "s"),
    ("ext1.z_space.calls", "count"), ("ext1.z_space.repeats", "count"),
    ("ext1.z_space.self_s", "s"),
    ("ext1.b_space.calls", "count"), ("ext1.b_space.self_s", "s"),
    ("ext1.ExtSpace1.calls", "count"), ("ext1.ExtSpace1.self_s", "s"),
    ("ext2.ProjPresentation.calls", "count"), ("ext2.ProjPresentation.self_s", "s"),
    ("ext2.Ext2Model.self_s", "s"), ("ext2.gldim_le2_check.s", "s"),
    ("ext2.compose_cocycles.calls", "count"), ("ext2.compose_cocycles.self_s", "s"),
    ("iso.iso_test.calls", "count"), ("iso.iso_test.self_s", "s"),
    ("iso.iso_test.unknown", "count"), ("iso.symbolic.s", "s"),
    ("geometry.degeneration_witness_search.s", "s"),
    ("geometry.degeneration_witness_search.attempts", "count"),
    ("geometry.regularity_certificate.s", "s"),
    ("geometry.hom_tangent_pairs.self_s", "s"),
    ("geometry.ext_tangent_pairs.self_s", "s"),
    ("dsl.parse_workspace.s", "s"), ("dsl.serialize_report.s", "s"),
    ("cli.main.s", "s"), ("cli.import_s", "s"), ("cli.import_sympy_s", "s"),
    ("suites.run_suites.s", "s"),
)


def _rep_key(rep):
    """Content key of a representation: dims and arrow matrix entries."""
    return (tuple(sorted(rep.dims.items())),
            tuple((a, tuple(map(tuple, m.rows))) for a, m in sorted(rep.mats.items())))


def _extra(name, args, result):
    """The per-span datum a metric needs, taken from arguments or result."""
    if name == "linalg.rref":
        rows = args[1]
        return len(rows) * (len(rows[0]) if rows else 0)
    if name == "linalg.linear_map_matrix":
        return args[1]
    if name == "ext1.z_space":
        return hash((_rep_key(args[0]), _rep_key(args[1])))
    if name == "iso.iso_test":
        return result.verdict
    return None


class Tracer:
    """Span recorder with a switch; wrappers pass straight through when off."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, phase, extra]
        self.stack = []
        self.counts = Counter()  # (phase, name) -> calls, for count-only hooks
        self.enabled = False
        self.phase = "setup"

    # -- wrappers ---------------------------------------------------------------

    def span(self, name, fn, with_extra=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), None,
                   tracer.stack[-1] if tracer.stack else -1, tracer.phase, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if with_extra:
                rec[5] = _extra(name, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self):
        """Patch every quiverext module; call after the package is imported."""
        mods = {n: m for n, m in list(sys.modules.items())
                if n.startswith("quiverext.") and m is not None}
        namespaces = list(mods.values()) + [sys.modules["quiverext"]]
        replaced = {}
        for modname, mod in sorted(mods.items()):
            layer = modname.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or (layer, attr) in PRIVATE):
                    label = PRIVATE.get((layer, attr), attr)
                    replaced[id(obj)] = (obj, self.span(f"{layer}.{label}", obj, True))
                elif inspect.isclass(obj) and (layer, attr) in CLASSES:
                    obj.__init__ = self.span(f"{layer}.{attr}", obj.__init__)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(ns, attr, replaced[id(obj)][1])
        linalg = mods["quiverext.linalg"]
        linalg.Matrix.__matmul__ = self.span("linalg.matmul", linalg.Matrix.__matmul__)
        linalg.Matrix.__init__ = self.counter("linalg.matrix_init", linalg.Matrix.__init__)
        basis_cls = mods["quiverext.algebra"].AlgebraBasis
        basis_cls.reduce_terms = self.span("algebra.reduce_terms", basis_cls.reduce_terms)
        fields = mods["quiverext.fields"]
        for cls in (fields.RationalField, fields.PrimeField):
            for op in FIELD_OPS:
                setattr(cls, op, self.counter(f"fields.{op}", getattr(cls, op)))

    # -- output -------------------------------------------------------------------

    def dump(self, path):
        """Write every span and count once, as one JSON document."""
        doc = {"spans": self.spans,
               "counts": [[p, n, c] for (p, n), c in sorted(self.counts.items())]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def load(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    counts = Counter({(p, n): c for p, n, c in doc["counts"]})
    return doc["spans"], counts


def aggregate(spans, counts):
    """Per-phase layer metrics from one span list: {phase: {metric: value}}."""
    out = defaultdict(Counter)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    z_keys = defaultdict(set)
    for i, (name, start, end, parent, phase, extra) in enumerate(spans):
        m = out[phase]
        dur = end - start
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += dur - child_time[i]
        if not _has_ancestor(spans, parent, name):
            m[f"{name}.s"] += dur
        if name == "linalg.rref":
            m["linalg.rref.cells"] += extra
        elif name == "linalg.linear_map_matrix":
            m["linalg.linear_map_matrix.probes"] += extra
        elif name == "ext1.z_space":
            z_keys[phase].add(extra)
        elif name == "iso.iso_test":
            if extra == "unknown":
                m["iso.iso_test.unknown"] += 1
            if parent >= 0 and spans[parent][0] == "geometry.degeneration_witness_search":
                m["geometry.degeneration_witness_search.attempts"] += 1
    for phase, keys in z_keys.items():
        out[phase]["ext1.z_space.repeats"] += out[phase]["ext1.z_space.calls"] - len(keys)
    for (phase, name), c in counts.items():
        out[phase][f"{name}.calls"] += c
    return out


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer(setup, passes, measured):
    """Set-up value plus the median over passes for every listed metric,
    or the value measured apart (the import times)."""
    out = {}
    for name, unit in PER_LAYER:
        if name in measured:
            value = measured[name]
        else:
            value = setup.get(name, 0) + median(p.get(name, 0) for p in passes)
        if unit == "count":
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def import_times(python, env, root, runs=3):
    """Median cumulative import seconds of quiverext and of sympy (-X importtime)."""
    found = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import quiverext"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("quiverext", "sympy"):
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {"cli.import_s": median(found["quiverext"]),
            "cli.import_sympy_s": median(found["sympy"])}
