"""The in-process workloads, square-q and loops-f101.

Set-up imports quiverext, parses the generated workspace and builds the
bound quiver's algebra basis (and, on the square, its global-dimension
check), so that every pass does the same work.  After set-up, and
outside every timed region, the answers for each pair of catalogue
summands are computed once; a generated module is a conjugated direct
sum of catalogue modules, so each timed answer must equal the sum of
those over its summand pairs.
"""

from __future__ import annotations

import time

import exact
import inputs

# Fields of the regularity report checked against summand sums; each name
# is <table key>_<direction>, so hom_vu is dim Hom(V, U).
CERT_FIELDS = ("hom_vu", "ext1_vu", "ext2_vu", "hom_uv", "ext1_uv", "ext2_uv",
               "z_uv_dim", "z_vu_dim")


class LibraryWorkload:
    """One seeded input set and the fixed query list run over it."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.kind = "square" if name == "square-q" else "loops"
        self.quiver = inputs.QUIVERS[self.kind]
        self.prime = 101 if self.quiver["field"] == "F101" else None
        make = inputs.square_inputs if self.kind == "square" else inputs.loops_inputs
        self.inputs = make(seed)
        self.rungs = self.inputs.rungs
        self.qx = None
        self.ws = None
        self.table = {}
        self.table_problems = {}

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Import the program and build every input; returns the seconds."""
        t0 = time.perf_counter()
        import quiverext

        ws = quiverext.parse_workspace(self.inputs.text)
        bq = ws.bound_quiver
        bq.algebra_basis(ws.field)
        if self.kind == "square":
            quiverext.gldim_le2_check(bq, ws.field)
        elapsed = time.perf_counter() - t0
        self.qx, self.ws = quiverext, ws
        return elapsed

    def build_references(self):
        """Answers on every needed pair of catalogue summands (untimed)."""
        cat = inputs.catalogue(self.kind)
        builder = inputs.Builder(self.kind, None)
        for name in cat:
            builder.add(name, (name,), conjugated=False)
        ref_ws = self.qx.parse_workspace(builder.text())
        needed = set()
        for _, queries in self.rungs:
            for q in queries:
                mods = [self.inputs.modules[n].summands for n in self._modules(q)]
                for a in mods:
                    for b in mods:
                        needed.update((x, y) for x in a for y in b)
        for ci, cj in sorted(needed):
            self.table[(ci, cj)] = self._entry(ref_ws.module(ci), ref_ws.module(cj),
                                               cat[ci], cat[cj])

    @staticmethod
    def _modules(q):
        return q[2:] if q[0] == "certify" else q[1:]

    def _entry(self, V, U, cv, cu):
        qx = self.qx
        try:
            space = qx.ext1(V, U)
            e = {"hom": qx.hom_dim(V, U), "z": space.z.dim, "b": space.b.dim,
                 "ext1": space.dim, "ext2": qx.ext2_via_omega(V, U).dim,
                 "ext2small": (qx.ext2_small_model(V, U).dim
                               if self.kind == "square" else None)}
        except Exception as exc:  # every query that needs this pair fails
            self.table_problems[(cv.name, cu.name)] = [
                f"reference {cv.name}, {cu.name} raised {type(exc).__name__}: {exc}"]
            return dict.fromkeys(("hom", "z", "b", "ext1", "ext2", "ext2small"), 0)
        dv = dict(zip(self.quiver["vertices"], cv.dims))
        du = dict(zip(self.quiver["vertices"], cu.dims))
        problems = []
        if e["z"] - e["b"] != e["ext1"]:
            problems.append("dim Z - dim B != dim Ext1")
        if e["b"] != sum(dv[x] * du[x] for x in dv) - e["hom"]:
            problems.append("dim B != sum d_x(V) d_x(U) - dim Hom")
        if cv.projective_at is not None:
            if e["hom"] != du[cv.projective_at] or e["ext1"] or e["ext2"]:
                problems.append(f"projective {cv.name}: Hom != dim at vertex "
                                "or Ext out of it nonzero")
        if self.kind == "square":
            if e["hom"] - e["ext1"] + e["ext2"] != exact.euler_form(self.quiver, dv, du):
                problems.append("Euler identity fails")
            if e["ext2small"] != e["ext2"]:
                problems.append("small model != syzygy model")
        if problems:
            self.table_problems[(cv.name, cu.name)] = problems
        return e

    def ref(self, key, vname, uname):
        """Sum of a table entry over the summand pairs, and their problems."""
        vs = self.inputs.modules[vname].summands
        us = self.inputs.modules[uname].summands
        total, problems = 0, []
        for x in vs:
            for y in us:
                total += self.table[(x, y)][key]
                problems += self.table_problems.get((x, y), [])
        return total, problems

    # -- the queries ----------------------------------------------------------

    def answer(self, q):
        qx, mod = self.qx, self.ws.module
        kind = q[0]
        if kind == "certify":
            U, M, V = mod(q[2]), mod(q[3]), mod(q[4])
            witness = qx.degeneration_witness_search(M, U, V, seed=0)
            if witness is None:
                return None, None
            return witness, qx.regularity_certificate(M, U, V, witness)
        if kind == "tangent":
            return qx.tangent_module_variety(mod(q[1])).dim
        V, U = mod(q[1]), mod(q[2])
        if kind == "hom":
            return qx.hom_dim(V, U)
        if kind == "ext1":
            space = qx.ext1(V, U)
            return space.z.dim, space.b.dim, space.dim
        if kind == "ext2":
            return qx.ext2_via_omega(V, U).dim
        if kind == "ext2small":
            return qx.ext2_small_model(V, U).dim
        raise ValueError(f"unknown query kind {kind!r}")

    def check(self, q, ans, got):
        """Problems with one answer; got holds this pass's earlier answers,
        None where a query raised (its failure is already counted)."""
        kind = q[0]
        if kind == "certify":
            return self._check_certify(q, *ans)
        if kind == "tangent":
            want, problems = self.ref("z", q[1], q[1])
            return problems + exact.differs("tangent dim", ans, want)
        v, u = q[1], q[2]
        if kind == "hom":
            want, problems = self.ref("hom", v, u)
            return problems + exact.differs("hom", ans, want)
        if kind == "ext1":
            z, b, dim = ans
            problems = []
            for key, value in (("z", z), ("b", b), ("ext1", dim)):
                want, extra = self.ref(key, v, u)
                problems += extra + exact.differs(key, value, want)
            if dim != z - b:
                problems.append("dim Ext1 != dim Z - dim B")
            dv, du = self._dims(v), self._dims(u)
            hom = got.get(("hom", v, u))
            if hom is not None and b != sum(dv[x] * du[x] for x in dv) - hom:
                problems.append("dim B != sum d_x(V) d_x(U) - dim Hom")
            return problems
        if kind == "ext2":
            want, problems = self.ref("ext2", v, u)
            problems += exact.differs("ext2", ans, want)
            hom, ext1 = got.get(("hom", v, u)), got.get(("ext1", v, u))
            if self.kind == "square" and hom is not None and ext1 is not None:
                form = exact.euler_form(self.quiver, self._dims(v), self._dims(u))
                if hom - ext1[2] + ans != form:
                    problems.append("hom - ext1 + ext2 != <dim V, dim U>")
            return problems
        if kind == "ext2small":
            want, problems = self.ref("ext2small", v, u)
            problems += exact.differs("small model", ans, want)
            omega = got.get(("ext2", v, u))
            if omega is not None:
                problems += exact.differs("small model vs syzygy model", ans, omega)
            return problems
        return [f"unknown query kind {kind!r}"]

    def _dims(self, name):
        return self.inputs.modules[name].dims

    def _check_certify(self, q, witness, report):
        if witness is None:
            return ["no witness found for a non-split sequence"]
        p = self.prime
        name, u, m, v = q[1:]
        M, U, V = self.ws.module(m), self.ws.module(u), self.ws.module(v)
        problems = []
        iso = witness.certificate.witness
        if iso is None:
            return ["witness carries no isomorphism"]
        mid = witness.middle
        for x in self.quiver["vertices"]:
            block = iso.mats[x].rows
            n = M.dims[x]
            if len(block) != n or any(len(r) != mid.dims[x] for r in block) \
                    or mid.dims[x] != n or exact.rank(block, p) != n:
                problems.append(f"isomorphism block at vertex {x} is not invertible")
        for a, s, t in self.quiver["arrows"]:
            left = exact.matmul(iso.mats[t].rows, mid.mats[a].rows, mid.dims[s], p)
            right = exact.matmul(M.mats[a].rows, iso.mats[s].rows, mid.dims[s], p)
            if not exact.same(left, right, p):
                problems.append(f"isomorphism does not intertwine arrow {a}")
            za = witness.Z.mats[a].rows
            ua, va = U.mats[a].rows, V.mats[a].rows
            block = [list(r) + list(z) for r, z in zip(ua, za)]
            block += [[0] * U.dims[s] + list(r) for r in va]
            if not exact.same(mid.mats[a].rows, block, p):
                problems.append(f"middle term is not [[U, Z], [0, V]] at arrow {a}")
        raw = {a: mid.mats[a].rows for a, _, _ in self.quiver["arrows"]}
        if not exact.square_relation_vanishes(raw, mid.dims, p):
            problems.append("middle term violates the relation")
        sides = {"vu": (v, u), "uv": (u, v)}
        for field in CERT_FIELDS:
            key, direction = field.split("_")[:2]
            want, extra = self.ref(key, *sides[direction])
            problems += extra + exact.differs(field, getattr(report, field), want)
        blocks = sum(self.ref("z", a, b)[0] for a in (u, v) for b in (u, v))
        problems += exact.differs("tangent dim at U+V vs its four blocks",
                             report.z_nn_dim, blocks)
        problems += exact.differs("a(d)", report.a_d,
                             exact.a_of_d(self.quiver, self._dims(m)))
        if name == "XI3":
            problems += exact.differs("verdict", report.verdict, "regular-tangent")
            problems += exact.differs("a(d)", report.a_d, 3)
            problems += exact.differs("orbit codimension",
                                      report.a_d - report.orbit_dim_n, 1)
        return problems

    # -- passes ---------------------------------------------------------------

    def queries(self):
        return [(label, q) for label, qs in self.rungs for q in qs]

    def run_pass(self, plant=False):
        """One pass over the fixed query list: per-query times and failures."""
        got, times, failures = {}, [], []
        for label, q in self.queries():
            t0 = time.perf_counter()
            try:
                ans = self.answer(q)
                error = None
            except Exception as exc:  # a raising query counts as failed
                ans, error = None, f"raised {type(exc).__name__}: {exc}"
            times.append((label, time.perf_counter() - t0))
            if plant and q[0] == "ext1" and ans is not None:
                ans, plant = (ans[0], ans[1], ans[2] + 1), False
            if error is None:
                try:
                    problems = self.check(q, ans, got)
                except Exception as exc:  # a malformed answer is a failed query
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                problems = [error]
            got[q] = ans
            if problems:
                failures.append((q, problems))
        return times, failures
