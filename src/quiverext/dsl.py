"""Workspace text format: parser, canonical printer, report serializer.

A workspace file declares one quiver with relations, a ground field,
named modules (dimension vector plus one matrix line per arrow, zero
matrices omitted), and named short exact sequence tasks.  The format is
line oriented; '#' starts a comment.  The printer emits a canonical
form, and parse(print(parse(text))) agrees with parse(text).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ, field_by_name
from .linalg import Matrix
from .quiver import QuiverError, validate_bound_quiver
from .rep import Representation

_KEYWORDS = ("quiver", "vertex", "arrow", "relation", "field", "module", "ses")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z")


class ParseError(Exception):
    """A syntax or consistency error, located in the source text."""

    def __init__(self, line: int, column: int, message: str, snippet: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.snippet = snippet
        super().__init__(str(self))

    def __str__(self):
        loc = f"line {self.line}, column {self.column}: {self.message}"
        if self.snippet:
            loc += f"\n  {self.snippet}"
        return loc


@dataclass
class SesDecl:
    """A named short-exact-sequence task: sub -> middle -> quotient."""

    name: str
    sub: str
    middle: str
    quot: str


@dataclass
class Workspace:
    name: str
    bound_quiver: object
    field: object
    modules: dict
    sequences: dict

    def module(self, name: str) -> Representation:
        if name not in self.modules:
            raise QuiverError(f"unknown module {name!r}")
        return self.modules[name]

    def sequence(self, name: str) -> SesDecl:
        if name not in self.sequences:
            raise QuiverError(f"unknown ses {name!r}")
        return self.sequences[name]


def _column_of(line: str, token: str) -> int:
    pos = line.find(token)
    return pos + 1 if pos >= 0 else 1


def _check_name(kind, name, lineno, line):
    if not _NAME_RE.match(name):
        raise ParseError(lineno, _column_of(line, name),
                         f"invalid {kind} name {name!r} (need letters first)", line)


def _parse_rational(text, lineno, line) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise ParseError(lineno, _column_of(line, text),
                         f"expected a rational number, found {text!r}", line)
    return Fraction(text)


def _parse_relation_rhs(rhs, lineno, line):
    """Parse TERM (('+'|'-') TERM)* into [(coeff, [arrow names])]."""
    tokens = rhs.replace("+", " + ").replace("-", " - ").split()
    # '-' inside a coefficient like 1/2 cannot occur (no negative literals
    # survive the splitting), so every '-' token is a sign
    terms = []
    sign = 1
    expect_term = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in {"+", "-"}:
            if not expect_term:
                expect_term = True
                sign = 1 if tok == "+" else -1
                i += 1
                continue
            # leading sign of the very first term
            if not terms and expect_term:
                sign = 1 if tok == "+" else -1
                i += 1
                continue
            raise ParseError(lineno, _column_of(line, tok),
                             "misplaced sign in relation", line)
        factors = tok.split("*")
        coeff = Fraction(sign)
        arrows = factors
        if _RATIONAL_RE.match(factors[0]):
            coeff *= Fraction(factors[0])
            arrows = factors[1:]
        if not arrows:
            raise ParseError(lineno, _column_of(line, tok),
                             "relation term has no arrows", line)
        for a in arrows:
            _check_name("arrow", a, lineno, line)
        terms.append((coeff, arrows))
        sign = 1
        expect_term = False
        i += 1
    if expect_term or not terms:
        raise ParseError(lineno, 1, "relation has a dangling sign or no terms", line)
    return terms


def _parse_matrix_rhs(rhs, lineno, line):
    rhs = rhs.strip()
    if not rhs.startswith("[") or not rhs.endswith("]"):
        raise ParseError(lineno, _column_of(line, rhs[:1] or "="),
                         "matrix must be enclosed in [ ... ]", line)
    inner = rhs[1:-1].strip()
    if not inner:
        return []
    rows = []
    for chunk in inner.split(";"):
        entries = chunk.split()
        rows.append([_parse_rational(e, lineno, line) for e in entries])
    return rows


def _check_coefficients(rel, field):
    """The rule "no zero coefficient" over the field: a coefficient of the
    relation may be neither undefined (a denominator divisible by p) nor
    zero (a numerator divisible by p) there."""
    for coeff, _ in rel.terms:
        try:
            value = field.of_fraction(coeff)
        except ZeroDivisionError:
            raise QuiverError(f"relation {rel.name}: coefficient {coeff} "
                              f"is undefined over {field.name}") from None
        if field.is_zero(value):
            raise QuiverError(f"relation {rel.name}: coefficient {coeff} "
                              f"is zero over {field.name}")


class _Parser:
    def __init__(self, text: str, truncation_cap: int | None):
        self.lines = text.splitlines()
        self.cap = truncation_cap
        self.quiver_name = None
        self.quiver_line = 1
        self.vertices = []
        self.arrows = []
        self.relations = []
        self.field = None
        self.modules = []   # (name, dims, {arrow: rows}, lineno)
        self.sequences = []
        self.current_module = None
        self.seen = {}

    def fail(self, lineno, col, msg, line=""):
        raise ParseError(lineno, col, msg, line)

    def check_fresh(self, kind, name, lineno, line):
        _check_name(kind, name, lineno, line)
        if name in self.seen:
            self.fail(lineno, _column_of(line, name),
                      f"duplicate name {name!r} (already a {self.seen[name]})", line)
        self.seen[name] = kind

    def run(self) -> Workspace:
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            self.dispatch(lineno, line)
        return self.finish()

    def dispatch(self, lineno, line):
        tokens = line.split()
        head = tokens[0]
        if head in _KEYWORDS:
            self.current_module = None
            getattr(self, "on_" + head)(lineno, line, tokens)
        elif self.current_module is not None and len(tokens) >= 2 and tokens[1] == "=":
            self.on_matrix(lineno, line, tokens)
        else:
            self.fail(lineno, _column_of(line, head),
                      f"unrecognized directive {head!r}", line)

    def on_quiver(self, lineno, line, tokens):
        if self.quiver_name is not None:
            self.fail(lineno, 1, "duplicate quiver declaration", line)
        if len(tokens) != 2:
            self.fail(lineno, 1, "usage: quiver NAME", line)
        _check_name("quiver", tokens[1], lineno, line)
        self.quiver_name = tokens[1]
        self.quiver_line = lineno

    def on_vertex(self, lineno, line, tokens):
        if len(tokens) < 2:
            self.fail(lineno, 1, "usage: vertex ID [ID ...]", line)
        for v in tokens[1:]:
            if v in self.vertices:
                self.fail(lineno, _column_of(line, v),
                          f"duplicate vertex {v!r}", line)
            self.vertices.append(v)

    def on_arrow(self, lineno, line, tokens):
        if len(tokens) != 6 or tokens[2] != ":" or tokens[4] != "->":
            self.fail(lineno, 1, "usage: arrow NAME : SRC -> TGT", line)
        name, src, tgt = tokens[1], tokens[3], tokens[5]
        self.check_fresh("arrow", name, lineno, line)
        for v in (src, tgt):
            if v not in self.vertices:
                self.fail(lineno, _column_of(line, v),
                          f"unknown vertex {v!r}", line)
        self.arrows.append((name, src, tgt))

    def on_relation(self, lineno, line, tokens):
        body = line.split(None, 1)[1] if len(tokens) > 1 else ""
        if ":" not in body:
            self.fail(lineno, 1, "usage: relation NAME : TERM ((+|-) TERM)*", line)
        name, rhs = (part.strip() for part in body.split(":", 1))
        self.check_fresh("relation", name, lineno, line)
        terms = _parse_relation_rhs(rhs, lineno, line)
        known = {a[0] for a in self.arrows}
        for _, arrow_names in terms:
            for a in arrow_names:
                if a not in known:
                    self.fail(lineno, _column_of(line, a),
                              f"unknown arrow {a!r} in relation {name}", line)
        self.relations.append((name, terms, lineno, line))

    def on_field(self, lineno, line, tokens):
        if self.field is not None:
            self.fail(lineno, 1, "duplicate field declaration", line)
        if len(tokens) != 2:
            self.fail(lineno, 1, "usage: field Q | Fp", line)
        try:
            self.field = field_by_name(tokens[1])
        except ValueError as exc:
            self.fail(lineno, _column_of(line, tokens[1]), str(exc), line)

    def on_module(self, lineno, line, tokens):
        body = line.split(None, 1)[1] if len(tokens) > 1 else ""
        if ":" not in body:
            self.fail(lineno, 1, "usage: module NAME : dim N1 ... Nk", line)
        name, rhs = (part.strip() for part in body.split(":", 1))
        self.check_fresh("module", name, lineno, line)
        rhs_tokens = rhs.split()
        if not rhs_tokens or rhs_tokens[0] != "dim":
            self.fail(lineno, _column_of(line, ":"),
                      "module body must start with 'dim'", line)
        dims = rhs_tokens[1:]
        if len(dims) != len(self.vertices):
            self.fail(lineno, 1,
                      f"expected {len(self.vertices)} dimensions "
                      f"(one per vertex), found {len(dims)}", line)
        parsed = []
        for d in dims:
            if not d.isdigit():
                self.fail(lineno, _column_of(line, d),
                          f"dimensions must be nonnegative integers, found {d!r}",
                          line)
            parsed.append(int(d))
        record = (name, dict(zip(self.vertices, parsed)), {}, lineno)
        self.modules.append(record)
        self.current_module = record

    def on_matrix(self, lineno, line, tokens):
        name, dims, mats, _ = self.current_module
        arrow = tokens[0]
        declared = {a[0] for a in self.arrows}
        if arrow not in declared:
            self.fail(lineno, _column_of(line, arrow),
                      f"unknown arrow {arrow!r} in module {name}", line)
        if arrow in mats:
            self.fail(lineno, _column_of(line, arrow),
                      f"duplicate matrix for arrow {arrow!r} in module {name}", line)
        rhs = line.split("=", 1)[1]
        mats[arrow] = (_parse_matrix_rhs(rhs, lineno, line), lineno, line)

    def on_ses(self, lineno, line, tokens):
        body = line.split(None, 1)[1] if len(tokens) > 1 else ""
        if ":" not in body:
            self.fail(lineno, 1, "usage: ses NAME : U -> M -> V", line)
        name, rhs = (part.strip() for part in body.split(":", 1))
        self.check_fresh("ses", name, lineno, line)
        parts = [p.strip() for p in rhs.split("->")]
        if len(parts) != 3 or not all(parts):
            self.fail(lineno, _column_of(line, ":"),
                      "usage: ses NAME : U -> M -> V", line)
        self.sequences.append((SesDecl(name, *parts), lineno, line))

    # -- assembly -------------------------------------------------------

    def finish(self) -> Workspace:
        if self.quiver_name is None:
            self.fail(1, 1, "missing quiver declaration")
        field = self.field or QQ
        cap_kw = {} if self.cap is None else {"truncation_cap": self.cap}
        try:
            validate_bound_quiver(self.quiver_name, self.vertices, self.arrows,
                                  [], **cap_kw)
        except QuiverError as exc:
            self.fail(self.quiver_line, 1, str(exc))
        for name, terms, lineno, text in self.relations:
            try:
                validate_bound_quiver(self.quiver_name, self.vertices,
                                      self.arrows, [(name, terms)], **cap_kw)
            except QuiverError as exc:
                self.fail(lineno, 1, str(exc), text)
        bq = validate_bound_quiver(
            self.quiver_name, self.vertices, self.arrows,
            [(name, terms) for name, terms, _, _ in self.relations], **cap_kw)
        for rel, (_, _, lineno, text) in zip(bq.relations, self.relations):
            try:
                _check_coefficients(rel, field)
            except QuiverError as exc:
                self.fail(lineno, 1, str(exc), text)
        modules = {}
        for name, dims, raw_mats, lineno in self.modules:
            mats = {}
            for a in bq.quiver.arrows:
                if a.name not in raw_mats:
                    continue
                rows, mat_line, mat_text = raw_mats[a.name]
                want = (dims[a.target], dims[a.source])
                if rows and len({len(r) for r in rows}) != 1:
                    self.fail(mat_line, 1, "ragged matrix rows", mat_text)
                if not rows:
                    if want[0] and want[1]:
                        self.fail(mat_line, 1,
                                  f"matrix for arrow {a.name} in module {name} "
                                  f"must be {want[0]}x{want[1]} (target x source), "
                                  f"got an empty matrix", mat_text)
                    mats[a.name] = Matrix.zeros(field, want[0], want[1])
                    continue
                got = (len(rows), len(rows[0]))
                if got != want:
                    self.fail(mat_line, 1,
                              f"matrix for arrow {a.name} in module {name} must be "
                              f"{want[0]}x{want[1]} (target x source), got "
                              f"{got[0]}x{got[1]}", mat_text)
                try:
                    entries = [[field.of_fraction(e) for e in row] for row in rows]
                except ZeroDivisionError as exc:
                    self.fail(mat_line, 1, str(exc), mat_text)
                mats[a.name] = Matrix(field, entries, want[1])
            try:
                rep = Representation(bq, field, dims, mats, name=name, check=True)
            except QuiverError as exc:
                self.fail(lineno, 1, f"module {name}: {exc}")
            modules[name] = rep
        sequences = {}
        for decl, lineno, text in self.sequences:
            for ref in (decl.sub, decl.middle, decl.quot):
                if ref not in modules:
                    self.fail(lineno, _column_of(text, ref),
                              f"ses {decl.name} references unknown module {ref!r}",
                              text)
            sequences[decl.name] = decl
        return Workspace(self.quiver_name, bq, field, modules, sequences)


def parse_workspace(text: str, truncation_cap: int | None = None) -> Workspace:
    """Parse and fully validate a workspace source text."""
    return _Parser(text, truncation_cap).run()


def cast_workspace(ws: Workspace, field) -> Workspace:
    """Rebuild a rational workspace over another field.

    Every relation coefficient must be defined and nonzero over the new
    field, and every module is re-checked against the relations after
    coercion, so a module that only satisfies a relation rationally is
    rejected here.
    """
    if field == ws.field:
        return ws
    if ws.field.name != "Q":
        raise QuiverError("only rational workspaces can change field")
    for rel in ws.bound_quiver.relations:
        _check_coefficients(rel, field)
    modules = {}
    for name, rep in ws.modules.items():
        mats = {
            a: Matrix(field,
                      [[field.of_fraction(e) for e in row] for row in m.rows],
                      m.ncols)
            for a, m in rep.mats.items()
        }
        modules[name] = Representation(ws.bound_quiver, field, rep.dims, mats,
                                       name=name, check=True)
    return Workspace(ws.name, ws.bound_quiver, field, modules,
                     dict(ws.sequences))


# -- canonical printer ---------------------------------------------------


def _format_coeff_path(coeff: Fraction, arrows, first: bool) -> str:
    path = "*".join(arrows)
    sign = "+" if coeff > 0 else "-"
    mag = abs(coeff)
    body = path if mag == 1 else f"{mag}*{path}"
    if first:
        return body if sign == "+" else f"-{body}"
    return f"{sign} {body}"


def print_workspace(ws: Workspace) -> str:
    """Canonical text form; parsing it back yields the same workspace."""
    bq = ws.bound_quiver
    q = bq.quiver
    out = [f"quiver {ws.name}"]
    out.append("vertex " + " ".join(q.vertices))
    for a in q.arrows:
        out.append(f"arrow {a.name} : {a.source} -> {a.target}")
    for rel in bq.relations:
        parts = []
        for i, (coeff, p) in enumerate(rel.terms):
            parts.append(_format_coeff_path(coeff, p.arrows, i == 0))
        out.append(f"relation {rel.name} : " + " ".join(parts))
    out.append(f"field {ws.field.name}")
    for name, rep in ws.modules.items():
        out.append("")
        dims = " ".join(str(rep.dims[x]) for x in q.vertices)
        out.append(f"module {name} : dim {dims}")
        for a in q.arrows:
            mat = rep.mats[a.name]
            if mat.nrows == 0 or mat.ncols == 0 or mat.is_zero():
                continue
            rows = " ; ".join(
                " ".join(ws.field.to_str(e) for e in row) for row in mat.rows)
            out.append(f"  {a.name} = [ {rows} ]")
    if ws.sequences:
        out.append("")
        for decl in ws.sequences.values():
            out.append(f"ses {decl.name} : {decl.sub} -> {decl.middle} -> {decl.quot}")
    return "\n".join(out) + "\n"


# -- JSON reports ---------------------------------------------------------


def matrix_payload(mat: Matrix):
    """Nested lists of exact entry strings, for report serialization."""
    field = mat.field
    return [[field.to_str(e) for e in row] for row in mat.rows]


def serialize_report(tasks, meta: dict | None = None) -> str:
    """Deterministic JSON text for a list of task result objects."""
    doc = {}
    if meta is not None:
        doc["meta"] = meta
    doc["tasks"] = list(tasks)
    return json.dumps(doc, indent=2, sort_keys=True)
