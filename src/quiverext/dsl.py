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
# numerals are ASCII decimal digits only (\d and str.isdigit take others)
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z")
_WORD_RE = re.compile(r"\S+")
# a relation's tokens: each sign alone, and each run of other non-space text
_RELATION_TOKEN_RE = re.compile(r"[+-]|[^\s+-]+")
# a matrix's tokens: each row separator alone, and each entry
_MATRIX_TOKEN_RE = re.compile(r";|[^\s;]+")


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


def _words(line, start=0):
    """The whitespace-separated words of line[start:], each as (text, column)."""
    return [(m.group(), m.start() + 1) for m in _WORD_RE.finditer(line, start)]


def _stripped(line, start, end=None):
    """line[start:end] stripped, with the column of its first character
    (the column just past the slice when it is blank)."""
    piece = line[start:end]
    return piece.strip(), start + len(piece) - len(piece.lstrip()) + 1


def _check_name(kind, name, column, lineno, line):
    if not _NAME_RE.match(name):
        raise ParseError(lineno, column,
                         f"invalid {kind} name {name!r} (need letters first)", line)


def _parse_rational(text, column, lineno, line) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise ParseError(lineno, column,
                         f"expected a rational number, found {text!r}", line)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(lineno, column, f"zero denominator in {text!r}", line) from None


def _parse_relation_rhs(line, start, lineno):
    """Parse TERM (('+'|'-') TERM)* from line[start:] into [(coeff, [(arrow
    name, column)])]; each token keeps its offset, so an error names its
    column."""
    # '-' inside a coefficient like 1/2 cannot occur (no negative literals
    # survive the splitting), so every '-' token is a sign
    terms = []
    sign = 1
    expect_term = True
    for i, match in enumerate(_RELATION_TOKEN_RE.finditer(line, start)):
        tok, column = match.group(), match.start() + 1
        if tok in {"+", "-"}:
            if not expect_term:
                expect_term = True
                sign = 1 if tok == "+" else -1
                continue
            # one leading sign of the very first term
            if i == 0:
                sign = 1 if tok == "+" else -1
                continue
            raise ParseError(lineno, column, "misplaced sign in relation", line)
        factors = []
        for factor in tok.split("*"):
            factors.append((factor, column))
            column += len(factor) + 1
        coeff = Fraction(sign)
        arrows = factors
        if _RATIONAL_RE.match(factors[0][0]):
            coeff *= _parse_rational(*factors[0], lineno, line)
            arrows = factors[1:]
        if not arrows:
            raise ParseError(lineno, match.start() + 1, "relation term has no arrows", line)
        for a, a_column in arrows:
            _check_name("arrow", a, a_column, lineno, line)
        terms.append((coeff, arrows))
        sign = 1
        expect_term = False
    if expect_term or not terms:
        raise ParseError(lineno, 1, "relation has a dangling sign or no terms", line)
    return terms


def _parse_matrix_rhs(line, start, lineno):
    """Parse '[ ROW (; ROW)* ]' from line[start:], the text after the '=',
    into rows of rationals; each entry keeps its offset, so an error names
    its column."""
    rhs, column = _stripped(line, start)
    if not rhs.startswith("[") or not rhs.endswith("]"):
        raise ParseError(lineno, column if rhs else start,
                         "matrix must be enclosed in [ ... ]", line)
    rows = [[]]
    # from just past the '[' (at column - 1) to the closing ']'
    for match in _MATRIX_TOKEN_RE.finditer(line, column, column + len(rhs) - 2):
        if match.group() == ";":
            rows.append([])
        else:
            rows[-1].append(_parse_rational(match.group(), match.start() + 1, lineno, line))
    return [] if rows == [[]] else rows


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

    def check_fresh(self, kind, name, column, lineno, line):
        _check_name(kind, name, column, lineno, line)
        if name in self.seen:
            self.fail(lineno, column,
                      f"duplicate name {name!r} (already a {self.seen[name]})", line)
        self.seen[name] = kind

    def declaration(self, lineno, line, words, usage):
        """The fresh name of a 'KEYWORD NAME : ...' line, and the offset of
        its ':'."""
        colon = line.find(":")
        if colon < 0:
            self.fail(lineno, 1, usage, line)
        keyword, column = words[0]
        name, column = _stripped(line, column - 1 + len(keyword), colon)
        self.check_fresh(keyword, name, column, lineno, line)
        return name, colon

    def run(self) -> Workspace:
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            self.dispatch(lineno, line)
        return self.finish()

    def dispatch(self, lineno, line):
        words = _words(line)
        head, column = words[0]
        if head in _KEYWORDS:
            self.current_module = None
            getattr(self, "on_" + head)(lineno, line, words)
        elif self.current_module is not None and len(words) >= 2 and words[1][0] == "=":
            self.on_matrix(lineno, line, words)
        else:
            self.fail(lineno, column, f"unrecognized directive {head!r}", line)

    def on_quiver(self, lineno, line, words):
        if self.quiver_name is not None:
            self.fail(lineno, 1, "duplicate quiver declaration", line)
        if len(words) != 2:
            self.fail(lineno, 1, "usage: quiver NAME", line)
        _check_name("quiver", *words[1], lineno, line)
        self.quiver_name = words[1][0]
        self.quiver_line = lineno

    def on_vertex(self, lineno, line, words):
        if len(words) < 2:
            self.fail(lineno, 1, "usage: vertex ID [ID ...]", line)
        for v, column in words[1:]:
            if v in self.vertices:
                self.fail(lineno, column, f"duplicate vertex {v!r}", line)
            self.vertices.append(v)

    def on_arrow(self, lineno, line, words):
        tokens = [w for w, _ in words]
        if len(tokens) != 6 or tokens[2] != ":" or tokens[4] != "->":
            self.fail(lineno, 1, "usage: arrow NAME : SRC -> TGT", line)
        self.check_fresh("arrow", *words[1], lineno, line)
        for v, column in (words[3], words[5]):
            if v not in self.vertices:
                self.fail(lineno, column, f"unknown vertex {v!r}", line)
        self.arrows.append((tokens[1], tokens[3], tokens[5]))

    def on_relation(self, lineno, line, words):
        name, colon = self.declaration(lineno, line, words,
                                       "usage: relation NAME : TERM ((+|-) TERM)*")
        terms = _parse_relation_rhs(line, colon + 1, lineno)
        known = {a[0] for a in self.arrows}
        for _, arrows in terms:
            for a, column in arrows:
                if a not in known:
                    self.fail(lineno, column, f"unknown arrow {a!r} in relation {name}", line)
        terms = [(coeff, [a for a, _ in arrows]) for coeff, arrows in terms]
        self.relations.append((name, terms, lineno, line))

    def on_field(self, lineno, line, words):
        if self.field is not None:
            self.fail(lineno, 1, "duplicate field declaration", line)
        if len(words) != 2:
            self.fail(lineno, 1, "usage: field Q | Fp", line)
        try:
            self.field = field_by_name(words[1][0])
        except ValueError as exc:
            self.fail(lineno, words[1][1], str(exc), line)

    def on_module(self, lineno, line, words):
        name, colon = self.declaration(lineno, line, words,
                                       "usage: module NAME : dim N1 ... Nk")
        rhs = _words(line, colon + 1)
        if not rhs or rhs[0][0] != "dim":
            self.fail(lineno, colon + 1, "module body must start with 'dim'", line)
        dims = rhs[1:]
        if len(dims) != len(self.vertices):
            self.fail(lineno, 1,
                      f"expected {len(self.vertices)} dimensions "
                      f"(one per vertex), found {len(dims)}", line)
        parsed = []
        for d, column in dims:
            if not (d.isascii() and d.isdigit()):
                self.fail(lineno, column,
                          f"dimensions must be nonnegative integers, found {d!r}",
                          line)
            parsed.append(int(d))
        record = (name, dict(zip(self.vertices, parsed)), {}, lineno)
        self.modules.append(record)
        self.current_module = record

    def on_matrix(self, lineno, line, words):
        name, dims, mats, _ = self.current_module
        arrow, column = words[0]
        declared = {a[0] for a in self.arrows}
        if arrow not in declared:
            self.fail(lineno, column, f"unknown arrow {arrow!r} in module {name}", line)
        if arrow in mats:
            self.fail(lineno, column,
                      f"duplicate matrix for arrow {arrow!r} in module {name}", line)
        mats[arrow] = (_parse_matrix_rhs(line, words[1][1], lineno), lineno, line)

    def on_ses(self, lineno, line, words):
        name, colon = self.declaration(lineno, line, words, "usage: ses NAME : U -> M -> V")
        parts, start = [], colon + 1
        for piece in line[start:].split("->"):
            parts.append(_stripped(line, start, start + len(piece)))
            start += len(piece) + 2
        if len(parts) != 3 or not all(text for text, _ in parts):
            self.fail(lineno, colon + 1, "usage: ses NAME : U -> M -> V", line)
        self.sequences.append((SesDecl(name, *(text for text, _ in parts)), parts, lineno, line))

    # -- assembly -------------------------------------------------------

    def finish(self) -> Workspace:
        if self.quiver_name is None:
            self.fail(1, 1, "missing quiver declaration")
        field = self.field or QQ
        # located checks at the default cap: a bad cap is the caller's, raised below
        try:
            validate_bound_quiver(self.quiver_name, self.vertices, self.arrows, [])
        except QuiverError as exc:
            self.fail(self.quiver_line, 1, str(exc))
        for name, terms, lineno, text in self.relations:
            try:
                validate_bound_quiver(self.quiver_name, self.vertices,
                                      self.arrows, [(name, terms)])
            except QuiverError as exc:
                self.fail(lineno, 1, str(exc), text)
        cap_kw = {} if self.cap is None else {"truncation_cap": self.cap}
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
        for decl, refs, lineno, text in self.sequences:
            for ref, column in refs:
                if ref not in modules:
                    self.fail(lineno, column,
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
    field, and every module entry defined there.  Each module is
    re-checked against the relations after coercion, so a module that
    only satisfies a relation rationally is rejected here.
    """
    if field == ws.field:
        return ws
    if ws.field.name != "Q":
        raise QuiverError("only rational workspaces can change field")
    for rel in ws.bound_quiver.relations:
        _check_coefficients(rel, field)
    modules = {}
    for name, rep in ws.modules.items():
        mats = {}
        for a, m in rep.mats.items():
            try:
                rows = [[field.of_fraction(e) for e in row] for row in m.rows]
            except ZeroDivisionError as exc:
                raise QuiverError(f"module {name}, arrow {a}: {exc}") from None
            mats[a] = Matrix(field, rows, m.ncols)
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
