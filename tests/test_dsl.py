import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverext.dsl import (
    ParseError,
    cast_workspace,
    parse_workspace,
    print_workspace,
    serialize_report,
)
from quiverext.fields import field_by_name
from quiverext.fixtures import FIXTURE_NAMES, fixture_source
from quiverext.quiver import QuiverError

F2_HEADER = (
    "quiver F2\n"
    "vertex 1 2 3\n"
    "arrow a : 2 -> 1\n"
    "arrow b : 3 -> 2\n"
    "relation r : a*b\n"
)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_is_stable(name):
    src = fixture_source(name)
    ws = parse_workspace(src)
    printed = print_workspace(ws)
    ws2 = parse_workspace(printed)
    assert print_workspace(ws2) == printed
    assert set(ws2.modules) == set(ws.modules)
    assert set(ws2.sequences) == set(ws.sequences)
    for mn, rep in ws.modules.items():
        other = ws2.modules[mn]
        assert other.dims == rep.dims
        for a in rep.mats:
            assert other.mats[a] == rep.mats[a]


def test_workspace_counts(f2):
    assert len(f2.modules) == 9
    assert list(f2.sequences) == ["SES1"]
    ses = f2.sequence("SES1")
    assert (ses.sub, ses.middle, ses.quot) == ("S1", "M", "V")


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_module_accepted_exactly_when_the_relation_vanishes(x, y):
    """One matrix entry is mutated across the grid; acceptance must track
    the relation value a*b = x*y exactly."""
    src = F2_HEADER + f"module X : dim 1 1 1\n  a = [ {x} ]\n  b = [ {y} ]\n"
    if x * y == 0:
        ws = parse_workspace(src)
        assert ws.module("X").total_dim == 3
    else:
        with pytest.raises(ParseError) as err:
            parse_workspace(src)
        assert "relation r" in str(err.value)
        assert "X" in str(err.value)


def test_shape_mismatch_is_reported_with_the_line():
    src = F2_HEADER + "module X : dim 1 0 0\n  a = [ 1 ]\n"
    with pytest.raises(ParseError) as err:
        parse_workspace(src)
    assert err.value.line == 7
    assert "1x0" in err.value.message


def test_unknown_arrow_in_module():
    src = F2_HEADER + "module X : dim 1 1 0\n  c = [ 1 ]\n"
    with pytest.raises(ParseError, match="unknown arrow 'c'"):
        parse_workspace(src)


def test_duplicate_module_name():
    src = F2_HEADER + "module X : dim 0 0 0\nmodule X : dim 0 0 0\n"
    with pytest.raises(ParseError, match="duplicate name 'X'"):
        parse_workspace(src)


def test_ses_references_must_resolve():
    src = F2_HEADER + "module X : dim 0 0 0\nses E : X -> Y -> X\n"
    with pytest.raises(ParseError, match="unknown module 'Y'"):
        parse_workspace(src)


def test_relation_terms_must_compose():
    src = ("quiver Q\nvertex 1 2 3\narrow a : 2 -> 1\narrow b : 3 -> 2\n"
           "relation r : b*a\n")
    with pytest.raises(ParseError):
        parse_workspace(src)


def test_rationals_are_exact_and_decimals_rejected():
    src = F2_HEADER.replace("relation r : a*b", "relation r : 1/2*a*b")
    ws = parse_workspace(src)
    rel = ws.bound_quiver.relations[0]
    assert rel.terms[0][0] == 0.5 and str(rel.terms[0][0]) == "1/2"
    with pytest.raises(ParseError):
        parse_workspace(F2_HEADER + "module X : dim 1 1 0\n  a = [ 0.5 ]\n")


# relation r sits on line 7 of the square and on line 5 of F2_HEADER
BAD_OVER_F2 = [
    ("quiver SQ\nvertex 1 2 3 4\narrow a : 1 -> 2\narrow b : 2 -> 4\n"
     "arrow c : 1 -> 3\narrow d : 3 -> 4\nrelation r : b*a - 1/2*d*c\n",
     7, "coefficient -1/2 is undefined over F2"),
    (F2_HEADER.replace("relation r : a*b", "relation r : 2*a*b"),
     5, "coefficient 2 is zero over F2"),
]


@pytest.mark.parametrize("src, line, message", BAD_OVER_F2, ids=["undefined", "zero"])
def test_relation_coefficients_must_be_nonzero_over_the_field(src, line, message):
    """The rational rule "no zero coefficient", applied over F_p, at parse
    time and when a rational workspace changes field."""
    with pytest.raises(ParseError) as err:
        parse_workspace(src + "field F2\n")
    assert err.value.line == line
    assert err.value.message == f"relation r: {message}"
    ws = parse_workspace(src)
    with pytest.raises(QuiverError, match=f"^relation r: {message}$"):
        cast_workspace(ws, field_by_name("F2"))
    assert cast_workspace(ws, field_by_name("F3")).field.char == 3


def test_comments_and_blank_lines_are_ignored():
    src = "# heading\n\nquiver Q  # trailing\nvertex 1\n"
    ws = parse_workspace(src)
    assert ws.name == "Q"
    assert ws.bound_quiver.quiver.vertices == ("1",)


def test_default_field_is_rational():
    ws = parse_workspace("quiver Q\nvertex 1\n")
    assert ws.field.name == "Q"


def test_field_directive_switches_to_prime():
    ws = parse_workspace("quiver Q\nvertex 1\nfield F7\nmodule X : dim 3\n")
    assert ws.field.char == 7
    with pytest.raises(ParseError, match="not prime"):
        parse_workspace("quiver Q\nvertex 1\nfield F8\n")


def test_serialize_report_shapes():
    assert json.loads(serialize_report([])) == {"tasks": []}
    text = serialize_report(
        [{"task": "hom", "inputs": {"source": "M", "target": "N"},
          "result": 2, "certificate": []}],
        meta={"field": "Q", "quiver": "F2", "truncation": 12})
    doc = json.loads(text)
    assert doc["meta"]["quiver"] == "F2"
    assert doc["tasks"][0]["result"] == 2
    # deterministic: keys sorted, repeated serialization identical
    assert text == serialize_report(json.loads(text)["tasks"],
                                    meta=doc["meta"])


def test_printer_omits_zero_matrices(f2):
    printed = print_workspace(f2)
    n_block = printed.split("module N")[1].split("module")[0]
    assert "a =" not in n_block
    assert "b = [ 0 ; 1 ]" in n_block
