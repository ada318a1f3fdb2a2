import importlib
import json
import re

import pytest

from quiverext.cli import main
from quiverext.dsl import cast_workspace, parse_workspace
from quiverext.fields import PrimeField
from quiverext.fixtures import fixture_source
from quiverext.geometry import InconclusiveSearch
from quiverext.iso import IsoCertificate
from quiverext.quiver import QuiverError


@pytest.fixture(scope="module")
def f2_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("ws") / "f2.qv"
    p.write_text(fixture_source("f2"), encoding="utf-8")
    return str(p)


@pytest.fixture(scope="module")
def f3_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("ws") / "f3.qv"
    p.write_text(fixture_source("f3"), encoding="utf-8")
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_reports_the_workspace(capsys, f2_path):
    code, payload = run_json(capsys, ["check", f2_path])
    assert code == 0
    task = payload["tasks"][0]
    assert task["result"]["pass"] is True
    assert len(task["result"]["modules"]) == 9
    assert task["result"]["sequences"] == ["SES1"]
    assert payload["meta"]["quiver"] == "F2"


def test_hom_counts_morphisms(capsys, f2_path):
    code, payload = run_json(capsys, ["hom", f2_path, "M", "M"])
    assert code == 0
    task = payload["tasks"][0]
    assert task["result"] == 3
    assert len(task["certificate"]) == 3


def test_ext1_reports_cocycles_and_coboundaries(capsys, f2_path):
    code, payload = run_json(capsys, ["ext1", f2_path, "S2", "S1"])
    assert code == 0
    task = payload["tasks"][0]
    assert task["result"] == 1
    assert task["certificate"] == {"cocycles": 1, "coboundaries": 0}


def test_ext2_runs_both_models(capsys, f2_path):
    code, payload = run_json(capsys, ["ext2", f2_path, "S3", "S1"])
    assert code == 0
    cert = payload["tasks"][0]["certificate"]
    assert cert == {"small_model": 1, "syzygy_model": 1, "agree": True}


def test_ext2_on_a_cyclic_quiver_answers_with_the_syzygy_model(capsys, tmp_path):
    """Two loops with x^2 = y^2 = xy - yx = 0: the small model is gated out."""
    ws = tmp_path / "loops.qv"
    ws.write_text("quiver LOOPS\nvertex 1\narrow x : 1 -> 1\narrow y : 1 -> 1\n"
                  "relation r1 : x*x\nrelation r2 : y*y\nrelation r3 : x*y - y*x\n"
                  "field F101\nmodule S : dim 1\n", encoding="utf-8")
    code, payload = run_json(capsys, ["ext2", str(ws), "S", "S"])
    assert code == 0
    task = payload["tasks"][0]
    assert task["result"] == 3
    cert = task["certificate"]
    assert cert["syzygy_model"] == 3 and cert["agree"] is None
    assert cert["small_model"].startswith("gated: hypotheses not satisfied")
    assert "oriented cycle" in cert["small_model"]


@pytest.mark.parametrize("command", ["ext2", "e-tangent"])
def test_an_unbounded_ideal_exits_with_usage_error(capsys, tmp_path, command):
    """One loop and no relations: the Gröbner basis is empty and the loop is
    a cycle of normal paths, whatever the cap."""
    ws = tmp_path / "loop.qv"
    ws.write_text("quiver LOOP\nvertex 1\narrow x : 1 -> 1\nmodule S : dim 1\n",
                  encoding="utf-8")
    for cap in ([], ["--truncation-cap=100000"]):
        code = main([command, str(ws), "S", "S"] + cap)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the algebra is infinite-dimensional: every power of the cycle x "
            "is a normal path\n")


@pytest.mark.parametrize("command, cap", [("hom", "-3"), ("ext2", "0")])
def test_a_truncation_cap_below_one_exits_with_usage_error(capsys, f2_path, command, cap):
    code = main([command, f2_path, "S1", "S1", f"--truncation-cap={cap}"])
    assert code == 2
    # the cap comes from the command line, so the message names no workspace line
    assert capsys.readouterr().err == f"error: truncation cap must be at least 1, got {cap}\n"


SQUARE_HALF = ("quiver SQ\nvertex 1 2 3 4\narrow a : 1 -> 2\narrow b : 2 -> 4\n"
               "arrow c : 1 -> 3\narrow d : 3 -> 4\nrelation r : b*a - 1/2*d*c\n"
               "module S1 : dim 1 0 0 0\nmodule S4 : dim 0 0 0 1\n")
LINE_TWO = ("quiver L\nvertex 1 2 3\narrow a : 2 -> 1\narrow b : 3 -> 2\n"
            "relation r : 2*a*b\nmodule S1 : dim 1 0 0\nmodule S3 : dim 0 0 1\n")


@pytest.mark.parametrize("text, argv", [
    (SQUARE_HALF + "field F2\n", ["ext2", "S4", "S1"]),
    (SQUARE_HALF, ["ext2", "S4", "S1", "--field", "F2"]),
    (LINE_TWO + "field F2\n", ["ext2", "S3", "S1"]),
    (LINE_TWO, ["ext2", "S3", "S1", "--field", "F2"]),
], ids=["undefined", "undefined-cast", "zero", "zero-cast"])
def test_a_relation_coefficient_undefined_or_zero_over_the_field_exits_2(
        capsys, tmp_path, text, argv):
    ws = tmp_path / "ws.qv"
    ws.write_text(text, encoding="utf-8")
    code = main([argv[0], str(ws), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "relation r: coefficient" in captured.err


LINE_HEADER = ("quiver L\nvertex 1 2 3\narrow a : 2 -> 1\narrow b : 3 -> 2\n"
               "relation r : a*b\n")


@pytest.mark.parametrize("text, where", [
    (LINE_HEADER + "module X : dim 1 1 0\n  a = [ 1/0 ]\n", "line 7, column 9"),
    (LINE_HEADER.replace("a*b", "1/0*a*b"), "line 5, column 14"),
], ids=["matrix-entry", "relation-coefficient"])
def test_a_zero_denominator_exits_2_with_a_located_error(capsys, tmp_path, text, where):
    ws = tmp_path / "ws.qv"
    ws.write_text(text, encoding="utf-8")
    code = main(["check", str(ws)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {where}: zero denominator in '1/0'\n")


UNDEFINED_MOD_101 = ("quiver T\nvertex 1 2\narrow a : 2 -> 1\n"
                     "module X : dim 1 1\n  a = [ 1/101 ]\n")


@pytest.mark.parametrize("argv", [["check"], ["hom", "X", "X"]], ids=["check", "hom"])
def test_a_module_entry_undefined_over_the_cast_field_exits_2(capsys, tmp_path, argv):
    ws = tmp_path / "T.qv"
    ws.write_text(UNDEFINED_MOD_101, encoding="utf-8")
    code = main([argv[0], str(ws), *argv[1:], "--field", "F101"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: module X, arrow a: 1/101 has denominator "
                            "divisible by 101\n")
    with pytest.raises(QuiverError, match="^module X, arrow a: "):
        cast_workspace(parse_workspace(UNDEFINED_MOD_101), PrimeField(101))


def test_euler_form_of_dimension_vectors(capsys, f2_path):
    code, payload = run_json(capsys, ["euler", f2_path, "1,2,1", "1,2,1"])
    assert code == 0
    assert payload["tasks"][0]["result"] == 3


def test_euler_rejects_a_short_vector(capsys, f2_path):
    code = main(["euler", f2_path, "1,2", "1,2,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_euler_entries_are_ascii_integers(capsys, tmp_path):
    """An entry int() would read ('_', a space, another script's digit)
    is refused; a negative one still reaches the nonnegative check."""
    ws = tmp_path / "f1.qv"
    ws.write_text(fixture_source("f1"), encoding="utf-8")
    refused = "error: dimension vector entries must be integers: {!r}\n"
    for d1, err in [("1_0,0", refused.format("1_0,0")),
                    ("\u0663,0", refused.format("\u0663,0")),
                    ("\u00b2,0", refused.format("\u00b2,0")),
                    (" 1,0", refused.format(" 1,0")),
                    ("-1,0", "error: dimension at vertex '1' must be a nonnegative int\n")]:
        code = main(["euler", str(ws), "--", d1, "0,1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", err)


def test_orbit_and_tangent(capsys, f2_path):
    code, payload = run_json(capsys, ["orbit", f2_path, "N"])
    assert code == 0
    assert payload["tasks"][0]["result"] == 2
    assert payload["tasks"][0]["certificate"] == {"group_dim": 6, "end_dim": 4}

    code, payload = run_json(capsys, ["tangent", f2_path, "N"])
    assert code == 0
    assert payload["tasks"][0]["result"] == 3
    assert payload["tasks"][0]["certificate"]["matches_a"] is True


def test_scheme_tangent_pairs(capsys, f2_path):
    code, payload = run_json(capsys, ["e-tangent", f2_path, "S1", "V"])
    assert code == 0
    task = payload["tasks"][0]
    assert task["result"] == 2
    assert task["certificate"] == {"hom_pairs": 2, "blocks": [0, 2, 0, 1]}


def test_psi_at_the_declared_sequence(capsys, f2_path):
    code, payload = run_json(capsys, ["psi", f2_path, "SES1"])
    assert code == 0
    result = payload["tasks"][0]["result"]
    assert result == {
        "domain_dim": 2,
        "rank": 0,
        "kernel_dim": 2,
        "target_dim": 0,
        "surjective": True,
    }


def test_witness_search_outcomes(capsys, f2_path):
    code, payload = run_json(capsys, ["witness", f2_path, "M", "S1", "V"])
    assert code == 0
    task = payload["tasks"][0]
    assert task["result"] == {"found": True, "conclusive": True}
    assert task["certificate"]["middle_dims"] == [1, 2, 1]

    code, payload = run_json(capsys, ["witness", f2_path, "M", "S2", "W"])
    assert code == 0
    assert payload["tasks"][0]["result"] == {"found": False, "conclusive": True}


def test_a_witness_miss_builds_the_systems_of_the_pair_once(capsys, f2_path,
                                                            monkeypatch):
    """The verdict on a miss reads the dimension of the searched Ext^1
    space: R(W, S2) and H(W, S2) are built once each."""
    ext1_module = importlib.import_module("quiverext.ext1")
    calls = []
    for name in ("relation_boundary_matrix", "hom_system"):
        real = getattr(ext1_module, name)

        def counting(V, U, real=real, name=name):
            calls.append((name, V.name, U.name))
            return real(V, U)

        monkeypatch.setattr(ext1_module, name, counting)
    code, payload = run_json(capsys, ["witness", f2_path, "M", "S2", "W"])
    assert code == 0
    assert payload["tasks"][0]["result"] == {"found": False, "conclusive": True}
    pair = [name for name, v, u in calls if (v, u) == ("W", "S2")]
    assert sorted(pair) == ["hom_system", "relation_boundary_matrix"]


def test_an_unknown_isomorphism_verdict_is_not_a_conclusive_miss(
        capsys, tmp_path, monkeypatch):
    """Only the split sum S2 + W is a middle term of N, and its arrow ranks
    are N's; when testing it against N comes back unknown, neither command
    may report a miss."""
    monkeypatch.setattr(
        "quiverext.geometry.iso_test",
        lambda W, M, seed=0: IsoCertificate("unknown", "forced by the test"))
    path = tmp_path / "f2.qv"
    path.write_text(fixture_source("f2") + "ses SPLIT : S2 -> N -> W\n",
                    encoding="utf-8")
    code, payload = run_json(capsys, ["witness", str(path), "N", "S2", "W"])
    assert code == 1
    task = payload["tasks"][0]
    assert task["result"] == {"found": False, "conclusive": False}
    assert task["warnings"] == [
        "only the split sum is a middle term, and testing it against M was "
        "inconclusive: forced by the test"]
    code, payload = run_json(capsys, ["certify", str(path), "SPLIT"])
    assert code == 1
    task = payload["tasks"][0]
    assert task["result"] is None
    assert "inconclusive" in task["warnings"][0]
    # the split sum S2 + W has a zero arrow a where M has rank one, so it
    # is refuted before any isomorphism test: a conclusive miss
    code, payload = run_json(capsys, ["witness", str(path), "M", "S2", "W"])
    assert code == 0
    assert payload["tasks"][0]["result"] == {"found": False, "conclusive": True}


@pytest.mark.parametrize("command, miss", [
    ("psi", "no extension cocycle found for the sequence"),
    ("certify", "no verified witness for the sequence")], ids=["psi", "certify"])
@pytest.mark.parametrize("inconclusive", [False, True], ids=["miss", "inconclusive"])
def test_a_sequence_without_a_witness_reads_null_and_exits_1(
        capsys, f2_path, monkeypatch, command, miss, inconclusive):
    """A miss keeps the command's own warning; an inconclusive search adds
    its reason to it, and neither is a usage error."""
    def search(M, space, seed):
        if inconclusive:
            raise InconclusiveSearch("forced by the test")
        return None

    monkeypatch.setattr("quiverext.geometry._search_over", search)
    code, payload = run_json(capsys, [command, f2_path, "SES1"])
    assert code == 1
    task = payload["tasks"][0]
    assert task["result"] is None
    assert task["warnings"] == [miss + (": forced by the test" if inconclusive else "")]


def test_certify_the_declared_sequences(capsys, f2_path, f3_path):
    code, payload = run_json(capsys, ["certify", f2_path, "SES1"])
    assert code == 0
    result = payload["tasks"][0]["result"]
    assert result["verdict"] == "regular-tangent"
    assert result["a_of_d"] == 3 and result["bound"] == 3
    assert result["tangent_dim"] == 3 and result["orbit_dim_split"] == 2
    assert all(result["flags"].values())

    code, payload = run_json(capsys, ["certify", f3_path, "XI3"])
    assert code == 0
    result = payload["tasks"][0]["result"]
    assert result["verdict"] == "regular-tangent"
    assert result["bound"] == result["a_of_d"] == 3


def test_unknown_module_exits_with_usage_error(capsys, f2_path):
    code = main(["hom", f2_path, "M", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown module" in captured.err


def test_unknown_field_exits_with_usage_error(capsys, f2_path):
    code = main(["check", f2_path, "--field", "F8"])
    assert code == 2
    assert "prime" in capsys.readouterr().err


def test_missing_workspace_file(capsys, tmp_path):
    code = main(["check", str(tmp_path / "absent.qv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_prime_field_override_agrees(capsys, f2_path):
    code, payload = run_json(capsys, ["hom", f2_path, "M", "M",
                                      "--field", "F101"])
    assert code == 0
    assert payload["tasks"][0]["result"] == 3
    assert payload["meta"]["field"] == "F101"


def test_verify_suite_passes(capsys, f2_path):
    code, payload = run_json(capsys, ["verify", "parser"])
    assert code == 0
    task = payload["tasks"][0]
    assert task["inputs"]["suite"] == "parser"
    assert task["result"]["pass"] is True
    assert task["result"]["failures"] == []
    assert payload["meta"]["quiver"] == "bundled-fixtures"


def help_choices(capsys, argv):
    """The choices of the one positional argument a help text lists."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    listed = capsys.readouterr().out.split("positional arguments:")[1]
    return re.search(r"\{([a-z0-9,-]+)\}", listed).group(1).split(",")


def test_help_lists_commands_and_suites_in_registry_order(capsys):
    assert help_choices(capsys, ["--help"]) == [
        "check", "hom", "ext1", "ext2", "euler", "orbit", "tangent",
        "e-tangent", "psi", "witness", "certify", "verify"]
    assert help_choices(capsys, ["verify", "--help"]) == [
        "zdim", "euler", "ext2-agree", "yoneda", "tangent-blocks", "schemeext",
        "psi", "regularity", "scaling", "dualnum", "parser", "all"]


def test_verify_rejects_a_truncation_override(capsys):
    code = main(["verify", "parser", "--truncation-cap", "6"])
    assert code == 2
    assert "truncation" in capsys.readouterr().err


def test_reports_are_reproducible_bytes(capsys, f2_path, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["witness", f2_path, "M", "S1", "V", "--seed", "7",
                 "--out", a]) == 0
    assert main(["witness", f2_path, "M", "S1", "V", "--seed", "7",
                 "--out", b]) == 0
    capsys.readouterr()
    with open(a, "rb") as fh:
        first = fh.read()
    with open(b, "rb") as fh:
        second = fh.read()
    assert first == second


def test_text_format_keeps_wall_time_out_of_json(capsys):
    code = main(["verify", "parser", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wall time" in out
    assert "suite parser: PASS" in out

    code, payload = run_json(capsys, ["verify", "parser"])
    assert code == 0
    assert "wall" not in json.dumps(payload)


def test_text_format_for_a_task(capsys, f2_path):
    code = main(["ext1", f2_path, "S2", "S1", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("task ext1")
    assert "result: 1" in out
