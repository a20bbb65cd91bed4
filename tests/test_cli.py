import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wr1.cli import (
    _dumps,
    graph_from_json,
    graph_to_json,
    main,
    monomial_label,
    realization_json,
    render_dot,
    structure_json,
)
from wr1.errors import InternalInvariantViolation, SchemaError
from wr1.graphs import EGraph
from wr1.ingest import SourceDecomposition, decompose, parse_system
from wr1.linalg import RationalMatrix
from wr1.realize import realize_wr1

from .conftest import CYCLE3_TEXT, CYCLE4_TEXT, UNREALIZABLE_TEXT, two_terminal_graph

F = Fraction

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture
def cycle3_file(tmp_path):
    path = tmp_path / "cycle3.txt"
    path.write_text(CYCLE3_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# graph JSON round trip


def test_graph_json_round_trip():
    graph = two_terminal_graph()
    doc = graph_to_json(graph, ("x", "y"))
    loaded, species = graph_from_json(doc)
    assert loaded == graph
    assert species == ("x", "y")


def test_graph_json_without_rates():
    graph = EGraph(vertices=((0,), (1,)), edges=((0, 1),))
    loaded, species = graph_from_json(graph_to_json(graph))
    assert loaded == graph
    assert species is None


def test_graph_json_rejects_bad_documents():
    with pytest.raises(SchemaError):
        graph_from_json({"n": 1, "vertices": [[0]]})
    with pytest.raises(SchemaError):
        graph_from_json({"n": 1, "vertices": [[0], [1]], "edges": [{"from": 0, "to": 5}]})
    with pytest.raises(SchemaError):
        graph_from_json(
            {
                "n": 1,
                "vertices": [[0], [1]],
                "edges": [{"from": 0, "to": 1, "rate": "1"}, {"from": 1, "to": 0}],
            }
        )
    with pytest.raises(SchemaError):
        graph_from_json({"n": 1, "vertices": [[0], [0]], "edges": [{"from": 0, "to": 1}]})


def test_monomial_labels():
    assert monomial_label((0, 0), ("x", "y")) == "1"
    assert monomial_label((1, 0), ("x", "y")) == "x"
    assert monomial_label((2, 1), ("x", "y")) == "x^2 y"


# ---------------------------------------------------------------------------
# realize


def test_realize_json_success(capsys, cycle3_file):
    code, out, _ = run_cli(capsys, "realize", cycle3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "realized"
    assert doc["deficiency"] == 0
    assert doc["supports"] == [[0, 1], [1, 2], [0, 2]]
    assert doc["verification"] == {"dynamics_match": True}
    assert [e["rate"] for e in doc["graph"]["edges"]] == ["1", "1", "1"]


def test_realize_output_is_deterministic(capsys, cycle3_file):
    _, first, _ = run_cli(capsys, "realize", cycle3_file)
    _, second, _ = run_cli(capsys, "realize", cycle3_file)
    assert first == second


def test_realize_no_realization_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(UNREALIZABLE_TEXT)
    code, out, _ = run_cli(capsys, "realize", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["outcome"] == "no-realization"
    assert doc["failure"]["kind"] == "infeasible-vertex"
    assert doc["failure"]["vertex_vector"] == [1, 0]


def test_realize_parse_error_exit_1(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("species x; x' = ???;")
    code, _, err = run_cli(capsys, "realize", str(path))
    assert code == 1
    assert "error:" in err


def test_realize_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "realize", "/nonexistent/input.txt")
    assert code == 1
    assert "error:" in err


def test_realize_dot_output(capsys, cycle3_file):
    code, out, _ = run_cli(capsys, "realize", cycle3_file, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert 'v0 [label="x"];' in out
    assert 'v2 [label="x^2 y"];' in out
    assert 'v0 -> v1 [label="1"];' in out


def test_realize_human_output(capsys, cycle3_file):
    code, out, _ = run_cli(capsys, "realize", cycle3_file, "--format", "human")
    assert code == 0
    assert "realized" in out
    assert "x -> x^2  rate 1" in out


def test_realize_quiet_suppresses_output(capsys, cycle3_file):
    code, out, _ = run_cli(capsys, "realize", cycle3_file, "--quiet")
    assert code == 0
    assert out == ""


def test_realize_check_oracle(capsys, cycle3_file):
    code, _, _ = run_cli(capsys, "realize", cycle3_file, "--check-oracle")
    assert code == 0


def test_realize_multi_witness_golden_bytes(capsys):
    # rates are averages of the witnesses of each vertex, so any change of
    # witness shows in the bytes; recorded with the cone step ahead of the
    # warm-started, early-exit saturation (the same edges, supports and every
    # other line as the record without it; 16 rates differ because the
    # witnesses differ)
    code, out, _ = run_cli(capsys, "realize", str(GOLDEN / "multi_witness.txt"))
    assert code == 0
    assert out == (GOLDEN / "multi_witness.json").read_text()


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "wr1", "realize", str(GOLDEN / "multi_witness.txt")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["outcome"] == "realized"


def test_internal_error_exit_3_without_traceback(capsys, monkeypatch, cycle3_file):
    def broken(decomposition):
        raise InternalInvariantViolation("rates at vertex 0 do not reproduce its net vector")

    monkeypatch.setattr("wr1.cli.realize_wr1", broken)
    code, out, err = run_cli(capsys, "realize", cycle3_file)
    assert code == 3
    assert out == ""
    assert err == "internal error: rates at vertex 0 do not reproduce its net vector\n"
    assert "Traceback" not in err


def test_realize_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(CYCLE3_TEXT))
    code, out, _ = run_cli(capsys, "realize", "-")
    assert code == 0
    assert json.loads(out)["outcome"] == "realized"


def test_realize_matrices_json_input(capsys, tmp_path):
    doc = {
        "species": ["x", "y"],
        "Y_s": [[1, 2, 2], [0, 0, 1]],
        "W": [["1", "0", "-1"], ["0", "1", "-1"]],
    }
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "realize", str(path), "--input-kind", "matrices-json")
    assert code == 0
    assert json.loads(out)["deficiency"] == 0


def test_exponent_literals_are_rejected_with_their_location(capsys, tmp_path):
    # "1e9" is not an integer or p/q; as "1e1000000" it would cost seconds to build
    doc = {"species": ["x", "y"], "Y_s": [[1, 2, 2], [0, 0, 1]], "W": [["1", "0", "-1"], ["0", "1e9", "-1"]]}
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "realize", str(path), "--input-kind", "matrices-json")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "'W' row 1 (species 'y')" in err and "'1e9'" in err
    graph_path = tmp_path / "graph.json"
    edges = [{"from": 0, "to": 1, "rate": "1"}, {"from": 1, "to": 0, "rate": "1e9"}]
    graph_path.write_text(json.dumps({"n": 1, "vertices": [[1], [0]], "edges": edges}))
    code, out, err = run_cli(capsys, "analyze", "--graph", str(graph_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "bad rate on edge 1->0: '1e9'" in err


# ---------------------------------------------------------------------------
# verify


def realize_to_graph_file(capsys, tmp_path, system_text):
    system_path = tmp_path / "system.txt"
    system_path.write_text(system_text)
    code, out, _ = run_cli(capsys, "realize", str(system_path))
    assert code == 0
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(json.loads(out)["graph"]))
    return str(graph_path), str(system_path)


@pytest.mark.parametrize("text", [CYCLE3_TEXT, CYCLE4_TEXT])
def test_verify_accepts_own_realization(capsys, tmp_path, text):
    graph_path, system_path = realize_to_graph_file(capsys, tmp_path, text)
    code, out, _ = run_cli(capsys, "verify", "--graph", graph_path, "--system", system_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(doc["checks"].values())


def test_verify_rejects_wrong_system(capsys, tmp_path):
    graph_path, _ = realize_to_graph_file(capsys, tmp_path, CYCLE3_TEXT)
    other = tmp_path / "other.txt"
    other.write_text("species x, y; x' = 2*x - x^2*y; y' = x^2 - x^2*y;")
    code, out, _ = run_cli(capsys, "verify", "--graph", graph_path, "--system", str(other))
    assert code == 2
    doc = json.loads(out)
    assert doc["checks"]["dynamics_match"] is False
    assert doc["checks"]["weakly_reversible"] is True


def test_verify_rejects_renamed_species(capsys, tmp_path):
    # same coordinates, but the graph's x -> y at rate 1 and y -> x at rate 2
    # is not the named system, which has these rates the other way round
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(
        json.dumps(
            {
                "n": 2,
                "species": ["x", "y"],
                "vertices": [[1, 0], [0, 1]],
                "edges": [{"from": 0, "to": 1, "rate": "1"}, {"from": 1, "to": 0, "rate": "2"}],
            }
        )
    )
    system = tmp_path / "system.txt"
    system.write_text("species y, x; y' = -y + 2*x; x' = y - 2*x;")
    code, out, _ = run_cli(capsys, "verify", "--graph", str(graph_path), "--system", str(system))
    assert code == 2
    doc = json.loads(out)
    assert doc["checks"] == {"dynamics_match": False, "single_linkage_class": True, "weakly_reversible": True}
    assert doc["ok"] is False
    # the same graph under the system's own names matches
    graph_path.write_text(graph_path.read_text().replace('["x", "y"]', '["y", "x"]'))
    code, out, _ = run_cli(capsys, "verify", "--graph", str(graph_path), "--system", str(system))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_rejects_unrated_graph(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(
        json.dumps({"n": 1, "vertices": [[0], [1]], "edges": [{"from": 0, "to": 1}]})
    )
    system = tmp_path / "system.txt"
    system.write_text("species x; x' = x;")
    code, _, err = run_cli(capsys, "verify", "--graph", str(path), "--system", str(system))
    assert code == 1
    assert "error:" in err


def test_float_rate_is_rejected_not_rounded(capsys, tmp_path):
    # as a float, 1.0000000000000001 is 1.0, which made this graph verify
    # against x' = 1 - x and fail against the system it writes down
    edges = [{"from": 0, "to": 1, "rate": 1.0000000000000001}, {"from": 1, "to": 0, "rate": "1"}]
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps({"n": 1, "vertices": [[1], [0]], "edges": edges}))
    with pytest.raises(SchemaError, match="edge 0->1"):
        graph_from_json(json.loads(graph_path.read_text()))
    system = tmp_path / "system.txt"
    for text in ("species x; x' = 1 - x;", "species x; x' = 1 - 10000000000000001/10000000000000000*x;"):
        system.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--graph", str(graph_path), "--system", str(system))
        assert (code, out) == (1, "")
        assert "bad rate on edge 0->1" in err
    code, out, err = run_cli(capsys, "analyze", "--graph", str(graph_path))
    assert (code, out) == (1, "")
    # an integer or a "p/q" string is read exactly
    for rate, expected in ((1, 2), ("10000000000000001/10000000000000000", 0)):
        edges[0]["rate"] = rate
        graph_path.write_text(json.dumps({"n": 1, "vertices": [[1], [0]], "edges": edges}))
        assert run_cli(capsys, "verify", "--graph", str(graph_path), "--system", str(system))[0] == expected


def test_verify_spot_checks_graph_with_negative_coordinates(capsys, tmp_path):
    # vertex -1 is balanced (out to 0 and -2 at equal rates), so the net
    # vectors match x' = 1 - x and the spot checks evaluate x^-1 and x^-2
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(
        '{"n":1,"vertices":[[-1],[0],[-2],[1]],"edges":[{"from":0,"to":1,"rate":1},'
        '{"from":0,"to":2,"rate":1},{"from":1,"to":3,"rate":1},{"from":3,"to":1,"rate":1}]}'
    )
    system = tmp_path / "system.txt"
    system.write_text("species x; x' = 1 - x;")
    code, out, err = run_cli(capsys, "verify", "--graph", str(graph_path), "--system", str(system))
    assert (code, err) == (2, "")
    assert out == (
        '{\n  "checks": {\n    "dynamics_match": true,\n    "single_linkage_class": true,\n'
        '    "weakly_reversible": false\n  },\n  "ok": false,\n  "spot_checks": 5\n}\n'
    )


def test_verify_flags_multi_class_graph(capsys, tmp_path):
    graph_path = tmp_path / "two_class.json"
    graph_path.write_text(json.dumps(graph_to_json(two_terminal_graph(), ("x", "y"))))
    system = tmp_path / "system.txt"
    # the actual dynamics of the two-class graph, written out by hand:
    # w = (1,0), (-1,0), (1,1), (0,-1), (0,1), (0,-1) at monomials
    # x, x^2, x^3, x^4 y, x^5 y, x^5 y^2
    system.write_text(
        "species x, y;\n"
        "x' = x - x^2 + x^3;\n"
        "y' = x^3 - x^4*y + x^5*y - x^5*y^2;\n"
    )
    code, out, _ = run_cli(capsys, "verify", "--graph", str(graph_path), "--system", str(system))
    assert code == 2
    doc = json.loads(out)
    assert doc["checks"]["weakly_reversible"] is False
    assert doc["checks"]["single_linkage_class"] is False


def test_non_ascii_species_names_are_escaped(capsys, tmp_path):
    # JSON reports are ASCII: a name outside it is written as \u escapes,
    # and verify reads the names back to match the system's
    system = tmp_path / "system.txt"
    system.write_text("species é, ω2; é' = 1 - é*ω2; ω2' = 1 - é*ω2;", encoding="utf-8")
    code, out, err = run_cli(capsys, "realize", str(system))
    assert (code, err) == (0, "")
    assert out.isascii()
    assert '"\\u00e9"' in out and '"\\u03c92"' in out
    assert json.loads(out)["species"] == json.loads(out)["graph"]["species"] == ["é", "ω2"]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(json.loads(out)["graph"]))
    code, out, _ = run_cli(capsys, "verify", "--graph", str(graph), "--system", str(system))
    assert code == 0 and json.loads(out)["ok"] is True


# ---------------------------------------------------------------------------
# the report writer: json.dumps(indent=2, sort_keys=True) byte for byte


def reference_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_writer_reproduces_the_golden_report():
    text = (GOLDEN / "multi_witness.json").read_text()
    doc = json.loads(text)
    assert _dumps(doc) == reference_dumps(doc) == text


FAILURES = {
    "infeasible-vertex": lambda: decompose(parse_system(UNREALIZABLE_TEXT)),
    "kernel-dimension": lambda: decompose(parse_system("species x, y; x' = x - x^2; y' = y - y^2;")),
    "kernel-support": lambda: decompose(
        parse_system("species x, y; x' = -3*x^2*y^2; y' = 3*x*y - 3*x*y^2 - 3*x^2*y^2;")
    ),
    "single-vertex": lambda: SourceDecomposition(("x",), ((2,),), RationalMatrix.from_rows([[0]])),
}


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_writer_matches_json_on_failure_reports(kind):
    dec = FAILURES[kind]()
    doc = realization_json(dec, realize_wr1(dec))
    assert doc["failure"]["kind"] == kind
    assert _dumps(doc) == reference_dumps(doc)


def test_writer_matches_json_on_verify_and_analyze_reports(capsys, tmp_path):
    graph_path, system_path = realize_to_graph_file(capsys, tmp_path, CYCLE3_TEXT)
    _, out, _ = run_cli(capsys, "verify", "--graph", graph_path, "--system", system_path)
    assert out == reference_dumps(json.loads(out))
    doc = structure_json(two_terminal_graph())
    assert "kernel_check" in doc
    assert _dumps(doc) == reference_dumps(doc)


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
_KEYS = st.one_of(st.text(), st.sampled_from(["from", "rate", "to", "é", "\x00", "\u2028"]))


def _documents(children):
    return st.one_of(
        st.lists(children),
        st.dictionaries(_KEYS, children),
        # edge-shaped objects, with and without the types of a rated edge
        st.fixed_dictionaries({"from": st.integers(), "rate": st.text(), "to": st.integers()}),
        st.fixed_dictionaries({"from": children, "rate": children, "to": children}),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_SCALARS, _documents, max_leaves=20))
def test_writer_matches_json_on_fuzzed_documents(doc):
    # empty containers, flat and mixed lists, non-ASCII and control characters
    assert _dumps(doc) == reference_dumps(doc)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_two_class_graph(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_json(two_terminal_graph(), ("x", "y"))))
    code, out, _ = run_cli(capsys, "analyze", "--graph", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["linkage_classes"] == [[0, 1], [2, 3, 4, 5]]
    assert doc["terminal_components"] == [[0, 1], [4, 5]]
    assert doc["weakly_reversible"] is False
    assert doc["deficiency"] == 2
    assert doc["kernel_check"]["ok"] is True
    assert doc["kernel_check"]["kernel_dimension"] == 2


def test_analyze_human_format(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_json(two_terminal_graph(), ("x", "y"))))
    code, out, _ = run_cli(capsys, "analyze", "--graph", str(path), "--format", "human")
    assert code == 0
    assert "deficiency: 2" in out


def test_analyze_bad_json_exit_1(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "--graph", str(path))
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# input that Python itself refuses to decode: one error line, exit 1


def assert_input_error(capsys, *argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_non_utf8_input_exit_1(capsys, tmp_path, cycle3_file):
    text = tmp_path / "system.txt"
    text.write_bytes(b"species x;\nx\xff' = -x;\n")
    graph = tmp_path / "graph.json"
    graph.write_bytes(b'{"n": 1, "vertices": [[0], [1]], "edges": [], "species": ["\xff"]}')
    good_graph = tmp_path / "good.json"
    main(["realize", cycle3_file])
    good_graph.write_text(json.dumps(json.loads(capsys.readouterr().out)["graph"]))
    located = "not UTF-8 text: invalid start byte at byte"
    assert_input_error(capsys, "realize", str(text), message=f"system.txt: {located} 12")
    assert_input_error(capsys, "verify", "--graph", str(good_graph), "--system", str(text), message=f"{located} 12")
    offset = graph.read_bytes().index(b"\xff")
    assert_input_error(capsys, "analyze", "--graph", str(graph), message=f"graph.json: {located} {offset}")


def test_deeply_nested_json_exit_1(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (
        ("analyze", "--graph", str(path)),
        ("verify", "--graph", str(path), "--system", str(path)),
        ("realize", "--input-kind", "matrices-json", str(path)),
    ):
        assert_input_error(capsys, *argv, message="invalid JSON: nested too deeply")


def test_integer_past_digit_limit_exit_1(capsys, tmp_path):
    digits = "7" * 5000
    coefficient = tmp_path / "coefficient.txt"
    coefficient.write_text(f"species x;\nx' = {digits}*x - x^2;\n")
    exponent = tmp_path / "exponent.txt"
    exponent.write_text(f"species x;\nx' = x - x^{digits};\n")
    document = tmp_path / "graph.json"
    document.write_text(f'{{"n": {digits}, "vertices": [], "edges": []}}')
    too_long = "integer literal has too many digits"
    assert_input_error(capsys, "realize", str(coefficient), message=f"{too_long} (line 2, column 6)")
    assert_input_error(capsys, "realize", str(exponent), message=f"{too_long} (line 2, column 12)")
    assert_input_error(capsys, "analyze", "--graph", str(document), message="invalid JSON: Exceeds the limit")


def test_summed_exponent_past_digit_limit_exit_1(capsys, tmp_path):
    # each literal is at the 4,300-digit limit, but x^A*x^A sums to 4,301 digits
    digits = "9" * 4300
    path = tmp_path / "system.txt"
    path.write_text(f"species x;\nx' = x^{digits}*x^{digits} - x;\n")
    message = f"summed exponent has too many digits (line 2, column {4300 + 9})"
    for fmt in ("json", "human"):
        assert_input_error(capsys, "realize", str(path), "--format", fmt, message=message)
    # a repeated factor within the limit still sums
    path.write_text(f"species x;\nx' = x^{digits[1:]}*x^{digits[1:]} - x;\n")
    assert run_cli(capsys, "realize", str(path), "--quiet")[0] == 2


def test_output_number_past_digit_limit_exit_1(capsys, tmp_path):
    # every literal is under the 4,300-digit limit, but p1/q1 + p2/q2 has
    # about 6,000 digits in its numerator and its denominator
    p1, q1, p2, q2 = (str(10**2999 + k) for k in (1, 3, 7, 9))
    two = tmp_path / "two.txt"
    two.write_text(f"species x, y; x' = {p1}/{q1} + {p2}/{q2} - x - x*y; y' = {p2}/{q2} - x*y;")
    one = tmp_path / "one.txt"
    one.write_text(f"species x; x' = {p1}/{q1} + {p2}/{q2} - x;")
    too_long = "has a number longer than 4300 digits"
    assert_input_error(capsys, "realize", str(two), message=f"error: net vector of vertex 0 {too_long}")
    for fmt in ("human", "dot"):
        message = f"error: rate on edge 0->1 {too_long}"
        assert_input_error(capsys, "realize", str(one), "--format", fmt, message=message)
    # the engine handles the long numbers; only a printed one past the limit is refused
    code, out, _ = run_cli(capsys, "realize", str(two), "--format", "human")
    assert code == 0 and out.startswith("realized")
