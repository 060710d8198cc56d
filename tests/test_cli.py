"""CLI surface: input resolution, JSON canonicality, tables, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distlap
import oracles
from distlap import (
    Graph, compute_all_bounds, connected_classes, encode_graph6,
    format_edge_list, parse_edge_list, parse_graph6, scan_conjecture)
from distlap.cli import (
    cmd_analyze, cmd_scan, fmt4, main, report_document, resolve_graph_input,
    scan_document, to_canonical_json)
from distlap.errors import GraphParseError
from distlap.named_graphs import (
    _BUILTIN, complete_graph, cycle_graph, fixture_graph, path_graph,
    star_graph)


def test_fmt4():
    assert fmt4(None) == "n/a"
    assert fmt4(36.744563) == "36.7446"
    assert fmt4(48.0) == "48"
    assert fmt4(0.25) == "0.25"
    assert fmt4(-0.000001) == "0"
    assert fmt4(-1.5) == "-1.5"
    assert fmt4(184.0) == "184"


def test_resolve_builtins_and_fixtures():
    assert resolve_graph_input("K5") == complete_graph(5)
    assert resolve_graph_input("P4") == path_graph(4)
    assert resolve_graph_input("C6") == cycle_graph(6)
    assert resolve_graph_input("S5") == star_graph(5)
    assert resolve_graph_input("g1") == fixture_graph("g1")
    assert resolve_graph_input("Bw") == complete_graph(3)  # literal graph6


def test_resolve_files(tmp_path):
    edges = tmp_path / "square.txt"
    edges.write_text(format_edge_list(cycle_graph(4)), encoding="utf-8")
    assert resolve_graph_input(str(edges)) == cycle_graph(4)
    g6 = tmp_path / "some.g6"
    g6.write_text(encode_graph6(path_graph(5)) + "\n", encoding="utf-8")
    assert resolve_graph_input(str(g6)) == path_graph(5)
    empty = tmp_path / "empty.g6"
    empty.write_text("\n", encoding="utf-8")
    with pytest.raises(GraphParseError, match="no graph6 data"):
        resolve_graph_input(str(empty))


def test_resolve_garbage_is_a_parse_error():
    with pytest.raises(GraphParseError):
        resolve_graph_input("this is not anything!")


def test_malformed_inputs_are_parse_errors(tmp_path, capsys):
    # a superscript passes str.isdigit but not int
    with pytest.raises(GraphParseError, match="line 1: expected vertex count"):
        parse_edge_list("\u00b2\n")
    # int takes each of these, but the edge-list format does not
    for i, (text, line) in enumerate((
            ("3\n0 1\n+1 2\n", 3), ("3\n0 1\n1 \uff12\n", 3),
            ("3\n0 1\n1_0 2\n", 3), ("3\n\u0662 1\n1 0\n", 2),
            ("\uff13\n0 1\n1 2\n", 1))):
        with pytest.raises(GraphParseError, match=(
                f"line {line}: (non-integer endpoint|expected vertex count)")):
            parse_edge_list(text)
        path = tmp_path / f"token{i}.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert f"line {line}: " in capsys.readouterr().err
    # a builtin size is ASCII digits too: K followed by an Arabic-Indic
    # three is no K3
    assert _BUILTIN.match("K\u0663") is None
    with pytest.raises(GraphParseError):
        resolve_graph_input("K\u0663")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe3\n")
    with pytest.raises(GraphParseError, match="not UTF-8"):
        resolve_graph_input(str(binary))
    binary = tmp_path / "binary.g6"
    binary.write_bytes(b"Bw\n\xff\xfe\n")
    with pytest.raises(GraphParseError, match="not UTF-8"):
        cmd_scan(graph6_path=str(binary))
    for name in ("K0", "S0"):
        with pytest.raises(GraphParseError, match=f"{name}: need n >= 1"):
            resolve_graph_input(name)


# free text, edge-list-like text and graph6-like text
PARSER_INPUTS = st.one_of(
    st.text(),
    st.lists(st.sampled_from(
        list("0123456789 -#\n\t\u00b2\u0663") + ["0-based", "1-based"])
    ).map("".join),
    st.text(alphabet=st.characters(min_codepoint=58, max_codepoint=130)))


@settings(max_examples=300, deadline=None)
@given(PARSER_INPUTS)
def test_every_input_parses_or_is_a_parse_error(text):
    for parse in (parse_graph6, parse_edge_list):
        try:
            assert isinstance(parse(text), Graph)
        except GraphParseError:
            pass
    # a builtin name builds its graph, however large
    if not os.path.exists(text) and not _BUILTIN.match(text.strip()):
        try:
            assert isinstance(resolve_graph_input(text), Graph)
        except GraphParseError:
            pass


def test_json_reserialization_is_byte_identical():
    for args in (("ex1",), ("g2", "json", "Q"), ("K4", "json", "L")):
        code, text = cmd_analyze(args[0], fmt="json")
        assert code == 0
        doc = json.loads(text)
        assert to_canonical_json(doc) == text
        assert text.index("\n") == len(text) - 1  # one line per document


def test_canonical_json_is_the_sorted_compact_dump():
    # the cycle check is skipped; the bytes are those of a checked dump
    report = report_document(compute_all_bounds(fixture_graph("g1")))
    scan = scan_document(scan_conjecture(connected_classes(6)), {
        "enumerate": 6, "dedup": False, "slack": 1e-7})
    assert len(scan["scan"]["counterexamples"]) == 561
    for doc in (report, scan):
        assert to_canonical_json(doc) == json.dumps(
            doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_analyze_json_document_shape():
    code, text = cmd_analyze("ex1", fmt="json")
    doc = json.loads(text)
    assert doc["schema_version"] == 2
    assert "timing_ms" not in doc
    assert doc["graph"]["n"] == 5
    assert doc["graph"]["edge_count"] == 7
    assert doc["wiener"] == 13
    assert doc["transmission_regular"] is None
    assert len(doc["spectra"]["distance_laplacian"]) == 5
    assert doc["radius"]["distance_laplacian"] == pytest.approx(8.4142, abs=5e-4)
    assert doc["checks"]["tree_determinant"] is None  # not a tree
    assert doc["checks"]["han_multiplicity"] is True
    assert len(doc["bounds"]) == 18
    by_id = {b["id"]: b for b in doc["bounds"]}
    assert by_id["L_R1"]["applicable"] is False
    assert by_id["L_R1"]["value"] is None
    assert by_id["L_N3"]["equality"] == {
        "equality_within_tol": False, "certificate": "none"}
    assert by_id["L_I1"]["equality"] is None  # no characterization attached
    # K2 is a tree too small for Han's check; C4 is not a tree
    for name, han, tree in (("K2", None, True), ("C4", True, None)):
        checks = json.loads(cmd_analyze(name, fmt="json")[1])["checks"]
        assert checks == {"han_multiplicity": han, "tree_determinant": tree}


def test_analyze_target_filters_bounds():
    _, text = cmd_analyze("P4", fmt="json", target="L")
    ids = [b["id"] for b in json.loads(text)["bounds"]]
    assert ids == ["L_I1", "L_D1", "L_D2", "L_N1", "L_N2", "L_N3",
                   "L_R1", "L_R2"]
    _, text = cmd_analyze("P4", fmt="json", target="Q")
    ids = [b["id"] for b in json.loads(text)["bounds"]]
    assert all(i.startswith("Q") for i in ids) and len(ids) == 10


def test_analyze_table_content():
    _, text = cmd_analyze("ex1")
    assert "graph: n=5 edges=7" in text
    assert "radius: L=8.4142 Q=10.7417" in text
    assert "transmission-regular=no" in text
    assert "equalities: none" in text
    _, text = cmd_analyze("ex2")
    assert "transmission-regular=yes" in text
    assert "transmission-regular bounds: r1=21.874 r2=21.4782" in text
    assert "Q_TB_UP:transmission-regular" in text
    _, text = cmd_analyze("K4")
    assert "L_N3:complete-graph" in text


def test_analyze_table_target_sections():
    _, text = cmd_analyze("P4", target="L")
    assert "L upper bounds:" in text
    assert "Q lower bounds:" not in text
    _, text = cmd_analyze("P4", target="Q")
    assert "Q upper bounds:" in text
    assert "L upper bounds:" not in text


def test_scan_enumerate_json():
    code, text = cmd_scan(enumerate_n=4, fmt="json")
    assert code == 0
    doc = json.loads(text)["scan"]
    assert doc["graphs_tested"] == 34
    assert doc["skipped_regular"] == 4
    assert doc["has_counterexamples"] is False
    assert doc["counterexamples"] == []
    assert len(doc["equalities_within_tolerance"]) == 4
    assert doc["min_margin"] == 0.0
    assert to_canonical_json(json.loads(text)) == text
    assert text.index("\n") == len(text) - 1


def test_scan_finds_counterexamples_with_exit_zero():
    code, text = cmd_scan(enumerate_n=5, fmt="json")
    assert code == 0  # a finding, not a failure
    doc = json.loads(text)["scan"]
    assert doc["has_counterexamples"] is True
    assert len(doc["counterexamples"]) == 5


def test_scan_graph6_file(tmp_path):
    path = tmp_path / "family.g6"
    lines = [encode_graph6(fixture_graph(n)) for n in ("g1", "g2", "g3")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, text = cmd_scan(graph6_path=str(path), fmt="json")
    assert code == 0
    doc = json.loads(text)["scan"]
    assert doc["graphs_tested"] == 3
    assert doc["min_margin"] == pytest.approx(0.712478, abs=5e-4)
    assert doc["params"]["graph6"] == "family.g6"


def test_scan_table_output():
    code, text = cmd_scan(enumerate_n=5)
    assert code == 0
    assert "graphs tested: 715 (skipped transmission-regular: 13)" in text
    assert "strict counterexamples: 5" in text
    assert "min margin: -0.312182" in text


def test_cmd_scan_argument_validation():
    with pytest.raises(ValueError, match="exactly one"):
        cmd_scan()
    with pytest.raises(ValueError, match="exactly one"):
        cmd_scan(enumerate_n=4, graph6_path="x.g6")
    with pytest.raises(ValueError, match="n >= 3"):
        cmd_scan(enumerate_n=2)
    # a graph6 stream is never deduplicated, so dedup is an error there
    with pytest.raises(ValueError, match="^--dedup requires --enumerate$"):
        cmd_scan(graph6_path="x.g6", dedup=True)


def test_main_exit_codes(capsys, tmp_path):
    assert main(["analyze", "Bw"]) == 0
    assert "graph: n=3" in capsys.readouterr().out

    assert main(["analyze", "definitely not a graph"]) == 2
    assert "error" in capsys.readouterr().err

    assert main(["scan", "--enumerate", "2"]) == 2
    assert "n >= 3" in capsys.readouterr().err

    path = tmp_path / "p3.g6"
    path.write_text("Bw\n")
    assert main(["scan", "--graph6", str(path), "--dedup"]) == 2
    assert "--dedup requires --enumerate" in capsys.readouterr().err

    assert main(["scan", "--enumerate", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scan"]["graphs_tested"] == 3
    assert doc["scan"]["skipped_regular"] == 1


@pytest.mark.parametrize("slack", ["nan", "inf", "-1"])
def test_main_rejects_a_slack_not_finite_and_nonnegative(capsys, slack):
    # nan and inf would write JSON that is not JSON, and a negative slack
    # would list every tested graph as a strict counterexample
    assert main(["scan", "--enumerate", "4", "--slack", slack,
                 "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "slack must be finite and >= 0" in captured.err
    assert captured.out == ""


def test_main_analyze_large_complete_graph(capsys):
    # the L_N3 radicand of K_208 is exactly 0, which squared Frobenius
    # norms in floats once rounded to -1.85e-9
    assert main(["analyze", "K208", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    n3 = next(b for b in doc["bounds"] if b["id"] == "L_N3")
    assert n3["value"] == 208.0 and n3["satisfied"]


def test_main_analyze_disconnected_edge_list(tmp_path, capsys):
    path = tmp_path / "split.txt"
    path.write_text("4\n0 1\n2 3\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert "disconnected" in capsys.readouterr().err


def test_main_analyze_sparse_edge_list_with_a_huge_header(tmp_path, capsys):
    # fewer than n - 1 edges is disconnected before any BFS, whose memory
    # would grow with the header's n
    path = tmp_path / "sparse.txt"
    path.write_text(f"{10 ** 9}\n0 1\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == (
        "distlap: error: graph is disconnected "
        "(vertex 0 cannot reach every vertex)\n")


def test_main_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("distlap ")


def test_version_from_source_tree(tmp_path, capsys):
    # --version reads distlap.__version__, so it works with no installed
    # distribution: in-process and from a bare source checkout.
    expected = f"distlap {distlap.__version__}\n"
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == expected

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "distlap.cli", "--version"], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_scan_dedup_matches_class_count():
    code, text = cmd_scan(enumerate_n=5, dedup=True, fmt="json")
    assert code == 0
    doc = json.loads(text)["scan"]
    # 21 connected classes on 5 vertices, 2 transmission-regular (C5, K5)
    assert doc["graphs_tested"] + doc["skipped_regular"] == 21
    assert doc["skipped_regular"] == 2
    assert len(doc["counterexamples"]) == 1  # the star, once


def test_scan_dedup_at_7_weighs_to_the_labeled_counterexamples():
    code, text = cmd_scan(enumerate_n=7, dedup=True, fmt="json")
    assert code == 0
    doc = json.loads(text)["scan"]
    assert doc["graphs_tested"] == 849 and doc["skipped_regular"] == 4
    assert doc["graphs_tested"] + doc["skipped_regular"] == (
        oracles.UNLABELED_CONNECTED[7])
    masks = [oracles.edge_mask(parse_graph6(enc).edges, 7)
             for enc, _, _ in doc["counterexamples"]]
    assert len(masks) == 52
    # the labeled n = 7 count of acceptance criterion 4
    assert oracles.orbit_sizes(masks, 7).sum() == 45234
