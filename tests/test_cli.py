"""CLI: parsing, exit codes, result documents, round trips, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_graph, multigraphs

import ecpostman
from ecpostman import ColoredMultigraph, InvariantError
from ecpostman.auxgraph import build_matching_graph, dump_matching_graph
from ecpostman.cli import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    ParseError,
    format_result,
    main,
    parse_instance_text,
    parse_tour_text,
)
from ecpostman.pcwalks import ShortestWalkFinder
from ecpostman.solver import solve, solve_with_model

TRIANGLE = "ecg 3 3 3\n1 2 1 1\n2 3 2 1\n3 1 3 1\n"
HOUSE = "ecg 4 3 5\n1 2 1 1\n2 3 2 5\n3 1 3 1\n2 4 3 1\n4 3 1 1\n"
SINGLE_COLOR = "ecg 3 1 2\n1 2 1 1\n2 3 1 1\n"
# the triangle plus a pendant trap; edge 1-4 lies on no properly colored closed walk
TRAPPED = TRIANGLE.replace("ecg 3 3 3", "ecg 6 3 7") + "1 4 1 1\n4 5 1 1\n5 6 2 1\n6 4 3 1\n"
# four colors, a parallel pair 1-2 and odd vertices 2 and 3: the model is built
PARALLEL_EVEN_K = "ecg 4 4 6\n1 2 1 1\n1 2 2 3\n2 3 3 1\n3 1 4 2\n3 4 1 1\n4 1 2 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_parse_accepts_comments_and_blanks():
    g = parse_instance_text("# c\n\necg 2 2 2\n# another\n1 2 1 3\n1 2 2 0\n")
    assert g.n == 2 and g.k == 2 and len(g.edges) == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing header"),
        ("ecg 3 3\n", "header"),
        ("ecg 1 1 1\n", "two vertices"),
        ("ecg 3 3 0\n", "one edge"),
        ("ecg 3 3 1\n1 2 1\n", "expected"),
        ("ecg 3 3 1\n1 4 1 1\n", "1..3"),
        ("ecg 3 3 1\n1 1 1 1\n", "loops"),
        ("ecg 3 3 1\n1 2 9 1\n", "colors"),
        ("ecg 3 3 1\n1 2 1 -2\n", "non-negative"),
        ("ecg 3 3 2\n1 2 1 1\n", "expected 2 edge lines"),
        ("ecg 3 3 1\n1 2 1 1\n2 3 1 1\n", "more than"),
        # int() alone reads digit separators and non-ASCII digits
        ("ecg 3 3 1\n1 2 1 1_0\n", ":2: edge fields must be integers"),
        ("ecg 3 3 1\n1 2 1 \u0663\n", ":2: edge fields must be integers"),
        ("ecg 3 3 1\n1 2 1 -1_0\n", ":2: edge fields must be integers"),
        ("ecg \uff13 3 3\n", ":1: header fields must be integers"),
        ("ecg 3 3 1_0\n", ":1: header fields must be integers"),
        ("ecg 3 3 1\n1 2 1 --1\n", ":2: edge fields must be integers"),
    ],
)
def test_parse_errors_have_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text, "inst.ecg")
    assert "inst.ecg:" in str(err.value)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,message",
    [
        # a range fault on line 3 comes before the short line 4
        ("ecg 4 2 2\n1 2 1 1\n1 9 1 1\n1 2 3\n", "f.ecg:3: vertex ids must be in 1..4"),
        # a short line 2 comes before the range fault on line 3
        ("ecg 4 2 2\n1 2 1\n1 9 1 1\n", "f.ecg:2: expected '<u> <v> <color> <weight>'"),
        # a sign fault on line 2 comes before the non-integer on line 3
        ("ecg 4 2 2\n1 2 1 -1\n1 2 x 1\n", "f.ecg:2: weights must be non-negative"),
        # a loop on line 2 comes before the extra line 3
        ("ecg 4 2 1\n2 2 1 1\n1 2 1 1\n", "f.ecg:2: loops are not allowed"),
    ],
)
def test_the_first_faulty_line_wins(text, message):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text, "f.ecg")
    assert str(err.value) == message


@st.composite
def instance_texts(draw):
    """A valid instance text and the graph it describes, written with the
    freedoms the format allows: comment and blank lines (before the header
    too), runs of blanks and tabs between fields and around a line, LF or
    CRLF line endings, a '+' sign and leading zeros."""
    g = draw(multigraphs(max_n=6, max_k=4, max_m=9, max_w=20))
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    pad = st.sampled_from(["", "", " ", "\t"])
    prefix = st.sampled_from(["", "", "+", "0", "+00"])
    extra = st.lists(st.sampled_from(["", " \t", "# note", "  # 1 2 3 4", "\t#x"]), max_size=2)

    def line(*values):
        return draw(pad) + draw(gap).join(draw(prefix) + str(x) for x in values) + draw(pad)

    lines = draw(extra) + [draw(pad) + "ecg" + draw(gap) + line(g.n, g.k, len(g.edges))]
    for _, u, v, color, weight in g.edges:
        lines.extend(draw(extra))
        lines.append(line(u + 1, v + 1, color, weight))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return g, newline.join(lines) + newline


@given(instance_texts())
@settings(max_examples=200, deadline=None)
def test_parser_builds_the_constructors_graph(case):
    g, text = case
    rows = [(u, v, color, weight) for _, u, v, color, weight in g.edges]
    assert_same_graph(parse_instance_text(text), ColoredMultigraph(g.n, g.k, rows))


def test_parser_builds_the_constructors_graph_on_the_corpus(benchmark_corpus):
    """The parser builds each graph in its line loop; on all 1080 corpus
    texts that graph is the constructor's: edges, incidence, color counts."""
    for g in benchmark_corpus:
        rows = [(u, v, color, weight) for _, u, v, color, weight in g.edges]
        assert_same_graph(g, ColoredMultigraph(g.n, g.k, rows))


@pytest.mark.parametrize(
    "line,message",
    [
        ("1 9 1 1", "vertex ids must be in 1..4"),
        ("9 9 1 1", "vertex ids must be in 1..4"),  # and a loop
        ("0 2 3 -1", "vertex ids must be in 1..4"),  # and a color, and a weight
        ("2 2 1 1", "loops are not allowed"),
        ("2 2 3 -1", "loops are not allowed"),  # and a color, and a weight
        ("1 2 3 1", "colors must be in 1..2"),
        ("1 2 0 -1", "colors must be in 1..2"),  # and a weight
        ("1 2 1 -1", "weights must be non-negative"),
        ("1 2 1", "expected '<u> <v> <color> <weight>'"),
        ("1 2 x", "expected '<u> <v> <color> <weight>'"),  # and not an integer
        ("1 9 1 1 1", "expected '<u> <v> <color> <weight>'"),  # and a range fault
        ("1 9 x 1", "edge fields must be integers"),  # and a range fault
        ("2 2 1 1_0", "edge fields must be integers"),  # and a loop
    ],
)
def test_each_edge_fault_keeps_its_message_and_line(line, message):
    """One faulty line after a comment, a blank line and a good CRLF line:
    its first fault, in the parser's fixed order, names line 6."""
    text = f"# c\n\necg 4 2 2\n  # note\n1 2 1 1\r\n\t{line} \n"
    with pytest.raises(ParseError) as err:
        parse_instance_text(text, "f.ecg")
    assert str(err.value) == f"f.ecg:6: {message}"


@pytest.mark.parametrize(
    "text,message",
    [
        ("# only\n\n", "f.ecg:1: missing header 'ecg <n> <k> <m>'"),
        ("\n# c\n ecg 4 2\n", "f.ecg:3: expected header 'ecg <n> <k> <m>'"),
        ("\n# c\n egc 4 2 1\n", "f.ecg:3: expected header 'ecg <n> <k> <m>'"),
        ("\n# c\necg 4 x 1\n", "f.ecg:3: header fields must be integers"),
        ("\n# c\necg 1 0 0\n", "f.ecg:3: need at least two vertices"),  # and m, and k
        ("\n# c\necg 2 0 0\n", "f.ecg:3: need at least one edge"),  # and k
        ("\n# c\necg 2 0 1\n", "f.ecg:3: need at least one color"),
        ("\n# c\necg 4 2 3\n1 2 1 1\n# c\n", "f.ecg:3: expected 3 edge lines, found 1"),
        ("ecg 4 2 1\n1 2 1 1\n\n1 2 x\n", "f.ecg:4: more than 1 edge lines"),  # and short
    ],
)
def test_each_header_and_count_fault_keeps_its_message_and_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text, "f.ecg")
    assert str(err.value) == message


def test_a_byte_order_mark_reads_as_none(tmp_path, capsys):
    """A UTF-8 byte-order mark may open an instance file or a tour file."""
    plain = write(tmp_path, "house.ecg", HOUSE)
    marked = tmp_path / "marked.ecg"
    marked.write_bytes(b"\xef\xbb\xbf" + HOUSE.encode())
    assert run_cli("solve", plain) == EXIT_OK
    document = capsys.readouterr().out
    assert run_cli("solve", str(marked)) == EXIT_OK
    assert capsys.readouterr().out == document
    tour = tmp_path / "marked.tour"
    tour.write_bytes(b"\xef\xbb\xbf" + document.encode())
    assert run_cli("verify", str(marked), str(tour)) == EXIT_OK
    assert capsys.readouterr().out == "verdict pass\nweight 11\n"


@pytest.mark.parametrize("at", [0, 1])
def test_a_non_ascii_comment_parses_like_none(at):
    """A comment with non-ASCII text and '_' only moves the parser to its per-line test."""
    lines = HOUSE.splitlines(keepends=True)
    commented = "".join(lines[:at] + ["# caf\u00e9 _x\n"] + lines[at:])
    g, plain = parse_instance_text(commented), parse_instance_text(HOUSE)
    assert (g.n, g.k, g.edges) == (plain.n, plain.k, plain.edges)
    for field in ("1_0", "\u0663"):
        bad = commented.replace("4 3 1 1\n", f"4 3 1 {field}\n")
        with pytest.raises(ParseError, match=":7: edge fields must be integers"):
            parse_instance_text(bad, "inst.ecg")


def test_parse_accepts_signed_ascii_integers():
    g = parse_instance_text("ecg +2 1 +1\n+1 2 01 +0\n")
    assert (g.n, g.k, len(g.edges), g.edges[0].weight) == (2, 1, 1, 0)


@pytest.mark.parametrize(
    "tour,message",
    [
        ("1 e1_0 2 2 3 3 1", "bad edge token 'e1_0'"),
        ("1 1_0 2 2 3 3 1", "bad edge token '1_0'"),
        ("1 e1:1_0 2 2 3 3 1", "bad edge token 'e1:1_0'"),
        ("1 e1:\u0661 2 2 3 3 1", "bad edge token 'e1:\u0661'"),
        ("1 1 2 2 3 3 \u0661", "bad vertex token '\u0661'"),
        ("1 1 2 2 3 3 0_1", "bad vertex token '0_1'"),
    ],
)
def test_tour_tokens_are_ascii_integers(tour, message):
    with pytest.raises(ParseError, match=message):
        parse_tour_text(tour, parse_instance_text(TRIANGLE), "tri.tour")


def test_solve_triangle(tmp_path, capsys):
    path = write(tmp_path, "tri.ecg", TRIANGLE)
    assert run_cli("solve", path) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("status optimal\ntotal_weight 3\nmatching_weight 0\n")
    assert "edge 1 2 1 1 1" in out
    assert out.splitlines()[-1].startswith("tour 1 ")


def test_solve_house_total(tmp_path, capsys):
    path = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("solve", path) == EXIT_OK
    assert "total_weight 11" in capsys.readouterr().out


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.ecg", SINGLE_COLOR)
    assert run_cli("solve", path) == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert out == "status infeasible\nreason single-color-vertex\n"


def test_solve_trapped_instance_is_infeasible(tmp_path, capsys):
    path = write(tmp_path, "trap.ecg", TRAPPED)
    assert run_cli("solve", path) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == "status infeasible\nreason no-perfect-matching\n"
    assert captured.err == ""


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "broken.ecg", "ecg 3 3 1\n1 4 1 1\n")
    assert run_cli("solve", path) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "broken.ecg:2:" in captured.err


def test_solve_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(g):
        raise InvariantError("weight accounting broken")

    monkeypatch.setattr("ecpostman.cli.solve_with_model", broken)
    assert run_cli("solve", write(tmp_path, "tri.ecg", TRIANGLE)) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: weight accounting broken\n"


@pytest.mark.parametrize("message, detail", [((), ""), (("lost a label",), ": lost a label")])
def test_solve_failed_assert_is_an_internal_error(tmp_path, capsys, monkeypatch, message, detail):
    # the blossom's inline asserts; raised explicitly, so that they hold under -O
    def broken(g):
        raise AssertionError(*message)

    monkeypatch.setattr("ecpostman.cli.solve_with_model", broken)
    assert run_cli("solve", write(tmp_path, "tri.ecg", TRIANGLE)) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    line = broken.__code__.co_firstlineno + 1
    assert captured.err == f"internal error: assertion failed in broken, line {line}{detail}\n"


def test_solve_blossom_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("ecpostman.solver.min_weight_perfect_matching", lambda inst: None)
    assert run_cli("solve", write(tmp_path, "house.ecg", HOUSE)) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: no perfect matching although")


def test_solve_non_perfect_backend_matching_exit_code(tmp_path, capsys, monkeypatch):
    # an asymmetric mate with no single vertex in it
    rotated = lambda n, adj: [(v + 1) % n for v in range(n)]
    monkeypatch.setattr("ecpostman.matching.max_weight_perfect_matching", rotated)
    assert run_cli("solve", write(tmp_path, "house.ecg", HOUSE)) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: matching backend returned a non-perfect matching\n"


def test_solve_quiet(tmp_path, capsys):
    path = write(tmp_path, "tri.ecg", TRIANGLE)
    assert run_cli("solve", path, "--quiet") == EXIT_OK
    assert capsys.readouterr().out == ""


def test_solve_dump_aux_sidecar(tmp_path, capsys):
    path = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("solve", path, "--dump-aux") == EXIT_OK
    capsys.readouterr()
    side = path + ".aux"
    assert os.path.exists(side)
    assert open(side).read().startswith("aux-graph vertices ")
    explicit = str(tmp_path / "h.txt")
    assert run_cli("solve", path, "--dump-aux", explicit) == EXIT_OK
    assert os.path.exists(explicit)
    # an Eulerian input is answered by its own trail and builds no model
    tri = write(tmp_path, "tri.ecg", TRIANGLE)
    assert run_cli("solve", tri, "--dump-aux") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("status optimal")
    assert "no auxiliary graph" in captured.err
    assert not os.path.exists(tri + ".aux")


def test_solve_dump_aux_builds_no_second_model(tmp_path, monkeypatch):
    calls = []  # one per Dijkstra run
    labels = ShortestWalkFinder.labels

    def counted(self, u, c1):
        calls.append((u, c1))
        return labels(self, u, c1)

    monkeypatch.setattr(ShortestWalkFinder, "labels", counted)
    path = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("solve", path, "--quiet") == EXIT_OK
    plain = len(calls)
    assert plain > 0
    assert run_cli("solve", path, "--quiet", "--dump-aux") == EXIT_OK
    assert len(calls) == 2 * plain
    assert open(path + ".aux").read() == dump_matching_graph(
        build_matching_graph(parse_instance_text(HOUSE))
    )


def test_solve_dump_aux_speaks_the_input_vertex_ids(tmp_path):
    path = write(tmp_path, "par.ecg", PARALLEL_EVEN_K)
    assert run_cli("solve", path, "--quiet", "--dump-aux") == EXIT_OK
    dump = open(path + ".aux").read()
    g = parse_instance_text(PARALLEL_EVEN_K)
    sol, model = solve_with_model(g)
    assert sol.optimal and model is not None
    assert dump == dump_matching_graph(model)
    owners = [int(line.split()[3]) for line in dump.splitlines() if line.startswith("vertex ")]
    assert owners and all(0 <= owner < g.n for owner in owners)


def test_solve_dump_aux_into_a_missing_directory(tmp_path, capsys):
    path = write(tmp_path, "house.ecg", HOUSE)
    target = str(tmp_path / "no" / "such" / "dir.aux")
    assert run_cli("solve", path, "--dump-aux", target) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"{target}:0: cannot write file: No such file or directory\n"
    assert captured.out == ""


def test_solve_dump_aux_onto_a_directory(tmp_path, capsys):
    path = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("solve", path, "--dump-aux", str(tmp_path)) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"{tmp_path}:0: cannot write file: Is a directory\n"
    assert captured.out == ""


def test_solve_dump_aux_on_unbuildable_instance(tmp_path, capsys):
    # the document and exit code must survive even when there is no
    # auxiliary graph to dump
    path = write(tmp_path, "bad.ecg", SINGLE_COLOR)
    assert run_cli("solve", path, "--dump-aux") == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out.startswith("status infeasible")
    assert "no auxiliary graph" in captured.err
    assert not os.path.exists(path + ".aux")


@pytest.mark.parametrize("argv", [["solve"], ["check"], ["oracle"], ["verify", "-"]])
def test_instance_that_is_not_utf8_is_a_read_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.ecg"
    path.write_bytes(TRIANGLE.encode() + b"# \xff\n")
    command, *rest = argv
    assert run_cli(command, str(path), *rest) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:0: cannot read file: not UTF-8 text\n"


@pytest.mark.parametrize(
    "name,why",
    [
        ("missing.tour", "No such file or directory"),
        (".", "Is a directory"),
        ("bytes.tour", "not UTF-8 text"),
    ],
    ids=["missing", "directory", "bytes"],
)
def test_verify_unreadable_tour_is_a_read_error(tmp_path, capsys, name, why):
    inst = write(tmp_path, "tri.ecg", TRIANGLE)
    tour = tmp_path / name
    if name == "bytes.tour":
        tour.write_bytes(b"1 1 2 2 3 3 1 \xff\n")
    assert run_cli("verify", inst, str(tour)) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{tour}:0: cannot read file: {why}\n"


def test_verify_rejects_tourless_document(tmp_path, capsys):
    inst = write(tmp_path, "bad.ecg", SINGLE_COLOR)
    assert run_cli("solve", inst) == EXIT_INFEASIBLE
    doc = capsys.readouterr().out
    tour = write(tmp_path, "no.tour", doc)
    tri = write(tmp_path, "tri.ecg", TRIANGLE)
    assert run_cli("verify", tri, tour) == EXIT_ERROR
    assert "no tour line" in capsys.readouterr().err


def test_check_house_not_euler_but_solvable(tmp_path, capsys):
    path = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("check", path) == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "vertex 2 degree 3 even no balanced yes" in out
    assert "connected yes" in out
    assert out.rstrip().endswith("pc-euler no")


def test_check_triangle_euler(tmp_path, capsys):
    path = write(tmp_path, "tri.ecg", TRIANGLE)
    assert run_cli("check", path) == EXIT_OK
    assert "pc-euler yes" in capsys.readouterr().out


def test_check_disconnected(tmp_path, capsys):
    text = "ecg 4 3 2\n1 2 1 1\n3 4 2 1\n"
    path = write(tmp_path, "disc.ecg", text)
    assert run_cli("check", path) == EXIT_INFEASIBLE
    assert "connected no" in capsys.readouterr().out


def test_verify_round_trip(tmp_path, capsys):
    inst = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("solve", inst) == EXIT_OK
    doc = capsys.readouterr().out
    tour = write(tmp_path, "house.tour", doc)
    assert run_cli("verify", inst, tour) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict pass" in out and "weight 11" in out


@pytest.mark.parametrize("token", ["e1:3", "e1:x"])
def test_verify_rejects_wrong_edge_color(tmp_path, capsys, token):
    # edge 1 of the house has color 1
    inst = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("solve", inst) == EXIT_OK
    doc = capsys.readouterr().out
    assert "e1:1 " in doc
    tour = write(tmp_path, "house.tour", doc.replace("e1:1 ", token + " ", 1))
    assert run_cli("verify", inst, tour) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(token) in captured.err


def test_verify_error_names_the_tour_line(tmp_path, capsys):
    inst = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("solve", inst) == EXIT_OK
    doc = capsys.readouterr().out
    assert doc.splitlines()[9].startswith("tour ")
    tour = write(tmp_path, "bad.tour", doc.replace("e1:1 ", "e1:3 ", 1))
    assert run_cli("verify", inst, tour) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(tour + ":10: edge token 'e1:3'")


def test_verify_error_names_the_token_line(tmp_path, capsys):
    inst = write(tmp_path, "tri.ecg", TRIANGLE)
    tour = write(tmp_path, "tri.tour", "# comment\n1 1\n2 2\n3 e9\n1\n")
    assert run_cli("verify", inst, tour) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(tour + ":4: edge 9 out of range")
    short = write(tmp_path, "short.tour", "1 1\n\n2 2\n")
    assert run_cli("verify", inst, short) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(short + ":3: tour must alternate")


def test_verify_bare_token_tour(tmp_path, capsys):
    inst = write(tmp_path, "tri.ecg", TRIANGLE)
    tour = write(tmp_path, "tri.tour", "1 1 2 2 3 3 1\n")
    assert run_cli("verify", inst, tour) == EXIT_OK
    assert "weight 3" in capsys.readouterr().out


def test_verify_rejects_uncovering_tour(tmp_path, capsys):
    inst = write(tmp_path, "sq.ecg", "ecg 4 2 5\n1 2 1 1\n2 3 2 1\n3 4 1 1\n4 1 2 1\n1 3 1 9\n")
    tour = write(tmp_path, "sq.tour", "1 1 2 2 3 3 4 4 1\n")
    assert run_cli("verify", inst, tour) == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "verdict fail" in out and "traversed" in out


def test_verify_rejects_improper_tour(tmp_path, capsys):
    inst = write(tmp_path, "p.ecg", "ecg 2 2 2\n1 2 1 1\n1 2 1 1\n")
    tour = write(tmp_path, "p.tour", "1 1 2 2 1\n")
    assert run_cli("verify", inst, tour) == EXIT_INFEASIBLE
    assert "color" in capsys.readouterr().out


def test_verify_malformed_tour(tmp_path, capsys):
    inst = write(tmp_path, "tri.ecg", TRIANGLE)
    tour = write(tmp_path, "bad.tour", "1 1\n")
    assert run_cli("verify", inst, tour) == EXIT_ERROR
    assert "tour" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    inst = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("oracle", inst, "--bound", "3") == EXIT_OK
    out = capsys.readouterr().out
    assert "total_weight 11" in out
    bad = write(tmp_path, "bad.ecg", SINGLE_COLOR)
    assert run_cli("oracle", bad) == EXIT_INFEASIBLE
    assert "status infeasible" in capsys.readouterr().out


def test_gen_round_trip(tmp_path, capsys):
    assert run_cli("gen", "4", "3", "6", "3", "11") == EXIT_OK
    text = capsys.readouterr().out
    g = parse_instance_text(text)
    assert g.n == 4 and len(g.edges) == 6
    assert run_cli("gen", "4", "3", "6", "3", "11") == EXIT_OK
    assert capsys.readouterr().out == text


def test_gen_impossible_parameters(capsys):
    assert run_cli("gen", "1", "1", "1", "1", "0") == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_gen_impossible_parameters_message(capsys):
    assert run_cli("gen", "1", "1", "1", "1", "0") == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: impossible generator parameters\n"
    assert captured.out == ""


def test_oracle_rejects_a_zero_bound(tmp_path, capsys):
    inst = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("oracle", inst, "--bound", "0") == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: multiplicity bound must be >= 1\n"
    assert captured.out == ""


def test_format_result_consistency():
    g = parse_instance_text(HOUSE)
    sol = solve(g)
    doc = format_result(g, sol)
    walk = parse_tour_text(doc, g)
    assert walk.weight == sol.total_weight
    assert doc.endswith("\n") and "\r" not in doc


def child_pythonpath():
    """PYTHONPATH under which a child imports the package this test imported."""
    src = str(Path(ecpostman.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


def test_byte_identical_across_processes(tmp_path):
    inst = write(tmp_path, "house.ecg", HOUSE)
    outputs = []
    path = child_pythonpath()
    for hashseed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "ecpostman.cli", "solve", inst],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == EXIT_OK
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_solving_imports_neither_networkx_nor_the_oracle(tmp_path):
    # also neither dataclasses nor inspect, which cost a launch about 15 ms;
    # counted against a bare interpreter, whose site may import modules itself
    inst = write(tmp_path, "house.ecg", HOUSE)
    modules = "print(*sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=child_pythonpath())
    bare = subprocess.run(
        [sys.executable, "-c", f"import sys; {modules}"], capture_output=True, text=True, env=env
    )
    code = (
        "import sys; from ecpostman.cli import main; rc = main(['solve', sys.argv[1]]); "
        f"{modules}; sys.exit(rc)"
    )
    proc = subprocess.run([sys.executable, "-c", code, inst], capture_output=True, text=True, env=env)
    assert bare.returncode == EXIT_OK
    assert proc.returncode == EXIT_OK
    assert "total_weight 11" in proc.stdout
    imported = set(proc.stderr.split()) - set(bare.stderr.split())
    assert {"ecpostman.cli", "ecpostman.blossom"} <= imported
    assert not imported & {"networkx", "ecpostman.oracle", "dataclasses", "inspect"}
