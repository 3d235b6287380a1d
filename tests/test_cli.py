"""CLI: parsing, exit codes, result documents, round trips, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecpostman
from ecpostman import InvariantError
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
from ecpostman.graph import normalize
from ecpostman.pcwalks import ShortestWalkFinder
from ecpostman.solver import solve

TRIANGLE = "ecg 3 3 3\n1 2 1 1\n2 3 2 1\n3 1 3 1\n"
HOUSE = "ecg 4 3 5\n1 2 1 1\n2 3 2 5\n3 1 3 1\n2 4 3 1\n4 3 1 1\n"
SINGLE_COLOR = "ecg 3 1 2\n1 2 1 1\n2 3 1 1\n"
# the triangle plus a pendant trap; edge 1-4 lies on no properly colored closed walk
TRAPPED = TRIANGLE.replace("ecg 3 3 3", "ecg 6 3 7") + "1 4 1 1\n4 5 1 1\n5 6 2 1\n6 4 3 1\n"


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
    ],
)
def test_parse_errors_have_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text, "inst.ecg")
    assert "inst.ecg:" in str(err.value)
    assert fragment in str(err.value)


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


def test_solve_blossom_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("ecpostman.solver.min_weight_perfect_matching", lambda inst: None)
    assert run_cli("solve", write(tmp_path, "house.ecg", HOUSE)) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: no perfect matching although")


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
    calls = []
    table = ShortestWalkFinder.table

    def counted(self, u, c1):
        calls.append((u, c1))
        return table(self, u, c1)

    monkeypatch.setattr(ShortestWalkFinder, "table", counted)
    path = write(tmp_path, "house.ecg", HOUSE)
    assert run_cli("solve", path, "--quiet") == EXIT_OK
    plain = len(calls)
    assert plain > 0
    assert run_cli("solve", path, "--quiet", "--dump-aux") == EXIT_OK
    assert len(calls) == 2 * plain
    g_norm, _ = normalize(parse_instance_text(HOUSE))
    assert open(path + ".aux").read() == dump_matching_graph(build_matching_graph(g_norm))


def test_solve_dump_aux_on_unbuildable_instance(tmp_path, capsys):
    # the document and exit code must survive even when there is no
    # auxiliary graph to dump
    path = write(tmp_path, "bad.ecg", SINGLE_COLOR)
    assert run_cli("solve", path, "--dump-aux") == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out.startswith("status infeasible")
    assert "no auxiliary graph" in captured.err
    assert not os.path.exists(path + ".aux")


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


def test_solving_does_not_import_networkx(tmp_path):
    inst = write(tmp_path, "house.ecg", HOUSE)
    code = (
        "import sys; from ecpostman.cli import main; rc = main(['solve', sys.argv[1]]); "
        "print('networkx' in sys.modules, file=sys.stderr); sys.exit(rc)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, inst],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=child_pythonpath()),
    )
    assert proc.returncode == EXIT_OK
    assert "total_weight 11" in proc.stdout
    assert proc.stderr == "False\n"
