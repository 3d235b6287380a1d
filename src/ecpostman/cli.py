"""Command-line front end: solve, check, verify, oracle, gen.

Instance file format (integer weights; '#' starts a comment line):

    ecg <n> <k> <m>
    <u> <v> <color> <weight>     (m lines, 1-based ids)

Results are line-oriented key-value documents with a stable field
order and LF line endings; diagnostics go to stderr. Exit codes:
0 success, 2 infeasible / failed verification, 1 usage or parse or
internal errors.
"""

from __future__ import annotations

import argparse
import sys

from .auxgraph import dump_matching_graph
from .euler import check_pc_euler, verify_pc_closed_walk
from .graph import (
    ColoredMultigraph,
    Edge,
    GraphError,
    InvariantError,
    PCWalk,
    _new_tuple,
)
from .solver import Solution, solve_with_model

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class ParseError(ValueError):
    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")


def ascii_ints(fields: list[str]) -> list[int]:
    """``int`` of each field; ValueError unless each is a sign and ASCII digits.

    ``int`` alone also reads digit separators ('1_0' is 10) and non-ASCII
    digits. On ASCII text without '_', and without whitespace, as fields
    split on whitespace are, it reads exactly an optional sign and digits.
    """
    joined = "".join(fields)
    if not joined.isascii() or "_" in joined:
        raise ValueError(f"not all integers: {fields!r}")
    return [int(f) for f in fields]


def parse_instance_text(text: str, path: str = "<input>") -> ColoredMultigraph:
    """Parse an instance file and build its graph; raises ParseError with line numbers.

    Each edge line passes one combined test of the constructor's checks,
    then adds its ``Edge``, incidence entries and color counts at once.
    """
    # on ASCII text without '_', plain int reads every field as ascii_ints
    # would, so the per-line test runs only when this one fails
    plain = text.isascii() and "_" not in text
    lines = enumerate(text.splitlines(), start=1)
    for header_line, raw in lines:
        fields = raw.split()
        if fields and fields[0][0] != "#":
            break
    else:
        raise ParseError(path, 1, "missing header 'ecg <n> <k> <m>'")
    if fields[0] != "ecg" or len(fields) != 4:
        raise ParseError(path, header_line, "expected header 'ecg <n> <k> <m>'")
    try:
        n, k, m = map(int, fields[1:]) if plain else ascii_ints(fields[1:])
    except ValueError:
        raise ParseError(path, header_line, "header fields must be integers") from None
    if n < 2:
        raise ParseError(path, header_line, "need at least two vertices")
    if m < 1:
        raise ParseError(path, header_line, "need at least one edge")
    if k < 1:
        raise ParseError(path, header_line, "need at least one color")
    edges: list[Edge] = []
    incidence: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    counts = [[0] * k for _ in range(n)]
    for line_no, raw in lines:
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        eid = len(edges)
        if eid == m:
            raise ParseError(path, line_no, f"more than {m} edge lines")
        if len(fields) != 4:
            raise ParseError(path, line_no, "expected '<u> <v> <color> <weight>'")
        try:
            u, v, color, weight = map(int, fields) if plain else ascii_ints(fields)
        except ValueError:
            raise ParseError(path, line_no, "edge fields must be integers") from None
        if not (0 < u <= n and 0 < v <= n and u != v and 0 < color <= k and weight >= 0):
            if not (0 < u <= n and 0 < v <= n):
                why = f"vertex ids must be in 1..{n}"
            elif u == v:
                why = "loops are not allowed"
            elif not 0 < color <= k:
                why = f"colors must be in 1..{k}"
            else:
                why = "weights must be non-negative"
            raise ParseError(path, line_no, why)
        u -= 1
        v -= 1
        edges.append(_new_tuple(Edge, (eid, u, v, color, weight)))
        incidence[u].append((eid, v, color, weight))
        incidence[v].append((eid, u, color, weight))
        counts[u][color - 1] += 1
        counts[v][color - 1] += 1
    if len(edges) != m:
        raise ParseError(path, header_line, f"expected {m} edge lines, found {len(edges)}")
    return ColoredMultigraph._of_fields(n, k, tuple(edges), tuple(tuple(lst) for lst in incidence),
                                        tuple(tuple(c) for c in counts))


def read_text(path: str) -> str:
    """The file's UTF-8 text less any byte-order mark; a ParseError at line 0 says why not."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(path, 0, "cannot read file: not UTF-8 text") from None


def load_instance(path: str) -> ColoredMultigraph:
    return parse_instance_text(read_text(path), path)


def format_result(g: ColoredMultigraph, sol: Solution) -> str:
    """Serialize a Solution; stable field order, 1-based ids, LF endings."""
    if not sol.optimal:
        return f"status infeasible\nreason {sol.reason}\n"
    lines = [
        "status optimal",
        f"total_weight {sol.total_weight}",
        f"matching_weight {sol.matching_weight}",
        f"edges {len(g.edges)}",
    ]
    for e, q in zip(g.edges, sol.multiplicities):
        lines.append(f"edge {e.u + 1} {e.v + 1} {e.color} {e.weight} {q}")
    walk = sol.walk
    tokens = [str(walk.vertices[0] + 1)]
    for eid, v in zip(walk.edges, walk.vertices[1:]):
        tokens.append(f"e{eid + 1}:{g.edges[eid].color}")
        tokens.append(str(v + 1))
    lines.append("tour " + " ".join(tokens))
    return "\n".join(lines) + "\n"


def parse_tour_text(text: str, g: ColoredMultigraph, path: str = "<tour>") -> PCWalk:
    """Read a tour as alternating vertex / edge tokens.

    Accepts either a bare token stream or a result document (the line
    starting with 'tour' is used). Edge tokens may be '7', 'e7' or
    'e7:2', where the suffix must be the edge's color; vertices and
    edge ids are 1-based. An error names the line of the offending
    token: the tour line of a document, or the token's own line.
    """
    lines = text.splitlines()
    tokens: list[tuple[str, int]] | None = None  # (token, line number)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("tour "):
            tokens = [(tok, line_no) for tok in line.split()[1:]]
            break
    if tokens is None:
        if text.startswith("status "):
            raise ParseError(path, 1, "result document contains no tour line")
        tokens = [
            (tok, line_no)
            for line_no, raw in enumerate(lines, start=1)
            if not raw.strip().startswith("#")
            for tok in raw.split()
        ]
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        last_line = tokens[-1][1] if tokens else 1
        raise ParseError(path, last_line, "tour must alternate v e v ... v")

    def vertex(tok: str, line_no: int) -> int:
        try:
            val = ascii_ints([tok])[0]
        except ValueError:
            raise ParseError(path, line_no, f"bad vertex token {tok!r}") from None
        if not (1 <= val <= g.n):
            raise ParseError(path, line_no, f"vertex {val} out of range")
        return val - 1

    def edge(tok: str, line_no: int) -> int:
        body, colon, suffix = tok.removeprefix("e").partition(":")
        try:
            val = ascii_ints([body])[0]
            color = ascii_ints([suffix])[0] if colon else None
        except ValueError:
            raise ParseError(path, line_no, f"bad edge token {tok!r}") from None
        if not (1 <= val <= len(g.edges)):
            raise ParseError(path, line_no, f"edge {val} out of range")
        if color is not None and color != g.edges[val - 1].color:
            raise ParseError(
                path,
                line_no,
                f"edge token {tok!r}: edge {val} has color {g.edges[val - 1].color}",
            )
        return val - 1

    verts = [vertex(*tokens[0])]
    eids = []
    for i in range(1, len(tokens), 2):
        eids.append(edge(*tokens[i]))
        verts.append(vertex(*tokens[i + 1]))
    weight = sum(g.edges[eid].weight for eid in eids)
    return PCWalk(
        vertices=tuple(verts),
        edges=tuple(eids),
        first_color=g.edges[eids[0]].color,
        last_color=g.edges[eids[-1]].color,
        weight=weight,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    g = load_instance(args.instance)
    sol, model = solve_with_model(g)
    if args.dump_aux is not None:
        if model is None:
            why = sol.reason or "already Eulerian"
            print(f"note: no auxiliary graph to dump: {why}", file=sys.stderr)
        else:
            path = args.dump_aux or (args.instance + ".aux")
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dump_matching_graph(model))
            except OSError as exc:
                raise ParseError(path, 0, f"cannot write file: {exc.strerror}") from None
    if not args.quiet:
        sys.stdout.write(format_result(g, sol))
    return EXIT_OK if sol.optimal else EXIT_INFEASIBLE


def cmd_check(args: argparse.Namespace) -> int:
    g = load_instance(args.instance)
    yn = lambda b: "yes" if b else "no"
    for u in range(g.n):
        d = len(g.incidence[u])
        balanced = 2 * max(g.color_counts(u), default=0) <= d
        print(f"vertex {u + 1} degree {d} even {yn(d % 2 == 0)} balanced {yn(balanced)}")
    chk = check_pc_euler(g)
    print(f"connected {yn(chk.reason != 'disconnected')}")
    print(f"pc-euler {yn(chk.feasible)}")
    return EXIT_OK if chk.feasible else EXIT_INFEASIBLE


def cmd_verify(args: argparse.Namespace) -> int:
    g = load_instance(args.instance)
    walk = parse_tour_text(read_text(args.tour), g, args.tour)
    report = verify_pc_closed_walk(g, walk)
    if report.ok:
        print("verdict pass")
        print(f"weight {report.weight}")
        return EXIT_OK
    print("verdict fail")
    print(f"failure {report.failure}")
    return EXIT_INFEASIBLE


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import oracle_solve  # reference code: loaded only for this command

    hit = oracle_solve(load_instance(args.instance), bound=args.bound)
    if hit is None:
        print("status infeasible")
        return EXIT_INFEASIBLE
    weight, mults = hit
    print("status optimal")
    print(f"total_weight {weight}")
    print("multiplicity " + " ".join(str(q) for q in mults))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    from .oracle import gen_random_instance

    g = gen_random_instance(args.n, args.k, args.m, args.max_w, args.seed)
    print(f"# random instance n={args.n} k={args.k} m={args.m} max_w={args.max_w} seed={args.seed}")
    print(f"ecg {g.n} {g.k} {len(g.edges)}")
    for e in g.edges:
        print(f"{e.u + 1} {e.v + 1} {e.color} {e.weight}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecpostman",
        description="Exact Chinese Postman solver for edge-colored multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--quiet", action="store_true", help="suppress the result document")
    p_solve.add_argument(
        "--dump-aux",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="write the auxiliary matching graph dump (default: <instance>.aux)",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="report per-vertex trail conditions as-is")
    p_check.add_argument("instance")
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="verify a tour file against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("tour")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force optimum (small instances)")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--bound", type=int, default=3, help="max edge multiplicity (default 3)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="write a random instance to stdout")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("k", type=int)
    p_gen.add_argument("m", type=int)
    p_gen.add_argument("max_w", type=int)
    p_gen.add_argument("seed", type=int)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except AssertionError as exc:  # the blossom keeps its port's inline asserts
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        detail = f": {exc}" if str(exc) else ""
        print(f"internal error: assertion failed in {tb.tb_frame.f_code.co_name},"
              f" line {tb.tb_lineno}{detail}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
