"""The densek command line tool.

Subcommands: solve (run the approximation suite), oracle (exact optimum on
small instances), gen (write instance families to disk), bench (run the
whole suite over a corpus directory into CSV).

Exit codes, one per error class:
  0 success          2 usage (argparse)   3 malformed instance file
  4 invalid value    5 weighted/unweighted mismatch
  6 oracle size guard exceeded             7 file system error
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .algorithms import (
    ALGORITHMS,
    AlgorithmMismatchError,
    densest_solution,
    run_named_algorithm,
    suite_names,
)
from .generators import GapInstance, example1a, example1b, gnp, load_sidecar, planted
from .graph import EdgeListError, Graph, _integers, load_edge_list
from .oracle import OracleLimitError, brute_k, check_brute_k

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALUE = 4
EXIT_MISMATCH = 5
EXIT_ORACLE = 6
EXIT_IO = 7


def _decimal(value: Fraction) -> float | None:
    # The value as a float, or None when it is too large for one; the
    # numerator and denominator beside it hold it exactly.
    try:
        return float(value)
    except OverflowError:
        return None


def _density_json(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": _decimal(value),
    }


def _entry(solution, elapsed_ms: float) -> dict:
    return {
        "algorithm": solution.algorithm,
        "k": solution.k,
        "vertices": list(solution.vertices),
        "density": _density_json(solution.density),
        "elapsed_ms": elapsed_ms,
    }


def _timed_run(g: Graph, k: int, name: str):
    """The Solution of one named algorithm and its time in milliseconds."""
    start = time.perf_counter()
    solution = run_named_algorithm(g, k, name)
    return solution, round((time.perf_counter() - start) * 1000.0, 3)


def _emit(text: str, out: str | None) -> None:
    # The one writer of reports and status lines. A file is UTF-8 on every
    # locale; the bytes of a file name that is not UTF-8, which reach a report
    # as surrogates, are written back as they were, to a file or to a stdout
    # whose encoding refuses them.
    text = text if text.endswith("\n") else text + "\n"
    if out is not None:
        Path(out).write_text(text, encoding="utf-8", errors="surrogateescape")
        return
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:
        sys.stdout.flush()
        sys.stdout.buffer.write(os.fsencode(text))


def _csv(columns: list[str], rows: list[dict]) -> str:
    # A row names its fields; a column it leaves out is written empty.
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _solution_row(sol, g: Graph, elapsed_ms: float) -> dict:
    # A solution's fields in both solve's CSV and bench's.
    dens = sol.density
    return {"algorithm": sol.algorithm, "k": sol.k, "n": g.n, "m": g.m,
            "density_num": dens.numerator, "density_den": dens.denominator,
            "density": _decimal(dens), "elapsed_ms": elapsed_ms}


def _instance(path, g: Graph) -> dict:
    return {"path": path, "n": g.n, "m": g.m, "weighted": g.weighted}


def _connectable(n: int, m: int) -> None:
    # solve's and bench's header rule: every solver needs a connected graph,
    # and none fits n > m + 1, so a huge n is refused before it is allocated.
    if n > m + 1:
        raise ValueError(f"header declares n={n} vertices and m={m} edges; "
                         f"a connected graph needs n <= m + 1")


def cmd_solve(args) -> int:
    def check(n: int, m: int) -> None:
        if args.oracle:
            check_brute_k(n, args.k, args.oracle_limit)
        _connectable(n, m)

    g = load_edge_list(args.input, check)
    names = suite_names(g) if args.algo == "auto" else [args.algo]
    runs = [_timed_run(g, args.k, name) for name in names]
    solutions = [sol for sol, _ in runs]
    best = densest_solution(solutions)
    entries = [_entry(sol, elapsed_ms) for sol, elapsed_ms in runs]
    report = {
        "instance": _instance(args.input, g),
        "k": args.k,
        "algo": args.algo,
        "entries": entries,
        "best": entries[solutions.index(best)],
    }
    if args.oracle:
        exact = brute_k(g, args.k, connected=True, limit=args.oracle_limit)
        report["oracle"] = {
            "vertices": list(exact.best_set),
            "density": _density_json(exact.best_density),
            "connected": True,
        }
        report["ratio"] = (_density_json(exact.best_density / best.density)
                           if best.density > 0 else None)
    if args.format == "csv":
        _emit(_csv("algorithm k n m density_num density_den density elapsed_ms "
                   "vertices".split(),
                   [{**_solution_row(sol, g, ms), "vertices": " ".join(map(str, sol.vertices))}
                    for sol, ms in runs]), args.out)
    else:
        _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = load_edge_list(args.input,
                       lambda n, m: check_brute_k(n, args.k, args.oracle_limit))
    exact = brute_k(g, args.k, connected=args.connected, limit=args.oracle_limit)
    report = {
        "instance": _instance(args.input, g),
        "k": args.k,
        "connected": args.connected,
        "vertices": list(exact.best_set),
        "density": _density_json(exact.best_density),
    }
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK


def _gnp_instance(a) -> GapInstance:
    g = gnp(a.n, a.p, a.seed)
    params = {"requested_n": a.n, "p": a.p, "seed": a.seed, "truncated": g.n != a.n}
    return GapInstance(graph=g, k=None, known_opt_density=None,
                       known_connected_density=None, family="GNP", params=params)


# Every family gen writes: family -> (the options it takes, builder of its
# GapInstance from the parsed arguments). Each option is required but
# --seed, which is 0 when not given; any other option is refused.
_FAMILIES = {
    "example1a": (["ell"], lambda a: example1a(a.ell)),
    "example1b": (["ell"], lambda a: example1b(a.ell)),
    "gnp": (["n", "p", "seed"], _gnp_instance),
    "planted": (["n", "k", "p-in", "p-out", "seed"],
                lambda a: planted(a.n, a.k, a.p_in, a.p_out, a.seed)),
}


def cmd_gen(args) -> int:
    takes, build = _FAMILIES[args.family]
    given = {name for options, _ in _FAMILIES.values() for name in options
             if getattr(args, name.replace("-", "_")) is not None}
    missing = [name for name in takes if name not in given and name != "seed"]
    for names, fault in ((missing, "needs"), (sorted(given.difference(takes)), "takes no")):
        if names:
            raise ValueError(f"family {args.family} {fault} "
                             + ", ".join("--" + name for name in names))
    if args.seed is None:
        args.seed = 0
    instance = build(args)
    out = Path(args.out)
    sidecar = instance.save(out)
    g = instance.graph
    _emit(f"wrote {out} (n={g.n}, m={g.m}) with sidecar {sidecar}", None)
    return EXIT_OK


def _parse_ks(text: str) -> list[int]:
    # bench's --k as a nonempty list of integers.
    parts = [part for part in text.split(",") if part]
    if not parts:
        raise ValueError(f"--k {text!r} names no k value")
    try:
        return _integers(text, parts)
    except ValueError:
        raise ValueError(f"--k {text!r} is not a comma-separated list of integers") from None


def cmd_bench(args) -> int:
    # --k holds for every file, so a malformed list fails the whole run,
    # before any file is read.
    given_ks = None if args.k is None else _parse_ks(args.k)
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {corpus}")
    files = sorted(corpus.glob("*.edges"))
    if not files:
        raise ValueError(f"corpus {corpus} holds no *.edges instances")
    rows = []
    for path in files:
        family = ""
        # A file that fails to load (an instance or sidecar that is unreadable
        # or of the wrong shape, a malformed file, n > m + 1 or no k) fails
        # its own row only, as a failed solve does below.
        try:
            family, sidecar_k, known_opt = load_sidecar(path) or ("", None, None)
            g = load_edge_list(path, _connectable)
            if given_ks is None and sidecar_k is None:
                raise ValueError(
                    "no k for instance: pass --k or generate instances with a sidecar k"
                )
            ks = [sidecar_k] if given_ks is None else given_ks
        except (ValueError, OSError) as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            rows.append({"instance": path.name, "family": family, "status": str(exc)})
            continue
        # Every algorithm that accepts the graph: all five on unweighted input.
        names = [name for name, (weighted, _) in ALGORITHMS.items()
                 if weighted or not g.weighted]
        for k in ks:
            for name in names:
                # A failed solve (k > n, say) fails its own row only, tagged
                # as its solution would be.
                try:
                    sol, elapsed_ms = _timed_run(g, k, name)
                except ValueError as exc:
                    rows.append({"instance": path.name, "family": family,
                                 "algorithm": name.upper(), "k": k, "n": g.n, "m": g.m,
                                 "status": str(exc)})
                    continue
                # the sidecar's optimum holds at the sidecar's own k alone
                ratio = None
                if known_opt is not None and k == sidecar_k and sol.density > 0:
                    ratio = _decimal(known_opt / sol.density)
                rows.append({"instance": path.name, "family": family,
                             **_solution_row(sol, g, elapsed_ms),
                             "ratio_vs_known": ratio, "status": "ok"})
    _emit(_csv("instance family algorithm k n m density_num density_den density "
               "ratio_vs_known elapsed_ms status".split(), rows), args.out)
    _emit(f"wrote {len(rows)} rows to {args.out}", None)
    failed = sum(row["status"] != "ok" for row in rows)
    if failed:
        print(f"error: {failed} of {len(rows)} solves failed; see the status column",
              file=sys.stderr)
        return EXIT_VALUE
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    def integer(text: str) -> int:
        # An integer option in the file format's one syntax; argparse names
        # this function in its refusal, "invalid integer value", exit 2.
        return _integers(text, [text])[0]

    def probability(text: str) -> float:
        # A probability option: float()'s syntax in ASCII, without the digit
        # separator "_" that float() also reads; argparse names this function
        # in its refusal, "invalid probability value", exit 2.
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return float(text)

    parser = argparse.ArgumentParser(
        prog="densek",
        description="Find connected k-vertex subgraphs of high density.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the approximation suite")
    solve.add_argument("--input", required=True, help="edge-list instance file")
    solve.add_argument("--k", type=integer, required=True, help="subgraph size, 3..n")
    solve.add_argument(
        "--algo",
        choices=("auto",) + tuple(ALGORITHMS),
        default="auto",
        help="one algorithm, or auto: wgreedy alone on a weighted file, every "
        "unweighted-only algorithm otherwise",
    )
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.add_argument(
        "--oracle",
        action="store_true",
        help="also compute the exact optimum and the achieved ratio",
    )
    solve.add_argument("--oracle-limit", type=integer, default=None)
    solve.add_argument("--out", default=None, help="write report here, not stdout")

    oracle = sub.add_parser("oracle", help="exact optimum by enumeration")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--k", type=integer, required=True)
    oracle.add_argument(
        "--connected",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="require the optimum to be connected (default yes)",
    )
    oracle.add_argument("--oracle-limit", type=integer, default=None)
    oracle.add_argument("--out", default=None)

    gen = sub.add_parser("gen", help="write an instance file plus JSON sidecar")
    gen.add_argument("family", choices=tuple(_FAMILIES))
    gen.add_argument("--ell", type=integer, default=None, help="family scale, >= 2")
    gen.add_argument("--n", type=integer, default=None)
    gen.add_argument("--p", type=probability, default=None)
    gen.add_argument("--k", type=integer, default=None)
    gen.add_argument("--p-in", type=probability, default=None, dest="p_in")
    gen.add_argument("--p-out", type=probability, default=None, dest="p_out")
    gen.add_argument("--seed", type=integer, default=None)
    gen.add_argument("--out", required=True)

    bench = sub.add_parser(
        "bench",
        help="run every algorithm that accepts each instance (wgreedy alone "
        "on weighted files) over a corpus into CSV",
    )
    bench.add_argument("--corpus", required=True, help="directory of *.edges files")
    bench.add_argument(
        "--k", default=None, help="comma-separated k values; default sidecar k"
    )
    bench.add_argument("--out", required=True, help="CSV output path")
    return parser


# Error class -> exit code; the first class that matches wins.
_EXIT_CODES = (
    (EdgeListError, EXIT_PARSE),
    (AlgorithmMismatchError, EXIT_MISMATCH),
    (OracleLimitError, EXIT_ORACLE),
    (ValueError, EXIT_VALUE),
    (OSError, EXIT_IO),
)


def main(argv: list[str] | None = None) -> int:
    """Run one densek command line and return its exit code.

    main may be called any number of times in one process, as the
    benchmark's in-process solves do. The parser is built on the first call
    and shared by the rest; it holds no command function, so each call
    runs the cmd_<command> that this module holds at that moment.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.oracle_limit is not None and not args.oracle:
        parser.error("solve: --oracle-limit needs --oracle")
    if args.command == "solve" and args.oracle and args.format != "json":
        parser.error("solve: --oracle needs --format json")
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
