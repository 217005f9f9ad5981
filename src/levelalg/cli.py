"""Command line front end.

Subcommands: hvector, quotient, bound, verify, combinatorics.
Exit codes: 0 success, 1 verification failure, 2 input parse error,
3 usage error.

`main` is the one place that maps an error to its exit code: an
InputError or OSError exits 2, any other ValueError 3, and a
DegenerateSampleError 1. The subcommands raise, and return only 0 or 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from pathlib import Path

from .bounds import (
    CSV_COLUMNS,
    InfeasibleBoundError,
    chained_bound,
    generic_quotient_bound,
    report_csv_row,
    tighten_bound,
    verify_instance,
)
from .combinatorics import (
    alternating_binomial_sum,
    binomial,
    is_o_sequence,
    macaulay_expansion,
    macaulay_growth,
)
from .fields import FieldSpec
from .manifest import parse_manifest, run_manifest
from .modules import DegenerateSampleError, InputError, h_vector, parse_module_file

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for input parse errors
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> _Parser:
    # one per process: each parse_args call fills a fresh Namespace
    parser = _Parser(prog="levelalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hvector", parents=[], help="h-vector of a module file")
    p.add_argument("file", help="module file path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--rational", action="store_true",
                   help="recompute over the rationals, ignoring the file's prime")

    p = sub.add_parser("quotient", help="empirical generic quotient h-vector")
    p.add_argument("file")
    p.add_argument("--type", dest="c", type=int, required=True,
                   help="quotient type c, between 1 and t-1")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--rational", action="store_true")

    p = sub.add_parser("bound", help="lower bound for a generic quotient")
    p.add_argument("--h", required=True, help="comma-separated h-vector")
    p.add_argument("--t", type=int, required=True, help="parent type")
    p.add_argument("--c", type=int, required=True, help="quotient type")
    p.add_argument("--tighten", action="store_true",
                   help="raise the bound to O-sequence feasibility")
    p.add_argument("--chain", help="descending type path like 3,2,1")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a manifest of instances")
    p.add_argument("manifest")
    p.add_argument("--out", help="write the report file here")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rational", action="store_true")

    p = sub.add_parser("combinatorics", help="expansion, growth and identity helpers")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--identities", type=int, metavar="TMAX",
                   help="check the alternating binomial sum identities up to TMAX")
    g.add_argument("--expand", metavar="N,I", help="greedy binomial expansion")
    g.add_argument("--osequence", metavar="SEQ",
                   help="comma-separated sequence to test")
    return parser


def _read_text(path: str) -> str:
    """An input file's text; one that is not UTF-8 raises OSError, naming
    the path, like one that cannot be read: both are input errors."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _load_module(path: str, rational: bool):
    text = _read_text(path)
    override = FieldSpec.rational() if rational else None
    return parse_module_file(text, field_override=override)


def _cmd_hvector(args) -> int:
    m = _load_module(args.file, args.rational)
    h = h_vector(m)
    if args.json:
        print(json.dumps({"h": list(h)}))
    else:
        print(" ".join(map(str, h)))
    return EXIT_OK


def _cmd_quotient(args) -> int:
    m = _load_module(args.file, args.rational)
    rep = verify_instance(m, args.c, trials=args.trials, seed=args.seed)
    per_trial, emp = rep.per_trial, rep.empirical
    agree = all(h == per_trial[0] for h in per_trial)
    if args.json:
        print(json.dumps({
            "h": list(emp),
            "perTrial": [list(h) for h in per_trial],
            "agreement": agree,
            "trials": args.trials,
            "seed": args.seed,
        }))
    else:
        print(" ".join(map(str, emp)))
        n_same = sum(1 for h in per_trial if h == emp)
        print(f"trials: {args.trials}  agreement: {n_same}/{args.trials}")
    return EXIT_OK


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"malformed {what}: {text!r}")


def _cmd_bound(args) -> int:
    h = _parse_int_list(args.h, "--h")
    direct = generic_quotient_bound(h, args.t, args.c)
    out: dict[str, object] = {"direct": direct}
    if args.tighten:
        try:
            out["tightened"] = tighten_bound(h, direct, args.c)
        except InfeasibleBoundError as exc:
            out["tightened"] = f"infeasible ({exc})"
    if args.chain is not None:
        path = _parse_int_list(args.chain, "--chain")
        out["chained"] = chained_bound(h, args.t, path, tighten=args.tighten)
    if args.json:
        print(json.dumps({
            k: (list(v) if isinstance(v, tuple) else v) for k, v in out.items()
        }))
    else:
        for k, v in out.items():
            text = " ".join(map(str, v)) if isinstance(v, tuple) else str(v)
            print(f"{k}: {text}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    text = _read_text(args.manifest)
    field = FieldSpec.rational() if args.rational else FieldSpec.modular()
    summary, reports = run_manifest(parse_manifest(text), field=field, seed=args.seed)
    s = summary
    summary_line = (
        f"instances={s.instances} satisfied={s.satisfied} violated={s.violated} "
        f"tight={s.tight_instances} identities={s.identity_checks_passed}+"
        f"{s.identity_checks_failed}- wall={s.wall_time:.2f}s seed={s.seed}"
    )
    if args.format == "json":
        rendered = json.dumps(
            {"summary": s.to_json_dict(), "reports": [r.to_json_dict() for r in reports]},
            indent=2,
        )
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([CSV_COLUMNS, *map(report_csv_row, reports)])
        rendered = buf.getvalue()
    else:
        lines = [
            f"{r.label} c={r.c}: bound {' '.join(map(str, r.bound))} | "
            f"empirical {' '.join(map(str, r.empirical))} "
            f"[{'ok' if r.satisfied else 'VIOLATED'}]"
            for r in reports
        ] + [
            f"{f.label} u={f.u}: identity {f.identity} FAILED (lhs {f.lhs}, rhs {f.rhs})"
            for f in s.identity_failures
        ]
        rendered = "\n".join([*lines, summary_line]) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.out}\n{summary_line}")
    else:
        print(rendered.removesuffix("\n"))
    return EXIT_VERIFICATION if s.violated or s.identity_checks_failed else EXIT_OK


def _cmd_combinatorics(args) -> int:
    if args.identities is not None:
        tmax = args.identities
        if tmax < 2:
            raise ValueError("TMAX must be at least 2")
        bad = []
        for t in range(2, tmax + 1):
            for j in range(2, t + 1):
                if alternating_binomial_sum(t, j) != (j - 1) * binomial(t, j):
                    bad.append((t, j, 2))
                if alternating_binomial_sum(t, j, start=0) != 0:
                    bad.append((t, j, 0))
        if bad:
            for t, j, start in bad:
                print(f"FAIL t={t} j={j} start={start}")
            return EXIT_VERIFICATION
        print("all pass")
        return EXIT_OK
    if args.expand is not None:
        pair = _parse_int_list(args.expand, "--expand")
        if len(pair) != 2:
            raise ValueError(f"malformed --expand: expected N,I, got {args.expand!r}")
        n, i = pair
        exp = macaulay_expansion(n, i)
        print(f"{exp}; growth {macaulay_growth(n, i)}")
        return EXIT_OK
    h = _parse_int_list(args.osequence, "--osequence")
    verdict = is_o_sequence(h)
    if verdict.ok:
        print("true")
    else:
        d = verdict.first_violation
        if d == 0:
            print("false at d=0 (leading entry)")
        else:
            print(f"false at d={d} ({h[d + 1]} > {macaulay_growth(h[d], d)})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "hvector": _cmd_hvector,
        "quotient": _cmd_quotient,
        "bound": _cmd_bound,
        "verify": _cmd_verify,
        "combinatorics": _cmd_combinatorics,
    }
    try:
        return handlers[args.command](args)
    except (InputError, OSError) as exc:
        print(f"levelalg {args.command}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateSampleError as exc:
        print(f"levelalg {args.command}: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:  # after InputError, which is a ValueError
        print(f"levelalg {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
