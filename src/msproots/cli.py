"""Command-line interface: evaluate, expand, count, verify, conjecture.

Results go to standard output (JSON by default); diagnostics go to
standard error only. Exit codes: 0 success, 1 mathematical failure
(a verify suite with failures, or a hard integrality/theorem assertion),
2 usage or parse error, 3 budget exhaustion.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import verify as checks
from .cyclotomic import IntegralityViolation
from .groupdet import count_terms, orbit_expand
from .msp import (
    BudgetExceeded,
    EvalInstance,
    closed_form_value,
    msp_value_dp,
    msp_value_naive,
)
from .partitions import canonical_residues, format_partition, parse_partition, residues_merge_free

BUDGET_ENV = "MSPROOTS_BUDGET"

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SUITES = ("thm11", "thm12", "thm32", "lemma24", "prop21", "branching", "all")
EXPAND_CHUNK_ROWS = 1024


def _budget(args):
    if args.budget is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        return _positive(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{BUDGET_ENV} {exc}") from None


def _positive(text):
    """argparse type for counts and budgets: a positive integer."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "tsv":
        print("\t".join(str(v) for v in payload.values()))
    else:
        print(" ".join(f"{k}={v}" for k, v in payload.items()))


def _cmd_eval(args) -> int:
    n, k = args.n, args.k
    parts = parse_partition(args.lam)
    if len(parts) != k * n:
        raise ValueError(f"lambda needs {k * n} parts for n={n}, k={k}, got {len(parts)}")
    canon = canonical_residues(parts, n)
    if canon != parts and residues_merge_free(parts, n):
        print(f"note: parts canonicalized to residues 1..{n}: {format_partition(canon)}",
              file=sys.stderr)
        parts = canon
    inst = EvalInstance(parts, n, k)
    budget = _budget(args)
    method = args.method
    closed = closed_form_value(inst) if method in ("auto", "closed") else None
    if closed is not None:
        value, used = closed[0], "closed"
    elif method == "closed":
        raise ValueError("no closed form matches this partition; use --method dp")
    elif method == "naive":
        value, used = msp_value_naive(inst), "naive"
    else:
        value, used = msp_value_dp(inst, budget), "dp"
    _emit({"n": n, "k": k, "lambda": format_partition(parts), "value": value,
           "method_used": used}, args.format)
    return EXIT_OK


def _cmd_expand(args) -> int:
    records = orbit_expand(args.n, args.k, _budget(args)).iter_records()
    # one write per EXPAND_CHUNK_ROWS rows, so no copy of the whole output is held beside the map
    chunks = iter(lambda: list(islice(records, EXPAND_CHUNK_ROWS)), [])
    write = sys.stdout.write
    if args.format == "json":  # the bytes of json.dumps over the whole list, then a newline
        write("[")
        sep = ""
        for chunk in chunks:
            write(sep + json.dumps([{"lambda": text, "coefficient": c} for text, c in chunk])[1:-1])
            sep = ", "
        write("]\n")
    else:
        sep = "\t" if args.format == "tsv" else " "
        for chunk in chunks:
            write("".join([f"{text}{sep}{c}\n" for text, c in chunk]))
    return EXIT_OK


def _cmd_count(args) -> int:
    tc = count_terms(args.n, args.k, _budget(args))
    _emit({"n": args.n, "k": args.k, "nu": tc.nu, "lambda_tilde": tc.lambda_tilde,
           "equal": tc.equal}, args.format)
    return EXIT_OK


def _run_suite(name, args):
    budget = _budget(args)
    if name == "lemma24":
        if args.lam:
            return checks.check_lemma_2_4(args.n, parse_partition(args.lam))
        return checks.check_lemma_2_4_sweep(args.n)
    if name == "branching":
        return checks.check_branching(args.n, args.k, args.l, budget=budget)
    # looked up at each call, so a patched suite is the one that runs
    suite = {"thm11": checks.check_thm11, "thm12": checks.check_thm12, "thm32": checks.check_thm32,
             "prop21": checks.check_prop_2_1}[name]
    return suite(args.n, args.k, budget=budget)


def _print_reports(reports, fmt, single):
    if fmt == "json":
        dicts = [r.to_dict() for r in reports]
        print(json.dumps(dicts[0] if single else dicts))
        return
    for rep in reports:
        if fmt == "tsv":
            print(f"{rep.suite}\t{rep.n}\t{rep.k}\t{rep.instances_checked}\t{len(rep.failures)}")
        else:
            state = "SKIP" if rep.skipped else "PASS" if rep.passed else "FAIL"
            print(f"{rep.suite} n={rep.n} k={rep.k}: {rep.instances_checked} instances, "
                  f"{len(rep.failures)} failures [{state}]")
            for f in rep.failures:
                print(f"  {f.instance}: expected {f.expected}, got {f.actual}")


def _cmd_verify(args) -> int:
    single = args.suite != "all"
    names = [args.suite] if single else [name for name in SUITES if name != "all"]
    reports = []
    for name in names:
        try:
            reports.append(_run_suite(name, args))
        except BudgetExceeded as exc:
            if single:
                raise
            print(f"note: skipping {name}: {exc}", file=sys.stderr)
    _print_reports(reports, args.format, single)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_MATH


def _cmd_conjecture(args) -> int:
    rep = checks.explore_conjecture(args.n, args.k, budget=_budget(args))
    if args.format == "json":
        print(json.dumps(rep.to_dict()))
    elif args.format == "tsv":
        print(f"{rep.n}\t{rep.k}\t{rep.total}\t{len(rep.zero_coefficients)}\t"
              f"{rep.is_prime_power}\t{rep.consistent_with_conjecture}")
        for lam in rep.zero_coefficients:
            print(format_partition(lam))
    else:
        zeros = len(rep.zero_coefficients)
        print(f"n={rep.n} k={rep.k}: {rep.total} partitions examined, {zeros} zero coefficients, "
              f"prime_power={rep.is_prime_power}, consistent={rep.consistent_with_conjecture}")
        for lam in rep.zero_coefficients:
            print(f"  zero at {format_partition(lam)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msproots",
        description="Exact values of monomial symmetric polynomials at roots of unity, "
                    "cyclic determinant expansion, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=_positive, required=True, help="order of the root of unity")
        p.add_argument("--k", type=_positive, default=1, help="power / multiplicity (default 1)")
        p.add_argument("--format", choices=("json", "tsv", "plain"), default="json")
        p.add_argument("--budget", type=_positive, default=None,
                       help="most count vectors or map keys one computation may hold, checked "
                            "before it allocates; it does not lift the fixed sweep caps "
                            f"(also via ${BUDGET_ENV})")

    p = sub.add_parser("eval", help="evaluate one partition")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated parts, any order; write a negative first part as "
                        "--lambda=-1,1,3")
    p.add_argument("--method", choices=("dp", "naive", "closed", "auto"), default="auto")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("expand", help="expand the k-th determinant power")
    common(p)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("count", help="count surviving terms of the expansion")
    common(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--l", type=_positive, default=1, help="second power for the branching suite")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="partition for the lemma24 suite (default: seeded random sweep); write a "
                        "negative first part as --lambda=-1,1,3")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("conjecture", help="classify coefficients of one (n, k)")
    common(p)
    p.set_defaults(handler=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (IntegralityViolation, checks.TheoremViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does: not a failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # keeps the exit flush quiet
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    run()
