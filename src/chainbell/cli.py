"""Command-line front door.

Subcommands: ``box`` (print a single-pair box), ``attack`` (run the
strategy against one function), ``verify`` (exhaustive non-signalling
checks), ``scan`` (CSV sweep over a function family).

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage
error or infeasible size.  Output is a pure function of the command
line: all randomness is seeded through the function spec and echoed,
iteration orders are fixed, and numbers render deterministically
(exact values as p/q, decimals with 15 significant digits).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from fractions import Fraction
from itertools import product

from . import analysis, nonsignalling
from .adversary import _table_size, build_attack_partition, parse_function_spec
from .boxes import (
    MODE_QUANTUM,
    MODE_RATIONAL,
    BoxParams,
    SinglePairBox,
    allowed_pairs,
    bell_value,
    bias_box,
    build_unbiased_box,
)
from .nonsignalling import InfeasibleSizeError
from .systems import build_product_system


def _decimal(value) -> str:
    return format(float(value), ".15g")


def _render(value) -> str:
    """Exact values as p/q, floats as 15-significant-digit decimals."""
    if value is None:
        return ""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return _decimal(value)
    return str(value)


def _jsonify(value):
    """JSON-ready copy: dataclasses as objects in field order, exact values
    as num/den/decimal."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator,
                "decimal": _decimal(value)}
    if dataclasses.is_dataclass(value):
        return {field.name: _jsonify(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    return value


def _parse_eps(text: str) -> Fraction:
    """``--eps`` in (0, 1/2]: a fraction or decimal, in plain ASCII."""
    try:
        if not text.isascii() or "_" in text or text != text.strip():
            raise ValueError
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"eps must be a fraction like 1/8, got {text!r}") from None
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError(f"eps must lie in (0, 1/2], got {text!r}")
    return eps


def _box_params(args) -> BoxParams:
    # A box is the n = 1 joint table, 4 N^2 cells, refused before it is built.
    nonsignalling.refuse_over_cap("joint table", nonsignalling.table_entries(1, args.n_settings))
    if args.mode == MODE_QUANTUM:
        if args.eps is not None:
            raise ValueError("quantum mode fixes eps to sin^2(pi/4N); drop --eps")
        return BoxParams.quantum(args.n_settings)
    eps = _parse_eps(args.eps) if args.eps is not None else Fraction(1, 8)
    return BoxParams.rational(args.n_settings, eps)


def _the_box(params: BoxParams, sigma: str) -> SinglePairBox:
    box = build_unbiased_box(params)
    if sigma != "none":
        box = bias_box(box, int(sigma), params.eps)
    return box


# ---------------------------------------------------------------------------
# box

def _cmd_box(args) -> int:
    params = _box_params(args)
    box = _the_box(params, args.sigma)
    allowed = allowed_pairs(params.n_settings)
    bell = bell_value(box)
    squares = []
    for a, b in product(range(params.n_settings), repeat=2):
        u, v = 2 * a, 2 * b + 1
        squares.append({"u": u, "v": v, "allowed": (u, v) in allowed,
                        "cells": [[box.prob(a, b, x, y) for x in (0, 1)] for y in (0, 1)]})

    if args.format == "json":
        doc = {
            "n_settings": params.n_settings,
            "eps": params.eps,
            "mode": params.mode,
            "sigma": args.sigma,
            "bell_value": bell,
            "squares": squares,
        }
        print(json.dumps(_jsonify(doc), indent=2))
        return 0

    print(f"box: N={params.n_settings} eps={_render(params.eps)} "
          f"mode={params.mode} sigma={args.sigma}")
    print(f"bell value: {_render(bell)} = {_decimal(bell)}")
    width = max(4, *(len(_render(c)) for c in box.cells))
    for square in squares:
        tag = " (allowed)" if square["allowed"] else ""
        print(f"\nu={square['u']} v={square['v']}{tag}")
        print("      " + "  ".join(f"x={x}".ljust(width) for x in (0, 1)))
        for y, row in enumerate(square["cells"]):
            print(f" y={y}  " + "  ".join(_render(c).ljust(width) for c in row))
    return 0


# ---------------------------------------------------------------------------
# attack

def _cmd_attack(args) -> int:
    params = _box_params(args)
    f = parse_function_spec(args.function, args.n)
    report = analysis.run_attack(f, params)
    if args.format == "json":
        print(json.dumps(_jsonify(report), indent=2))
    else:
        print(f"function: {report.function} (n={report.n})")
        print(f"box: N={report.n_settings} eps={_render(report.eps)} mode={report.mode}")
        print(f"strategy: {report.strategy}")
        print(f"distance from uniform: {_render(report.distance)} "
              f"= {_decimal(report.distance)}")
        print(f"bound eps*2/(3n): {_render(report.bound)} = {_decimal(report.bound)}")
        if report.ratio is not None:
            print(f"ratio: {_decimal(report.ratio)}")
        print(f"pr[K=0|Z=0]: {_render(report.pr_k0_given_z0)}")
        if report.pivotal_histogram:
            hist = ", ".join(f"{i}: {c}" for i, c in
                             sorted(report.pivotal_histogram.items()))
            print(f"pivotal index histogram: {hist}")
        print(f"theorem check: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verify

def _verify_system(args, params: BoxParams):
    # Refused by n, then by table size, before any O(2^n) work and before
    # (4 N^2)^n is computed.  A hex spec's truth table is on the command
    # line and fixes n, so it is parsed first.
    f = None
    if args.system == "unbiased":
        if args.n is None:
            raise ValueError("--n is required for the unbiased system")
    elif args.function is None:
        raise ValueError(f"--function is required for system {args.system!r}")
    elif args.function.startswith("hex:"):
        f = parse_function_spec(args.function, args.n)
    n = args.n if f is None else f.n
    if n is not None:
        _table_size(n)  # the builders' own check: n in 1..MAX_FUNCTION_BITS
        nonsignalling.refuse_over_cap("joint table",
                                      nonsignalling.table_entries(n, params.n_settings))
    if args.system == "unbiased":
        if args.function is not None:
            raise ValueError("--function is not used by the unbiased system")
        return build_product_system(build_unbiased_box(params), n)
    if f is None:
        f = parse_function_spec(args.function, n)
    return build_attack_partition(f, params).systems[0 if args.system == "attack-z0" else 1]


def _subset(args) -> tuple[int, ...] | None:
    """The parsed ``--subset``: required by the subset check, refused by the
    others, as ``--side`` is.  Positions are ASCII digits only, each named
    once."""
    if args.check != "subset":
        for flag, value in (("--side", args.side), ("--subset", args.subset)):
            if value is not None:
                raise ValueError(f"{flag} is used only by the subset check, "
                                 f"not {args.check!r}")
        return None
    if not args.subset:
        raise ValueError("--subset is required for the subset check")
    tokens = args.subset.split(",")
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"--subset must be comma-separated positions like 1,3, "
                         f"got {args.subset!r}")
    positions = tuple(map(int, tokens))
    repeated = next((p for i, p in enumerate(positions) if p in positions[:i]), None)
    if repeated is not None:
        raise ValueError(f"--subset names position {repeated} more than once, "
                         f"got {args.subset!r}")
    return positions


def _cmd_verify(args) -> int:
    params = _box_params(args)
    subset = _subset(args)
    system = _verify_system(args, params)
    if args.check == "ab":
        report = nonsignalling.check_ab(system)
    elif args.check == "time-ordered":
        report = nonsignalling.check_time_ordered(system)
    else:
        report = nonsignalling.check_subset(system, args.side or "alice", subset)

    if args.format == "json":
        doc = {
            "system": args.system,
            "function": args.function,
            "n": system.n,
            "n_settings": params.n_settings,
            "eps": params.eps,
            "mode": params.mode,
            "report": report,
        }
        print(json.dumps(_jsonify(doc), indent=2))
    else:
        print(f"system: {args.system}"
              + (f" function={args.function}" if args.function else "")
              + f" n={system.n} N={params.n_settings} eps={_render(params.eps)}")
        print(str(report))
        for v in report.violations:
            print(f"  witness side={v.side} cut={v.cut} "
                  f"u:{list(v.u_left)}->{list(v.u_right)} "
                  f"v:{list(v.v_left)}->{list(v.v_right)} "
                  f"x={list(v.x_kept)} y={list(v.y_kept)} "
                  f"left={_render(v.left)} right={_render(v.right)}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# scan

CSV_COLUMNS = ["family", "n", "N", "eps", "strategy", "distance", "bound",
               "ratio", "distance_times_n", "distance_times_sqrt_n",
               "pr_k0_given_z0"]


def _cmd_scan(args) -> int:
    if args.n_to < args.n_from:
        raise ValueError(f"--n-to ({args.n_to}) must be at least --n-from ({args.n_from})")
    if args.step < 1:
        raise ValueError(f"--step must be at least 1, got {args.step}")
    for n in (args.n_from, args.n_to):
        _table_size(n)  # the builders' own check: n in 1..MAX_FUNCTION_BITS
    params = _box_params(args)
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    n_values = range(args.n_from, args.n_to + 1, args.step)
    with out if args.out else contextlib.nullcontext():
        rows = analysis.scan(args.family, n_values, params)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            report = row.report
            if report is None:
                print(f"n={row.n}: {row.error}", file=sys.stderr)
                writer.writerow([row.family, row.n, params.n_settings,
                                 _render(params.eps), "error", "", "", "", "", "", ""])
                continue
            writer.writerow([
                row.family, row.n, report.n_settings, _render(report.eps), report.strategy,
                _render(report.distance), _render(report.bound), _render(report.ratio),
                _render(row.distance_times_n), _render(row.distance_times_sqrt_n),
                _render(report.pr_k0_given_z0),
            ])

    if any(row.report is not None and not row.report.passed for row in rows):
        return 1
    if any(row.error is not None for row in rows):
        return 2
    return 0


# ---------------------------------------------------------------------------

def _add_box_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-settings", type=int, default=2, metavar="N",
                        help="measurement settings per party (default 2)")
    parser.add_argument("--eps", default=None, metavar="P/Q",
                        help="adjacent-setting cross probability (default 1/8)")
    parser.add_argument("--mode", choices=[MODE_RATIONAL, MODE_QUANTUM],
                        default=MODE_RATIONAL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainbell",
        description="Chained-Bell box systems, adversarial partitions and "
                    "exhaustive non-signalling verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_box = sub.add_parser("box", help="print a single-pair box")
    _add_box_flags(p_box)
    p_box.add_argument("--sigma", choices=["none", "0", "1"], default="none",
                       help="bias direction (default none)")
    p_box.add_argument("--format", choices=["table", "json"], default="table")
    p_box.set_defaults(func=_cmd_box)

    p_attack = sub.add_parser("attack", help="run the attack against one function")
    _add_box_flags(p_attack)
    p_attack.add_argument("--function", required=True, metavar="SPEC",
                          help="xor | majority | and | or | random:<seed> | hex:<digits>")
    p_attack.add_argument("--n", type=int, default=None)
    p_attack.add_argument("--format", choices=["text", "json"], default="text")
    p_attack.set_defaults(func=_cmd_attack)

    p_verify = sub.add_parser("verify", help="exhaustive non-signalling checks")
    _add_box_flags(p_verify)
    p_verify.add_argument("--system", choices=["unbiased", "attack-z0", "attack-z1"],
                          default="unbiased")
    p_verify.add_argument("--function", default=None, metavar="SPEC")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--check", choices=["ab", "time-ordered", "subset"],
                          default="time-ordered")
    p_verify.add_argument("--side", choices=["alice", "bob"], default=None,
                          help="side for the subset check (default alice)")
    p_verify.add_argument("--subset", default=None, metavar="I,J,...",
                          help="1-based input positions for the subset check")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="CSV sweep over a function family")
    _add_box_flags(p_scan)
    p_scan.add_argument("--family", required=True, metavar="SPEC")
    p_scan.add_argument("--n-from", type=int, required=True)
    p_scan.add_argument("--n-to", type=int, required=True)
    p_scan.add_argument("--step", type=int, default=1)
    p_scan.add_argument("--out", default=None, metavar="PATH.csv")
    p_scan.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleSizeError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
