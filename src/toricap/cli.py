"""Command-line front end.

Subcommands::

    toricap caps --domain d.json --kmax 10 [--format table|csv|json]
                 [--oracle] [--out FILE]
    toricap cube --domain d.json
    toricap gromov --domain d.json
    toricap obstruct --source a.json --target b.json --kmax 12
    toricap slope --domain d.json --kmax 40
    toricap lagrangian-bound --domain d.json

Exit codes: 0 success, 1 domain or semantic error (including an oracle
mismatch under ``--oracle``), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from decimal import Context
from fractions import Fraction

from .capacities import CapacitySequence, capacity_sequence
from .domains import Staircase, ToricDomain
from .embeddings import (
    asymptotic_slope,
    cube_capacity,
    gromov_width,
    lagrangian_lower_bound,
    obstruct,
)
from .errors import ToricapError
from .oracle import brute_capacity
from .rationals import decimal_string, format_rational
from .specfile import domain_to_jsonable, load_domain


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="toricap",
        description="Exact capacity calculator for toric domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, domain_flag: bool = True) -> None:
        if domain_flag:
            p.add_argument("--domain", "-d", required=True, help="domain-spec file")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default: table)",
        )

    p_caps = sub.add_parser("caps", help="capacity sequence c_1..c_K")
    add_common(p_caps)
    p_caps.add_argument("--kmax", "-k", type=int, required=True, help="largest index K")
    p_caps.add_argument(
        "--oracle",
        action="store_true",
        help="append brute-force oracle values and fail on any mismatch",
    )
    p_caps.set_defaults(run=_cmd_caps)

    p_cube = sub.add_parser("cube", help="cube capacity")
    add_common(p_cube)
    p_cube.set_defaults(run=lambda args: _cmd_scalar(args, cube_capacity))

    p_gromov = sub.add_parser("gromov", help="Gromov width of a concave domain")
    add_common(p_gromov)
    p_gromov.set_defaults(
        run=lambda args: _cmd_scalar(args, lambda d: gromov_width(_gromov_domain(d)))
    )

    p_obs = sub.add_parser("obstruct", help="pairwise embedding obstruction report")
    p_obs.add_argument("--source", required=True, help="source domain-spec file")
    p_obs.add_argument("--target", required=True, help="target domain-spec file")
    add_common(p_obs, domain_flag=False)
    p_obs.add_argument("--kmax", "-k", type=int, required=True, help="largest index K")
    p_obs.set_defaults(run=_cmd_obstruct)

    p_slope = sub.add_parser("slope", help="asymptotic slope c_K/K with exact limit")
    add_common(p_slope)
    p_slope.add_argument("--kmax", "-k", type=int, required=True, help="index K")
    p_slope.set_defaults(run=_cmd_slope)

    p_lag = sub.add_parser(
        "lagrangian-bound", help="lower bound for the Lagrangian capacity"
    )
    add_common(p_lag)
    p_lag.set_defaults(run=lambda args: _cmd_scalar(args, lagrangian_lower_bound))

    return parser


def _approx(value: Fraction) -> str:
    """``value`` to 6 significant digits as ``float``'s ``.6g`` prints it, but
    from the exact rational where the float overflows or loses digits."""
    try:
        if not value or abs(float(value)) >= sys.float_info.min:
            return f"{float(value):.6g}"
    except OverflowError:
        pass
    # so far from 1 that .6g prints scientific form, trailing zeros dropped
    digits = Context(prec=6).divide(value.numerator, value.denominator)
    mantissa, exponent = f"{digits:.5e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"


def _witness_text(witness) -> str:
    return ";".join(str(e) for e in witness) if witness is not None else ""


def _caps_rows(seq: CapacitySequence, oracle_values) -> list[list[str]]:
    rows = []
    for result in seq.values:
        row = [
            str(result.k),
            format_rational(result.value),
            decimal_string(result.value),
            _witness_text(result.witness),
            result.branch.value,
        ]
        if oracle_values is not None:
            row.append(format_rational(oracle_values[result.k - 1]))
        rows.append(row)
    return rows


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _format_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_caps(args) -> tuple[str, int]:
    domain = load_domain(args.domain)
    seq = capacity_sequence(domain, args.kmax)
    oracle_values = None
    mismatch = None
    if args.oracle:
        oracle_values = [brute_capacity(domain, k) for k in range(1, args.kmax + 1)]
        mismatch = next(
            (
                k
                for k in range(1, args.kmax + 1)
                if oracle_values[k - 1] != seq.value(k)
            ),
            None,
        )

    header = ["k", "value_rational", "value_decimal", "witness", "branch"]
    if oracle_values is not None:
        header.append("oracle_rational")
    rows = _caps_rows(seq, oracle_values)

    if args.format == "table":
        text = f"domain: {domain}\n" + _format_table(header, rows)
    elif args.format == "csv":
        text = _format_csv(header, rows)
    else:
        payload = {
            "domain": domain_to_jsonable(domain),
            "kmax": args.kmax,
            "capacities": [
                {
                    "k": r.k,
                    "value": format_rational(r.value),
                    "decimal": decimal_string(r.value),
                    "witness": list(r.witness) if r.witness is not None else None,
                    "branch": r.branch.value,
                }
                for r in seq.values
            ],
        }
        if oracle_values is not None:
            for entry, val in zip(payload["capacities"], oracle_values):
                entry["oracle"] = format_rational(val)
        text = json.dumps(payload, indent=2) + "\n"

    if mismatch is not None:
        return text, 1
    return text, 0


def _cmd_obstruct(args) -> tuple[str, int]:
    source = load_domain(args.source)
    target = load_domain(args.target)
    report = obstruct(source, target, args.kmax)
    if args.format == "table":
        header = ["k", "c_k(source)", "c_k(target)", "violates"]
        rows = [
            [str(k), format_rational(a), format_rational(b), "yes" if a > b else ""]
            for k, a, b in report.rows
        ]
        verdict = (
            f"violation at k={report.first_violation}"
            if report.first_violation is not None
            else f"no violation up to k={report.kmax}"
        )
        text = (
            f"source: {source}\ntarget: {target}\n"
            + _format_table(header, rows)
            + verdict
            + "\n"
        )
    elif args.format == "csv":
        header = ["k", "source_rational", "target_rational", "violation"]
        rows = [
            [str(k), format_rational(a), format_rational(b), "1" if a > b else "0"]
            for k, a, b in report.rows
        ]
        text = _format_csv(header, rows)
    else:
        payload = {
            "source": domain_to_jsonable(source),
            "target": domain_to_jsonable(target),
            "kmax": report.kmax,
            "first_violation": report.first_violation,
            "rows": [
                {"k": k, "source": format_rational(a), "target": format_rational(b)}
                for k, a, b in report.rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    return text, 0


def _cmd_slope(args) -> tuple[str, int]:
    domain = load_domain(args.domain)
    report = asymptotic_slope(domain, args.kmax)
    if args.format == "table":
        text = (
            f"domain: {domain}\n"
            f"estimate c_K/K = {format_rational(report.estimate)} "
            f"(≈{_approx(report.estimate)}) at K={args.kmax}\n"
            f"exact limit    = {format_rational(report.exact)}\n"
            f"bracket: {format_rational(report.lower)} <= c_K/K <= "
            f"{format_rational(report.upper)}\n"
        )
    elif args.format == "csv":
        header = ["kmax", "estimate_rational", "estimate_decimal", "exact_rational",
                  "lower_rational", "upper_rational"]
        row = [
            str(args.kmax),
            format_rational(report.estimate),
            decimal_string(report.estimate),
            format_rational(report.exact),
            format_rational(report.lower),
            format_rational(report.upper),
        ]
        text = _format_csv(header, [row])
    else:
        payload = {
            "domain": domain_to_jsonable(domain),
            "kmax": args.kmax,
            "estimate": format_rational(report.estimate),
            "estimate_decimal": decimal_string(report.estimate),
            "exact": format_rational(report.exact),
            "lower": format_rational(report.lower),
            "upper": format_rational(report.upper),
        }
        text = json.dumps(payload, indent=2) + "\n"
    return text, 0


def _cmd_scalar(args, compute) -> tuple[str, int]:
    value = compute(load_domain(args.domain))
    if args.format == "table":
        return f"{format_rational(value)} (≈{_approx(value)})\n", 0
    if args.format == "csv":
        return f"value_rational,value_decimal\n{format_rational(value)},{decimal_string(value)}\n", 0
    return json.dumps(
        {"value": format_rational(value), "decimal": decimal_string(value)}, indent=2
    ) + "\n", 0


def _gromov_domain(domain: ToricDomain) -> Staircase:
    if domain.shape == "staircase":
        return domain
    if domain.shape == "ellipsoid":
        return domain.to_concave()
    raise ToricapError(
        "gromov requires a concave domain (or a finite-axis ellipsoid); "
        f"got dimension-{domain.n} {type(domain).__name__}"
    )


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        text, code = args.run(args)
    except (ToricapError, ValueError, TypeError) as exc:
        print(f"toricap: error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"toricap: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    if code != 0:
        print("toricap: error: oracle disagreement (see oracle column)", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
