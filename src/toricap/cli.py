"""Command-line front end.

Subcommands::

    toricap caps --domain d.json --kmax 10 [--format table|csv|json]
                 [--oracle] [--out FILE]
    toricap cube --domain d.json
    toricap gromov --domain d.json
    toricap obstruct --source a.json --target b.json --kmax 12
    toricap slope --domain d.json --kmax 40
    toricap lagrangian-bound --domain d.json

Every subcommand has one report path.  Its ``_cmd_*`` function computes
the values, formats each once (``format_rational``, ``decimal_string``) and
returns three builders over those strings: the table text, the CSV rows and
the JSON payload, with a flag for an oracle mismatch.  ``_render`` alone
reads the requested format and runs only that builder.

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

from .capacities import capacity_sequence
from .domains import Staircase, ToricDomain
from .embeddings import (
    asymptotic_slope,
    cube_capacity,
    gromov_width,
    lagrangian_lower_bound,
    obstruct,
)
from .errors import ToricapError
from .oracle import DEFAULT_ENUMERATION_CAP, brute_capacity
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
        help="append brute-force oracle values and fail on any mismatch; "
        "each k may enumerate 10^7 / K candidates",
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


def _format_table(rows: list[list[str]]) -> str:
    """``rows`` (header first) in left-aligned columns two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in rows
    )


def _render(args, table, csv_rows, payload) -> str:
    """The report in ``args.format``: the text ``table()`` returns, the rows
    ``csv_rows()`` returns (header first) as CSV, or ``payload()`` as JSON.
    Only the requested builder runs."""
    if args.format == "table":
        return table()
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows())
        return buf.getvalue()
    return json.dumps(payload(), indent=2) + "\n"


def _cmd_caps(args) -> tuple[tuple, bool]:
    domain = load_domain(args.domain)
    seq = capacity_sequence(domain, args.kmax)
    header = ["k", "value_rational", "value_decimal", "witness", "branch"]
    if args.oracle:
        header.append("oracle_rational")
    rows, mismatch = [header], False
    for result in seq.values:
        witness = result.witness
        row = [
            str(result.k),
            format_rational(result.value),
            decimal_string(result.value),
            ";".join(map(str, witness)) if witness is not None else "",
            result.branch.value,
        ]
        if args.oracle:
            expected = brute_capacity(domain, result.k, DEFAULT_ENUMERATION_CAP // args.kmax)
            row.append(format_rational(expected))
            mismatch = mismatch or expected != result.value
        rows.append(row)

    def payload():
        entries = []
        for result, row in zip(seq.values, rows[1:]):
            entry = dict(zip(("k", "value", "decimal", "witness", "branch", "oracle"), row))
            witness = result.witness
            entry.update(k=result.k, witness=list(witness) if witness is not None else None)
            entries.append(entry)
        return {"domain": domain_to_jsonable(domain), "kmax": args.kmax, "capacities": entries}

    return (lambda: f"domain: {domain}\n" + _format_table(rows), lambda: rows, payload), mismatch


def _cmd_obstruct(args) -> tuple[tuple, bool]:
    source = load_domain(args.source)
    target = load_domain(args.target)
    report = obstruct(source, target, args.kmax)
    rows = [(k, format_rational(a), format_rational(b), a > b) for k, a, b in report.rows]

    def table():
        verdict = (
            f"violation at k={report.first_violation}"
            if report.first_violation is not None
            else f"no violation up to k={report.kmax}"
        )
        return (
            f"source: {source}\ntarget: {target}\n"
            + _format_table(
                [["k", "c_k(source)", "c_k(target)", "violates"]]
                + [[str(k), a, b, "yes" if v else ""] for k, a, b, v in rows]
            )
            + verdict
            + "\n"
        )

    return (
        table,
        lambda: [["k", "source_rational", "target_rational", "violation"]]
        + [[str(k), a, b, "1" if v else "0"] for k, a, b, v in rows],
        lambda: {
            "source": domain_to_jsonable(source),
            "target": domain_to_jsonable(target),
            "kmax": report.kmax,
            "first_violation": report.first_violation,
            "rows": [{"k": k, "source": a, "target": b} for k, a, b, _ in rows],
        },
    ), False


def _cmd_slope(args) -> tuple[tuple, bool]:
    domain = load_domain(args.domain)
    report = asymptotic_slope(domain, args.kmax)
    estimate, exact, lower, upper = (
        format_rational(x) for x in (report.estimate, report.exact, report.lower, report.upper)
    )
    return (
        lambda: (
            f"domain: {domain}\n"
            f"estimate c_K/K = {estimate} (≈{_approx(report.estimate)}) at K={args.kmax}\n"
            f"exact limit    = {exact}\n"
            f"bracket: {lower} <= c_K/K <= {upper}\n"
        ),
        lambda: [
            ["kmax", "estimate_rational", "estimate_decimal", "exact_rational",
             "lower_rational", "upper_rational"],
            [str(args.kmax), estimate, decimal_string(report.estimate), exact, lower, upper],
        ],
        lambda: {
            "domain": domain_to_jsonable(domain),
            "kmax": args.kmax,
            "estimate": estimate,
            "estimate_decimal": decimal_string(report.estimate),
            "exact": exact,
            "lower": lower,
            "upper": upper,
        },
    ), False


def _cmd_scalar(args, compute) -> tuple[tuple, bool]:
    value = compute(load_domain(args.domain))
    exact = format_rational(value)
    return (
        lambda: f"{exact} (≈{_approx(value)})\n",
        lambda: [["value_rational", "value_decimal"], [exact, decimal_string(value)]],
        lambda: {"value": exact, "decimal": decimal_string(value)},
    ), False


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
        builders, mismatch = args.run(args)
        text = _render(args, *builders)
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
    if mismatch:
        print("toricap: error: oracle disagreement (see oracle column)", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
