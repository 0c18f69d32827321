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
the JSON text, with a flag for an oracle mismatch.  ``_render`` alone
reads the requested format and runs only that builder.  CSV rows are
joined by ``,``, as no field needs quoting.  Tables and JSON are written
from a report's columns, each row filled into one template; all JSON text
comes from the one ``_json`` helper, which encodes each column by the type
of its values, an all-``None`` column at once.  ``caps`` works a
column at a time on the sequence engine's integers over one denominator:
``format_rational(value, denom)`` and ``decimal_string(value, 20, denom)``
fill one list each, with no record or ``Fraction`` per row, and the branch
label is read once.  Its ``--oracle`` column is computed first, so a K
past the enumeration cap fails before any sequence is built.

Exit codes: 0 success, 1 domain or semantic error (including an oracle
mismatch under ``--oracle``), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import Context
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .capacities import _scaled_sequence
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
from .rationals import decimal_string, format_rational, positive_int
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


def _format_table(header: list[str], columns: list[list[str]]) -> str:
    """``header`` over ``columns``, left-aligned two spaces apart: each width
    is read off its column, and each row fills one row template."""
    widths = [max(len(name), *map(len, column)) for name, column in zip(header, columns)]
    line = "  ".join(f"%-{w}s" for w in widths)
    return "".join((line % row).rstrip() + "\n" for row in chain([tuple(header)], zip(*columns)))


def _json_value(value) -> str:
    """A str, int, None or non-empty tuple of ints as ``json.dumps(...,
    indent=2)`` writes it in an object that is an item of a top-level list."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, tuple):
        return "[\n        " + ",\n        ".join(map(str, value)) + "\n      ]"
    return "null" if value is None else str(value)


def _json_column(column) -> Iterable[str]:
    """The JSON text of each value in ``column``: an all-None column is
    ``"null"`` throughout, an all-str or all-int column is encoded by one C
    function, any other by ``_json_value``."""
    types = set(map(type, column))
    if types == {type(None)}:
        return repeat("null", len(column))
    encode = encode_basestring_ascii if types == {str} else str if types == {int} else _json_value
    return map(encode, column)


def _json(head: dict, key=None, fields=(), columns=()) -> str:
    """What ``json.dumps(..., indent=2)`` prints, plus a newline, for ``head``
    with the non-empty list ``key`` as its last member: one object per row,
    mapping ``fields`` to the row's entries in ``columns``, filled into one
    template."""
    text = json.dumps(head, indent=2)
    if key is None:
        return text + "\n"
    template = "    {\n" + ",\n".join(f'      "{f}": %s' for f in fields) + "\n    }"
    body = ",\n".join(template % row for row in zip(*map(_json_column, columns)))
    return f'{text[:-2]},\n  "{key}": [\n{body}\n  ]\n}}\n'


def _render(args, table, csv_rows, json_text) -> str:
    """The report in ``args.format``: the rows ``csv_rows()`` returns (header
    first) joined by ``,`` and ``\\n``, or the text ``table()`` or
    ``json_text()`` returns.  Only the requested builder runs.  No CSV field
    needs quoting: each is an integer, a ``p/q`` rational, a decimal,
    ``;``-joined integers, a branch label or 0/1."""
    if args.format == "csv":
        return "\n".join(map(",".join, csv_rows())) + "\n"
    return table() if args.format == "table" else json_text()


def _cmd_caps(args) -> tuple[tuple, bool]:
    domain = load_domain(args.domain)
    kmax = positive_int(args.kmax, "kmax")
    ks = range(1, kmax + 1)
    header = ["k", "value_rational", "value_decimal", "witness", "branch"]
    oracle = []
    if args.oracle:  # first: past the enumeration cap every k fails at once
        cap = DEFAULT_ENUMERATION_CAP // kmax
        expected = [brute_capacity(domain, k, cap) for k in ks]
        oracle.append(list(map(format_rational, expected)))
        header.append("oracle_rational")
    denom, values, witnesses, branch = _scaled_sequence(domain, kmax)
    rationals = list(map(format_rational, values, repeat(denom)))
    decimals = list(map(decimal_string, values, repeat(20), repeat(denom)))
    labels = [branch.value] * kmax
    mismatch = args.oracle and expected != list(map(Fraction, values, repeat(denom)))

    def columns():
        joined = [""] * kmax if witnesses is None else [";".join(map(str, w)) for w in witnesses]
        return [list(map(str, ks)), rationals, decimals, joined, labels, *oracle]

    def json_text():
        return _json(
            {"domain": domain_to_jsonable(domain), "kmax": kmax},
            "capacities",
            ("k", "value", "decimal", "witness", "branch", "oracle")[: len(header)],
            (ks, rationals, decimals, witnesses or [None] * kmax, labels, *oracle),
        )

    return (lambda: f"domain: {domain}\n" + _format_table(header, columns()),
            lambda: chain((header,), zip(*columns())), json_text), mismatch


def _cmd_obstruct(args) -> tuple[tuple, bool]:
    source = load_domain(args.source)
    target = load_domain(args.target)
    report = obstruct(source, target, args.kmax)
    ks, sources, targets = zip(*report.rows)
    columns = [list(map(str, ks)), *([*map(format_rational, side)] for side in (sources, targets))]
    # c_k(source) > c_k(target) on the integers of the lowest terms
    over = [a.numerator * b.denominator > b.numerator * a.denominator
            for a, b in zip(sources, targets)]
    first = report.first_violation
    verdict = f"no violation up to k={report.kmax}" if first is None else f"violation at k={first}"
    return (
        lambda: f"source: {source}\ntarget: {target}\n" + _format_table(
            ["k", "c_k(source)", "c_k(target)", "violates"],
            [*columns, [("", "yes")[v] for v in over]],
        ) + verdict + "\n",
        lambda: [["k", "source_rational", "target_rational", "violation"],
                 *zip(*columns, [("0", "1")[v] for v in over])],
        lambda: _json({
            "source": domain_to_jsonable(source),
            "target": domain_to_jsonable(target),
            "kmax": report.kmax,
            "first_violation": first,
        }, "rows", ("k", "source", "target"), (ks, *columns[1:])),
    ), False


def _cmd_slope(args) -> tuple[tuple, bool]:
    domain = load_domain(args.domain)
    report = asymptotic_slope(domain, args.kmax)
    estimate, exact, lower, upper = map(format_rational, report)
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
        lambda: _json({
            "domain": domain_to_jsonable(domain),
            "kmax": args.kmax,
            "estimate": estimate,
            "estimate_decimal": decimal_string(report.estimate),
            "exact": exact,
            "lower": lower,
            "upper": upper,
        }),
    ), False


def _cmd_scalar(args, compute) -> tuple[tuple, bool]:
    value = compute(load_domain(args.domain))
    exact = format_rational(value)
    return (
        lambda: f"{exact} (≈{_approx(value)})\n",
        lambda: [["value_rational", "value_decimal"], [exact, decimal_string(value)]],
        lambda: _json({"value": exact, "decimal": decimal_string(value)}),
    ), False


def _gromov_domain(domain: ToricDomain) -> Staircase:
    if domain.shape == "staircase":
        return domain
    raise ToricapError(
        "gromov requires a concave domain (or an ellipsoid with a finite axis); "
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
