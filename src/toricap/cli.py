"""Command-line front end.

Subcommands::

    toricap caps --domain d.json --kmax 10 [--format table|csv|json]
                 [--oracle] [--out FILE]
    toricap cube --domain d.json
    toricap gromov --domain d.json
    toricap obstruct --source a.json --target b.json --kmax 12
    toricap slope --domain d.json --kmax 40
    toricap lagrangian-bound --domain d.json

``run`` parses an argv once, by its subcommand's own parser
(``_parsers``), and keeps nothing parsed from one call to the next.

Every subcommand has one report path.  Its ``_cmd_*`` function computes
the values, formats each once (``format_rational``, ``decimal_string``) and
returns three builders over those strings: the table text, the CSV rows and
the JSON text, with a flag for an oracle mismatch.  ``_render`` alone
reads the requested format and runs only that builder.  CSV rows are
joined by ``,``, as no field needs quoting.  Tables are written from a
report's columns, each padded once by ``str.ljust`` and each row joined
and right-stripped.  All JSON text comes from the one ``_json`` helper,
which fills each row into one template whose slots are set by each
column's types: an all-``None`` column is a literal ``null``, an all-int
column and an all-str column that needs no JSON escape (checked once on
its joined text) are filled as they are, and any other column value by
value.  ``caps`` works a column at a time on its ``capacity_sequence``'s
integers over one denominator, with no record or ``Fraction`` per row,
and reads the branch label once.  ``format_rational(value, denom)`` and
``decimal_string(value, 20, denom)`` fill its value columns, one call per
value, but a closed form's progression is written one residue class mod
``denom`` at a time, from one call per class (``_rational_column``,
``_decimal_column``).  Its ``--oracle`` column is computed first, so a K
past the enumeration cap fails before any sequence is built.  ``obstruct``
formats both sides of its report from their integers the same way and
writes the per-k verdicts the report holds: no module but ``embeddings``
compares the two sides.

At module level this imports only what every subcommand uses: ``caps``
imports ``capacities`` when it runs, and ``oracle`` only under
``--oracle``, and ``embeddings`` imports ``capacities`` only in
``obstruct`` and ``asymptotic_slope``, so ``cube``, ``gromov`` and
``lagrangian-bound`` never load the lattice search.

Exit codes: 0 success, 1 domain or semantic error (including an oracle
mismatch under ``--oracle``, and a reader that closed stdout before the
report was written), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .domains import Staircase, ToricDomain
from .embeddings import (
    asymptotic_slope,
    cube_capacity,
    gromov_width,
    lagrangian_lower_bound,
    obstruct,
)
from .errors import ToricapError
from .rationals import decimal_string, format_rational, positive_int
from .specfile import domain_to_jsonable, load_domain


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser by name, built
    once per process: parsing leaves them unchanged."""
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

    return parser, sub.choices


def _approx(value: Fraction) -> str:
    """``value`` to 6 significant digits as ``float``'s ``.6g`` prints it, but
    from the exact rational where the float overflows or loses digits."""
    try:
        if not value or abs(float(value)) >= sys.float_info.min:
            return f"{float(value):.6g}"
    except OverflowError:
        pass
    # so far from 1 that .6g prints scientific form, trailing zeros dropped
    mantissa, exponent = decimal_string(value, 6).split("E")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"


def _classes(values, denom) -> Optional[list[tuple[slice, range]]]:
    """(slice, values) of each residue class mod ``denom`` of an increasing
    ``range`` of nonnegative ints, as a closed form's capacities are: the
    x = r at indices i, i + p, ..., p = denom / gcd(step, denom), form a
    range whose step is a multiple of ``denom``.  None for anything else,
    or for fewer than 8 values per class, which cost more than one by one."""
    if type(values) is not range or type(denom) is not int or denom < 1:
        return None
    period = denom // math.gcd(values.step, denom)
    if not values.start >= 0 < values.step or len(values) < 8 * period:
        return None
    return [(slice(i, None, period), values[i::period]) for i in range(period)]


def _rational_column(values: Sequence[int], denom: int) -> list[str]:
    """``format_rational(x, denom)`` for each x of ``values``: in a class
    every x shares g = gcd(x, denom), so it is x // g and the tail, "/q" or
    nothing, of ``format_rational(g, denom)``."""
    classes = _classes(values, denom)
    if classes is None:
        return list(map(format_rational, values, repeat(denom)))
    column = [""] * len(values)
    for rows, same in classes:
        g = math.gcd(same.start, denom)
        numerators = range(same.start // g, same[-1] // g + 1, same.step // g)
        column[rows] = map(f"%d{format_rational(g, denom)[1:]}".__mod__, numerators)
    return column


def _decimal_tail(width: int, r: int, denom: int) -> Optional[str]:
    """What ``decimal_string(x, 20, denom)`` writes after the integer part
    for every x = r (mod denom) whose quotient x // denom has ``width``
    digits: below 20 the rounding falls on a fraction digit, so the least
    such x shows it.  None for a quotient of 0 or of 20 digits or more, and
    for a tail that rounds up into the integer part."""
    if not 0 < width < 20:
        return None
    head = 10 ** (width - 1)
    integer, dot, fraction = decimal_string(head * denom + r, 20, denom).partition(".")
    return dot + fraction if integer == str(head) else None


def _decimal_column(values: Sequence[int], denom: int) -> list[str]:
    """``decimal_string(x, 20, denom)`` for each x of ``values``: in a class,
    each run of quotients x // denom of one width is those quotients and
    their ``_decimal_tail``, or is rendered one by one where it is None."""
    classes = _classes(values, denom)
    if classes is None:
        return list(map(decimal_string, values, repeat(20), repeat(denom)))
    column = [""] * len(values)
    for rows, same in classes:
        r, step = same.start % denom, same.step // denom
        quotients = range(same.start // denom, same[-1] // denom + 1, step)
        texts: list[str] = []
        while len(texts) < len(quotients):
            j = len(texts)
            q = quotients[j]
            # 0 for a quotient of 0, and 20 for 10^19 and every quotient past it
            width = len(str(q)) if 0 < q < 10**19 else min(q, 20)
            end = len(quotients) if width == 20 else j - (q - 10**width) // step
            tail = _decimal_tail(width, r, denom)
            if tail is None:
                texts += map(decimal_string, same[j:end], repeat(20), repeat(denom))
            else:
                texts += map(f"%d{tail}".__mod__, quotients[j:end])
        column[rows] = texts
    return column


def _format_table(header: list[str], columns: list[list[str]]) -> str:
    """``header`` over ``columns``, left-aligned two spaces apart: each
    column but the last is padded to its width by one ``str.ljust`` map,
    and each row is joined and right-stripped."""
    padded = [
        list(map(str.ljust, [name, *column], repeat(max(len(name), *map(len, column)))))
        for name, column in zip(header[:-1], columns[:-1])
    ]
    rows = zip(*padded, [header[-1], *columns[-1]])
    return "\n".join(map(str.rstrip, map("  ".join, rows))) + "\n"


def _json_value(value) -> str:
    """A str, int, None or non-empty tuple of ints as ``json.dumps(...,
    indent=2)`` writes it in an object that is an item of a top-level list."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, tuple):
        return "[\n        " + ",\n        ".join(map(str, value)) + "\n      ]"
    return "null" if value is None else str(value)


def _json_slot(column) -> tuple[str, object]:
    """(template slot, the values that fill it) of one JSON column: an
    all-None column is a literal ``null`` filled by nothing; an all-str
    column whose text JSON leaves as it is (printable ASCII without ``"``
    or ``\\``, checked once on the joined text) is quoted in the template,
    and an all-int column is unquoted, each filled by the column as it is;
    any other column is filled by ``_json_value`` of each value."""
    types = set(map(type, column))
    if types == {type(None)}:
        return "null", None
    if types == {str}:
        text = "".join(column)
        if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
            return '"%s"', column
    return "%s", column if types == {int} else list(map(_json_value, column))


def _json(head: dict, key=None, fields=(), columns=()) -> str:
    """What ``json.dumps(..., indent=2)`` prints, plus a newline, for ``head``
    with the non-empty list ``key`` as its last member: one object per row,
    mapping ``fields`` to the row's entries in ``columns``, filled into one
    template whose slots ``_json_slot`` gives."""
    text = json.dumps(head, indent=2)
    if key is None:
        return text + "\n"
    slots, fills = zip(*map(_json_slot, columns))
    members = ",\n".join(f'      "{f}": {s}' for f, s in zip(fields, slots))
    template = f"    {{\n{members}\n    }}"
    fed = [fill for fill in fills if fill is not None]
    # columns that are all None fill no slot, but their rows are still written
    rows = zip(*fed) if fed else repeat((), len(columns[0]))
    body = ",\n".join(map(template.__mod__, rows))
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
    from .capacities import capacity_sequence

    domain = load_domain(args.domain)
    kmax = positive_int(args.kmax, "kmax")
    ks = range(1, kmax + 1)
    header = ["k", "value_rational", "value_decimal", "witness", "branch"]
    oracle = []
    if args.oracle:  # first: past the enumeration cap every k fails at once
        from .oracle import DEFAULT_ENUMERATION_CAP, brute_capacity

        cap = DEFAULT_ENUMERATION_CAP // kmax
        expected = [brute_capacity(domain, k, cap) for k in ks]
        oracle.append(list(map(format_rational, expected)))
        header.append("oracle_rational")
    sequence = capacity_sequence(domain, kmax)
    (denom, values), (witnesses, branch) = sequence._scaled, sequence._labels
    rationals = _rational_column(values, denom)
    decimals = _decimal_column(values, denom)
    labels = [branch.value] * kmax
    mismatch = args.oracle and expected != sequence.raw_values()

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
    ks = range(1, report.kmax + 1)
    sides = (side._scaled for side in report._sides)  # c_k = values[k - 1] / denom
    columns = [list(map(str, ks)), *(_rational_column(values, d) for d, values in sides)]
    over = report._over  # c_k(source) > c_k(target)
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
    """Execute one CLI invocation; returns the process exit code.  What the
    subcommand's parser leaves over is the top-level parser's usage error,
    as its ``parse_args`` reports it; an argv naming no subcommand ends in
    the top-level help or a usage error."""
    parser, commands = _parsers()
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the flush at exit,
        # to devnull, as the "Note on SIGPIPE" in the ``signal`` docs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
