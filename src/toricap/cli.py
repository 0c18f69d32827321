"""Command-line front end.

Subcommands::

    toricap caps --domain d.json --kmax 10 [--format table|csv|json]
                 [--oracle] [--out FILE]
    toricap cube --domain d.json
    toricap gromov --domain d.json
    toricap obstruct --source a.json --target b.json --kmax 12
    toricap slope --domain d.json --kmax 40
    toricap lagrangian-bound --domain d.json

``_COMMANDS`` describes each subcommand's options once.  ``run`` reads an
argv in the plain form with ``_plain`` and hands every other to argparse
(``_parsers``), which stays the one grammar and writes every help and
usage error.  Each ``_cmd_*`` function computes its values, formats each
once, and returns the table, CSV and JSON builders over those strings,
with a flag for an oracle mismatch; ``_render`` runs only the requested
one.  ``_rational_column`` and ``_decimal_column`` render the value
columns, and ``_json`` all JSON text.

At module level this imports only what every subcommand uses, so
``cube``, ``gromov`` and ``lagrangian-bound`` never load the lattice
search: ``caps`` imports ``capacities`` when it runs, and ``oracle`` only
under ``--oracle``.

Exit codes: 0 success, 1 domain or semantic error (including an oracle
mismatch under ``--oracle``, and a reader that closed stdout before the
report was written), 2 usage error.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from .domains import Staircase, ToricDomain
from .embeddings import (
    asymptotic_slope,
    cube_capacity,
    gromov_width,
    lagrangian_lower_bound,
    obstruct,
)
from .errors import ToricapError
from .rationals import DECIMAL_DIGITS, decimal_string, format_rational, positive_int
from .specfile import domain_to_jsonable, load_domain

if TYPE_CHECKING:
    import argparse


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
    """What ``decimal_string(x, denom=denom)`` writes after the integer part
    for every x = r (mod denom) whose quotient x // denom has ``width``
    digits: below ``DECIMAL_DIGITS`` the rounding falls on a fraction digit,
    so the least such x shows it.  None for a quotient of 0 or of
    ``DECIMAL_DIGITS`` digits or more, and for a tail that rounds up into
    the integer part."""
    if not 0 < width < DECIMAL_DIGITS:
        return None
    head = 10 ** (width - 1)
    integer, dot, fraction = decimal_string(head * denom + r, DECIMAL_DIGITS, denom).partition(".")
    return dot + fraction if integer == str(head) else None


def _decimal_column(values: Sequence[int], denom: int) -> list[str]:
    """``decimal_string(x, denom=denom)`` for each x of ``values``: in a class,
    each run of quotients x // denom of one width is those quotients and
    their ``_decimal_tail``, or is rendered one by one where it is None."""
    classes = _classes(values, denom)
    if classes is None:
        return list(map(decimal_string, values, repeat(DECIMAL_DIGITS), repeat(denom)))
    column = [""] * len(values)
    for rows, same in classes:
        r, step = same.start % denom, same.step // denom
        quotients = range(same.start // denom, same[-1] // denom + 1, step)
        texts: list[str] = []
        while len(texts) < len(quotients):
            j = len(texts)
            q = quotients[j]
            # 0 for a quotient of 0, and DECIMAL_DIGITS from 10^(DECIMAL_DIGITS - 1) on
            width = len(str(q)) if 0 < q < 10 ** (DECIMAL_DIGITS - 1) else min(q, DECIMAL_DIGITS)
            end = len(quotients) if width == DECIMAL_DIGITS else j - (q - 10**width) // step
            tail = _decimal_tail(width, r, denom)
            if tail is None:
                texts += map(decimal_string, same[j:end], repeat(DECIMAL_DIGITS), repeat(denom))
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


class _Option(NamedTuple):
    """One option of a subcommand, as argparse's ``add_argument`` takes it:
    a ``store_true`` flag takes no value and stores True; any other option
    stores one value, converted by ``type`` (None keeps the string)."""

    flags: tuple[str, ...]
    dest: str
    help: str
    type: Optional[Callable[[str], object]] = None
    choices: Optional[tuple[str, ...]] = None
    default: object = None
    required: bool = False
    store_true: bool = False


class _Command(NamedTuple):
    """A subcommand: its help line, the function that runs it on the parsed
    arguments, and its options in the order its help lists them."""

    help: str
    run: Callable
    options: tuple[_Option, ...]


_DOMAIN = _Option(("--domain", "-d"), "domain", "domain-spec file", required=True)
_OUTPUT = (
    _Option(("--out",), "out", "write the report here instead of stdout"),
    _Option(("--format",), "format", "output format (default: table)",
            choices=("table", "csv", "json"), default="table"),
)


def _kmax(help: str) -> _Option:
    return _Option(("--kmax", "-k"), "kmax", help, type=int, required=True)


# Every subcommand and its options: ``_plain`` reads an argv from this
# table, and ``_parsers`` builds argparse's parsers from it.
_COMMANDS = {
    "caps": _Command("capacity sequence c_1..c_K", _cmd_caps, (
        _DOMAIN, *_OUTPUT, _kmax("largest index K"),
        _Option(("--oracle",), "oracle",
                "append brute-force oracle values and fail on any mismatch; "
                "each k may enumerate 10^7 / K candidates",
                default=False, store_true=True),
    )),
    "cube": _Command("cube capacity", lambda args: _cmd_scalar(args, cube_capacity),
                     (_DOMAIN, *_OUTPUT)),
    "gromov": _Command(
        "Gromov width of a concave domain",
        lambda args: _cmd_scalar(args, lambda d: gromov_width(_gromov_domain(d))),
        (_DOMAIN, *_OUTPUT),
    ),
    "obstruct": _Command("pairwise embedding obstruction report", _cmd_obstruct, (
        _Option(("--source",), "source", "source domain-spec file", required=True),
        _Option(("--target",), "target", "target domain-spec file", required=True),
        *_OUTPUT, _kmax("largest index K"),
    )),
    "slope": _Command("asymptotic slope c_K/K with exact limit", _cmd_slope,
                      (_DOMAIN, *_OUTPUT, _kmax("index K"))),
    "lagrangian-bound": _Command(
        "lower bound for the Lagrangian capacity",
        lambda args: _cmd_scalar(args, lagrangian_lower_bound),
        (_DOMAIN, *_OUTPUT),
    ),
}
# what ``_plain`` reads of each subcommand: its options by each of their
# flags, their defaults by dest, and the dests of the required ones
_PLAIN = {
    name: (
        {flag: option for option in command.options for flag in option.flags},
        {option.dest: option.default for option in command.options},
        {option.dest for option in command.options if option.required},
    )
    for name, command in _COMMANDS.items()
}


def _plain(argv: list[str]) -> Optional[SimpleNamespace]:
    """The arguments argparse would parse from ``argv`` where it is in the
    plain form ``SUBCOMMAND --opt VALUE ... [--flag]``, else None.

    Plain means: each option token is exactly one of the subcommand's
    flags; a value follows each option that takes one and does not begin
    with ``-``; each value converts by its option's ``type`` and lies in
    its ``choices``; and every required option is given.  The last of a
    repeated option wins, and an option not given takes its default, as in
    argparse.  Any other argv is None, for argparse to read."""
    reader = _PLAIN.get(argv[0]) if argv else None
    if reader is None:
        return None
    flags, defaults, required = reader
    values = defaults.copy()
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option = flags.get(token)
        if option is None:
            return None
        if option.store_true:
            value = True
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            if option.type is not None:
                try:
                    value = option.type(value)
                except (TypeError, ValueError):
                    return None
            if option.choices is not None and value not in option.choices:
                return None
        values[option.dest] = value
        given.add(option.dest)
    if not required <= given:
        return None
    return SimpleNamespace(**values, run=_COMMANDS[argv[0]].run)


@functools.cache
def _parsers() -> argparse.ArgumentParser:
    """The top-level parser, with a subparser per subcommand, built from
    ``_COMMANDS`` once per process, on the first argv that ``_plain``
    declines: parsing leaves it unchanged."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="toricap",
        description="Exact capacity calculator for toric domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in command.options:
            kind = ({"action": "store_true"} if option.store_true
                    else {"type": option.type, "choices": option.choices})
            p.add_argument(*option.flags, dest=option.dest, default=option.default,
                           required=option.required, help=option.help, **kind)
        p.set_defaults(run=command.run)
    return parser


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code.  An argv
    in the plain form is read by ``_plain`` alone; any other goes to
    argparse (``_parsers``), which prints help and usage errors."""
    args = _plain(argv)
    if args is None:
        try:
            args = _parsers().parse_args(argv)
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
