"""Command-line interface: invert problem documents, verify identities, enumerate.

Problem documents are UTF-8 JSON with exact rationals written as "p/q"
strings; floats are rejected. Coefficient entries hold the symmetric-function
values of the series coefficients, not monomial coefficients (divide by the
product of the color multiplicities' factorials to convert). Exit codes: 0
success, 1 identity mismatch, 2 parse or flag error, 3 document invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .combinat import (
    _check_cap,
    enumerate_crowns,
    enumerate_enriched_maps,
    enumerate_rooted_trees,
    set_partitions,
)
from .errors import LagrangeForestError, SizeCapExceeded
from .harness import SUITE_NAMES, SuiteConfig, run_suite
from .inversion import inverse_via_determinant, solve_tree_fixed_point
from .series import ColorSet, all_keys, make_kernel_family

# ASCII digits only: Fraction would also take decimals, exponents, spaces,
# underscores and non-ASCII digits, and "1e100000000" takes unbounded time;
# int() is quadratic in the digits, so p and q take at most Python's default limit
_DIGITS = 4300
_RATIONAL = re.compile(rf"[+-]?[0-9]{{1,{_DIGITS}}}(/[0-9]{{1,{_DIGITS}}})?")


class DocumentParseError(Exception):
    """Malformed document; maps to exit code 2."""


class DocumentInvariantError(Exception):
    """Well-formed JSON violating a document invariant; maps to exit code 3."""


@dataclass(frozen=True)
class ProblemDocument:
    """Parsed problem description: colors, order, kernel entries, subset."""

    colors: tuple[str, ...]
    order: int
    kernel_entries: tuple[tuple[str, tuple[str, ...], Fraction], ...]
    subset: tuple[str, ...] | None


def _find_line(text: str, token: str) -> int | None:
    needle = json.dumps(token)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


def _is_int(raw: object) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(raw, int) and not isinstance(raw, bool)


def _require_list(raw: object, where: str) -> list:
    if not isinstance(raw, list):
        raise DocumentParseError(f"{where} must be a list")
    return raw


def _parse_rational(raw: object, text: str, path: str) -> Fraction:
    if _is_int(raw):
        return Fraction(raw)
    if not isinstance(raw, str):
        raise DocumentParseError(
            f"{path}: values must be \"p/q\" strings or integers, got {raw!r}"
        )
    if _RATIONAL.fullmatch(raw):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or more digits than int() accepts here
    line = _find_line(text, raw)
    anchor = f"{path}:{line}" if line is not None else path
    raise DocumentParseError(
        f"{anchor}: invalid rational value {raw!r} (p and q of at most {_DIGITS} digits)"
    )


def load_problem_document(path: str) -> ProblemDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentParseError(f"{path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # integer literals over the digit limit, nesting over the recursion limit
        raise DocumentParseError(f"{path}: {exc}") from None

    if not isinstance(raw, dict):
        raise DocumentParseError(f"{path}: document must be a JSON object")
    for field_name in ("colors", "order", "kernels"):
        if field_name not in raw:
            raise DocumentParseError(f"{path}: missing field {field_name!r}")

    colors = raw["colors"]
    if (
        not isinstance(colors, list)
        or not colors
        or any(not isinstance(c, str) or not c for c in colors)
    ):
        raise DocumentInvariantError(f"{path}: colors must be non-empty strings")
    if len(set(colors)) != len(colors):
        raise DocumentInvariantError(f"{path}: duplicate color labels")
    declared = set(colors)

    order = raw["order"]
    if not _is_int(order) or order < 1:
        raise DocumentInvariantError(f"{path}: order must be an integer >= 1")

    def check_labels(labels: Iterable[str], where: str) -> None:
        for label in labels:
            if not isinstance(label, str) or label not in declared:
                raise DocumentInvariantError(f"{path}: {where}: undeclared label {label!r}")

    kernel_entries = []
    seen_kernel = set()
    for group_index, group in enumerate(_require_list(raw["kernels"], f"{path}: kernels")):
        where = f"kernels[{group_index}]"
        if not isinstance(group, dict) or "n" not in group or "entries" not in group:
            raise DocumentParseError(f"{path}: {where}: needs fields 'n' and 'entries'")
        n = group["n"]
        if not _is_int(n) or n < 1:
            raise DocumentInvariantError(
                f"{path}: {where}: kernel size must be an integer >= 1"
            )
        for entry_index, entry in enumerate(
            _require_list(group["entries"], f"{path}: {where}.entries")
        ):
            spot = f"{where}.entries[{entry_index}]"
            if not isinstance(entry, dict) or not {"q", "x", "value"} <= set(entry):
                raise DocumentParseError(
                    f"{path}: {spot}: needs fields 'q', 'x' and 'value'"
                )
            q, xs = entry["q"], entry["x"]
            if not isinstance(xs, list) or len(xs) != n:
                raise DocumentInvariantError(
                    f"{path}: {spot}: x must list exactly {n} labels"
                )
            check_labels([q, *xs], spot)
            value = _parse_rational(entry["value"], text, path)
            key = (q, tuple(sorted(xs)))
            if key in seen_kernel:
                raise DocumentInvariantError(f"{path}: {spot}: duplicate kernel entry")
            seen_kernel.add(key)
            kernel_entries.append((q, tuple(xs), value))

    subset = None
    if "B" in raw and raw["B"] is not None:
        if not isinstance(raw["B"], list):
            raise DocumentInvariantError(f"{path}: B must be a list of labels")
        check_labels(raw["B"], "B")
        subset = tuple(dict.fromkeys(raw["B"]))

    return ProblemDocument(tuple(colors), order, tuple(kernel_entries), subset)


def dump_document(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cmd_invert(
    config_path: str,
    output_path: str | None,
    with_determinant: bool,
    order_override: int | None,
) -> int:
    try:
        doc = load_problem_document(config_path)
    except DocumentParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DocumentInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    order = doc.order
    if order_override is not None:
        if order_override > doc.order or order_override < 1:
            print(
                f"error: --order may only lower the document order {doc.order}",
                file=sys.stderr,
            )
            return 2
        order = order_override

    colors = ColorSet(doc.colors)
    try:
        kernels = make_kernel_family(
            colors,
            order,
            [(q, xs, v) for q, xs, v in doc.kernel_entries if len(xs) <= order],
        )
    except LagrangeForestError as exc:
        print(f"error: {config_path}: {exc}", file=sys.stderr)
        return 3

    subset = doc.subset if doc.subset is not None else doc.colors
    inverse_table = solve_tree_fixed_point(kernels).inverse.evaluate(subset)

    rows = []
    all_equal = True
    # a result may pass the int -> str digit limit (0 if none): lifted while the
    # rows are built, then restored, as main also runs in-process
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for key in all_keys(colors, order):
            if not key:
                continue
            tree_value = inverse_table.coefficient(key)
            row = {"n": len(key), "x": list(key), "tree": str(tree_value)}
            if with_determinant:
                det_value = inverse_via_determinant(kernels, subset, key)
                row["det"] = str(det_value)
                row["equal"] = det_value == tree_value
                all_equal = all_equal and row["equal"]
            rows.append(row)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)

    payload = {
        "colors": list(doc.colors),
        "order": order,
        "B": list(subset),
        "coefficients": rows,
    }
    if with_determinant:
        payload["all_equal"] = all_equal

    rendered = dump_document(payload)
    if output_path is None:
        sys.stdout.write(rendered)
    else:
        try:
            with open(output_path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {output_path}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if all_equal else 1


def cmd_verify(suite: str, seed: int, d: int, order: int, trials: int) -> int:
    try:
        cfg = SuiteConfig(seed=seed, colors=d, order=order, trials=trials, max_tuple=order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = run_suite(suite, cfg)
    by_identity: dict[str, list] = {}
    for report in reports:
        by_identity.setdefault(report.identity, []).append(report)
    reproduce = (
        f"reproduce: lagrange-forest verify {suite} --seed {seed} --d {d}"
        f" --N {order} --trials {trials}"
    )
    all_ok = True
    for identity, group in by_identity.items():
        failures = [r for r in group if not r.passed]
        if failures:
            all_ok = False
            print(f"FAIL {identity}: {failures[0].describe()}")
            print(reproduce)
        else:
            print(f"PASS {identity} ({len(group)} trials)")
    return 0 if all_ok else 1


def cmd_enumerate(structure: str, n: int, sinks: int, do_list: bool) -> int:
    if n < 0 or sinks < 0:
        print("error: sizes must be non-negative", file=sys.stderr)
        return 2
    try:
        # refuse from the sizes alone, before any vertex list is built; an
        # empty domain has no maps or trees whatever the sinks
        _check_cap({"maps": n and n + sinks, "trees": n and n + 1}.get(structure, n))
        if structure == "partitions":
            items = set_partitions(n)
            renders = [
                " ".join("{" + ",".join(map(str, block)) + "}" for block in p) or "{}"
                for p in items
            ]
        else:
            domain = range(1, n + 1)
            if structure == "maps":
                items = enumerate_enriched_maps(domain, range(0, -sinks, -1))
            elif structure == "trees":
                items = enumerate_rooted_trees(domain, sink=0)
            else:  # crowns
                if n < 1:
                    print("error: crowns need at least one vertex", file=sys.stderr)
                    return 2
                items = enumerate_crowns(domain)
            renders = [m.render() for m in items]
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(len(items))
    if do_list:
        for line in renders:
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrange-forest",
        description="Exact inversion of colored power series with combinatorial cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    invert = sub.add_parser("invert", help="compute inverse coefficients from a problem document")
    invert.add_argument("config", help="path to a JSON problem document")
    invert.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
    invert.add_argument(
        "--det",
        action="store_true",
        help="also compute every coefficient by the determinant formula and compare",
    )
    invert.add_argument(
        "--order",
        type=int,
        default=None,
        help="truncate below the document order (lowering only)",
    )

    verify = sub.add_parser("verify", help="run randomized identity suites")
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--d", type=int, default=2, help="number of colors")
    verify.add_argument(
        "--N",
        type=int,
        default=4,
        dest="order",
        help="truncation order; every suite checks every size up to it,"
        " except species-oracles, which pins tuples only up to size 4",
    )
    verify.add_argument("--trials", type=int, default=3)

    enum = sub.add_parser("enumerate", help="count or list combinatorial structures")
    enum.add_argument("structure", choices=("maps", "trees", "crowns", "partitions"))
    enum.add_argument("--n", type=int, required=True, help="number of domain vertices")
    enum.add_argument("--sinks", type=int, default=0, help="number of sinks (maps only)")
    enum.add_argument("--list", action="store_true", help="print each structure")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "invert":
        return cmd_invert(args.config, args.output, args.det, args.order)
    if args.command == "verify":
        return cmd_verify(args.suite, args.seed, args.d, args.order, args.trials)
    return cmd_enumerate(args.structure, args.n, args.sinks, args.list)


if __name__ == "__main__":
    sys.exit(main())
