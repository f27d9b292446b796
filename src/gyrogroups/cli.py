"""Command-line interface: build, verify, lattice, holomorph, iso, check."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from pathlib import Path

from .analyze import (
    classify_subgyrogroups,
    enumerate_subgyrogroups,
    gyroautomorphism_group,
    gyroholomorph,
    holomorph_structure_matches,
    isomorphic,
)
from .construct import build_cyclic_gyrogroup
from .core import FiniteGyrogroup, GyrogroupDataError, VerificationReport, verify
from .formats import (
    TableFormatError,
    _table_pieces,
    emit_lattice_dot,
    emit_lattice_text,
    load_tables,
    report_document,
)

# orders above this skip lattice enumeration in reports
_ENUMERATION_CAP = 64


def _write_output(pieces: Iterable[bytes], out: str | None) -> None:
    """Write the UTF-8 pieces one at a time to the file ``out``, in binary, so
    no newline is translated, or else to stdout."""
    if out is None:
        for piece in pieces:
            sys.stdout.write(piece.decode("utf-8"))
    else:
        with open(out, "wb") as f:
            f.writelines(pieces)


def _print_report(report: VerificationReport) -> None:
    for check in report.checks:
        if check.passed:
            print(f"{check.name}: pass")
        else:
            note = f" ({check.note})" if check.note else ""
            print(f"{check.name}: FAIL witness={check.witness}{note}")
    verdict = "all checks passed" if report.passed else "verification FAILED"
    scope = " [sampled scan]" if report.sampled else ""
    print(f"{verdict}{scope}")


def _report_json(
    G: FiniteGyrogroup, report: VerificationReport, params: dict
) -> str:
    if "n" in params:
        count = len(classify_subgyrogroups(params["n"]))
    elif G.order <= _ENUMERATION_CAP and report.passed:
        count = len(enumerate_subgyrogroups(G).nodes)
    else:
        count = None
    doc = report_document(
        report,
        params=params,
        subgyrogroup_count=count,
        gyroauto_order=len(gyroautomorphism_group(G)),
    )
    return doc.to_json()


def _cmd_build(args: argparse.Namespace) -> int:
    G = build_cyclic_gyrogroup(args.n)
    _write_output(_table_pieces(G, args.format), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    G = build_cyclic_gyrogroup(args.n)
    report = verify(G)
    _print_report(report)
    if args.report is not None:
        Path(args.report).write_text(
            _report_json(G, report, {"n": args.n, "order": G.order}), encoding="utf-8"
        )
    return 0 if report.passed else 1


def _cmd_lattice(args: argparse.Namespace) -> int:
    G = build_cyclic_gyrogroup(args.n)
    lattice = enumerate_subgyrogroups(G)
    text = emit_lattice_dot(lattice) if args.dot else emit_lattice_text(lattice)
    _write_output([text.encode("utf-8")], args.out)
    return 0


def _cmd_holomorph(args: argparse.Namespace) -> int:
    G = build_cyclic_gyrogroup(args.n)
    hol = gyroholomorph(G)
    print(f"gyroholomorph order: {hol.order}")
    print(f"invariants: {hol.invariants.describe()}")
    matches = holomorph_structure_matches(hol)
    if not matches:
        print("matched structure: none of the Z2 x (Z_m : Z2) candidates")
    for name, _ in matches:
        print(f"matched structure: {name}")
    return 0


def _load_file(path: str, *, strict: bool) -> FiniteGyrogroup:
    return load_tables(Path(path).read_bytes(), strict=strict)


def _cmd_iso(args: argparse.Namespace) -> int:
    left = _load_file(args.left, strict=True)
    right = _load_file(args.right, strict=True)
    for side, G in (("left", left), ("right", right)):
        report = verify(G)
        # gyrocommutativity is a property of some gyrogroups, not an axiom
        if not all(c.passed for c in report.checks if c.name != "gyrocommutativity"):
            fails = ", ".join(c.name for c in report.failures())
            print(f"{side} input is not a gyrogroup (failed: {fails})", file=sys.stderr)
            return 1
    try:
        phi = isomorphic(left, right)
    except ValueError as exc:
        # the search cap: both inputs are valid, so this is no argument error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if phi is None:
        print("not isomorphic")
        return 1
    print(f"isomorphic: {phi.cycle_string()}")
    print("images: " + " ".join(str(v) for v in phi.images))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # lenient load: structural axiom failures should surface as verify
    # witnesses rather than parse-time rejections
    G = _load_file(args.file, strict=False)
    report = verify(G)
    _print_report(report)
    if args.report is not None:
        Path(args.report).write_text(
            _report_json(G, report, {"order": G.order, "source": args.file}),
            encoding="utf-8",
        )
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyrogroups",
        description="Construct, verify, and analyze finite gyrogroups built from cyclic 2-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit the Cayley and gyration tables for order 2**n")
    p.add_argument("--n", type=int, required=True, help="exponent, n >= 3")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run the full axiom suite on the order-2**n tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--report", help="write a JSON report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lattice", help="enumerate the subgyrogroup lattice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a text listing")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("holomorph", help="build the gyroholomorph and identify its structure")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_holomorph)

    p = sub.add_parser("iso", help="exhaustive isomorphism search between two table files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("check", help="load a table file and run the full axiom suite")
    p.add_argument("file")
    p.add_argument("--report", help="write a JSON report to this path")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TableFormatError, GyrogroupDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad construction parameters and similar argument-level problems
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
