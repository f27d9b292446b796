"""Table documents (text and CSV), DOT lattice output, and JSON reports.

The CSV document is the interchange format: a Cayley block, a gyration block
of legend symbols, and one ``perm SYM: images...`` line per permutation.
Emission is byte-deterministic and lines always end with ``\\n``, so emitted
documents round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analyze import SubgyrogroupLattice
from .core import (
    CheckResult,
    FiniteGyrogroup,
    Permutation,
    VerificationReport,
    check_left_translations,
    check_right_translations,
)

__all__ = [
    "ReportDocument",
    "TableFormatError",
    "emit_lattice_dot",
    "emit_lattice_text",
    "emit_tables",
    "load_tables",
    "report_document",
]

# I is reserved for the identity permutation; remaining symbols are assigned
# to the other permutations in list order.
_LETTERS = "ABCDEFGHJKLMNOPQRSTUVWXYZ"


class TableFormatError(ValueError):
    """Malformed table document; the message carries the 1-based location."""


def _symbols(G: FiniteGyrogroup) -> list[str]:
    # letters are handed out by first appearance in the gyration table
    # (row-major); permutations never referenced come after those
    values, first = np.unique(G.gyr_table, return_index=True)
    appearance = [int(v) for _, v in sorted(zip(first.tolist(), values.tolist()))]
    appearance += [k for k in range(len(G.perms)) if k not in set(appearance)]
    symbols: list[str] = [""] * len(G.perms)
    counter = 0
    for k in appearance:
        if G.perms[k].is_identity:
            symbols[k] = "I"
        elif counter < len(_LETTERS):
            symbols[k] = _LETTERS[counter]
            counter += 1
        else:
            symbols[k] = f"P{counter}"
            counter += 1
    return symbols


def _text_grid(rows: list[list[str]]) -> list[str]:
    n = len(rows)
    width = max(len(str(n - 1)), max(len(v) for row in rows for v in row))
    head = " " * width + " | " + " ".join(f"{j:>{width}}" for j in range(n))
    sep = "-" * width + "-+-" + "-" * (n * (width + 1) - 1)
    lines = [head, sep]
    for a, row in enumerate(rows):
        lines.append(f"{a:>{width}} | " + " ".join(f"{v:>{width}}" for v in row))
    return lines


def emit_tables(G: FiniteGyrogroup, fmt: str = "text") -> str:
    """Render both tables plus the permutation legend as one document."""
    symbols = _symbols(G)
    cayley_rows = [[str(int(v)) for v in row] for row in G.cayley]
    gyr_rows = [[symbols[int(k)] for k in row] for row in G.gyr_table]

    if fmt == "csv":
        lines = [f"order,{G.order}", "cayley"]
        lines += [",".join(row) for row in cayley_rows]
        lines.append("gyration")
        lines += [",".join(row) for row in gyr_rows]
        for sym, p in zip(symbols, G.perms):
            lines.append(f"perm {sym}: " + " ".join(str(v) for v in p.images))
        return "\n".join(lines) + "\n"

    if fmt == "text":
        lines = [f"cayley table (order {G.order})"]
        lines += _text_grid(cayley_rows)
        lines.append("")
        lines.append(f"gyration table (order {G.order})")
        lines += _text_grid(gyr_rows)
        lines.append("")
        lines.append("legend:")
        for sym, p in zip(symbols, G.perms):
            lines.append(f"  {sym} = " + ("identity" if p.is_identity else p.cycle_string()))
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown format {fmt!r} (expected 'text' or 'csv')")


def _parse_int(token: str, line_no: int, col: int, limit: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise TableFormatError(
            f"line {line_no}, field {col + 1}: {token!r} is not an integer"
        ) from None
    if not 0 <= value < limit:
        raise TableFormatError(
            f"line {line_no}, field {col + 1}: entry {value} out of range 0..{limit - 1}"
        )
    return value


def load_tables(document: str | bytes, *, strict: bool = True) -> FiniteGyrogroup:
    """Parse a CSV table document back into a gyrogroup.

    Strict mode additionally enforces latin rows/columns and the presence of
    an identity row (relabelled to 0 when it sits elsewhere).  Non-strict
    loading keeps whatever the file says so that `verify` can report axiom
    witnesses against it.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    lines = document.replace("\r\n", "\n").replace("\r", "\n").split("\n")

    def line_at(i: int) -> str:
        if i >= len(lines):
            raise TableFormatError(f"line {i + 1}: unexpected end of document")
        return lines[i]

    header = line_at(0).strip()
    if not header.startswith("order,"):
        raise TableFormatError("line 1: expected 'order,N' header")
    try:
        n = int(header.split(",", 1)[1])
    except ValueError:
        raise TableFormatError("line 1: order is not an integer") from None
    if n <= 0:
        raise TableFormatError("line 1: order must be positive")

    if line_at(1).strip() != "cayley":
        raise TableFormatError("line 2: expected 'cayley' section marker")
    cayley = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        line_no = 2 + a
        fields = line_at(line_no).strip().split(",")
        if len(fields) != n:
            raise TableFormatError(
                f"line {line_no + 1}: expected {n} fields, got {len(fields)}"
            )
        for j, tok in enumerate(fields):
            cayley[a, j] = _parse_int(tok.strip(), line_no + 1, j, n)

    gyr_marker = 2 + n
    if line_at(gyr_marker).strip() != "gyration":
        raise TableFormatError(f"line {gyr_marker + 1}: expected 'gyration' section marker")
    symbol_rows: list[list[str]] = []
    for a in range(n):
        line_no = gyr_marker + 1 + a
        fields = [f.strip() for f in line_at(line_no).strip().split(",")]
        if len(fields) != n:
            raise TableFormatError(
                f"line {line_no + 1}: expected {n} fields, got {len(fields)}"
            )
        symbol_rows.append(fields)

    legend: dict[str, int] = {}
    perms: list[Permutation] = []
    for i in range(gyr_marker + 1 + n, len(lines)):
        line = lines[i].strip()
        if not line:
            continue
        if not line.startswith("perm "):
            raise TableFormatError(f"line {i + 1}: expected 'perm SYM: images' line")
        head, _, body = line[5:].partition(":")
        sym = head.strip()
        if not sym:
            raise TableFormatError(f"line {i + 1}: empty permutation symbol")
        if sym in legend:
            raise TableFormatError(f"line {i + 1}: duplicate legend symbol {sym!r}")
        images = body.split()
        if len(images) != n:
            raise TableFormatError(
                f"line {i + 1}: permutation {sym!r} lists {len(images)} images, expected {n}"
            )
        values = tuple(_parse_int(tok, i + 1, j, n) for j, tok in enumerate(images))
        if sorted(values) != list(range(n)):
            raise TableFormatError(f"line {i + 1}: permutation {sym!r} is not a bijection")
        legend[sym] = len(perms)
        perms.append(Permutation(values))

    gyr = np.empty((n, n), dtype=np.int64)
    for a, row in enumerate(symbol_rows):
        for b, sym in enumerate(row):
            if sym not in legend:
                raise TableFormatError(
                    f"line {gyr_marker + 2 + a}, field {b + 1}: "
                    f"symbol {sym!r} is not defined in the legend"
                )
            gyr[a, b] = legend[sym]

    if strict:
        block = FiniteGyrogroup.from_group(cayley)
        checks = {"row": check_left_translations, "column": check_right_translations}
        for kind, check in checks.items():
            latin = check(block)
            if not latin.passed:
                index, first, second = latin.witness
                raise TableFormatError(
                    f"cayley {kind} {index} repeats a value at positions {first} and {second}"
                )

    # normalize the identity to element 0 when some other row acts as one
    identity_row = None
    target = np.arange(n)
    for e in range(n):
        if np.array_equal(cayley[e], target):
            identity_row = e
            break
    if identity_row is None and strict:
        raise TableFormatError("no left-identity row found")
    if identity_row not in (None, 0):
        sigma = np.arange(n)
        sigma[[0, identity_row]] = sigma[[identity_row, 0]]
        cayley = sigma[cayley[sigma[:, None], sigma[None, :]]]
        gyr = gyr[sigma[:, None], sigma[None, :]]
        perms = [
            Permutation(tuple(int(sigma[p(int(sigma[x]))]) for x in range(n)))
            for p in perms
        ]

    return FiniteGyrogroup(cayley, gyr, perms)


def emit_lattice_dot(lattice: SubgyrogroupLattice) -> str:
    """DOT digraph, bottom-up: one node per subgyrogroup, one edge per cover."""
    lines = ["digraph subgyrogroup_lattice {", "  rankdir=BT;"]
    for i, node in enumerate(lattice.nodes):
        lines.append(f'  n{i} [label="{node.label()} (order {node.order})"];')
    for child, parent in lattice.covers:
        lines.append(f"  n{child} -> n{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_lattice_text(lattice: SubgyrogroupLattice) -> str:
    lines = []
    for i, node in enumerate(lattice.nodes):
        elems = ",".join(str(e) for e in node.elements)
        kind = "group" if node.is_group else "non-group"
        lines.append(f"{i}: {node.label()} order {node.order} ({kind}) = {{{elems}}}")
    lines.append("covers: " + " ".join(f"{c}->{p}" for c, p in lattice.covers))
    return "\n".join(lines) + "\n"


@dataclass
class ReportDocument:
    """Structured verification report; serializes losslessly to JSON."""

    params: dict
    checks: list[dict]
    gyrocommutative: bool
    subgyrogroup_count: int | None
    gyroauto_order: int

    def to_json(self) -> str:
        payload = {
            "params": self.params,
            "checks": self.checks,
            "gyrocommutative": self.gyrocommutative,
            "subgyrogroup_count": self.subgyrogroup_count,
            "gyroauto_order": self.gyroauto_order,
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        data = json.loads(text)
        return cls(
            params=data["params"],
            checks=data["checks"],
            gyrocommutative=data["gyrocommutative"],
            subgyrogroup_count=data["subgyrogroup_count"],
            gyroauto_order=data["gyroauto_order"],
        )

    @property
    def all_passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)


def _check_item(result: CheckResult) -> dict:
    item = {
        "name": result.name,
        "status": "pass" if result.passed else "fail",
        "witness": list(result.witness) if result.witness is not None else None,
    }
    if result.note:
        item["note"] = result.note
    return item


def report_document(
    report: VerificationReport,
    *,
    params: dict,
    subgyrogroup_count: int | None,
    gyroauto_order: int,
) -> ReportDocument:
    params = dict(params)
    params["sampled"] = report.sampled
    if report.sampled:
        params["seed"] = report.seed
        params["sample_size"] = report.sample_size
    return ReportDocument(
        params=params,
        checks=[_check_item(c) for c in report.checks],
        gyrocommutative=report.gyrocommutative,
        subgyrogroup_count=subgyrogroup_count,
        gyroauto_order=gyroauto_order,
    )
