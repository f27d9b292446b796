"""Table documents (text and CSV), DOT lattice output, and JSON reports.

The CSV document is the interchange format: a Cayley block, a gyration block
of legend symbols, and one ``perm SYM: images...`` line per permutation.
Emission is byte-deterministic and lines always end with ``\\n``, so emitted
documents round-trip exactly.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analyze import SubgyrogroupLattice
from .core import (
    CheckResult,
    FiniteGyrogroup,
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
    identity = (G.perm_matrix == np.arange(G.order)).all(axis=1).tolist()
    values, first = np.unique(G.gyr_table, return_index=True)
    appearance = values[np.argsort(first)].tolist()
    appearance += sorted(set(range(len(identity))).difference(appearance))
    names = iter([*_LETTERS, *(f"P{c}" for c in range(len(_LETTERS), len(identity)))])
    symbols = [""] * len(identity)
    for k in appearance:
        symbols[k] = "I" if identity[k] else next(names)
    return symbols


def _label_rows(labels: list[str], table: np.ndarray) -> list[list[str]]:
    """The table as rows of strings, entry v written as labels[v]."""
    return np.array(labels, dtype=object)[table].tolist()


def _text_grid(labels: list[str], table: np.ndarray) -> list[str]:
    """Header, rule and one line per row, right-aligned in columns as wide as
    the widest label in use or the widest index."""
    n = len(table)
    width = max(len(str(n - 1)), *(len(labels[k]) for k in np.unique(table).tolist()))
    line = f"%{width}s | " + " ".join([f"%{width}s"] * n)
    sep = "-" * width + "-+-" + "-" * (n * (width + 1) - 1)
    rows = _label_rows(labels, table)
    return [line % ("", *range(n)), sep] + [line % (a, *row) for a, row in enumerate(rows)]


def emit_tables(G: FiniteGyrogroup, fmt: str = "text") -> str:
    """Render both tables plus the permutation legend as one document."""
    symbols = _symbols(G)
    elements = [str(x) for x in range(G.order)]

    if fmt == "csv":
        lines = [f"order,{G.order}", "cayley"]
        lines += [",".join(row) for row in _label_rows(elements, G.cayley)]
        lines.append("gyration")
        lines += [",".join(row) for row in _label_rows(symbols, G.gyr_table)]
        for sym, images in zip(symbols, G.perm_matrix.tolist()):
            lines.append(f"perm {sym}: " + " ".join(map(str, images)))
        return "\n".join(lines) + "\n"

    if fmt == "text":
        lines = [f"cayley table (order {G.order})"]
        lines += _text_grid(elements, G.cayley)
        lines.append("")
        lines.append(f"gyration table (order {G.order})")
        lines += _text_grid(symbols, G.gyr_table)
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


def _int_block(block: list[str], n: int) -> np.ndarray | None:
    """n lines of n comma-separated entries in 0..n-1 as one numpy
    conversion, or None when it cannot be sure of the per-token result."""
    # numpy misreads some non-ASCII characters as digits, and skips blank lines
    if len(block) != n or not all(line.isascii() and line.strip() for line in block):
        return None
    try:
        table = np.loadtxt(block, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape == (n, n) and 0 <= table.min() and table.max() < n else None


def load_tables(document: str | bytes, *, strict: bool = True) -> FiniteGyrogroup:
    """Parse a CSV table document back into a gyrogroup.

    Strict mode additionally enforces latin rows/columns and the presence of
    an identity row (relabelled to 0 when it sits elsewhere).  Non-strict
    loading keeps whatever the file says so that `verify` can report axiom
    witnesses against it.  Each block is read whole; only when that fails do
    the per-token rules below run, to name the first bad line and field.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = document[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            line = head.count(b"\n") + 1
            raise TableFormatError(
                f"line {line}: invalid UTF-8 byte {document[exc.start]:#04x}"
            ) from None
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
    cayley = _int_block(lines[2 : 2 + n], n)
    if cayley is None:
        # rows are kept as lists, so a huge stated order allocates nothing
        rows = []
        for a in range(n):
            line_no = 2 + a
            tokens = line_at(line_no).strip().split(",")
            if len(tokens) != n:
                raise TableFormatError(
                    f"line {line_no + 1}: expected {n} fields, got {len(tokens)}"
                )
            rows.append([_parse_int(t.strip(), line_no + 1, j, n) for j, t in enumerate(tokens)])
        cayley = np.array(rows, dtype=np.int64)

    gyr_marker = 2 + n
    if line_at(gyr_marker).strip() != "gyration":
        raise TableFormatError(f"line {gyr_marker + 1}: expected 'gyration' section marker")
    symbol_lines: list[str] = []
    for a in range(n):
        line_no = gyr_marker + 1 + a
        symbol_lines.append(line_at(line_no))
        # stripping removes no commas, so this counts the stripped fields
        count = symbol_lines[-1].count(",") + 1
        if count != n:
            raise TableFormatError(f"line {line_no + 1}: expected {n} fields, got {count}")

    legend: dict[str, int] = {}
    perms: list[tuple[int, ...]] = []
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
        perms.append(values)

    # legend symbols are stripped, so a field found as it stands needs no
    # strip; only rows with a field not found are split again
    syms = itertools.chain.from_iterable(line.split(",") for line in symbol_lines)
    gyr = np.fromiter(map(legend.get, syms, itertools.repeat(-1)), np.int64, n * n).reshape(n, n)
    for a in np.flatnonzero((gyr < 0).any(axis=1)).tolist():
        for b, field in enumerate(symbol_lines[a].strip().split(",")):
            sym = field.strip()
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
    identity_rows = np.flatnonzero((cayley == np.arange(n)).all(axis=1))
    if not identity_rows.size and strict:
        raise TableFormatError("no left-identity row found")
    if identity_rows.size and identity_rows[0] != 0:
        sigma = np.arange(n)
        sigma[[0, identity_rows[0]]] = sigma[[identity_rows[0], 0]]
        cayley = sigma[cayley[sigma[:, None], sigma[None, :]]]
        gyr = gyr[sigma[:, None], sigma[None, :]]
        perms = sigma[np.array(perms)[:, sigma]]

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
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        data = json.loads(text)
        return cls(**{field.name: data[field.name] for field in fields(cls)})

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
