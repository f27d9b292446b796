"""Table documents (text and CSV), DOT lattice output, and JSON reports.

The CSV document is the interchange format: a Cayley block, a gyration block
of legend symbols, and one ``perm SYM: images...`` line per permutation.
Emission is byte-deterministic and lines always end with ``\\n``, so emitted
documents round-trip exactly.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analyze import SubgyrogroupLattice
from .core import (
    CheckResult,
    FiniteGyrogroup,
    VerificationReport,
    _distinct,
    _element_type,
    _identity_gyration,
    _row_blocks,
    _translations,
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
    K = len(G.perm_matrix)
    seen = np.zeros(K, dtype=bool)
    appearance = []
    # an eighth of a block at a time: np.unique's index of first appearances
    # takes 8 bytes a cell
    for rows in _row_blocks(G.order, 8 * G.order):
        if seen.all():
            break
        # the values no earlier block holds, in order of first appearance
        fresh = G.gyr_table[rows].ravel()
        values, first = np.unique(fresh[~seen[fresh]], return_index=True)
        new = values[np.argsort(first)]
        seen[new] = True
        appearance += new.tolist()
    appearance += np.flatnonzero(~seen).tolist()
    names = iter([*_LETTERS, *(f"P{c}" for c in range(len(_LETTERS), K))])
    identity = _identity_gyration(G)
    symbols = [""] * K
    for k in appearance:
        symbols[k] = "I" if k == identity else next(names)
    return symbols


def _cells(texts: list[str]) -> np.ndarray:
    """The texts as one fixed-width ASCII cell each, right-justified with NUL."""
    width = max(map(len, texts))
    cells = "".join(t.rjust(width, "\0") for t in texts).encode("ascii")
    return np.frombuffer(cells, f"V{width}")


def _block(
    labels: list[str], table: np.ndarray, sep: str, heads: list[str] | None = None
) -> Iterator[bytes]:
    """The ASCII bytes of one line per row of the table, an eighth of a block
    of rows at a time: the row's entry of ``heads``, then each entry v as
    ``labels[v] + sep``, with the line's last ``sep`` made a newline.

    Each label is encoded once as a cell and a block is one gather of the
    cells by its rows, whose index np.take casts whole to intp.  Labels and
    heads of unequal width are padded with NUL, which is removed."""
    cells = _cells([v + sep for v in labels])
    if heads is not None:
        head_cells = _cells(heads).view(np.uint8).reshape(len(heads), -1)
    for rows in _row_blocks(len(table), 8 * table.shape[1]):
        lines = np.take(cells, table[rows]).view(np.uint8)
        lines[:, -1] = ord("\n")
        if heads is not None:
            lines = np.hstack([head_cells[rows], lines])
        yield lines.tobytes().replace(b"\0", b"")


def _text_grid(title: str, labels: list[str], table: np.ndarray) -> Iterator[bytes]:
    """The title, header, rule and rows, then a blank line, right-aligned in
    columns as wide as the widest label in use or the widest index."""
    n = len(table)
    # a label not in the table is blanked, or its cell could be wider
    used = set(_distinct(table).tolist())
    shown = [v if k in used else "" for k, v in enumerate(labels)]
    width = max(len(str(n - 1)), *map(len, shown))
    head = " " * width + " | " + " ".join(f"{j:>{width}}" for j in range(n))
    rule = "-" * width + "-+-" + "-" * (n * (width + 1) - 1)
    yield f"{title}\n{head}\n{rule}\n".encode("ascii")
    heads = [f"{a:>{width}} | " for a in range(n)]
    yield from _block([v.rjust(width) for v in shown], table, " ", heads)
    yield b"\n"


def _table_pieces(G: FiniteGyrogroup, fmt: str) -> Iterator[bytes]:
    """The document of `emit_tables` as ASCII pieces of at most an eighth of a
    block of rows each, so that no temporary grows with the table."""
    if fmt not in ("text", "csv"):
        raise ValueError(f"unknown format {fmt!r} (expected 'text' or 'csv')")
    symbols = _symbols(G)
    elements = [str(x) for x in range(G.order)]
    if fmt == "csv":
        yield f"order,{G.order}\ncayley\n".encode("ascii")
        yield from _block(elements, G.cayley, ",")
        yield b"gyration\n"
        yield from _block(symbols, G.gyr_table, ",")
        yield from _block(elements, G.perm_matrix, " ", [f"perm {sym}: " for sym in symbols])
        return
    yield from _text_grid(f"cayley table (order {G.order})", elements, G.cayley)
    yield from _text_grid(f"gyration table (order {G.order})", symbols, G.gyr_table)
    legend = ["legend:"]
    for sym, p in zip(symbols, G.perms):
        legend.append(f"  {sym} = " + ("identity" if sym == "I" else p.cycle_string()))
    yield ("\n".join(legend) + "\n").encode("ascii")


def emit_tables(G: FiniteGyrogroup, fmt: str = "text") -> str:
    """Render both tables plus the permutation legend as one document."""
    return b"".join(_table_pieces(G, fmt)).decode("ascii")


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


def _int_block(
    lines: _Lines | list[str], lo: int, rows: int, n: int, delimiter: str | None
) -> np.ndarray | None:
    """``rows`` lines from ``lines[lo]`` on, of n entries in 0..n-1 each, split
    at ``delimiter`` (None: at whitespace), as one numpy conversion, or None
    when it cannot be sure of the per-token result."""
    if lo + rows > len(lines):
        return None

    def block():
        for i in range(lo, lo + rows):
            line = lines[i]
            # numpy misreads some non-ASCII characters as digits, and skips blank lines
            if not (line.isascii() and line.strip()):
                raise ValueError(f"line {i + 1} needs the per-token rules")
            yield line

    try:
        table = np.loadtxt(block(), _element_type(n), delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape == (rows, n) and table.max() < n else None


def _legend_images(entries: list[tuple[int, str, str]], n: int) -> np.ndarray:
    """The image rows of the legend lines, given as (line index, symbol,
    images text), read whole; only when that fails, or some row is not a
    bijection, do the per-line and per-token rules run, to name the first
    bad line and field."""
    bodies = [body for _, _, body in entries]
    images = _int_block(bodies, 0, len(bodies), n, None) if bodies else None
    if images is not None and (np.sort(images, axis=1) == np.arange(n)).all():
        return images
    rows = []
    for i, sym, body in entries:
        tokens = body.split()
        if len(tokens) != n:
            raise TableFormatError(
                f"line {i + 1}: permutation {sym!r} lists {len(tokens)} images, expected {n}"
            )
        values = [_parse_int(tok, i + 1, j, n) for j, tok in enumerate(tokens)]
        if sorted(values) != list(range(n)):
            raise TableFormatError(f"line {i + 1}: permutation {sym!r} is not a bijection")
        rows.append(values)
    return np.array(rows, dtype=_element_type(n)).reshape(-1, n)


class _Lines:
    """The lines of a document, which end at \\r\\n, \\r or \\n, each made
    text only when read, so no more than one is held at a time.  Bytes must
    be UTF-8; the first invalid byte raises, naming its line."""

    def __init__(self, document: bytes) -> None:
        if b"\r" in document:
            document = document.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not document.isascii():
            try:
                document.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = document.count(b"\n", 0, exc.start) + 1
                raise TableFormatError(
                    f"line {line}: invalid UTF-8 byte {document[exc.start]:#04x}"
                ) from None
        self.document = document
        # line i runs from starts[i] to the newline before starts[i + 1]
        self.starts = [0]
        while (end := document.find(b"\n", self.starts[-1])) >= 0:
            self.starts.append(end + 1)
        self.starts.append(len(document) + 1)

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i: int) -> str:
        return self.document[self.starts[i] : self.starts[i + 1] - 1].decode("utf-8")


def _one_byte_fields(lines: _Lines, lo: int, n: int) -> np.ndarray | None:
    """The field bytes of lines lo..lo+n-1, as an n×n strided uint8 view of a
    bytes document, when each of those lines is n one-byte ASCII fields, none
    a comma, each followed by a comma and the last by a newline; otherwise
    None."""
    if lo + n > len(lines):
        return None
    document, start, end = lines.document, lines.starts[lo], lines.starts[lo + n]
    # a last line without its newline ends past the document
    if end - start != 2 * n * n or end > len(document):
        return None
    pairs = np.frombuffer(document, np.uint8, 2 * n * n, start).reshape(n, n, 2)
    ends = np.full(n, ord(","), np.uint8)
    ends[-1] = ord("\n")
    if not (pairs[..., 1] == ends).all() or (pairs[..., 0] == ord(",")).any():
        return None
    return pairs[..., 0]


def _read_tables(document: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Cayley table, the gyration table as indices into the legend, and
    the legend's image rows of a CSV document, each in a narrow integer type.
    The document's text and lines live in this call only."""
    lines = _Lines(document)

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
    cayley = _int_block(lines, 2, n, n, ",")
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
        cayley = np.array(rows, dtype=_element_type(n))

    gyr_marker = 2 + n
    if line_at(gyr_marker).strip() != "gyration":
        raise TableFormatError(f"line {gyr_marker + 1}: expected 'gyration' section marker")
    fields = _one_byte_fields(lines, gyr_marker + 1, n)
    for a in range(n if fields is None else 0):
        line_no = gyr_marker + 1 + a
        # stripping removes no commas, so this counts the stripped fields
        count = line_at(line_no).count(",") + 1
        if count != n:
            raise TableFormatError(f"line {line_no + 1}: expected {n} fields, got {count}")

    legend: dict[str, int] = {}
    entries: list[tuple[int, str, str]] = []
    try:
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
            legend[sym] = len(entries)
            entries.append((i, sym, body))
    except TableFormatError:
        # the errors in the images of the lines before it come first
        _legend_images(entries, n)
        raise
    perms = _legend_images(entries, n)

    # legend symbols are stripped, so a field found as it stands needs no
    # strip; only rows with a field not found (index K) are split again
    K = len(entries)
    if fields is not None and all(len(sym) == 1 and sym.isascii() for sym in legend):
        # each field byte looked up in a table of the 256 byte values; fancy
        # indexing casts the index in pieces, where np.take would cast it whole
        index = np.full(256, K, _element_type(K + 1))
        index[[ord(sym) for sym in legend]] = range(K)
        gyr = index[fields]
    else:
        syms = itertools.chain.from_iterable(lines[gyr_marker + 1 + a].split(",") for a in range(n))
        gyr = np.fromiter(map(legend.get, syms, itertools.repeat(K)), _element_type(K + 1), n * n)
        gyr = gyr.reshape(n, n)
    for a in np.flatnonzero(gyr.max(axis=1) == K).tolist():
        for b, field in enumerate(lines[gyr_marker + 1 + a].strip().split(",")):
            sym = field.strip()
            if sym not in legend:
                raise TableFormatError(
                    f"line {gyr_marker + 2 + a}, field {b + 1}: "
                    f"symbol {sym!r} is not defined in the legend"
                )
            gyr[a, b] = legend[sym]
    return cayley, gyr, perms


def load_tables(document: str | bytes, *, strict: bool = True) -> FiniteGyrogroup:
    """Parse a CSV table document back into a gyrogroup.

    Strict mode additionally enforces latin rows/columns and the presence of
    an identity row (relabelled to 0 when it sits elsewhere).  Non-strict
    loading keeps whatever the file says so that `verify` can report axiom
    witnesses against it.  Each block is read whole; only when that fails do
    the per-token rules of `_read_tables` run, to name the first bad line and
    field.

    A ``str`` is encoded to UTF-8 once and read on the bytes path of a file,
    so a lone surrogate, which no UTF-8 file holds, fails as an invalid byte.
    """
    if isinstance(document, str):
        document = document.encode("utf-8", "surrogatepass")
    cayley, gyr, perms = _read_tables(document)
    n = len(cayley)
    if strict:
        for kind, rows in (("row", cayley), ("column", cayley.T)):
            latin = _translations(kind, rows)
            if not latin.passed:
                index, first, second = latin.witness
                raise TableFormatError(
                    f"cayley {kind} {index} repeats a value at positions {first} and {second}"
                )

    # normalize the identity to element 0 when some other row acts as one;
    # an identity row e has e ⊕ 0 = 0, so only those rows are tested
    sigma = np.arange(n, dtype=_element_type(n))
    candidates = np.flatnonzero(cayley[:, 0] == 0).tolist()
    e = next((a for a in candidates if np.array_equal(cayley[a], sigma)), None)
    if e is None and strict:
        raise TableFormatError("no left-identity row found")
    if e not in (None, 0):
        sigma[[0, e]] = sigma[[e, 0]]
        cayley = sigma[cayley[sigma[:, None], sigma[None, :]]]
        gyr = gyr[sigma[:, None], sigma[None, :]]
        perms = sigma[perms[:, sigma]]

    return FiniteGyrogroup._adopt(cayley, gyr, perms)


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
