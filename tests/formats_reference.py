"""The table-document code as it was before it moved to whole-array work.

These are the per-token loader, the per-entry emitter and the dictionary-scan
latin checks, kept verbatim as oracles: the array versions in
``gyrogroups.formats`` and ``gyrogroups.core`` must give the same documents,
tables, witnesses and error messages.
"""

import numpy as np

from gyrogroups.core import CheckResult, FiniteGyrogroup, Permutation
from gyrogroups.formats import TableFormatError

# I is reserved for the identity permutation; remaining symbols are assigned
# to the other permutations in list order.
_LETTERS = "ABCDEFGHJKLMNOPQRSTUVWXYZ"


def _first_duplicate(row: np.ndarray) -> tuple[int, int] | None:
    seen: dict[int, int] = {}
    for j, v in enumerate(row.tolist()):
        if v in seen:
            return seen[v], j
        seen[v] = j
    return None


def ref_left_translations(G: FiniteGyrogroup) -> CheckResult:
    """Every row of the Cayley table is a permutation; witness (a, j1, j2)."""
    C = G.cayley
    ok = (np.sort(C, axis=1) == np.arange(G.order)).all(axis=1)
    for a in np.nonzero(~ok)[0][:1]:
        dup = _first_duplicate(C[a])
        assert dup is not None
        return CheckResult("left_translations_bijective", False, (int(a), dup[0], dup[1]))
    return CheckResult("left_translations_bijective", True)


def ref_right_translations(G: FiniteGyrogroup) -> CheckResult:
    """Every column of the Cayley table is a permutation; witness (b, a1, a2)."""
    C = G.cayley
    ok = (np.sort(C, axis=0) == np.arange(G.order)[:, None]).all(axis=0)
    for b in np.nonzero(~ok)[0][:1]:
        dup = _first_duplicate(C[:, b])
        assert dup is not None
        return CheckResult("right_translations_bijective", False, (int(b), dup[0], dup[1]))
    return CheckResult("right_translations_bijective", True)


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


def ref_emit_tables(G: FiniteGyrogroup, fmt: str = "text") -> str:
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


def ref_load_tables(document: str | bytes, *, strict: bool = True) -> FiniteGyrogroup:
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
        checks = {"row": ref_left_translations, "column": ref_right_translations}
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
