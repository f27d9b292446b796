"""Benchmark inputs and expected outputs, computed without the gyrogroups package.

Every table the benchmark feeds to the CLI is written here from numpy arrays,
so a change to the package's own writers or construction cannot change the
inputs it is measured on.  The same arrays give the expected outputs the
harness checks against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tables:
    """A Cayley table, a gyration-symbol grid and the legend (symbol, images)."""

    cayley: np.ndarray
    symbols: np.ndarray
    legend: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def order(self) -> int:
        return int(self.cayley.shape[0])


def construction(n: int) -> Tables:
    """The order-2**n construction from its four-case rule.

    With m = 2**(n-1): the sum i + j (plus m/2 when i is even-high and j is
    odd) is reduced mod m and lands in the upper half exactly when i and j lie
    in different halves.  The half-shift map (add m/2 mod m to odd elements)
    gyrates the pairs odd-low/high, odd-high/(odd-low or even-high) and
    even-high/odd; every other pair gyrates by the identity.
    """
    order = 1 << n
    m = order // 2
    half = m // 2
    i = np.arange(order)[:, None]
    j = np.arange(order)[None, :]
    i_high, j_high = i >= m, j >= m
    i_odd, j_odd = i % 2 == 1, j % 2 == 1
    even_high_i = i_high & ~i_odd
    cayley = (i + j + np.where(even_high_i & j_odd, half, 0)) % m + np.where(
        i_high != j_high, m, 0
    )
    gyrates = (
        (i_odd & ~i_high & j_high)
        | (i_odd & i_high & (j_odd != j_high))
        | (even_high_i & j_odd)
    )
    x = np.arange(order)
    shift = np.where(x % 2 == 1, (x % m + half) % m + (x >= m) * m, x)
    legend = (("I", tuple(range(order))), ("A", tuple(int(v) for v in shift)))
    return Tables(cayley, np.where(gyrates, "A", "I"), legend)


def flip_gyration(tables: Tables, a: int, b: int) -> Tables:
    """Copy of ``tables`` with the gyration symbol at (a, b) changed from I to A."""
    if tables.symbols[a, b] != "I":
        raise ValueError(f"gyration at ({a}, {b}) is not the identity")
    symbols = tables.symbols.copy()
    symbols[a, b] = "A"
    return Tables(tables.cayley, symbols, tables.legend)


def elementary_abelian(n: int) -> Tables:
    """Z2^n as a gyrogroup: a ⊕ b = a XOR b with every gyration the identity."""
    x = np.arange(1 << n)
    return Tables(
        x[:, None] ^ x[None, :],
        np.full((1 << n, 1 << n), "I"),
        (("I", tuple(range(1 << n))),),
    )


def relabel_fixing_zero(tables: Tables, rng: np.random.Generator) -> tuple[Tables, np.ndarray]:
    """An isomorphic copy under a random bijection sigma with sigma(0) = 0.

    Returns the copy and sigma, where sigma[x] is the new label of x.
    """
    order = tables.order
    sigma = np.concatenate(([0], 1 + rng.permutation(order - 1)))
    cayley = np.empty_like(tables.cayley)
    cayley[sigma[:, None], sigma[None, :]] = sigma[tables.cayley]
    symbols = np.empty_like(tables.symbols)
    symbols[sigma[:, None], sigma[None, :]] = tables.symbols
    legend = []
    for sym, images in tables.legend:
        moved = np.empty(order, dtype=np.int64)
        moved[sigma] = sigma[np.asarray(images)]
        legend.append((sym, tuple(int(v) for v in moved)))
    return Tables(cayley, symbols, tuple(legend)), sigma


def tables_csv(tables: Tables) -> str:
    """The CSV table document: Cayley block, gyration block, one perm line per symbol."""
    lines = [f"order,{tables.order}", "cayley"]
    lines += [",".join(map(str, row.tolist())) for row in tables.cayley]
    lines.append("gyration")
    lines += [",".join(row.tolist()) for row in tables.symbols]
    lines += [f"perm {sym}: " + " ".join(map(str, images)) for sym, images in tables.legend]
    return "\n".join(lines) + "\n"


def _cycles(images: tuple[int, ...]) -> str:
    seen = set()
    parts = []
    for start, image in enumerate(images):
        if start in seen or image == start:
            continue
        cycle = [start]
        seen.add(start)
        x = images[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = images[x]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def _grid(cells: np.ndarray) -> list[str]:
    n = cells.shape[0]
    width = max(len(str(n - 1)), max(len(v) for v in cells.ravel().tolist()))
    padded = np.char.rjust(cells, width).tolist()
    lines = [
        " " * width + " | " + " ".join(f"{j:>{width}}" for j in range(n)),
        "-" * width + "-+-" + "-" * (n * (width + 1) - 1),
    ]
    lines += [f"{a:>{width}} | " + " ".join(row) for a, row in enumerate(padded)]
    return lines


def tables_text(tables: Tables) -> str:
    """The default text document: two right-aligned grids and the legend in cycle notation."""
    n = tables.order
    lines = [f"cayley table (order {n})", *_grid(tables.cayley.astype(str)), ""]
    lines += [f"gyration table (order {n})", *_grid(tables.symbols), "", "legend:"]
    for sym, images in tables.legend:
        identity = all(v == x for x, v in enumerate(images))
        lines.append(f"  {sym} = " + ("identity" if identity else _cycles(images)))
    return "\n".join(lines) + "\n"
