"""Peak traced memory of three public calls, each measured alone with tracemalloc.

Usage: python peaks.py TABLES_CSV

Prints one JSON object: the peak of ``verify`` on the order-512 construction,
of ``load_tables`` on TABLES_CSV (loaded leniently, as ``check`` does) and of
``enumerate_subgyrogroups`` on the order-128 construction, in MiB.  These run
in their own process, apart from the timed spans, because tracemalloc slows
the Python-level parsing and closure loops many times over.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path


def peak_mb(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    from gyrogroups import build_cyclic_gyrogroup, enumerate_subgyrogroups, load_tables, verify

    document = Path(argv[0]).read_text(encoding="utf-8")
    peaks = {
        "core.verify_peak_mb": peak_mb(verify, build_cyclic_gyrogroup(9)),
        "formats.load_tables_peak_mb": peak_mb(load_tables, document, strict=False),
        "analyze.enumerate_peak_mb": peak_mb(enumerate_subgyrogroups, build_cyclic_gyrogroup(7)),
    }
    print(json.dumps(peaks))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
