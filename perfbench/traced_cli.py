"""Run one gyrogroups CLI command with a span around every call into a public function.

Usage: python traced_cli.py SPANS_JSON -- CLI_ARGS...

The public functions listed in TRACED are replaced, from outside the package,
in every module namespace that refers to them, so calls the package makes
internally are recorded too, with the calling span as parent.  Spans are kept
in memory and written to SPANS_JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = {
    "construct": ("build_cyclic_gyrogroup",),
    "core": (
        "verify",
        "check_left_translations",
        "check_right_translations",
        "check_left_identity",
        "check_left_inverses",
        "check_gyr_automorphisms",
        "check_left_gyroassociativity",
        "check_loop_property",
        "check_gyrator_identity",
        "check_gyrocommutative",
    ),
    "formats": ("emit_tables", "load_tables", "emit_lattice_dot", "report_document"),
    "analyze": (
        "enumerate_subgyrogroups",
        "classify_subgyrogroups",
        "gyroautomorphism_group",
        "gyroholomorph",
        "holomorph_structure_matches",
        "isomorphic",
    ),
    "groups": ("first_group_axiom_violation", "group_invariants"),
}


def _summary(name: str, args: tuple, result) -> dict:
    """Counts read off a call's arguments and result, for work-done metrics."""
    if name == "core.verify":
        return {
            "order": args[0].order,
            "sampled": result.sampled,
            "sample_size": result.sample_size,
            "witnesses": {c.name: c.witness for c in result.checks},
        }
    if name == "analyze.enumerate_subgyrogroups":
        return {"order": args[0].order, "nodes": len(result.nodes), "covers": len(result.covers)}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_summary(name, args, result))
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Swap each traced function for its wrapper wherever a module holds it,
        including inside module-level tuples such as a list of checks."""
        wrapped = {}
        for short, names in TRACED.items():
            for attr in names:
                fn = getattr(modules[short], attr)
                wrapped[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, tuple) and any(id(v) in wrapped for v in value):
                    setattr(module, attr, tuple(wrapped.get(id(v), v) for v in value))
        document = modules["formats"].ReportDocument
        document.to_json = self.wrap("formats.ReportDocument.to_json", document.to_json)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    from gyrogroups import analyze, cli, construct, core, formats, groups

    tracer.spans.append({"id": 0, "name": "cli.import", "parent": None,
                         "start": start, "end": time.perf_counter()})
    tracer.install({"cli": cli, "construct": construct, "core": core,
                    "formats": formats, "analyze": analyze, "groups": groups})
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
