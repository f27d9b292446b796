"""Benchmark of the gyrogroups CLI: end-to-end passes and a traced per-module run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-512 --seed 1 --seconds 55 --trace 0

Load is closed-loop with one client: the harness runs one CLI command at a
time, each in a fresh interpreter (``python -m gyrogroups.cli ...``), with the
package imported from ``src/`` of the checkout.  A *pass* is the workload's
full command list in order (``interchange-structure`` runs two of the three
command lists one after the other).  Every command's output is checked (see
workloads.py); a wrong exit code or output counts as failed.

``--trace 0`` runs passes of the named workload for about ``--seconds``
(after the first whole pass, a step starts only while it is expected to end
in time) and reports the end-to-end metrics.  ``wall_norm_s`` is the sum of
the steps' median times and ``setup_s`` the median set-up time, both scaled to
a nominal host speed by the median time of a fixed reference work (class
Reference) timed before each step.  ``--trace 1`` runs rounds for about ``--seconds``
(at least one, and another only while it is expected to end in time): each
round runs an untraced and a traced pass (traced_cli.py) of all three command
lists and the tracemalloc probe (peaks.py), and the per-module metrics are
medians over rounds.  Its spans are written to
.perfbench_work/spans-<workload>-seed<seed>.json.  The last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import (
    CYCLIC128_COVERS,
    CYCLIC128_NODES,
    PARTS,
    WORKLOADS,
    Z2E5_COVERS,
    Z2E5_NODES,
    Outcome,
    Step,
    steps,
    write_inputs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Every run must end well inside three minutes, whatever the program does.
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 7
STARTUP_REPEATS = 5

# metric names and units, in the order of BENCHMARK.json
END_TO_END = {"wall_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
STEP_NAMES = ("verify", "check_flipped", "build_csv", "build_text", "check_sampled",
              "lattice", "check_z2e5", "holomorph", "iso")
PER_LAYER = {
    "cli.startup_s": "s",
    **{f"cli.{name}_s": "s" for name in STEP_NAMES},
    "cli.cpu_s": "s",
    "core.verify_s": "s",
    "core.check_left_gyroassociativity_s": "s",
    "core.check_gyrator_identity_s": "s",
    "core.pair_checks_s": "s",
    "core.sampled_scan_s": "s",
    "core.triples_checked": "count",
    "core.triples_per_s": "1/s",
    "core.verify_peak_mb": "MB",
    "formats.emit_tables_csv_s": "s",
    "formats.emit_tables_text_s": "s",
    "formats.load_tables_s": "s",
    "formats.load_mb_per_s": "MB/s",
    "formats.csv_bytes": "count",
    "formats.load_tables_peak_mb": "MB",
    "formats.emit_lattice_dot_s": "s",
    "formats.report_json_s": "s",
    "analyze.enumerate_subgyrogroups.cyclic128_s": "s",
    "analyze.enumerate_subgyrogroups.z2e5_s": "s",
    "analyze.enumerate_peak_mb": "MB",
    "analyze.lattice_nodes": "count",
    "analyze.lattice_covers": "count",
    "analyze.gyroholomorph_s": "s",
    "analyze.holomorph_structure_matches_s": "s",
    "analyze.isomorphic_s": "s",
    "analyze.gyroautomorphism_group_s": "s",
    "analyze.classify_subgyrogroups_s": "s",
    "construct.build_cyclic_gyrogroup_s": "s",
    "groups.first_group_axiom_violation_s": "s",
    "groups.group_invariants_s": "s",
    "trace.overhead_ratio": "ratio",
}

PAIR_CHECKS = (
    "core.check_left_translations",
    "core.check_right_translations",
    "core.check_left_identity",
    "core.check_left_inverses",
    "core.check_gyr_automorphisms",
    "core.check_loop_property",
    "core.check_gyrocommutative",
)
TRIPLE_CHECKS = {
    "core.check_left_gyroassociativity": "left_gyroassociativity",
    "core.check_gyrator_identity": "gyrator_identity",
}
# lattice sizes the traced run checks on the enumeration it observes
LATTICE_SIZES = {"lattice": (CYCLIC128_NODES, CYCLIC128_COVERS), "check_z2e5": (Z2E5_NODES, Z2E5_COVERS)}
PEAK_NAMES = ("core.verify_peak_mb", "formats.load_tables_peak_mb", "analyze.enumerate_peak_mb")


class RunAborted(Exception):
    """A command did not finish before the run's time limit."""


@dataclass
class Measured:
    """One command's wall-clock time, CPU time, peak RSS and outcome."""

    step: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    outcome: Outcome
    spans: list[dict] = field(default_factory=list)


class Runner:
    """Runs CLI commands one at a time and counts the ones that fail their checks."""

    def __init__(self, root: Path, deadline: float) -> None:
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.deadline = deadline
        self.spawner: subprocess.Popen | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, step: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{step}: {p}" for p in problems]

    @property
    def failed_ratio(self) -> float:
        return self.failed / max(self.attempted, 1)

    def command(self, argv: list[str], cwd: Path, step: str) -> Measured:
        """Run argv to completion through spawn.py; wall time from spawn to
        exit, CPU time and peak RSS from wait4."""
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, str(HERE / "spawn.py")], env=self.env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        request = {"argv": argv, "cwd": str(cwd), "seconds": self.deadline - time.perf_counter()}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        if reply["killed"]:
            raise RunAborted(f"{step} still running at the run's time limit")
        return Measured(
            step,
            reply["wall_s"],
            reply["cpu_s"],
            reply["rss_kb"] / 1024,  # KiB on Linux
            Outcome(
                os.waitstatus_to_exitcode(reply["status"]),
                (cwd / "stdout.txt").read_bytes().decode("utf-8", "replace"),
                cwd,
            ),
        )

    def close(self) -> None:
        """Stop spawn.py and wait for it to end."""
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None

    def step(self, step: Step, cwd: Path, prefix: list[str]) -> Measured:
        try:
            measured = self.command([*prefix, *step.argv], cwd, step.name)
        except RunAborted as exc:
            self.record(step.name, [str(exc)])
            raise
        self.record(step.name, step.check(measured.outcome))
        return measured


CLI = [sys.executable, "-m", "gyrogroups.cli"]


def _exits_zero(outcome: Outcome) -> list[str]:
    return [] if outcome.returncode == 0 else [f"exit code {outcome.returncode}"]


def _peaks_check(outcome: Outcome) -> list[str]:
    problems = _exits_zero(outcome)
    try:
        peaks = json.loads(outcome.stdout)
    except ValueError as exc:
        return problems + [f"unreadable output: {exc}"]
    return problems + [f"no {name}" for name in PEAK_NAMES if not peaks.get(name, 0) > 0]


WARM_UP = Step("warm_up", ("build", "--n", "3", "--format", "csv", "--out", "warm.csv"), _exits_zero)
STARTUP = Step("startup", ("-c", "import gyrogroups.cli"), _exits_zero)
# the tracemalloc probe on the interchange CSV; its stdout is the result
PEAKS = Step("peaks", (str(HERE / "peaks.py"), "t.csv"), _peaks_check)


def timed_setup(runner: Runner, name: str, parts: tuple[str, ...], seed: int, base: Path, repeats: int):
    """Write the inputs of the command lists and warm up the interpreter,
    ``repeats`` times in fresh directories; returns the median seconds and the
    last directory."""
    times = []
    for rep in range(repeats):
        cwd = base / name / f"setup{rep}"
        start = time.perf_counter()
        for part in parts:
            write_inputs(part, seed, cwd)
        runner.step(WARM_UP, cwd, CLI)
        times.append(time.perf_counter() - start)
    return statistics.median(times), cwd


def run_pass(runner: Runner, plan: list[Step], cwd: Path, traced: bool = False) -> list[Measured]:
    results = []
    for step in plan:
        if not traced:
            results.append(runner.step(step, cwd, CLI))
            continue
        spans_path = cwd / f"spans-{step.name}.json"
        spans_path.unlink(missing_ok=True)
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--"]
        measured = runner.step(traced_step(step, spans_path), cwd, prefix)
        measured.spans = read_spans(spans_path)
        results.append(measured)
    return results


def read_spans(path: Path) -> list[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return []


def traced_step(step: Step, spans_path: Path) -> Step:
    """The step with its output check plus, for a lattice, a check of the
    node and cover counts of the enumeration the spans observed."""
    if step.name not in LATTICE_SIZES:
        return step

    def check(outcome: Outcome) -> list[str]:
        return step.check(outcome) + lattice_problems(read_spans(spans_path), *LATTICE_SIZES[step.name])

    return Step(step.name, step.argv, check)


def lattice_problems(spans: list[dict], nodes: int, covers: int) -> list[str]:
    found = [(s.get("nodes"), s.get("covers")) for s in spans
             if s["name"] == "analyze.enumerate_subgyrogroups"]
    if found != [(nodes, covers)]:
        return [f"enumerations gave (nodes, covers) {found}, expected [({nodes}, {covers})]"]
    return []


class Reference:
    """A fixed piece of work that does not touch the package: an interpreted
    loop and a numpy gather from 32 MB, the commands' own mix.  The shared
    host's speed drifts by up to half over minutes; the median of this work's
    times over a run measures that drift, so the end-to-end times divide by it."""

    # the median time of the work on the host the bounds were set on
    NOMINAL_S = 0.037
    # timings before each command: verify-512 runs only about ten commands in
    # a run, too few for a steady median with one timing each
    PER_STEP = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.data = rng.integers(0, 1 << 30, size=4 << 20)
        self.index = rng.integers(0, self.data.size, size=1 << 19)
        self.times: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(100_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        int(self.data[self.index].sum())
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """The factor that takes a time measured in this run to the nominal speed."""
        return self.NOMINAL_S / statistics.median(self.times)


def timed_steps(runner: Runner, plan: list[Step], cwd: Path, end: float, reference: Reference):
    """Run passes of the plan until ``end``, timing the reference work before
    each step; returns each step's measurements and the number of whole
    passes.  After the first whole pass a step starts only while it is
    expected to end in time, so the last pass may stop early; its steps still
    count, and the run measures for nearly all of its time."""
    runs: dict[str, list[Measured]] = {step.name: [] for step in plan}
    passes = 0
    while True:
        for step in plan:
            if passes and time.perf_counter() + runs[step.name][-1].wall_s > end:
                return runs, passes
            for _ in range(Reference.PER_STEP):
                reference.measure()
            runs[step.name].append(runner.step(step, cwd, CLI))
        passes += 1


def untraced_run(runner: Runner, workload: str, seed: int, seconds: float, work: Path):
    parts = WORKLOADS[workload]
    reference = Reference()
    setup_s, cwd = timed_setup(runner, workload, parts, seed, work, SETUP_REPEATS)
    plan = [step for part in parts for step in steps(part, seed)]
    runs, passes = timed_steps(runner, plan, cwd, time.perf_counter() + seconds, reference)
    # the median pass: the sum of each step's median time
    wall_s = sum(statistics.median(m.wall_s for m in ms) for ms in runs.values())
    metrics = {
        "wall_norm_s": wall_s * reference.scale(),
        "peak_rss_mb": max(statistics.median(m.rss_mb for m in ms) for ms in runs.values()),
        "setup_s": setup_s * reference.scale(),
    }
    notes = [
        f"{workload}: {passes} whole passes, then {sum(map(len, runs.values())) - passes * len(plan)} steps",
        f"  as measured: wall_s {wall_s:.4f} s, setup_s {setup_s:.4f} s",
        f"  reference work: median {statistics.median(reference.times):.5f} s over {len(reference.times)}, "
        f"scale {reference.scale():.4f}",
    ]
    for name, ms in runs.items():
        notes.append(f"  {name} s: " + " ".join(f"{m.wall_s:.3f}" for m in ms))
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, notes


def _seconds(spans: list[dict], *names: str, parent: str | None = None) -> float:
    by_id = {s["id"]: s for s in spans}
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] in names
        and (parent is None or (s["parent"] is not None and by_id[s["parent"]]["name"] == parent))
    )


def _one(spans: list[dict], name: str) -> dict:
    found = [s for s in spans if s["name"] == name]
    if len(found) != 1:
        raise ValueError(f"expected one {name} span, found {len(found)}")
    return found[0]


def triples_checked(verify_span: dict) -> int:
    """Triples the two triple checks must examine, computed from the input:
    N**3 per passing check, (a + 1) * N**2 for a witness in row a (the scans
    go row by row), or the sample size on the sampled path."""
    if verify_span["sampled"]:
        return verify_span["sample_size"]
    n = verify_span["order"]
    total = 0
    for check in TRIPLE_CHECKS.values():
        witness = verify_span["witnesses"][check]
        if witness is None:
            total += n**3
        elif len(witness) == 3:
            total += (witness[0] + 1) * n**2
    return total


def layer_metrics(plain: dict, traced: dict, peaks: dict, csv_bytes: int) -> dict[str, float]:
    """Per-module figures from one round: plain[w][step] and traced[w][step] are
    Measured, and peaks holds the tracemalloc probe's figures."""
    spans = {w: {s: m.spans for s, m in by_step.items()} for w, by_step in traced.items()}
    verify = spans["verify-512"]["verify"]
    sampled = spans["interchange-1024"]["check_sampled"]
    build_csv = spans["interchange-1024"]["build_csv"]
    lattice = spans["structure"]["lattice"]
    holomorph = spans["structure"]["holomorph"]
    # ids are per command, so only sums without a parent condition use this list
    every = [s for by_step in spans.values() for step_spans in by_step.values() for s in step_spans]

    triples = sum(triples_checked(_one(v, "core.verify")) for v in spans["verify-512"].values())
    triple_s = sum(_seconds(v, *TRIPLE_CHECKS) for v in spans["verify-512"].values())
    load_s = _seconds(sampled, "formats.load_tables")

    out = dict(peaks)
    out.update({f"cli.{s}_s": m.wall_s for by_step in plain.values() for s, m in by_step.items()})
    out["cli.cpu_s"] = sum(m.cpu_s for by_step in plain.values() for m in by_step.values())
    out.update({
        "core.verify_s": _seconds(verify, "core.verify"),
        "core.check_left_gyroassociativity_s": _seconds(verify, "core.check_left_gyroassociativity"),
        "core.check_gyrator_identity_s": _seconds(verify, "core.check_gyrator_identity"),
        "core.pair_checks_s": _seconds(verify, *PAIR_CHECKS),
        "core.sampled_scan_s": _seconds(sampled, "core.verify") - _seconds(sampled, *PAIR_CHECKS),
        "core.triples_checked": triples,
        "core.triples_per_s": triples / triple_s,
        "formats.emit_tables_csv_s": _seconds(build_csv, "formats.emit_tables"),
        "formats.emit_tables_text_s": _seconds(spans["interchange-1024"]["build_text"], "formats.emit_tables"),
        "formats.load_tables_s": load_s,
        "formats.load_mb_per_s": csv_bytes / 1e6 / load_s,
        "formats.csv_bytes": csv_bytes,
        "formats.emit_lattice_dot_s": _seconds(lattice, "formats.emit_lattice_dot"),
        "formats.report_json_s": _seconds(every, "formats.report_document", "formats.ReportDocument.to_json"),
        "analyze.enumerate_subgyrogroups.cyclic128_s": _seconds(lattice, "analyze.enumerate_subgyrogroups"),
        "analyze.enumerate_subgyrogroups.z2e5_s": _seconds(
            spans["structure"]["check_z2e5"], "analyze.enumerate_subgyrogroups"),
        "analyze.lattice_nodes": sum(s["nodes"] for s in every if s["name"] == "analyze.enumerate_subgyrogroups"),
        "analyze.lattice_covers": sum(s["covers"] for s in every if s["name"] == "analyze.enumerate_subgyrogroups"),
        "analyze.gyroholomorph_s": _seconds(holomorph, "analyze.gyroholomorph"),
        "analyze.holomorph_structure_matches_s": _seconds(holomorph, "analyze.holomorph_structure_matches"),
        "analyze.isomorphic_s": _seconds(spans["structure"]["iso"], "analyze.isomorphic"),
        "analyze.gyroautomorphism_group_s": _seconds(every, "analyze.gyroautomorphism_group"),
        "analyze.classify_subgyrogroups_s": _seconds(verify, "analyze.classify_subgyrogroups"),
        "construct.build_cyclic_gyrogroup_s": _seconds(build_csv, "construct.build_cyclic_gyrogroup"),
        "groups.first_group_axiom_violation_s": _seconds(
            holomorph, "groups.first_group_axiom_violation", parent="analyze.gyroholomorph"),
        "groups.group_invariants_s": _seconds(
            holomorph, "groups.group_invariants", parent="analyze.gyroholomorph"),
        "trace.overhead_ratio": sum(m.wall_s for by_step in traced.values() for m in by_step.values())
        / sum(m.wall_s for by_step in plain.values() for m in by_step.values()),
    })
    return out


def traced_run(runner: Runner, workload: str, seed: int, seconds: float, work: Path):
    dirs = {w: timed_setup(runner, w, (w,), seed, work, 1)[1] for w in PARTS}
    plans = {w: steps(w, seed) for w in PARTS}
    startup = [runner.step(STARTUP, work, [sys.executable]).wall_s for _ in range(STARTUP_REPEATS)]

    rounds, all_spans, round_s = [], [], 0.0
    end = time.perf_counter() + seconds
    # start another round only while it is expected to end by the deadline
    while not rounds or time.perf_counter() + round_s <= end:
        round_start = time.perf_counter()
        plain, traced = {}, {}
        for w in PARTS:
            plain[w] = {m.step: m for m in run_pass(runner, plans[w], dirs[w])}
            traced[w] = {m.step: m for m in run_pass(runner, plans[w], dirs[w], traced=True)}
            all_spans += [
                {"trace": f"{w}/{m.step}/{len(rounds)}", **span}
                for m in traced[w].values() for span in m.spans
            ]
        peaks = runner.step(PEAKS, dirs["interchange-1024"], [sys.executable])
        if runner.failed:
            raise RunAborted("wrong outputs; per-module metrics not computed")
        csv_bytes = (dirs["interchange-1024"] / "t.csv").stat().st_size
        rounds.append(layer_metrics(plain, traced, json.loads(peaks.outcome.stdout), csv_bytes))
        round_s = time.perf_counter() - round_start

    spans_file = WORK / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps(all_spans))
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    notes = [f"traced run: {len(rounds)} rounds over {', '.join(PARTS)}; "
             f"{len(all_spans)} spans in {spans_file.relative_to(ROOT)}"]
    for w in PARTS:
        ratio = sum(m.wall_s for m in traced[w].values()) / sum(m.wall_s for m in plain[w].values())
        notes.append(f"  {w}: traced wall_s / untraced wall_s = {ratio:.3f} (last round)")
    return {name: (metrics[name], PER_LAYER[name]) for name in PER_LAYER}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gyrogroups" / "cli.py").is_file():
        print(f"error: no gyrogroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(ROOT, time.perf_counter() + RUN_LIMIT_S)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    metrics, notes = {}, []
    try:
        run = traced_run if args.trace else untraced_run
        metrics, notes = run(runner, args.workload, args.seed, args.seconds, work)
    except RunAborted as exc:
        notes.append(f"aborted: {exc}")
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    for line in notes + runner.problems:
        print(line)
    print(f"failed_ratio = {runner.failed_ratio:.6g} ({runner.failed} of {runner.attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
