"""The benchmark's command lists and workloads: inputs, CLI commands and output checks.

Each of the three command lists (``PARTS``) is a list of steps run in order,
one fresh CLI process per step.  A workload runs one or more of them, in
order, as one pass.  A step's check returns the problems it found in that command's outcome; an
empty list means the output is correct.  Expected values are derived here from
the inputs and from known mathematics, never from the package under test.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

PARTS = ("verify-512", "interchange-1024", "structure")
# Two workloads rather than one per command list: on a shared two-vCPU host
# each run has to be long for its median to be steady (NOTES.md), and
# the time limit for all runs allows two long ones.
WORKLOADS = {
    "verify-512": ("verify-512",),
    "interchange-structure": ("interchange-1024", "structure"),
}

CHECK_COUNT = 9
# Z2^5 has sum over k of the Gaussian binomials [5 choose k]_2 subgroups,
# 1 + 31 + 155 + 155 + 31 + 1 = 374, and sum over k of [5 choose k]_2 * (2^(5-k) - 1)
# covering pairs, 31 + 465 + 1085 + 465 + 31 = 2077.
Z2E5_NODES, Z2E5_COVERS = 374, 2077
# The construction at n=7 (order 128) has 20 subgyrogroups and 31 covers.
CYCLIC128_NODES, CYCLIC128_COVERS = 20, 31
# The flipped gyration sits in the last row, so both triple scans run to the end.
FLIP_AT = (511, 0)


@dataclass(frozen=True)
class Outcome:
    """What one CLI command left behind: exit code, standard output, working directory."""

    returncode: int
    stdout: str
    workdir: Path


Check = Callable[[Outcome], list[str]]


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload; ``name`` is used in metric names."""

    name: str
    argv: tuple[str, ...]
    check: Check


def write_inputs(part: str, seed: int, directory: Path) -> None:
    """Write the files the command list reads, all derived from ``seed``."""
    directory.mkdir(parents=True, exist_ok=True)
    if part == "verify-512":
        flipped = inputs.flip_gyration(inputs.construction(9), *FLIP_AT)
        (directory / "f512.csv").write_text(inputs.tables_csv(flipped))
    elif part == "structure":
        left, right, _ = _iso_pair(seed)
        (directory / "z2e5.csv").write_text(inputs.tables_csv(inputs.elementary_abelian(5)))
        (directory / "g32.csv").write_text(inputs.tables_csv(left))
        (directory / "h32.csv").write_text(inputs.tables_csv(right))


def _iso_pair(seed: int) -> tuple[inputs.Tables, inputs.Tables, np.ndarray]:
    left = inputs.construction(5)
    right, sigma = inputs.relabel_fixing_zero(left, np.random.default_rng(seed))
    return left, right, sigma


def steps(part: str, seed: int) -> list[Step]:
    """The command list's commands in order, each with the check of its outputs."""
    if part == "verify-512":
        return [
            Step(
                "verify",
                ("verify", "--n", "9", "--report", "r.json"),
                expect_report("r.json", 0, gyroauto_order=2, sampled=False),
            ),
            Step(
                "check_flipped",
                ("check", "f512.csv", "--report", "f.json"),
                expect_report(
                    "f.json",
                    1,
                    gyroauto_order=2,
                    sampled=False,
                    subgyrogroup_count=None,
                    witnesses={
                        "left_gyroassociativity": [*FLIP_AT, 1],
                        "gyrator_identity": [*FLIP_AT, 1],
                        "gyrocommutativity": list(FLIP_AT),
                    },
                ),
            ),
        ]
    if part == "interchange-1024":
        tables = inputs.construction(10)
        return [
            Step(
                "build_csv",
                ("build", "--n", "10", "--format", "csv", "--out", "t.csv"),
                expect_file("t.csv", inputs.tables_csv(tables)),
            ),
            Step(
                "build_text",
                ("build", "--n", "10", "--out", "t.txt"),
                expect_file("t.txt", inputs.tables_text(tables)),
            ),
            Step("check_sampled", ("check", "t.csv"), expect_sampled_pass),
        ]
    if part == "structure":
        left, right, _ = _iso_pair(seed)
        return [
            Step(
                "lattice",
                ("lattice", "--n", "7", "--dot", "--out", "l.dot"),
                expect_dot("l.dot", CYCLIC128_NODES, CYCLIC128_COVERS),
            ),
            Step(
                "check_z2e5",
                ("check", "z2e5.csv", "--report", "z.json"),
                expect_report("z.json", 0, gyroauto_order=1, subgyrogroup_count=Z2E5_NODES),
            ),
            Step("holomorph", ("holomorph", "--n", "6"), expect_holomorph(128)),
            Step(
                "iso",
                ("iso", "--left", "g32.csv", "--right", "h32.csv"),
                expect_isomorphism(left.cayley, right.cayley),
            ),
        ]
    raise ValueError(f"unknown command list {part!r}")


def _exit(outcome: Outcome, code: int) -> list[str]:
    if outcome.returncode != code:
        return [f"exit code {outcome.returncode}, expected {code}"]
    return []


def _last_line(outcome: Outcome) -> str:
    lines = outcome.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def expect_report(
    path: str, code: int, *, witnesses: dict[str, list[int]] | None = None, **fields
) -> Check:
    """Exit code, verdict line and JSON report: the checks named in ``witnesses``
    fail with exactly that witness, every other check passes, and each extra
    field (or ``params`` entry, for ``sampled``) has the given value."""
    witnesses = witnesses or {}

    def check(outcome: Outcome) -> list[str]:
        problems = _exit(outcome, code)
        verdict = "verification FAILED" if witnesses else "all checks passed"
        if _last_line(outcome) != verdict:
            problems.append(f"last line {_last_line(outcome)!r}, expected {verdict!r}")
        try:
            report = json.loads((outcome.workdir / path).read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"report {path}: {exc}"]
        checks = report.get("checks", [])
        if len(checks) != CHECK_COUNT:
            problems.append(f"{len(checks)} checks reported, expected {CHECK_COUNT}")
        for item in checks:
            want = witnesses.get(item.get("name"))
            status, witness = item.get("status"), item.get("witness")
            if want is None and (status, witness) != ("pass", None):
                problems.append(f"{item.get('name')}: {status} {witness}, expected pass")
            elif want is not None and (status, witness) != ("fail", want):
                problems.append(f"{item.get('name')}: {status} {witness}, expected fail {want}")
        for key, value in fields.items():
            got = report.get("params", {}).get(key) if key == "sampled" else report.get(key)
            if got != value:
                problems.append(f"{key} = {got!r}, expected {value!r}")
        return problems

    return check


def expect_sampled_pass(outcome: Outcome) -> list[str]:
    """Exit 0, every check printed as passing, and the verdict of a sampled scan."""
    problems = _exit(outcome, 0)
    passes = [line for line in outcome.stdout.splitlines() if line.endswith(": pass")]
    if len(passes) != CHECK_COUNT:
        problems.append(f"{len(passes)} passing checks printed, expected {CHECK_COUNT}")
    verdict = "all checks passed [sampled scan]"
    if _last_line(outcome) != verdict:
        problems.append(f"last line {_last_line(outcome)!r}, expected {verdict!r}")
    return problems


def expect_file(path: str, expected: str) -> Check:
    """Exit 0 and the written file equal, byte for byte, to the expected document."""
    want = expected.encode()

    def check(outcome: Outcome) -> list[str]:
        problems = _exit(outcome, 0)
        try:
            got = (outcome.workdir / path).read_bytes()
        except OSError as exc:
            return problems + [f"{path}: {exc}"]
        if got != want:
            at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
            problems.append(f"{path} differs from the expected document at byte {at}")
        return problems

    return check


def expect_dot(path: str, nodes: int, covers: int) -> Check:
    """Exit 0 and a DOT lattice with the given numbers of nodes and cover edges."""

    def check(outcome: Outcome) -> list[str]:
        problems = _exit(outcome, 0)
        try:
            text = (outcome.workdir / path).read_text()
        except OSError as exc:
            return problems + [f"{path}: {exc}"]
        got_nodes = len(re.findall(r"^\s*n\d+ \[label=", text, re.M))
        got_covers = len(re.findall(r"^\s*n\d+ -> n\d+;", text, re.M))
        if (got_nodes, got_covers) != (nodes, covers):
            problems.append(
                f"lattice has {got_nodes} nodes and {got_covers} covers, "
                f"expected {nodes} and {covers}"
            )
        return problems

    return check


def expect_holomorph(order: int) -> Check:
    """Exit 0, the holomorph order, and exactly one matched structure."""

    def check(outcome: Outcome) -> list[str]:
        problems = _exit(outcome, 0)
        lines = outcome.stdout.splitlines()
        if f"gyroholomorph order: {order}" not in lines:
            problems.append(f"no line 'gyroholomorph order: {order}'")
        matched = [
            line for line in lines
            if line.startswith("matched structure:") and "none of" not in line
        ]
        if len(matched) != 1:
            problems.append(f"{len(matched)} matched structures, expected 1")
        return problems

    return check


def expect_isomorphism(left: np.ndarray, right: np.ndarray) -> Check:
    """Exit 0 and printed images that form a bijection phi with
    phi(a ⊕ b) = phi(a) ⊕ phi(b) between the two Cayley tables."""

    def check(outcome: Outcome) -> list[str]:
        problems = _exit(outcome, 0)
        found = re.search(r"^images: ([\d ]+)$", outcome.stdout, re.M)
        if found is None:
            return problems + ["no 'images:' line"]
        phi = np.array(found.group(1).split(), dtype=np.int64)
        n = left.shape[0]
        if sorted(phi.tolist()) != list(range(n)):
            return problems + ["images are not a bijection"]
        if not (phi[left] == right[phi[:, None], phi[None, :]]).all():
            problems.append("images are not a homomorphism")
        return problems

    return check
