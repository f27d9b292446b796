"""Tests of the benchmark's own output checks: a wrong output must count as failed.

Run with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import inputs
import run
import workloads
from workloads import Outcome, steps


def _report(witnesses: dict[str, list[int]], **fields) -> dict:
    checks = [
        {"name": name, "status": "fail" if name in witnesses else "pass",
         "witness": witnesses.get(name)}
        for name in (
            "left_translations_bijective", "right_translations_bijective", "left_identity",
            "left_inverses", "gyrations_are_automorphisms", "left_gyroassociativity",
            "loop_property", "gyrator_identity", "gyrocommutativity",
        )
    ]
    return {"params": {"sampled": False}, "checks": checks, **fields}


FLIPPED_WITNESSES = {
    "left_gyroassociativity": [511, 0, 1],
    "gyrator_identity": [511, 0, 1],
    "gyrocommutativity": [511, 0],
}


def _step(workload: str, name: str) -> workloads.Step:
    return next(s for s in steps(workload, seed=7) if s.name == name)


def _outcome(tmp_path: Path, code: int, stdout: str, files: dict[str, str]) -> Outcome:
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return Outcome(code, stdout, tmp_path)


def test_flipped_report_passes_only_with_exact_witnesses(tmp_path):
    check = _step("verify-512", "check_flipped").check
    good = _report(FLIPPED_WITNESSES, subgyrogroup_count=None, gyroauto_order=2)
    assert check(_outcome(tmp_path, 1, "verification FAILED\n", {"f.json": json.dumps(good)})) == []

    off_by_one = _report({**FLIPPED_WITNESSES, "left_gyroassociativity": [511, 0, 2]},
                         subgyrogroup_count=None, gyroauto_order=2)
    problems = check(_outcome(tmp_path, 1, "verification FAILED\n", {"f.json": json.dumps(off_by_one)}))
    assert any("left_gyroassociativity" in p for p in problems)

    assert check(_outcome(tmp_path, 0, "verification FAILED\n", {"f.json": json.dumps(good)}))


def test_verify_report_needs_every_check_and_gyroauto_order(tmp_path):
    check = _step("verify-512", "verify").check
    good = _report({}, gyroauto_order=2)
    assert check(_outcome(tmp_path, 0, "all checks passed\n", {"r.json": json.dumps(good)})) == []
    bad = _report({}, gyroauto_order=1)
    assert check(_outcome(tmp_path, 0, "all checks passed\n", {"r.json": json.dumps(bad)}))
    missing = {**good, "checks": good["checks"][:-1]}
    assert check(_outcome(tmp_path, 0, "all checks passed\n", {"r.json": json.dumps(missing)}))
    assert check(_outcome(tmp_path, 0, "all checks passed\n", {}))


def test_z2e5_report_needs_the_gaussian_binomial_count(tmp_path):
    check = _step("structure", "check_z2e5").check
    good = _report({}, subgyrogroup_count=374, gyroauto_order=1)
    assert check(_outcome(tmp_path, 0, "all checks passed\n", {"z.json": json.dumps(good)})) == []
    bad = _report({}, subgyrogroup_count=373, gyroauto_order=1)
    assert check(_outcome(tmp_path, 0, "all checks passed\n", {"z.json": json.dumps(bad)}))


def _dot(nodes: int, covers: list[tuple[int, int]]) -> str:
    lines = ["digraph subgyrogroup_lattice {", "  rankdir=BT;"]
    lines += [f'  n{i} [label="<{i}> (order 1)"];' for i in range(nodes)]
    lines += [f"  n{c} -> n{p};" for c, p in covers]
    return "\n".join(lines + ["}"]) + "\n"


def test_lattice_with_a_node_missing_fails(tmp_path):
    check = _step("structure", "lattice").check
    covers = [(i, i + 1) for i in range(19)] + [(0, j) for j in range(2, 14)]
    assert len(covers) == 31
    assert check(_outcome(tmp_path, 0, "", {"l.dot": _dot(20, covers)})) == []
    assert check(_outcome(tmp_path, 0, "", {"l.dot": _dot(19, covers)}))
    assert check(_outcome(tmp_path, 0, "", {"l.dot": _dot(20, covers[:-1])}))


def test_traced_lattice_counts_are_checked():
    span = {"name": "analyze.enumerate_subgyrogroups", "nodes": 374, "covers": 2077}
    assert run.lattice_problems([span], 374, 2077) == []
    assert run.lattice_problems([{**span, "nodes": 373}], 374, 2077)
    assert run.lattice_problems([], 374, 2077)


def test_iso_images_must_be_a_homomorphism(tmp_path):
    check = _step("structure", "iso").check
    _, _, sigma = workloads._iso_pair(seed=7)
    images = " ".join(map(str, sigma))
    assert check(_outcome(tmp_path, 0, f"isomorphic: ...\nimages: {images}\n", {})) == []
    swapped = sigma.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    wrong = " ".join(map(str, swapped))
    assert check(_outcome(tmp_path, 0, f"images: {wrong}\n", {})) == ["images are not a homomorphism"]
    assert check(_outcome(tmp_path, 1, "not isomorphic\n", {}))


def test_holomorph_needs_one_match(tmp_path):
    check = _step("structure", "holomorph").check
    good = "gyroholomorph order: 128\nmatched structure: Z2 x (Z32 : Z2, x -> 17x)\n"
    assert check(_outcome(tmp_path, 0, good, {})) == []
    assert check(_outcome(tmp_path, 0, good.replace("128", "64"), {}))
    assert check(_outcome(tmp_path, 0, good + "matched structure: another\n", {}))


def test_file_check_finds_a_single_changed_byte(tmp_path):
    check = workloads.expect_file("t.csv", "order,8\ncayley\n")
    assert check(_outcome(tmp_path, 0, "", {"t.csv": "order,8\ncayley\n"})) == []
    assert check(_outcome(tmp_path, 0, "", {"t.csv": "order,9\ncayley\n"})) == [
        "t.csv differs from the expected document at byte 6"
    ]


def test_sampled_check_needs_the_scope(tmp_path):
    check = _step("interchange-1024", "check_sampled").check
    passes = "".join(f"c{i}: pass\n" for i in range(9))
    assert check(_outcome(tmp_path, 0, passes + "all checks passed [sampled scan]\n", {})) == []
    assert check(_outcome(tmp_path, 0, passes + "all checks passed\n", {}))


def test_failed_commands_raise_failed_ratio():
    runner = run.Runner(Path("."), deadline=0.0)
    runner.record("a", [])
    assert runner.failed_ratio == 0
    runner.record("b", ["witness off by one"])
    assert (runner.failed, runner.attempted, runner.failed_ratio) == (1, 2, 0.5)


def test_inputs_are_what_the_checks_assume():
    base = inputs.construction(5)
    flipped = inputs.flip_gyration(base, 3, 0)
    assert (flipped.symbols != base.symbols).sum() == 1
    copy, sigma = inputs.relabel_fixing_zero(base, np.random.default_rng(3))
    assert sigma[0] == 0
    assert (sigma[base.cayley] == copy.cayley[sigma[:, None], sigma[None, :]]).all()
    z = inputs.elementary_abelian(3)
    assert inputs.tables_csv(z).startswith("order,8\ncayley\n0,1,2,3,4,5,6,7\n1,0,3,2,5,4,7,6\n")


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_step_names_match_the_workloads():
    names = tuple(s.name for w in workloads.PARTS for s in steps(w, seed=0))
    assert names == run.STEP_NAMES


def test_command_peak_rss_is_its_own(tmp_path):
    # the harness holds 200 MB; a command started through spawn.py must not
    # report that as its own peak
    ballast = np.ones(25 << 20)
    runner = run.Runner(run.ROOT, deadline=run.time.perf_counter() + 60)
    try:
        measured = runner.command([run.sys.executable, "-c", "print('ok')"], tmp_path, "tiny")
    finally:
        runner.close()
    assert measured.outcome.returncode == 0 and measured.outcome.stdout == "ok\n"
    assert measured.rss_mb < ballast.nbytes / 2**20 / 4
