import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import gyrogroups
from gyrogroups import (
    FiniteGyrogroup,
    GyrogroupDataError,
    ReportDocument,
    TableFormatError,
    build_cyclic_gyrogroup,
    cyclic_group,
    direct_product,
    emit_tables,
    load_tables,
)
from gyrogroups.cli import main

from test_formats import BASE_DOCUMENTS, mutated_documents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_text_stdout(capsys, g3):
    code, out, _ = run(capsys, "build", "--n", "3")
    assert code == 0
    assert out == emit_tables(g3, "text")


def test_build_csv_to_file(tmp_path, capsys, g4):
    target = tmp_path / "tables.csv"
    code, out, _ = run(capsys, "build", "--n", "4", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == emit_tables(g4, "csv")


def test_build_rejects_small_n(capsys):
    code, _, err = run(capsys, "build", "--n", "2")
    assert code == 2
    assert "n >= 3" in err


def test_verify_passes_and_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--n", "4", "--report", str(report_path))
    assert code == 0
    assert "gyrocommutativity: pass" in out
    assert "all checks passed" in out
    doc = ReportDocument.from_json(report_path.read_text())
    assert doc.all_passed and doc.gyrocommutative
    assert doc.params["n"] == 4 and doc.params["order"] == 16
    assert doc.subgyrogroup_count == 11
    assert doc.gyroauto_order == 2


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "--n", "3", "--dot")
    assert code == 0
    assert out.count("[label=") == 8
    code, out, _ = run(capsys, "lattice", "--n", "3")
    assert code == 0 and "<2,4> order 4" in out


def test_holomorph(capsys):
    code, out, _ = run(capsys, "holomorph", "--n", "4")
    assert code == 0
    assert "gyroholomorph order: 32" in out
    assert "matched structure: Z2 x (Z8 : Z2, x -> 5x) [modular action]" in out


def test_iso_between_relabeled_copies(tmp_path, capsys, g3):
    from test_analyze import relabel
    from gyrogroups import Permutation

    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    left.write_text(emit_tables(g3, "csv"))
    sigma = Permutation((0, 6, 2, 4, 1, 7, 5, 3))
    right.write_text(emit_tables(relabel(g3, sigma), "csv"))
    code, out, _ = run(capsys, "iso", "--left", str(left), "--right", str(right))
    assert code == 0
    assert out.startswith("isomorphic:")


def test_iso_negative(tmp_path, capsys, g3, z8):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    left.write_text(emit_tables(g3, "csv"))
    right.write_text(emit_tables(z8, "csv"))
    code, out, _ = run(capsys, "iso", "--left", str(left), "--right", str(right))
    assert code == 1
    assert "not isomorphic" in out


def test_iso_rejects_invalid_input(tmp_path, capsys, g3):
    # suppressed gyrations break the axioms, so iso refuses to search
    broken = tmp_path / "broken.csv"
    lines = emit_tables(g3, "csv").split("\n")
    start = lines.index("gyration") + 1
    for i in range(start, start + 8):
        lines[i] = lines[i].replace("A", "I")
    broken.write_text("\n".join(lines))
    good = tmp_path / "good.csv"
    good.write_text(emit_tables(g3, "csv"))
    code, _, err = run(capsys, "iso", "--left", str(broken), "--right", str(good))
    assert code == 1
    assert "not a gyrogroup" in err


def test_check_good_file(tmp_path, capsys, g3):
    path = tmp_path / "tables.csv"
    path.write_text(emit_tables(g3, "csv"))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and "all checks passed" in out


def test_check_detects_corrupted_entry(tmp_path, capsys, g3):
    doc = emit_tables(g3, "csv").replace("4,7,6,5,0,3,2,1", "4,7,6,5,0,3,2,5")
    path = tmp_path / "corrupt.csv"
    path.write_text(doc)
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", str(path), "--report", str(report_path))
    assert code == 1
    assert "FAIL witness=" in out
    doc = ReportDocument.from_json(report_path.read_text())
    assert not doc.all_passed
    assert doc.params["source"] == str(path)


def test_check_fails_a_group_that_is_not_gyrocommutative(tmp_path, capsys, dih8):
    # D4 is a gyrogroup, with identity gyrations, but not gyrocommutative;
    # gyrocommutativity is one of the nine checks, so `check` exits 1
    path = tmp_path / "d8.csv"
    path.write_text(emit_tables(dih8, "csv"))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "gyrocommutativity: FAIL witness=(1, 4)" in out
    assert out.count(": FAIL") == 1 and "verification FAILED" in out


def test_check_reports_parse_error(tmp_path, capsys, g3):
    lines = emit_tables(g3, "csv").split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0]
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines))
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "expected 8 fields" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/tables.csv")
    assert code == 1 and "error" in err


def test_check_undecodable_file_exits_one(tmp_path, capsys, g3):
    # a byte that is not UTF-8 makes the file one that cannot be validated
    data = emit_tables(g3, "csv").encode().replace(b"1,2,3", b"1,\xff2,3", 1)
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == ""
    assert err == "error: line 3: invalid UTF-8 byte 0xff\n"


def test_check_directory_exits_one(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_verify_exit_matches_report(tmp_path, capsys, g3):
    # exit code 0 exactly when the JSON report is all-pass
    doc = emit_tables(g3, "csv").replace("I,A,I,A,A,I,A,I", "I,A,I,A,A,I,A,A", 1)
    path = tmp_path / "gyr_corrupt.csv"
    path.write_text(doc)
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", str(path), "--report", str(report_path))
    assert code == 1
    assert not ReportDocument.from_json(report_path.read_text()).all_passed


def test_check_report_counts_z2e6_lattice(tmp_path, capsys):
    # the subgyrogroups of Z2^6 are the 2825 subspaces of GF(2)^6:
    # 1 + 63 + 651 + 1395 + 651 + 63 + 1
    table = cyclic_group(2)
    for _ in range(5):
        table = direct_product(table, cyclic_group(2))
    path = tmp_path / "z2e6.csv"
    path.write_text(emit_tables(FiniteGyrogroup.from_group(table), "csv"))
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", str(path), "--report", str(report_path))
    assert code == 0
    assert ReportDocument.from_json(report_path.read_text()).subgyrogroup_count == 2825


def test_iso_above_search_cap_exits_one(tmp_path, capsys):
    # both order-64 files are valid, so the cap is no argument error
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    for path in (left, right):
        assert run(capsys, "build", "--n", "6", "--format", "csv", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "iso", "--left", str(left), "--right", str(right))
    assert code == 1 and out == ""
    assert err == "error: exhaustive search capped at order 32\n"


def test_iso_tells_order_32_groups_with_equal_profiles_apart(tmp_path):
    # a subprocess with a timeout turns a slow search into a failure
    from test_analyze import z4_by_z4, z4_z4_z2

    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    left.write_text(emit_tables(FiniteGyrogroup.from_group(z4_z4_z2()), "csv"))
    right.write_text(emit_tables(
        FiniteGyrogroup.from_group(direct_product(z4_by_z4(), cyclic_group(2))), "csv"))
    src = str(Path(gyrogroups.__file__).parents[1])
    path_list = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_list)))
    done = subprocess.run(
        [sys.executable, "-m", "gyrogroups.cli", "iso", "--left", str(left), "--right", str(right)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 1
    assert done.stdout == "not isomorphic\n"


def test_check_gyration_overflow_exits_one(tmp_path, capsys):
    # a Z9 file whose legend names 65,537 distinct permutations cannot be
    # validated: that is exit 1, like any other bad file, not an argument error
    lines = ["order,9", "cayley"]
    lines += [",".join(str((a + b) % 9) for b in range(9)) for a in range(9)]
    lines += ["gyration"] + [",".join(["I"] * 9)] * 9
    perms = itertools.islice(itertools.permutations(range(9)), 65537)
    lines += [
        f"perm {f'P{i}' if i else 'I'}: " + " ".join(map(str, p)) for i, p in enumerate(perms)
    ]
    path = tmp_path / "z9.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and out == ""
    assert err == "error: 65537 distinct gyrations exceed the limit of 65,536\n"


def s8_document():
    """An order-8 CSV document whose gyrations, a transposition and an
    8-cycle, generate all 40320 permutations of the carrier."""
    gyr = np.zeros((8, 8), dtype=int)
    gyr[1, 1], gyr[1, 2] = 1, 2
    perms = [
        (0, 1, 2, 3, 4, 5, 6, 7),
        (1, 0, 2, 3, 4, 5, 6, 7),
        (1, 2, 3, 4, 5, 6, 7, 0),
    ]
    return emit_tables(FiniteGyrogroup(cyclic_group(8), gyr, perms), "csv")


def test_check_report_ends_when_gyrations_generate_s8(tmp_path):
    # a subprocess with a timeout turns a hang into a failure
    path = tmp_path / "s8.csv"
    path.write_text(s8_document())
    report_path = tmp_path / "report.json"
    src = str(Path(gyrogroups.__file__).parents[1])
    path_list = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_list)))
    done = subprocess.run(
        [sys.executable, "-m", "gyrogroups.cli", "check", str(path), "--report", str(report_path)],
        env=env, capture_output=True, timeout=30,
    )
    assert done.returncode == 1
    assert ReportDocument.from_json(report_path.read_text()).gyroauto_order == 40320


def test_cli_import_loads_no_pool_modules():
    # numpy itself imports threading; no command starts a thread, and none
    # pays for importing a pool module at startup
    src = str(Path(gyrogroups.__file__).parents[1])
    path_list = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_list)))
    probe = "import json, sys, gyrogroups.cli; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "threading" in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing"}


def test_commands_load_no_masked_arrays(tmp_path):
    # a plain np.unique(x) imports numpy.ma on its first call, which no
    # command needs; every command runs in one fresh interpreter
    src = str(Path(gyrogroups.__file__).parents[1])
    path_list = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_list)))
    commands = [
        ["build", "--n", "4", "--format", "csv", "--out", "t.csv"],
        ["build", "--n", "4", "--out", "t.txt"],
        ["verify", "--n", "4", "--report", "verify.json"],
        ["check", "t.csv", "--report", "check.json"],
        ["lattice", "--n", "4", "--out", "lattice.txt"],
        ["lattice", "--n", "4", "--dot", "--out", "lattice.dot"],
        ["holomorph", "--n", "3"],
        ["iso", "--left", "t.csv", "--right", "t.csv"],
    ]
    probe = (
        "import json, sys\n"
        "from gyrogroups.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    codes, masked = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert not masked


def test_check_at_order_1024_loads_no_random_module(tmp_path):
    # the row derivation proves both triple laws of the order-1024
    # construction, so `check` reports the sampled pass without drawing the
    # sample, and never imports numpy.random
    table = emit_tables(build_cyclic_gyrogroup(10), "csv")
    (tmp_path / "t.csv").write_text(table, encoding="utf-8")
    src = str(Path(gyrogroups.__file__).parents[1])
    path_list = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_list)))
    probe = (
        "import json, sys\n"
        "from gyrogroups.cli import main\n"
        "code = main(['check', 't.csv'])\n"
        "print(json.dumps([code, 'numpy.random' in sys.modules]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *printed, result = done.stdout.splitlines()
    assert printed[-1] == "all checks passed [sampled scan]"
    assert json.loads(result) == [0, False]


# Runs three processes at once and prints [exit code, peak RSS in MiB] of
# each.  Linux carries a process's peak RSS across fork and exec, so they are
# started from this small process, not from the test's.
WORKING_SETS = """
import json, os, subprocess, sys
def start(*args):
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
def peak(proc):
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024
procs = [
    start("-c", "import gyrogroups.cli"),
    start("-m", "gyrogroups.cli", "build", "--n", "10", "--format", "csv", "--out", "b.csv"),
    start("-m", "gyrogroups.cli", "check", "t.csv"),
]
print(json.dumps([peak(proc) for proc in procs]))
"""


def test_build_and_check_working_sets_at_order_1024(tmp_path):
    # peak RSS sees what tracemalloc cannot: thread arenas, lazy imports and
    # freed memory that malloc keeps.  t.csv holds the bytes the build
    # writes (test_build_file_is_pinned), so the check need not wait for it
    (tmp_path / "t.csv").write_bytes(emit_tables(build_cyclic_gyrogroup(10), "csv").encode())
    src = str(Path(gyrogroups.__file__).parents[1])
    path_list = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_list)))
    done = subprocess.run([sys.executable, "-c", WORKING_SETS], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    (base_code, base), (build_code, build), (check_code, check) = json.loads(done.stdout)
    assert (base_code, build_code, check_code) == (0, 0, 0)
    # 6.1 and 10.2 MiB here, against 14.0 and 11.1 where emission gathered a
    # whole block of cells at once, and 30.7 and 41.5 with whole int64 tables
    assert build - base <= 10
    assert check - base <= 14


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_documents([*BASE_DOCUMENTS, s8_document()], top_byte=255))
def test_check_report_on_mutated_files(tmp_path, capsys, doc):
    # order-8 files, so Γ has at most 8! elements and every report ends
    # quickly; the command validates or rejects each file, and writes a report
    # it can read back whenever the file loads
    data = doc.encode() if isinstance(doc, str) else doc
    path = tmp_path / "tables.csv"
    report = tmp_path / "report.json"
    path.write_bytes(data)
    report.unlink(missing_ok=True)
    try:
        load_tables(data, strict=False)
        loads = True
    except (TableFormatError, GyrogroupDataError):
        loads = False
    code, _, err = run(capsys, "check", str(path), "--report", str(report))
    assert code in (0, 1)
    if loads:
        ReportDocument.from_json(report.read_text(encoding="utf-8"))
    else:
        assert err.startswith("error: ") and not report.exists()
