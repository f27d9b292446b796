"""Digests of CLI outputs and sampled-scan witnesses that must not drift.

Any change to these bytes changes what users and downstream files see; a
refactor of the rules behind them must leave every digest as it is.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from gyrogroups import (
    FiniteGyrogroup,
    Permutation,
    build_cyclic_gyrogroup,
    cyclic_group,
    emit_tables,
    verify,
)
from gyrogroups.cli import main

from test_analyze import relabel
from test_cli import s8_document

PINNED = {
    ("build", "--n", "5", "--format", "csv"):
        "96e3f2e6fd9950fd4e5eb605d3a0f36ff46847511b0261bef8959173e7288422",
    ("build", "--n", "5"):
        "d0fcdc3cc9b84d69ffc4d03ebeaf1f8d372dd033e7b43cd49a716d0bb93dc1e8",
    ("build", "--n", "10", "--format", "csv"):
        "6475e31052e3ae8ad4f5aa76915afb4062df57698176e9db5d213932841ffbdd",
    ("build", "--n", "10"):
        "a81035637788bc802d150e905a19bd24763c9821465a8a63b26b02b5ebe2967f",
    ("lattice", "--n", "5", "--dot"):
        "3ca548839dbf6ad7fdbc25a5e3561ce36388be8e647573d610a8d02f2edf9d15",
    ("holomorph", "--n", "3"):
        "3b2ca2d8eff508dffde345a5c51cc47700125c55036ba620b2d33963233e1818",
    ("holomorph", "--n", "4"):
        "3cd74f780e2f4cff55dfa3fadb10e12690e37b0ae712a9af8817ea2646a61f68",
    ("holomorph", "--n", "5"):
        "31b3300bb48c01396068c27a37855dc23a2e2e94808c8bb1ae4e84059ad22dfb",
    ("holomorph", "--n", "6"):
        "9c175d9e4bc60326cd70fd94cec07e09bfa6293012faa6ae0dd97040874ec57e",
    ("holomorph", "--n", "7"):
        "df990bd9330d25dd5383155ddd47bbd9c635c5b9a6ce60c48ab6af771621e8de",
}
VERIFY_REPORT_N5 = "382d9105b7feb132cece39d66d71f5a6199ee46b25b92df9e9cae0b895170830"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_cli_stdout_is_pinned(capsys, argv):
    assert main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == PINNED[argv]


def test_verify_report_is_pinned(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--n", "5", "--report", str(report)]) == 0
    assert sha256(report.read_text(encoding="utf-8")) == VERIFY_REPORT_N5


def test_sampled_witnesses_are_pinned():
    # dropping the gyrations of the order-32 tables breaks both triple laws
    G = FiniteGyrogroup(build_cyclic_gyrogroup(5).cayley)
    report = verify(G, exhaustive_limit=16, sample_size=10_000)
    assert report.sampled
    assert report.check("left_gyroassociativity").witness == (5, 22, 9)
    assert report.check("gyrator_identity").witness == (5, 22, 9)
    assert report.check("gyrocommutativity").witness == (1, 16)


def test_separately_scanned_gyrator_witness_is_pinned():
    # a repeat in row 3 keeps every left inverse but breaks left
    # cancellation, so the gyrator identity gets a sampled scan of its own
    G = build_cyclic_gyrogroup(5)
    cayley = G.cayley.copy()
    cayley[3, 5] = cayley[3, 6]
    report = verify(FiniteGyrogroup(cayley, G.gyr_table, G.perm_matrix), exhaustive_limit=16,
                    sample_size=10_000)
    assert report.sampled
    assert report.check("left_gyroassociativity").witness == (3, 5, 30)
    assert report.check("gyrator_identity").witness == (23, 22, 8)
    assert report.check("gyrocommutativity").witness == (3, 5)


ISO_ORDER_32 = "e39b84e64e406ab4d0c30982636a2569e9830b9cb5ecc79f5e01b9d52220ff63"
CHECK_REPORT_S8 = "ace731f83594c690c30bf359611f76c7c685eba83f9696094f13b3bb089575e0"
EMIT_FOUR_GYRATIONS = {
    "text": "d8d72f73330093ac75a4d559cec28dd4894401aab349d5167063b5f849d1ca35",
    "csv": "0f5a15bbdb5972cbe65be6da01054ab0ae79f8cbda59c76eeb312aae1fbdc784",
}


def test_iso_stdout_is_pinned(tmp_path, monkeypatch, capsys):
    # the order-32 construction against a fixed relabelling of itself
    G = build_cyclic_gyrogroup(5)
    sigma = Permutation((0, *(1 + np.random.default_rng(7).permutation(31)).tolist()))
    monkeypatch.chdir(tmp_path)
    Path("left.csv").write_text(emit_tables(G, "csv"), encoding="utf-8")
    Path("right.csv").write_text(emit_tables(relabel(G, sigma), "csv"), encoding="utf-8")
    assert main(["iso", "--left", "left.csv", "--right", "right.csv"]) == 0
    assert sha256(capsys.readouterr().out) == ISO_ORDER_32


def test_check_report_on_s8_file_is_pinned(tmp_path, monkeypatch, capsys):
    # the report names its source, so the file is read by a relative path
    monkeypatch.chdir(tmp_path)
    Path("s8.csv").write_text(s8_document(), encoding="utf-8")
    assert main(["check", "s8.csv", "--report", "report.json"]) == 1
    assert sha256(Path("report.json").read_text(encoding="utf-8")) == CHECK_REPORT_S8


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_emit_with_four_gyrations_is_pinned(fmt):
    # the identity sits third in the list and one permutation is never
    # referenced, so the legend symbols follow first appearance
    rows = [(1, 0, 2, 3, 4, 5, 6, 7), (0, 2, 1, 3, 4, 5, 6, 7), tuple(range(8)),
            (1, 2, 3, 4, 5, 6, 7, 0), (0, 1, 2, 3, 5, 4, 7, 6), (7, 6, 5, 4, 3, 2, 1, 0)]
    gyr = np.random.default_rng(11).choice([0, 1, 2, 4, 5], size=(8, 8))
    G = FiniteGyrogroup(cyclic_group(8), gyr, rows)
    assert sha256(emit_tables(G, fmt)) == EMIT_FOUR_GYRATIONS[fmt]
