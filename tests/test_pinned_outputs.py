"""Digests of CLI outputs and sampled-scan witnesses that must not drift.

Any change to these bytes changes what users and downstream files see; a
refactor of the rules behind them must leave every digest as it is.
"""

import hashlib

import pytest

from gyrogroups import FiniteGyrogroup, build_cyclic_gyrogroup, verify
from gyrogroups.cli import main

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
    ("holomorph", "--n", "4"):
        "3cd74f780e2f4cff55dfa3fadb10e12690e37b0ae712a9af8817ea2646a61f68",
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
    report = verify(FiniteGyrogroup(cayley, G.gyr_table, G.perms), exhaustive_limit=16,
                    sample_size=10_000)
    assert report.sampled
    assert report.check("left_gyroassociativity").witness == (3, 5, 30)
    assert report.check("gyrator_identity").witness == (23, 22, 8)
    assert report.check("gyrocommutativity").witness == (3, 5)
