import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gyrogroups import (
    FiniteGyrogroup,
    GyrogroupDataError,
    ReportDocument,
    TableFormatError,
    build_cyclic_gyrogroup,
    cyclic_group,
    emit_lattice_dot,
    emit_lattice_text,
    emit_tables,
    enumerate_subgyrogroups,
    load_tables,
    report_document,
    verify,
)

from formats_reference import ref_emit_tables, ref_load_tables
from witness_checks import witness_confirms


def test_csv_golden_row(g4):
    lines = emit_tables(g4, "csv").split("\n")
    assert lines[0] == "order,16"
    assert lines[2 + 8] == "8,13,10,15,12,9,14,11,0,5,2,7,4,1,6,3"
    assert lines[2 + 16] == "gyration"
    assert lines[-3] == "perm I: 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15"
    assert lines[-2] == "perm A: 0 5 2 7 4 1 6 3 8 13 10 15 12 9 14 11"


def test_text_document(g3):
    text = emit_tables(g3, "text")
    assert "cayley table (order 8)" in text
    assert "gyration table (order 8)" in text
    assert "A = (1 3)(5 7)" in text
    assert "I = identity" in text


def test_text_trivial_group():
    text = emit_tables(FiniteGyrogroup.from_group([[0]]), "text")
    assert "0 | 0" in text


def test_unknown_format(g3):
    with pytest.raises(ValueError, match="unknown format"):
        emit_tables(g3, "yaml")


def test_roundtrip_is_identity(g3):
    doc = emit_tables(g3, "csv")
    loaded = load_tables(doc)
    assert np.array_equal(loaded.cayley, g3.cayley)
    assert np.array_equal(loaded.gyr_table, g3.gyr_table)
    assert np.array_equal(loaded.perm_matrix, g3.perm_matrix)


def test_roundtrip_bytes_stable():
    for n in (3, 4, 5, 6):
        doc = emit_tables(build_cyclic_gyrogroup(n), "csv")
        assert emit_tables(load_tables(doc), "csv") == doc
        assert emit_tables(load_tables(doc.encode()), "csv") == doc


def test_emit_deterministic(g4):
    assert emit_tables(g4, "csv") == emit_tables(g4, "csv")
    assert emit_tables(g4, "text") == emit_tables(g4, "text")


def test_load_crlf_normalized(g3):
    doc = emit_tables(g3, "csv").replace("\n", "\r\n")
    assert emit_tables(load_tables(doc), "csv") == emit_tables(g3, "csv")


def test_load_reports_wrong_field_count(g3):
    lines = emit_tables(g3, "csv").split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0]  # drop a field from the second row
    with pytest.raises(TableFormatError, match="line 4: expected 8 fields, got 7"):
        load_tables("\n".join(lines))


def test_load_reports_bad_integer(g3):
    doc = emit_tables(g3, "csv").replace("4,7,6,5", "4,x,6,5")
    with pytest.raises(TableFormatError, match="not an integer"):
        load_tables(doc)


def test_load_reports_out_of_range(g3):
    doc = emit_tables(g3, "csv").replace("4,7,6,5", "4,9,6,5")
    with pytest.raises(TableFormatError, match="out of range"):
        load_tables(doc)


def test_load_reports_undefined_symbol(g3):
    doc = emit_tables(g3, "csv").replace("I,A,I,A,A,I,A,I", "I,B,I,A,A,I,A,I", 1)
    with pytest.raises(TableFormatError, match="'B' is not defined"):
        load_tables(doc)


def test_load_reports_a_huge_order_at_the_first_row():
    # the per-token reader allocates nothing before it has read the rows
    doc = "order,99999999999999999999\ncayley\n0,1\n"
    with pytest.raises(TableFormatError, match="line 3: expected 99999999999999999999 fields"):
        load_tables(doc)


def test_load_reports_duplicate_legend(g3):
    doc = emit_tables(g3, "csv") + "perm A: 0 1 2 3 4 5 6 7\n"
    with pytest.raises(TableFormatError, match="duplicate legend symbol"):
        load_tables(doc)


def test_load_reports_non_bijective_legend(g3):
    doc = emit_tables(g3, "csv").replace("perm A: 0 3 2 1 4 7 6 5", "perm A: 0 3 2 1 4 7 6 6")
    with pytest.raises(TableFormatError, match="not a bijection"):
        load_tables(doc)


def test_load_strict_rejects_latin_violation(g3):
    doc = emit_tables(g3, "csv").replace("4,7,6,5,0,3,2,1", "4,7,6,5,0,3,2,2")
    with pytest.raises(TableFormatError, match="repeats a value"):
        load_tables(doc)
    # lenient load hands the same corruption to verify instead
    G = load_tables(doc, strict=False)
    report = verify(G)
    assert not report.passed
    for result in report.failures():
        assert witness_confirms(G, result)


def test_load_normalizes_identity_position():
    # cyclic group of order 3 relabeled so that the identity sits at index 2
    sigma = np.array([2, 1, 0])
    inv = sigma
    base = cyclic_group(3)
    shuffled = sigma[base[inv[:, None], inv[None, :]]]
    G = FiniteGyrogroup.from_group(shuffled)
    doc = emit_tables(G, "csv")
    loaded = load_tables(doc)
    assert np.array_equal(loaded.cayley[0], np.arange(3))
    assert verify(loaded).passed


def test_load_strict_requires_identity_row():
    # latin square of order 3 in which no row is the identity row
    doc = (
        "order,3\ncayley\n0,2,1\n2,1,0\n1,0,2\n"
        "gyration\nI,I,I\nI,I,I\nI,I,I\nperm I: 0 1 2\n"
    )
    with pytest.raises(TableFormatError, match="identity"):
        load_tables(doc)
    loaded = load_tables(doc, strict=False)
    assert not verify(loaded).check("left_identity").passed


def test_lattice_dot_output(g3):
    lattice = enumerate_subgyrogroups(g3)
    dot = emit_lattice_dot(lattice)
    assert dot.startswith("digraph subgyrogroup_lattice {")
    assert dot.count(" [label=") == 8
    assert dot.count(" -> ") == len(lattice.covers)
    assert '[label="<5> (order 4)"]' in dot
    text = emit_lattice_text(lattice)
    assert "<2,4> order 4 (group)" in text
    assert "<1,4> order 8 (non-group)" in text


def test_lattice_dot_trivial():
    trivial = enumerate_subgyrogroups(FiniteGyrogroup.from_group([[0]]))
    dot = emit_lattice_dot(trivial)
    assert dot.count(" [label=") == 1
    assert " -> " not in dot


def test_report_document_roundtrip(g3):
    report = verify(g3)
    doc = report_document(
        report,
        params={"n": 3, "order": 8},
        subgyrogroup_count=8,
        gyroauto_order=2,
    )
    again = ReportDocument.from_json(doc.to_json())
    assert again == doc
    assert again.all_passed
    assert again.gyrocommutative
    assert ReportDocument.from_json(again.to_json()).to_json() == doc.to_json()


def test_report_document_records_failures():
    G = FiniteGyrogroup([[j for j in range(4)] for _ in range(4)])
    doc = report_document(
        verify(G), params={"order": 4}, subgyrogroup_count=None, gyroauto_order=1
    )
    assert not doc.all_passed
    failed = [c for c in doc.checks if c["status"] == "fail"]
    assert failed and all(isinstance(c["witness"], list) for c in failed)


# ------------------------------------------------ against the per-token code


def load_outcome(load, doc, strict):
    """The loaded tables and legend, or the error type and message."""
    try:
        G = load(doc, strict=strict)
    except Exception as exc:
        return type(exc), str(exc)
    return G.cayley.tolist(), G.gyr_table.tolist(), G.perm_matrix.tolist()


def test_emit_matches_reference_past_the_letters():
    # 40 gyrations in the table and 4 never referenced, so symbols run on
    # from the letters to P25..P42 and the two grids differ in width
    rng = np.random.default_rng(3)
    images = {tuple(rng.permutation(8).tolist()) for _ in range(60)} - {tuple(range(8))}
    perms = [tuple(range(8))] + sorted(images)[:43]
    for low in (0, 1):  # with and without the identity in the table
        gyr = rng.permutation(np.resize(np.arange(low, low + 40), 64)).reshape(8, 8)
        G = FiniteGyrogroup(cyclic_group(8), gyr, perms)
        assert len(G.perm_matrix) == 44
        for fmt in ("csv", "text"):
            assert emit_tables(G, fmt) == ref_emit_tables(G, fmt)
        doc = emit_tables(G, "csv")
        assert "perm P42: " in doc
        assert load_outcome(load_tables, doc, True) == load_outcome(ref_load_tables, doc, True)


@pytest.mark.parametrize("token", ["Ǿ", "٣", "+3", "1_0"])
def test_load_reads_entries_as_int_does_at_order_512(token):
    # numpy's integer parser reads "Ǿ" as 462, a valid entry at this order;
    # int() rejects it, and takes "٣" and "1_0" where numpy does not
    lines = emit_tables(build_cyclic_gyrogroup(9), "csv").split("\n")
    fields = lines[300].split(",")
    fields[7] = token
    lines[300] = ",".join(fields)
    doc = "\n".join(lines)
    expected = load_outcome(ref_load_tables, doc, False)
    assert load_outcome(load_tables, doc, False) == expected
    assert (expected[0] is TableFormatError) == (token == "Ǿ")


def _base_documents():
    # the construction, and a copy with the identity moved to row 5, which
    # strict loading relabels back to row 0
    G = build_cyclic_gyrogroup(3)
    sigma = np.arange(8)
    sigma[[0, 5]] = [5, 0]
    moved = FiniteGyrogroup(
        sigma[G.cayley[sigma][:, sigma]],
        G.gyr_table[sigma][:, sigma],
        sigma[G.perm_matrix[:, sigma]],
    )
    return [emit_tables(G, "csv"), emit_tables(moved, "csv")]


BASE_DOCUMENTS = _base_documents()
TRICKY_TOKENS = [
    "1_0", "٣", "+3", " 4 ", "", "-1", "8", "99999999999999999999", "#", "\n", "\n\n",
    "\r", "Ǿ4", "4Ǿ", "\x0c4", "4\x1f", "\xa04", " I", "A ", "B", "I,A", "perm A", ":",
]
# entries that load, some with a new value; numpy can read "Ǿ" as a digit
NUMBER_TOKENS = ["0", "7", "+0", "07", " 5", "\t3 ", "\x0c4", "٣", "Ǿ4"]
SYMBOL_TOKENS = ["A", "I", " A", "I\t"]


@st.composite
def mutated_documents(draw, documents=tuple(BASE_DOCUMENTS), top_byte=127):
    """One of ``documents`` with one to three entries, tokens or bytes
    changed; bytes stay ASCII unless ``top_byte`` is raised above 127."""
    doc = draw(st.sampled_from(documents))
    mode = draw(st.sampled_from(["entry", "token", "byte"]))
    if mode != "byte":
        # any piece between separators, or a separator; or only entries
        parts = re.split(r"([,\n: ])", doc)
        entries = [i for i, part in enumerate(parts) if re.fullmatch(r"[0-9]+|[IA]", part)]
        for _ in range(draw(st.integers(1, 3))):
            if mode == "entry":
                i = draw(st.sampled_from(entries))
                tokens = NUMBER_TOKENS if parts[i].isdigit() else SYMBOL_TOKENS
                parts[i] = draw(st.sampled_from(tokens))
            else:
                i = draw(st.integers(0, len(parts) - 1))
                parts[i] = draw(st.sampled_from(TRICKY_TOKENS))
        doc = "".join(parts)
    else:
        data = bytearray(doc.encode())
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(data) - 1))
            byte = draw(st.integers(0, top_byte))
            op = draw(st.sampled_from(["replace", "insert", "delete"]))
            if op == "replace":
                data[i] = byte
            elif op == "insert":
                data.insert(i, byte)
            else:
                del data[i]
        doc = bytes(data)
    return doc


@settings(max_examples=500, deadline=None)
@given(mutated_documents(), st.booleans())
def test_load_matches_reference_on_mutated_documents(doc, strict):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_outcome(load_tables, doc, strict)
    expected = load_outcome(ref_load_tables, doc, strict)
    allowed = (TableFormatError, GyrogroupDataError)
    if isinstance(got[0], type):
        assert got[0] in allowed, got
    if isinstance(expected[0], type) and expected[0] not in allowed:
        # the reference allocates the whole table for the stated order before
        # it reads a line, which fails on a huge order
        assert expected[0] in (ValueError, MemoryError) and got[0] is TableFormatError
        return
    assert got == expected
