import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gyrogroups import core, formats
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
    restrict,
    verify,
)

from formats_reference import ref_emit_tables, ref_load_tables
from witness_checks import witness_confirms


def traced_peak_mib(fn, *args, **kwargs) -> float:
    """The peak memory numpy and Python allocate in ``fn(*args, **kwargs)``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


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


@pytest.mark.parametrize("row, message", [
    ("I,I,I,I, A,A,A,A", None),
    ("I,I,I,I,A,A,A", "line 13: expected 8 fields, got 7"),
    ("I,I,I,I,,,A,A,A", "line 13: expected 8 fields, got 9"),
    ("I,I,I,I,A, ,A,A", "line 13, field 6: symbol '' is not defined in the legend"),
], ids=["padded field", "a field short", "a comma for a field", "a space for a field"])
@pytest.mark.parametrize("kind", [str, bytes])
def test_load_reads_gyration_rows_of_other_shapes(g3, row, message, kind):
    # rows that are not one-byte fields joined by commas load, or fail, as
    # the per-line rules have them
    doc = emit_tables(g3, "csv").replace("I,I,I,I,A,A,A,A", row, 1)
    doc = doc if kind is str else doc.encode()
    expected = load_outcome(load_tables, emit_tables(g3, "csv"), True)
    if message is not None:
        expected = (TableFormatError, message)
    assert load_outcome(load_tables, doc, True) == expected
    assert load_outcome(ref_load_tables, doc, True) == expected


@pytest.mark.parametrize("kind", [str, bytes])
def test_load_reports_a_gyration_block_that_ends_the_document(kind):
    # the last row's newline is missing, so the block is a byte short
    doc = "order,2\ncayley\n0,1\n1,0\ngyration\nI,I\nI,I"
    doc = doc if kind is str else doc.encode()
    message = "line 6, field 1: symbol 'I' is not defined in the legend"
    assert load_outcome(load_tables, doc, False) == (TableFormatError, message)
    assert load_outcome(ref_load_tables, doc, False) == (TableFormatError, message)


def test_load_reports_a_lone_surrogate_as_an_invalid_byte(g3):
    # a str is encoded to UTF-8 once, a lone surrogate to three bytes that
    # are no UTF-8, and the first of them is named as in a file
    lines = emit_tables(g3, "csv").split("\n")
    lines[4] = "\ud800" + lines[4][1:]  # the first entry of Cayley row 2
    with pytest.raises(TableFormatError, match="^line 5: invalid UTF-8 byte 0xed$"):
        load_tables("\n".join(lines))


def test_load_bytes_crlf_normalized(g3):
    doc = emit_tables(g3, "csv").replace("\n", "\r\n").encode()
    assert emit_tables(load_tables(doc), "csv") == emit_tables(g3, "csv")


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


@pytest.mark.parametrize("first, message", [
    ("perm I: 0 1 2 x 4 5 6 7", "line 20, field 4: 'x' is not an integer"),
    ("perm I: 0 1 2 3 4 5 6", "line 20: permutation 'I' lists 7 images, expected 8"),
    ("perm I: 0 1 2 3 4 5 6 6", "line 20: permutation 'I' is not a bijection"),
])
@pytest.mark.parametrize("later", ["perm I: 0 1 2 3 4 5 6 7", "perm : 0", "pern B: 0"])
def test_load_reports_legend_errors_in_line_order(g3, first, message, later):
    # the images of a legend line are read with the whole legend, after the
    # per-line checks of the lines below it, and their errors still come first
    doc = emit_tables(g3, "csv").replace("perm I: 0 1 2 3 4 5 6 7", first) + later + "\n"
    assert load_outcome(load_tables, doc, False) == (TableFormatError, message)
    assert load_outcome(ref_load_tables, doc, False) == (TableFormatError, message)


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


def test_strict_load_builds_no_group_for_its_latin_checks(g3, monkeypatch):
    # the latin checks read the Cayley rows and columns themselves, so the
    # one instance built is the one returned, which adopts its tables
    doc = emit_tables(g3, "csv")
    bad = doc.replace("4,7,6,5,0,3,2,1", "4,7,6,5,0,3,2,2")
    error = load_outcome(ref_load_tables, bad, True)
    assert error[0] is TableFormatError

    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was built for the latin checks")

    monkeypatch.setattr(FiniteGyrogroup, "__init__", no_instance)
    assert np.array_equal(load_tables(doc).cayley, g3.cayley)
    assert load_outcome(load_tables, bad, True) == error


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


def _assert_narrowest(G):
    """The Cayley table and the image rows in _element_type(N), the gyration
    table in _element_type(K) for its K distinct gyrations."""
    assert G.cayley.dtype == G.perm_matrix.dtype == core._element_type(G.order)
    assert G.gyr_table.dtype == core._element_type(len(G.perm_matrix))


def test_every_producer_stores_the_cayley_table_in_its_narrowest_type():
    # np.min_scalar_type(N - 1): uint8 up to order 256, uint16 from 257, for
    # the image rows too; the construction's two gyrations are uint8
    for N, kind in ((256, np.uint8), (257, np.uint16)):
        G = FiniteGyrogroup.from_group(cyclic_group(N))
        _assert_narrowest(G)
        assert G.cayley.dtype == kind and G.gyr_table.dtype == np.uint8
    for n, kind in ((8, np.uint8), (9, np.uint16)):
        G = build_cyclic_gyrogroup(n)
        sigma = np.arange(G.order)
        sigma[[0, 5]] = [5, 0]
        moved = FiniteGyrogroup(sigma[G.cayley[sigma][:, sigma]], G.gyr_table[sigma][:, sigma],
                                sigma[G.perm_matrix[:, sigma]])
        doc = emit_tables(G, "csv")
        documents = [
            doc,  # the blocks read whole, the gyrations as byte pairs
            doc.replace("cayley\n0,", "cayley\n\u0660,", 1),  # int() reads it, numpy does not
            doc.replace("gyration\nI,", "gyration\n I,", 1),  # the gyrations token by token
            emit_tables(moved, "csv"),  # the identity relabelled back to row 0
        ]
        for loaded in (G, restrict(G, range(G.order)), *map(load_tables, documents)):
            _assert_narrowest(loaded)
            assert loaded.cayley.dtype == kind and np.array_equal(loaded.cayley, G.cayley)
            assert loaded.gyr_table.dtype == np.uint8


def test_gyration_table_takes_the_narrowest_type_of_its_gyration_count():
    # uint8 holds 256 distinct gyrations and uint16 the 257th, renumbered or
    # not, and read from a legend whose missing-symbol mark K needs uint16
    perms = list(itertools.islice(itertools.permutations(range(6)), 257))
    gyr = np.zeros((6, 6), dtype=int)
    gyr[1, 1] = 255
    for images, kind in ((perms[:256], np.uint8), (perms[1:2] + perms[:256], np.uint8),
                         (perms, np.uint16)):
        G = FiniteGyrogroup(cyclic_group(6), gyr, images)
        for built in (G, load_tables(emit_tables(G, "csv"))):
            _assert_narrowest(built)
            assert built.gyr_table.dtype == kind and built.gyration(1, 1) == G.gyration(1, 1)


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


def _past_the_letters() -> tuple[list[np.ndarray], list[tuple[int, ...]]]:
    """Two order-8 gyration tables of 40 gyrations each, with and without the
    identity among them, and a legend of those 41 and 3 more."""
    rng = np.random.default_rng(3)
    images = {tuple(rng.permutation(8).tolist()) for _ in range(60)} - {tuple(range(8))}
    perms = [tuple(range(8))] + sorted(images)[:43]
    tables = [
        rng.permutation(np.resize(np.arange(low, low + 40), 64)).reshape(8, 8) for low in (0, 1)
    ]
    return tables, perms


def test_emit_matches_reference_past_the_letters(identity_placements):
    # 40 gyrations in the table and 4 never referenced, so symbols run on
    # from the letters to P25..P42 and the two grids differ in width; and a
    # table of I and A alone, whose 29 unreferenced symbols run to P29, wider
    # than the gyration grid's width of 1
    tables, perms = _past_the_letters()
    cases = [(gyr, perms, "P42") for gyr in tables]
    cases.append((np.eye(8, dtype=np.int64), perms[:31], "P29"))
    for gyr, legend, last in cases:
        G = FiniteGyrogroup(cyclic_group(8), gyr, legend)
        assert len(G.perm_matrix) == len(legend)
        for fmt in ("csv", "text"):
            assert emit_tables(G, fmt) == ref_emit_tables(G, fmt)
        doc = emit_tables(G, "csv")
        assert f"perm {last}: " in doc
        assert f"  {last} = " in emit_tables(G, "text")
        assert load_outcome(load_tables, doc, True) == load_outcome(ref_load_tables, doc, True)
        assert emit_tables(load_tables(doc), "csv") == doc
    # the identity is I at whatever index it has, and no gyration is I where
    # none is the identity
    for tables in identity_placements.values():
        G = FiniteGyrogroup(*tables)
        for fmt in ("csv", "text"):
            assert emit_tables(G, fmt) == ref_emit_tables(G, fmt)


@pytest.mark.parametrize("rows", [3, 1])
def test_emitters_match_the_reference_across_block_edges(monkeypatch, rows):
    # the emitters take an eighth of _BLOCK_CELLS cells at a time; in blocks
    # of a few rows, or of one, a gyration first appears in a later block than
    # row 0, and its symbol still goes by its first appearance in row-major
    # order; the order-8 table's 40 gyrations spread over all its blocks
    tables, perms = _past_the_letters()
    groups = [build_cyclic_gyrogroup(4), build_cyclic_gyrogroup(7)]
    groups.append(FiniteGyrogroup(cyclic_group(8), tables[0], perms))
    for G in groups:
        monkeypatch.setattr(core, "_BLOCK_CELLS", 8 * rows * G.order)
        assert core._row_blocks(G.order, 8 * G.order)[0] == slice(0, rows)
        for fmt in ("csv", "text"):
            assert emit_tables(G, fmt) == ref_emit_tables(G, fmt)
        doc = emit_tables(G, "csv")
        loaded = load_tables(doc)
        for table in ("cayley", "gyr_table", "perm_matrix"):
            assert np.array_equal(getattr(loaded, table), getattr(G, table))
        assert emit_tables(loaded, "csv") == doc


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
    if isinstance(doc, str):
        # a str is read as its UTF-8 bytes, on the one path a file takes
        assert load_outcome(load_tables, doc.encode(), strict) == got
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


def test_identity_row_search_passes_over_decoys():
    # the identity sits at row 5; rows 2 and 7 are made to start with 0 as
    # it does, row 2 the identity row but for its last two entries
    lines = BASE_DOCUMENTS[1].split("\n")
    assert lines[2 + 5] == "0,1,2,3,4,5,6,7"

    def document(rows: dict[int, str]) -> str:
        edited = list(lines)
        for a, row in rows.items():
            edited[2 + a] = row
        return "\n".join(edited)

    near, zero_first = "0,1,2,3,4,5,7,6", "0," + lines[2 + 7].split(",", 1)[1]
    documents = [
        document({2: near, 7: zero_first}),
        document({2: near, 7: lines[2 + 5]}),  # two identity rows: the first is taken
        document({2: near, 5: near, 7: zero_first}),  # no candidate is an identity row
    ]
    for doc in documents:
        for strict in (False, True):
            assert load_outcome(load_tables, doc, strict) == load_outcome(ref_load_tables, doc, strict)
    for doc in documents[:2]:
        assert load_tables(doc, strict=False).cayley[0].tolist() == list(range(8))
    # a latin square whose one row starting with 0 is not the identity row
    subtraction = (np.arange(8)[:, None] - np.arange(8)) % 8
    doc = emit_tables(FiniteGyrogroup.from_group(subtraction), "csv")
    assert load_outcome(load_tables, doc, False) == load_outcome(ref_load_tables, doc, False)
    with pytest.raises(TableFormatError, match="no left-identity row found"):
        load_tables(doc)


# ------------------------------------------------------------ memory at 1024
# Each pass over a table of order 1024 holds at most a block of rows in
# temporaries (no int64 or intp copy of a whole table), beside the tables.


@pytest.fixture(scope="module")
def g1024():
    return build_cyclic_gyrogroup(10)


def test_load_peak_memory_at_order_1024(g1024):
    # the blocks are read into uint16 and uint8 arrays, the gyration block's
    # field bytes through a strided view of the document, and the lines one
    # at a time: 3.2 MiB, the 2 MiB Cayley table beside the gyration table's
    # 1 MiB; a 0.5 MiB copy held beside them would break the bound
    data = emit_tables(g1024, "csv").encode("ascii")
    assert traced_peak_mib(load_tables, data, strict=False) <= 3.6


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_emit_pieces_peak_memory_at_order_1024(g1024, fmt):
    # an eighth of a block's gather and its bytes, and the first appearances
    # of the gyrations in as many cells (1.4 and 1.2 MiB), not the document
    assert traced_peak_mib(lambda: sum(map(len, formats._table_pieces(g1024, fmt)))) <= 2.5
