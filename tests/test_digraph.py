"""Tests for the multigraph container and the edge-list file format."""

import os
import threading
import warnings

import numpy as np
import pytest

from poisson_digraph import digraph
from poisson_digraph.digraph import (
    _CHUNK_ROWS,
    MAX_N,
    MultiDigraph,
    edge_list_text,
    read_edge_list,
    write_edge_list,
)
from poisson_digraph.sampler import _unit_arc_codes, sample_graph_fast
from poisson_digraph.weights import ParetoMirrored, moments, sample_weights
from graph_helpers import arc_dict, assert_same_text, graph_from_arcs, traced_peak


def test_duplicate_arcs_are_merged():
    g = MultiDigraph(
        3,
        np.array([1, 1, 2, 1]),
        np.array([2, 2, 3, 2]),
        np.array([1, 2, 1, 3]),
    )
    assert arc_dict(g) == {(1, 2): 6, (2, 3): 1}
    assert g.total_arcs == 7
    assert g.multiplicity(1, 2) == 6
    assert g.multiplicity(2, 1) == 0
    assert g.multiplicity(2, 3) == 1
    assert g.multiplicity(3, 3) == 0
    assert g.multiplicity(1, 4) == 0  # outside 1..n


def test_zero_multiplicity_dropped():
    g = MultiDigraph(2, np.array([1, 2]), np.array([2, 1]), np.array([0, 5]))
    assert arc_dict(g) == {(2, 1): 5}


def test_vertex_range_validation():
    with pytest.raises(ValueError):
        MultiDigraph(2, np.array([0]), np.array([1]), np.array([1]))
    with pytest.raises(ValueError):
        MultiDigraph(2, np.array([1]), np.array([3]), np.array([1]))
    with pytest.raises(ValueError):
        MultiDigraph(2, np.array([1]), np.array([2]), np.array([-1]))
    with pytest.raises(ValueError):
        MultiDigraph(0, np.array([], dtype=int), np.array([], dtype=int), np.array([], dtype=int))


def test_vertex_count_is_capped_where_arc_codes_fit_int64():
    # the largest arc code n (n + 1) + n fits int64 at MAX_N and not above
    assert MAX_N * (MAX_N + 1) + MAX_N <= 2**63 - 1 < (MAX_N + 1) * (MAX_N + 2) + MAX_N + 1
    with pytest.raises(ValueError, match="exceeds the largest supported vertex count"):
        MultiDigraph.empty(MAX_N + 1)
    # at the cap, arcs between the extreme ids keep distinct codes and order
    n = MAX_N
    g = MultiDigraph(n, np.array([n, 1, n, n]), np.array([1, n, n, 1]), np.array([1, 2, 3, 4]))
    assert arc_dict(g) == {(1, n): 2, (n, 1): 5, (n, n): 3}
    assert g.multiplicity(n, 1) == 5
    assert g.multiplicity(n, n) == 3
    assert g.multiplicity(1, 1) == 0


def test_multiplicity_overflow_is_rejected():
    big = 2**62
    # one pair merged past int64
    with pytest.raises(ValueError, match="exceeds 2\\*\\*63 - 1"):
        MultiDigraph(2, np.array([1, 1]), np.array([2, 2]), np.array([2**63 - 1, 1]))
    # two distinct pairs whose total passes int64
    with pytest.raises(ValueError, match="exceeds 2\\*\\*63 - 1"):
        MultiDigraph(2, np.array([1, 2]), np.array([2, 1]), np.array([big, big]))
    g = MultiDigraph(2, np.array([1, 2, 1]), np.array([2, 1, 2]), np.array([big, big - 2, 1]))
    assert g.total_arcs == 2**63 - 1
    assert g.multiplicity(1, 2) == big + 1


def test_loops_counted_once():
    g = graph_from_arcs(3, {(1, 1): 2, (1, 2): 1, (3, 3): 1})
    assert g.total_loops == 3
    assert g.total_arcs == 4
    assert np.array_equal(g.loop_mask, g.src == g.dst)


def test_empty_graph():
    g = MultiDigraph.empty(4)
    assert g.n == 4
    assert g.total_arcs == 0
    assert arc_dict(g) == {}


def test_equality_ignores_input_order():
    a = MultiDigraph(3, np.array([1, 2]), np.array([2, 3]), np.array([1, 4]))
    b = MultiDigraph(3, np.array([2, 1]), np.array([3, 2]), np.array([4, 1]))
    c = MultiDigraph(3, np.array([2, 1]), np.array([3, 2]), np.array([4, 2]))
    assert a == b
    assert a != c
    assert a != MultiDigraph.empty(3)


def test_sorted_and_shuffled_input_build_equal_graphs():
    rng = np.random.default_rng(3)
    n = 50
    codes = np.unique(rng.integers(0, n * n, 400))
    src, dst = codes // n + 1, codes % n + 1
    mult = rng.integers(1, 5, codes.size)
    ordered = MultiDigraph(n, src, dst, mult)
    # the same arcs shuffled, each count split over two rows, plus zero rows
    split = rng.integers(0, mult + 1)
    order = rng.permutation(3 * codes.size)
    columns = ((src,) * 3, (dst,) * 3, (split, mult - split, 0 * mult))
    rows = [np.concatenate(column)[order] for column in columns]
    shuffled = MultiDigraph(n, *rows)
    assert ordered == shuffled
    # sorted but not strictly: each pair on two adjacent rows
    split = rng.integers(0, mult + 1)
    counts = np.stack((split, mult - split), axis=1).reshape(-1)
    assert MultiDigraph(n, np.repeat(src, 2), np.repeat(dst, 2), counts) == ordered
    assert np.array_equal(ordered.src, src) and np.array_equal(ordered.mult, mult)
    # the graph owns its arrays on both paths: the caller's writes do not reach it
    for g, inputs in ((ordered, (src, dst, mult)), (shuffled, rows)):
        expected = arc_dict(g)
        for a in inputs:
            a[:] = 1
        assert arc_dict(g) == expected


_BAD_INPUTS = {
    "n-zero": (0, [], [], []),
    "n-past-cap": (MAX_N + 1, [], [], []),
    "src-out-of-range": (3, [1, 4], [2, 2], [1, 1]),
    "dst-out-of-range": (3, [1, 2], [0, 2], [1, 1]),
    "negative-count": (3, [1, 2], [2, 3], [1, -1]),
    "int64-overflow": (3, [1, 2], [2, 3], [2**62, 2**62]),
    "unequal-lengths": (3, [1, 2], [2], [1, 1]),
}


@pytest.mark.parametrize("n, src, dst, mult", _BAD_INPUTS.values(), ids=_BAD_INPUTS)
def test_adopt_raises_as_the_constructor_does(n, src, dst, mult):
    messages = []
    for build in (MultiDigraph, MultiDigraph._adopt):
        with pytest.raises(ValueError) as info:
            build(n, *(np.array(a, dtype=np.int64) for a in (src, dst, mult)))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


_GOOD_INPUTS = {
    "unsorted": (4, [3, 1, 4, 2], [1, 2, 4, 3], [1, 2, 3, 4]),
    "duplicates": (4, [2, 1, 2, 2, 1], [3, 1, 3, 3, 1], [1, 2, 3, 4, 5]),
    "zero-counts": (4, [1, 2, 3, 4], [1, 2, 3, 4], [0, 5, 0, 1]),
    "canonical": (4, [1, 1, 3], [2, 4, 3], [2, 1, 7]),
    "empty": (4, [], [], []),
}


@pytest.mark.parametrize("n, src, dst, mult", _GOOD_INPUTS.values(), ids=_GOOD_INPUTS)
def test_adopt_builds_what_the_constructor_builds(n, src, dst, mult):
    arrays = [np.array(a, dtype=np.int64) for a in (src, dst, mult)]
    copied = MultiDigraph(n, *arrays)
    adopted = MultiDigraph._adopt(n, *(a.copy() for a in arrays))
    assert adopted == copied
    assert adopted.src.dtype == adopted.dst.dtype == adopted.mult.dtype == np.int64
    assert adopted.src.flags.c_contiguous and adopted.mult.flags.c_contiguous


def test_adopt_keeps_canonical_arrays_uncopied():
    src, dst, mult = (np.array(a, dtype=np.int64) for a in ([1, 1, 3], [2, 4, 3], [2, 1, 7]))
    g = MultiDigraph._adopt(4, src, dst, mult)
    assert g.src is src and g.dst is dst and g.mult is mult
    assert not np.shares_memory(MultiDigraph(4, src, dst, mult).src, src)


def test_multiplicity_matches_arc_map():
    arcs = {(1, 2): 3, (2, 2): 1, (5, 1): 2}
    g = graph_from_arcs(5, arcs)
    assert arc_dict(g) == arcs
    for v in range(1, 6):
        for u in range(1, 6):
            assert g.multiplicity(v, u) == arcs.get((v, u), 0)


def test_edge_list_file_round_trip(tmp_path):
    g = graph_from_arcs(4, {(1, 2): 2, (3, 3): 1, (4, 1): 5})
    path = tmp_path / "g.tsv"
    write_edge_list(g, path, meta={"seed": 7, "l_n": 8.0, "model": {"kind": "constant", "c": 2.0}})
    back, meta = read_edge_list(path)
    assert back == g
    assert meta["seed"] == "7"
    assert meta["l_n"] == "8.0"
    assert "constant" in meta["model"]


def test_reader_meta_n_is_written_once_and_must_agree(tmp_path):
    g = graph_from_arcs(4, {(1, 2): 2, (4, 1): 5})
    first, again = tmp_path / "first.tsv", tmp_path / "again.tsv"
    write_edge_list(g, first, meta={"seed": 7})
    back, meta = read_edge_list(first)
    assert meta["n"] == "4"
    write_edge_list(back, again, meta)
    text = again.read_text()
    assert text.count("# n=") == 1
    assert text == first.read_text()
    assert read_edge_list(again) == (g, meta)
    for bad in ("5", 5, "four"):
        with pytest.raises(ValueError, match=f"n={bad} conflicts with the graph's n=4"):
            edge_list_text(g, {"n": bad})


def test_non_ascii_metadata_is_written_and_read_as_utf8(tmp_path):
    g = graph_from_arcs(3, {(1, 2): 1, (3, 3): 2})
    meta = {"note": "café"}
    path = tmp_path / "g.tsv"
    write_edge_list(g, path, meta)
    header = path.read_bytes().split(b"# src", 1)[0]
    assert "café".encode("utf-8") in header
    assert read_edge_list(path)[1]["note"] == "café"
    assert edge_list_text(g, meta).encode("utf-8") == path.read_bytes()


def test_edge_list_text_is_deterministic():
    g = graph_from_arcs(3, {(2, 1): 1, (1, 3): 2})
    assert edge_list_text(g, {"seed": 0}) == edge_list_text(g, {"seed": 0})
    assert "# n=3" in edge_list_text(g)


def _row_loop_text(g):
    """Edge-list text rendered one f-string per row, the reference for the array writer."""
    lines = ["# poisson-digraph edge list v1", f"# n={g.n}", "# src\tdst\tmultiplicity"]
    for s, d, m in zip(g.src, g.dst, g.mult):
        lines.append(f"{s}\t{d}\t{m}")
    return "\n".join(lines) + "\n"


def _two_chunk_graph():
    """2 * _CHUNK_ROWS + 7 rows, about 2 MB of text; src and mult are wider in the last chunk."""
    k = 2 * _CHUNK_ROWS + 7
    mult = np.ones(k, dtype=np.int64)
    mult[-1] = 10**12
    dst = np.random.default_rng(6).integers(1, 10**6 + 1, k)
    return MultiDigraph(10**6, np.arange(1, k + 1), dst, mult)


def _random_graph():
    rng = np.random.default_rng(5)
    k = 2000
    # multiplicities of every width from 1 to 15 digits, plus one of 2**62 (19 digits)
    mult = 10 ** rng.integers(0, 15, k) + rng.integers(0, 10, k)
    mult[0] = 2**62
    return MultiDigraph(
        10**6, rng.integers(1, 10**6 + 1, k), rng.integers(1, 10**6 + 1, k), mult
    )


@pytest.mark.parametrize(
    "g",
    [
        _random_graph(),
        MultiDigraph(1, np.array([1]), np.array([1]), np.array([3])),
        MultiDigraph.empty(3),
        _two_chunk_graph(),
    ],
    ids=["random", "single-loop", "empty", "two-chunks"],
)
def test_edge_list_text_matches_row_loop(g, tmp_path):
    text = edge_list_text(g)
    assert_same_text(text, _row_loop_text(g))
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    assert_same_text(path.read_text(), text)
    back, meta = read_edge_list(path)
    assert back == g
    assert meta["n"] == str(g.n)


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_sorted_codes_render_as_the_graph_they_make(monkeypatch, chunk):
    # runs of equal codes that straddle chunk ends, and one longer than a chunk
    monkeypatch.setattr(digraph, "_CHUNK_ROWS", chunk)
    n = 6
    rng = np.random.default_rng(chunk)
    src, dst = rng.integers(1, n + 1, (2, 40))
    codes = np.sort(np.concatenate((src * (n + 1) + dst, np.full(9, 3 * (n + 1) + 3))))
    g = _unit_arc_codes(n, codes.copy())
    text = b"".join(digraph._row_chunks(n, digraph._code_rows(n, codes)))
    assert text == _row_loop_text(g).split("multiplicity\n", 1)[1].encode()
    # each chunk is as wide as its own largest values: one-digit ids in the
    # first chunks, seven-digit ones in the last
    n = 10**6 + 9
    small = rng.integers(1, 10, (2, 7))
    big = rng.integers(10**6, n + 1, (2, 7))
    codes = np.sort(np.concatenate((small[0] * (n + 1) + small[1], big[0] * (n + 1) + big[1])))
    g = _unit_arc_codes(n, codes.copy())
    text = b"".join(digraph._row_chunks(n, digraph._code_rows(n, codes)))
    assert text == _row_loop_text(g).split("multiplicity\n", 1)[1].encode()
    # a multiplicity of 2**62 (19 digits) in one chunk only
    mult = np.ones(14, dtype=np.int64)
    mult[5] = 2**62
    src, dst = np.concatenate((small, big), axis=1)
    g = MultiDigraph(n, src, dst, mult)
    assert edge_list_text(g) == _row_loop_text(g)


def test_a_bad_row_raises_when_its_chunk_is_rendered():
    # the chunks before it are rendered, and the total is carried across chunks
    bad_id = [(1, 2, 1), (4, 1, 1)]
    too_many = [(1, 2, 2**62), (2, 1, 2**62)]
    for chunks, message in (
        (bad_id, r"^vertex ids must lie in 1\.\.3$"),
        (too_many, r"^total multiplicity exceeds"),
    ):
        rendered = digraph._row_chunks(3, (tuple(np.array([v]) for v in row) for row in chunks))
        s, d, m = chunks[0]
        assert next(rendered) == f"{s}\t{d}\t{m}\n".encode()
        with pytest.raises(ValueError, match=message):
            next(rendered)


def test_edge_list_text_peak_memory():
    # a cell matrix of the whole graph peaks at 5.2 times the text,
    # 65,536-row chunks at 2.0
    model = ParetoMirrored(3.5)
    w = sample_weights(model, 200_000, 1)
    g = sample_graph_fast(w, moments(model).mu * w.n, 1)
    assert traced_peak(len(edge_list_text(g)), edge_list_text, g) <= 2.5


def test_read_skips_blank_lines_and_reads_comments_anywhere(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text(
        "# n=4\n\n1\t2\t1\n   \n\t\n# mid=1\n2\t3\t2\n   #  spaced = a b \n4 4 1\n\n"
    )
    g, meta = read_edge_list(path)
    assert arc_dict(g) == {(1, 2): 1, (2, 3): 2, (4, 4): 1}
    assert meta == {"n": "4", "mid": "1", "spaced": "a b"}


def test_read_crlf_line_endings(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_bytes(b"# n=3\r\n# seed=7\r\n1\t2\t1\r\n3\t3\t4\r\n")
    g, meta = read_edge_list(path)
    assert arc_dict(g) == {(1, 2): 1, (3, 3): 4}
    assert meta == {"n": "3", "seed": "7"}


def test_read_headerless_file_given_n(tmp_path):
    path = tmp_path / "plain.tsv"
    path.write_text("1\t2\t1\n2\t1\t3\n")
    g, meta = read_edge_list(path, n=2)
    assert arc_dict(g) == {(1, 2): 1, (2, 1): 3}
    assert meta == {}


@pytest.mark.parametrize(
    "row",
    [
        "1\t2",
        "1\t2\t1\t4",
        "1\t2\t1.5",
        "1\t2\t99999999999999999999",
        "1\t2\t1_0",
        "1\t2\t\u0663",
        "1\t2\t1 # trailing",
    ],
    ids=["two-columns", "four-columns", "non-integer", "int64-overflow", "underscore",
         "non-ascii-digit", "trailing-comment"],
)
def test_read_names_the_malformed_line(tmp_path, row):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# n=3\n1\t2\t1\n\n# c\n{row}\n3\t1\t1\n")
    with pytest.raises(ValueError, match="^line 5: "):
        read_edge_list(path)


def test_read_names_a_comment_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"# n=3\n1\t2\t1\n# note=caf\xe9\n3\t1\t1\n")
    with pytest.raises(ValueError, match=r"^line 3: comment is not UTF-8 \(byte 0xe9\)$"):
        read_edge_list(path)


@pytest.mark.parametrize("name", ["g.tsv", "g.tsv.gz"], ids=["by-name", "bytes"])
def test_read_keeps_a_free_comment_of_any_bytes(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"# n=3\n# caf\xe9\n1\t2\t1\n  #\xff\xfe\n# s\xc3\xa9ed=7\n2\t3\t1\n")
    g, meta = read_edge_list(path)
    assert arc_dict(g) == {(1, 2): 1, (2, 3): 1}
    assert meta == {"n": "3", "s\u00e9ed": "7"}
    # a bad row after such a comment is still named, on either route
    path.write_bytes(b"# n=3\n# caf\xe9\n1\t2\t1\n1\t2\n")
    with pytest.raises(ValueError, match="^line 4: expected 3 fields"):
        read_edge_list(path)


@pytest.mark.parametrize("text", ["# n=3\n", "", "\n  \n\t\n"], ids=["header-only", "empty", "blank"])
def test_read_data_less_file_is_empty_graph(tmp_path, text):
    path = tmp_path / "g.tsv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, _ = read_edge_list(path, n=3)
    assert g == MultiDigraph.empty(3)


@pytest.mark.parametrize(
    "header, message",
    [
        ("# n=abc\n", "line 1: n='abc' is not an integer"),
        ("# n=3\n# n=4\n", "line 2: n=4 conflicts with n=3 above"),
        ("# n=3\n# n=3\n# n=x\n", "line 3: n='x' is not an integer"),
    ],
    ids=["not-an-integer", "conflicting", "repeated-then-bad"],
)
def test_read_names_a_bad_n_header(tmp_path, header, message):
    path = tmp_path / "g.tsv"
    path.write_text(header + "1\t2\t1\n")
    for n in (None, 5):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_edge_list(path, n)
    # a repeat that agrees is what the writer emits for metadata read back
    path.write_text("# n=3\n# n=3\n1\t2\t1\n")
    assert read_edge_list(path)[0].n == 3


def test_read_reports_malformed_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# n=3\n1\t2\t1\n1\ttwo\t1\n")
    with pytest.raises(ValueError, match="line 3"):
        read_edge_list(path)
    path.write_text("# n=3\n1\t2\n")
    with pytest.raises(ValueError, match="line 2"):
        read_edge_list(path)


def test_read_requires_n_somewhere(tmp_path):
    path = tmp_path / "no_n.tsv"
    path.write_text("# just a comment\n1\t2\t1\n")
    with pytest.raises(ValueError, match="no n declared"):
        read_edge_list(path)
    g, _ = read_edge_list(path, n=5)
    assert g.n == 5
    assert arc_dict(g) == {(1, 2): 1}


def test_header_n_flag_override(tmp_path):
    g = graph_from_arcs(3, {(1, 2): 1})
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    bigger, _ = read_edge_list(path, n=10)
    assert bigger.n == 10


# -- the two read routes: a regular file by name, a pipe from its bytes ---------


def _read_through_pipe(data: bytes):
    """read_edge_list on ``/dev/fd/N``, the read end of a pipe a thread fills with ``data``.

    Reopening the pipe by name after the first read sees end of file at
    once, so a reader that does so returns an empty graph instead of blocking.
    """
    read_fd, write_fd = os.pipe()

    def feed():
        with os.fdopen(write_fd, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return _outcome(f"/dev/fd/{read_fd}")
    finally:
        writer.join(timeout=60)
        os.close(read_fd)
        assert not writer.is_alive()


def _outcome(path):
    """(graph, meta) of a read, or the message of the ValueError it raised."""
    try:
        return read_edge_list(path)
    except ValueError as exc:
        return str(exc)


# bytes that each read route must parse alike; the arcs and meta read today
ROUTE_CASES = {
    "vertical-tab": (b"# n=3\n1\x0b2\t1\n", {(1, 2): 1}),
    "nbsp": (b"# n=3\n1\xa02\t1\n", {(1, 2): 1}),
    "nel": (b"# n=3\n1\t2\t1\x85\n2\t3\x851\n", {(1, 2): 1, (2, 3): 1}),
    "crlf": (b"# n=3\r\n1\t2\t1\r\n2\t3\t1\r\n", {(1, 2): 1, (2, 3): 1}),
    "lone-cr": (b"# n=3\r1\t2\t1\r2\t3\t1\r", {(1, 2): 1, (2, 3): 1}),
    "plus": (b"# n=3\n+1\t2\t+1\n", {(1, 2): 1}),
    "minus-zero": (b"# n=3\n1\t2\t-0\n2\t3\t1\n", {(2, 3): 1}),
    "zero-padded": (b"# n=3\n0000000000000000000001\t2\t1\n", {(1, 2): 1}),
    "int64-max": (b"# n=3\n1\t2\t9223372036854775807\n", {(1, 2): 2**63 - 1}),
    "mid-file-comments": (b"# n=3\n1\t2\t1\n# mid=x\n  # k = v\n2\t3\t1\n", {(1, 2): 1, (2, 3): 1}),
}


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@needs_dev_fd
@pytest.mark.parametrize("case", ROUTE_CASES, ids=list(ROUTE_CASES))
def test_regular_file_and_pipe_read_alike(tmp_path, case):
    data, arcs = ROUTE_CASES[case]
    path = tmp_path / "g.tsv"
    path.write_bytes(data)
    g, meta = _outcome(path)
    assert arc_dict(g) == arcs
    assert meta["n"] == "3"
    assert _read_through_pipe(data) == (g, meta)


@needs_dev_fd
def test_pipe_reads_the_whole_file(tmp_path):
    # several times a pipe's buffer; then the same with a bad last row
    rng = np.random.default_rng(7)
    g = MultiDigraph(10**4, *rng.integers(1, 10**4 + 1, (2, 20000)), rng.integers(1, 9, 20000))
    text = edge_list_text(g, {"seed": 5}).encode()
    assert len(text) > 2**16
    path = tmp_path / "g.tsv"
    path.write_bytes(text)
    assert _outcome(path) == (g, {"n": str(g.n), "seed": "5"})
    assert _read_through_pipe(text) == (g, {"n": str(g.n), "seed": "5"})
    bad = text + b"1\t2\n"
    path.write_bytes(bad)
    lines = bad.count(b"\n")
    expected = f"line {lines}: expected 3 fields 'src dst multiplicity', got 2"
    assert _outcome(path) == expected
    assert _read_through_pipe(bad) == expected


def test_compressed_suffix_holding_plain_text_reads_as_text(tmp_path):
    # numpy would gunzip a .gz name; plain text under that name still reads
    path = tmp_path / "g.tsv.gz"
    path.write_text("# n=3\n1\t2\t1\n3\t3\t2\n")
    g, meta = read_edge_list(path)
    assert arc_dict(g) == {(1, 2): 1, (3, 3): 2}
    assert meta == {"n": "3"}


# -- the block reader: the writer's format as numbers, other blocks by loadtxt ---


def _loadtxt_calls(monkeypatch):
    """A list that grows by one at every np.loadtxt call."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def _rows(seed=4, n=40, size=300):
    """Unsorted rows with repeated pairs, zero counts and loops."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(1, n + 1, (2, size))
    dst[::9] = src[::9]
    return n, src, dst, rng.integers(0, 4, size)


# each renders a row (src, dst, mult) in another form, and says whether
# loadtxt reads it: line ends are read as LF first, and leading zeros parse
ROW_FORMS = {
    "comments": (lambda s, d, m, i: f"{s}\t{d}\t{m}\n" + "# note\n  # k=v\n" * (i % 7 == 3), True),
    "spaces": (lambda s, d, m, i: f"{s}  {d} {m}\n", True),
    "signs": (lambda s, d, m, i: f"+{s}\t{d}\t+{m}\n", True),
    "crlf": (lambda s, d, m, i: f"{s}\t{d}\t{m}\r\n", False),
    "lone-cr": (lambda s, d, m, i: f"{s}\t{d}\t{m}\r", False),
    "19-digit": (lambda s, d, m, i: f"{s:019d}\t{d}\t{m}\n", False),
}


@pytest.mark.parametrize("block", [64, 2**18], ids=["many-blocks", "one-block"])
@pytest.mark.parametrize("form", ROW_FORMS, ids=list(ROW_FORMS))
def test_fast_path_and_loadtxt_read_alike(tmp_path, monkeypatch, form, block):
    monkeypatch.setattr(digraph, "_BLOCK_BYTES", block)
    n, src, dst, mult = _rows()
    calls = _loadtxt_calls(monkeypatch)
    writer, other = tmp_path / "writer.tsv", tmp_path / "other.tsv"
    writer.write_text(f"# n={n}\n" + "".join(f"{s}\t{d}\t{m}\n" for s, d, m in zip(src, dst, mult)))
    fast, _ = read_edge_list(writer)
    assert not calls
    render, by_loadtxt = ROW_FORMS[form]
    rows = "".join(render(s, d, m, i) for i, (s, d, m) in enumerate(zip(src, dst, mult)))
    other.write_bytes(f"# n={n}\n".encode() + rows.encode())
    slow, meta = read_edge_list(other)
    assert bool(calls) == by_loadtxt
    assert slow == fast == MultiDigraph(n, src, dst, mult)
    assert meta["n"] == str(n)


@pytest.mark.parametrize("value", [10**18, 2**63 - 1], ids=["19-digit", "int64-max"])
def test_values_from_10_18_are_read_by_loadtxt(tmp_path, monkeypatch, value):
    # numpy's number parser clips past int64, so such a block is not its to read
    calls = _loadtxt_calls(monkeypatch)
    path = tmp_path / "g.tsv"
    path.write_text(f"# n=3\n1\t2\t{value}\n2\t3\t0\n")
    g, _ = read_edge_list(path)
    assert calls
    assert arc_dict(g) == {(1, 2): value}


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_bad_line_past_the_first_block_is_named(tmp_path, end):
    rows = [f"{i % 50 + 1}\t{i % 7 + 1}\t1" for i in range(3 * digraph._BLOCK_BYTES // 8)]
    path = tmp_path / "g.tsv"
    for bad in (len(rows) // 2, len(rows) - 1):
        lines = ["# n=50", *rows[:bad], "1\t2", *rows[bad:]]
        path.write_bytes(end.join(lines).encode() + end.encode())
        assert path.stat().st_size > 2 * digraph._BLOCK_BYTES
        # the bad row is line bad + 2: one header line above rows[0]
        with pytest.raises(ValueError, match=f"^line {bad + 2}: expected 3 fields"):
            read_edge_list(path)


def test_read_edge_list_peak_memory(tmp_path):
    # in units of one int64 array of the K arcs (8 K bytes), loadtxt's row
    # matrix beside the three columns copied out of it peaked at 6.0; the
    # block reader's columns, sized from the first block, at 4.0; grown to
    # twice the rows until an extrapolation from the share read is smaller,
    # at 3.6 (the columns 0.9 % above the rows, and one block's transients)
    model = ParetoMirrored(3.5)
    w = sample_weights(model, 200_000, 1)
    g = sample_graph_fast(w, moments(model).mu * w.n, 1)
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    assert traced_peak(8 * g.total_arcs, read_edge_list, path) <= 3.95
