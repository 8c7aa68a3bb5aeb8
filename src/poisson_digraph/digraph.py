"""Directed multigraph container and the tab-separated edge-list format.

Vertices are indexed 1..n.  Arcs are held as parallel (src, dst, mult)
arrays with strictly positive multiplicities, in the order of the arc
code src * (n + 1) + dst, which is (src, dst) order.  This module alone
makes, sorts and decodes the codes: ``_arc_codes`` encodes arc rows,
``MultiDigraph._from_codes`` builds the graph of unit-arc codes, and
``_code_rows`` sorts codes and streams their rows.  Instances are
treated as immutable once constructed.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import stat
import warnings
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = ["MAX_N", "MultiDigraph", "edge_list_text", "write_edge_list", "read_edge_list"]

_FORMAT_TAG = "poisson-digraph edge list v1"
_INT64_MAX = 2**63 - 1
# the largest n whose arc codes src * (n + 1) + dst, at most n (n + 1) + n,
# fit in int64 (about 3.04e9)
MAX_N = math.isqrt(_INT64_MAX + 1) - 1
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
# rows handled at a time by the writer and by the checks that walk whole
# arc arrays: their transients stay a few MB, and the numpy calls are few
_CHUNK_ROWS = 2**16
# bytes the reader takes at a time; each block is cut at its last line end
_BLOCK_BYTES = 2**18
# MultiDigraph's checks on n and on arc rows, in the order they are applied
_ARC_FAULTS = (
    "n must be >= 1, got {n}",
    f"n={{n}} exceeds the largest supported vertex count {MAX_N}",
    "vertex ids must lie in 1..{n}",
    "multiplicities must be nonnegative",
    "total multiplicity exceeds 2**63 - 1",
)


class MultiDigraph:
    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray, mult: np.ndarray):
        """Build from parallel arc arrays (1-based vertex ids).

        Duplicate (src, dst) rows are merged; zero-multiplicity rows are
        dropped.  Raises ValueError on n outside 1..MAX_N, ids outside 1..n
        or negative counts.  The arrays are copied, so the caller's stay theirs.
        """
        self._build(n, src, dst, mult, np.array)

    @classmethod
    def _adopt(cls, n: int, src: np.ndarray, dst: np.ndarray, mult: np.ndarray) -> "MultiDigraph":
        """The constructor on fresh int64 arrays, which the graph takes over uncopied.

        Same checks, merging and errors as ``MultiDigraph(n, src, dst, mult)``;
        the caller must neither write nor keep the arrays it hands over.
        """
        g = cls.__new__(cls)
        g._build(n, src, dst, mult, np.asarray)
        return g

    def _build(self, n: int, src, dst, mult, as_int64) -> None:
        """The body of both entry points; ``as_int64`` copies (np.array) or adopts (np.asarray)."""
        src, dst, mult = (as_int64(a, dtype=np.int64) for a in (src, dst, mult))
        if not (src.shape == dst.shape == mult.shape) or src.ndim != 1:
            raise ValueError("src, dst, mult must be 1-d arrays of equal length")
        _raise_fault(_arc_fault(n, src, dst, mult)[0], n)
        if src.size and mult.min() == 0:
            keep = mult > 0
            src, dst, mult = src[keep], dst[keep], mult[keep]
        # strictly increasing codes, as in every file the writer makes, are
        # already canonical: nothing to sort or merge
        if _last_increasing_code(n, src, dst, -1) is None:
            # merge duplicates in the canonical (src, dst) order; the ids are
            # read back off the sorted codes, so src and dst need not follow them
            codes = _arc_codes(n, src, dst, out=src)
            del src, dst
            order = np.argsort(codes)
            codes = codes[order]
            mult = mult[order]
            del order
            start = np.flatnonzero(np.diff(codes, prepend=-1))
            if start.size != codes.size:
                mult = np.add.reduceat(mult, start)
                codes = codes[start]
            src, dst = np.divmod(codes, n + 1)
        self.n = int(n)
        self.src = src
        self.dst = dst
        self.mult = mult

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray) -> "MultiDigraph":
        """The graph with one arc per code of ``_arc_codes``, built in the buffer of ``codes``.

        ``codes``, a fresh int64 array that the caller hands over, is sorted in place;
        each run of equal codes becomes one row, with three K-row arrays at most alive.
        """
        codes.sort()
        run_start = np.empty(codes.size, dtype=bool)
        run_start[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=run_start[1:])
        start = np.flatnonzero(run_start)
        del run_start
        mult = np.empty_like(start)
        np.subtract(start[1:], start[:-1], out=mult[:-1])
        mult[-1:] = codes.size - start[-1:]
        # the distinct codes, gathered chunk by chunk into the starts' own buffer
        for lo in range(0, start.size, _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            start[rows] = codes[start[rows]]
        codes.resize(start.size, refcheck=False)
        src = np.floor_divide(start, n + 1, out=codes)
        dst = np.remainder(start, n + 1, out=start)
        return cls._adopt(n, src, dst, mult)

    @classmethod
    def empty(cls, n: int) -> "MultiDigraph":
        z = np.zeros(0, dtype=np.int64)
        return cls(n, z, z, z)

    # -- views ------------------------------------------------------------

    @property
    def total_arcs(self) -> int:
        return int(self.mult.sum())

    @cached_property
    def loop_mask(self) -> np.ndarray:
        return self.src == self.dst

    @property
    def total_loops(self) -> int:
        return int(self.mult[self.loop_mask].sum())

    @cached_property
    def _degrees(self) -> np.ndarray:
        """Rows d_in, d_out, loops of vertices 1..n, as ``structure.degree_arrays`` defines them.

        Read-only and computed once per graph, so every reader of the
        degrees shares one pass.
        """
        degrees = np.zeros((3, self.n + 1), dtype=np.int64)
        _count_degrees(degrees, self.src, self.dst, self.mult)
        return _degree_rows(degrees)

    def multiplicity(self, v: int, u: int) -> int:
        """Number of arcs from v to u; 0 for an absent pair or a vertex outside 1..n."""
        if not (1 <= v <= self.n and 1 <= u <= self.n):
            return 0
        # binary searches only: no n + 1 row offsets, which may not fit in memory
        lo = int(self.src.searchsorted(v))
        hi = int(self.src.searchsorted(v, side="right"))
        i = lo + int(self.dst[lo:hi].searchsorted(u))
        return int(self.mult[i]) if i < hi and self.dst[i] == u else 0

    def __repr__(self) -> str:
        return f"MultiDigraph(n={self.n}, arcs={self.total_arcs}, loops={self.total_loops})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiDigraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.mult, other.mult)
        )


def _n_fault(n: int) -> int | None:
    """The index into ``_ARC_FAULTS`` of the check that n fails, or None for n in 1..MAX_N."""
    return None if 1 <= n <= MAX_N else int(n > MAX_N)


def _arc_fault(n: int, src, dst, mult, total: int = 0) -> tuple[int | None, int]:
    """The first of the checks of ``_ARC_FAULTS`` that n and int64 rows fail, and the rows' total.

    Returns the index of the first failed check, or None, and ``total`` plus
    the exact sum of ``mult`` (``total`` itself once a check fails).  The
    total, with the rows of earlier calls, must be at most 2**63 - 1, so
    that merged counts and ``total_arcs`` are exact int64 sums: rows that
    come in parts, as the reader's blocks do, are checked part by part.
    """
    fault = _n_fault(n)
    if fault is not None or not src.size:
        return fault, total
    if src.min() < 1 or src.max() > n or dst.min() < 1 or dst.max() > n:
        return 2, total
    if mult.min() < 0:
        return 3, total
    # max * size bounds the sum cheaply: within int64, numpy's sum is exact
    if mult.max() > _INT64_MAX // mult.size:
        total += sum(mult.tolist())
    else:
        total += int(mult.sum())
    return (4 if total > _INT64_MAX else None), total


def _raise_fault(fault: int | None, n: int) -> None:
    """Raise the ValueError of ``_ARC_FAULTS[fault]`` for n vertices, unless fault is None."""
    if fault is not None:
        raise ValueError(_ARC_FAULTS[fault].format(n=n))


def _arc_codes(n: int, src, dst, out: np.ndarray | None = None) -> np.ndarray:
    """The int64 arc codes src * (n + 1) + dst on n vertices, into ``out`` (may be ``src``) if given.

    They sort as (src, dst) and decode by divmod by n + 1, 0-based targets too.
    """
    codes = np.multiply(src, n + 1, out=out, dtype=np.int64)
    codes += dst
    return codes


def _last_increasing_code(n: int, src: np.ndarray, dst: np.ndarray, last: int) -> int | None:
    """The last of the codes of ``_arc_codes`` if they strictly increase from above ``last``.

    ``last`` is the code of the rows before, or -1 for none; None means the
    codes do not increase.  The codes are made a chunk at a time.
    """
    for lo in range(0, src.size, _CHUNK_ROWS):
        codes = _arc_codes(n, src[lo : lo + _CHUNK_ROWS], dst[lo : lo + _CHUNK_ROWS])
        if codes[0] <= last or np.any(codes[1:] <= codes[:-1]):
            return None
        last = int(codes[-1])
    return last


def _count_degrees(degrees: np.ndarray, src, dst, mult) -> None:
    """Add arc rows to counting rows d_in, d_out, loops, exact in int64.

    The rows are n + 1 wide and indexed by the 1-based ids, so no shifted
    copy of an arc array is made; a loop counts in all three rows until
    ``_degree_rows`` takes it back out of d_in and d_out.
    """
    d_in, d_out, loops = degrees
    np.add.at(d_out, src, mult)
    np.add.at(d_in, dst, mult)
    loop = src == dst
    np.add.at(loops, src[loop], mult[loop])


def _degree_rows(degrees: np.ndarray) -> np.ndarray:
    """The read-only degree rows of vertices 1..n from the counting rows of ``_count_degrees``."""
    d_in, d_out, loops = degrees
    d_out -= loops
    d_in -= loops
    # column 0, which no id indexes, is cut off
    degrees = degrees[:, 1:]
    degrees.setflags(write=False)
    return degrees


# -- edge-list files ----------------------------------------------------------


def edge_list_text(g: MultiDigraph, meta: dict | None = None) -> str:
    """Render 'src<TAB>dst<TAB>multiplicity' rows with '#' header lines.

    The header always carries n; extra provenance (seed, model JSON,
    normalizer mode, L value) is passed through ``meta``.  An ``n`` in
    ``meta``, as ``read_edge_list`` returns it, is written once if it equals
    g.n and raises ValueError if it differs.  Output is byte-identical for
    identical inputs.  The text is the file's UTF-8 bytes, LF line ends
    included, decoded a chunk at a time.
    """
    return "".join(chunk.decode() for chunk in _edge_list_chunks(g.n, _graph_rows(g), meta))


def _edge_list_chunks(n: int, rows, meta: dict | None = None):
    """The bytes of an edge-list file: the UTF-8 header, then the row chunks as they are rendered.

    ``rows`` yields the arc rows once, as ``_row_chunks`` takes them.  An
    error in ``meta`` is raised at the call; a bad row only when its chunk
    is rendered, so a writer holds back the bytes before it.
    """
    lines = [f"# {_FORMAT_TAG}", f"# n={n}"]
    for key, value in (meta or {}).items():
        if key == "n":
            if not (_INT_FIELD.fullmatch(str(value).strip()) and int(value) == n):
                raise ValueError(f"meta n={value} conflicts with the graph's n={n}")
            continue
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"# {key}={value}")
    lines.append("# src\tdst\tmultiplicity")
    return chain([("\n".join(lines) + "\n").encode()], _row_chunks(n, rows))


def _graph_rows(g: MultiDigraph):
    """The arc rows of g as (src, dst, mult) chunks of ``_CHUNK_ROWS`` rows."""
    for lo in range(0, g.src.size, _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        yield g.src[rows], g.dst[rows], g.mult[rows]


def _code_rows(n: int, codes: np.ndarray):
    """The arc rows of codes of ``_arc_codes``, sorted in place: one row per run of equal codes.

    Yields (src, dst, mult) chunks, each the whole runs that start among
    ``_CHUNK_ROWS`` consecutive codes, so a run's multiplicity is its
    length and no chunk makes a transient longer than ``_CHUNK_ROWS``.
    """
    codes.sort()
    lo = 0
    while lo < codes.size:
        chunk = codes[lo : lo + _CHUNK_ROWS]
        first = np.empty(chunk.size, dtype=bool)
        first[0] = True
        np.not_equal(chunk[1:], chunk[:-1], out=first[1:])
        start = np.flatnonzero(first)
        del first
        # the last run may go on past the chunk
        end = int(codes.searchsorted(chunk[-1], side="right"))
        mult = np.diff(start, append=end - lo)
        src, dst = np.divmod(chunk[start], n + 1)
        yield src, dst, mult
        lo = end


def _row_chunks(n: int, rows):
    """'src<TAB>dst<TAB>mult' lines, ASCII bytes per (src, dst, mult) int64 chunk of ``rows``.

    One pass: each chunk is checked as ``MultiDigraph`` checks arcs, with
    the total of the chunks before it, just before it is rendered.  Each
    column fills one contiguous row of byte cells per digit of its largest
    value in the chunk, digits right-aligned, then a row of tabs or
    newlines.  The cells left of each value's leading digit are NUL, and
    are dropped from the bytes of the transposed matrix: the chunk's lines,
    which a file gets as rendered, with no newline translation.  Chunks keep
    the cells and digit arrays a few MB at any graph size.
    """
    total = 0
    for columns in rows:
        fault, total = _arc_fault(n, *columns, total)
        _raise_fault(fault, n)
        widths = [len(str(int(col.max()))) for col in columns]
        cells = np.empty((sum(widths) + 3, columns[0].size), dtype=np.uint8)
        end = 0
        for col, width, sep in zip(columns, widths, b"\t\t\n"):
            # the narrowest unsigned type that holds the column's values
            q = col.astype(np.min_scalar_type(10**width - 1))
            live = True
            for j in reversed(range(end, end + width)):
                rest = q // 10
                q -= rest * 10
                q += ord("0")
                # a cell where nothing is left of the value is a NUL pad
                np.multiply(q, live, out=cells[j], casting="unsafe")
                q = rest
                live = q != 0
            cells[end + width] = sep
            end += width + 1
        yield cells.T.tobytes().translate(None, b"\0")


def write_edge_list(g: MultiDigraph, path: str | Path, meta: dict | None = None) -> None:
    """Write the edge list of ``edge_list_text`` to ``path``, as UTF-8 with LF line ends.

    The bytes go as they are rendered, a chunk at a time and with no
    newline translation, to a temporary file beside ``path`` that then
    replaces it, so a failed render or write leaves the file untouched and
    no temporary behind (``_write_text``).
    """
    _write_text(path, _edge_list_chunks(g.n, _graph_rows(g), meta))


def _write_text(path: str | Path, chunks) -> None:
    """Write the UTF-8 bytes of ``chunks`` to the file ``path`` as rendered, whole or not at all.

    The file is binary: no newline translation.  A regular file, or a new
    one, is written as a temporary file beside it, which then replaces it:
    only one chunk is held at a time, and a failed render or write leaves
    the old file as it was.  A symbolic link is followed, so its target is
    replaced and the link stays.  The new file keeps an existing file's
    permission bits, but it is a new inode: a hard link to the old file
    keeps the old text.  Any other target, such as /dev/null or a FIFO, or
    one whose directory takes no new file, gets the chunks all rendered
    first and then written in place.
    """
    real = os.path.realpath(path)
    try:
        mode = os.stat(real).st_mode
    except FileNotFoundError:
        mode = None
    except OSError:
        mode = 0  # not known to be a regular file
    temp = None
    if mode is None or stat.S_ISREG(mode):
        try:
            fd, temp = _new_file_beside(real)
        except OSError:
            pass
    if temp is None:
        chunks = list(chunks)
        with open(path, "wb") as f:
            f.writelines(chunks)
        return
    try:
        with open(fd, "wb") as f:
            if mode is not None:
                os.chmod(fd, stat.S_IMODE(mode))
            f.writelines(chunks)
        os.replace(temp, real)
    except BaseException:
        os.unlink(temp)
        raise


def _new_file_beside(path: str) -> tuple[int, str]:
    """A new, empty file in the directory of ``path``: its descriptor and name.

    Created as ``open`` creates a file, with mode 0o666 less the umask.
    """
    directory, name = os.path.split(path)
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temp
        except FileExistsError:
            continue


def read_edge_list(path: str | Path, n: int | None = None) -> tuple[MultiDigraph, dict]:
    """Read an edge-list file; returns (graph, header metadata).

    Data lines hold three whitespace-separated int64 fields; blank lines
    are skipped, and a line whose first non-blank character is '#' is a
    comment, read as ``key=value`` metadata when it has an '='.  A comment
    may hold any bytes, but a ``key=value`` one must be UTF-8.  n is taken
    from the ``n`` comment, wherever it stands, unless supplied explicitly.
    Malformed data lines, metadata that is not UTF-8, and an ``n`` that is
    not an integer or disagrees with an earlier one, raise ValueError naming
    the line number.  The file is read once, in blocks (``_fold_blocks``),
    so a pipe or /dev/stdin reads alike; the graph takes over the columns.
    """
    meta: dict[str, str] = {}
    n, _, columns = _fold_blocks(path, n, meta, lambda n: _Columns(3, np.int64), _Columns.append)
    return MultiDigraph._adopt(n, *columns.take()), meta


def _read_degrees(path: str | Path, n: int | None = None) -> tuple[int, int, int, np.ndarray]:
    """n, total arcs, total loops and ``_degrees`` of the graph ``read_edge_list(path, n)`` reads.

    The degrees are counted from the reader's blocks (``_fold_blocks``), with no graph.
    """
    n, total, degrees = _fold_blocks(
        path, n, {}, lambda n: np.zeros((3, n + 1), dtype=np.int64),
        lambda degrees, columns, share: _count_degrees(degrees, *columns),
    )
    return n, total, int(degrees[2].sum()), _degree_rows(degrees)


def _fold_blocks(path: str | Path, n: int | None, meta: dict, start, add):
    """Fold the rows of an edge-list file into a state, a block at a time: the one edge-list reader.

    ``start(n)`` makes the state for n vertices, and ``add(state, columns,
    share)`` takes the src, dst and count columns of each block of
    ``_row_blocks`` in file order, while every block so far passes the
    graph's checks.  n is the argument, or else the file's ``n`` comment:
    the blocks read before it are held, then folded.  ``meta`` gathers the
    ``key=value`` comments.  Returns n, the total arcs and the state.

    The first error of the file is raised: a bad line anywhere, then no n,
    then the checks of ``_ARC_FAULTS`` in their order (n in 1..MAX_N, ids,
    negative counts, the int64 total).  A state that does not fit raises
    its MemoryError only where the file passes all of these.
    """
    blocks = _row_blocks(path, meta)
    held = []
    for block in blocks:
        held.append(block)
        if n is not None or "n" in meta:
            break
    if n is None:
        if "n" not in meta:
            raise ValueError("no n declared in header and none supplied")
        n = int(meta["n"])
    fault, total = _n_fault(n), 0
    state = memory = None
    if fault is None:
        try:
            state = start(n)
        except MemoryError as exc:
            memory = exc
    # the held blocks are let go as they are folded
    for rows, share in chain((held.pop(0) for _ in range(len(held))), blocks):
        if fault is None:
            fault, total = _arc_fault(n, *rows.T, total)
            if fault is None and state is not None:
                try:
                    add(state, rows.T, share)
                except MemoryError as exc:
                    state, memory = None, exc
        else:
            # a later block can still fail a check that comes first
            later = _arc_fault(n, *rows.T)[0]
            fault = fault if later is None else min(fault, later)
    _raise_fault(fault, n)
    if memory is not None:
        raise memory
    return n, total, state


class _Columns:
    """Equal columns of one type, grown in place as rows are appended."""

    def __init__(self, count: int, dtype):
        self.arrays = [np.empty(0, dtype=dtype) for _ in range(count)]
        self.used = 0

    def append(self, values, share: float | None) -> None:
        """Write the equal arrays of ``values`` into the columns after the rows used.

        Columns that are full are grown in place to twice the rows, or to the
        rows extrapolated from the ``share`` of the file read if fewer: a sorted
        file's first rows, with the smallest source ids, are its shortest, so an
        extrapolation from them runs high until much of the file is read.  A
        pipe, whose size is unknown (share None), doubles them.
        """
        end = self.used + len(values[0])
        if end > self.arrays[0].size:
            size = 2 * end if share is None else min(2 * end, math.ceil(end / share))
            for column in self.arrays:
                column.resize(max(end, size), refcheck=False)
        for column, rows in zip(self.arrays, values):
            column[self.used : end] = rows
        self.used = end

    def take(self) -> list[np.ndarray]:
        """The columns cut to the rows used, handed over to the caller."""
        for column in self.arrays:
            column.resize(self.used, refcheck=False)
        return self.arrays


def _row_blocks(path: str | Path, meta: dict):
    """Parse an edge-list file in one pass: each block's data rows, and the share of the file read.

    Rows come as (rows, 3) int64 arrays; the share is None for a file of
    unknown size, such as a pipe.  ``meta`` gathers the ``key=value``
    comments as they are read.  A block is cut at a line end, with CRLF and
    a lone CR read as LF.  A block in the writer's format, digits with
    TAB, TAB, LF in turn after its leading comment lines, is parsed as one
    string of numbers; any other goes through ``np.loadtxt``.  Comments
    are read in file order; after a malformed data line only comments are,
    and that line's error is raised at the end.  A UTF-8 byte-order mark
    is skipped at byte 0 only.
    """
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        size = info.st_size if stat.S_ISREG(info.st_mode) else 0
        lines = done = 0
        bad = None
        rest = [f.read(3)]  # the start of a line that no block has ended yet
        if rest[0] == b"\xef\xbb\xbf":
            rest, done = [], 3
        while True:
            chunk = f.read(_BLOCK_BYTES)
            if chunk:
                # a block ends at the chunk's last LF, or at a CR that no LF may follow
                cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, len(chunk) - 1) + 1
                if not cut:
                    rest.append(chunk)
                    continue
                block = b"".join([*rest, chunk[:cut]])
                rest = [chunk[cut:]]
            else:
                block = b"".join(rest)
                if not block:
                    break
                rest = []
            done += len(block)
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            if b"#" in block and _read_comments(block, lines, meta):
                # a '#' after data on its line: the first bad line is at or before it
                raise bad or _malformed_line(block, lines)
            if bad is None:
                rows, count, bad = _parse_block(block, lines)
                if len(rows):
                    yield rows, (done / size if size else None)
            else:
                count = block.count(b"\n")
            lines += count
        if bad is not None:
            raise bad


def _parse_block(block: bytes, lines: int) -> tuple[np.ndarray, int, ValueError | None]:
    """The (rows, 3) data rows of a block that starts after line ``lines``, and its line count.

    The third item is None, or the error naming the block's first bad line,
    with no rows.
    """
    # the leading comment lines, such as the writer's header, are no data
    head = 0
    while block.startswith(b"#", head):
        head = block.find(b"\n", head) + 1 or len(block)
    body = block[head:]
    separators = body.translate(None, b"0123456789")
    count = len(separators) // 3
    if separators == b"\t\t\n" * count:
        values = np.fromstring(body, dtype=np.int64, sep=" ")
        # an empty field leaves fewer numbers; a value past 10**18 may have
        # been clipped to int64, so loadtxt judges it
        if values.size == 3 * count and (count == 0 or values.max() < 10**18):
            return values.reshape(count, 3), block.count(b"\n", 0, head) + count, None
    count = block.count(b"\n")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(
                io.BytesIO(body), dtype=np.int64, comments="#", ndmin=2, encoding="latin-1"
            )
        if rows.size and rows.shape[1] != 3:
            raise ValueError
    except ValueError:
        return np.empty((0, 3), dtype=np.int64), count, _malformed_line(block, lines)
    return rows.reshape(-1, 3), count, None


def _read_comments(block: bytes, lines: int, meta: dict) -> bool:
    """Read the comments of a block that starts after line ``lines`` into ``meta``.

    Raises ValueError for metadata that is not UTF-8 and for a bad or
    conflicting ``n``.  Returns whether it stopped at a '#' that follows
    data on its line.
    """
    at = block.find(b"#")
    while at >= 0:
        start = block.rfind(b"\n", 0, at) + 1
        end = block.find(b"\n", at)
        end = len(block) if end < 0 else end
        if block[start:at].decode("latin-1").strip():
            return True
        body = block[at + 1 : end]
        # only metadata is decoded; no byte of a multi-byte UTF-8 character is '='
        if b"=" in body:
            try:
                key, _, value = body.decode().partition("=")
            except UnicodeDecodeError as exc:
                lineno = lines + block.count(b"\n", 0, at) + 1
                byte = exc.object[exc.start]
                raise ValueError(f"line {lineno}: comment is not UTF-8 (byte 0x{byte:02x})") from None
            key, value = key.strip(), value.strip()
            # n is the one key the reader acts on; a repeat must agree
            if key == "n" and not (
                _INT_FIELD.fullmatch(value) and int(meta.get("n", value)) == int(value)
            ):
                lineno = lines + block.count(b"\n", 0, at) + 1
                if not _INT_FIELD.fullmatch(value):
                    raise ValueError(f"line {lineno}: n={value!r} is not an integer")
                raise ValueError(f"line {lineno}: n={value} conflicts with n={meta['n']} above")
            meta[key] = value
        at = block.find(b"#", end)
    return False


def _malformed_line(block: bytes, lines: int) -> ValueError:
    """The error naming the first data line of ``block`` that is not three int64 fields.

    Called only after the block failed the array parse, to report where;
    the block starts after line ``lines`` of its file.  It reads lines as
    loadtxt does (latin-1, any whitespace separates fields) and returns no
    parsed values.
    """
    for lineno, line in enumerate(block.decode("latin-1").split("\n"), start=lines + 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 3:
            return ValueError(
                f"line {lineno}: expected 3 fields 'src dst multiplicity', got {len(fields)}"
            )
        for field in fields:
            if not _INT_FIELD.fullmatch(field):
                shown = field.encode("latin-1").decode(errors="replace")
                return ValueError(f"line {lineno}: {shown!r} is not an integer")
            if not -_INT64_MAX - 1 <= int(field) <= _INT64_MAX:
                return ValueError(f"line {lineno}: {field} does not fit in int64")
    return ValueError("malformed edge list")
