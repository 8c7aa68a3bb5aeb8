"""Directed multigraph container and the tab-separated edge-list format.

Vertices are indexed 1..n.  Arcs are held as parallel (src, dst, mult)
arrays sorted by (src, dst) with strictly positive multiplicities, so with
the row offsets ``_indptr``, taken lazily, they are the CSR adjacency that
traversal reads.  Instances are treated as immutable once constructed.
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
from pathlib import Path

import numpy as np

__all__ = ["MAX_N", "MultiDigraph", "edge_list_text", "write_edge_list", "read_edge_list"]

_FORMAT_TAG = "poisson-digraph edge list v1"
_INT64_MAX = 2**63 - 1
# the largest n whose arc codes src * (n + 1) + dst, at most n (n + 1) + n,
# fit in int64 (about 3.04e9)
MAX_N = math.isqrt(_INT64_MAX + 1) - 1
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
# names np.loadtxt would decompress rather than read as text
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
# rows the writer renders at a time: its transients stay a few MB, and the
# per-chunk numpy calls are few
_CHUNK_ROWS = 2**16
# characters handed to a text file per write
_WRITE_CHARS = 2**20


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
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > MAX_N:
            raise ValueError(f"n={n} exceeds the largest supported vertex count {MAX_N}")
        src, dst, mult = (as_int64(a, dtype=np.int64) for a in (src, dst, mult))
        if not (src.shape == dst.shape == mult.shape) or src.ndim != 1:
            raise ValueError("src, dst, mult must be 1-d arrays of equal length")
        if src.size:
            if src.min() < 1 or src.max() > n or dst.min() < 1 or dst.max() > n:
                raise ValueError(f"vertex ids must lie in 1..{n}")
            low = mult.min()
            if low < 0:
                raise ValueError("multiplicities must be nonnegative")
            # merged counts and total_arcs are int64 sums; max * size bounds them cheaply
            if mult.max() > _INT64_MAX // mult.size and sum(mult.tolist()) > _INT64_MAX:
                raise ValueError("total multiplicity exceeds 2**63 - 1")
            if low == 0:
                keep = mult > 0
                src, dst, mult = src[keep], dst[keep], mult[keep]
        codes = src * (n + 1)
        codes += dst
        # strictly increasing codes, as in every file the writer makes, are
        # already canonical: nothing to sort or merge
        if np.any(codes[1:] <= codes[:-1]):
            # merge duplicates in the canonical (src, dst) order; the ids are
            # read back off the sorted codes, so src and dst need not follow them
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
    def _indptr(self) -> np.ndarray:
        """The n + 1 row offsets of the sorted arcs.

        Vertex v's arcs are rows ``_indptr[v - 1]:_indptr[v]``; no sort is needed.
        """
        return np.cumsum(np.bincount(self.src, minlength=self.n + 1))

    @cached_property
    def _degrees(self) -> np.ndarray:
        """Rows d_in, d_out, loops of vertices 1..n, as ``structure.degree_arrays`` defines them.

        Read-only and computed once per graph, so every reader of the
        degrees shares one pass.
        """
        # rows n + 1 wide, indexed by the 1-based ids: no shifted copy of an
        # arc array; column 0 stays zero and is cut off
        degrees = np.zeros((3, self.n + 1), dtype=np.int64)
        d_in, d_out, loops = degrees
        # merged arcs hold at most one loop row per vertex
        loops[self.src[self.loop_mask]] = self.mult[self.loop_mask]
        np.add.at(d_out, self.src, self.mult)
        np.add.at(d_in, self.dst, self.mult)
        d_out -= loops
        d_in -= loops
        degrees = degrees[:, 1:]
        degrees.setflags(write=False)
        return degrees

    def multiplicity(self, v: int, u: int) -> int:
        """Number of arcs from v to u; 0 for an absent pair or a vertex outside 1..n."""
        if not (1 <= v <= self.n and 1 <= u <= self.n):
            return 0
        # binary searches only: the (n + 1)-entry _indptr may not fit in memory
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


# -- edge-list files ----------------------------------------------------------


def edge_list_text(g: MultiDigraph, meta: dict | None = None) -> str:
    """Render 'src<TAB>dst<TAB>multiplicity' rows with '#' header lines.

    The header always carries n; extra provenance (seed, model JSON,
    normalizer mode, L value) is passed through ``meta``.  An ``n`` in
    ``meta``, as ``read_edge_list`` returns it, is written once if it equals
    g.n and raises ValueError if it differs.  Output is byte-identical for
    identical inputs.
    """
    return "".join(_edge_list_chunks(g, meta))


def _edge_list_chunks(g: MultiDigraph, meta: dict | None = None) -> list[str]:
    """The text of ``edge_list_text`` as the header and the row chunks, unjoined."""
    lines = [f"# {_FORMAT_TAG}", f"# n={g.n}"]
    for key, value in (meta or {}).items():
        if key == "n":
            if not (_INT_FIELD.fullmatch(str(value).strip()) and int(value) == g.n):
                raise ValueError(f"meta n={value} conflicts with the graph's n={g.n}")
            continue
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"# {key}={value}")
    lines.append("# src\tdst\tmultiplicity")
    return ["\n".join(lines) + "\n", *_row_chunks(g.src, g.dst, g.mult)]


def _row_chunks(src: np.ndarray, dst: np.ndarray, mult: np.ndarray):
    """'src<TAB>dst<TAB>mult' rows of nonnegative int64 arrays, ``_CHUNK_ROWS`` per string.

    Each column fills a block of byte cells as wide as its largest value
    over all rows, digits right-aligned and followed by a tab or newline;
    the cells left of each value's leading digit are masked out.  Chunks
    keep the cell matrices and digit arrays a few MB at any graph size.
    """
    if src.size == 0:
        return
    columns = (src, dst, mult)
    widths = [len(str(int(col.max()))) for col in columns]
    # the narrowest unsigned type that holds each column's values
    kinds = [np.min_scalar_type(10**width - 1) for width in widths]
    for lo in range(0, src.size, _CHUNK_ROWS):
        rows = [col[lo : lo + _CHUNK_ROWS].astype(kind) for col, kind in zip(columns, kinds)]
        cells = np.empty((rows[0].size, sum(widths) + 3), dtype=np.uint8)
        keep = np.ones(cells.shape, dtype=bool)
        end = 0
        for q, width, sep in zip(rows, widths, b"\t\t\n"):
            for j in reversed(range(end, end + width)):
                rest = q // 10
                q -= rest * 10
                q += ord("0")
                cells[:, j] = q
                q = rest
                if j > end:
                    keep[:, j - 1] = q != 0
            end += width
            cells[:, end] = sep
            end += 1
        yield str(cells[keep], "ascii")


def write_edge_list(g: MultiDigraph, path: str | Path, meta: dict | None = None) -> None:
    """Write the edge-list rendering of ``edge_list_text`` to ``path``.

    The whole text is rendered before the file is opened, so a failed
    render leaves the file untouched.
    """
    chunks = _edge_list_chunks(g, meta)
    with open(path, "w") as f:
        _write_in_slices(f, chunks)


def _write_in_slices(f, chunks) -> None:
    """Write each string of ``chunks`` to the text file ``f``, ``_WRITE_CHARS`` at a time.

    A text file encodes each string it is given in one piece, so a whole
    edge list written at once is held twice, as text and as its bytes;
    writing the chunks one by one needs no joined copy of them either.
    """
    for text in chunks:
        for lo in range(0, len(text), _WRITE_CHARS):
            f.write(text[lo : lo + _WRITE_CHARS])


def read_edge_list(path: str | Path, n: int | None = None) -> tuple[MultiDigraph, dict]:
    """Read an edge-list file; returns (graph, header metadata).

    Data lines hold three whitespace-separated int64 fields; blank lines
    are skipped, and a line whose first non-blank character is '#' is a
    comment, read as ``key=value`` metadata when it has an '='.  A comment
    may hold any bytes, but a ``key=value`` one must be UTF-8.  n is taken
    from the header unless supplied explicitly.  Malformed data lines,
    metadata that is not UTF-8, and an ``n`` that is not an integer or
    disagrees with an earlier one, raise ValueError naming the line number.
    """
    raw = _read_bytes(path)
    meta: dict[str, str] = {}
    at = raw.find(b"#")
    while at >= 0:
        start = raw.rfind(b"\n", 0, at) + 1
        end = raw.find(b"\n", at)
        end = len(raw) if end < 0 else end
        if raw[start:at].decode("latin-1").strip():
            raise _malformed_line(raw)  # a '#' after data on the same line
        body = raw[at + 1 : end]
        # only metadata is decoded; no byte of a multi-byte UTF-8 character is '='
        if b"=" in body:
            try:
                key, _, value = body.decode().partition("=")
            except UnicodeDecodeError as exc:
                lineno = raw.count(b"\n", 0, at) + 1
                byte = exc.object[exc.start]
                raise ValueError(f"line {lineno}: comment is not UTF-8 (byte 0x{byte:02x})") from None
            key, value = key.strip(), value.strip()
            # n is the one key the reader acts on; a repeat must agree
            if key == "n" and not (
                _INT_FIELD.fullmatch(value) and int(meta.get("n", value)) == int(value)
            ):
                lineno = raw.count(b"\n", 0, at) + 1
                if not _INT_FIELD.fullmatch(value):
                    raise ValueError(f"line {lineno}: n={value!r} is not an integer")
                raise ValueError(f"line {lineno}: n={value} conflicts with n={meta['n']} above")
            meta[key] = value
        at = raw.find(b"#", end)
    source = _loadtxt_source(path, raw)
    # parsed by name, the file is not held in memory twice; it is read
    # again only to name a malformed line
    del raw
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(source, dtype=np.int64, comments="#", ndmin=2, encoding="latin-1")
        if rows.size and rows.shape[1] != 3:
            raise ValueError
    except ValueError:
        raw = source.getvalue() if isinstance(source, io.BytesIO) else _read_bytes(path)
        raise _malformed_line(raw) from None
    if n is None:
        if "n" not in meta:
            raise ValueError("no n declared in header and none supplied")
        n = int(meta["n"])
    # contiguous columns, and the row matrix dropped before the graph adopts them
    src, dst, mult = (np.ascontiguousarray(column) for column in rows.reshape(-1, 3).T)
    del rows
    return MultiDigraph._adopt(n, src, dst, mult), meta


def _read_bytes(path: str | Path) -> bytes:
    """The file's bytes, with CRLF and a lone CR read as LF."""
    raw = Path(path).read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw


def _loadtxt_source(path: str | Path, raw: bytes) -> str | io.BytesIO:
    """What ``np.loadtxt`` parses: the file again by name, or the bytes already read.

    Given a name, numpy's C reader parses the file in large chunks; given a
    file object, it walks it line by line, at about twice the time.  The name
    serves only a regular file whose suffix numpy would not decompress: a
    pipe or ``/dev/stdin`` was drained by the first read, and a ``.gz``,
    ``.bz2``, ``.xz`` or ``.lzma`` name holds plain text here.  The name is
    made absolute because numpy's opener would fetch one that parses as a URL.
    Both routes decode latin-1 and read CR and CRLF as line ends, so they
    give the same rows.
    """
    path = Path(path)
    if path.suffix.lower() not in _COMPRESSED_SUFFIXES and stat.S_ISREG(path.stat().st_mode):
        return os.path.abspath(path)
    # bytes, not str: a StringIO would hold four bytes per character
    return io.BytesIO(raw)


def _malformed_line(raw: bytes) -> ValueError:
    """The error naming the first data line that is not three int64 fields.

    Called only after ``raw`` failed the array parse, to report where; it
    reads lines as loadtxt does (latin-1, any whitespace separates fields)
    and returns no parsed values.
    """
    for lineno, line in enumerate(raw.decode("latin-1").split("\n"), start=1):
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
