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


class MultiDigraph:
    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray, mult: np.ndarray):
        """Build from parallel arc arrays (1-based vertex ids).

        Duplicate (src, dst) rows are merged; zero-multiplicity rows are
        dropped.  Raises ValueError on n outside 1..MAX_N, ids outside 1..n
        or negative counts.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > MAX_N:
            raise ValueError(f"n={n} exceeds the largest supported vertex count {MAX_N}")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        mult = np.asarray(mult, dtype=np.int64)
        if not (src.shape == dst.shape == mult.shape) or src.ndim != 1:
            raise ValueError("src, dst, mult must be 1-d arrays of equal length")
        if src.size:
            if src.min() < 1 or src.max() > n or dst.min() < 1 or dst.max() > n:
                raise ValueError(f"vertex ids must lie in 1..{n}")
            if mult.min() < 0:
                raise ValueError("multiplicities must be nonnegative")
            # merged counts and total_arcs are int64 sums; max * size bounds them cheaply
            if mult.max() > _INT64_MAX // mult.size and sum(mult.tolist()) > _INT64_MAX:
                raise ValueError("total multiplicity exceeds 2**63 - 1")
        # a copy, so the caller's arrays stay theirs
        keep = mult > 0
        src, dst, mult = src[keep], dst[keep], mult[keep]
        codes = src * (n + 1) + dst
        # strictly increasing codes, as in every file the writer makes, are
        # already canonical: nothing to sort or merge
        if np.any(codes[1:] <= codes[:-1]):
            # merge duplicates and fix a canonical (src, dst) order
            order = np.argsort(codes, kind="stable")
            codes, src, dst, mult = codes[order], src[order], dst[order], mult[order]
            start = np.flatnonzero(np.diff(codes, prepend=-1))
            if start.size != codes.size:
                mult = np.add.reduceat(mult, start)
                src, dst = src[start], dst[start]
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
        degrees = np.zeros((3, self.n), dtype=np.int64)
        d_in, d_out, loops = degrees
        # merged arcs hold at most one loop row per vertex
        loops[self.src[self.loop_mask] - 1] = self.mult[self.loop_mask]
        # out-degrees are sums over the sorted rows, read off one running total
        running = np.concatenate(([0], np.cumsum(self.mult)))
        np.subtract(np.diff(running[self._indptr]), loops, out=d_out)
        np.add.at(d_in, self.dst - 1, self.mult)
        d_in -= loops
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
    normalizer mode, L value) is passed through ``meta``.  Output is
    byte-identical for identical inputs.
    """
    lines = [f"# {_FORMAT_TAG}", f"# n={g.n}"]
    for key, value in (meta or {}).items():
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"# {key}={value}")
    lines.append("# src\tdst\tmultiplicity")
    return "\n".join(lines) + "\n" + _rows_text(g.src, g.dst, g.mult)


def _rows_text(src: np.ndarray, dst: np.ndarray, mult: np.ndarray) -> str:
    """'src<TAB>dst<TAB>mult' rows of nonnegative int64 arrays, in one numpy pass.

    Each column fills a block of byte cells as wide as its largest value,
    digits right-aligned and followed by a tab or newline; the cells left
    of each value's leading digit are masked out.
    """
    if src.size == 0:
        return ""
    columns = (src, dst, mult)
    widths = [len(str(int(col.max()))) for col in columns]
    cells = np.empty((src.size, sum(widths) + 3), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    end = 0
    for col, width, sep in zip(columns, widths, b"\t\t\n"):
        q = col
        for j in reversed(range(end, end + width)):
            q, digit = np.divmod(q, 10)
            cells[:, j] = digit + ord("0")
            if j > end:
                keep[:, j - 1] = q != 0
        end += width
        cells[:, end] = sep
        end += 1
    return cells[keep].tobytes().decode("ascii")


def write_edge_list(g: MultiDigraph, path: str | Path, meta: dict | None = None) -> None:
    """Write the edge-list rendering of ``edge_list_text`` to ``path``."""
    Path(path).write_text(edge_list_text(g, meta))


def read_edge_list(path: str | Path, n: int | None = None) -> tuple[MultiDigraph, dict]:
    """Read an edge-list file; returns (graph, header metadata).

    Data lines hold three whitespace-separated int64 fields; blank lines
    are skipped, and a line whose first non-blank character is '#' is a
    comment, read as ``key=value`` metadata when it has an '='.  A comment
    may hold any bytes, but a ``key=value`` one must be UTF-8.  n is taken
    from the header unless supplied explicitly.  Malformed data lines and
    metadata that is not UTF-8 raise ValueError naming the line number.
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
            meta[key.strip()] = value.strip()
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
    src, dst, mult = rows.reshape(-1, 3).T
    return MultiDigraph(n, src, dst, mult), meta


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
