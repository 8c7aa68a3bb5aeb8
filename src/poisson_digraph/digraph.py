"""Directed multigraph container and the tab-separated edge-list format.

Vertices are indexed 1..n.  Arcs are held as parallel (src, dst, mult)
arrays sorted by (src, dst) with strictly positive multiplicities; CSR-style
adjacency is built lazily for traversal.  Instances are treated as
immutable once constructed.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = ["MultiDigraph", "edge_list_text", "write_edge_list", "read_edge_list"]

_FORMAT_TAG = "poisson-digraph edge list v1"


class MultiDigraph:
    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray, mult: np.ndarray):
        """Build from parallel arc arrays (1-based vertex ids).

        Duplicate (src, dst) rows are merged; zero-multiplicity rows are
        dropped.  Raises ValueError on ids outside 1..n or negative counts.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
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
        keep = mult > 0
        src, dst, mult = src[keep], dst[keep], mult[keep]
        # merge duplicates and fix a canonical (src, dst) order
        codes = src * (n + 1) + dst
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
    def _codes(self) -> np.ndarray:
        """Sorted arc codes src * (n + 1) + dst, one per distinct arc."""
        return self.src * (self.n + 1) + self.dst

    def multiplicity(self, v: int, u: int) -> int:
        """Number of arcs from v to u; 0 for an absent pair or a vertex outside 1..n."""
        if not (1 <= v <= self.n and 1 <= u <= self.n):
            return 0
        code = v * (self.n + 1) + u
        i = int(np.searchsorted(self._codes, code))
        return int(self.mult[i]) if i < self._codes.size and self._codes[i] == code else 0

    @cached_property
    def _out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, neighbors) over 0-based ids, ignoring multiplicities."""
        return _csr(self.src - 1, self.dst - 1, self.n)

    @cached_property
    def _in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return _csr(self.dst - 1, self.src - 1, self.n)

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


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols


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
    for s, d, m in zip(g.src, g.dst, g.mult):
        lines.append(f"{s}\t{d}\t{m}")
    return "\n".join(lines) + "\n"


def write_edge_list(g: MultiDigraph, path: str | Path, meta: dict | None = None) -> None:
    """Write the edge-list rendering of ``edge_list_text`` to ``path``."""
    Path(path).write_text(edge_list_text(g, meta))


def read_edge_list(path: str | Path, n: int | None = None) -> tuple[MultiDigraph, dict]:
    """Read an edge-list file; returns (graph, header metadata).

    n is taken from the header unless supplied explicitly.  Malformed data
    lines raise ValueError naming the line number.
    """
    meta: dict[str, str] = {}
    src, dst, mult = [], [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'src\\tdst\\tmultiplicity'")
        try:
            s, d, m = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        src.append(s)
        dst.append(d)
        mult.append(m)
    if n is None:
        if "n" not in meta:
            raise ValueError("no n declared in header and none supplied")
        n = int(meta["n"])
    g = MultiDigraph(
        n,
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(mult, dtype=np.int64),
    )
    return g, meta
