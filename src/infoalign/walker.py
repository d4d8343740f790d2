"""Weighted random walks over a finalized context graph.

Transitions pick the next node with probability proportional to the effective
edge weight among the current node's neighbors (uniform over neighbors when
all weights are equal, which recovers the classic unweighted walk; a uniform
mode is available behind a flag since the source phrasing is ambiguous).
Each visited node carries a cumulative path weight: alpha of the (i+1)-th
node is the product of the first i traversed edge weights.

RNG contract. Start i of a batch draws from its own Philox stream, keyed by
(seed, i), so walks for different starts are independent streams and a
start's walks do not depend on the starts after it. A start with neighbors
draws one block `rng.random((walks_per_molecule, length - 1))`, the same
numbers in the same order as one `rng.random()` per step, walk after walk,
and step k of its walk j uses u = block[j, k]. With n neighbors in id order
and `cdf` their running weight sum, the weight-proportional step takes
neighbor min(bisect_right(cdf, u * cdf[-1]), n - 1), and the uniform step
neighbor min(int(u * n), n - 1). A start with no neighbors draws nothing and
gives walks of itself alone, flagged truncated. Edges are undirected, so any
node a step reaches has a neighbor and no other walk is cut short.

All walks of a batch take each step together over the graph's CSR arrays
(`ContextGraph.csr`); the result is a `WalkBatch` of those arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .ctxgraph import KINDS, ContextGraph, NodeKind
from .diffcore import seeded_streams
from .errors import NotAMoleculeError, UnknownNodeError


@dataclass
class WalkConfig:
    length: int = 4  # nodes per path, including the start
    walks_per_molecule: int = 2
    seed: int = 0
    uniform: bool = False  # a uniform step in place of the weight-proportional one

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("walk length counts nodes and must be >= 2")
        if self.walks_per_molecule < 1:
            raise ValueError(f"walks_per_molecule must be >= 1, got {self.walks_per_molecule}")


@dataclass
class WalkPath:
    nodes: List[str]
    edge_weights: List[float]
    alphas: List[float] = field(default_factory=list)
    truncated: bool = False

    def __post_init__(self):
        if not self.alphas:
            acc = 1.0
            self.alphas = []
            for w in self.edge_weights:
                acc *= w
                self.alphas.append(acc)


@dataclass(eq=False)
class WalkBatch(Sequence):
    """Walks as arrays, and a sequence of `WalkPath` views of them.

    Row i is walk i: its first sizes[i] entries of `nodes` (indices into
    `ids`) and the first sizes[i] - 1 of `weights` and `alphas`. A walk
    shorter than the row is truncated; the rest of its row is padding.
    Slicing gives a `WalkBatch` of the same arrays' rows, and `of` the
    batch of a list of `WalkPath`s.
    """

    ids: List[str]
    nodes: np.ndarray    # (walks, length) node indices
    weights: np.ndarray  # (walks, length - 1) traversed effective weights
    alphas: np.ndarray   # (walks, length - 1) running products of `weights`
    sizes: np.ndarray    # (walks,) node count of each walk

    @classmethod
    def of(cls, paths: Sequence[WalkPath], ids: List[str]) -> "WalkBatch":
        """The batch of the (one or more) `paths`, whose nodes are ids in
        `ids`; another id raises UnknownNodeError."""
        index = {nid: i for i, nid in enumerate(ids)}
        length = max(len(p.nodes) for p in paths)
        nodes = np.zeros((len(paths), length), dtype=np.intp)
        weights, alphas = np.ones((2, len(paths), length - 1))
        for r, p in enumerate(paths):
            n = len(p.nodes)
            try:
                nodes[r, :n] = [index[nid] for nid in p.nodes]
            except KeyError as exc:
                raise UnknownNodeError(f"unknown node id {exc.args[0]!r}") from None
            weights[r, : n - 1] = p.edge_weights
            alphas[r, : n - 1] = p.alphas
        return cls(ids, nodes, weights, alphas,
                   np.array([len(p.nodes) for p in paths], dtype=np.intp))

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return WalkBatch(self.ids, self.nodes[i], self.weights[i], self.alphas[i],
                             self.sizes[i])
        i = range(len(self))[i]  # IndexError past either end
        return next(iter(self[i : i + 1]))

    def __iter__(self):
        rows = zip(self.nodes.tolist(), self.weights.tolist(), self.alphas.tolist(),
                   self.sizes.tolist())
        for nodes, weights, alphas, n in rows:
            yield WalkPath([self.ids[j] for j in nodes[:n]], weights[: n - 1], alphas[: n - 1],
                           truncated=n < len(nodes))


def _bisect_right(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray,
                  rounds: int) -> np.ndarray:
    """Per row r, bisect.bisect_right(a, x[r], lo[r], hi[r]); `rounds` must be
    at least the bit length of the longest hi - lo."""
    last = len(a) - 1
    for _ in range(rounds):
        mid = (lo + hi) >> 1  # == lo == hi once a row is done, and then kept
        left = x < a[np.minimum(mid, last)]
        lo = np.where(left, lo, np.minimum(mid + 1, hi))
        hi = np.where(left, mid, hi)
    return lo


def batch_walks(g: ContextGraph, starts: Sequence[str], cfg: WalkConfig) -> WalkBatch:
    """walks_per_molecule paths per start, grouped in starts order.

    Deterministic given (seed, starts order), by the RNG contract in the
    module docstring. Every start must be a molecule node.
    """
    csr = g.csr()
    try:
        first = np.array([csr.index[s] for s in starts], dtype=np.intp)
    except KeyError as exc:
        raise UnknownNodeError(f"unknown node id {exc.args[0]!r}") from None
    kinds = g.kinds()[first]
    bad = np.flatnonzero(kinds != KINDS.index(NodeKind.MOLECULE))
    if len(bad):
        raise NotAMoleculeError(f"walk start {starts[bad[0]]!r} has kind "
                                f"{KINDS[kinds[bad[0]]].value}")
    per, steps = cfg.walks_per_molecule, cfg.length - 1
    degree = np.diff(csr.indptr)
    live = np.flatnonzero(degree[first] > 0)
    u = np.empty((len(live), per, steps))
    for row, rng in enumerate(seeded_streams(cfg.seed, live.tolist())):
        u[row] = rng.random((per, steps))
    u = u.reshape(-1, steps)
    walking = (live[:, None] * per + np.arange(per)).ravel()

    nodes = np.repeat(first, per)[:, None].repeat(cfg.length, axis=1)
    weights = np.ones((len(nodes), steps))
    cur = nodes[walking, 0]
    rounds = int(degree.max(initial=0)).bit_length()
    for k in range(steps):
        lo, hi = csr.indptr[cur], csr.indptr[cur + 1]
        if cfg.uniform:
            n = hi - lo
            pos = lo + np.minimum((u[:, k] * n).astype(np.intp), n - 1)
        else:
            pos = _bisect_right(csr.cdf, lo, hi, u[:, k] * csr.cdf[hi - 1], rounds)
            pos = np.minimum(pos, hi - 1)
        cur = csr.neighbors[pos]
        nodes[walking, k + 1] = cur
        weights[walking, k] = csr.weights[pos]
    sizes = np.ones(len(nodes), dtype=np.intp)
    sizes[walking] = cfg.length
    return WalkBatch(csr.ids, nodes, weights, np.cumprod(weights, axis=1), sizes)
