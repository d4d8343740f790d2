"""Weighted random walks over a finalized context graph.

Transitions pick the next node with probability proportional to the effective
edge weight among the current node's neighbors (uniform over neighbors when
all weights are equal, which recovers the classic unweighted walk; a uniform
mode is available behind a flag since the source phrasing is ambiguous).
Each visited node carries a cumulative path weight: alpha of the (i+1)-th
node is the product of the first i traversed edge weights.

RNG: numpy's Philox counter-based generator, keyed per (seed, start index),
so batches are reproducible bit-exactly and walks for different starts are
independent streams regardless of scheduling.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .ctxgraph import ContextGraph, NodeKind
from .diffcore import seeded_rng
from .errors import IsolatedNodeError, NotAMoleculeError


@dataclass
class WalkConfig:
    length: int = 4  # nodes per path, including the start
    walks_per_molecule: int = 2
    seed: int = 0
    weight_proportional: bool = True

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("walk length counts nodes and must be >= 2")


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

    def targets(self) -> List[Tuple[str, float]]:
        """Visited non-start nodes with their cumulative weights."""
        return list(zip(self.nodes[1:], self.alphas))


def transition(g: ContextGraph, current: str, rng: np.random.Generator,
               weight_proportional: bool = True) -> Tuple[str, float]:
    """One weighted step; returns (next node id, traversed effective weight).

    The cumulative weights come from the table `finalize()` built, and
    bisect_right on them picks what np.searchsorted(side="right") would.
    """
    adj = g.adjacency(current)
    n = len(adj.ids)
    if not n:
        raise IsolatedNodeError(f"node {current!r} has no neighbors")
    if weight_proportional:
        idx = min(bisect.bisect_right(adj.cdf, rng.random() * adj.cdf[-1]), n - 1)
    else:
        idx = int(rng.integers(n))
    return adj.ids[idx], adj.weights[idx]


def sample_walk(g: ContextGraph, start: str, cfg: WalkConfig,
                rng: np.random.Generator) -> WalkPath:
    """Walk cfg.length nodes from a molecule node.

    A dead end truncates the path (flagged) rather than restarting, which
    would skew the visit distribution; a molecule with no neighbors gives a
    truncated path of itself alone. Repeated nodes stay on the path as
    separate targets with their own alphas.
    """
    rec = g.node(start)
    if rec.kind is not NodeKind.MOLECULE:
        raise NotAMoleculeError(f"walk start {start!r} has kind {rec.kind.value}")
    nodes = [start]
    weights: List[float] = []
    truncated = False
    while len(nodes) < cfg.length:
        try:
            nxt, w = transition(g, nodes[-1], rng, cfg.weight_proportional)
        except IsolatedNodeError:
            truncated = True
            break
        nodes.append(nxt)
        weights.append(w)
    return WalkPath(nodes, weights, truncated=truncated)


def batch_walks(g: ContextGraph, starts: Sequence[str], cfg: WalkConfig) -> List[WalkPath]:
    """walks_per_molecule paths per start, grouped in starts order.

    Deterministic given (seed, starts order); each start index gets its own
    RNG stream, so results are order-stable under any scheduling.
    """
    out: List[WalkPath] = []
    for idx, start in enumerate(starts):
        rng = seeded_rng(cfg.seed, idx)
        for _ in range(cfg.walks_per_molecule):
            out.append(sample_walk(g, start, cfg, rng))
    return out
