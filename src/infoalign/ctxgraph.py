"""Weighted heterogeneous context graph over molecules, genes, gene-expression
profiles, and cell-morphology profiles.

Nodes carry [0,1]-scaled feature vectors; undirected edges carry weights in
(0,1]. Perturbation edges are always weight 1. Similarity edges come from a
cosine threshold (0.8) combined with a top-fraction sparsity filter (keep
0.5% of all intra-kind pairs). After ``finalize()`` the graph is immutable
and exposes its effective neighbours as CSR arrays for the walker; a pair
connected by several relations is seen by the walker as one effective edge
at the max weight. Molecule nodes keep their SMILES; `molecules()` parses
them all into one `MoleculeSet` on first use.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import serialize
from .errors import (
    DuplicateIdError,
    FinalizedError,
    MixedDimensionsError,
    SelfLoopError,
    SmilesError,
    TableFormatError,
    UnknownNodeError,
)
from .fingerprint import morgan_fingerprint
# `parse_smiles` is not called here: perfbench/tracer.py wraps it under this
# module's name, so a traced run needs it importable from ctxgraph.
from .molparse import MoleculeSet, parse_many, parse_smiles

MAGIC = b"CTXG"
# Rows of the cosine matrix computed at a time by build_similarity_edges.
_SIM_BLOCK = 512


class NodeKind(Enum):
    MOLECULE = "molecule"
    GENE = "gene"
    GENE_EXPRESSION = "gene_expression"
    CELL_MORPHOLOGY = "cell_morphology"


class Relation(Enum):
    PERTURBATION = "perturbation"
    SIMILARITY = "similarity"
    GENE_GENE = "gene_gene"
    GENE_MOLECULE = "gene_molecule"


@dataclass
class NodeRecord:
    id: str
    kind: NodeKind
    features: np.ndarray
    source_tag: str = ""
    smiles: Optional[str] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)

    @property
    def modality_dim(self) -> int:
        return len(self.features)


class CsrAdjacency(NamedTuple):
    """Every node's effective neighbours as compressed sparse rows.

    Row i is node ids[i] (insertion order; `index` inverts `ids`). Its
    neighbours are neighbors[indptr[i]:indptr[i + 1]], node indices in id
    order, with `weights` the max weight over the pair's relations and `cdf`
    the running sum of those weights within the row, added left to right.
    """
    ids: List[str]
    index: Dict[str, int]
    indptr: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray
    cdf: np.ndarray


def min_max_scale(columns) -> np.ndarray:
    """Scale each column to [0,1] by (x - min) / (max - min).

    Constant columns map to all-zeros (the scaler is undefined at max == min;
    zero is the conservative no-signal choice). A column whose max - min is
    not finite raises ValueError.
    """
    x = np.asarray(columns, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("expected a matrix with at least one row")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    wide = np.flatnonzero(~np.isfinite(span))
    if len(wide):
        raise ValueError(f"column {wide[0]}: max - min is not a finite float")
    out = np.zeros_like(x)
    nonconst = span > 0
    out[:, nonconst] = (x[:, nonconst] - lo[nonconst]) / span[nonconst]
    return np.clip(out, 0.0, 1.0)


def _pair_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each of the distinct `ids`' position in sorted order."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _top_pairs(s: np.ndarray, rank_i: np.ndarray, rank_j: np.ndarray, keep: int) -> np.ndarray:
    """Indices of the best `keep` pairs by (-s, lo id, hi id), best first.

    rank_i and rank_j are each endpoint's position in sorted-id order, so
    comparing (lo rank, hi rank) equals comparing the id pairs. Of more than
    `keep` pairs only those with s at or above the keep-th largest s are
    sorted: every pair of the best `keep` is among them, and so is the whole
    tie group at the cut, so the result is a full sort's first `keep`.
    """
    if keep == 0:
        return np.zeros(0, dtype=np.intp)
    if len(s) > keep:
        cut = np.partition(s, len(s) - keep)[len(s) - keep]
        pick = np.flatnonzero(s >= cut)
    else:
        pick = np.arange(len(s))
    lo = np.minimum(rank_i[pick], rank_j[pick])
    hi = np.maximum(rank_i[pick], rank_j[pick])
    return pick[np.lexsort((hi, lo, -s[pick]))[:keep]]


class ContextGraph:
    def __init__(self):
        self._nodes: Dict[str, NodeRecord] = {}
        # (id_lo, id_hi, relation) -> weight
        self._edges: Dict[Tuple[str, str, Relation], float] = {}
        self._finalized = False
        self._csr: Optional[CsrAdjacency] = None
        self._stats: Optional[dict] = None
        self._edge_items: Optional[List[Tuple[Tuple[str, str, Relation], float]]] = None
        self._molecules: Optional[Tuple[MoleculeSet, Dict[str, int]]] = None

    # --- accessors -------------------------------------------------------

    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def node(self, node_id: str) -> NodeRecord:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id!r}") from None

    def _sorted_edges(self) -> List[Tuple[Tuple[str, str, Relation], float]]:
        """`((a, b, relation), weight)` items ordered by a, b and relation value.

        A finalized graph cannot change, so it sorts them once and keeps them.
        """
        if self._edge_items is not None:
            return self._edge_items
        items = sorted(self._edges.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value))
        if self._finalized:
            self._edge_items = items
        return items

    def molecule_ids(self) -> List[str]:
        return [nid for nid, rec in self._nodes.items() if rec.kind is NodeKind.MOLECULE]

    def molecules(self) -> Tuple[MoleculeSet, Dict[str, int]]:
        """The SMILES of the molecule nodes that have one as one set, parsed
        in one `parse_many` call on first use, and each such node's row in it.
        A SMILES that does not parse raises its SmilesError, naming the node."""
        if self._molecules is None:
            recs = [rec for rec in self._nodes.values()
                    if rec.kind is NodeKind.MOLECULE and rec.smiles]
            try:
                mols = parse_many([rec.smiles for rec in recs])
            except SmilesError as exc:
                raise type(exc)(f"molecule node {recs[exc.index].id!r}: {exc}") from None
            self._molecules = (mols, {rec.id: k for k, rec in enumerate(recs)})
        return self._molecules

    def csr(self) -> CsrAdjacency:
        """The walker's neighbour arrays; requires a finalized graph."""
        if not self._finalized:
            raise FinalizedError("neighbors are available after finalize()")
        return self._csr

    # --- mutation --------------------------------------------------------

    def _check_mutable(self):
        if self._finalized:
            raise FinalizedError("graph is finalized; mutation rejected")

    def _check_new_id(self, node_id: str):
        self._check_mutable()
        if node_id in self._nodes:
            raise DuplicateIdError(f"node id {node_id!r} already present")

    def add_node(self, rec: NodeRecord) -> str:
        self._check_new_id(rec.id)
        self._nodes[rec.id] = rec
        self._molecules = None
        return rec.id

    def add_edge(self, a: str, b: str, relation: Relation, weight: float) -> None:
        self._check_mutable()
        if a == b:
            raise SelfLoopError(f"self-loop on {a!r}")
        self.node(a)
        self.node(b)
        if not (0.0 < weight <= 1.0):
            raise ValueError(f"edge weight must be in (0, 1], got {weight}")
        lo, hi = _pair_key(a, b)
        self._edges[(lo, hi, relation)] = float(weight)

    def build_similarity_edges(
        self, kind: NodeKind, threshold: float = 0.8, keep_fraction: float = 0.005
    ) -> int:
        """Add intra-kind cosine-similarity edges.

        Candidates are pairs with cosine >= threshold; of those, only the top
        ceil(keep_fraction * total-pair-count) by similarity survive (both
        filters apply). Ties break by lexicographic id pair so builds are
        deterministic. An edge weight must be > 0, so a cosine of 0 (or
        below) is no candidate even at a threshold <= 0; nodes with zero-norm
        features, which cannot define a cosine, are thereby skipped too.
        Returns the number of edges added. A threshold that is not finite,
        or a keep_fraction that is not a finite number >= 0, raises
        ValueError naming it.

        The cosines are computed _SIM_BLOCK rows at a time against the rows
        that follow, and each block keeps only its own best `keep` candidates
        before the global cut. A cut partitions the candidates' cosines and
        sorts only the pairs at or above the keep-th largest, so besides the
        O(n * _SIM_BLOCK) block and its candidate list, memory is
        O(blocks * keep) plus the tie group at each cut.
        """
        self._check_mutable()
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be a finite number, got {threshold}")
        if not (math.isfinite(keep_fraction) and keep_fraction >= 0):
            raise ValueError(f"keep_fraction must be a finite number >= 0, got {keep_fraction}")
        recs = [r for r in self._nodes.values() if r.kind is kind and r.modality_dim > 0]
        dims = {r.modality_dim for r in recs}
        if len(dims) > 1:
            raise MixedDimensionsError(
                f"{kind.value} nodes have mixed feature dimensions {sorted(dims)}"
            )
        n = len(recs)
        if n < 2:
            return 0
        feats = np.stack([r.features.astype(np.float64) for r in recs])
        norms = np.linalg.norm(feats, axis=1)
        ok = norms > 0
        unit = np.zeros_like(feats)
        unit[ok] = feats[ok] / norms[ok, None]
        ids = [r.id for r in recs]
        rank = _id_ranks(ids)

        total_pairs = n * (n - 1) // 2
        keep = math.ceil(keep_fraction * total_pairs)
        floor = max(threshold, math.ulp(0.0))  # weights are > 0; zero-norm rows have cosines of 0
        # Per row block: the candidates of pairs (i, j > i) with i in the
        # block, cut to the block's best `keep` by (-s, lo id, hi id).
        parts = []
        for start in range(0, n, _SIM_BLOCK):
            stop = min(start + _SIM_BLOCK, n)
            sims = np.minimum(unit[start:stop] @ unit[start:].T, 1.0)
            sims[sims >= 1.0 - 1e-12] = 1.0  # identical directions must yield exactly weight 1
            upper = np.arange(start, n)[None, :] > np.arange(start, stop)[:, None]
            li, lj = np.nonzero(upper & (sims >= floor))
            i, j, s = li + start, lj + start, sims[li, lj]
            part = _top_pairs(s, rank[i], rank[j], keep)
            parts.append((i[part], j[part], s[part]))
        i, j, s = (np.concatenate(col) for col in zip(*parts))
        best = _top_pairs(s, rank[i], rank[j], keep)
        # Kept pairs join distinct known nodes with weights in (0, 1], so
        # they skip add_edge's checks; an edge the tables gave still wins.
        added = {}
        for bi, bj, bs in zip(i[best].tolist(), j[best].tolist(), s[best].tolist()):
            key = (*_pair_key(ids[bi], ids[bj]), Relation.SIMILARITY)
            if key not in self._edges:
                added[key] = bs
        self._edges.update(added)
        return len(added)

    # --- finalize --------------------------------------------------------

    def finalize(self) -> "ContextGraph":
        """Freeze the graph: validate invariants, build adjacency, compute stats.

        Idempotent; all mutating operations raise FinalizedError afterwards.
        """
        if self._finalized:
            return self
        self._check_features()
        self._csr = self._build_csr()
        self._stats = {
            "nodes": len(self._nodes),
            "edges": len(self._edges),
            "nodes_by_kind": dict(Counter(rec.kind.value for rec in self._nodes.values())),
            "edges_by_relation": dict(Counter(rel.value for _a, _b, rel in self._edges)),
        }
        self._finalized = True
        return self

    def _check_features(self) -> None:
        """ValueError naming the first node with a feature outside [0, 1] (or NaN)."""
        feats = [rec.features for rec in self._nodes.values()]
        flat = np.concatenate(feats) if feats else np.zeros(0, dtype=np.float32)
        bad = np.flatnonzero(~((flat >= 0.0) & (flat <= 1.0)))
        if len(bad):
            ends = np.cumsum([len(f) for f in feats])
            node = list(self._nodes)[int(np.searchsorted(ends, bad[0], side="right"))]
            raise ValueError(f"node {node!r} has features outside [0, 1]")

    def _build_csr(self) -> CsrAdjacency:
        """Both directions of every edge, sorted by (node, neighbour id), one
        entry per pair at its max weight, and each row's running weight sum."""
        ids = list(self._nodes)
        index = {nid: i for i, nid in enumerate(ids)}
        n, m = len(ids), len(self._edges)
        a = np.fromiter((index[key[0]] for key in self._edges), dtype=np.intp, count=m)
        b = np.fromiter((index[key[1]] for key in self._edges), dtype=np.intp, count=m)
        w = np.fromiter(self._edges.values(), dtype=np.float64, count=m)
        bad = np.flatnonzero(~((w > 0.0) & (w <= 1.0)))
        if len(bad):
            (lo, hi, _rel), weight = list(self._edges.items())[bad[0]]
            raise ValueError(f"edge ({lo}, {hi}) weight {weight} outside (0, 1]")
        rank = _id_ranks(ids)
        src, dst, w = np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([w, w])
        order = np.lexsort((rank[dst], src))
        src, dst, w = src[order], dst[order], w[order]
        first = np.ones(len(src), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        pairs = np.flatnonzero(first)
        weights = np.maximum.reduceat(w, pairs) if len(pairs) else w
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src[pairs], minlength=n), out=indptr[1:])
        # Column by column, so each row adds its weights in the order
        # itertools.accumulate would, and its sums keep the same bits.
        degree = np.diff(indptr)
        cdf = weights.copy()
        for k in range(1, int(degree.max(initial=0))):
            at = indptr[:-1][degree > k] + k
            cdf[at] += cdf[at - 1]
        return CsrAdjacency(ids, index, indptr, dst[pairs], weights, cdf)

    def checksum(self) -> str:
        """Content hash over node ids/kinds and the edge set (not features)."""
        import hashlib

        h = hashlib.sha256()
        for nid, rec in sorted(self._nodes.items()):
            h.update(f"{nid}:{rec.kind.value}:{rec.modality_dim};".encode("utf-8"))
        for (a, b, rel), w in self._sorted_edges():
            h.update(f"{a}-{b}:{rel.value}:{w!r};".encode("utf-8"))
        return h.hexdigest()

    def stats(self) -> dict:
        if not self._finalized:
            raise FinalizedError("stats available after finalize()")
        return dict(self._stats)

    # --- persistence -----------------------------------------------------

    def save(self, path) -> None:
        if not self._finalized:
            raise FinalizedError("only finalized graphs are saved")
        recs = list(self._nodes.values())
        nodes_meta = [{"id": r.id, "kind": r.kind.value, "source_tag": r.source_tag,
                       "smiles": r.smiles, "dim": r.modality_dim} for r in recs]
        edges_meta = [[a, b, rel.value, w] for (a, b, rel), w in self._sorted_edges()]
        flat = np.concatenate([np.zeros(0, dtype="<f4")] + [r.features for r in recs])
        meta = {"nodes": nodes_meta, "edges": edges_meta, "stats": self._stats}
        serialize.write_container(path, MAGIC, meta, [flat])

    @classmethod
    def load(cls, path) -> "ContextGraph":
        """Read a saved graph. Molecule SMILES are parsed on first use, all at
        once by `molecules()`, not here: walking needs none of them."""
        meta, arrays = serialize.read_container(path, MAGIC)
        flat = arrays[0].astype(np.float32)
        g = cls()
        offset = 0
        for nm in meta["nodes"]:
            dim = nm["dim"]
            feats = flat[offset : offset + dim]
            offset += dim
            g._check_new_id(nm["id"])
            g._nodes[nm["id"]] = NodeRecord(
                nm["id"], NodeKind(nm["kind"]), feats,
                source_tag=nm["source_tag"], smiles=nm["smiles"],
            )
        for a, b, rel, w in meta["edges"]:
            g._edges[(a, b, Relation(rel))] = float(w)
        return g.finalize()


# --- TSV ingestion ---------------------------------------------------------

def load_node_table(path, fp_radius: int = 2, fp_bits: int = 1024,
                    similarity_kinds: Sequence[NodeKind] = ()) -> List[NodeRecord]:
    """Parse a node TSV: id, kind, source_tag, then features.

    Molecule rows carry a SMILES column instead of inline features; the
    SMILES are parsed in one `parse_many` call (a bad one raises
    TableFormatError naming its line), and the set is fingerprinted in one
    `morgan_fingerprint` call; the records keep the SMILES, not the set.
    Non-molecule features are min-max scaled per (kind, dimension) group
    before the records are returned. A node id given twice raises
    TableFormatError naming both lines. Every feature row of a kind in
    `similarity_kinds` must have the dimension of that kind's first row, or
    MixedDimensionsError names the first row that does not.
    """
    raw: List[Tuple[int, str, NodeKind, str, object]] = []
    seen: Dict[str, int] = {}  # node id -> line
    first_dim: Dict[NodeKind, Tuple[int, int]] = {}  # kind -> (line, dim) of its first row
    for lineno, cols in serialize.table_rows(path):
        if len(cols) < 4:
            raise TableFormatError(f"{path}:{lineno}: expected >= 4 columns, got {len(cols)}")
        nid, kind_name, tag = cols[0], cols[1], cols[2]
        if nid in seen:
            raise TableFormatError(f"{path}:{lineno}: node id {nid!r} already present "
                                   f"on line {seen[nid]}")
        seen[nid] = lineno
        try:
            kind = NodeKind(kind_name)
        except ValueError:
            raise TableFormatError(f"{path}:{lineno}: unknown node kind {kind_name!r}") from None
        if kind is NodeKind.MOLECULE:
            raw.append((lineno, nid, kind, tag, cols[3]))
            continue
        try:
            feats = np.array([float(c) for c in cols[3:]], dtype=np.float64)
        except ValueError:
            raise TableFormatError(f"{path}:{lineno}: malformed feature value") from None
        if not np.isfinite(feats).all():
            raise TableFormatError(f"{path}:{lineno}: non-finite feature value")
        if kind in similarity_kinds:
            first, dim = first_dim.setdefault(kind, (lineno, len(feats)))
            if len(feats) != dim:
                raise MixedDimensionsError(
                    f"{path}:{lineno}: {kind.value} row has {len(feats)} features, but "
                    f"line {first} has {dim}; similarity edges need one dimension per kind")
        raw.append((lineno, nid, kind, tag, feats))

    # group non-molecule rows by (kind, dim) and scale per dimension
    groups: Dict[Tuple[NodeKind, int], List[int]] = {}
    for i, (_ln, _nid, kind, _tag, payload) in enumerate(raw):
        if kind is not NodeKind.MOLECULE:
            groups.setdefault((kind, len(payload)), []).append(i)
    scaled: Dict[int, np.ndarray] = {}
    for (kind, _dim), idxs in groups.items():
        try:
            mat = min_max_scale(np.stack([raw[i][4] for i in idxs]))
        except ValueError as exc:
            raise TableFormatError(f"{path}: {kind.value} features, {exc}") from None
        for row, i in enumerate(idxs):
            scaled[i] = mat[row]

    smiles = [(lineno, payload) for lineno, _nid, kind, _tag, payload in raw
              if kind is NodeKind.MOLECULE]
    try:
        mols = parse_many([text for _lineno, text in smiles])
    except SmilesError as exc:
        raise TableFormatError(f"{path}:{smiles[exc.index][0]}: bad SMILES: {exc}") from exc
    fps = morgan_fingerprint(mols, fp_radius, fp_bits)

    records = []
    k = 0  # molecules so far
    for i, (_lineno, nid, kind, tag, payload) in enumerate(raw):
        if kind is NodeKind.MOLECULE:
            records.append(NodeRecord(nid, kind, fps[k], tag, smiles=payload))
            k += 1
        else:
            records.append(NodeRecord(nid, kind, scaled[i].astype(np.float32), tag))
    return records


def load_edge_table(path) -> List[Tuple[str, str, Relation, float, int]]:
    """Parse an edge TSV: src_id, dst_id, relation, weight.

    Returns (src, dst, relation, weight, line) per row. The weight column is
    ignored and forced to 1.0 for perturbation rows; on other rows a weight
    outside (0, 1] raises TableFormatError.
    """
    out = []
    for lineno, cols in serialize.table_rows(path):
        if len(cols) != 4:
            raise TableFormatError(f"{path}:{lineno}: expected 4 columns, got {len(cols)}")
        src, dst, rel_name, w_str = cols
        try:
            rel = Relation(rel_name)
        except ValueError:
            raise TableFormatError(f"{path}:{lineno}: unknown relation {rel_name!r}") from None
        try:
            w = float(w_str)
        except ValueError:
            raise TableFormatError(f"{path}:{lineno}: malformed weight {w_str!r}") from None
        if rel is Relation.PERTURBATION:
            w = 1.0
        elif not math.isfinite(w):
            raise TableFormatError(f"{path}:{lineno}: non-finite weight")
        elif not 0.0 < w <= 1.0:
            raise TableFormatError(f"{path}:{lineno}: weight {w_str!r} outside (0, 1]")
        out.append((src, dst, rel, w, lineno))
    return out


def build_graph_from_tables(
    node_path,
    edge_path,
    fp_radius: int = 2,
    fp_bits: int = 1024,
    similarity_kinds: Sequence[NodeKind] = (),
    threshold: float = 0.8,
    keep_fraction: float = 0.005,
) -> ContextGraph:
    """The finalized graph of a node and an edge table. An edge row naming an
    unknown node, or a self-loop, raises TableFormatError naming its line."""
    g = ContextGraph()
    for rec in load_node_table(node_path, fp_radius, fp_bits, similarity_kinds):
        g.add_node(rec)
    for src, dst, rel, w, lineno in load_edge_table(edge_path):
        try:
            g.add_edge(src, dst, rel, w)
        except (UnknownNodeError, SelfLoopError) as exc:
            raise TableFormatError(f"{edge_path}:{lineno}: {exc}") from None
    for kind in similarity_kinds:
        g.build_similarity_edges(kind, threshold, keep_fraction)
    return g.finalize()
