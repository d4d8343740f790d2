"""Weighted heterogeneous context graph over molecules, genes, gene-expression
profiles, and cell-morphology profiles, stored as columns (PyG's layout).

Node i, in insertion order, has an id, a kind code (index into `KINDS`), a
source tag, a SMILES (None off molecules), and [0,1]-scaled features: a row
of the float32 matrix of its (kind, dim). Edges are undirected with weights
in (0,1], stored as four arrays: the two nodes, the relation code (index
into `RELATIONS`, in value order) and the weight; a (pair, relation) given
twice keeps its last weight. Perturbation edges are always weight 1.
Similarity edges come from a cosine threshold (0.8) combined with a
top-fraction sparsity filter (keep 0.5% of all intra-kind pairs).
`finalize()` sorts the edges by (low id, high id, relation value), freezes
the graph and builds the walker's CSR arrays, in which a pair joined by
several relations is one edge at the max weight. `molecules()` parses the
molecule SMILES into one `MoleculeSet` on first use. A graph grows by
whole columns (`add_nodes`, `add_edges`), and an append onto an empty column
takes the given array as it is. A graph built from tables records the Morgan
radius of its fingerprints as `fp_radius`.

A saved graph (`.ctxg`, graph format 2) holds these columns as they are: ids,
source tags and SMILES as JSON lists, kind codes and dims as arrays, each
(kind, dim) matrix as float32 or, when it is exactly +0.0/1.0 bit for bit as
fingerprints are, as `np.packbits` rows; then the radius, the stats and the
edges as a JSON list in `finalize`'s order. `load` checks the file against
itself and builds the finalized graph from it without sorting the edges
again.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import serialize
from .errors import (CorruptFileError, DuplicateIdError, FinalizedError, MixedDimensionsError,
                     SelfLoopError, SmilesError, TableFormatError, UnknownNodeError)
from .fingerprint import morgan_fingerprint
# `parse_smiles` is not called here: perfbench/tracer.py wraps it under this
# module's name, so a traced run needs it importable from ctxgraph.
from .molparse import MoleculeSet, parse_many, parse_smiles

MAGIC = b"CTXG"
# The layout `save` writes and `load` reads; a file of another is rejected.
# Format 1, which had no number, held per-node JSON records and every
# feature as float32.
GRAPH_FORMAT = 2
_ONE_BITS = np.float32(1.0).view(np.uint32)  # the bits of 1.0f
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


# Kind and relation codes index these; relation codes sort as their values do.
KINDS = tuple(NodeKind)
RELATIONS = tuple(sorted(Relation, key=lambda r: r.value))
_KIND_VALUES = [k.value for k in KINDS]
_RELATION_VALUES = [r.value for r in RELATIONS]
_KIND_CODE = {v: c for c, v in enumerate(_KIND_VALUES)}
_RELATION_CODE = {v: c for c, v in enumerate(_RELATION_VALUES)}
_MOLECULE, _SIMILARITY = _KIND_CODE["molecule"], _RELATION_CODE["similarity"]
_EDGE_DTYPES = (np.intp, np.intp, np.int8, np.float64)


@dataclass
class NodeRecord:
    """One node, as `node()` views it."""

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


class Edges(NamedTuple):
    """Each edge's two nodes (the lower id's first once finalized), its
    relation code and its weight."""
    a: np.ndarray
    b: np.ndarray
    rel: np.ndarray
    w: np.ndarray


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


def _joined(col, new: np.ndarray) -> np.ndarray:
    """`new` appended to the column `col`; an empty `col` gives `new` itself,
    so a graph built in one call copies none of its columns."""
    return np.concatenate([col, new]) if len(col) else new


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
        self._ids: List[str] = []
        self._index: Dict[str, int] = {}
        self._tags: List[str] = []
        self._smiles: List[Optional[str]] = []
        self._kind = np.zeros(0, dtype=np.int8)
        self._dim = np.zeros(0, dtype=np.intp)
        self._row = np.zeros(0, dtype=np.intp)  # each node's row in its (kind, dim) matrix
        self._features: Dict[Tuple[NodeKind, int], np.ndarray] = {}
        self._edges = Edges(*(np.zeros(0, dtype=dt) for dt in _EDGE_DTYPES))
        self._finalized = False
        self._csr: Optional[CsrAdjacency] = None
        self._stats: Optional[dict] = None
        self._molecules: Optional[Tuple[MoleculeSet, Dict[str, int]]] = None
        # The Morgan radius of the molecules' features, if the tables built them.
        self.fp_radius: Optional[int] = None

    # --- accessors -------------------------------------------------------

    def node_ids(self) -> List[str]:
        return list(self._ids)

    def _node_index(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id!r}") from None

    def node(self, node_id: str) -> NodeRecord:
        """A record of the node, its features a view of its matrix row."""
        i = self._node_index(node_id)
        kind = KINDS[self._kind[i]]
        return NodeRecord(node_id, kind, self._features[kind, int(self._dim[i])][self._row[i]],
                          self._tags[i], self._smiles[i])

    def kinds(self) -> np.ndarray:
        """Each node's kind code."""
        return self._kind

    def features(self) -> Tuple[np.ndarray, np.ndarray, Dict[Tuple[NodeKind, int], np.ndarray]]:
        """Each node's dim and row in its (kind, dim) matrix, and the matrices."""
        return self._dim, self._row, self._features

    def _group(self, kind: NodeKind, dim: int) -> np.ndarray:
        """The nodes of the rows of the (kind, dim) matrix, in order."""
        return np.flatnonzero((self._kind == KINDS.index(kind)) & (self._dim == dim))

    def molecule_ids(self) -> List[str]:
        return [self._ids[i] for i in np.flatnonzero(self._kind == _MOLECULE).tolist()]

    def molecules(self) -> Tuple[MoleculeSet, Dict[str, int]]:
        """The SMILES of the molecule nodes that have one as one set, parsed
        in one `parse_many` call on first use, and each such node's row in it.
        A SMILES that does not parse raises its SmilesError, naming the node."""
        if self._molecules is None:
            nodes = [i for i in np.flatnonzero(self._kind == _MOLECULE).tolist()
                     if self._smiles[i]]
            try:
                mols = parse_many([self._smiles[i] for i in nodes])
            except SmilesError as exc:
                raise type(exc)(f"molecule node {self._ids[nodes[exc.index]]!r}: {exc}") from None
            self._molecules = (mols, {self._ids[i]: k for k, i in enumerate(nodes)})
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

    def add_nodes(self, ids: List[str], kinds, tags: List[str], smiles: List[Optional[str]],
                  features: Dict[Tuple[NodeKind, int], tuple]) -> None:
        """Append nodes given as columns: ids, kind codes, source tags and
        SMILES (None off molecules), and per (kind, dim) the ascending
        positions of its nodes and their feature rows as one matrix. An id
        already present or given twice raises DuplicateIdError, and no node
        is added. A matrix appended to a (kind, dim) that has no rows yet is
        kept as given when it is float32."""
        self._check_mutable()
        n = len(self._ids)
        fresh: Dict[str, int] = {}
        for i, nid in enumerate(ids, n):
            if nid in self._index or fresh.setdefault(nid, i) != i:
                raise DuplicateIdError(f"node id {nid!r} already present")
        dim = np.zeros(len(ids), dtype=np.intp)
        row = np.zeros(len(ids), dtype=np.intp)
        for key, (pos, mat) in features.items():
            used = len(self._features.get(key, ()))
            dim[pos] = key[1]
            row[pos] = used + np.arange(len(pos))
            if len(pos):
                self._features[key] = _joined(self._features.get(key, ()),
                                              np.asarray(mat, dtype=np.float32))
        self._index.update(fresh)
        self._ids.extend(ids)
        self._tags.extend(tags)
        self._smiles.extend(smiles)
        self._kind, self._dim, self._row = (
            _joined(col, new) for col, new in
            zip((self._kind, self._dim, self._row), (np.array(kinds, dtype=np.int8), dim, row)))
        self._molecules = None

    def add_edges(self, a, b, rel, w) -> None:
        """Append edges given as columns: each edge's two node indices, its
        relation code (an index into `RELATIONS`) and its weight; a (pair,
        relation) given again keeps its last weight. An index that is no
        node raises UnknownNodeError, a self-loop SelfLoopError, and an
        unknown relation code or a weight outside (0, 1] ValueError, naming
        the first such edge; then no edge is added."""
        self._check_mutable()
        a, b, rel = (np.asarray(col, dtype=np.intp) for col in (a, b, rel))
        w = np.asarray(w, dtype=np.float64)
        n = len(self._ids)
        for bad, error, fault in (
                ((np.minimum(a, b) < 0) | (np.maximum(a, b) >= n), UnknownNodeError,
                 f"a node index outside the graph's {n} nodes"),
                (a == b, SelfLoopError, "a self-loop"),
                ((rel < 0) | (rel >= len(RELATIONS)), ValueError, "an unknown relation code"),
                (~((w > 0.0) & (w <= 1.0)), ValueError, "a weight outside (0, 1]")):
            if bad.any():
                k = int(np.argmax(bad))
                raise error(f"edge {k} (nodes {a[k]} and {b[k]}, relation code {rel[k]}, "
                            f"weight {w[k]}) has {fault}")
        self._edges = Edges(*(_joined(col, new.astype(dt, copy=False)) for col, new, dt
                              in zip(self._edges, (a, b, rel, w), _EDGE_DTYPES)))

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
        A pair that already has a similarity edge keeps it and its weight.
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
        dims = sorted(d for k, d in self._features if k is kind and d > 0)
        if len(dims) > 1:
            raise MixedDimensionsError(f"{kind.value} nodes have mixed feature dimensions {dims}")
        if not dims or len(self._features[kind, dims[0]]) < 2:
            return 0
        nodes = self._group(kind, dims[0])
        feats = self._features[kind, dims[0]].astype(np.float64)
        n = len(nodes)
        norms = np.linalg.norm(feats, axis=1)
        ok = norms > 0
        unit = np.zeros_like(feats)
        unit[ok] = feats[ok] / norms[ok, None]
        rank = _id_ranks([self._ids[i] for i in nodes.tolist()])

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
        a, b, s = nodes[i[best]], nodes[j[best]], s[best]  # a < b, as i < j
        # A similarity edge given before, by the tables in either direction,
        # keeps its weight.
        e = self._edges
        sim = e.rel == _SIMILARITY
        given = set(zip(np.minimum(e.a, e.b)[sim].tolist(), np.maximum(e.a, e.b)[sim].tolist()))
        new = np.array([pair not in given for pair in zip(a.tolist(), b.tolist())], dtype=bool)
        self.add_edges(a[new], b[new], np.full(np.count_nonzero(new), _SIMILARITY), s[new])
        return int(np.count_nonzero(new))

    # --- finalize --------------------------------------------------------

    def finalize(self) -> "ContextGraph":
        """Freeze the graph: validate invariants, sort the edges, build
        adjacency, compute stats.

        Idempotent; all mutating operations raise FinalizedError afterwards.
        """
        if self._finalized:
            return self
        self._check_features()
        rank = _id_ranks(self._ids)
        self._edges = self._merged_edges(rank)
        self._csr = self._build_csr(rank)
        self._stats = {"nodes": len(self._ids), "edges": len(self._edges.w),
                       "nodes_by_kind": _counts(self._kind, _KIND_VALUES),
                       "edges_by_relation": _counts(self._edges.rel, _RELATION_VALUES)}
        self._finalized = True
        return self

    def _check_features(self, keys=None) -> None:
        """ValueError naming the first node with a feature outside [0, 1] (or
        NaN), in the (kind, dim) matrices of `keys`, all of them if None."""
        bad = []
        for kind, dim in self._features if keys is None else keys:
            mat = self._features[kind, dim]
            rows = np.flatnonzero(~((mat >= 0.0) & (mat <= 1.0)).all(axis=1))
            if len(rows):
                bad.append(self._group(kind, dim)[rows[0]])
        if bad:
            raise ValueError(f"node {self._ids[min(bad)]!r} has features outside [0, 1]")

    def _merged_edges(self, rank: np.ndarray) -> Edges:
        """The edges, lower id first, sorted by (low id, high id, relation
        value), a repeated (pair, relation) once at its last weight; `rank`
        is `_id_ranks` of the node ids."""
        e = self._edges
        swap = rank[e.a] > rank[e.b]
        lo, hi = np.where(swap, e.b, e.a), np.where(swap, e.a, e.b)
        # lexsort is stable, so the last of a repeated key is the last added
        order = np.lexsort((e.rel, rank[hi], rank[lo]))
        e = Edges(lo[order], hi[order], e.rel[order], e.w[order])
        last = np.ones(len(e.w), dtype=bool)
        last[:-1] = (e.a[1:] != e.a[:-1]) | (e.b[1:] != e.b[:-1]) | (e.rel[1:] != e.rel[:-1])
        return Edges(*(col[last] for col in e))

    def _build_csr(self, rank: np.ndarray) -> CsrAdjacency:
        """Both directions of every edge, sorted by (node, neighbour id), one
        entry per pair at its max weight, and each row's running weight sum."""
        e = self._edges
        bad = np.flatnonzero(~((e.w > 0.0) & (e.w <= 1.0)))
        if len(bad):
            k = bad[0]
            raise ValueError(f"edge ({self._ids[e.a[k]]}, {self._ids[e.b[k]]}) "
                             f"weight {e.w[k].item()} outside (0, 1]")
        n = len(self._ids)
        src, dst = np.concatenate([e.a, e.b]), np.concatenate([e.b, e.a])
        w = np.concatenate([e.w, e.w])
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
        return CsrAdjacency(self._ids, self._index, indptr, dst[pairs], weights, cdf)

    def _edge_rows(self, e: Edges) -> List[list]:
        """[id, id, relation value, weight] of each edge of `e`."""
        ids = self._ids
        return [[ids[a], ids[b], _RELATION_VALUES[r], w] for a, b, r, w in
                zip(e.a.tolist(), e.b.tolist(), e.rel.tolist(), e.w.tolist())]

    def checksum(self) -> str:
        """Content hash over node ids/kinds and the edge set (not features)."""
        import hashlib

        ids = self._ids
        e = self._edges if self._finalized else self._merged_edges(_id_ranks(ids))
        order = sorted(range(len(ids)), key=ids.__getitem__)
        text = "".join(f"{ids[i]}:{_KIND_VALUES[k]}:{d};" for i, k, d in
                       zip(order, self._kind[order].tolist(), self._dim[order].tolist()))
        text += "".join(f"{a}-{b}:{r}:{w!r};" for a, b, r, w in self._edge_rows(e))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def stats(self) -> dict:
        if not self._finalized:
            raise FinalizedError("stats available after finalize()")
        return dict(self._stats)

    # --- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the graph in container format `GRAPH_FORMAT`: the ids, source
        tags and SMILES as JSON lists, the kind codes and dims as arrays,
        each (kind, dim) matrix as float32, or as `np.packbits` rows when it
        is exactly +0.0/1.0 bit for bit, the fingerprint radius, the stats,
        and the edges as a JSON list in `finalize`'s order."""
        if not self._finalized:
            raise FinalizedError("only finalized graphs are saved")
        groups, mats = [], []
        for (kind, dim), mat in self._features.items():
            words = np.ascontiguousarray(mat).view(np.uint32)
            bits = bool(((words == 0) | (words == _ONE_BITS)).all())
            groups.append([kind.value, dim, bits])
            mats.append(np.packbits(mat != 0, axis=1) if bits else mat)
        meta = {"format": GRAPH_FORMAT, "fp_radius": self.fp_radius, "ids": self._ids,
                "source_tags": self._tags, "smiles": self._smiles, "groups": groups,
                "edges": self._edge_rows(self._edges),
                "stats": self._stats}
        serialize.write_container(path, MAGIC, meta, [self._kind, self._dim, *mats])

    @classmethod
    def load(cls, path) -> "ContextGraph":
        """Read a graph `save` wrote, finalized as it was saved: the edges
        are taken in their saved order, not merged and sorted again. A file
        of another format, or whose contents contradict themselves (an
        unknown kind, relation or edge node, a repeated id, dims that do not
        match the matrices, a feature outside [0, 1], a weight outside
        (0, 1], edges not rising strictly by (low id, high id, relation)),
        raises CorruptFileError naming the file. Molecule SMILES are parsed
        on first use, by `molecules()`: walking needs none of them."""
        meta, arrays = serialize.read_container(path, MAGIC)
        if meta.get("format", 1) != GRAPH_FORMAT:
            raise CorruptFileError(f"{path}: graph format {meta.get('format', 1)}, but this "
                                   f"version reads format {GRAPH_FORMAT}; build the graph again")
        try:
            return cls._from_saved(meta, arrays)
        except ValueError as exc:
            raise CorruptFileError(f"{path}: {exc}") from None

    @classmethod
    def _from_saved(cls, meta: dict, arrays: List[np.ndarray]) -> "ContextGraph":
        """The finalized graph of `save`'s metadata and arrays; ValueError
        names the first contradiction."""
        ids, tags, smiles = meta["ids"], meta["source_tags"], meta["smiles"]
        g = cls()
        g._ids, g._tags, g._smiles = ids, tags, smiles
        kind, dim, *mats = arrays
        n = len(ids)
        if not len(kind) == len(dim) == len(tags) == len(smiles) == n:
            raise ValueError(f"{n} node ids, but {len(kind)} kinds, {len(dim)} dims, "
                             f"{len(tags)} tags and {len(smiles)} SMILES")
        g._index = dict(zip(ids, range(n)))
        if len(g._index) < n:
            twice = next(i for i, count in Counter(ids).items() if count > 1)
            raise ValueError(f"node id {twice!r} appears twice")
        bad = np.flatnonzero((kind < 0) | (kind >= len(KINDS)))
        if len(bad):
            raise ValueError(f"node {ids[bad[0]]!r} has unknown kind code {kind[bad[0]]}")
        g._kind, g._dim = kind.astype(np.int8, copy=False), dim.astype(np.intp, copy=False)
        g._row = np.zeros(n, dtype=np.intp)
        placed, floats = 0, []
        for (kind_value, d, bits), mat in zip(meta["groups"], mats):
            if kind_value not in _KIND_CODE:
                raise ValueError(f"unknown node kind {kind_value!r}")
            key = (KINDS[_KIND_CODE[kind_value]], d)
            pos = np.flatnonzero((g._kind == _KIND_CODE[kind_value]) & (g._dim == d))
            want = (len(pos), -(-d // 8) if bits else d)
            if key in g._features or d < 0 or mat.shape != want:
                raise ValueError(f"the {kind_value} matrix of dim {d} holds {mat.shape}, "
                                 f"but {len(pos)} nodes have that kind and dim")
            g._row[pos] = np.arange(len(pos))
            placed += len(pos)
            if bits:
                g._features[key] = np.unpackbits(mat, axis=1, count=d).astype(np.float32)
            else:
                g._features[key] = mat.astype(np.float32, copy=False)
                floats.append(key)
        if len(mats) != len(meta["groups"]) or placed != n:
            raise ValueError(f"{placed} of {n} nodes have a feature matrix")
        g._check_features(floats)
        edges = meta["edges"]
        a, b, rel, w = zip(*edges) if edges else ((), (), (), ())
        try:
            ia, ib = (np.array([g._index[x] for x in ends], dtype=np.intp) for ends in (a, b))
        except KeyError as exc:
            raise ValueError(f"unknown edge node {exc.args[0]!r}") from None
        try:
            codes = np.array([_RELATION_CODE[r] for r in rel], dtype=np.int8)
        except KeyError as exc:
            raise ValueError(f"unknown relation {exc.args[0]!r}") from None
        g._edges = Edges(ia, ib, codes, np.array(w, dtype=np.float64))
        rank = _id_ranks(ids)
        lo, hi = rank[ia], rank[ib]
        ok = lo < hi
        ok[1:] &= (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (
            (hi[1:] > hi[:-1]) | ((hi[1:] == hi[:-1]) & (codes[1:] > codes[:-1]))))
        bad = np.flatnonzero(~ok)
        if len(bad):
            raise ValueError(f"edge {bad[0]} {edges[bad[0]]} is not lower id first, or not "
                             f"after the edge before it by (low id, high id, relation)")
        g._csr = g._build_csr(rank)
        g._stats = meta["stats"]
        g.fp_radius = meta["fp_radius"]
        g._finalized = True
        return g


def _counts(codes: np.ndarray, values: List[str]) -> Dict[str, int]:
    """The number of each code, by its value, codes that do not occur left out."""
    return {v: n for v, n in zip(values, np.bincount(codes, minlength=len(values)).tolist()) if n}


# --- TSV ingestion ---------------------------------------------------------

def load_node_table(path, fp_radius: int = 2, fp_bits: int = 1024,
                    similarity_kinds: Sequence[NodeKind] = ()) -> ContextGraph:
    """The graph of the nodes of a node TSV (id, kind, source_tag, then
    features), with no edges.

    Molecule rows carry a SMILES column instead of inline features; the
    SMILES are parsed in one `parse_many` call (a bad one raises
    TableFormatError naming its line), and the set is fingerprinted in one
    `morgan_fingerprint` call, whose matrix is the molecules' features.
    Non-molecule features are min-max scaled per (kind, dimension) group,
    one matrix each. A node id given twice raises TableFormatError naming
    both lines. Every feature row of a kind in `similarity_kinds` must have
    the dimension of that kind's first row, or MixedDimensionsError names
    the first row that does not.
    """
    ids, kinds, tags, smiles = [], [], [], []
    mol_rows: List[Tuple[int, int]] = []  # (line, position) per molecule
    groups: Dict[Tuple[int, int], Tuple[List[int], list]] = {}  # (kind, dim) -> positions, rows
    seen: Dict[str, int] = {}  # node id -> line
    first_dim: Dict[int, Tuple[int, int]] = {}  # kind -> (line, dim) of its first row
    sim_codes = {KINDS.index(k) for k in similarity_kinds}
    for lineno, cols in serialize.table_rows(path):
        if len(cols) < 4:
            raise TableFormatError(f"{path}:{lineno}: expected >= 4 columns, got {len(cols)}")
        nid, kind_name, tag = cols[0], cols[1], cols[2]
        if nid in seen:
            raise TableFormatError(f"{path}:{lineno}: node id {nid!r} already present "
                                   f"on line {seen[nid]}")
        seen[nid] = lineno
        code = _KIND_CODE.get(kind_name)
        if code is None:
            raise TableFormatError(f"{path}:{lineno}: unknown node kind {kind_name!r}")
        pos = len(ids)
        ids.append(nid)
        kinds.append(code)
        tags.append(tag)
        smiles.append(cols[3] if code == _MOLECULE else None)
        if code == _MOLECULE:
            mol_rows.append((lineno, pos))
            continue
        try:
            feats = np.array([float(c) for c in cols[3:]], dtype=np.float64)
        except ValueError:
            raise TableFormatError(f"{path}:{lineno}: malformed feature value") from None
        if not np.isfinite(feats).all():
            raise TableFormatError(f"{path}:{lineno}: non-finite feature value")
        if code in sim_codes:
            first, dim = first_dim.setdefault(code, (lineno, len(feats)))
            if len(feats) != dim:
                raise MixedDimensionsError(
                    f"{path}:{lineno}: {kind_name} row has {len(feats)} features, but "
                    f"line {first} has {dim}; similarity edges need one dimension per kind")
        positions, rows = groups.setdefault((code, len(feats)), ([], []))
        positions.append(pos)
        rows.append(feats)

    features = {}
    for (code, dim), (positions, rows) in groups.items():
        try:
            features[KINDS[code], dim] = (positions, min_max_scale(rows))
        except ValueError as exc:
            raise TableFormatError(f"{path}: {_KIND_VALUES[code]} features, {exc}") from None
    try:
        mols = parse_many([smiles[pos] for _lineno, pos in mol_rows])
    except SmilesError as exc:
        raise TableFormatError(f"{path}:{mol_rows[exc.index][0]}: bad SMILES: {exc}") from exc
    fps = morgan_fingerprint(mols, fp_radius, fp_bits)
    features[NodeKind.MOLECULE, fps.shape[1]] = ([pos for _lineno, pos in mol_rows], fps)
    g = ContextGraph()
    g.add_nodes(ids, kinds, tags, smiles, features)
    g.fp_radius = fp_radius
    return g


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
        if rel_name not in _RELATION_CODE:
            raise TableFormatError(f"{path}:{lineno}: unknown relation {rel_name!r}")
        rel = RELATIONS[_RELATION_CODE[rel_name]]
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
    unknown node, or a self-loop, raises TableFormatError naming its line.
    A row repeating a (pair, relation) keeps its weight over an earlier one;
    similarity edges from the tables keep theirs over computed ones."""
    g = load_node_table(node_path, fp_radius, fp_bits, similarity_kinds)
    rows = load_edge_table(edge_path)
    for src, dst, _rel, _w, lineno in rows:
        unknown = [nid for nid in (src, dst) if nid not in g._index]
        if src == dst or unknown:
            fault = f"self-loop on {src!r}" if src == dst else f"unknown node id {unknown[0]!r}"
            raise TableFormatError(f"{edge_path}:{lineno}: {fault}")
    g.add_edges([g._index[r[0]] for r in rows], [g._index[r[1]] for r in rows],
                [RELATIONS.index(r[2]) for r in rows], [r[3] for r in rows])
    for kind in similarity_kinds:
        g.build_similarity_edges(kind, threshold, keep_fraction)
    return g.finalize()
