"""Per-atom oracles for the array paths, the training step's slow paths, and
a fixed SMILES set.

Each `reference_*` molecule oracle walks one molecule atom by atom in Python
and takes every degree and neighbour list from its own scan of the bond list,
so it shares neither the parser's degree array nor the fingerprint's arrays.
`environment_identifiers` is the per-molecule hash that the set-at-once
`morgan_fingerprint` replaced: it reads the parser's degrees and adjacency
from the bond arrays. `reference_scatter_add` and `reference_adam_step` are
the `np.add.at` scatter and the per-parameter Adam loop that the row index
tables and the flat parameter buffer replaced. `reference_top_pairs` is the
full sort of every similarity candidate that the partition cut replaced.
`reference_row_table` is a row index's table built on its own, as a
`RowIndex` once built it on first use, which `RowIndex.blocks` replaced;
`row_index` is the one-block `RowIndex.blocks`, for tests that build a row
index from an array. `reference_atom_graph` lays out one block of molecules
with each row index built from its own array, as `AtomGraph.of` did, and
`reference_embed` is `embed` on it, one block at a time, where `embed` cuts
every block from one `AtomGraph`.
`reference_walk_loss` is the loss of one walk on a tape of its own, one
target at a time (`walk_targets`), which `batch_loss` computes for a whole
minibatch at once. `reference_batch_loss` is that minibatch loss with every
structure of the batch (its molecules, row indexes and target groups) built
inside the step, as it was before `model.EpochPlan` laid each epoch out once.
`add`, `tsum`, `neg`, `relu`, `exp` and `softplus` are the primitives, and
the `composed_*` functions the chains of primitives, that diffcore's fused
nodes (`mlp_forward`, `gaussian_kl`, `gaussian_sample`, `gin_layer`,
`decode_group`, `add_n`) replaced; the slow-path oracles build their tapes
from these chains (`composed_encode` is `encode_union` on them), so they
check the fused nodes and not themselves. The BCE and squared-error chains
(`composed_bce`, `composed_half_squared_error`) check only `decode_group`,
the one place `src/` computes an NLL; `columns` and `interleave` put a
decoded group with one likelihood per column together from them.
`reference_parse_smiles` is the character-at-a-time SMILES parser that the
token table replaced; it keeps its own bond-symbol table and charge limit.
`reference_probe_train` is the probe fit that builds both losses on every
entry and masks one away, on the unfused chains, where `probe_train` is one
`decode_group` node that picks each column's loss.
`union` lays out a list of parsed molecules as one graph one molecule at a
time, which `molecule_set(mols).block(0, len(mols))` does at once.
`molecule_set` and `molecule` are the layout of a list of parsed molecules
as a set and the slicing of one molecule out of a set, that `MoleculeSet.of`
and `MoleculeSet.molecule` did and `parse_many` and `MoleculeSet.take`
replaced.
`neighbors` reads one node's row of the walker's CSR arrays as the
(neighbour id, weight) pairs that `ContextGraph.neighbors` returned, and
`stored_edges` the graph's edge arrays as the {(low id, high id, relation):
weight} dict the graph kept before its edges were arrays; it is the one
place the tests read the graph's private fields.
`graph_of` gathers node rows and edges given by id, as the graph's own
`add_node` and `add_edge` once took them one at a time, into one constructor
call and one `add_edges` call; `walk_batch` is the `WalkBatch` of a list of
`WalkPath`s.
`reference_walk_tsv` is the `walk` table built as one string, each float
formatted where it appears, that the block-at-a-time writer replaced.
`gaussian_mi` and `i_nwj` are the closed-form Gaussian MI and the NWJ bound,
which no command reports.
"""

import struct
from dataclasses import fields
from typing import List, Set, Tuple

import numpy as np

import infoalign.diffcore as dc
import infoalign.model as model
from infoalign.errors import (
    PathMismatchError,
    RingUnclosedError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnsupportedFeatureError,
)
from infoalign.ctxgraph import KINDS, RELATIONS, ContextGraph
from infoalign.evalkit import CLASSIFICATION, ProbeHead
from infoalign.model import (ATOM_FEATURE_DIM, LOGVAR_CLAMP, AtomGraph, EncoderOutput,
                             LossBreakdown, atom_features, decode_nll, decoder_prefix,
                             encode_union, kl_standard_normal, reparameterize)
from infoalign.molparse import (AROMATIC_ELEMENTS, ELEMENTS, BondOrder, MolecularGraph,
                                MoleculeSet, parse_many, parse_smiles)
from infoalign.walker import WalkBatch

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1
_ELEMENT_BYTES = [e.encode("ascii") for e in ELEMENTS]

# Every element and bond symbol, aromatic rings of each aromatic element,
# bracket atoms with hydrogens and charges (clipped by the encoder past +-2),
# %nn and reused ring digits, ring-closure bond orders, and an atom of
# degree 6 (clipped by the encoder to 5).
FIXED_SMILES = [
    "C", "CC", "CCO", "O=C=O", "C#N", "C-C=C#C", "c1ccccc1", "c1ccncc1", "c1ccoc1",
    "c1ccsc1", "[nH]1cccc1", "b1ccccc1", "p1ccccc1", "c1ccc2ccccc2c1",
    "CC(=O)Oc1ccccc1C(=O)O", "C(C)(C)(C)(C)(C)C", "[NH4+]", "[O-]C(=O)CC[N+](C)(C)C",
    "OCC(O)(N)C1CC1[O-]", "C1CC2CCC1CC2", "N#CC(=O)[O-]", "ClC(Cl)(Cl)Br",
    "FC(F)(F)c1ccc(I)cc1", "B(O)(O)c1ccccc1", "P(=O)(O)(O)OCC", "CS(=O)(=O)N",
    "C%10CCC%10", "C=1CCCCC=1", "C1CC1C1CC1", "[C+2]", "[N--]", "[S+3]CC[C-3]",
    "S(F)(F)(F)(F)(F)F", "CSC", "CC(S)C", "CC(C)(CSCC(N)C(=O)O)c1ccc(Cl)c(Br)c1",
]


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def environment_identifiers(g: MolecularGraph, radius: int) -> Set[int]:
    """Pre-fold identifier set over all atoms and radii 0..radius.

    The radius-0 identifier hashes (element, charge, aromatic, degree); each
    subsequent round hashes the previous identifier with the sorted
    (bond code, neighbor identifier) pairs, where the bond code is the
    `BondOrder` value + 1.
    """
    # (neighbor, bond code) per atom, in bond order
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(len(g.element))]
    for (a, b), order in zip(g.bonds.tolist(), g.order.tolist()):
        adjacency[a].append((b, order + 1))
        adjacency[b].append((a, order + 1))
    ids = [
        _fnv1a(_ELEMENT_BYTES[e] + struct.pack("<iBI", charge, aromatic, degree))
        for e, charge, aromatic, degree in zip(g.element.tolist(), g.charge.tolist(),
                                               g.aromatic.tolist(), g.degree.tolist())
    ]
    collected = set(ids)
    for _ in range(radius):
        nxt = []
        for i, nbrs in enumerate(adjacency):
            env = sorted((code, ids[j]) for j, code in nbrs)
            blob = struct.pack("<Q", ids[i]) + b"".join(
                struct.pack("<BQ", code, nid) for code, nid in env
            )
            nxt.append(_fnv1a(blob))
        ids = nxt
        collected.update(ids)
    return collected


BOND_CODE = {BondOrder.SINGLE: 1, BondOrder.DOUBLE: 2, BondOrder.TRIPLE: 3,
             BondOrder.AROMATIC: 4}


def scanned_neighbors(g: MolecularGraph, i: int):
    """(neighbour, BondOrder) of atom i, in bond order, from a scan of every bond."""
    out = []
    for (a, b), order in zip(g.bonds.tolist(), g.order.tolist()):
        if a == i:
            out.append((b, BondOrder(order)))
        elif b == i:
            out.append((a, BondOrder(order)))
    return out


def reference_atom_features(g: MolecularGraph) -> np.ndarray:
    """The encoder's input rows: one-hot element, charge clipped to [-2, 2],
    aromatic flag and degree clipped to 5."""
    x = np.zeros((len(g.element), ATOM_FEATURE_DIM))
    for i in range(len(g.element)):
        x[i, int(g.element[i])] = 1.0
        x[i, 10 + min(max(int(g.charge[i]), -2), 2) + 2] = 1.0
        x[i, 15] = float(g.aromatic[i])
        x[i, 16 + min(len(scanned_neighbors(g, i)), 5)] = 1.0
    return x


def reference_environment_identifiers(g: MolecularGraph, radius: int) -> set:
    """ECFP identifiers: FNV-1a of (element, charge, aromatic, degree), then
    per round of the identifier and its sorted (bond code, neighbour id) pairs."""
    n = len(g.element)
    nbrs = [scanned_neighbors(g, i) for i in range(n)]
    ids = [_fnv1a(ELEMENTS[int(g.element[i])].encode("ascii")
                  + struct.pack("<iBI", int(g.charge[i]), int(g.aromatic[i]), len(nbrs[i])))
           for i in range(n)]
    collected = set(ids)
    for _ in range(radius):
        nxt = []
        for i in range(n):
            env = sorted((BOND_CODE[order], ids[j]) for j, order in nbrs[i])
            blob = struct.pack("<Q", ids[i]) + b"".join(
                struct.pack("<BQ", code, nid) for code, nid in env)
            nxt.append(_fnv1a(blob))
        ids = nxt
        collected.update(ids)
    return collected


def union(mols: List[MolecularGraph]) -> Tuple[MolecularGraph, np.ndarray]:
    """The disjoint union of `mols`, built one molecule at a time: each array
    their concatenation, each molecule's bond endpoints offset past the atoms
    before it, and each atom's index into `mols`."""
    arrays = {f.name: [] for f in fields(MolecularGraph)}
    segment: List[int] = []
    for k, m in enumerate(mols):
        for name, parts in arrays.items():
            parts.append(m.bonds + len(segment) if name == "bonds" else getattr(m, name))
        segment += [k] * len(m.element)
    return (MolecularGraph(**{name: np.concatenate(parts) for name, parts in arrays.items()}),
            np.array(segment, dtype=np.intp))


def molecule_set(mols: List[MolecularGraph]) -> MoleculeSet:
    """The set of the parsed molecules `mols`, in their order: each array the
    concatenation of theirs, each molecule's bond endpoints offset past the
    atoms before it."""
    if not len(mols):
        return parse_many([])
    arrays = {f.name: np.concatenate([getattr(g, f.name) for g in mols])
              for f in fields(MolecularGraph)}
    atom_start = np.cumsum([0] + [len(g.element) for g in mols], dtype=np.intp)
    bond_start = np.cumsum([0] + [len(g.bonds) for g in mols], dtype=np.intp)
    arrays["bonds"] += np.repeat(atom_start[:-1], np.diff(bond_start))[:, None]
    return MoleculeSet(MolecularGraph(**arrays), atom_start, bond_start)


def molecule(mols: MoleculeSet, i: int) -> MolecularGraph:
    """Molecule i of a set on its own, sliced out of the set's arrays."""
    g = mols.graph
    a0, a1 = mols.atom_start[i], mols.atom_start[i + 1]
    b0, b1 = mols.bond_start[i], mols.bond_start[i + 1]
    return MolecularGraph(g.element[a0:a1], g.charge[a0:a1], g.aromatic[a0:a1],
                          g.degree[a0:a1], g.bonds[b0:b1] - a0, g.order[b0:b1])


def stored_edges(g) -> dict:
    """The graph's edges as {(low id, high id, relation): weight}, in the
    order they are stored: as added before `finalize`, sorted after it. A
    (pair, relation) added twice keeps its first place and its last weight."""
    ids, e = g.node_ids(), g._edges
    out = {}
    for a, b, r, w in zip(e.a.tolist(), e.b.tolist(), e.rel.tolist(), e.w.tolist()):
        out[(*sorted((ids[a], ids[b])), RELATIONS[r])] = w
    return out


def neighbors(g, node_id: str) -> List[Tuple[str, float]]:
    """Effective neighbours of `node_id` (max weight per pair) in id order,
    read from the finalized graph's CSR row."""
    csr = g.csr()
    g.node(node_id)
    i = csr.index[node_id]
    lo, hi = csr.indptr[i], csr.indptr[i + 1]
    return list(zip([csr.ids[j] for j in csr.neighbors[lo:hi].tolist()],
                    csr.weights[lo:hi].tolist()))


def graph_of(nodes, edges=()) -> ContextGraph:
    """The open graph of `nodes`, each (id, kind, features[, source tag[,
    SMILES]]) with the tag "" and the SMILES None when not given, and of
    `edges`, each (id, id, relation, weight). Every (kind, dim) group's rows
    are gathered in node order into one matrix, the graph is constructed
    once, and the edges are appended in the order given by one `add_edges`."""
    ids, kinds, tags, smiles, groups = [], [], [], [], {}
    for pos, node in enumerate(nodes):
        nid, kind, feats, tag, smi = (*node, *("", None)[len(node) - 3:])
        feats = np.asarray(feats, dtype=np.float32)
        ids.append(nid)
        kinds.append(KINDS.index(kind))
        tags.append(tag)
        smiles.append(smi)
        positions, rows = groups.setdefault((kind, len(feats)), ([], []))
        positions.append(pos)
        rows.append(feats)
    g = ContextGraph(ids, kinds, tags, smiles, {
        (kind, dim): (positions, np.array(rows, dtype=np.float32).reshape(len(rows), dim))
        for (kind, dim), (positions, rows) in groups.items()})
    index = {nid: i for i, nid in enumerate(ids)}
    g.add_edges([index[e[0]] for e in edges], [index[e[1]] for e in edges],
                [RELATIONS.index(e[2]) for e in edges], [e[3] for e in edges])
    return g


def walk_batch(graph, paths) -> WalkBatch:
    """The `WalkBatch` of the `WalkPath`s `paths` over `graph`'s nodes."""
    ids = graph.node_ids()
    length = max(len(p.nodes) for p in paths)
    nodes = np.zeros((len(paths), length), dtype=np.intp)
    weights, alphas = np.ones((2, len(paths), length - 1))
    for r, p in enumerate(paths):
        n = len(p.nodes)
        nodes[r, :n] = [ids.index(nid) for nid in p.nodes]
        weights[r, : n - 1] = p.edge_weights
        alphas[r, : n - 1] = p.alphas
    return WalkBatch(ids, nodes, weights, alphas, np.array([len(p.nodes) for p in paths]))


def reference_walk_tsv(walks: WalkBatch, starts, cfg) -> str:
    """The text `walk` writes for the walks `batch_walks(graph, starts, cfg)`."""
    lines = ["start\twalk\tnodes\tweights\talphas\ttruncated"]
    per = cfg.walks_per_molecule
    for i, n in enumerate(walks.sizes.tolist()):
        lines.append("\t".join([
            starts[i // per], str(i % per),
            "|".join(walks.ids[k] for k in walks.nodes[i, :n].tolist()),
            "|".join(f"{v:.12g}" for v in walks.weights[i, : n - 1].tolist()),
            "|".join(f"{v:.12g}" for v in walks.alphas[i, : n - 1].tolist()),
            "1" if n < cfg.length else "0",
        ]))
    return "\n".join(lines) + "\n"


def gaussian_mi(rho: float) -> float:
    """Exact MI of a bivariate normal with correlation rho, in nats."""
    if not -1.0 < rho < 1.0:
        raise ValueError("correlation must be in (-1, 1)")
    return float(-0.5 * np.log(1.0 - rho * rho))


def i_nwj(jt, h: np.ndarray) -> float:
    """The NWJ bound E[h] - e^{-1} E_z[Ztilde(z)], Ztilde(z) = E_y[e^h], of
    the critic h on the joint table jt, by exact summation."""
    h = np.asarray(h, dtype=np.float64)
    ztilde = np.exp(h) @ jt.py
    return float(np.sum(jt.p * h) - np.exp(-1.0) * np.dot(jt.pz, ztilde))


def reference_scatter_add(base: np.ndarray, index, values: np.ndarray) -> np.ndarray:
    """base[index[i]] += values[i], one entry at a time in index order, in place."""
    np.add.at(base, index, values)
    return base


def reference_adam_step(store, lr: float = 1e-3, beta1: float = 0.9,
                        beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam, one parameter at a time, then grad reset."""
    store.step += 1
    t = store.step
    for name, p in store.params.items():
        g = store.grads[name]
        m = store._m[name]
        v = store._v[name]
        m[...] = beta1 * m + (1 - beta1) * g
        v[...] = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
    for g in store.grads.values():
        g[...] = 0.0


def reference_top_pairs(s: np.ndarray, rank_i: np.ndarray, rank_j: np.ndarray,
                        keep: int) -> np.ndarray:
    """Indices of the best `keep` pairs by (-s, lo rank, hi rank), best first,
    from a lexsort of every pair."""
    lo = np.minimum(rank_i, rank_j)
    hi = np.maximum(rank_i, rank_j)
    return np.lexsort((hi, lo, -s))[:keep]


# --- the unfused tape ------------------------------------------------------------

def add(a, b):
    """a + b, broadcasting; each parent's gradient is summed over the axes
    broadcasting expanded."""
    out = dc.Tensor(a.data + b.data, (a, b))

    def bw(g):
        dc._acc(a, dc._unbroadcast(g, a.shape))
        dc._acc(b, dc._unbroadcast(g, b.shape))

    out._bw = bw
    return out


def tsum(a, axis=None, keepdims=False):
    out = dc.Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def bw(g):
        gexp = g if axis is None or keepdims else np.expand_dims(g, axis)
        dc._acc(a, np.broadcast_to(gexp, a.shape))

    out._bw = bw
    return out


def columns(a, cols):
    """a[:, cols]. Its backward sends -0.0 to the other columns, which adds
    nothing to their gradient, not even to a -0.0."""
    out = dc.Tensor(a.data[:, cols], (a,))

    def bw(g):
        grad = np.full_like(a.data, -0.0)
        grad[:, cols] = g
        dc._acc(a, grad)

    out._bw = bw
    return out


def interleave(parts, shape):
    """The (rows, columns) matrix `shape` whose columns cols are the part
    for each (cols, part) in `parts`."""
    data = np.empty(shape)
    for cols, part in parts:
        data[:, cols] = part.data
    out = dc.Tensor(data, tuple(part for _, part in parts))

    def bw(g):
        for cols, part in parts:
            dc._acc(part, g[:, cols])

    out._bw = bw
    return out


def neg(a):
    out = dc.Tensor(-a.data, (a,))
    out._bw = lambda g: dc._acc(a, -g)
    return out


def relu(a):
    out = dc.Tensor(np.maximum(a.data, 0.0), (a,))
    # subgradient at 0 is 0
    out._bw = lambda g: dc._acc(a, g * (a.data > 0))
    return out


def exp(a):
    e = np.exp(np.clip(a.data, -dc._EXP_CLAMP, dc._EXP_CLAMP))
    out = dc.Tensor(e, (a,))
    out._bw = lambda g: dc._acc(a, g * e)
    return out


def softplus(a):
    out = dc.Tensor(np.logaddexp(0.0, a.data), (a,))
    s = 1.0 / (1.0 + np.exp(-np.clip(a.data, -dc._EXP_CLAMP, dc._EXP_CLAMP)))
    out._bw = lambda g: dc._acc(a, g * s)
    return out


def composed_affine(x, w, b, relu_layer: bool = False):
    h = add(dc.matmul(x, w), b)
    return relu(h) if relu_layer else h


def composed_mlp_forward(bound, prefix: str, x):
    i = 0
    h = x
    while f"{prefix}.w{i}" in bound:
        h = composed_affine(h, bound[f"{prefix}.w{i}"], bound[f"{prefix}.b{i}"],
                            f"{prefix}.w{i + 1}" in bound)
        i += 1
    return h


def composed_bce(logits, targets):
    y = dc.constant(targets)
    return add(softplus(logits), neg(dc.mul(logits, y)))


def composed_half_squared_error(outputs, targets):
    diff = add(outputs, dc.constant(-np.asarray(targets, dtype=np.float64)))
    return dc.mul(dc.mul(diff, diff), dc.constant(0.5))


def composed_kl(mu, logvar):
    mu2 = dc.mul(mu, mu)
    inner = add(add(mu2, exp(logvar)), neg(logvar))
    return dc.mul(tsum(add(inner, dc.constant(-1.0))), dc.constant(0.5))


def composed_sample(mu, logvar, noise):
    std = exp(dc.mul(logvar, dc.constant(0.5)))
    return add(mu, dc.mul(std, dc.constant(noise)))


def composed_gin_layer(h, bond_embed, layers, out_of, into, bond_type):
    """One GIN layer as `encode_union` built it before `gin_layer`: the
    messages' two gathers and add, their scatter, the residual add, and the
    MLP's layers; with no messages only the MLP."""
    if len(into.index):
        msgs = add(dc.gather_rows(h, out_of), dc.gather_rows(bond_embed, bond_type))
        h = add(dc.scatter_add_rows(msgs, into), h)
    for k, (w, b) in enumerate(layers):
        h = composed_affine(h, w, b, k < len(layers) - 1)
    return h


def composed_decode_group(z, rows, layers, targets, weight, squared_error=False):
    """(weighted NLL sum, per-element NLL) of one decoded group as
    `batch_loss` built it before `decode_group`: the gather of z (none if
    `rows` is None), the MLP's layers, the NLL, the weight constant (a
    column, or a scalar for every row), mul and tsum. With one
    `squared_error` flag per column, each likelihood's NLL is taken on its
    own columns and the per-element NLL interleaved from the two."""
    h = z if rows is None else dc.gather_rows(z, rows)
    for k, (w, b) in enumerate(layers):
        h = composed_affine(h, w, b, k < len(layers) - 1)
    y = np.asarray(targets, dtype=np.float64)
    flags = np.asarray(squared_error, dtype=bool)
    if flags.ndim:
        parts = [(cols, chain(columns(h, cols), y[:, cols]))
                 for chain, cols in ((composed_half_squared_error, np.flatnonzero(flags)),
                                   (composed_bce, np.flatnonzero(~flags))) if len(cols)]
        nll = interleave(parts, y.shape)
    else:
        nll = (composed_half_squared_error if flags else composed_bce)(h, y)
    weight = np.asarray(weight, dtype=np.float64)
    return tsum(dc.mul(nll, dc.constant(weight[:, None] if weight.ndim else weight))), nll


def composed_encode(g: MolecularGraph, bound) -> EncoderOutput:
    """`encode_union` of the one molecule `g` on the chains above."""
    n = len(g.element)
    out_of = row_index(g.bonds.ravel(), n)
    into = row_index(g.bonds[:, ::-1].ravel(), n)
    bond_type = row_index(np.repeat(g.order, 2), len(BondOrder))
    h = dc.matmul(dc.constant(atom_features(g)), bound["atom_embed"])
    layer = 0
    while f"gin.l{layer}.w0" in bound:
        h = composed_gin_layer(h, bound[f"bond_embed.l{layer}"],
                               dc.mlp_layers(bound, f"gin.l{layer}"), out_of, into, bond_type)
        layer += 1
    readout = dc.scatter_add_rows(h, row_index(np.zeros(n, dtype=np.intp), 1))
    logvar = dc.clip(composed_mlp_forward(bound, "head_logvar", readout), -LOGVAR_CLAMP,
                     LOGVAR_CLAMP)
    return EncoderOutput(composed_mlp_forward(bound, "head_mu", readout), logvar)


def row_index(index, num_rows: int) -> dc.RowIndex:
    """The `dc.RowIndex` of the index array `index` into `num_rows` rows:
    `RowIndex.blocks` of one block."""
    return dc.RowIndex.blocks(index, [num_rows], [0, len(index)])[0]


def reference_row_table(index, num_rows: int):
    """(table, positions) of `index` into `num_rows` rows, built on their own
    as a `RowIndex` once built them on first use. The positions are the
    entries grouped by row, ascending within each row; the table is a
    (width, rows) array of positions padded with len(index) when no row has
    more entries than there are rows, else the (row, start, stop) of each
    row with entries."""
    index = np.asarray(index, dtype=np.intp)
    pos = np.argsort(index, kind="stable")
    counts = np.bincount(index, minlength=num_rows)
    stops = np.cumsum(counts)
    width = counts.max(initial=0)
    if num_rows < width:
        rows = np.flatnonzero(counts)
        return list(zip(rows.tolist(), (stops - counts)[rows].tolist(),
                        stops[rows].tolist())), pos
    rows = index[pos]
    table = np.full((width, num_rows), len(pos), dtype=np.intp)
    table[np.arange(len(pos)) - (stops - counts)[rows], rows] = pos
    return table, pos


def reference_atom_graph(g: MolecularGraph, segment, count: int) -> AtomGraph:
    """The one-block `AtomGraph` of the `count` molecules laid out as the
    graph `g`, atom i belonging to molecule segment[i]: each row index
    built from its own array, as `AtomGraph.of` built them for one block,
    where `AtomGraph.blocks` cuts every block's from one sort."""
    n = len(g.element)
    return AtomGraph(atom_features(g), [0, n], [row_index(g.bonds[:, ::-1].ravel(), n)],
                     [row_index(g.bonds.ravel(), n)],
                     [row_index(np.repeat(g.order, 2), len(BondOrder))],
                     [row_index(segment, count)])


def reference_embed(store, molecules: MoleculeSet) -> np.ndarray:
    """`model.embed` as it was before its blocks shared one layout: each
    block of `_embed_blocks` (at `model._EMBED_ATOMS`) sliced out of the set
    with `MoleculeSet.block` and laid out on its own by
    `reference_atom_graph`."""
    n = len(molecules)
    if n == 0:
        return np.zeros((0, store.params["head_mu.w0"].shape[1]))
    if n == 1:
        molecules = molecules.take([0, 0])
    bound = store.bind()
    mu = []
    for lo, hi in model._embed_blocks(molecules.atom_start, model._EMBED_ATOMS):
        g, segment = molecules.block(lo, hi)
        mu.append(encode_union(reference_atom_graph(g, segment, hi - lo), 0, bound).mu.data)
    return np.concatenate(mu)[:n]


def walk_targets(path) -> List[Tuple[str, float]]:
    """A walk's visited non-start nodes with their cumulative weights."""
    return list(zip(path.nodes[1:], path.alphas))


def reference_walk_loss(graph, path, bound, beta: float, noise, likelihood: str = "bernoulli"):
    """(total, LossBreakdown) of one walk, with `noise` one latent row.

    total = (1/L) * sum over targets of alpha * NLL + beta * KL, where L is
    the path node count and the targets are the start molecule's own features
    (alpha = 1) plus every walked node with its cumulative path weight. Each
    target is decoded on its own, its NLL the BCE (bernoulli) or half squared
    error (gaussian) summed over its entries. The encoder, the sample, the
    KL and the decoders are the unfused chains.
    """
    start = graph.node(path.nodes[0])
    out = composed_encode(parse_smiles(start.smiles), bound)
    z = composed_sample(out.mu, out.logvar, np.reshape(noise, (1, -1)))
    kl = composed_kl(out.mu, out.logvar)
    targets = [(start.features.astype(np.float64), start.kind, 1.0)]
    for nid, alpha in walk_targets(path):
        rec = graph.node(nid)
        targets.append((rec.features.astype(np.float64), rec.kind, alpha))

    L = len(path.nodes)
    chain = composed_bce if likelihood == "bernoulli" else composed_half_squared_error
    recon = {}
    weighted_terms = []
    for feats, kind, alpha in targets:
        y = feats.reshape(1, -1)
        logits = composed_mlp_forward(bound, decoder_prefix(bound, kind, y.shape[1]), z)
        nll = tsum(chain(logits, y))
        term = dc.mul(nll, dc.constant(alpha))
        weighted_terms.append(term)
        recon[kind.value] = recon.get(kind.value, 0.0) + term.item()

    acc = weighted_terms[0]
    for term in weighted_terms[1:]:
        acc = add(acc, term)
    total = add(dc.mul(acc, dc.constant(1.0 / L)), dc.mul(kl, dc.constant(beta)))
    return total, LossBreakdown(recon, kl.item(), beta, sum(recon.values()) / L + beta * kl.item())


def reference_batch_loss(graph, starts, paths, bound, beta: float, noise,
                         likelihood: str = "bernoulli"):
    """`model.batch_loss` as it was before the epoch plan: every structure
    of the batch built inside the step. The molecules are gathered with
    `MoleculeSet.take` and laid out by `reference_atom_graph`; the walk and
    decoder row indexes are built from plain arrays; and the targets are
    grouped by `np.unique` over their (kind, dim), the groups decoded in the
    order they first appear. Same arguments and results as `batch_loss`."""
    if not starts or not len(paths) or len(paths) % len(starts):
        raise ValueError(f"{len(paths)} paths for {len(starts)} start molecules")
    per_mol = len(paths) // len(starts)
    mols, row = graph.molecules()
    for s in starts:
        if s not in row:
            raise PathMismatchError(f"path must start at a molecule node, got {s!r}")
    for w, head in enumerate(paths.nodes[:, 0].tolist()):
        if paths.ids[head] != starts[w // per_mol]:
            raise PathMismatchError(f"path {w} starts at {paths.ids[head]!r}, "
                                    f"expected {starts[w // per_mol]!r}")
    walk, step = np.nonzero(np.arange(paths.nodes.shape[1]) < paths.sizes[:, None])
    nodes = paths.nodes[walk, step]
    alphas = np.hstack([np.ones((len(paths), 1)), paths.alphas])[walk, step]
    kinds = graph.kinds()[nodes]
    dims, rows, matrices = graph.features()
    _keys, first, group = np.unique(dims[nodes] * len(KINDS) + kinds, return_index=True,
                                    return_inverse=True)
    g, segment = mols.take([row[s] for s in starts]).block(0, len(starts))
    out = encode_union(reference_atom_graph(g, segment, len(starts)), 0, bound)
    walk_mol = row_index(np.repeat(np.arange(len(starts)), per_mol), len(starts))
    z = reparameterize(EncoderOutput(dc.gather_rows(out.mu, walk_mol),
                                     dc.gather_rows(out.logvar, walk_mol)), noise)
    kl = kl_standard_normal(out)
    terms = [dc.mul(kl, dc.constant(beta / len(starts)))]
    scale = 1.0 / len(paths)
    recon = {}
    recon_total = 0.0
    for k in np.argsort(first):
        sel = np.flatnonzero(group == k)
        kind = KINDS[kinds[sel[0]]]
        alpha = alphas[sel]
        weight = alpha * scale / paths.sizes[walk[sel]]
        feats = matrices[kind, int(dims[nodes[sel[0]]])][rows[nodes[sel]]]
        term, nll = decode_nll(z, feats.astype(np.float64), kind, bound,
                               row_index(walk[sel], len(paths)), weight, likelihood)
        terms.append(term)
        recon[kind.value] = recon.get(kind.value, 0.0) + float(alpha @ nll.sum(axis=1)) * scale
        recon_total += term.item()
    kl_mean = kl.item() / len(starts)
    return dc.add_n(terms), LossBreakdown(recon, kl_mean, beta, recon_total + beta * kl_mean)


def reference_probe_train(train, cfg):
    """`probe_train` with both losses on every entry, masked to each task's
    type: the BCE times 1 on classification columns and 0 elsewhere, plus the
    squared error times the complement, on the unfused chains."""
    n, d = train.embeddings.shape
    t = train.labels.shape[1]
    store = dc.ParamStore(seed=cfg.seed)
    dc.init_mlp(store, "probe", [d, t] if cfg.hidden == 0 else [d, cfg.hidden, t])
    x, y = train.embeddings, train.labels
    is_cls = np.array([k == CLASSIFICATION for k in train.task_types], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            bound = store.bind()
            out = composed_mlp_forward(bound, "probe", dc.constant(x))
            per_entry = add(
                dc.mul(composed_bce(out, y), dc.constant(is_cls[None, :])),
                dc.mul(composed_half_squared_error(out, y), dc.constant(1.0 - is_cls[None, :])),
            )
            loss = dc.mul(tsum(per_entry), dc.constant(1.0 / y.size))
            try:
                loss.backward()
                store.accumulate(bound)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} in probe epoch {epoch}") from None
            dc.adam_step(store, lr=cfg.lr)
    return ProbeHead(store, list(train.task_types))


_CHARGE_LIMIT = 2**31 - 1
_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}


def _reference_bracket_atom(text: str, pos: int) -> Tuple[str, int, bool, int]:
    """Parse a bracket atom starting at text[pos] == '['.

    Returns the element, charge and aromatic flag, and the position just past
    the closing ']'.
    """
    end = text.find("]", pos)
    if end < 0:
        raise SmilesSyntaxError(f"unterminated bracket atom at position {pos}")
    body = text[pos + 1 : end]
    if not body:
        raise SmilesSyntaxError(f"empty bracket atom at position {pos}")
    i = 0
    if body[0].isdigit():
        raise UnsupportedFeatureError(f"isotope specification not supported: [{body}]")
    # element symbol, two-letter first
    element = None
    aromatic = False
    for sym in ("Cl", "Br"):
        if body.startswith(sym):
            element = sym
            i = len(sym)
            break
    if element is None:
        ch = body[0]
        if ch in AROMATIC_ELEMENTS:
            element = ch.upper()
            aromatic = True
            i = 1
        elif ch in ELEMENTS:
            element = ch
            i = 1
        else:
            raise UnsupportedFeatureError(f"unsupported element in bracket atom: [{body}]")
    # optional explicit hydrogens (count accepted and discarded; the graph is heavy-atom only)
    if i < len(body) and body[i] == "H":
        i += 1
        while i < len(body) and body[i].isdigit():
            i += 1
    # optional charge
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        i += 1
        if i < len(body) and body[i].isdigit():
            num = 0
            while i < len(body) and body[i].isdigit():
                num = num * 10 + int(body[i])
                i += 1
            charge = sign * num
        else:
            charge = sign
            # allow repeated ++ / --
            while i < len(body) and body[i] == body[i - 1]:
                charge += sign
                i += 1
    if i != len(body):
        if body[i] in "@/\\*":
            raise UnsupportedFeatureError(f"stereo/wildcard markers not supported: [{body}]")
        raise SmilesSyntaxError(f"illegal token '{body[i]}' in bracket atom [{body}]")
    if abs(charge) > _CHARGE_LIMIT:
        raise SmilesSyntaxError(f"formal charge out of range in bracket atom [{body}]")
    return element, charge, aromatic, end + 1


def reference_parse_smiles(text: str) -> MolecularGraph:
    """`parse_smiles` one character at a time: the position moves by hand,
    each atom's degree is counted up bond by bond, and the bonds are made in
    closures. The parity test holds the token-table parser to its arrays,
    exception types and messages."""
    if not isinstance(text, str) or not text:
        raise SmilesSyntaxError("input must be a non-empty string")
    try:
        text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise SmilesSyntaxError("input must be ASCII") from exc

    element: List[int] = []
    charge: List[int] = []
    aromatic: List[bool] = []
    degree: List[int] = []
    bonds: List[Tuple[int, int]] = []
    orders: List[BondOrder] = []
    prev: int | None = None
    branch_stack: List[int] = []
    # ring number -> (open atom index, explicit bond order at opening or None)
    open_rings: dict[int, Tuple[int, BondOrder | None]] = {}
    pending_bond: BondOrder | None = None
    pending_at = 0  # the position of pending_bond's symbol
    seen_bonds: set[Tuple[int, int]] = set()

    def make_bond(a: int, b: int, explicit: BondOrder | None):
        if a == b:
            raise SmilesSyntaxError("ring closure bonds an atom to itself")
        order = explicit
        if order is None:
            if aromatic[a] and aromatic[b]:
                order = BondOrder.AROMATIC
            else:
                order = BondOrder.SINGLE
        key = (min(a, b), max(a, b))
        if key in seen_bonds:
            raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {b}")
        seen_bonds.add(key)
        bonds.append(key)
        orders.append(order)
        degree[a] += 1
        degree[b] += 1

    def attach_atom(symbol: str, formal_charge: int, is_aromatic: bool):
        nonlocal prev, pending_bond
        index = len(element)
        element.append(ELEMENTS.index(symbol))
        charge.append(formal_charge)
        aromatic.append(is_aromatic)
        degree.append(0)
        if prev is not None:
            make_bond(prev, index, pending_bond)
        pending_bond = None
        prev = index

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == ".":
            raise UnsupportedFeatureError("multi-fragment SMILES ('.') not supported")
        if ch in "@/\\*~":
            raise UnsupportedFeatureError(f"unsupported feature '{ch}' at position {i}")
        if ch == "(":
            if prev is None:
                raise SmilesSyntaxError("branch opened before any atom")
            branch_stack.append(prev)
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise UnbalancedParenError(f"unmatched ')' at position {i}")
            if pending_bond is not None:
                raise SmilesSyntaxError(f"bond symbol at position {pending_at} "
                                        f"ends a branch without an atom")
            prev = branch_stack.pop()
            i += 1
            continue
        if ch in _BOND_SYMBOLS:
            if prev is None:
                raise SmilesSyntaxError(f"bond symbol before any atom at position {i}")
            if pending_bond is not None:
                raise SmilesSyntaxError(f"two consecutive bond symbols at position {i}")
            pending_bond, pending_at = _BOND_SYMBOLS[ch], i
            i += 1
            continue
        if ch.isdigit() or ch == "%":
            if prev is None:
                raise SmilesSyntaxError("ring closure before any atom")
            if ch == "%":
                if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                    raise SmilesSyntaxError(f"malformed %nn ring closure at position {i}")
                num = int(text[i + 1 : i + 3])
                i += 3
            else:
                num = int(ch)
                i += 1
            if num in open_rings:
                other, open_order = open_rings.pop(num)
                if open_order is not None and pending_bond is not None and open_order != pending_bond:
                    raise SmilesSyntaxError(f"conflicting bond orders for ring closure {num}")
                make_bond(prev, other, pending_bond if pending_bond is not None else open_order)
                pending_bond = None
            else:
                open_rings[num] = (prev, pending_bond)
                pending_bond = None
            continue
        if ch == "[":
            *atom, i = _reference_bracket_atom(text, i)
            attach_atom(*atom)
            continue
        # organic subset atom, two-letter first
        sym = text[i : i + 2]
        if sym in ("Cl", "Br"):
            attach_atom(sym, 0, False)
            i += 2
            continue
        if ch in ELEMENTS:
            attach_atom(ch, 0, False)
            i += 1
            continue
        if ch in AROMATIC_ELEMENTS:
            attach_atom(ch.upper(), 0, True)
            i += 1
            continue
        raise SmilesSyntaxError(f"illegal token '{ch}' at position {i}")

    if branch_stack:
        raise UnbalancedParenError(f"{len(branch_stack)} unclosed '(' in input")
    if open_rings:
        raise RingUnclosedError(f"dangling ring closure digit(s): {sorted(open_rings)}")
    if pending_bond is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if not element:
        raise SmilesSyntaxError("no atoms parsed")
    return MolecularGraph(
        np.array(element, dtype=np.intp), np.array(charge, dtype=np.int32),
        np.array(aromatic, dtype=bool), np.array(degree, dtype=np.intp),
        np.array(bonds, dtype=np.intp).reshape(-1, 2), np.array(orders, dtype=np.intp))
