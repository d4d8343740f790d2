"""Encoder/decoder stack and training step.

A GIN message-passing encoder maps a molecular graph, read straight from the
parser's atom and bond arrays, to a diagonal-Gaussian latent (mu,
log-variance); per-modality MLP decoders reconstruct the [0,1]
feature vectors of nodes visited by a context-graph walk. There is one decoder
per (node kind, feature dimension), and its parameters are the only record
of which decoders a model has. The loss averages the alpha-weighted
reconstruction NLLs over the path length and adds a beta-weighted KL to the
standard-normal prior. The start molecule's own fingerprint is always a
target with alpha = 1.

`init_model` names the parameters and `Net.of` alone reads the names back,
binding a store's parameters, or its gradient slots, into one table of
arrays by role; the encoder, the decoders and the step take tables.

The encoder reads its molecules in one layout, `AtomGraph`: a `MoleculeSet`
cut into blocks of whole molecules, each block one block-diagonal graph,
with the row indexes of every block's messages and readout cut from one sort
per index (`dc.RowIndex.blocks`). `encode_union` runs the encoder's forward
pass over one block, keeping the activations its backward pass reads.
Training cuts at its minibatches, `embed` at blocks of about `_EMBED_ATOMS`
atoms, and `gin_encode` lays out one molecule as one block.

Before an epoch's first step its batches are laid out once, as one
`EpochPlan` of index arrays: the epoch's molecules are gathered from the
graph's parsed `MoleculeSet` in one `take` and laid out as an `AtomGraph`,
the row indexes of every batch's walks and decoded groups are cut by
`dc.RowIndex.blocks` too, and the targets are ordered so that each
(kind, dim) group of a batch is one slice. A step (`train_step`) only
slices the plan: it encodes the batch's molecules together, block b of the
plan's `AtomGraph`, draws the reparameterized sample, and decodes the
targets of each (kind, dim), taken by index from the graph's matrix of it,
as one matrix, by `decode_nll`. Both terms are in closed form, the KL rate
(Alemi et al. 2017, arXiv 1612.00410) and each group's NLL, so the step
runs its backward pass by hand, in the order the define-by-run tape of
`tests/oracles.py` ran it, and gives the tape's gradients bit for bit.
`dc.Decoded` is the package's one NLL: the evaluation probe fits its head
through it too.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import diffcore as dc
from .ctxgraph import KINDS, ContextGraph, NodeKind
from .errors import CorruptFileError, NoDecoderError, PathMismatchError, ShapeMismatchError
from .molparse import ELEMENTS, BondOrder, MolecularGraph, MoleculeSet
from .walker import WalkBatch, WalkConfig, batch_walks

ATOM_FEATURE_DIM = len(ELEMENTS) + 5 + 1 + 6  # element, charge in [-2,2], aromatic, degree 0-5
_CHARGE_BASE = len(ELEMENTS)
_AROMATIC_COL = _CHARGE_BASE + 5
_DEGREE_BASE = _AROMATIC_COL + 1
NUM_BOND_TYPES = len(BondOrder)

LOGVAR_CLAMP = 10.0
LOGVAR_INIT = -4.0

# RNG stream offsets; walk streams use small start indices, so these stay clear.
_SHUFFLE_STREAM = 1 << 40
_NOISE_STREAM = (1 << 40) + 1

# Atoms per `embed` block. A block's forward pass keeps every activation of
# its atoms, so time and peak memory go by atoms, not molecules. Measured on
# 2 cores (numpy 2.4.6, OpenBLAS) with 30-s evaluate benchmark runs (1000
# molecules of 11.5 atoms, seeds 3 and 4), when each block was laid out on
# its own: pipeline_rel 5.93-5.96 at 128 atoms, 5.05-5.22 at 192 and
# 4.83-5.25 at 256; peak RSS 47.4-47.7, 47.4-47.6 and 47.9-48.0 MiB, where
# blocks of 16 molecules (184 atoms) gave 47.1-47.4. With the array forward
# pass, in-process `embed` (min of 7 runs, 2026-10-22, two runs each) of
# the evaluate seed-1 set took 20.4-25.2 ms at 128 atoms, 17.1-17.9 at 192,
# 15.5-15.7 at 256 and 14.1-14.3 at 384; of the 200 recovery seed-1
# molecules (37.6 atoms), 12.6-12.9, 10.2-11.2, 10.1-10.4 and 8.7-9.3 ms.
# On a busier host the same day, 192 was no slower than 256. In 4
# alternated 30-s evaluate benchmark pairs (seeds 11-14, 2026-10-22), 256
# against 192 gave pipeline_rel 3.89/3.81/3.66/3.58 against
# 4.00/3.86/3.83/3.90 but peak RSS 48.86/48.66/48.61/48.80 against
# 48.68/48.68/48.57/48.99 MiB, higher in 2 pairs: a larger budget holds
# more atoms' activations at once, so 192 stays.
_EMBED_ATOMS = 192


@dataclass
class ModelConfig:
    """The settings of `pretrain`. `seed` keys the parameter init, the
    shuffle, the reparameterization noise and the walks."""

    latent_dim: int = 64
    num_layers: int = 3
    hidden: int = 128
    decoder_hidden: int = 64
    beta: float = 1e-9
    likelihood: str = "bernoulli"  # or "gaussian"
    fp_radius: int = 2
    fp_bits: int = 1024
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    walk_length: int = 4  # nodes per path, including the start
    walks_per_molecule: int = 2
    uniform: bool = False

    def __post_init__(self):
        for key, low in (("latent_dim", 1), ("hidden", 1), ("decoder_hidden", 1),
                         ("num_layers", 0), ("fp_radius", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        self.walks(0)  # checks the walk length and walks_per_molecule

    def walks(self, epoch: int) -> WalkConfig:
        """The walks of epoch `epoch`, counted over resumes."""
        return WalkConfig(self.walk_length, self.walks_per_molecule,
                          self.seed + 7919 * (epoch + 1), self.uniform)


@dataclass
class TrainState:
    """Where pretraining stands: the epochs trained, the checksum of the
    graph `pretrain` last trained on (None before it runs), and the Philox
    `bit_generator.state` of the "shuffle" and "noise" generators after them,
    as JSON (int lists for the uint64 arrays). None draws fresh from the seed."""

    epoch: int = 0
    streams: Optional[Dict[str, dict]] = None
    graph: Optional[str] = None


@dataclass
class Encoded:
    """The encoder's forward pass over one block: mu and logvar, one row per
    molecule, and the activations its backward pass reads."""

    mu: np.ndarray      # shape (molecules, D)
    logvar: np.ndarray  # shape (molecules, D), clamped to [-10, 10]
    x: np.ndarray       # the atoms' one-hot inputs, as float64
    layers: List[Tuple[np.ndarray, List[np.ndarray]]]  # per GIN layer: its MLP's input, outputs
    readout: np.ndarray
    heads: Tuple[List[np.ndarray], List[np.ndarray]]  # head_mu's and head_logvar's outputs


@dataclass
class LossBreakdown:
    recon_per_modality: Dict[str, float]
    kl: float
    beta: float
    total: float


def feature_keys(graph: ContextGraph) -> List[Tuple[str, int]]:
    """Sorted (kind, dim) of the graph's nodes that have features."""
    return sorted((kind.value, dim) for kind, dim in graph.features()[2] if dim > 0)


def fingerprint_bits(graph: ContextGraph, default: int) -> int:
    """The width of the graph's molecule fingerprints, `default` if no
    molecule has features."""
    return dict(feature_keys(graph)).get(NodeKind.MOLECULE.value, default)


def decoder_keys(store: dc.ParamStore) -> List[Tuple[str, int]]:
    """Sorted (kind, dim) of the store's decoders."""
    return sorted(Net.of(store.params).decoders)


def init_model(store: dc.ParamStore, cfg: ModelConfig, decoders: Sequence[Tuple[str, int]]):
    """Create the encoder and one decoder per (kind, dim) key, in a fixed order."""
    store.add("atom_embed", (ATOM_FEATURE_DIM, cfg.hidden))
    for layer in range(cfg.num_layers):
        store.add(f"bond_embed.l{layer}", (NUM_BOND_TYPES, cfg.hidden))
        dc.init_mlp(store, f"gin.l{layer}", [cfg.hidden, cfg.hidden, cfg.hidden])
    dc.init_mlp(store, "head_mu", [cfg.hidden, cfg.latent_dim])
    dc.init_mlp(store, "head_logvar", [cfg.hidden, cfg.latent_dim])
    # The sum readout scales with atom count, so glorot-sized head weights
    # would start mu large and pin logvar at its clamp, drowning the decoders
    # in posterior noise before they can learn. Start the posterior tight and
    # nearly deterministic instead: small mu weights, logvar fixed at -4.
    store.params["head_mu.w0"] *= 0.1
    store.params["head_logvar.w0"][...] = 0.0
    store.params["head_logvar.b0"][...] = LOGVAR_INIT
    for kind, dim in decoders:
        dc.init_mlp(store, f"dec.{kind}.{dim}", [cfg.latent_dim, cfg.decoder_hidden, dim])


@dataclass(frozen=True)
class Net:
    """The model's arrays by role, read from one name-keyed table, a store's
    `params` or its `grads`, by `of`, the only reader of the names that
    `init_model` writes: `atom_embed`; per GIN layer k, `bond_embed.l<k>`
    and the MLP `gin.l<k>`; the MLPs `head_mu` and `head_logvar`; and one
    MLP `dec.<kind>.<dim>` per decoder, an MLP being its `.w<i>`, `.b<i>`
    pairs (`dc.mlp_layers`).

    A store's tables are fixed views of its flat array: `adam_step` and
    `zero_grads` write into them in place, a backward pass adds into them
    in place, and only adding parameters (`init_model`, `load_params`)
    moves them. A Net built after that stays bound for the store's life, so
    a run builds one per table and a step reaches every array by role.
    """

    atom_embed: np.ndarray
    gin: List[Tuple[np.ndarray, dc.Layers]]  # per GIN layer: its bond embedding and MLP
    head_mu: dc.Layers
    head_logvar: dc.Layers
    decoders: Dict[Tuple[str, int], dc.Layers]  # (kind, dim) -> layers, in sorted order

    @classmethod
    def of(cls, table: Mapping[str, np.ndarray]) -> "Net":
        depth = 0
        while f"gin.l{depth}.w0" in table:
            depth += 1
        keys = set()
        for name in table:
            if name.startswith("dec."):
                _, kind, dim, _ = name.split(".")
                keys.add((kind, int(dim)))
        return cls(table["atom_embed"],
                   [(table[f"bond_embed.l{k}"], dc.mlp_layers(table, f"gin.l{k}"))
                    for k in range(depth)],
                   dc.mlp_layers(table, "head_mu"), dc.mlp_layers(table, "head_logvar"),
                   {key: dc.mlp_layers(table, f"dec.{key[0]}.{key[1]}") for key in sorted(keys)})

    def decoder(self, kind: NodeKind, dim: int) -> dc.Layers:
        """The layers of the decoder of `kind` and width `dim`; NoDecoderError
        if there is none."""
        key = (kind.value, int(dim))
        if key not in self.decoders:
            raise NoDecoderError(f"no decoder registered for {key}")
        return self.decoders[key]


def atom_features(g: MolecularGraph) -> np.ndarray:
    """One-hot encoder inputs of the atoms of `g`, as a bool matrix:
    element, charge clipped to [-2, 2], aromatic flag and degree clipped to
    5. The encoder reads them as 0.0 and 1.0."""
    rows = np.arange(len(g.element))
    x = np.zeros((len(rows), ATOM_FEATURE_DIM), dtype=bool)
    x[rows, g.element] = True
    x[rows, _CHARGE_BASE + 2 + np.clip(g.charge, -2, 2)] = True
    x[rows, _AROMATIC_COL] = g.aromatic
    x[rows, _DEGREE_BASE + np.minimum(g.degree, 5)] = True
    return x


@dataclass(frozen=True)
class AtomGraph:
    """Molecules laid out as the encoder reads them, cut into blocks of
    whole molecules, the block-diagonal batches of PyG. It holds each atom's
    one-hot inputs (`atom_features`); the atom bounds, block k being atoms
    atom_bounds[k]:atom_bounds[k + 1]; and each block's row indexes,
    counted from its first atom and its first molecule: of the two messages
    of each bond a-b, a -> b then b -> a, the atom each goes into, the atom
    it comes out of and its bond type, and the readout's molecule of each
    atom. `blocks` lays them out; `embed`, `EpochPlan` and `gin_encode` all
    read their molecules through it.
    """

    x: np.ndarray
    atom_bounds: List[int]
    into: List[dc.RowIndex]
    out_of: List[dc.RowIndex]
    bond_type: List[dc.RowIndex]
    readout: List[dc.RowIndex]

    @classmethod
    def blocks(cls, molecules: MoleculeSet, bounds) -> "AtomGraph":
        """`molecules` cut into blocks, block k being molecules
        bounds[k]:bounds[k + 1], with bounds running from 0 to the set's
        length. Each row index is cut by `dc.RowIndex.blocks` from one sort
        over every block."""
        bounds = np.asarray(bounds, dtype=np.intp)
        count = np.diff(bounds)
        g = molecules.graph
        atom_bounds = molecules.atom_start[bounds]
        messages = 2 * molecules.bond_start[bounds]
        atoms = np.diff(atom_bounds)
        # each bond's ends, and each molecule, counted from its block's first
        ends = g.bonds - np.repeat(atom_bounds[:-1], np.diff(messages) // 2)[:, None]
        mol = np.arange(len(molecules)) - np.repeat(bounds[:-1], count)
        return cls(atom_features(g), atom_bounds.tolist(),
                   dc.RowIndex.blocks(ends[:, ::-1].ravel(), atoms, messages),
                   dc.RowIndex.blocks(ends.ravel(), atoms, messages),
                   dc.RowIndex.blocks(np.repeat(g.order, 2),
                                      np.full(len(count), NUM_BOND_TYPES), messages),
                   dc.RowIndex.blocks(np.repeat(mol, np.diff(molecules.atom_start)), count,
                                      atom_bounds))


def encode_union(atoms: AtomGraph, b: int, net: Net) -> Encoded:
    """Sum-readout GIN encoder over the molecules of block b of `atoms`,
    laid out as one graph; row k is the block's molecule k.

    Per layer: h_v <- MLP(h_v + sum_{u in N(v)} (h_u + bond_embed(uv))),
    i.e. the (1 + eps) factor with eps fixed at 0. Every layer and both
    passes share the block's row indexes, and the readout sums each
    molecule's atom rows. The depth is that of `net.gin`. With no messages
    in the block, a layer is MLP(h).
    """
    a0, a1 = atoms.atom_bounds[b : b + 2]
    into, out_of, bond_type, readout = (atoms.into[b], atoms.out_of[b], atoms.bond_type[b],
                                        atoms.readout[b])
    x = atoms.x[a0:a1].astype(np.float64)
    h = x @ net.atom_embed
    layers = []
    for bond, mlp in net.gin:
        if len(into.index):
            msgs = h[out_of.index] + bond[bond_type.index]
            h = into.add_to(np.zeros((into.num_rows,) + msgs.shape[1:]), msgs) + h
        outs = dc.mlp_outputs(h, mlp)
        layers.append((h, outs))
        h = outs[-1]
    pooled = readout.add_to(np.zeros((readout.num_rows,) + h.shape[1:]), h)
    heads = (dc.mlp_outputs(pooled, net.head_mu), dc.mlp_outputs(pooled, net.head_logvar))
    return Encoded(heads[0][-1], np.clip(heads[1][-1], -LOGVAR_CLAMP, LOGVAR_CLAMP), x,
                   layers, pooled, heads)


def _encoder_backward(enc: Encoded, atoms: AtomGraph, b: int, g_mu: np.ndarray,
                      g_logvar: np.ndarray, net: Net, grads: Net):
    """The backward pass of `encode_union(atoms, b, net)` from the gradients
    of its mu and logvar, adding each parameter's gradient into its slot of
    `grads`, the Net of the gradient slots: the clamp's mask, the two heads,
    the readout, the GIN layers last to first (in each, the residual's
    gradient, then the messages' added into it in `out_of`'s order, then the
    bond embedding's), and `atom_embed`. The one-hot inputs get no
    gradient."""
    raw = enc.heads[1][-1]
    g_logvar = g_logvar * ((raw >= -LOGVAR_CLAMP) & (raw <= LOGVAR_CLAMP))
    from_mu, from_logvar = (dc.mlp_backward(g, enc.readout, outs, layers, slots)
                            for g, outs, layers, slots in
                            ((g_mu, enc.heads[0], net.head_mu, grads.head_mu),
                             (g_logvar, enc.heads[1], net.head_logvar, grads.head_logvar)))
    g = (from_mu + from_logvar)[atoms.readout[b].index]
    into, out_of, bond_type = atoms.into[b], atoms.out_of[b], atoms.bond_type[b]
    for (x, outs), (bond, mlp), (g_bond, g_mlp) in reversed(list(zip(enc.layers, net.gin,
                                                                      grads.gin))):
        g = dc.mlp_backward(g, x, outs, mlp, g_mlp)
        if len(into.index):
            g_msgs = g[into.index]
            # g is fresh from the MLP's backward pass, so the messages add into it
            g = out_of.add_to(g, g_msgs)
            g_bond += bond_type.add_to(np.zeros_like(bond), g_msgs)
    grads.atom_embed[...] += enc.x.T @ g


def gin_encode(g: MolecularGraph, params: Mapping[str, np.ndarray]) -> Encoded:
    """`encode_union` of one molecule under the name-keyed `params`: mu and
    logvar of shape (1, D). Nothing in the package calls it: it stays
    because perfbench/tracer.py wraps this name."""
    one = MoleculeSet(g, np.array([0, len(g.element)]), np.array([0, len(g.bonds)]))
    return encode_union(AtomGraph.blocks(one, [0, 1]), 0, Net.of(params))


def _squared_error(likelihood: str) -> bool:
    """Whether `likelihood` scores by squared error (gaussian) rather than
    BCE (bernoulli); ValueError for any other name."""
    if likelihood not in ("bernoulli", "gaussian"):
        raise ValueError(f"unknown likelihood {likelihood!r}")
    return likelihood == "gaussian"


def decode_nll(z: np.ndarray, targets: np.ndarray, kind: NodeKind, net: Net,
               rows: dc.RowIndex, weight, likelihood: str = "bernoulli") -> dc.Decoded:
    """The forward pass of the target rows under the decoder of `net` for
    `kind` and their width, as one `dc.Decoded`: its `term` is the weighted NLL,
    summed, and its `nll` the NLL of every target entry. Target row i is
    decoded from row rows.index[i] of z, `rows` being a RowIndex over z's
    rows, and weighted by weight[i]. The NLL is the Bernoulli one (BCE on
    the logits, the [0,1]-scaled features as soft labels) or the Gaussian
    one (a unit-variance squared error on the linear outputs); any other
    `likelihood` raises ValueError, and a (kind, width) with no decoder
    NoDecoderError."""
    y = np.asarray(targets, dtype=np.float64)
    return dc.Decoded(z[rows.index], net.decoder(kind, y.shape[1]), y, weight,
                      _squared_error(likelihood))


def infoalign_loss(graph: ContextGraph, walk: WalkBatch, params: Mapping[str, np.ndarray],
                   beta: float, noise, likelihood: str = "bernoulli") -> LossBreakdown:
    """The loss breakdown of the one-walk batch `walk` under the name-keyed
    `params`, with noise of shape (1, latent_dim): the forward pass of
    `train_step` on the plan of that batch. Nothing in the package calls
    it: it stays because perfbench/tracer.py wraps this name."""
    plan = EpochPlan(graph, [walk.ids[walk.nodes[0, 0]]], walk, 1)
    return _step_forward(plan, 0, Net.of(params), beta, noise, likelihood)[-1]


class EpochPlan:
    """The batches of one epoch, laid out before its first step.

    `starts` are the epoch's molecules in order and `paths`, a `WalkBatch`
    of `graph`, the same number of walks of each, grouped in starts order;
    batch b is molecules b * batch_size onward, with their walks. A path
    that does not start at its molecule raises PathMismatchError here,
    before any step. The molecules are gathered from `graph.molecules()` in
    one `take`, and the plan holds, as arrays over the whole epoch:
    - `atoms`, their `AtomGraph` cut at the batches;
    - the row index of each batch's walks, cut by `dc.RowIndex.blocks`
      from one sort of the epoch's;
    - every target (the start molecule's own features with alpha = 1, then
      each walked node with its cumulative path weight): its row in the
      graph's matrix of its (kind, dim), its alpha and its weight
      alpha / (L * walks in the batch), L being its walk's node count.
    The targets go by batch, then by the first appearance of their
    (kind, dim) in the batch, then walk by walk, so each decoded group is one
    slice: `groups[b]` lists batch b's as (kind, dim, first target, end,
    the RowIndex of each target's walk in the batch).
    """

    def __init__(self, graph: ContextGraph, starts: Sequence[str], paths: WalkBatch,
                 batch_size: int):
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
        n = len(starts)
        mol_bounds = np.append(np.arange(0, n, batch_size), n)
        count = np.diff(mol_bounds)
        walks = count * per_mol
        self.molecules, self.walks = count.tolist(), walks.tolist()
        self.atoms = AtomGraph.blocks(mols.take([row[s] for s in starts]), mol_bounds)
        # each walk's molecule, counted from its batch's first
        mol = np.arange(n) - np.repeat(mol_bounds[:-1], count)
        self.walk_mol = dc.RowIndex.blocks(np.repeat(mol, per_mol), count, mol_bounds * per_mol)

        # Every target, walk by walk: its walk, node and alpha, and its
        # (kind, dim) group within its batch, the groups in the order they
        # first appear.
        walk, step = np.nonzero(np.arange(paths.nodes.shape[1]) < paths.sizes[:, None])
        nodes = paths.nodes[walk, step]
        alphas = np.hstack([np.ones((len(paths), 1)), paths.alphas])[walk, step]
        batch = walk // (batch_size * per_mol)
        kinds = graph.kinds()[nodes]
        dims, rows, self.matrices = graph.features()
        key = dims[nodes] * len(KINDS) + kinds
        _keys, first, group = np.unique(batch * (key.max() + 1) + key, return_index=True,
                                        return_inverse=True)
        by_first = np.argsort(first)
        heads = first[by_first]  # each group's first target
        bounds = np.append(0, np.cumsum(np.bincount(group)[by_first]))
        order = np.argsort(first[group], kind="stable")
        walk, batch = walk[order], batch[order]
        self.alpha = alphas[order]
        self.feature_row = rows[nodes[order]]
        self.weight = self.alpha * (1.0 / walks[batch]) / paths.sizes[walk]
        group_batch = batch[bounds[:-1]]
        targets = dc.RowIndex.blocks(walk - batch * (batch_size * per_mol), walks[group_batch],
                                     bounds)
        spec = list(zip([KINDS[k] for k in kinds[heads].tolist()], dims[nodes[heads]].tolist(),
                        bounds[:-1].tolist(), bounds[1:].tolist(), targets))
        cuts = np.searchsorted(group_batch, np.arange(len(count) + 1)).tolist()
        self.groups = [spec[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def _step_forward(plan: EpochPlan, b: int, net: Net, beta: float, noise, likelihood: str):
    """The forward pass of `train_step`: (encoder pass, exp(logvar), the
    sample's std, the noise, the decoded groups, the loss, its breakdown)."""
    n = plan.molecules[b]
    enc = encode_union(plan.atoms, b, net)
    walk_mol = plan.walk_mol[b].index
    mu, logvar = enc.mu[walk_mol], enc.logvar[walk_mol]
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != mu.shape:
        raise ShapeMismatchError(f"noise {noise.shape} vs mu {mu.shape}")
    std = dc.clamped_exp(logvar * 0.5)
    z = mu + std * noise
    e = dc.clamped_exp(enc.logvar)
    kl = (((enc.mu * enc.mu + e) + -enc.logvar) + -1.0).sum() * 0.5
    loss = kl * (beta / n)

    scale = 1.0 / plan.walks[b]
    recon: Dict[str, float] = {}
    recon_total = 0.0
    decoded = []
    for kind, dim, lo, hi, rows in plan.groups[b]:
        alpha = plan.alpha[lo:hi]
        dec = decode_nll(z, plan.matrices[kind, dim][plan.feature_row[lo:hi]], kind, net, rows,
                         plan.weight[lo:hi], likelihood)
        decoded.append(dec)
        loss = loss + dec.term
        recon[kind.value] = recon.get(kind.value, 0.0) + float(alpha @ dec.nll.sum(axis=1)) * scale
        recon_total += float(dec.term)
    kl_mean = float(kl) / n
    return (enc, e, std, noise, decoded, loss,
            LossBreakdown(recon, kl_mean, beta, recon_total + beta * kl_mean))


def train_step(plan: EpochPlan, b: int, net: Net, grads: Net, beta: float, noise,
               likelihood: str = "bernoulli") -> LossBreakdown:
    """One step on batch b of `plan` under the parameters `net`: the loss,
    the mean over the batch's molecules of the mean walk loss of each one's
    walks, with its gradients added into the zeroed gradient slots `grads`,
    and its breakdown into the same means.

    A walk's loss is (1/L) * sum over its targets of alpha * NLL + beta * KL,
    where L is the walk's node count. `noise` holds one row per walk of the
    batch. The batch's molecules are encoded once, together, and each
    (kind, dim) group of its targets is taken from the graph's matrix of it
    and decoded as one matrix through `decode_nll`, each row weighted as the
    plan weights it; the groups go in the order they first appear, and
    their terms are added to the KL term in that order.

    The backward pass runs in the tape's order, which decides the bits:
    the KL term's two parts into the gradients of mu and logvar; the
    groups into z's, in plan order; the sample; the walks' gathers of mu and
    logvar, added into those gradients; then the encoder. Each parameter
    gets one gradient. Raises FloatingPointError, before any gradient is
    added, if the loss is not finite; the caller checks the gradients.
    """
    enc, e, std, noise, decoded, loss, br = _step_forward(plan, b, net, beta, noise, likelihood)
    dc.require_finite(loss, "loss")
    half = (beta / plan.molecules[b]) * 0.5
    g_mu = half * enc.mu + half * enc.mu
    g_logvar = half * e + (-half)
    g_z = np.zeros(std.shape)
    for (kind, dim, _lo, _hi, rows), dec in zip(plan.groups[b], decoded):
        rows.add_to(g_z, dec.backward(1.0, grads.decoder(kind, dim)))
    walk_mol = plan.walk_mol[b]
    walk_mol.add_to(g_mu, g_z)
    walk_mol.add_to(g_logvar, ((g_z * noise) * std) * 0.5)
    _encoder_backward(enc, plan.atoms, b, g_mu, g_logvar, net, grads)
    return br


# --- training ----------------------------------------------------------------

def pretrain(graph: ContextGraph, cfg: ModelConfig, store: Optional[dc.ParamStore] = None,
             log_fn=None, state: Optional[TrainState] = None,
             ) -> Tuple[dc.ParamStore, List[LossBreakdown]]:
    """Joint encoder/decoder optimization over all molecule nodes.

    Epochs iterate molecules in a seeded shuffled order and sample
    walks_per_molecule walks from each (`cfg.walks(epoch)`). Each epoch is
    laid out once, as an `EpochPlan`, before its first step; each minibatch
    is then one `train_step`, forward and backward, and one Adam step on the
    mean over its molecules of each molecule's mean walk loss; the
    reparameterization noise is one (walks, latent_dim) draw per minibatch.
    A walk that does not start at its molecule raises PathMismatchError
    before its epoch's first step. Passing a store and its
    `state` resumes training: the Adam step, the epoch index and the
    generators continue. `state` advances in place as each epoch ends, so
    it and the store always hold the epochs finished. A new
    store gets one decoder per featured (kind, dim) of the graph. Every
    featured (kind, dim) of the graph needs a decoder in the store, or
    NoDecoderError is raised before any step. The graph's molecules are
    parsed together before the first step (`ContextGraph.molecules`), so a
    bad SMILES raises its SmilesError, naming the node, before any step too.
    A non-finite loss or gradient (each checked once a step) raises
    FloatingPointError naming the epoch and the batch. The parameters and
    gradient slots are bound once, as two `Net` tables, after the store is
    made or passed in, and every step reaches them through the tables.
    `log_fn(epoch, breakdown, store)`, if given, is called as each epoch
    ends, after `state` has advanced, with the epoch numbered over
    resumes. Returns the store and the per-epoch mean loss breakdowns.
    """
    needed = feature_keys(graph)
    if store is None:
        store = dc.ParamStore(seed=cfg.seed)
        init_model(store, cfg, needed)
    net, grads = Net.of(store.params), Net.of(store.grads)
    for key in needed:
        if key not in net.decoders:
            raise NoDecoderError(f"graph nodes of kind {key[0]!r} with {key[1]} features "
                                 f"have no decoder; decoders: {sorted(net.decoders)}")

    mols = graph.molecule_ids()
    if not mols:
        raise ValueError("graph has no molecule nodes")
    graph.molecules()
    state = TrainState() if state is None else state
    rngs = {"shuffle": dc.seeded_rng(cfg.seed, _SHUFFLE_STREAM),
            "noise": dc.seeded_rng(cfg.seed, _NOISE_STREAM)}
    for name, saved in (state.streams or {}).items():
        rngs[name].bit_generator.state = saved

    def finished(epochs: int):
        state.epoch = epochs
        state.graph = graph.checksum()
        state.streams = {name: json.loads(json.dumps(rng.bit_generator.state,
                                                     default=np.ndarray.tolist))
                         for name, rng in rngs.items()}

    finished(state.epoch)  # a run of no epochs records the generators it starts from
    epoch_logs: List[LossBreakdown] = []
    for epoch in range(state.epoch, state.epoch + cfg.epochs):
        order = [mols[i] for i in rngs["shuffle"].permutation(len(mols))]
        walks = batch_walks(graph, order, cfg.walks(epoch))
        # the plan is an argument, so no two epochs' plans are held at once
        epoch_br = _train_epoch(store, net, grads,
                                EpochPlan(graph, order, walks, cfg.batch_size), rngs["noise"],
                                cfg, epoch)
        epoch_logs.append(epoch_br)
        finished(epoch + 1)
        if log_fn is not None:
            log_fn(epoch, epoch_br, store)
    return store, epoch_logs


def _train_epoch(store: dc.ParamStore, net: Net, grads: Net, plan: EpochPlan,
                 noise_rng: np.random.Generator, cfg: ModelConfig, epoch: int) -> LossBreakdown:
    """One `train_step` on the store's tables `net` and `grads`, a check
    that its gradients are finite, and an Adam step per batch of `plan`, in
    order, and the epoch's mean loss breakdown."""
    sums: Dict[str, float] = {}
    kl_sum = 0.0
    total_sum = 0.0
    for b, count in enumerate(plan.molecules):
        noise = noise_rng.standard_normal((plan.walks[b], cfg.latent_dim))
        # A diverging step is reported once, by the finiteness check on
        # the loss, not by numpy's warnings from the ops before it.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                br = train_step(plan, b, net, grads, cfg.beta, noise, cfg.likelihood)
                dc.require_finite(store.flat[1], "leaf gradient")
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} in epoch {epoch}, batch {b}") from None
            dc.adam_step(store, lr=cfg.lr)
        for kind, v in br.recon_per_modality.items():
            sums[kind] = sums.get(kind, 0.0) + v * count
        kl_sum += br.kl * count
        total_sum += br.total * count
    n = sum(plan.molecules)
    return LossBreakdown({k: v / n for k, v in sums.items()}, kl_sum / n, cfg.beta,
                         total_sum / n)


def _embed_blocks(atom_start: np.ndarray, budget: int) -> List[Tuple[int, int]]:
    """The (lo, hi) molecule ranges of `embed`'s blocks over a set of two or
    more molecules with atom offsets `atom_start`: a block takes molecules
    while it holds at most `budget` atoms, but at least two, and a lone last
    molecule joins the block before it."""
    n = len(atom_start) - 1
    blocks = []
    lo = 0
    while lo < n:
        fit = int(np.searchsorted(atom_start, atom_start[lo] + budget, side="right")) - 1
        hi = min(max(fit, lo + 2), n)
        if hi == n - 1:
            hi = n
        blocks.append((lo, hi))
        lo = hi
    return blocks


def embed(store: dc.ParamStore, molecules: MoleculeSet) -> np.ndarray:
    """Deterministic embeddings: the posterior means, one row per molecule.

    The set is laid out once as an `AtomGraph` cut into blocks of about
    `_EMBED_ATOMS` atoms, each encoded by `encode_union`, never a block of
    one molecule: a 1-row product goes through BLAS gemv, whose last bits
    can differ from the gemm rows of a larger block, so a lone last
    molecule joins the block before it and a one-molecule set is encoded
    beside a copy of itself. Raises FloatingPointError if a row is not
    finite.
    """
    net = Net.of(store.params)
    n = len(molecules)
    if n == 0:
        return np.zeros((0, net.head_mu[-1][0].shape[1]))
    if n == 1:
        molecules = molecules.take([0, 0])
    blocks = _embed_blocks(molecules.atom_start, _EMBED_ATOMS)
    atoms = AtomGraph.blocks(molecules, [0] + [hi for _, hi in blocks])
    mu = [encode_union(atoms, b, net).mu for b in range(len(blocks))]
    return dc.require_finite(np.concatenate(mu)[:n], "embedding")


def save_checkpoint(path, store: dc.ParamStore, cfg: ModelConfig, graph: ContextGraph,
                    state: TrainState):
    """Write the store with a manifest of the config, the decoders, the
    graph's checksum and the generator states. The recorded config's
    `epochs` is `state.epoch`: every epoch the parameters have been trained,
    earlier resumes included; its `fp_bits` is the graph's fingerprint width
    and its `fp_radius` the graph's radius, where the graph records one."""
    radius = cfg.fp_radius if graph.fp_radius is None else graph.fp_radius
    dc.save_params(path, store, {
        "model": asdict(replace(cfg, epochs=state.epoch, fp_radius=radius,
                                fp_bits=fingerprint_bits(graph, cfg.fp_bits))),
        "decoders": decoder_keys(store),
        "graph_checksum": graph.checksum(),
        "streams": state.streams,
    })


def load_checkpoint(path) -> Tuple[dc.ParamStore, ModelConfig, TrainState]:
    """The store, config and training state of a `save_checkpoint` file.
    A manifest of another layout raises CorruptFileError naming the file."""
    store, manifest = dc.load_params(path)
    model = manifest.get("model")
    current = isinstance(model, dict) and set(model) == {f.name for f in fields(ModelConfig)}
    if not current or not {"streams", "graph_checksum"} <= manifest.keys():
        raise CorruptFileError(f"{path}: not a checkpoint of this version (its manifest "
                               f"keys are {sorted(manifest)}); pretrain it again")
    cfg = ModelConfig(**model)
    return store, cfg, TrainState(cfg.epochs, manifest["streams"], manifest["graph_checksum"])
