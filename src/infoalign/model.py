"""Encoder/decoder stack and training loss.

A GIN message-passing encoder maps a molecular graph, read straight from the
parser's atom and bond arrays, to a diagonal-Gaussian latent (mu,
log-variance); per-modality MLP decoders reconstruct the [0,1]
feature vectors of nodes visited by a context-graph walk. There is one decoder
per (node kind, feature dimension), and its parameters, `dec.<kind>.<dim>.*`,
are the only record of which decoders a model has. The loss averages
the alpha-weighted reconstruction NLLs over the path length and adds a
beta-weighted KL to the standard-normal prior. The start molecule's own
fingerprint is always a target with alpha = 1.

Training evaluates a whole minibatch in one tape (`batch_loss`): the start
molecules are gathered from the graph's parsed `MoleculeSet` and encoded
together as one block-diagonal graph (`encode_union`, one `dc.gin_layer`
node per layer), and every target of one (kind, dim) is taken by index from
the graph's matrix of that (kind, dim) and decoded as one matrix, by
`decode_nll`, into one `dc.decode_group` node per group. One `dc.add_n` node
adds the groups' terms to the KL term. At the benchmark's recovery
configuration a step's tape holds 18 nodes. `dc.decode_group` is the
package's one NLL: the evaluation probe fits its head through it too.
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

# Atoms per `embed` block. A block's tape keeps every activation of its
# atoms, so time and peak memory go by atoms, not molecules. Measured on 2
# cores (numpy 2.4.6, OpenBLAS) with 30-s evaluate benchmark runs (1000
# molecules of 11.5 atoms, seeds 3 and 4): pipeline_rel 5.93-5.96 at 128
# atoms, 5.05-5.22 at 192 and 4.83-5.25 at 256; peak RSS 47.4-47.7,
# 47.4-47.6 and 47.9-48.0 MiB, where blocks of 16 molecules (184 atoms)
# gave 47.1-47.4. In-process `embed` of 200 recovery molecules (37.6 atoms)
# took 27-29 ms at 128-192 atoms, 25 ms at 256, and 32 ms at 384 and at
# 608, the size of a block of 16 of them.
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
    """Where pretraining stands: the epochs trained and the Philox
    `bit_generator.state` of the "shuffle" and "noise" generators after them,
    as JSON (int lists for the uint64 arrays). None draws fresh from the seed."""

    epoch: int = 0
    streams: Optional[Dict[str, dict]] = None


@dataclass
class EncoderOutput:
    mu: dc.Tensor      # shape (molecules, D)
    logvar: dc.Tensor  # shape (molecules, D), clamped to [-10, 10]


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
    """Sorted (kind, dim) of the store's `dec.<kind>.<dim>.*` parameters."""
    keys = set()
    for name in store.params:
        if name.startswith("dec."):
            _, kind, dim, _ = name.split(".")
            keys.add((kind, int(dim)))
    return sorted(keys)


def decoder_prefix(params: Mapping[str, object], kind: NodeKind, dim: int) -> str:
    """`dec.<kind>.<dim>`; NoDecoderError if `params` has no such decoder."""
    key = (kind.value, int(dim))
    prefix = f"dec.{key[0]}.{key[1]}"
    if f"{prefix}.w0" not in params:
        raise NoDecoderError(f"no decoder registered for {key}")
    return prefix


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


def _infer_num_layers(bound: Dict[str, dc.Tensor]) -> int:
    n = 0
    while f"gin.l{n}.w0" in bound:
        n += 1
    return n


def atom_features(g: MolecularGraph) -> np.ndarray:
    """One-hot encoder inputs of the atoms of `g`: element, charge clipped
    to [-2, 2], aromatic flag and degree clipped to 5."""
    rows = np.arange(len(g.element))
    x = np.zeros((len(rows), ATOM_FEATURE_DIM))
    x[rows, g.element] = 1.0
    x[rows, _CHARGE_BASE + 2 + np.clip(g.charge, -2, 2)] = 1.0
    x[rows, _AROMATIC_COL] = g.aromatic
    x[rows, _DEGREE_BASE + np.minimum(g.degree, 5)] = 1.0
    return x


def encode_union(g: MolecularGraph, segment: np.ndarray, count: int,
                 bound: Dict[str, dc.Tensor]) -> EncoderOutput:
    """Sum-readout GIN encoder over the `count` molecules laid out as the one
    graph `g`, atom i belonging to molecule segment[i]; row k is molecule k.

    Per layer: h_v <- MLP(h_v + sum_{u in N(v)} (h_u + bond_embed(uv))),
    i.e. the (1 + eps) factor with eps fixed at 0. Each bond a-b gives the
    messages a->b then b->a, and the readout sums each molecule's atom rows.
    The depth is the number of `gin.l<n>` layers in `bound`.
    """
    n = len(g.element)
    # The row indexes are built once; every layer and both passes share them.
    into = dc.RowIndex(g.bonds[:, ::-1].ravel(), n)
    # Messages 2j and 2j + 1 carry one bond both ways, so a position's
    # partner (XOR 1) turns each atom's incoming messages into its outgoing.
    out_of = dc.RowIndex(g.bonds.ravel(), n, positions=into.positions() ^ 1)
    bond_type = dc.RowIndex(np.repeat(g.order, 2), NUM_BOND_TYPES)
    h = dc.matmul(dc.constant(atom_features(g)), bound["atom_embed"])
    for layer in range(_infer_num_layers(bound)):
        h = dc.gin_layer(h, bound[f"bond_embed.l{layer}"],
                         dc.mlp_layers(bound, f"gin.l{layer}"), out_of, into, bond_type)
    readout = dc.scatter_add_rows(h, dc.RowIndex(segment, count))
    mu = dc.mlp_forward(bound, "head_mu", readout)
    logvar = dc.clip(dc.mlp_forward(bound, "head_logvar", readout),
                     -LOGVAR_CLAMP, LOGVAR_CLAMP)
    return EncoderOutput(mu, logvar)


def gin_encode(g: MolecularGraph, bound: Dict[str, dc.Tensor]) -> EncoderOutput:
    """`encode_union` of one molecule: mu and logvar of shape (1, D). Nothing
    in the package calls it: it stays because perfbench/tracer.py wraps this
    name."""
    return encode_union(g, np.zeros(len(g.element), dtype=np.intp), 1, bound)


def reparameterize(out: EncoderOutput, noise) -> dc.Tensor:
    """z = mu + exp(logvar / 2) * noise, with noise of mu's shape."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != out.mu.shape:
        raise ShapeMismatchError(f"noise {noise.shape} vs mu {out.mu.shape}")
    return dc.gaussian_sample(out.mu, out.logvar, noise)


def kl_standard_normal(out: EncoderOutput) -> dc.Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)), summed over dimensions and rows."""
    return dc.gaussian_kl(out.mu, out.logvar)


def _squared_error(likelihood: str) -> bool:
    """Whether `likelihood` scores by squared error (gaussian) rather than
    BCE (bernoulli); ValueError for any other name."""
    if likelihood not in ("bernoulli", "gaussian"):
        raise ValueError(f"unknown likelihood {likelihood!r}")
    return likelihood == "gaussian"


def decode_nll(z: dc.Tensor, targets: np.ndarray, kind: NodeKind,
               bound: Dict[str, dc.Tensor], rows, weight: np.ndarray,
               likelihood: str = "bernoulli") -> Tuple[dc.Tensor, np.ndarray]:
    """The weighted NLL, summed, of the target rows under the decoder of
    `kind` and their width, as one `dc.decode_group` node, and the NLL of
    every target entry. Target row i is decoded from row rows[i] of z and
    weighted by weight[i]. The NLL is the Bernoulli one (BCE on the logits,
    the [0,1]-scaled features as soft labels) or the Gaussian one (a
    unit-variance squared error on the linear outputs); any other
    `likelihood` raises ValueError."""
    y = np.asarray(targets, dtype=np.float64)
    layers = dc.mlp_layers(bound, decoder_prefix(bound, kind, y.shape[1]))
    return dc.decode_group(z, rows, layers, y, weight, _squared_error(likelihood))


def infoalign_loss(graph: ContextGraph, walk: WalkBatch,
                   bound: Dict[str, dc.Tensor], beta: float, noise,
                   likelihood: str = "bernoulli") -> Tuple[dc.Tensor, LossBreakdown]:
    """`batch_loss` of the one-walk batch `walk`, with noise of shape
    (1, latent_dim). Nothing in the package calls it: it stays because
    perfbench/tracer.py wraps this name."""
    return batch_loss(graph, [walk.ids[walk.nodes[0, 0]]], walk, bound, beta, noise, likelihood)


def batch_loss(graph: ContextGraph, starts: Sequence[str], paths: WalkBatch,
               bound: Dict[str, dc.Tensor], beta: float, noise,
               likelihood: str = "bernoulli") -> Tuple[dc.Tensor, LossBreakdown]:
    """Mean over `starts` of the mean walk loss of each one's walks.

    A walk's loss is (1/L) * sum over its targets of alpha * NLL + beta * KL,
    where L is the walk's node count and the targets are the start molecule's
    own features (alpha = 1) plus every walked node with its cumulative path
    weight. `paths`, a `WalkBatch` of this graph, holds the same number of
    walks per start, grouped in starts order, and `noise` one row per path.
    The whole batch is one tape: the start molecules are gathered from
    `graph.molecules()` and encoded once, together, and the targets of one
    (kind, dim), in walk order, are taken from the graph's matrix of it and
    decoded as one matrix, each row weighted by alpha / (L * walks per start
    * starts); the groups go in the order they first appear, and their terms
    are added to the KL term in that order. The breakdown holds the same
    batch means.
    """
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
    # Every target, walk by walk: its walk, node and alpha, and its (kind, dim).
    walk, step = np.nonzero(np.arange(paths.nodes.shape[1]) < paths.sizes[:, None])
    nodes = paths.nodes[walk, step]
    alphas = np.hstack([np.ones((len(paths), 1)), paths.alphas])[walk, step]
    kinds = graph.kinds()[nodes]
    dims, rows, matrices = graph.features()
    _keys, first, group = np.unique(dims[nodes] * len(KINDS) + kinds, return_index=True,
                                    return_inverse=True)
    batch = mols.take([row[s] for s in starts])
    out = encode_union(*batch.block(0, len(starts)), len(starts), bound)
    walk_mol = dc.RowIndex(np.repeat(np.arange(len(starts)), per_mol), len(starts))
    z = reparameterize(EncoderOutput(dc.gather_rows(out.mu, walk_mol),
                                     dc.gather_rows(out.logvar, walk_mol)), noise)
    kl = kl_standard_normal(out)
    # The running total is one node after the groups' nodes: a group node
    # that added its term to the total so far would depend on the group
    # before it, and backward, which runs a later node first, would then
    # add the groups' gradients into z last group first.
    terms = [dc.mul(kl, dc.constant(beta / len(starts)))]

    scale = 1.0 / len(paths)
    recon: Dict[str, float] = {}
    recon_total = 0.0
    for g in np.argsort(first):
        sel = np.flatnonzero(group == g)
        kind = KINDS[kinds[sel[0]]]
        alpha = alphas[sel]
        weight = alpha * scale / paths.sizes[walk[sel]]
        feats = matrices[kind, int(dims[nodes[sel[0]]])][rows[nodes[sel]]]
        term, nll = decode_nll(z, feats.astype(np.float64), kind, bound, walk[sel],
                               weight, likelihood)
        terms.append(term)
        recon[kind.value] = recon.get(kind.value, 0.0) + float(alpha @ nll.sum(axis=1)) * scale
        recon_total += term.item()
    kl_mean = kl.item() / len(starts)
    return dc.add_n(terms), LossBreakdown(recon, kl_mean, beta, recon_total + beta * kl_mean)


# --- training ----------------------------------------------------------------

def pretrain(graph: ContextGraph, cfg: ModelConfig, store: Optional[dc.ParamStore] = None,
             log_fn=None, state: Optional[TrainState] = None,
             ) -> Tuple[dc.ParamStore, List[LossBreakdown]]:
    """Joint encoder/decoder optimization over all molecule nodes.

    Epochs iterate molecules in a seeded shuffled order and sample
    walks_per_molecule walks from each (`cfg.walks(epoch)`). Each minibatch is
    one `batch_loss` tape, one backward pass and one Adam step on the mean over
    its molecules of each molecule's mean walk loss; the reparameterization
    noise is one (walks, latent_dim) draw per minibatch. Passing a store and its
    `state` resumes training: the Adam step, the epoch index and the
    generators continue, and `state` advances in place by cfg.epochs. A new
    store gets one decoder per featured (kind, dim) of the graph. Every
    featured (kind, dim) of the graph needs a decoder in the store, or
    NoDecoderError is raised before any step. The graph's molecules are
    parsed together before the first step (`ContextGraph.molecules`), so a
    bad SMILES raises its SmilesError, naming the node, before any step too.
    A non-finite loss or gradient (checked once a step, by `backward` and
    `ParamStore.accumulate`) raises FloatingPointError naming the epoch and
    the batch. `log_fn(epoch, breakdown)`, if given, is called as each
    epoch ends, with the epoch numbered over resumes. Returns the store and
    the per-epoch mean loss breakdowns.
    """
    needed = feature_keys(graph)
    if store is None:
        store = dc.ParamStore(seed=cfg.seed)
        init_model(store, cfg, needed)
    decoders = decoder_keys(store)
    for key in needed:
        if key not in decoders:
            raise NoDecoderError(f"graph nodes of kind {key[0]!r} with {key[1]} features "
                                 f"have no decoder; decoders: {decoders}")

    mols = graph.molecule_ids()
    if not mols:
        raise ValueError("graph has no molecule nodes")
    graph.molecules()
    state = TrainState() if state is None else state
    rngs = {"shuffle": dc.seeded_rng(cfg.seed, _SHUFFLE_STREAM),
            "noise": dc.seeded_rng(cfg.seed, _NOISE_STREAM)}
    for name, saved in (state.streams or {}).items():
        rngs[name].bit_generator.state = saved
    per_mol = cfg.walks_per_molecule

    epoch_logs: List[LossBreakdown] = []
    for epoch in range(state.epoch, state.epoch + cfg.epochs):
        order = [mols[i] for i in rngs["shuffle"].permutation(len(mols))]
        walks = batch_walks(graph, order, cfg.walks(epoch))

        sums: Dict[str, float] = {}
        kl_sum = 0.0
        total_sum = 0.0
        for b0 in range(0, len(order), cfg.batch_size):
            batch = order[b0 : b0 + cfg.batch_size]
            paths = walks[b0 * per_mol : (b0 + len(batch)) * per_mol]
            noise = rngs["noise"].standard_normal((len(paths), cfg.latent_dim))
            # A diverging step is reported once, by the finiteness check on
            # the loss, not by numpy's warnings from the ops before it.
            with np.errstate(over="ignore", invalid="ignore"):
                bound = store.bind()
                loss, br = batch_loss(graph, batch, paths, bound, cfg.beta, noise,
                                      cfg.likelihood)
                try:
                    loss.backward()
                    store.accumulate(bound)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"{exc} in epoch {epoch}, "
                                             f"batch {b0 // cfg.batch_size}") from None
                dc.adam_step(store, lr=cfg.lr)
            for kind, v in br.recon_per_modality.items():
                sums[kind] = sums.get(kind, 0.0) + v * len(batch)
            kl_sum += br.kl * len(batch)
            total_sum += br.total * len(batch)
        n = len(order)
        epoch_br = LossBreakdown({k: v / n for k, v in sums.items()}, kl_sum / n, cfg.beta,
                                 total_sum / n)
        epoch_logs.append(epoch_br)
        if log_fn is not None:
            log_fn(epoch, epoch_br)
    state.epoch += cfg.epochs
    state.streams = {name: json.loads(json.dumps(rng.bit_generator.state,
                                                 default=np.ndarray.tolist))
                     for name, rng in rngs.items()}
    return store, epoch_logs


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

    The set is encoded in blocks of about `_EMBED_ATOMS` atoms through
    `encode_union`, never a block of one molecule: a 1-row product goes
    through BLAS gemv, whose last bits can differ from the gemm rows of a
    larger block, so a lone last molecule joins the block before it and a
    one-molecule set is encoded beside a copy of itself. Raises
    FloatingPointError if a row is not finite.
    """
    n = len(molecules)
    if n == 0:
        return np.zeros((0, store.params["head_mu.w0"].shape[1]))
    if n == 1:
        molecules = molecules.take([0, 0])
    bound = store.bind()
    blocks = [encode_union(*molecules.block(lo, hi), hi - lo, bound).mu.data
              for lo, hi in _embed_blocks(molecules.atom_start, _EMBED_ATOMS)]
    return dc.require_finite(np.concatenate(blocks)[:n], "embedding")


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
    if not current or "streams" not in manifest:
        raise CorruptFileError(f"{path}: not a checkpoint of this version (its manifest "
                               f"keys are {sorted(manifest)}); pretrain it again")
    cfg = ModelConfig(**model)
    return store, cfg, TrainState(cfg.epochs, manifest["streams"])
