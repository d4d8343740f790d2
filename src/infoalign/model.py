"""Encoder/decoder stack and training loss.

A GIN message-passing encoder maps a molecular graph to a diagonal-Gaussian
latent (mu, log-variance); per-modality MLP decoders reconstruct the [0,1]
feature vectors of nodes visited by a context-graph walk. The loss averages
the alpha-weighted reconstruction NLLs over the path length and adds a
beta-weighted KL to the standard-normal prior. The start molecule's own
fingerprint is always a target with alpha = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diffcore as dc
from .ctxgraph import ContextGraph, NodeKind
from .errors import NoDecoderError, PathMismatchError, ShapeMismatchError
from .molparse import BondOrder, MolecularGraph
from .walker import WalkConfig, WalkPath, batch_walks

_ELEMENT_INDEX = {e: i for i, e in enumerate(("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"))}
_BOND_INDEX = {
    BondOrder.SINGLE: 0,
    BondOrder.DOUBLE: 1,
    BondOrder.TRIPLE: 2,
    BondOrder.AROMATIC: 3,
}
ATOM_FEATURE_DIM = len(_ELEMENT_INDEX) + 5 + 1 + 6  # element, charge in [-2,2], aromatic, degree 0-5
NUM_BOND_TYPES = 4

LOGVAR_CLAMP = 10.0
LOGVAR_INIT = -4.0

# RNG stream offsets; walk streams use small start indices, so these stay clear.
_SHUFFLE_STREAM = 1 << 40
_NOISE_STREAM = (1 << 40) + 1


@dataclass
class ModelConfig:
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
    walk: WalkConfig = field(default_factory=WalkConfig)


@dataclass
class EncoderOutput:
    mu: dc.Tensor      # shape (1, D)
    logvar: dc.Tensor  # shape (1, D), clamped to [-10, 10]

    @property
    def mu_array(self) -> np.ndarray:
        return self.mu.data[0].copy()


@dataclass
class LossBreakdown:
    recon_per_modality: Dict[str, float]
    kl: float
    beta: float
    total: float


def atom_feature_matrix(g: MolecularGraph) -> np.ndarray:
    n = len(g.atoms)
    x = np.zeros((n, ATOM_FEATURE_DIM), dtype=np.float64)
    for a in g.atoms:
        base = 0
        x[a.index, _ELEMENT_INDEX[a.element]] = 1.0
        base += len(_ELEMENT_INDEX)
        charge = int(np.clip(a.formal_charge, -2, 2))
        x[a.index, base + charge + 2] = 1.0
        base += 5
        x[a.index, base] = float(a.aromatic)
        base += 1
        x[a.index, base + min(g.degree(a.index), 5)] = 1.0
    return x


def directed_edges(g: MolecularGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    src, dst, order = [], [], []
    for bond in g.bonds:
        code = _BOND_INDEX[bond.order]
        src += [bond.a, bond.b]
        dst += [bond.b, bond.a]
        order += [code, code]
    return (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
            np.array(order, dtype=np.intp))


class DecoderRegistry:
    """Maps (node kind, feature dimension) to a decoder parameter prefix."""

    def __init__(self):
        self._keys: List[Tuple[str, int]] = []

    def register(self, kind: NodeKind, dim: int):
        key = (kind.value, int(dim))
        if key not in self._keys:
            self._keys.append(key)
            self._keys.sort()

    def keys(self) -> List[Tuple[str, int]]:
        return list(self._keys)

    def prefix(self, kind: NodeKind, dim: int) -> str:
        key = (kind.value, int(dim))
        if key not in self._keys:
            raise NoDecoderError(f"no decoder registered for {key}")
        return f"dec.{key[0]}.{key[1]}"

    @classmethod
    def from_keys(cls, keys: Sequence[Sequence]) -> "DecoderRegistry":
        reg = cls()
        for kind, dim in keys:
            reg.register(NodeKind(kind), dim)
        return reg

    @classmethod
    def from_graph(cls, graph: ContextGraph) -> "DecoderRegistry":
        reg = cls()
        for nid in graph.node_ids():
            rec = graph.node(nid)
            if rec.modality_dim > 0:
                reg.register(rec.kind, rec.modality_dim)
        return reg


def init_model(store: dc.ParamStore, cfg: ModelConfig, registry: DecoderRegistry):
    """Create all encoder/decoder parameters (deterministic order)."""
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
    for kind, dim in registry.keys():
        dc.init_mlp(store, f"dec.{kind}.{dim}", [cfg.latent_dim, cfg.decoder_hidden, dim])


def _infer_num_layers(bound: Dict[str, dc.Tensor]) -> int:
    n = 0
    while f"gin.l{n}.w0" in bound:
        n += 1
    return n


def gin_encode(g: MolecularGraph, bound: Dict[str, dc.Tensor],
               num_layers: Optional[int] = None) -> EncoderOutput:
    """Sum-readout GIN encoder producing the latent Gaussian parameters.

    Per layer: h_v <- MLP(h_v + sum_{u in N(v)} (h_u + bond_embed(uv))),
    i.e. the (1 + eps) factor with eps fixed at 0.
    """
    if num_layers is None:
        num_layers = _infer_num_layers(bound)
    n = len(g.atoms)
    x = dc.constant(atom_feature_matrix(g))
    h = dc.matmul(x, bound["atom_embed"])
    src, dst, order = directed_edges(g)
    for layer in range(num_layers):
        if len(src):
            msgs = dc.add(dc.gather_rows(h, src),
                          dc.gather_rows(bound[f"bond_embed.l{layer}"], order))
            agg = dc.scatter_add_rows(msgs, dst, n)
            h = dc.add(agg, h)
        h = dc.mlp_forward(bound, f"gin.l{layer}", h)
    readout = dc.tsum(h, axis=0, keepdims=True)
    mu = dc.mlp_forward(bound, "head_mu", readout)
    logvar = dc.clip(dc.mlp_forward(bound, "head_logvar", readout),
                     -LOGVAR_CLAMP, LOGVAR_CLAMP)
    return EncoderOutput(mu, logvar)


def reparameterize(out: EncoderOutput, noise) -> dc.Tensor:
    """z = mu + exp(logvar / 2) * noise."""
    noise = np.asarray(noise, dtype=np.float64).reshape(1, -1)
    if noise.shape != out.mu.shape:
        raise ShapeMismatchError(f"noise {noise.shape} vs mu {out.mu.shape}")
    std = dc.exp(dc.mul(out.logvar, dc.constant(0.5)))
    return dc.add(out.mu, dc.mul(std, dc.constant(noise)))


def kl_standard_normal(out: EncoderOutput) -> dc.Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)), summed over dimensions."""
    mu2 = dc.mul(out.mu, out.mu)
    inner = dc.add(dc.add(mu2, dc.exp(out.logvar)), dc.neg(out.logvar))
    return dc.mul(dc.tsum(inner + dc.constant(-1.0)), dc.constant(0.5))


def decode_nll(z: dc.Tensor, target_features: np.ndarray, kind: NodeKind,
               bound: Dict[str, dc.Tensor], registry: DecoderRegistry,
               likelihood: str = "bernoulli") -> dc.Tensor:
    """Negative log-likelihood of one target vector under its decoder.

    Bernoulli treats [0,1]-scaled features as soft labels (per-dimension BCE
    on the decoder logits); the Gaussian alternative is a unit-variance
    squared error on the linear outputs.
    """
    y = np.asarray(target_features, dtype=np.float64).reshape(1, -1)
    prefix = registry.prefix(kind, y.shape[1])
    logits = dc.mlp_forward(bound, prefix, z)
    if logits.shape != y.shape:
        raise ShapeMismatchError(f"decoder output {logits.shape} vs target {y.shape}")
    if likelihood == "bernoulli":
        return dc.tsum(dc.bce_with_logits(logits, y))
    if likelihood == "gaussian":
        diff = dc.add(logits, dc.constant(-y))
        return dc.mul(dc.tsum(dc.mul(diff, diff)), dc.constant(0.5))
    raise ValueError(f"unknown likelihood {likelihood!r}")


def infoalign_loss(graph: ContextGraph, path: WalkPath,
                   bound: Dict[str, dc.Tensor], registry: DecoderRegistry,
                   beta: float, noise,
                   likelihood: str = "bernoulli") -> Tuple[dc.Tensor, LossBreakdown]:
    """Path-reconstruction loss for the molecule at the start of the walk.

    total = (1/L) * sum over targets of alpha * NLL + beta * KL, where L is
    the path node count and the targets are the start molecule's own features
    (alpha = 1) plus every walked node with its cumulative path weight.
    """
    start = graph.node(path.nodes[0])
    if start.kind is not NodeKind.MOLECULE or start.mol is None:
        raise PathMismatchError(f"path must start at a molecule node, got {path.nodes[0]!r}")
    out = gin_encode(start.mol, bound)
    z = reparameterize(out, noise)
    kl = kl_standard_normal(out)

    targets: List[Tuple[np.ndarray, NodeKind, float]] = [
        (start.features.astype(np.float64), start.kind, 1.0)
    ]
    for nid, alpha in path.targets():
        rec = graph.node(nid)
        targets.append((rec.features.astype(np.float64), rec.kind, alpha))

    L = len(path.nodes)
    recon: Dict[str, float] = {}
    weighted_terms: List[dc.Tensor] = []
    for feats, kind, alpha in targets:
        nll = decode_nll(z, feats, kind, bound, registry, likelihood)
        term = dc.mul(nll, dc.constant(alpha))
        weighted_terms.append(term)
        recon[kind.value] = recon.get(kind.value, 0.0) + term.item()

    acc = weighted_terms[0]
    for term in weighted_terms[1:]:
        acc = dc.add(acc, term)
    total = dc.add(dc.mul(acc, dc.constant(1.0 / L)),
                   dc.mul(kl, dc.constant(beta)))
    breakdown = LossBreakdown(
        recon_per_modality=recon,
        kl=kl.item(),
        beta=beta,
        total=sum(recon.values()) / L + beta * kl.item(),
    )
    return total, breakdown


# --- training ----------------------------------------------------------------

def pretrain(graph: ContextGraph, cfg: ModelConfig,
             store: Optional[dc.ParamStore] = None,
             registry: Optional[DecoderRegistry] = None,
             log_fn=None) -> Tuple[dc.ParamStore, DecoderRegistry, List[LossBreakdown]]:
    """Joint encoder/decoder optimization over all molecule nodes.

    Epochs iterate molecules in a seeded shuffled order; each molecule
    contributes the mean loss of its sampled walks, batches average molecule
    losses before one Adam step. Passing an existing store resumes training
    (the step counter continues). Returns per-epoch mean loss breakdowns.
    """
    if registry is None:
        registry = DecoderRegistry.from_graph(graph)
    if store is None:
        store = dc.ParamStore(seed=cfg.seed)
        init_model(store, cfg, registry)

    mols = graph.molecule_ids()
    if not mols:
        raise ValueError("graph has no molecule nodes")
    shuffle_rng = dc.seeded_rng(cfg.seed, _SHUFFLE_STREAM)
    noise_rng = dc.seeded_rng(cfg.seed, _NOISE_STREAM)

    epoch_logs: List[LossBreakdown] = []
    for epoch in range(cfg.epochs):
        order = [mols[i] for i in shuffle_rng.permutation(len(mols))]
        walk_cfg = WalkConfig(
            length=cfg.walk.length,
            walks_per_molecule=cfg.walk.walks_per_molecule,
            seed=cfg.walk.seed + 7919 * (epoch + 1),
            weight_proportional=cfg.walk.weight_proportional,
        )
        walks = batch_walks(graph, order, walk_cfg)
        per_mol = cfg.walk.walks_per_molecule

        sums: Dict[str, float] = {}
        kl_sum = 0.0
        total_sum = 0.0
        for b0 in range(0, len(order), cfg.batch_size):
            batch = order[b0 : b0 + cfg.batch_size]
            for k, mol_id in enumerate(batch):
                idx = (b0 + k) * per_mol
                bound = store.bind()
                mol_terms = []
                for path in walks[idx : idx + per_mol]:
                    noise = noise_rng.standard_normal(cfg.latent_dim)
                    loss, br = infoalign_loss(graph, path, bound, registry,
                                              cfg.beta, noise, cfg.likelihood)
                    mol_terms.append(loss)
                    for kind, v in br.recon_per_modality.items():
                        sums[kind] = sums.get(kind, 0.0) + v / per_mol
                    kl_sum += br.kl / per_mol
                    total_sum += br.total / per_mol
                acc = mol_terms[0]
                for t in mol_terms[1:]:
                    acc = dc.add(acc, t)
                mol_loss = dc.mul(acc, dc.constant(1.0 / per_mol))
                mol_loss.backward()
                store.accumulate(bound, scale=1.0 / len(batch))
            dc.adam_step(store, lr=cfg.lr)
        n = len(order)
        epoch_br = LossBreakdown(
            recon_per_modality={k: v / n for k, v in sums.items()},
            kl=kl_sum / n,
            beta=cfg.beta,
            total=total_sum / n,
        )
        epoch_logs.append(epoch_br)
        if log_fn is not None:
            log_fn(epoch, epoch_br)
    return store, registry, epoch_logs


def embed(store: dc.ParamStore, molecules: Sequence[MolecularGraph]) -> np.ndarray:
    """Deterministic embeddings: the posterior means, one row per input."""
    bound = store.bind()
    rows = [gin_encode(mol, bound).mu_array for mol in molecules]
    return np.stack(rows) if rows else np.zeros((0, 0))


def build_manifest(cfg: ModelConfig, registry: DecoderRegistry,
                   graph: Optional[ContextGraph] = None) -> dict:
    m = {
        "model": {
            "latent_dim": cfg.latent_dim,
            "num_layers": cfg.num_layers,
            "hidden": cfg.hidden,
            "decoder_hidden": cfg.decoder_hidden,
            "beta": cfg.beta,
            "likelihood": cfg.likelihood,
            "fp_radius": cfg.fp_radius,
            "fp_bits": cfg.fp_bits,
            "epochs": cfg.epochs,
            "batch_size": cfg.batch_size,
            "lr": cfg.lr,
            "seed": cfg.seed,
        },
        "walk": asdict(cfg.walk),
        "decoders": registry.keys(),
    }
    if graph is not None:
        m["graph_checksum"] = graph.checksum()
    return m


def config_from_manifest(manifest: dict) -> ModelConfig:
    m = dict(manifest["model"])
    walk = WalkConfig(**manifest["walk"])
    return ModelConfig(walk=walk, **m)


def save_checkpoint(path, store: dc.ParamStore, cfg: ModelConfig,
                    registry: DecoderRegistry, graph: Optional[ContextGraph] = None):
    dc.save_params(path, store, build_manifest(cfg, registry, graph))


def load_checkpoint(path) -> Tuple[dc.ParamStore, ModelConfig, DecoderRegistry]:
    store, manifest = dc.load_params(path)
    cfg = config_from_manifest(manifest)
    registry = DecoderRegistry.from_keys(manifest["decoders"])
    return store, cfg, registry
