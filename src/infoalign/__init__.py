"""Molecular representation pretraining from cellular-context graphs.

Pipeline: parse SMILES into molecular graphs, fingerprint them, assemble a
weighted heterogeneous context graph, sample weighted random walks, pretrain
a variational GIN encoder with per-modality decoders, then evaluate by
probing, zero-shot matching, and mutual-information bound benchmarks.
"""

from .errors import InfoAlignError
from .molparse import MolecularGraph, MoleculeSet, parse_many, parse_smiles, read_smiles_file
from .fingerprint import morgan_fingerprint
from .ctxgraph import (
    ContextGraph,
    NodeKind,
    NodeRecord,
    Relation,
    build_graph_from_tables,
    min_max_scale,
)
from .walker import WalkBatch, WalkConfig, WalkPath, batch_walks
from .model import (
    ModelConfig,
    TrainState,
    embed,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .mibounds import (
    JointTable,
    gaussian_mi,
    i_dlb,
    i_eub,
    i_nce,
    i_nwj,
    prop1_report,
    true_mi,
)
from .evalkit import (
    LabeledSet,
    auc,
    hit_at_k,
    mae,
    match_zero_shot,
    ndcg_at_k,
    probe_eval,
    probe_train,
    split_random,
)

__version__ = "0.1.0"

__all__ = [
    "InfoAlignError",
    "MolecularGraph", "MoleculeSet", "parse_many", "parse_smiles", "read_smiles_file",
    "morgan_fingerprint",
    "ContextGraph", "NodeKind", "NodeRecord", "Relation",
    "build_graph_from_tables", "min_max_scale",
    "WalkBatch", "WalkConfig", "WalkPath", "batch_walks",
    "ModelConfig", "TrainState", "embed",
    "load_checkpoint", "pretrain", "save_checkpoint",
    "JointTable", "gaussian_mi", "i_dlb", "i_eub", "i_nce", "i_nwj",
    "prop1_report", "true_mi",
    "LabeledSet", "auc", "hit_at_k", "mae", "match_zero_shot", "ndcg_at_k",
    "probe_eval", "probe_train", "split_random",
]
