"""Synthetic planted-cluster data generator.

Produces node/edge TSV tables (readable by the graph builder) plus a
downstream label table. Each cluster has a small structural motif; molecules
are the motif plus random decoration atoms, so the cluster signal is subtle
at the structure level but strong in the attached profile vectors:
morphology and gene-expression features are cluster centroids plus noise.
Every molecule gets its own morphology and gene-expression node, wired by
perturbation edges. The downstream label is the cluster id.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .diffcore import seeded_rng
from .molparse import parse_many

# Motifs differ by one heteroatom or a small structural feature so that the
# decoration atoms, not the motif, dominate raw structural variance.
DEFAULT_MOTIFS = (
    "CCOCC",
    "CCNCC",
    "C1CCCCC1C",
    "c1ccccc1C",
    "CC(=O)C",
    "CSC",
    "CC#CC",
    "OCCO",
)

_DECORATION_ATOMS = ("C", "C", "C", "O", "N")  # carbon-biased


@dataclass
class SyntheticSpec:
    clusters: int = 2
    per_cluster: int = 100
    noise: float = 0.1
    morph_dim: int = 16
    gexp_dim: int = 16
    seed: int = 0
    motifs: Optional[Sequence[str]] = None
    decoration_min: int = 3
    decoration_max: int = 10

    def __post_init__(self):
        if self.clusters < 2:
            raise ValueError("need at least 2 clusters")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.per_cluster < 1:
            raise ValueError("need at least one molecule per cluster")
        if self.motifs is None:
            self.motifs = [DEFAULT_MOTIFS[c % len(DEFAULT_MOTIFS)]
                           for c in range(self.clusters)]
        if len(self.motifs) != self.clusters:
            raise ValueError("one motif per cluster required")


@dataclass
class SyntheticData:
    node_rows: List[str]    # TSV lines, no newline
    edge_rows: List[str]
    label_rows: List[str]   # molecule_id \t cluster_id
    molecule_ids: List[str]
    smiles: List[str]
    cluster_of: List[int]
    morph_centroids: np.ndarray  # (clusters, morph_dim)


def _decorate(motif: str, rng: np.random.Generator, lo: int, hi: int) -> str:
    n = int(rng.integers(lo, hi + 1))
    parts = [motif]
    for _ in range(n):
        atom = _DECORATION_ATOMS[rng.integers(len(_DECORATION_ATOMS))]
        if rng.random() < 0.2:
            parts.append(f"({atom})")
        else:
            parts.append(atom)
    return "".join(parts)


def generate(spec: SyntheticSpec) -> SyntheticData:
    rng = seeded_rng(spec.seed)
    morph_centroids = rng.uniform(0.1, 0.9, size=(spec.clusters, spec.morph_dim))
    gexp_centroids = rng.uniform(0.1, 0.9, size=(spec.clusters, spec.gexp_dim))

    node_rows: List[str] = []
    edge_rows: List[str] = []
    label_rows: List[str] = []
    molecule_ids: List[str] = []
    smiles_list: List[str] = []
    cluster_of: List[int] = []

    for c in range(spec.clusters):
        motif = spec.motifs[c]
        for m in range(spec.per_cluster):
            idx = c * spec.per_cluster + m
            mol_id = f"mol{idx:04d}"
            smi = _decorate(motif, rng, spec.decoration_min, spec.decoration_max)
            morph = np.clip(
                morph_centroids[c] + spec.noise * rng.standard_normal(spec.morph_dim),
                0.0, 1.0)
            gexp = np.clip(
                gexp_centroids[c] + spec.noise * rng.standard_normal(spec.gexp_dim),
                0.0, 1.0)
            node_rows.append(f"{mol_id}\tmolecule\tsynth\t{smi}")
            node_rows.append(
                f"morph{idx:04d}\tcell_morphology\tsynth\t"
                + "\t".join(f"{v:.8f}" for v in morph))
            node_rows.append(
                f"gexp{idx:04d}\tgene_expression\tsynth\t"
                + "\t".join(f"{v:.8f}" for v in gexp))
            edge_rows.append(f"{mol_id}\tmorph{idx:04d}\tperturbation\t1.0")
            edge_rows.append(f"{mol_id}\tgexp{idx:04d}\tperturbation\t1.0")
            label_rows.append(f"{mol_id}\t{c}")
            molecule_ids.append(mol_id)
            smiles_list.append(smi)
            cluster_of.append(c)

    parse_many(smiles_list)  # self-check: every generated SMILES must parse
    return SyntheticData(node_rows, edge_rows, label_rows, molecule_ids,
                         smiles_list, cluster_of, morph_centroids)


def write_tables(data: SyntheticData, out_dir) -> dict:
    """Write nodes.tsv / edges.tsv / labels.tsv; returns the file paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "nodes": out / "nodes.tsv",
        "edges": out / "edges.tsv",
        "labels": out / "labels.tsv",
    }
    paths["nodes"].write_text("\n".join(data.node_rows) + "\n", encoding="utf-8")
    paths["edges"].write_text("\n".join(data.edge_rows) + "\n", encoding="utf-8")
    paths["labels"].write_text("\n".join(data.label_rows) + "\n", encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}
