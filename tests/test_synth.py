"""Synthetic generator tests: counts, noise behavior, SMILES validity,
determinism, and table round-trips through the graph builder."""

from pathlib import Path

import numpy as np
import pytest

from infoalign.ctxgraph import NodeKind, build_graph_from_tables
from infoalign.molparse import parse_smiles
from infoalign.synth import SyntheticData, SyntheticSpec, generate, write_tables
from tests.oracles import neighbors


def test_counts_two_by_hundred():
    data = generate(SyntheticSpec(clusters=2, per_cluster=100))
    assert len(data.molecule_ids) == 200
    mol_rows = [r for r in data.node_rows if r.split("\t")[1] == "molecule"]
    morph_rows = [r for r in data.node_rows if r.split("\t")[1] == "cell_morphology"]
    gexp_rows = [r for r in data.node_rows if r.split("\t")[1] == "gene_expression"]
    assert len(mol_rows) == 200 and len(morph_rows) == 200 and len(gexp_rows) == 200
    assert len(data.edge_rows) == 400  # one morph + one gexp edge per molecule
    assert len(data.label_rows) == 200
    assert data.cluster_of == [0] * 100 + [1] * 100


def test_noise_zero_same_cluster_identical():
    data = generate(SyntheticSpec(clusters=2, per_cluster=5, noise=0.0,
                                  morph_dim=4, gexp_dim=4))
    morph = {}
    for row in data.node_rows:
        cols = row.split("\t")
        if cols[1] == "cell_morphology":
            idx = int(cols[0].removeprefix("morph"))
            morph[idx] = cols[3:]
    for i in range(5):
        assert morph[i] == morph[0]
        assert morph[5 + i] == morph[5]
    assert morph[0] != morph[5]  # different clusters differ


def test_all_smiles_parse():
    data = generate(SyntheticSpec(clusters=3, per_cluster=30, seed=7))
    for smi in data.smiles:
        parse_smiles(smi)  # raises on failure


def test_deterministic_per_seed():
    a = generate(SyntheticSpec(seed=5, per_cluster=10))
    b = generate(SyntheticSpec(seed=5, per_cluster=10))
    c = generate(SyntheticSpec(seed=6, per_cluster=10))
    assert a.node_rows == b.node_rows and a.edge_rows == b.edge_rows
    assert a.node_rows != c.node_rows


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(clusters=1)
    with pytest.raises(ValueError):
        SyntheticSpec(noise=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(per_cluster=0)
    with pytest.raises(ValueError):
        SyntheticSpec(clusters=3, motifs=["CC"])


def test_centroid_shape_and_range():
    spec = SyntheticSpec(clusters=4, per_cluster=2, morph_dim=7)
    data = generate(spec)
    assert data.morph_centroids.shape == (4, 7)
    assert data.morph_centroids.min() >= 0.1 and data.morph_centroids.max() <= 0.9


def test_tables_build_into_graph(tmp_path):
    spec = SyntheticSpec(clusters=2, per_cluster=8, morph_dim=6, gexp_dim=6, seed=1)
    data = generate(spec)
    paths = write_tables(data, tmp_path / "synth")
    g = build_graph_from_tables(paths["nodes"], paths["edges"],
                                fp_radius=2, fp_bits=128)
    stats = g.stats()
    assert stats["nodes_by_kind"][NodeKind.MOLECULE.value] == 16
    assert stats["nodes_by_kind"][NodeKind.CELL_MORPHOLOGY.value] == 16
    assert stats["nodes_by_kind"][NodeKind.GENE_EXPRESSION.value] == 16
    assert stats["edges_by_relation"]["perturbation"] == 32
    # every molecule can reach its profiles
    for mid in g.molecule_ids():
        assert len(neighbors(g, mid)) >= 2


def test_write_tables_round_trip_bytes(tmp_path):
    data = generate(SyntheticSpec(per_cluster=5, seed=2))
    p1 = write_tables(data, tmp_path / "a")
    p2 = write_tables(data, tmp_path / "b")
    for k in p1:
        assert Path(p1[k]).read_bytes() == Path(p2[k]).read_bytes()
