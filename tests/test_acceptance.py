"""Acceptance gate: one test per headline guarantee, each with a single
pass/fail assertion at its stated tolerance.

Covered here:
1.  bound hierarchy in exact mode (zero ordering violations at 1e-9)
2.  contrastive-bound looseness at high MI (diagonal 16x16, K=2)
3.  Gaussian MI sanity vs a quadrature oracle (2%)
4.  Gaussian KL closed form vs numerical integration (1e-6)
5.  gradient integrity of primitives, encoder, decoders, and the full loss
6.  walker statistics (chi-square, alpha products, Markov-chain positions)
7.  similarity-edge construction vs a brute-force oracle (50 x 200 nodes)
8.  metric oracles (pairwise AUC to n=1000; NDCG/HIT re-ranking)
9.  end-to-end planted-cluster recovery (trained vs random encoder)
10. beta trade-off direction (reconstruction vs KL)
11. zero-shot matching on the noise-free graph (HIT@1 = 1.0)
12. byte-identical CLI determinism
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import infoalign.diffcore as dc
from infoalign.cli import main as cli_main
from infoalign.ctxgraph import NodeKind, Relation, build_graph_from_tables
from infoalign.evalkit import (
    LabeledSet,
    ProbeConfig,
    auc,
    hit_at_k,
    match_zero_shot,
    ndcg_at_k,
    probe_eval,
    probe_train,
    split_random,
)
from infoalign.mibounds import (
    critic_to_conditional,
    i_dlb,
    i_nce,
    optimal_critic,
    prop1_report,
    random_joint,
    true_mi,
)
from infoalign.model import (
    ModelConfig,
    decoder_keys,
    init_model,
    kl_standard_normal,
    pretrain,
    embed,
)
from infoalign.molparse import parse_many
from infoalign.synth import SyntheticSpec, generate, write_tables

from tests.test_evalkit import auc_pairwise_oracle, rerank_oracle
from tests.oracles import gaussian_mi, graph_of, stored_edges
from tests.test_mibounds import gaussian_mi_quadrature
from tests.test_model import mk_out, kl_quadrature


# --- 1. bound hierarchy ----------------------------------------------------------

def test_bound_hierarchy_exact_mode():
    """true_mi >= i_dlb >= i_nce with zero violations at 1e-9 over >= 20 random
    joints and K in {2, 8, 32}; i_nce <= ln K always. Runtime < 1 min."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    joints = [random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
              for _ in range(20)]
    rep = prop1_report(joints, k_list=(2, 8, 32), tol=1e-9,
                       critic_rng=np.random.default_rng(102))
    assert rep["pass"] and rep["violations"] == []
    for e in rep["entries"]:
        assert e["i_nce"] <= np.log(e["K"]) + 1e-9
    assert time.monotonic() - t0 < 60


# --- 2. high-MI looseness --------------------------------------------------------

def test_contrastive_bound_loose_at_high_mi():
    """Diagonal uniform 16x16 (true MI = ln 16): K = 2 caps i_nce at ln 2 while
    i_dlb with the exact decoder equals ln 16."""
    jt_p = np.eye(16) / 16
    from infoalign.mibounds import JointTable
    jt = JointTable(jt_p)
    h = optimal_critic(jt)
    assert true_mi(jt) == pytest.approx(np.log(16), abs=1e-9)
    assert i_nce(jt, h, 2) <= np.log(2) + 1e-9
    assert i_dlb(jt, critic_to_conditional(jt, h)) == pytest.approx(np.log(16), abs=1e-9)


# --- 3. Gaussian sanity ------------------------------------------------------------

def test_gaussian_mi_within_two_percent_of_quadrature():
    got = gaussian_mi(0.6)
    oracle = gaussian_mi_quadrature(0.6)
    assert got == pytest.approx(0.22314, abs=1e-5)
    assert abs(got - oracle) / oracle < 0.02


# --- 4. KL closed form --------------------------------------------------------------

def test_kl_closed_form_vs_integration():
    """100 random (mu, logvar) pairs within 1e-6 of numerical integration;
    zero iff mu = 0 and logvar = 0."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        mu = rng.uniform(-2, 2, d)
        lv = rng.uniform(-2, 2, d)
        got = kl_standard_normal(mk_out(mu, lv)).item()
        assert got == pytest.approx(kl_quadrature(mu, lv), abs=1e-6)
    assert kl_standard_normal(mk_out([0.0], [0.0])).item() == 0.0
    assert kl_standard_normal(mk_out([1e-3], [0.0])).item() > 0.0
    assert kl_standard_normal(mk_out([0.0], [1e-3])).item() > 0.0


# --- 5. gradient integrity ------------------------------------------------------------

def test_gradient_integrity():
    """Every autodiff primitive, the encoder, the decoders, and the training
    loss pass central finite-difference checks at relative error < 1e-4.
    Runtime < 2 min."""
    t0 = time.monotonic()
    from tests.test_diffcore import test_primitive_gradients
    import tests.test_diffcore as td
    for mark in test_primitive_gradients.pytestmark:
        if mark.name == "parametrize":
            for param in mark.args[1]:
                name, build = param
                test_primitive_gradients(name, build)
    from tests.test_model import (
        test_encoder_gradient_finite_difference,
        test_loss_gradient_finite_difference,
    )
    test_encoder_gradient_finite_difference()
    test_loss_gradient_finite_difference()
    assert time.monotonic() - t0 < 120


# --- 6. walker statistics ---------------------------------------------------------------

def test_walker_statistics():
    from tests.test_walker import (
        test_transition_chi_square_many_weights,
        test_alpha_high_precision_oracle,
        test_position_distribution_matches_markov_chain,
    )
    test_transition_chi_square_many_weights()   # p > 0.001 at 1e5 samples
    test_alpha_high_precision_oracle()          # cumulative products to 1e-12
    test_position_distribution_matches_markov_chain()  # exact chain within 3.5 sigma


# --- 7. graph construction oracle -----------------------------------------------------------

def _similarity_oracle(ids, feats, threshold, keep_fraction):
    """Vectorized independent oracle: cosine threshold then global top-k with
    (-similarity, id pair) ordering and exact-1 snapping."""
    f = np.asarray(feats, dtype=np.float64)
    norms = np.linalg.norm(f, axis=1)
    n = len(ids)
    total_pairs = n * (n - 1) // 2
    cands = []
    for i in range(n):
        if norms[i] == 0:
            continue
        sims = f[i + 1:] @ f[i] / np.where(norms[i + 1:] == 0, np.inf, norms[i + 1:] * norms[i])
        for off, s in enumerate(sims):
            j = i + 1 + off
            if norms[j] == 0:
                continue
            s = min(float(s), 1.0)
            if s >= 1.0 - 1e-12:
                s = 1.0
            if s >= threshold:
                a, b = sorted((ids[i], ids[j]))
                cands.append((s, a, b))
    cands.sort(key=lambda c: (-c[0], c[1], c[2]))
    keep = math.ceil(keep_fraction * total_pairs)
    return {(a, b): s for s, a, b in cands[:keep]}


@pytest.mark.parametrize("seed", range(50))
def test_similarity_edges_match_brute_force(seed):
    """Similarity-edge sets equal the threshold-then-top-k oracle exactly on
    randomized 200-node instances (threshold 0.8, 99.5% sparsity default)."""
    rng = np.random.default_rng(1000 + seed)
    n = 200
    ids, feats = [], []
    for i in range(n):
        base = rng.uniform(0.2, 0.8, size=12)
        ids.append(f"n{i:03d}")
        feats.append(np.clip(base + 0.1 * rng.standard_normal(12), 0.0, 1.0).astype(np.float32))
    g = graph_of([(nid, NodeKind.CELL_MORPHOLOGY, f) for nid, f in zip(ids, feats)])
    keep_fraction = float(rng.choice([0.005, 0.02, 0.1]))
    expected = _similarity_oracle(ids, feats, 0.8, keep_fraction)
    g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, 0.8, keep_fraction)
    got = {(a, b): w for (a, b, r), w in stored_edges(g).items() if r is Relation.SIMILARITY}
    assert set(got) == set(expected)
    for k in got:
        assert got[k] == pytest.approx(expected[k], abs=1e-12)


# --- 8. metric oracles -------------------------------------------------------------------------

def test_auc_equals_pairwise_oracle_to_n_1000():
    rng = np.random.default_rng(104)
    for n in (2, 17, 250, 1000):
        scores = rng.choice(np.linspace(0, 1, 41), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == auc_pairwise_oracle(scores, labels)


def test_ndcg_hit_equal_reranking_oracle_100_matrices():
    rng = np.random.default_rng(105)
    for _ in range(100):
        nq, nc = int(rng.integers(2, 10)), int(rng.integers(3, 15))
        mat = rng.choice(np.linspace(0, 1, 11), size=(nq, nc))
        true_cols = rng.integers(0, nc, size=nq)
        k = int(rng.integers(1, nc + 1))
        expect_ndcg, expect_hit = rerank_oracle(mat, true_cols, k)
        ndcgs, hits = [], []
        for qi in range(nq):
            order = sorted(range(nc), key=lambda j: (-mat[qi, j], j))
            rank = order.index(true_cols[qi]) + 1
            ndcgs.append(ndcg_at_k(rank, k))
            hits.append(hit_at_k(rank, k))
        assert np.mean(ndcgs) == expect_ndcg and np.mean(hits) == expect_hit


# --- 9 & 10. end-to-end planted recovery and beta trade-off ---------------------------------------

N_SEEDS = 5


def _recovery_cfg(seed, beta):
    return ModelConfig(latent_dim=8, num_layers=2, hidden=32, decoder_hidden=32,
                       beta=beta, fp_bits=64, epochs=10, batch_size=4, lr=5e-3,
                       seed=seed, walk_length=4, walks_per_molecule=4)


def _probe_auc(z, labels, seed):
    z = (z - z.mean(axis=0)) / np.maximum(z.std(axis=0), 1e-9)
    tr, _va, te = split_random(len(z), seed=seed)
    head = probe_train(LabeledSet(z[tr], labels[tr], ["classification"]),
                       ProbeConfig(epochs=100, seed=seed))
    rep = probe_eval(head, LabeledSet(z[te], labels[te], ["classification"]))
    return rep["per_task"][0]["auc"]


@pytest.fixture(scope="module")
def recovery_runs(tmp_path_factory):
    """Train on the planted 2-cluster graph (200 molecules, profile noise 0.1)
    for 5 seeds at beta = 1e-9 and beta = 1.0; also probe a random encoder."""
    t0 = time.monotonic()
    td = tmp_path_factory.mktemp("recovery")
    data = generate(SyntheticSpec(clusters=2, per_cluster=100, noise=0.1, seed=0,
                                  morph_dim=32, gexp_dim=32,
                                  motifs=("CSC", "CC(S)C"),
                                  decoration_min=10, decoration_max=60))
    paths = write_tables(data, td)
    g = build_graph_from_tables(
        paths["nodes"], paths["edges"], fp_radius=2, fp_bits=64,
        similarity_kinds=[NodeKind.CELL_MORPHOLOGY, NodeKind.GENE_EXPRESSION])
    mols = parse_many(data.smiles)
    labels = np.array(data.cluster_of, dtype=np.float64).reshape(-1, 1)

    out = {"trained_auc": [], "random_auc": [],
           "recon_low": [], "recon_high": [], "kl_low": [], "kl_high": []}
    for seed in range(N_SEEDS):
        store, logs = pretrain(g, _recovery_cfg(seed, beta=1e-9))
        out["trained_auc"].append(_probe_auc(embed(store, mols), labels, seed))
        out["recon_low"].append(sum(logs[-1].recon_per_modality.values()))
        out["kl_low"].append(logs[-1].kl)

        store_r = dc.ParamStore(seed=seed + 1000)
        init_model(store_r, _recovery_cfg(seed, beta=1e-9), decoder_keys(store))
        out["random_auc"].append(_probe_auc(embed(store_r, mols), labels, seed))

        _, logs_hi = pretrain(g, _recovery_cfg(seed, beta=1.0))
        out["recon_high"].append(sum(logs_hi[-1].recon_per_modality.values()))
        out["kl_high"].append(logs_hi[-1].kl)
    out["elapsed"] = time.monotonic() - t0
    return out


def test_planted_recovery_trained_vs_random(recovery_runs):
    """Over 5 seeds: linear-probe test AUC >= 0.90 for pretrained embeddings
    vs <= 0.65 for a random-initialized encoder; total runtime < 10 min."""
    trained = np.array(recovery_runs["trained_auc"])
    random_ = np.array(recovery_runs["random_auc"])
    assert trained.mean() >= 0.90, trained
    assert random_.mean() <= 0.65, random_
    assert (trained >= 0.90).sum() >= 4, trained
    assert recovery_runs["elapsed"] < 600


def test_beta_tradeoff_direction(recovery_runs):
    """Final reconstruction NLL at beta = 1.0 strictly exceeds the NLL at
    beta = 1e-9 in >= 4 of 5 seeds, with the KL ordering reversed."""
    recon_up = sum(h > l for h, l in zip(recovery_runs["recon_high"],
                                         recovery_runs["recon_low"]))
    kl_down = sum(h < l for h, l in zip(recovery_runs["kl_high"],
                                        recovery_runs["kl_low"]))
    assert recon_up >= 4, (recovery_runs["recon_high"], recovery_runs["recon_low"])
    assert kl_down >= 4, (recovery_runs["kl_high"], recovery_runs["kl_low"])


# --- 11. zero-shot matching sanity --------------------------------------------------------------------

def test_zero_shot_hit1_on_noise_free_graph(tmp_path):
    """Noise-0 graph: every query molecule's own morphology vector (its
    cluster centroid, deduplicated across the pool) is ranked first by decoder
    likelihood, so mean HIT@1 = 1.0."""
    data = generate(SyntheticSpec(clusters=2, per_cluster=20, noise=0.0,
                                  morph_dim=16, gexp_dim=16,
                                  motifs=("CSC", "CC(S)C"),
                                  decoration_min=5, decoration_max=12, seed=0))
    paths = write_tables(data, tmp_path)
    g = build_graph_from_tables(
        paths["nodes"], paths["edges"], fp_radius=2, fp_bits=64,
        similarity_kinds=[NodeKind.CELL_MORPHOLOGY, NodeKind.GENE_EXPRESSION])
    cfg = ModelConfig(latent_dim=8, num_layers=2, hidden=32, decoder_hidden=32,
                      beta=1e-9, fp_bits=64, epochs=10, batch_size=4, lr=5e-3,
                      seed=0, walk_length=4, walks_per_molecule=4)
    store, _ = pretrain(g, cfg)
    # at noise 0 same-cluster morphology vectors are identical, so the pool is
    # one candidate per cluster; each query's own vector IS its cluster's entry
    per = 20
    cands = np.array([g.node(f"morph{c * per:04d}").features for c in range(2)],
                     dtype=np.float64)
    ids = ["cluster0", "cluster1"]
    queries = parse_many(data.smiles)
    true_ids = [ids[c] for c in data.cluster_of]
    res = match_zero_shot(store, queries, cands, ids, true_ids, k_list=(1,))
    assert res["hit"][1] == 1.0


# --- 12. determinism -----------------------------------------------------------------------------------

def test_cli_determinism_byte_identical(tmp_path):
    """build-graph, pretrain, embed, and mi-bench produce byte-identical
    primary outputs across two runs with the same seed."""
    data = generate(SyntheticSpec(clusters=2, per_cluster=5, morph_dim=6,
                                  gexp_dim=6, seed=3))
    paths = write_tables(data, tmp_path / "tables")
    smi = tmp_path / "in.smi"
    smi.write_text("CCO\nCSC\nc1ccccc1\n", encoding="utf-8")
    captured = []
    for tag in ("r1", "r2"):
        d = tmp_path / tag
        d.mkdir()
        graph = d / "g.ctxg"
        ck = d / "ck.iapt"
        emb = d / "emb.tsv"
        mi = d / "mi.json"
        assert cli_main(["build-graph", "--nodes", paths["nodes"],
                         "--edges", paths["edges"], "--fp-bits", "64",
                         "--out", str(graph)]) == 0
        assert cli_main(["pretrain", "--graph", str(graph), "--out", str(ck),
                         "--epochs", "2", "--seed", "7", "--latent-dim", "6",
                         "--num-layers", "2", "--hidden", "8",
                         "--decoder-hidden", "8", "--fp-bits", "64",
                         "--batch-size", "4"]) == 0
        assert cli_main(["embed", "--checkpoint", str(ck), "--input", str(smi),
                         "--out", str(emb)]) == 0
        assert cli_main(["mi-bench", "--num-joints", "4", "--seed", "7",
                         "--out", str(mi)]) == 0
        captured.append((graph.read_bytes(), ck.read_bytes(),
                         Path(str(ck) + ".log.tsv").read_bytes(),
                         emb.read_bytes(), mi.read_bytes()))
    assert captured[0] == captured[1]
