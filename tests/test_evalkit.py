"""Evaluation tests: AUC against an O(n^2) pairwise oracle, split properties,
probe behavior on separable vs shuffled data, ranking metrics against a
brute-force re-ranking oracle, and matcher determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoalign.diffcore as dc
from infoalign.ctxgraph import NodeKind
from infoalign.errors import (
    DimensionMismatchError,
    DuplicateIdError,
    LengthMismatchError,
    NoDecoderError,
    SingleClassError,
    TooFewError,
    UnknownNodeError,
)
from infoalign.evalkit import (
    CLASSIFICATION,
    REGRESSION,
    LabeledSet,
    ProbeConfig,
    auc,
    hit_at_k,
    mae,
    match_zero_shot,
    ndcg_at_k,
    probe_eval,
    probe_train,
    split_random,
)
from infoalign.model import gin_encode
from infoalign.molparse import parse_smiles
from tests.oracles import decoder_prefix, molecule_set, reference_probe_train


def auc_pairwise_oracle(scores, labels):
    """O(n^2) definition: P(score_pos > score_neg) + 1/2 P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# --- AUC / MAE -----------------------------------------------------------------

def test_auc_perfect_and_inverted():
    assert auc([0.1, 0.9], [0, 1]) == 1.0
    assert auc([0.9, 0.1], [0, 1]) == 0.0


def test_auc_tie_half_credit():
    assert auc([0.5, 0.5], [0, 1]) == 0.5


def test_auc_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(0)
    for n in (10, 100, 1000):
        scores = rng.choice(np.linspace(0, 1, 37), size=n)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == auc_pairwise_oracle(scores, labels)


def test_auc_errors():
    with pytest.raises(SingleClassError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(LengthMismatchError):
        auc([0.1, 0.2], [1, 0, 1])


def test_mae_loop_oracle():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=20)
    truth = rng.normal(size=20)
    expect = sum(abs(a - b) for a, b in zip(pred, truth)) / 20
    assert mae(pred, truth) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(LengthMismatchError):
        mae([1.0], [1.0, 2.0])


# --- split ------------------------------------------------------------------------

def test_split_disjoint_exhaustive_deterministic():
    tr, va, te = split_random(100, seed=3)
    assert len(tr) + len(va) + len(te) == 100
    assert len(np.intersect1d(tr, va)) == 0
    assert len(np.intersect1d(tr, te)) == 0
    assert sorted(np.concatenate([tr, va, te]).tolist()) == list(range(100))
    assert len(tr) == 60 and len(va) == 15 and len(te) == 25
    tr2, va2, te2 = split_random(100, seed=3)
    assert np.array_equal(tr, tr2) and np.array_equal(te, te2)
    tr3, _, _ = split_random(100, seed=4)
    assert not np.array_equal(tr, tr3)


def test_split_small_and_errors():
    tr, va, te = split_random(3)
    assert min(len(tr), len(va), len(te)) >= 1
    with pytest.raises(TooFewError):
        split_random(2)
    with pytest.raises(ValueError):
        split_random(10, ratios=(0.5, 0.5, 0.5))


# --- probing ---------------------------------------------------------------------

def separable_set(n=400, d=8, seed=0, flip=0.0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    emb = rng.normal(size=(n, d)) + 3.0 * labels[:, None] * np.ones(d)
    y = labels.copy()
    if flip:
        swap = rng.random(n) < flip
        y[swap] = 1 - y[swap]
    return LabeledSet(emb, y.astype(float).reshape(-1, 1), [CLASSIFICATION])


def test_probe_separable_high_auc():
    train = separable_set(seed=0)
    test = separable_set(seed=1)
    head = probe_train(train, ProbeConfig(epochs=150))
    rep = probe_eval(head, test)
    assert rep["per_task"][0]["auc"] >= 0.99


def test_probe_names_the_epoch_of_a_non_finite_gradient(monkeypatch):
    """A leaf gradient gone NaN in the second epoch is reported once, by the
    store's check, with the probe epoch."""
    real_backward = dc.mlp_backward
    steps = []

    def backward(g, x, outs, layers, grads, input_grad=True):
        out = real_backward(g, x, outs, layers, grads, input_grad)
        steps.append(1)
        if len(steps) == 2:
            grads[0][0][...] = np.nan  # probe.w0's gradient
        return out

    monkeypatch.setattr(dc, "mlp_backward", backward)
    with pytest.raises(FloatingPointError, match=r"^non-finite leaf gradient in probe epoch 1$"):
        probe_train(separable_set(n=40), ProbeConfig(epochs=3))
    assert len(steps) == 2


def test_probe_shuffled_labels_chance():
    rng = np.random.default_rng(2)
    train = separable_set(n=500, seed=3)
    test = separable_set(n=500, seed=4)
    test.labels = rng.permutation(test.labels)
    head = probe_train(train, ProbeConfig(epochs=100))
    rep = probe_eval(head, test)
    assert 0.4 <= rep["per_task"][0]["auc"] <= 0.6


def test_probe_regression_task():
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(300, 6))
    w = rng.normal(size=6)
    y = emb @ w
    train = LabeledSet(emb[:200], y[:200].reshape(-1, 1), [REGRESSION])
    test = LabeledSet(emb[200:], y[200:].reshape(-1, 1), [REGRESSION])
    head = probe_train(train, ProbeConfig(epochs=400, lr=0.05))
    rep = probe_eval(head, test)
    baseline = mae(np.full(100, y[:200].mean()), y[200:])
    assert rep["per_task"][0]["mae"] < 0.5 * baseline
    assert rep["aggregates"]["mean_mae"] == rep["per_task"][0]["mae"]


def test_probe_threshold_aggregates():
    """Two tasks with AUC {~high, ~low}: fraction-above thresholds count right."""
    rng = np.random.default_rng(7)
    n = 400
    labels = rng.integers(0, 2, size=(n, 2)).astype(float)
    emb = rng.normal(size=(n, 6))
    emb[:, 0] += 4.0 * labels[:, 0]  # task 0 separable, task 1 noise
    tr_idx, _, te_idx = split_random(n, seed=0)
    head = probe_train(LabeledSet(emb[tr_idx], labels[tr_idx],
                                  [CLASSIFICATION, CLASSIFICATION]),
                       ProbeConfig(epochs=150))
    rep = probe_eval(head, LabeledSet(emb[te_idx], labels[te_idx],
                                      [CLASSIFICATION, CLASSIFICATION]))
    a0 = rep["per_task"][0]["auc"]
    a1 = rep["per_task"][1]["auc"]
    assert a0 > 0.9 and a1 < 0.8
    assert rep["aggregates"]["mean_auc"] == pytest.approx((a0 + a1) / 2)
    assert rep["aggregates"]["frac_auc_above_0.80"] == 0.5


def test_probe_single_class_task_skipped():
    rng = np.random.default_rng(8)
    emb = rng.normal(size=(30, 4))
    head = probe_train(LabeledSet(emb, rng.integers(0, 2, size=(30, 1)).astype(float),
                                  [CLASSIFICATION]), ProbeConfig(epochs=5))
    test = LabeledSet(emb, np.ones((30, 1)), [CLASSIFICATION])
    with pytest.warns(UserWarning):
        rep = probe_eval(head, test)
    assert rep["per_task"][0]["auc"] is None
    assert "mean_auc" not in rep["aggregates"]


def test_labeled_set_label_shapes():
    emb = np.zeros((5, 2))
    assert LabeledSet(emb, np.arange(5.0), [CLASSIFICATION]).labels.shape == (5, 1)
    # a task-major (T, N) table is rejected, not transposed
    with pytest.raises(LengthMismatchError):
        LabeledSet(emb, np.zeros((2, 5)), [CLASSIFICATION, CLASSIFICATION])
    with pytest.raises(LengthMismatchError):
        LabeledSet(emb, np.zeros((4, 1)), [CLASSIFICATION])
    with pytest.raises(LengthMismatchError):
        LabeledSet(emb, np.arange(4.0), [CLASSIFICATION])


@pytest.mark.parametrize("hidden", [0, 5])
@pytest.mark.parametrize("types", [[CLASSIFICATION] * 2, [REGRESSION] * 2,
                                   [REGRESSION, CLASSIFICATION, CLASSIFICATION]],
                         ids=["classification", "regression", "mixed"])
def test_probe_store_equals_masked_oracle(types, hidden):
    """The probe's one `decode_group` node per epoch leaves the parameters,
    gradients and Adam moments of the unfused fit that builds both losses
    on every entry and masks one away, bit for bit."""
    rng = np.random.default_rng(len(types) + hidden)
    emb = rng.normal(size=(40, 6))
    labels = np.stack([rng.integers(0, 2, 40) if kind == CLASSIFICATION
                       else rng.normal(size=40) for kind in types], axis=1)
    train = LabeledSet(emb, labels, types)
    cfg = ProbeConfig(hidden=hidden, epochs=25, seed=3)
    got = probe_train(train, cfg).store.flat
    want = reference_probe_train(train, cfg).store.flat
    assert got.tobytes() == want.tobytes()


def test_labeled_set_rejects_unknown_task_type():
    with pytest.raises(ValueError, match="unknown task type 'clasification': expected "
                                         "'classification' or 'regression'"):
        LabeledSet(np.zeros((3, 2)), np.zeros((3, 2)), [CLASSIFICATION, "clasification"])


@pytest.mark.parametrize("key,value,message", [
    ("hidden", -1, "probe_hidden must be >= 0, got -1"),
    ("epochs", -5, "probe_epochs must be >= 0, got -5"),
    ("lr", 0.0, "probe_lr must be finite and positive, got 0.0"),
    ("lr", float("inf"), "probe_lr must be finite and positive, got inf"),
    ("lr", float("nan"), "probe_lr must be finite and positive, got nan"),
])
def test_probe_config_rejects_bad_values(key, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProbeConfig(**{key: value})


def test_probe_predict_rejects_non_finite():
    head = probe_train(separable_set(n=100, seed=9), ProbeConfig(epochs=5))
    head.store.params["probe.b0"][0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite probe prediction"):
        head.predict(np.zeros((3, 8)))


def test_probe_train_deterministic():
    train = separable_set(n=100, seed=11)
    x = np.random.default_rng(12).normal(size=(5, 8))
    a = probe_train(train, ProbeConfig(epochs=30, seed=1)).predict(x)
    b = probe_train(train, ProbeConfig(epochs=30, seed=1)).predict(x)
    assert np.array_equal(a, b)


# --- ranking metrics ---------------------------------------------------------------

def test_ndcg_hit_closed_forms():
    assert ndcg_at_k(1, 10) == 1.0
    assert ndcg_at_k(2, 10) == pytest.approx(1.0 / np.log2(3.0), abs=1e-15)
    assert ndcg_at_k(11, 10) == 0.0
    assert hit_at_k(1, 1) == 1.0
    assert hit_at_k(2, 1) == 0.0
    assert hit_at_k(10, 10) == 1.0


def rerank_oracle(score_matrix, true_cols, k):
    """Brute-force NDCG@k / HIT@k: sort each row, find the true column."""
    ndcgs, hits = [], []
    for qi, row in enumerate(score_matrix):
        # descending score, ties by candidate index (matching id tie-break)
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        rank = order.index(true_cols[qi]) + 1
        ndcgs.append(1.0 / np.log2(1.0 + rank) if rank <= k else 0.0)
        hits.append(1.0 if rank <= k else 0.0)
    return float(np.mean(ndcgs)), float(np.mean(hits))


def test_ranking_metrics_match_rerank_oracle():
    """100 random score matrices (with ties): metric from computed ranks equals
    the brute-force re-ranking oracle."""
    rng = np.random.default_rng(13)
    for _ in range(100):
        nq, nc = int(rng.integers(2, 8)), int(rng.integers(3, 12))
        mat = rng.choice(np.linspace(0, 1, 9), size=(nq, nc))
        true_cols = rng.integers(0, nc, size=nq)
        k = int(rng.integers(1, nc + 1))
        expect_ndcg, expect_hit = rerank_oracle(mat, true_cols, k)
        ndcgs, hits = [], []
        for qi in range(nq):
            order = sorted(range(nc), key=lambda j: (-mat[qi, j], j))
            rank = order.index(true_cols[qi]) + 1
            ndcgs.append(ndcg_at_k(rank, k))
            hits.append(hit_at_k(rank, k))
        assert np.mean(ndcgs) == expect_ndcg
        assert np.mean(hits) == expect_hit


# --- zero-shot matching ----------------------------------------------------------------

def matcher_fixture(dim=6, latent=4, seed=0):
    from infoalign.model import ModelConfig, init_model
    cfg = ModelConfig(latent_dim=latent, num_layers=2, hidden=8, decoder_hidden=6,
                      fp_bits=32)
    store = dc.ParamStore(seed=seed)
    init_model(store, cfg, [("cell_morphology", dim), ("molecule", 32)])
    return store


def reference_true_rank(scores, candidate_ids, true_id):
    """The 1-based rank of `true_id` in the full ranking: a stable sort by
    descending score over the candidates in id order."""
    id_order = np.argsort(np.asarray(candidate_ids, dtype=object))
    order = id_order[np.argsort(-np.asarray(scores)[id_order], kind="stable")]
    return [candidate_ids[i] for i in order].index(true_id) + 1


def matcher_scores(store, mol, cands):
    """Candidate scores as the matcher computes them, and the decoder logits."""
    prefix = decoder_prefix(store.params, NodeKind.CELL_MORPHOLOGY, cands.shape[1])
    logits = dc.mlp(store.params, prefix, gin_encode(mol, store.params).mu)[0]
    return cands @ logits - np.logaddexp(0.0, logits).sum(), logits


def test_match_zero_shot_deterministic_and_ranked():
    store = matcher_fixture()
    rng = np.random.default_rng(14)
    queries = [parse_smiles(s) for s in ("CCO", "CCN")]
    cands = rng.uniform(0, 1, size=(5, 6))
    ids = [f"c{i}" for i in range(5)]
    true = ["c3", "c0"]
    out1 = match_zero_shot(store, molecule_set(queries), cands, ids, true)
    out2 = match_zero_shot(store, molecule_set(queries), cands, ids, true)
    assert out1 == out2
    ranks = out1["ranks"]
    assert ranks == [reference_true_rank(matcher_scores(store, mol, cands)[0], ids, tid)
                     for mol, tid in zip(queries, true)]
    assert set(out1["ndcg"]) == {1, 10} and set(out1["hit"]) == {1, 10}
    assert out1["ndcg"][10] == np.mean([ndcg_at_k(r, 10) for r in ranks])
    assert out1["hit"][10] == 1.0  # only 5 candidates


def test_match_scores_equal_decoder_likelihood():
    """Ranks follow the Bernoulli log-likelihood of each candidate, computed
    independently: every candidate taken as the true one gets the oracle's rank."""
    store = matcher_fixture()
    rng = np.random.default_rng(15)
    mol = parse_smiles("c1ccccc1")
    cands = rng.uniform(0, 1, size=(4, 6))
    ids = [f"c{i}" for i in range(4)]
    out = match_zero_shot(store, molecule_set([mol] * 4), cands, ids, ids)
    scores, logits = matcher_scores(store, mol, cands)
    ll = np.array([np.sum(y * logits - np.logaddexp(0.0, logits)) for y in cands])
    assert scores == pytest.approx(ll, abs=1e-9)
    assert out["ranks"] == [
        reference_true_rank(ll, ids, tid) for tid in ids]
    assert sorted(out["ranks"]) == [1, 2, 3, 4]


def test_match_tie_breaks_by_candidate_id():
    store = matcher_fixture()
    cands = np.tile(np.random.default_rng(16).uniform(0, 1, 6), (3, 1))
    ids = ["b", "c", "a"]  # identical vectors -> identical scores
    mol = parse_smiles("CCO")
    out = match_zero_shot(store, molecule_set([mol] * 3), cands, ids, ids)
    assert out["ranks"] == [2, 3, 1]
    scores, _ = matcher_scores(store, mol, cands)
    assert [reference_true_rank(scores, ids, tid) for tid in ids] == [2, 3, 1]


@st.composite
def tie_heavy_candidates(draw):
    """Candidate rows drawn from a pool of at most 3 vectors, so scores tie
    often, under distinct ids "n<k>" in an order that is neither the input
    order nor numeric ("n10" sorts before "n9")."""
    n = draw(st.integers(1, 14))
    pool = draw(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                  min_size=6, max_size=6), min_size=1, max_size=3))
    cands = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    ids = [f"n{k}" for k in draw(st.lists(st.integers(0, 30), min_size=n, max_size=n,
                                          unique=True))]
    true = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2))
    return cands, ids, true


@settings(max_examples=150, deadline=None)
@given(tie_heavy_candidates())
def test_match_true_rank_equals_argsort_oracle(case):
    cands, ids, true = case
    store = matcher_fixture()
    queries = [parse_smiles("CCO"), parse_smiles("c1ccccc1N")]
    out = match_zero_shot(store, molecule_set(queries), cands, ids, true)
    assert out["ranks"] == [
        reference_true_rank(matcher_scores(store, mol, cands)[0], ids, tid)
        for mol, tid in zip(queries, true)]


# 21 queries: a full block of 16 and a second of 5, with bond-free molecules.
MATCH_QUERIES = ["CCO", "C", "c1ccccc1N", "O", "CC(=O)O", "CCN", "OCC(O)CO", "N",
                 "CC(C)CC(=O)O", "C1CC1", "N#CC#N", "CSC", "ClC(Cl)(Cl)Cl", "[NH4+]",
                 "CC=O", "NCCN", "S", "c1ccccc1", "CC(C)O", "F", "OCCO"]


@settings(max_examples=40, deadline=None)
@given(tie_heavy_candidates(), st.integers(0, 2**32 - 1))
def test_match_true_rank_equals_argsort_oracle_across_blocks(case, seed):
    cands, ids, _ = case
    store = matcher_fixture()
    queries = [parse_smiles(s) for s in MATCH_QUERIES]
    true = list(np.random.default_rng(seed).choice(ids, size=len(queries)))
    out = match_zero_shot(store, molecule_set(queries), cands, ids, true)
    assert out["ranks"] == [
        reference_true_rank(matcher_scores(store, mol, cands)[0], ids, tid)
        for mol, tid in zip(queries, true)]


def test_match_duplicate_candidate_ids_rejected():
    store = matcher_fixture()
    with pytest.raises(DuplicateIdError, match="distinct"):
        match_zero_shot(store, molecule_set([parse_smiles("CCO")]), np.zeros((2, 6)),
                        ["a", "a"], ["a"])


def test_match_rejects_non_finite_logits():
    store = matcher_fixture()
    store.params[decoder_prefix(store.params, NodeKind.CELL_MORPHOLOGY, 6) + ".b1"][4] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite decoder logit"):
        match_zero_shot(store, molecule_set([parse_smiles("CCO")]), np.zeros((2, 6)),
                        ["a", "b"], ["a"])


def test_match_errors():
    store = matcher_fixture()
    with pytest.raises(DimensionMismatchError):
        match_zero_shot(store, molecule_set([]), np.zeros(3), [], [])
    with pytest.raises(DimensionMismatchError):
        match_zero_shot(store, molecule_set([]), np.zeros((2, 6)), ["only-one"], [])
    with pytest.raises(NoDecoderError):
        match_zero_shot(store, molecule_set([]), np.zeros((2, 7)), ["a", "b"], [])
    query = [parse_smiles("CCO")]
    with pytest.raises(LengthMismatchError):
        match_zero_shot(store, molecule_set(query * 2), np.zeros((2, 6)), ["a", "b"], ["a"])
    with pytest.raises(UnknownNodeError, match="'z' is not a candidate id"):
        match_zero_shot(store, molecule_set(query), np.zeros((2, 6)), ["a", "b"], ["z"])
    with pytest.raises(ValueError, match="unknown likelihood 'poisson'"):
        match_zero_shot(store, molecule_set(query), np.zeros((2, 6)), ["a", "b"], ["a"],
                        likelihood="poisson")
    for k_list, message in (((), "k must list at least one cutoff"),
                            ((1, 0, -3), "k must be >= 1, got 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            match_zero_shot(store, molecule_set(query), np.zeros((2, 6)), ["a", "b"], ["a"],
                            k_list=k_list)
