"""Downstream evaluation: frozen-embedding probing and zero-shot matching.

The probe is a decoder of the frozen embeddings into the labels: its head is
fitted through `dc.decode_group`, the node that decodes pretraining's
targets, with the Bernoulli NLL on classification tasks and the Gaussian one
on regression tasks.

AUC follows the pairwise definition (probability a random positive outranks a
random negative, ties counting one half), computed via rank statistics. The
matcher scores each morphology candidate by the decoder log-likelihood of the
candidate vector given the query molecule's mean embedding, under the
likelihood the model was trained with (Bernoulli or Gaussian); with a single
relevant item per query, NDCG@k is 1/log2(1+rank).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from . import diffcore as dc
from .ctxgraph import NodeKind, _id_ranks
from .errors import (
    DimensionMismatchError,
    DuplicateIdError,
    LengthMismatchError,
    SingleClassError,
    TooFewError,
    UnknownNodeError,
)
# `gin_encode` is not called here: perfbench/tracer.py wraps it under this
# module's name, so a traced run needs it importable from evalkit.
from .model import _squared_error, decoder_prefix, embed, gin_encode
from .molparse import MoleculeSet

CLASSIFICATION = "classification"
REGRESSION = "regression"


def auc(scores, labels) -> float:
    """Rank-based AUC; raises SingleClassError unless both classes appear."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise LengthMismatchError(f"{scores.shape} scores vs {labels.shape} labels")
    pos = labels == 1
    npos = int(pos.sum())
    nneg = len(labels) - npos
    if npos == 0 or nneg == 0:
        raise SingleClassError("AUC needs at least one positive and one negative")
    # average ranks give ties 1/2 credit: a block of c tied scores ending at
    # rank e shares the rank e - (c - 1) / 2
    _, tie_block, tie_counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[tie_block]
    return float((ranks[pos].sum() - npos * (npos + 1) / 2) / (npos * nneg))


def mae(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size == 0:
        raise LengthMismatchError(f"{pred.shape} vs {truth.shape}")
    return float(np.mean(np.abs(pred - truth)))


def split_random(n_items: int, ratios=(0.6, 0.15, 0.25), seed: int = 0):
    """Disjoint, exhaustive train/valid/test index arrays, deterministic per seed."""
    if n_items < 3:
        raise TooFewError(f"need >= 3 items to split, got {n_items}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    perm = dc.seeded_rng(seed).permutation(n_items)
    n_train = int(round(ratios[0] * n_items))
    n_valid = int(round(ratios[1] * n_items))
    n_train = max(1, min(n_train, n_items - 2))
    n_valid = max(1, min(n_valid, n_items - n_train - 1))
    return (
        np.sort(perm[:n_train]),
        np.sort(perm[n_train : n_train + n_valid]),
        np.sort(perm[n_train + n_valid :]),
    )


@dataclass
class LabeledSet:
    embeddings: np.ndarray           # (N, D)
    labels: np.ndarray               # (N, T), or (N,) for a single task
    task_types: List[str]            # per task, "classification" or "regression"

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim == 1:
            self.labels = self.labels[:, None]
        if self.labels.ndim != 2 or self.labels.shape[0] != self.embeddings.shape[0]:
            raise LengthMismatchError(
                f"labels of shape {self.labels.shape} for {self.embeddings.shape[0]} embeddings")
        if len(self.task_types) != self.labels.shape[1]:
            raise LengthMismatchError("task_types length != task count")
        for kind in self.task_types:
            if kind not in (CLASSIFICATION, REGRESSION):
                raise ValueError(f"unknown task type {kind!r}: expected "
                                 f"{CLASSIFICATION!r} or {REGRESSION!r}")


@dataclass
class ProbeConfig:
    hidden: int = 0        # 0 = linear probe
    epochs: int = 200
    lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 0:
            raise ValueError(f"probe_hidden must be >= 0, got {self.hidden}")
        if self.epochs < 0:
            raise ValueError(f"probe_epochs must be >= 0, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"probe_lr must be finite and positive, got {self.lr!r}")


@dataclass
class ProbeHead:
    store: dc.ParamStore
    task_types: List[str]

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        """Probabilities for classification tasks, values for regression ones;
        FloatingPointError if one is not finite."""
        bound = self.store.bind()
        x = dc.constant(np.asarray(embeddings, dtype=np.float64))
        pred = dc.mlp_forward(bound, "probe", x).data
        cls = np.array([kind == CLASSIFICATION for kind in self.task_types])
        pred[:, cls] = dc.logistic(pred[:, cls])
        return dc.require_finite(pred, "probe prediction")


def probe_train(train: LabeledSet, cfg: ProbeConfig = ProbeConfig()) -> ProbeHead:
    """Fit a small MLP head on frozen embeddings (full-batch Adam).

    The head decodes every embedding into its labels, and each epoch's loss
    is the mean over entries of their NLL: one `dc.decode_group` node, with
    the Bernoulli NLL (BCE on logits) in classification columns and the
    Gaussian one (squared error) in regression columns, times 1 / entries. A
    non-finite loss raises FloatingPointError.
    """
    d = train.embeddings.shape[1]
    t = train.labels.shape[1]
    store = dc.ParamStore(seed=cfg.seed)
    dc.init_mlp(store, "probe", [d, t] if cfg.hidden == 0 else [d, cfg.hidden, t])
    x = dc.constant(train.embeddings)
    y = train.labels
    squared_error = np.array([kind == REGRESSION for kind in train.task_types])

    # A diverging fit (embeddings near the float range) is reported once, by
    # the finiteness check on the loss, not by numpy's warnings before it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            bound = store.bind()
            nll, _ = dc.decode_group(x, None, dc.mlp_layers(bound, "probe"), y, 1.0,
                                     squared_error)
            loss = dc.mul(nll, dc.constant(1.0 / y.size))
            try:
                loss.backward()
                store.accumulate(bound)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} in probe epoch {epoch}") from None
            dc.adam_step(store, lr=cfg.lr)
    return ProbeHead(store, list(train.task_types))


def probe_eval(head: ProbeHead, test: LabeledSet,
               thresholds=(0.80, 0.85, 0.90)) -> Dict:
    """Per-task AUC/MAE plus threshold aggregates.

    Classification tasks with a single observed class are skipped with a
    warning and excluded from the aggregates.
    """
    pred = head.predict(test.embeddings)
    per_task = []
    aucs, maes = [], []
    for t, kind in enumerate(test.task_types):
        entry: Dict = {"task": t, "type": kind, "n": len(test.labels)}
        if kind == CLASSIFICATION:
            try:
                entry["auc"] = auc(pred[:, t], test.labels[:, t])
                aucs.append(entry["auc"])
            except SingleClassError:
                warnings.warn(f"task {t}: single class in test set, skipped")
                entry["auc"] = None
        else:
            entry["mae"] = mae(pred[:, t], test.labels[:, t])
            maes.append(entry["mae"])
        per_task.append(entry)
    aggregates: Dict = {}
    if aucs:
        aggregates["mean_auc"] = float(np.mean(aucs))
        for thr in thresholds:
            aggregates[f"frac_auc_above_{thr:.2f}"] = float(
                np.mean([a > thr for a in aucs]))
    if maes:
        aggregates["mean_mae"] = float(np.mean(maes))
    return {"per_task": per_task, "aggregates": aggregates}


# --- ranking metrics -----------------------------------------------------------

def ndcg_at_k(rank: int, k: int) -> float:
    """Single-relevant-item NDCG (ideal DCG is 1)."""
    return 1.0 / np.log2(1.0 + rank) if rank <= k else 0.0


def hit_at_k(rank: int, k: int) -> float:
    return 1.0 if rank <= k else 0.0


def match_zero_shot(store: dc.ParamStore, queries: MoleculeSet,
                    candidates: np.ndarray,
                    candidate_ids: Sequence[str],
                    true_ids: Sequence[str],
                    k_list: Sequence[int] = (1, 10),
                    likelihood: str = "bernoulli") -> Dict:
    """Rank morphology candidates for each molecule of the set `queries` and
    report the true rank.

    Each candidate y is scored by the morphology decoder's log-likelihood of
    y given the query's mean embedding (no sampling, so retrieval is
    deterministic): y . l - sum softplus(l) of its logits l if `likelihood`
    is "bernoulli", y . o - |y|^2 / 2 of its outputs o if "gaussian" (the
    per-query -|o|^2 / 2 left out); another raises ValueError. The mean
    embeddings come from `embed` and are decoded in one pass; each query's
    scores are one mat-vec against the candidates. A query's true rank is 1
    plus the number of candidates scoring above its true candidate, plus the
    number scoring the same whose id sorts before the true id: ties break by
    candidate id. Candidate ids must be distinct. An empty `k_list`, or a
    cutoff in it below 1, raises ValueError naming the first. Raises
    FloatingPointError if a decoder output is not finite.
    """
    if not len(k_list):
        raise ValueError("k must list at least one cutoff")
    low = [k for k in k_list if k < 1]
    if low:
        raise ValueError(f"k must be >= 1, got {low[0]}")
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim != 2:
        raise DimensionMismatchError("candidates must be a 2-D matrix")
    if len(candidate_ids) != candidates.shape[0]:
        raise DimensionMismatchError("candidate_ids length != candidate rows")
    if len(true_ids) != len(queries):
        raise LengthMismatchError(f"{len(true_ids)} true ids for {len(queries)} queries")
    column = {cid: i for i, cid in enumerate(candidate_ids)}
    if len(column) != len(candidate_ids):
        raise DuplicateIdError("candidate ids must be distinct")
    for tid in true_ids:
        if tid not in column:
            raise UnknownNodeError(f"true id {tid!r} is not a candidate id")
    prefix = decoder_prefix(store.params, NodeKind.CELL_MORPHOLOGY, candidates.shape[1])

    id_rank = _id_ranks(candidate_ids)  # each candidate's position in candidate-id order
    mu = dc.constant(embed(store, queries))
    logits = dc.require_finite(dc.mlp_forward(store.bind(), prefix, mu).data, "decoder logit")
    if _squared_error(likelihood):
        offsets = [0.5 * (candidates ** 2).sum(axis=1)] * len(queries)
    else:
        offsets = [row.sum() for row in np.logaddexp(0.0, logits)]
    ranks: List[int] = []
    ndcg_sums = {k: 0.0 for k in k_list}
    hit_sums = {k: 0.0 for k in k_list}
    for qi in range(len(queries)):
        scores = candidates @ logits[qi] - offsets[qi]
        t = column[true_ids[qi]]
        s_t = scores[t]
        true_rank = 1 + int(np.count_nonzero(scores > s_t)
                            + np.count_nonzero((scores == s_t) & (id_rank < id_rank[t])))
        ranks.append(true_rank)
        for k in k_list:
            ndcg_sums[k] += ndcg_at_k(true_rank, k)
            hit_sums[k] += hit_at_k(true_rank, k)
    nq = max(len(queries), 1)
    return {
        "ranks": ranks,
        "ndcg": {k: ndcg_sums[k] / nq for k in k_list},
        "hit": {k: hit_sums[k] / nq for k in k_list},
    }
