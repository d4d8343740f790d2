"""Mutual-information estimators and the bound-hierarchy verification harness.

Ground truth comes from small discrete joint distributions where MI is an
exact sum. Every estimator is exact: it evaluates each expectation by
exhaustive summation (for the multi-sample contrastive bound this means
enumerating the multinomial count vectors of the K-1 marginal samples), so
there is no estimator variance and the chain  true MI >= decoder lower bound
>= contrastive lower bound  can be asserted at near-equality tolerances.

The decoder lower bound (DLB) is E[log q(y|z)] + H(Y); the encoder upper
bound (EUB) is the mean posterior-to-prior KL; the multi-sample
contrastive bound (the InfoNCE form, saturating at log K) is
E[h] - E[log mean_i e^{h(z, y_i)}]. The NWJ bound and the closed-form
Gaussian MI, which no command reports, are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import BatchTooSmallError


@dataclass
class JointTable:
    """Discrete joint distribution p(z, y) over finite alphabets."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.p.ndim != 2:
            raise ValueError("joint table must be 2-D")
        if np.any(self.p < 0) or abs(self.p.sum() - 1.0) > 1e-12:
            raise ValueError("joint table must be non-negative and sum to 1")

    @property
    def pz(self) -> np.ndarray:
        return self.p.sum(axis=1)

    @property
    def py(self) -> np.ndarray:
        return self.p.sum(axis=0)

    def cond_y_given_z(self) -> np.ndarray:
        pz = self.pz
        out = np.zeros_like(self.p)
        nz = pz > 0
        out[nz] = self.p[nz] / pz[nz, None]
        return out

    def entropy_y(self) -> float:
        py = self.py
        mask = py > 0
        return float(-np.sum(py[mask] * np.log(py[mask])))


def random_joint(rng: np.random.Generator, nz: int, ny: int) -> JointTable:
    p = rng.exponential(size=(nz, ny))
    return JointTable(p / p.sum())


def true_mi(jt: JointTable) -> float:
    """Exact I(Z;Y) in nats; 0 log 0 := 0."""
    pz = jt.pz
    py = jt.py
    total = 0.0
    for i in range(jt.p.shape[0]):
        for j in range(jt.p.shape[1]):
            pij = jt.p[i, j]
            if pij > 0:
                total += pij * np.log(pij / (pz[i] * py[j]))
    return float(total)


# --- critics -----------------------------------------------------------------

def optimal_critic(jt: JointTable, offset: float = 0.0) -> np.ndarray:
    """h(z, y) = log p(y|z)/p(y) + offset (offset 1 gives the NWJ optimum).

    Entries impossible under the joint get a large negative score instead of
    -inf so exact summations stay finite.
    """
    cond = jt.cond_y_given_z()
    py = jt.py
    h = np.full(jt.p.shape, -50.0)
    ok = (cond > 0) & (py[None, :] > 0)
    h[ok] = np.log(cond[ok] / np.broadcast_to(py[None, :], jt.p.shape)[ok]) + offset
    return h


def critic_to_conditional(jt: JointTable, h: np.ndarray) -> np.ndarray:
    """Energy-based variational decoder: q(y|z) = p(y) e^h / Ztilde(z)."""
    w = jt.py[None, :] * np.exp(h)
    return w / w.sum(axis=1, keepdims=True)


# --- decoder lower bound / encoder upper bound --------------------------------

def i_dlb(jt: JointTable, q: np.ndarray) -> float:
    """E[log q(y|z)] + H(Y), summed over the joint."""
    q = np.asarray(q, dtype=np.float64)
    logq = np.log(np.maximum(q, 1e-300))
    return float(np.sum(jt.p * logq)) + jt.entropy_y()


def i_eub(mus, logvars) -> float:
    """Mean KL(N(mu, diag exp(logvar)) || N(0, I)) over the sample set."""
    mus = np.asarray(mus, dtype=np.float64)
    logvars = np.asarray(logvars, dtype=np.float64)
    kl = 0.5 * np.sum(mus ** 2 + np.exp(logvars) - logvars - 1.0, axis=-1)
    return float(np.mean(kl))


# --- multi-sample contrastive bound --------------------------------------------

@functools.lru_cache(maxsize=32)
def _compositions(total: int, parts: int) -> np.ndarray:
    """All count vectors of length `parts` summing to `total`, in lexicographic order.

    Stars and bars: the parts-1 bar positions among total+parts-1 slots, taken
    in lexicographic order, give the counts in lexicographic order. The array
    is cached and shared by every caller, so it is read-only.
    """
    slots = total + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=np.int64)
    counts = np.diff(np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots)), axis=1) - 1
    counts.setflags(write=False)
    return counts


def _log_multinomial_pmf(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    n = counts.sum(axis=1)
    log_factorial = np.array([math.lgamma(i + 1) for i in range(int(n.max()) + 1)])
    logp = np.where(probs > 0, np.log(np.maximum(probs, 1e-300)), -np.inf)
    term = np.where(counts > 0, counts * logp[None, :], 0.0)
    return (log_factorial[n] - log_factorial[counts].sum(axis=1) + term.sum(axis=1))


def i_nce(jt: JointTable, h: np.ndarray, K: int) -> float:
    """Exact expectation of the K-sample contrastive bound.

    E_{p(z,y)} E_{y_{2:K} iid p(y)} [ h(z,y) - log (1/K)(e^{h(z,y)} +
    sum_i e^{h(z,y_i)}) ]. The inner expectation depends on y_{2:K} only
    through the per-category counts, so it is summed over all multinomial
    count vectors of K-1 draws.
    """
    if K < 2:
        raise BatchTooSmallError(f"contrastive bound needs K >= 2, got {K}")
    h = np.asarray(h, dtype=np.float64)
    nz, ny = jt.p.shape
    counts = _compositions(K - 1, ny)
    log_pmf = _log_multinomial_pmf(counts, jt.py)
    pmf = np.exp(log_pmf)
    eh = np.exp(h)  # (nz, ny)

    total = float(np.sum(jt.p * h))
    for zi in range(nz):
        if jt.pz[zi] == 0:
            continue
        s = counts @ eh[zi]  # (ncomp,) background partition mass
        for yi in range(ny):
            pw = jt.p[zi, yi]
            if pw == 0:
                continue
            logm = np.log((eh[zi, yi] + s) / K)
            total -= pw * float(pmf @ logm)
    return total


# --- verification harness -------------------------------------------------------

def prop1_report(joints: Sequence[JointTable], k_list: Sequence[int],
                 tol: float = 1e-9,
                 critic_rng: Optional[np.random.Generator] = None) -> Dict:
    """Exact-mode ordering check: true MI >= DLB >= contrastive, NCE <= log K.

    For each joint the optimal critic is used (its energy-based decoder is the
    exact conditional, so DLB hits true MI); if ``critic_rng`` is given a
    random critic is also checked, since the chain holds for any critic.
    Violations are report entries; the harness passes only if there are none.
    A `tol` that is not a finite number >= 0 raises ValueError naming it,
    and so does an empty `joints` or `k_list`: a check of nothing passes.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    if not len(joints):
        raise ValueError("no joint tables to check")
    if not len(k_list):
        raise ValueError("no K values to check")
    entries: List[dict] = []
    violations: List[str] = []
    for ji, jt in enumerate(joints):
        critics = {"optimal": optimal_critic(jt)}
        if critic_rng is not None:
            critics["random"] = critic_rng.normal(scale=1.0, size=jt.p.shape)
        for cname, h in critics.items():
            q = critic_to_conditional(jt, h)
            mi = true_mi(jt)
            dlb = i_dlb(jt, q)
            for K in k_list:
                nce = i_nce(jt, h, K)
                entry = {
                    "joint": ji,
                    "critic": cname,
                    "K": K,
                    "true_mi": mi,
                    "i_dlb": dlb,
                    "i_nce": nce,
                    "log_k": float(np.log(K)),
                }
                if dlb > mi + tol:
                    violations.append(f"joint {ji} critic {cname}: i_dlb {dlb} > true_mi {mi}")
                if nce > mi + tol:
                    violations.append(f"joint {ji} critic {cname} K={K}: i_nce {nce} > true_mi {mi}")
                if cname == "optimal" and nce > dlb + tol:
                    # the decoder-bound dominance is a property of the matched
                    # (optimal) critic/decoder pair, not of arbitrary critics
                    violations.append(f"joint {ji} critic {cname} K={K}: i_nce {nce} > i_dlb {dlb}")
                if nce > np.log(K) + tol:
                    violations.append(f"joint {ji} critic {cname} K={K}: i_nce {nce} > log K")
                entries.append(entry)
    return {
        "mode": "exact",
        "tolerance": tol,
        "entries": entries,
        "violations": violations,
        "pass": not violations,
    }
