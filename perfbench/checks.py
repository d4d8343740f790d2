"""Output checks computed apart from the program, with numpy and the standard
library only.

Each check reads the files a CLI command wrote, recomputes the expected
result from the command's inputs with code of its own (its own container
reader, SMILES reader, GIN forward, probe, ranking and MI sums), and raises
CheckFailed on the first disagreement. Nothing here imports infoalign.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<4sIQQI")  # magic, version, meta_len, payload_len, crc32
_U64 = (1 << 64) - 1


class CheckFailed(Exception):
    """An output disagrees with the independently computed expectation."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# --- file readers ---------------------------------------------------------------

def read_container(path, magic: bytes):
    """Header, JSON metadata, then raw little-endian arrays (CTXG and IAPT files)."""
    raw = Path(path).read_bytes()
    _require(len(raw) >= _HEADER.size, f"{path}: shorter than its header")
    got, _version, meta_len, payload_len, crc = _HEADER.unpack_from(raw)
    _require(got == magic, f"{path}: magic {got!r}, expected {magic!r}")
    body = raw[_HEADER.size:]
    _require(len(body) == meta_len + payload_len, f"{path}: length mismatch")
    _require(zlib.crc32(body) & 0xFFFFFFFF == crc, f"{path}: crc mismatch")
    meta = json.loads(body[:meta_len].decode("utf-8"))
    arrays, offset = [], meta_len
    for spec in meta["__arrays__"]:
        dtype = np.dtype(spec["dtype"])
        count = math.prod(spec["shape"])
        arrays.append(np.frombuffer(body, dtype=dtype, count=count, offset=offset)
                      .reshape(spec["shape"]).astype(np.float64))
        offset += dtype.itemsize * count
    return meta, arrays


def read_checkpoint(path) -> dict:
    meta, arrays = read_container(path, b"IAPT")
    return dict(zip(meta["names"], arrays))  # params come first, then Adam moments


def read_graph_edges(path) -> list:
    meta, _ = read_container(path, b"CTXG")
    return [(a, b, rel, float(w)) for a, b, rel, w in meta["edges"]]


def read_node_table(path):
    """Rows of (id, kind, payload): the SMILES for molecules, raw floats otherwise."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        payload = cols[3] if cols[1] == "molecule" else [float(c) for c in cols[3:]]
        rows.append((cols[0], cols[1], payload))
    return rows


def read_edge_table(path):
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        a, b, rel, w = line.split("\t")
        out.append((a, b, rel, 1.0 if rel == "perturbation" else float(w)))
    return out


def read_floats_tsv(path) -> np.ndarray:
    rows = [[float(c) for c in line.split("\t")]
            for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
    return np.array(rows, dtype=np.float64)


def read_smiles(path) -> list:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line.split()[0])
    return out


# --- context graph ---------------------------------------------------------------

def _pair(a, b):
    return (a, b) if a <= b else (b, a)


def _scaled_features(rows, kind):
    """Per-column min-max scaling, stored as float32 like the graph's features."""
    ids = [r[0] for r in rows if r[1] == kind]
    x = np.array([r[2] for r in rows if r[1] == kind], dtype=np.float64)
    lo, span = x.min(axis=0), x.max(axis=0) - x.min(axis=0)
    out = np.zeros_like(x)
    live = span > 0
    out[:, live] = (x[:, live] - lo[live]) / span[live]
    return ids, np.clip(out, 0.0, 1.0).astype(np.float32).astype(np.float64)


def expected_similarity(rows, kind, threshold, keep_fraction, tol=1e-12):
    """Vectorised oracle for one kind's similarity edges.

    Returns (kept {pair: weight}, ambiguous pairs): pairs whose similarity lies
    within tol of the threshold or of the keep cut may fall either way.
    """
    ids, f = _scaled_features(rows, kind)
    n = len(ids)
    if n < 2:
        return {}, set()
    norms = np.linalg.norm(f, axis=1)
    ok = norms > 0
    unit = np.zeros_like(f)
    unit[ok] = f[ok] / norms[ok, None]
    iu, ju = np.triu_indices(n, 1)
    s = np.minimum((unit @ unit.T)[iu, ju], 1.0)
    s[s >= 1.0 - 1e-12] = 1.0
    cand = ok[iu] & ok[ju] & (s >= threshold - tol)
    iu, ju, s = iu[cand], ju[cand], s[cand]
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=ids.__getitem__)] = np.arange(n)
    lo, hi = np.minimum(rank[iu], rank[ju]), np.maximum(rank[iu], rank[ju])
    order = np.lexsort((hi, lo, -s))
    iu, ju, s = iu[order], ju[order], s[order]
    strict = s >= threshold
    keep = math.ceil(keep_fraction * (n * (n - 1) // 2))
    kept_idx = np.flatnonzero(strict)[:keep]
    ambiguous_mask = np.abs(s - threshold) <= tol
    if strict.sum() > keep:
        cut = s[kept_idx[-1]]
        ambiguous_mask |= np.abs(s - cut) <= tol
    kept = {_pair(ids[iu[k]], ids[ju[k]]): float(s[k]) for k in kept_idx}
    ambiguous = {_pair(ids[iu[k]], ids[ju[k]]) for k in np.flatnonzero(ambiguous_mask)}
    return kept, ambiguous


def check_graph(graph_path, nodes_path, edges_path, similarity_kinds,
                threshold=0.8, keep_fraction=0.005, tol=1e-12):
    """The saved graph's edge set equals the tables' edges plus the oracle's
    similarity edges."""
    rows = read_node_table(nodes_path)
    got = {}
    for a, b, rel, w in read_graph_edges(graph_path):
        got[(a, b, rel)] = w
    expected = {}
    for a, b, rel, w in read_edge_table(edges_path):
        expected[_pair(a, b) + (rel,)] = w
    ambiguous = set()
    for kind in similarity_kinds:
        kept, amb = expected_similarity(rows, kind, threshold, keep_fraction, tol)
        ambiguous |= amb
        for (a, b), s in kept.items():
            expected.setdefault((a, b, "similarity"), s)
    sim_got = sum(1 for k in got if k[2] == "similarity")
    sim_exp = sum(1 for k in expected if k[2] == "similarity")
    _require(sim_got == sim_exp, f"{sim_got} similarity edges, oracle keeps {sim_exp}")
    for key in set(got) ^ set(expected):
        _require(key[2] == "similarity" and key[:2] in ambiguous,
                 f"edge {key} {'unexpected' if key in got else 'missing'}")
    for key in set(got) & set(expected):
        _require(abs(got[key] - expected[key]) <= tol,
                 f"edge {key} weight {got[key]!r}, oracle {expected[key]!r}")


# --- walks -------------------------------------------------------------------------

def effective_adjacency(edges) -> dict:
    adj = {}
    for a, b, _rel, w in edges:
        for u, v in ((a, b), (b, a)):
            nb = adj.setdefault(u, {})
            nb[v] = max(w, nb.get(v, 0.0))
    return adj


def check_walks(walks_path, graph_path, starts, walks_per_start, length):
    """Every step follows a graph edge at its maximum weight and the alphas are
    the running products."""
    adj = effective_adjacency(read_graph_edges(graph_path))
    lines = Path(walks_path).read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "start\twalk\tnodes\tweights\talphas\ttruncated", "bad walk header")
    rows = lines[1:]
    _require(len(rows) == len(starts) * walks_per_start,
             f"{len(rows)} walks, expected {len(starts)} x {walks_per_start}")
    for i, row in enumerate(rows):
        start, walk, nodes, weights, alphas, truncated = row.split("\t")
        nodes = nodes.split("|")
        weights = weights.split("|") if weights else []
        alphas = alphas.split("|") if alphas else []
        _require(start == starts[i // walks_per_start] and walk == str(i % walks_per_start)
                 and nodes[0] == start, f"walk {i}: wrong start or index")
        _require(len(weights) == len(alphas) == len(nodes) - 1, f"walk {i}: ragged row")
        short = len(nodes) < length
        _require(len(nodes) <= length and truncated == ("1" if short else "0"),
                 f"walk {i}: {len(nodes)} nodes with truncated={truncated}")
        _require(not short or not adj.get(nodes[-1]), f"walk {i}: truncated off a dead end")
        acc = 1.0
        for k, (u, v) in enumerate(zip(nodes, nodes[1:])):
            w = adj.get(u, {}).get(v)
            _require(w is not None, f"walk {i}: step {u}->{v} is not an edge")
            acc *= w
            _require(weights[k] == f"{w:.12g}" and alphas[k] == f"{acc:.12g}",
                     f"walk {i}: step {k} weight/alpha {weights[k]}/{alphas[k]}, "
                     f"expected {w:.12g}/{acc:.12g}")


def count_walk_steps(walks_path) -> int:
    rows = Path(walks_path).read_text(encoding="utf-8").splitlines()[1:]
    return sum(row.split("\t")[2].count("|") for row in rows)


# --- GIN encoder -------------------------------------------------------------------

_ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
_AROMATIC = "bcnops"
_BONDS = {"-": 0, "=": 1, "#": 2, ":": 3}
_ATOM_DIM = len(_ELEMENTS) + 5 + 1 + 6


def smiles_graph(smi: str):
    """Atoms (element, charge, aromatic) and bonds (a, b, code) in creation order."""
    atoms, bonds = [], []
    prev, branches, rings, pending = None, [], {}, None

    def bond(a, b, code):
        if code is None:
            code = 3 if atoms[a][2] and atoms[b][2] else 0
        bonds.append((min(a, b), max(a, b), code))

    def attach(atom):
        nonlocal prev, pending
        atoms.append(atom)
        if prev is not None:
            bond(prev, len(atoms) - 1, pending)
        prev, pending = len(atoms) - 1, None

    i = 0
    while i < len(smi):
        ch = smi[i]
        if ch == "(":
            branches.append(prev)
        elif ch == ")":
            prev = branches.pop()
        elif ch in _BONDS:
            pending = _BONDS[ch]
        elif ch.isdigit() or ch == "%":
            num = int(smi[i + 1:i + 3] if ch == "%" else ch)
            i += 2 if ch == "%" else 0
            if num in rings:
                other, code = rings.pop(num)
                bond(prev, other, pending if pending is not None else code)
            else:
                rings[num] = (prev, pending)
            pending = None
        elif ch == "[":
            end = smi.index("]", i)
            body = smi[i + 1:end]
            sym = body[:2] if body[:2] in ("Cl", "Br") else body[0]
            rest = body[len(sym):].lstrip("H0123456789")
            charge = 0
            if rest:
                sign = 1 if rest[0] == "+" else -1
                digits = rest.lstrip("+-")
                charge = sign * (int(digits) if digits else len(rest))
            attach((sym.capitalize() if sym in _AROMATIC else sym, charge, sym in _AROMATIC))
            i = end
        elif smi.startswith(("Cl", "Br"), i):
            attach((smi[i:i + 2], 0, False))
            i += 1
        elif ch in _ELEMENTS:
            attach((ch, 0, False))
        elif ch in _AROMATIC:
            attach((ch.upper(), 0, True))
        else:
            raise CheckFailed(f"oracle SMILES reader cannot read {smi!r}")
        i += 1
    return atoms, bonds


def _mlp(params, prefix, h):
    i = 0
    while f"{prefix}.w{i}" in params:
        h = h @ params[f"{prefix}.w{i}"] + params[f"{prefix}.b{i}"]
        if f"{prefix}.w{i + 1}" in params:
            h = np.maximum(h, 0.0)
        i += 1
    return h


def gin_mu(params: dict, smi: str) -> np.ndarray:
    """Posterior mean of the sum-readout GIN, from checkpoint arrays."""
    atoms, bonds = smiles_graph(smi)
    n = len(atoms)
    degree = np.zeros(n, dtype=np.int64)
    for a, b, _ in bonds:
        degree[a] += 1
        degree[b] += 1
    x = np.zeros((n, _ATOM_DIM))
    for k, (element, charge, aromatic) in enumerate(atoms):
        x[k, _ELEMENTS.index(element)] = 1.0
        x[k, len(_ELEMENTS) + min(max(charge, -2), 2) + 2] = 1.0
        x[k, len(_ELEMENTS) + 5] = float(aromatic)
        x[k, len(_ELEMENTS) + 6 + min(degree[k], 5)] = 1.0
    src = np.array([v for a, b, _ in bonds for v in (a, b)], dtype=np.intp)
    dst = np.array([v for a, b, _ in bonds for v in (b, a)], dtype=np.intp)
    code = np.array([c for _, _, c in bonds for _ in (0, 1)], dtype=np.intp)
    h = x @ params["atom_embed"]
    layer = 0
    while f"gin.l{layer}.w0" in params:
        if len(src):
            agg = np.zeros_like(h)
            np.add.at(agg, dst, h[src] + params[f"bond_embed.l{layer}"][code])
            h = agg + h
        h = _mlp(params, f"gin.l{layer}", h)
        layer += 1
    return _mlp(params, "head_mu", h.sum(axis=0, keepdims=True))[0]


def gin_embeddings(checkpoint_path, smiles_path) -> np.ndarray:
    params = read_checkpoint(checkpoint_path)
    return np.stack([gin_mu(params, s) for s in read_smiles(smiles_path)])


def check_embeddings(emb_path, expected: np.ndarray, rel=1e-10):
    got = read_floats_tsv(emb_path)
    _require(got.shape == expected.shape, f"embedding shape {got.shape}, expected {expected.shape}")
    err = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
    bad = np.argwhere(err > rel)
    _require(not len(bad), f"embedding row {bad[0][0] if len(bad) else -1} differs "
                           f"from the plain-numpy GIN by {err.max():.3g}")


# --- probe ----------------------------------------------------------------------------

def split_indices(n, seed, ratios=(0.6, 0.15, 0.25)):
    rng = np.random.Generator(np.random.Philox(key=[seed & _U64, 0]))
    perm = rng.permutation(n)
    n_train = max(1, min(int(round(ratios[0] * n)), n - 2))
    n_valid = max(1, min(int(round(ratios[1] * n)), n - n_train - 1))
    return (np.sort(perm[:n_train]), np.sort(perm[n_train:n_train + n_valid]),
            np.sort(perm[n_train + n_valid:]))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -36.7, 36.7)))


def linear_probe(x, y, seed, epochs=200, lr=0.05):
    """Full-batch Adam on the mean BCE of a linear head; returns (W, b)."""
    d, t = x.shape[1], y.shape[1]
    rng = np.random.Generator(np.random.Philox(key=[seed & _U64, 0]))
    limit = np.sqrt(6.0 / (d + t))
    params = [rng.uniform(-limit, limit, size=(d, t)), np.zeros(t)]
    moments = [[np.zeros_like(p), np.zeros_like(p)] for p in params]
    inv = 1.0 / max(float(y.size), 1.0)
    for step in range(1, epochs + 1):
        z = x @ params[0] + params[1]
        g = np.full_like(z, inv)
        dz = g * _sigmoid(z) + (-g) * y
        for p, (m, v), grad in zip(params, moments, (x.T @ dz, dz.sum(axis=0))):
            m[...] = 0.9 * m + (1 - 0.9) * grad
            v[...] = 0.999 * v + (1 - 0.999) * grad * grad
            p -= lr * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    return params


def pairwise_auc(scores, labels):
    """O(n^2) count: positive above negative scores 1, a tie 1/2. None for one class."""
    pos, neg = scores[labels == 1], scores[labels != 1]
    if not len(pos) or not len(neg):
        return None
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / (len(pos) * len(neg)))


def probe_aucs(emb_path, labels_path, seed):
    """Oracle valid and test AUCs per task for `infoalign eval` defaults."""
    x, y = read_floats_tsv(emb_path), read_floats_tsv(labels_path)
    tr, va, te = split_indices(len(x), seed)
    w, b = linear_probe(x[tr], y[tr], seed)
    out = {}
    for name, idx in (("valid", va), ("test", te)):
        pred = _sigmoid(x[idx] @ w + b)
        out[name] = [pairwise_auc(pred[:, t], y[idx, t]) for t in range(y.shape[1])]
    return out


def check_probe(report_path, emb_path, labels_path, seed, tol=1e-9):
    """The eval report's AUCs equal the pairwise AUCs of an oracle probe."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    oracle = probe_aucs(emb_path, labels_path, seed)
    for split, aucs in oracle.items():
        got = [t["auc"] for t in report[split]["per_task"]]
        same = [g == a if g is None or a is None else abs(g - a) <= tol
                for g, a in zip(got, aucs)]
        _require(len(got) == len(aucs) and all(same),
                 f"{split} AUCs {got} differ from the oracle's {aucs}")


def check_losses(log_path, epochs):
    rows = Path(log_path).read_text(encoding="utf-8").splitlines()[1:]
    totals = [float(r.split("\t")[1]) for r in rows]
    _require(len(totals) == epochs, f"{len(totals)} epoch rows, expected {epochs}")
    _require(all(math.isfinite(t) for t in totals), f"non-finite loss in {totals}")
    _require(totals[0] > totals[-1], f"loss did not fall: {totals[0]} -> {totals[-1]}")


# --- zero-shot matching -----------------------------------------------------------------

def check_match(report_path, checkpoint_path, mu, candidates_path, true_ids_path, ks=(1, 10)):
    """Ranks from the oracle's decoder log-likelihood, ties broken by id."""
    params = read_checkpoint(checkpoint_path)
    rows = [line.split("\t") for line in
            Path(candidates_path).read_text(encoding="utf-8").splitlines() if line]
    ids = [r[0] for r in rows]
    cand = np.array([[float(v) for v in r[1:]] for r in rows])
    true_ids = read_smiles(true_ids_path)
    logits = _mlp(params, f"dec.cell_morphology.{cand.shape[1]}", mu)
    scores = logits @ cand.T - np.logaddexp(0.0, logits).sum(axis=1, keepdims=True)
    id_rank = {cid: k for k, cid in enumerate(sorted(ids))}
    ranks = []
    for q, tid in enumerate(true_ids):
        t = ids.index(tid)
        s = scores[q]
        ties = sum(1 for c in np.flatnonzero(s == s[t]) if id_rank[ids[c]] < id_rank[tid])
        ranks.append(int((s > s[t]).sum()) + ties + 1)
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    _require(report["ranks"] == ranks, "match ranks differ from the oracle's")
    r = np.array(ranks, dtype=np.float64)
    for k in ks:
        ndcg = float(np.mean(np.where(r <= k, 1.0 / np.log2(1.0 + r), 0.0)))
        hit = float(np.mean(r <= k))
        _require(abs(report["ndcg"][str(k)] - ndcg) <= 1e-12
                 and abs(report["hit"][str(k)] - hit) <= 1e-12,
                 f"NDCG/HIT@{k} differ from the oracle's")


# --- mutual-information bounds -----------------------------------------------------

def _count_vectors(total, parts):
    """All count vectors of `parts` categories summing to `total` (stars and bars)."""
    rows = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        rows.append([edges[k + 1] - edges[k] - 1 for k in range(parts)])
    return np.array(rows, dtype=np.float64)


def exact_nce(p, K):
    """Exact K-sample contrastive bound with the optimal critic log p(y|z)/p(y)."""
    py = p.sum(axis=0)
    h = np.log(p / p.sum(axis=1, keepdims=True) / py[None, :])
    counts = _count_vectors(K - 1, p.shape[1])
    log_coef = (math.lgamma(K) - np.array([sum(math.lgamma(c + 1) for c in row)
                                           for row in counts]))
    pmf = np.exp(log_coef + counts @ np.log(py))
    eh = np.exp(h)
    total = float(np.sum(p * h))
    for z in range(p.shape[0]):
        background = counts @ eh[z]
        for y in range(p.shape[1]):
            total -= p[z, y] * float(pmf @ np.log((eh[z, y] + background) / K))
    return float(total)


def check_mi(report_path, seed, num_joints=20, nz=4, ny=4, ks=(2, 8, 32), tol=1e-9):
    """Every entry recomputed from its joint table, and the bound ordering."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    entries = report["entries"]
    _require(report["pass"] and len(entries) == num_joints * len(ks),
             f"{len(entries)} entries, pass={report['pass']}")
    rng = np.random.Generator(np.random.Philox(key=[seed & _U64, 0]))
    for j in range(num_joints):
        p = rng.exponential(size=(nz, ny))
        p = p / p.sum()
        pz, py = p.sum(axis=1), p.sum(axis=0)
        mi = float(np.sum(p * np.log(p / np.outer(pz, py))))
        dlb = float(np.sum(p * np.log(p / pz[:, None]))) - float(np.sum(py * np.log(py)))
        for k_idx, K in enumerate(ks):
            e = entries[j * len(ks) + k_idx]
            nce = exact_nce(p, K)
            expect = {"true_mi": mi, "i_dlb": dlb, "i_nce": nce, "log_k": math.log(K)}
            _require(e["joint"] == j and e["K"] == K, f"entry order differs at joint {j} K={K}")
            for key, v in expect.items():
                _require(abs(e[key] - v) <= tol, f"joint {j} K={K}: {key} {e[key]!r}, oracle {v!r}")
            _require(e["true_mi"] + tol >= e["i_dlb"] and e["i_dlb"] + tol >= e["i_nce"]
                     and e["i_nce"] <= e["log_k"] + tol, f"joint {j} K={K}: bound order broken")
