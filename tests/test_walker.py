"""Walker tests: alpha products, statistical transition checks against exact
probabilities, a Markov-chain position oracle, and determinism."""

import numpy as np
import pytest
from scipy.stats import chisquare

from infoalign.ctxgraph import ContextGraph, NodeKind, NodeRecord, Relation
from infoalign.errors import IsolatedNodeError, NotAMoleculeError
from infoalign.diffcore import seeded_rng
import infoalign.walker as walker
from infoalign.walker import WalkConfig, WalkPath, batch_walks, sample_walk, transition


def feat(v=0.5):
    return np.array([v], dtype=np.float32)


def line_graph(weights):
    """m0 - c0 - c1 - ... chain with given edge weights; start is a molecule."""
    g = ContextGraph()
    g.add_node(NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    prev = "m0"
    for i, w in enumerate(weights):
        nid = f"c{i}"
        g.add_node(NodeRecord(nid, NodeKind.CELL_MORPHOLOGY, feat()))
        g.add_edge(prev, nid, Relation.SIMILARITY, w)
        prev = nid
    return g.finalize()


def star_graph(weights):
    g = ContextGraph()
    g.add_node(NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    for i, w in enumerate(weights):
        nid = f"c{i}"
        g.add_node(NodeRecord(nid, NodeKind.CELL_MORPHOLOGY, feat()))
        g.add_edge("m0", nid, Relation.SIMILARITY, w)
    return g.finalize()


# --- WalkPath invariants ----------------------------------------------------------

def test_alpha_cumulative_product():
    p = WalkPath(["a", "b", "c", "d"], [1.0, 0.8, 0.5])
    assert p.alphas == pytest.approx([1.0, 0.8, 0.4], abs=1e-15)
    assert p.targets() == [("b", 1.0), ("c", pytest.approx(0.8)), ("d", pytest.approx(0.4))]


def test_alpha_high_precision_oracle():
    """alphas match an independent high-precision running product to 1e-12."""
    from decimal import Decimal
    rng = np.random.default_rng(2)
    for _ in range(50):
        ws = rng.uniform(0.1, 1.0, size=6)
        p = WalkPath([f"n{i}" for i in range(7)], list(ws))
        acc = Decimal(1)
        for i, w in enumerate(ws):
            acc *= Decimal(repr(float(w)))
            assert abs(p.alphas[i] - float(acc)) < 1e-12
        assert all(a <= b + 1e-15 for a, b in zip(p.alphas[1:], p.alphas[:-1]))


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(length=1)


# --- transition --------------------------------------------------------------------

def test_single_neighbor_deterministic():
    g = line_graph([0.7])
    rng = seeded_rng(0, 0)
    for _ in range(10):
        nxt, w = transition(g, "m0", rng)
        assert nxt == "c0" and w == pytest.approx(0.7)


def test_isolated_node():
    g = ContextGraph()
    g.add_node(NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    g.finalize()
    with pytest.raises(IsolatedNodeError):
        transition(g, "m0", seeded_rng(0, 0))


def test_transition_weight_proportional_frequencies():
    """Weights 0.9/0.3 -> probabilities 0.75/0.25, binomial 3-sigma check."""
    g = star_graph([0.9, 0.3])
    rng = seeded_rng(42, 0)
    n = 100_000
    hits = sum(transition(g, "m0", rng)[0] == "c0" for _ in range(n))
    p = 0.75
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(hits - n * p) < 3 * sigma


def test_transition_chi_square_many_weights():
    """Chi-square goodness of fit at p > 0.001 over 1e5 draws."""
    weights = [0.9, 0.5, 0.25, 0.1, 0.05]
    g = star_graph(weights)
    rng = seeded_rng(7, 0)
    n = 100_000
    counts = {f"c{i}": 0 for i in range(len(weights))}
    for _ in range(n):
        counts[transition(g, "m0", rng)[0]] += 1
    total = sum(weights)
    expected = [n * w / total for w in weights]
    _, pval = chisquare([counts[f"c{i}"] for i in range(len(weights))], expected)
    assert pval > 0.001


def test_uniform_mode():
    g = star_graph([0.9, 0.1])
    rng = seeded_rng(3, 0)
    n = 50_000
    hits = sum(transition(g, "m0", rng, weight_proportional=False)[0] == "c0"
               for _ in range(n))
    sigma = (n * 0.25) ** 0.5
    assert abs(hits - n * 0.5) < 3 * sigma


# --- sample_walk --------------------------------------------------------------------

def test_walk_structure_and_alphas():
    g = line_graph([1.0, 0.8, 0.5])
    cfg = WalkConfig(length=4)
    p = sample_walk(g, "m0", cfg, seeded_rng(0, 0))
    assert len(p.nodes) == 4
    assert len(p.edge_weights) == 3
    # on a line the first step is forced: alphas follow the traversed weights
    for i in range(len(p.alphas)):
        assert p.alphas[i] == pytest.approx(float(np.prod(p.edge_weights[: i + 1])), abs=1e-15)
        assert 0 < p.alphas[i] <= 1


def test_walk_length_two_perturbation():
    g = ContextGraph()
    g.add_node(NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    g.add_node(NodeRecord("c0", NodeKind.CELL_MORPHOLOGY, feat()))
    g.add_perturbation_edge("m0", "c0")
    g.finalize()
    p = sample_walk(g, "m0", WalkConfig(length=2), seeded_rng(0, 0))
    assert p.targets() == [("c0", 1.0)]


def test_walk_start_must_be_molecule():
    g = line_graph([0.5])
    with pytest.raises(NotAMoleculeError):
        sample_walk(g, "c0", WalkConfig(length=2), seeded_rng(0, 0))


def test_position_distribution_matches_markov_chain():
    """Node distribution per path position matches the exact chain within 3 sigma."""
    # 5-node line: m0 - c0 - c1 - c2 - c3 with non-uniform weights
    weights = [1.0, 0.6, 0.9, 0.3]
    g = line_graph(weights)
    ids = ["m0", "c0", "c1", "c2", "c3"]
    index = {nid: i for i, nid in enumerate(ids)}
    # exact transition matrix (weight-proportional over effective neighbors)
    T = np.zeros((5, 5))
    for i, nid in enumerate(ids):
        nbrs = g.neighbors(nid)
        total = sum(w for _, w in nbrs)
        for other, w in nbrs:
            T[i, index[other]] = w / total
    n_walks = 10_000
    length = 4
    counts = np.zeros((length, 5))
    rng = seeded_rng(11, 0)
    for _ in range(n_walks):
        p = sample_walk(g, "m0", WalkConfig(length=length), rng)
        for pos, nid in enumerate(p.nodes):
            counts[pos, index[nid]] += 1
    dist = np.zeros(5)
    dist[0] = 1.0
    for pos in range(length):
        for j in range(5):
            pj = dist[j]
            sigma = max((n_walks * pj * (1 - pj)) ** 0.5, 1e-9)
            assert abs(counts[pos, j] - n_walks * pj) <= 3.5 * sigma, (pos, j)
        dist = dist @ T


# --- batch_walks ---------------------------------------------------------------------

def branching_graph():
    g = ContextGraph()
    for i in range(4):
        g.add_node(NodeRecord(f"m{i}", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    for i in range(6):
        g.add_node(NodeRecord(f"c{i}", NodeKind.CELL_MORPHOLOGY, feat()))
    rng = np.random.default_rng(0)
    for i in range(4):
        for j in range(6):
            if rng.random() < 0.7:
                g.add_edge(f"m{i}", f"c{j}", Relation.SIMILARITY,
                           float(rng.uniform(0.2, 1.0)))
    return g.finalize()


def test_batch_determinism():
    g = branching_graph()
    starts = ["m0", "m1", "m2", "m3"]
    cfg = WalkConfig(length=4, walks_per_molecule=3, seed=9)
    w1 = batch_walks(g, starts, cfg)
    w2 = batch_walks(g, starts, cfg)
    assert [p.nodes for p in w1] == [p.nodes for p in w2]
    assert [p.edge_weights for p in w1] == [p.edge_weights for p in w2]


def test_batch_seed_sensitivity():
    g = branching_graph()
    starts = ["m0", "m1", "m2", "m3"]
    a = batch_walks(g, starts, WalkConfig(length=4, walks_per_molecule=3, seed=1))
    b = batch_walks(g, starts, WalkConfig(length=4, walks_per_molecule=3, seed=2))
    assert [p.nodes for p in a] != [p.nodes for p in b]


def test_batch_empty_and_grouping():
    g = branching_graph()
    assert batch_walks(g, [], WalkConfig()) == []
    walks = batch_walks(g, ["m0", "m1"], WalkConfig(length=3, walks_per_molecule=2, seed=0))
    assert len(walks) == 4
    assert walks[0].nodes[0] == "m0" and walks[1].nodes[0] == "m0"
    assert walks[2].nodes[0] == "m1" and walks[3].nodes[0] == "m1"


def test_per_start_streams_order_stable():
    """A start's walks do not depend on its position in the starts list."""
    g = branching_graph()
    cfg = WalkConfig(length=4, walks_per_molecule=2, seed=5)
    solo = batch_walks(g, ["m2"], cfg)
    # stream is keyed by start index, so m2 first in any list gives the same walks
    mixed = batch_walks(g, ["m2", "m0"], cfg)
    assert [p.nodes for p in mixed[:2]] == [p.nodes for p in solo]


def test_dead_end_truncation():
    g = ContextGraph()
    g.add_node(NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    g.add_node(NodeRecord("c0", NodeKind.CELL_MORPHOLOGY, feat()))
    # The graph is undirected, so a degree-1 node is never a dead end: the
    # walk bounces back instead of truncating.
    g.add_perturbation_edge("m0", "c0")
    g.finalize()
    p = sample_walk(g, "m0", WalkConfig(length=5), seeded_rng(0, 0))
    assert len(p.nodes) == 5 and not p.truncated  # bouncing is allowed


def reference_transition(g, current, rng, weight_proportional=True):
    """The transition that rebuilt the weight array and its cumsum every step."""
    nbrs = g.neighbors(current)
    if not nbrs:
        raise IsolatedNodeError(f"node {current!r} has no neighbors")
    weights = np.array([w for _, w in nbrs], dtype=np.float64)
    if weight_proportional:
        cdf = np.cumsum(weights)
        idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
        idx = min(idx, len(nbrs) - 1)
    else:
        idx = int(rng.integers(len(nbrs)))
    return nbrs[idx][0], nbrs[idx][1]


def many_weights_graph():
    """30 molecules and 40 profiles, each node with several neighbors whose
    weights are all distinct."""
    rng = np.random.default_rng(123)
    g = ContextGraph()
    mols = [f"m{i}" for i in range(30)]
    profs = [f"p{i}" for i in range(40)]
    for m in mols:
        g.add_node(NodeRecord(m, NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    for p in profs:
        g.add_node(NodeRecord(p, NodeKind.CELL_MORPHOLOGY, feat()))
    nodes = mols + profs
    for a in nodes:
        for b in rng.choice(nodes, size=int(rng.integers(2, 9)), replace=False):
            if a != b:
                g.add_edge(a, str(b), Relation.SIMILARITY, float(rng.uniform(1e-3, 1.0)))
    return g.finalize(), mols


@pytest.mark.parametrize("weight_proportional", [True, False])
def test_batch_walks_match_reference_transition(monkeypatch, weight_proportional):
    g, mols = many_weights_graph()
    weights = [w for m in mols for _, w in g.neighbors(m)]
    assert len(set(weights)) > 100
    runs = {}
    for step in (transition, reference_transition):
        monkeypatch.setattr(walker, "transition", step)
        runs[step] = [batch_walks(g, mols, WalkConfig(length=6, walks_per_molecule=3, seed=seed,
                                                      weight_proportional=weight_proportional))
                      for seed in range(20)]
    for got, want in zip(runs[transition], runs[reference_transition]):
        assert [p.nodes for p in got] == [p.nodes for p in want]
        assert [p.edge_weights for p in got] == [p.edge_weights for p in want]
        assert [p.alphas for p in got] == [p.alphas for p in want]
        assert [p.truncated for p in got] == [p.truncated for p in want]


def test_load_then_walk_parses_no_smiles(tmp_path, monkeypatch):
    import infoalign.ctxgraph as ctxgraph

    g, mols = many_weights_graph()
    path = tmp_path / "g.ctxg"
    g.save(path)
    want = batch_walks(g, mols, WalkConfig(length=5, walks_per_molecule=2, seed=4))

    def no_parse(smiles):
        raise AssertionError(f"parse_smiles({smiles!r}) called")

    monkeypatch.setattr(ctxgraph, "parse_smiles", no_parse)
    loaded = ContextGraph.load(path)
    got = batch_walks(loaded, mols, WalkConfig(length=5, walks_per_molecule=2, seed=4))
    assert [p.nodes for p in got] == [p.nodes for p in want]
    assert [p.alphas for p in got] == [p.alphas for p in want]
    assert all(loaded.node(m).mol is None for m in mols)
