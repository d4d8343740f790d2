"""Walker tests: alpha products, statistical transition checks against exact
probabilities, a Markov-chain position oracle, determinism, and equality
with a per-step oracle walker (`transition` and `sample_walk` below, one
walk and one step at a time over neighbor lists built from the graph's stored
edges)."""

import bisect
import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from infoalign.cli import main
from infoalign.ctxgraph import ContextGraph, NodeKind, NodeRecord, Relation
from infoalign.errors import NotAMoleculeError
from infoalign.diffcore import seeded_rng
from infoalign.walker import WalkConfig, WalkPath, batch_walks
from tests.oracles import add_edge, add_node, neighbors, stored_edges, walk_targets


# --- the per-step oracle ---------------------------------------------------------

def effective_neighbors(g):
    """node id -> [(neighbor id, max weight over the pair's relations)] in id order."""
    nbrs = {nid: {} for nid in g.node_ids()}
    for (a, b, _relation), weight in stored_edges(g).items():
        for x, y in ((a, b), (b, a)):
            nbrs[x][y] = max(weight, nbrs[x].get(y, 0.0))
    return {nid: sorted(d.items()) for nid, d in nbrs.items()}


def transition(nbrs, current, rng, uniform=False):
    """One step from `current`, which has neighbors: (next node id, traversed
    weight), from one rng.random() draw."""
    row = nbrs[current]
    n = len(row)
    u = rng.random()
    if uniform:
        idx = min(int(u * n), n - 1)
    else:
        cdf = list(itertools.accumulate(w for _, w in row))
        idx = min(bisect.bisect_right(cdf, u * cdf[-1]), n - 1)
    return row[idx]


def sample_walk(g, nbrs, start, cfg, rng):
    """Walk cfg.length nodes from a molecule; a dead end truncates the path."""
    if g.node(start).kind is not NodeKind.MOLECULE:
        raise NotAMoleculeError(start)
    nodes, weights, truncated = [start], [], False
    while len(nodes) < cfg.length:
        if not nbrs[nodes[-1]]:
            truncated = True
            break
        nxt, w = transition(nbrs, nodes[-1], rng, cfg.uniform)
        nodes.append(nxt)
        weights.append(w)
    return WalkPath(nodes, weights, truncated=truncated)


def oracle_batch_walks(g, starts, cfg):
    nbrs = effective_neighbors(g)
    out = []
    for idx, start in enumerate(starts):
        rng = seeded_rng(cfg.seed, idx)
        for _ in range(cfg.walks_per_molecule):
            out.append(sample_walk(g, nbrs, start, cfg, rng))
    return out


def assert_same_walks(got, want):
    assert len(got) == len(want)
    assert [p.nodes for p in got] == [p.nodes for p in want]
    assert [p.edge_weights for p in got] == [p.edge_weights for p in want]
    assert [p.alphas for p in got] == [p.alphas for p in want]
    assert [p.truncated for p in got] == [p.truncated for p in want]


def second_nodes(g, start, cfg):
    """The node ids each walk of `start` steps to first."""
    walks = batch_walks(g, [start], cfg)
    return [walks.ids[j] for j in walks.nodes[:, 1].tolist()]


def feat(v=0.5):
    return np.array([v], dtype=np.float32)


def line_graph(weights):
    """m0 - c0 - c1 - ... chain with given edge weights; start is a molecule."""
    g = ContextGraph()
    add_node(g, NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    prev = "m0"
    for i, w in enumerate(weights):
        nid = f"c{i}"
        add_node(g, NodeRecord(nid, NodeKind.CELL_MORPHOLOGY, feat()))
        add_edge(g, prev, nid, Relation.SIMILARITY, w)
        prev = nid
    return g.finalize()


def star_graph(weights):
    g = ContextGraph()
    add_node(g, NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    for i, w in enumerate(weights):
        nid = f"c{i}"
        add_node(g, NodeRecord(nid, NodeKind.CELL_MORPHOLOGY, feat()))
        add_edge(g, "m0", nid, Relation.SIMILARITY, w)
    return g.finalize()


# --- WalkPath invariants ----------------------------------------------------------

def test_alpha_cumulative_product():
    p = WalkPath(["a", "b", "c", "d"], [1.0, 0.8, 0.5])
    assert p.alphas == pytest.approx([1.0, 0.8, 0.4], abs=1e-15)
    assert walk_targets(p) == [("b", 1.0), ("c", pytest.approx(0.8)), ("d", pytest.approx(0.4))]


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
    walks = batch_walks(g, ["m0"], WalkConfig(length=2, walks_per_molecule=10))
    for p in walks:
        assert p.nodes == ["m0", "c0"] and p.edge_weights == [pytest.approx(0.7)]


def test_isolated_node():
    """An isolated start draws nothing and walks only itself, flagged truncated."""
    g = ContextGraph()
    add_node(g, NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    g.finalize()
    walks = batch_walks(g, ["m0"], WalkConfig(length=4, walks_per_molecule=3))
    assert [(p.nodes, p.edge_weights, p.alphas, p.truncated) for p in walks] == \
        [(["m0"], [], [], True)] * 3


def test_transition_weight_proportional_frequencies():
    """Weights 0.9/0.3 -> probabilities 0.75/0.25, binomial 3-sigma check."""
    g = star_graph([0.9, 0.3])
    n = 100_000
    hits = second_nodes(g, "m0", WalkConfig(length=2, walks_per_molecule=n, seed=42)).count("c0")
    p = 0.75
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(hits - n * p) < 3 * sigma


def test_transition_chi_square_many_weights():
    """Chi-square goodness of fit at p > 0.001 over 1e5 draws."""
    weights = [0.9, 0.5, 0.25, 0.1, 0.05]
    g = star_graph(weights)
    n = 100_000
    firsts = second_nodes(g, "m0", WalkConfig(length=2, walks_per_molecule=n, seed=7))
    total = sum(weights)
    expected = [n * w / total for w in weights]
    _, pval = chisquare([firsts.count(f"c{i}") for i in range(len(weights))], expected)
    assert pval > 0.001


def test_uniform_mode():
    g = star_graph([0.9, 0.1])
    n = 50_000
    hits = second_nodes(g, "m0", WalkConfig(length=2, walks_per_molecule=n, seed=3,
                                            uniform=True)).count("c0")
    sigma = (n * 0.25) ** 0.5
    assert abs(hits - n * 0.5) < 3 * sigma


# --- single walks --------------------------------------------------------------------

def test_walk_structure_and_alphas():
    g = line_graph([1.0, 0.8, 0.5])
    p = batch_walks(g, ["m0"], WalkConfig(length=4, walks_per_molecule=1))[0]
    assert len(p.nodes) == 4
    assert len(p.edge_weights) == 3
    # on a line the first step is forced: alphas follow the traversed weights
    for i in range(len(p.alphas)):
        assert p.alphas[i] == pytest.approx(float(np.prod(p.edge_weights[: i + 1])), abs=1e-15)
        assert 0 < p.alphas[i] <= 1


def test_walk_length_two_perturbation():
    g = ContextGraph()
    add_node(g, NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    add_node(g, NodeRecord("c0", NodeKind.CELL_MORPHOLOGY, feat()))
    add_edge(g, "m0", "c0", Relation.PERTURBATION, 1.0)
    g.finalize()
    p = batch_walks(g, ["m0"], WalkConfig(length=2, walks_per_molecule=1))[0]
    assert walk_targets(p) == [("c0", 1.0)]


def test_walk_start_must_be_molecule():
    g = line_graph([0.5])
    with pytest.raises(NotAMoleculeError):
        batch_walks(g, ["m0", "c0"], WalkConfig(length=2))


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
        nbrs = neighbors(g, nid)
        total = sum(w for _, w in nbrs)
        for other, w in nbrs:
            T[i, index[other]] = w / total
    n_walks = 10_000
    length = 4
    counts = np.zeros((length, 5))
    for p in batch_walks(g, ["m0"], WalkConfig(length=length, walks_per_molecule=n_walks,
                                               seed=11)):
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
        add_node(g, NodeRecord(f"m{i}", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32),
                               smiles="C"))
    for i in range(6):
        add_node(g, NodeRecord(f"c{i}", NodeKind.CELL_MORPHOLOGY, feat()))
    rng = np.random.default_rng(0)
    for i in range(4):
        for j in range(6):
            if rng.random() < 0.7:
                add_edge(g, f"m{i}", f"c{j}", Relation.SIMILARITY,
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
    assert len(batch_walks(g, [], WalkConfig())) == 0
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
    add_node(g, NodeRecord("m0", NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    add_node(g, NodeRecord("c0", NodeKind.CELL_MORPHOLOGY, feat()))
    # The graph is undirected, so a degree-1 node is never a dead end: the
    # walk bounces back instead of truncating.
    add_edge(g, "m0", "c0", Relation.PERTURBATION, 1.0)
    g.finalize()
    p = batch_walks(g, ["m0"], WalkConfig(length=5))[0]
    assert len(p.nodes) == 5 and not p.truncated  # bouncing is allowed


def many_weights_graph():
    """30 molecules and 40 profiles, each node with several neighbors whose
    weights are all distinct."""
    rng = np.random.default_rng(123)
    g = ContextGraph()
    mols = [f"m{i}" for i in range(30)]
    profs = [f"p{i}" for i in range(40)]
    for m in mols:
        add_node(g, NodeRecord(m, NodeKind.MOLECULE, np.zeros(0, dtype=np.float32), smiles="C"))
    for p in profs:
        add_node(g, NodeRecord(p, NodeKind.CELL_MORPHOLOGY, feat()))
    nodes = mols + profs
    for a in nodes:
        for b in rng.choice(nodes, size=int(rng.integers(2, 9)), replace=False):
            if a != b:
                add_edge(g, a, str(b), Relation.SIMILARITY, float(rng.uniform(1e-3, 1.0)))
    return g.finalize(), mols


@pytest.mark.parametrize("uniform", [False, True])
def test_batch_walks_match_reference_transition(uniform):
    g, mols = many_weights_graph()
    weights = [w for m in mols for _, w in neighbors(g, m)]
    assert len(set(weights)) > 100
    for seed in range(20):
        cfg = WalkConfig(length=6, walks_per_molecule=3, seed=seed, uniform=uniform)
        assert_same_walks(batch_walks(g, mols, cfg), oracle_batch_walks(g, mols, cfg))


@st.composite
def walk_cases(draw):
    """A finalized graph, starts and a config. Ids are inserted in an order
    their sort does not follow; some molecules may have no edges, some pairs
    several relations, and starts repeat."""
    names = draw(st.lists(st.text(alphabet="ab19", min_size=1, max_size=3),
                          min_size=2, max_size=9, unique=True))
    n_mols = draw(st.integers(1, len(names)))
    g = ContextGraph()
    for i, nid in enumerate(names):
        if i < n_mols:
            add_node(g, NodeRecord(nid, NodeKind.MOLECULE, np.zeros(0, dtype=np.float32),
                                   smiles="C"))
        else:
            add_node(g, NodeRecord(nid, NodeKind.CELL_MORPHOLOGY, feat()))
    weight = st.sampled_from([1.0, 0.5, 0.25]) | st.floats(1e-6, 1.0)
    edges = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names),
                                    st.sampled_from(list(Relation)), weight), max_size=20))
    for a, b, rel, w in edges:
        if a != b:
            add_edge(g, a, b, rel, w)
    starts = draw(st.lists(st.sampled_from(names[:n_mols]), max_size=6))
    cfg = WalkConfig(length=draw(st.integers(2, 6)),
                     walks_per_molecule=draw(st.integers(1, 4)),
                     seed=draw(st.integers(0, 2**64 - 1)),
                     uniform=draw(st.booleans()))
    return g.finalize(), starts, cfg


# Seeds are drawn up to 2**64 - 1; a seed from 2**63 up once reached Philox
# as a float key, with a RuntimeWarning from the cast, which the suite's
# warning filter turns into a failure.
@settings(max_examples=300, deadline=None)
@given(case=walk_cases(), cut=st.integers(0, 30))
def test_batch_walks_equal_per_step_oracle(case, cut):
    """Walk for walk, and for every slice of the batch; the graph's CSR rows
    equal the neighbor lists built from its edges."""
    g, starts, cfg = case
    assert {nid: neighbors(g, nid) for nid in g.node_ids()} == effective_neighbors(g)
    got = batch_walks(g, starts, cfg)
    want = oracle_batch_walks(g, starts, cfg)
    assert_same_walks(got, want)
    assert_same_walks(got[cut:], want[cut:])
    assert_same_walks(got[:cut], want[:cut])


# Weight-proportional `walk` output on many_weights_graph() as released before
# the walker took every step of a batch at once.
WALK_TSV_SHA256 = [
    (["--length", 6, "--walks-per-molecule", 3, "--seed", 4],
     "15a3d03ff4d8f81fd17c60d56db08d040453183d510d23a0395b5d0477a8fb74"),
    (["--length", 2, "--walks-per-molecule", 5, "--seed", 0],
     "866ffa6391858119b0d730bdcbaf152692e5c2fb6862b5e0788e2026dea07e68"),
]


@pytest.mark.parametrize("argv,digest", WALK_TSV_SHA256, ids=["length6", "length2"])
def test_walk_tsv_golden(tmp_path, argv, digest):
    g, _mols = many_weights_graph()
    g.save(tmp_path / "g.ctxg")
    out = tmp_path / "walks.tsv"
    assert main(["walk", "--graph", str(tmp_path / "g.ctxg"), *map(str, argv),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seeds", [(-1, 0), (2**63, 2**63 + 1)])
def test_walk_seeds_equal_mod_2_64_only(tmp_path, seeds):
    """A negative seed is taken mod 2**64: -1 is 2**64 - 1, which walks
    differently from 0, as 2**63 does from 2**63 + 1."""
    g, _mols = many_weights_graph()
    g.save(tmp_path / "g.ctxg")
    texts = []
    for seed in (*seeds, seeds[0] % 2**64):
        out = tmp_path / f"walks{seed}.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["walk", "--graph", str(tmp_path / "g.ctxg"), "--seed", str(seed),
                         "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] != texts[1] and texts[0] == texts[2]


def test_load_then_walk_parses_no_smiles(tmp_path, monkeypatch):
    import infoalign.ctxgraph as ctxgraph

    g, mols = many_weights_graph()
    path = tmp_path / "g.ctxg"
    g.save(path)
    want = batch_walks(g, mols, WalkConfig(length=5, walks_per_molecule=2, seed=4))

    def no_parse(texts):
        raise AssertionError(f"parse_many({texts!r}) called")

    monkeypatch.setattr(ctxgraph, "parse_many", no_parse)
    loaded = ContextGraph.load(path)
    got = batch_walks(loaded, mols, WalkConfig(length=5, walks_per_molecule=2, seed=4))
    assert [p.nodes for p in got] == [p.nodes for p in want]
    assert [p.alphas for p in got] == [p.alphas for p in want]
    assert loaded._molecules is None
