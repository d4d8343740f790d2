"""Context-graph tests: construction rules, the brute-force similarity-edge
oracle and the full-sort oracle of its keep cut, merging, persistence and the
merge check of a saved edge list, the deferred molecule parse, and TSV
ingestion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoalign import ctxgraph, serialize
from infoalign.ctxgraph import (
    KINDS,
    RELATIONS,
    ContextGraph,
    NodeKind,
    Relation,
    _top_pairs,
    build_graph_from_tables,
    load_edge_table,
    load_node_table,
    min_max_scale,
)
from infoalign.errors import (
    CorruptFileError,
    DuplicateIdError,
    FinalizedError,
    MixedDimensionsError,
    RingUnclosedError,
    SelfLoopError,
    TableFormatError,
    UnbalancedParenError,
    UnknownNodeError,
)
from infoalign.molparse import parse_many
from infoalign.walker import WalkConfig, batch_walks
from tests.oracles import graph_of, molecule, neighbors, reference_top_pairs, stored_edges


def rec(nid, kind=NodeKind.CELL_MORPHOLOGY, feats=(0.5,)):
    return (nid, kind, np.array(feats, dtype=np.float32))


def mol(nid, smiles="CCO"):
    return (nid, NodeKind.MOLECULE, (), "", smiles)


# --- nodes/edges ---------------------------------------------------------------

def test_add_nodes():
    """The constructor takes the nodes once, in the order given; an id given
    twice raises DuplicateIdError."""
    assert graph_of([rec("a"), rec("b")]).node_ids() == ["a", "b"]
    with pytest.raises(DuplicateIdError, match=r"^node id 'a' already present$"):
        graph_of([rec("a"), rec("b"), rec("a")])


def test_appends_one_at_a_time_equal_one_bulk_append():
    """Edges added one `add_edges` call each give the graph one call gives,
    and every node keeps the features it was given."""
    rng = np.random.default_rng(1)
    kinds = [NodeKind.CELL_MORPHOLOGY, NodeKind.GENE_EXPRESSION, NodeKind.GENE]
    recs = [rec(f"n{i}", kinds[i % 3], rng.uniform(0, 1, 3 + i % 2)) for i in range(37)]
    edges = [(f"n{i}", f"n{(5 * i + 3) % 37}", Relation.SIMILARITY, 0.25 + (i % 3) / 4)
             for i in range(37) if (5 * i + 3) % 37 != i]
    one_by_one, bulk = graph_of(recs), graph_of(recs, edges).finalize()
    ids = one_by_one.node_ids()
    for a, b, relation, w in edges:
        one_by_one.add_edges([ids.index(a)], [ids.index(b)], [RELATIONS.index(relation)], [w])
    one_by_one.finalize()
    assert one_by_one.checksum() == bulk.checksum()
    assert stored_edges(one_by_one) == stored_edges(bulk)
    for nid, _kind, feats in recs:
        assert bulk.node(nid).features.tobytes() == feats.tobytes()


def test_one_call_onto_an_empty_graph_keeps_the_given_matrix():
    """The constructor takes a float32 matrix as it is: a graph copies none
    of its features."""
    mat = np.random.default_rng(2).uniform(0, 1, (5, 3)).astype(np.float32)
    g = ContextGraph([f"c{i}" for i in range(5)], [KINDS.index(NodeKind.CELL_MORPHOLOGY)] * 5,
                     [""] * 5, [None] * 5, {(NodeKind.CELL_MORPHOLOGY, 3): (range(5), mat)})
    assert np.shares_memory(g.features()[2][NodeKind.CELL_MORPHOLOGY, 3], mat)
    assert g.node("c4").features.tobytes() == mat[4].tobytes()


_CELL, _GENE = KINDS.index(NodeKind.CELL_MORPHOLOGY), KINDS.index(NodeKind.GENE)
_ROWS = np.array([[0.5], [0.25]])


@pytest.mark.parametrize("columns,message", [
    (dict(tags=["t"]), r"^2 node ids, but 2 kinds, 1 tags and 2 SMILES$"),
    (dict(kinds=[_CELL, 9]), r"^node 'b' has unknown kind code 9$"),
    (dict(kinds=[-1, _CELL]), r"^node 'a' has unknown kind code -1$"),
    (dict(features={(NodeKind.CELL_MORPHOLOGY, 1): ([0, 2], _ROWS)}),
     r"^the cell_morphology group of dim 1 has positions out of range or not ascending"),
    (dict(features={(NodeKind.CELL_MORPHOLOGY, 1): ([1, 0], _ROWS)}), r"not ascending"),
    (dict(features={(NodeKind.CELL_MORPHOLOGY, 1): ([0, 0], _ROWS)}), r"not ascending"),
    (dict(kinds=[_CELL, _GENE]), r"^the cell_morphology group of dim 1 holds node 'b' of "
                                 r"kind gene$"),
    (dict(features={(NodeKind.CELL_MORPHOLOGY, 1): ([0], _ROWS[:1])}),
     r"^node 'b' is in 0 feature groups, not one$"),
    (dict(features={(NodeKind.CELL_MORPHOLOGY, 1): ([0, 1], _ROWS),
                    (NodeKind.CELL_MORPHOLOGY, 2): ([1], [[0.1, 0.2]])}),
     r"^node 'b' is in 2 feature groups, not one$"),
    (dict(features={(NodeKind.CELL_MORPHOLOGY, 1): ([0, 1], _ROWS[:1])}),
     r"^the cell_morphology group of dim 1 has a \(1, 1\) matrix for 2 positions$"),
    (dict(features={(NodeKind.CELL_MORPHOLOGY, 1): ([0, 1], np.ones((2, 2)))}),
     r"has a \(2, 2\) matrix for 2 positions$"),
], ids=["tags-short", "kind-code-over", "kind-code-negative", "position-over",
        "position-descending", "position-twice", "other-kind", "in-no-group",
        "in-two-groups", "matrix-rows", "matrix-width"])
def test_add_nodes_rejects_bad_columns_and_adds_none(columns, message):
    """A fault in any column raises ValueError naming it, so no graph is
    made; the same columns without it make one."""
    given = dict(ids=["a", "b"], kinds=[_CELL, _CELL], tags=["t", "t"], smiles=[None, None],
                 features={(NodeKind.CELL_MORPHOLOGY, 1): ([0, 1], _ROWS)})
    assert ContextGraph(**given).finalize().stats()["nodes_by_kind"] == {"cell_morphology": 2}
    given.update(columns)
    with pytest.raises(ValueError, match=message):
        ContextGraph(**given)


_SIM, _PERT = RELATIONS.index(Relation.SIMILARITY), RELATIONS.index(Relation.PERTURBATION)


@pytest.mark.parametrize("edge,error,message", [
    ((1, 1, _SIM, 0.5), SelfLoopError, r"edge 1 \(nodes 1 and 1, .*\) has a self-loop"),
    ((0, 3, _SIM, 0.5), UnknownNodeError, r"\(nodes 0 and 3, .*\) has a node index outside "
                                          r"the graph's 3 nodes"),
    ((-1, 2, _SIM, 0.5), UnknownNodeError, r"\(nodes -1 and 2, .*\) has a node index"),
    ((0, 2, len(RELATIONS), 0.5), ValueError, r"relation code 4, .* has an unknown relation"),
    ((0, 2, _SIM, 0.0), ValueError, r"weight 0.0\) has a weight outside \(0, 1\]"),
    ((0, 2, _SIM, 1.5), ValueError, r"weight 1.5\) has a weight outside \(0, 1\]"),
    ((0, 2, _SIM, math.nan), ValueError, r"weight nan\) has a weight outside \(0, 1\]"),
    ((0, 2, _SIM, 0.5), FinalizedError, "graph is finalized"),
], ids=["self-loop", "index-over", "index-negative", "unknown-relation", "weight-zero",
        "weight-over", "weight-nan", "finalized"])
def test_add_edges_rejects_a_bad_edge_and_adds_none(edge, error, message):
    """A bad edge among good ones raises, and the graph's edges stay as
    they were."""
    g = graph_of([rec("a"), rec("b"), rec("c")], [("a", "b", Relation.PERTURBATION, 1.0)])
    if error is FinalizedError:
        g.finalize()
    before = stored_edges(g)
    good = (1, 2, _SIM, 0.75)
    with pytest.raises(error, match=message):
        g.add_edges(*zip(good, edge, good))
    assert stored_edges(g) == before == {("a", "b", Relation.PERTURBATION): 1.0}


def test_finalized_rejects_mutation():
    g = graph_of([rec("a")]).finalize()
    with pytest.raises(FinalizedError):
        g.add_edges([0], [0], [_SIM], [0.9])
    # idempotent
    assert g.finalize() is g


def test_open_graph_has_no_checksum_stats_csr_or_file(tmp_path):
    """Before `finalize` the edges are not merged: `checksum`, `stats`,
    `csr` and `save` raise FinalizedError, and `save` writes nothing."""
    g = graph_of([rec("a"), rec("b")], [("a", "b", Relation.SIMILARITY, 0.5)])
    for call in (g.checksum, g.stats, g.csr, lambda: g.save(tmp_path / "g.ctxg")):
        with pytest.raises(FinalizedError, match="finalize"):
            call()
    assert not (tmp_path / "g.ctxg").exists()


def test_molecule_node_parses_smiles():
    g = graph_of([mol("m1", "c1ccccc1")])
    mols, row = g.molecules()
    assert row == {"m1": 0}
    assert len(molecule(mols, 0).element) == 6


def test_perturbation_edge_weight_forced_one():
    g = graph_of([rec("a"), rec("b")], [("b", "a", Relation.PERTURBATION, 1.0)])
    assert stored_edges(g) == {("a", "b", Relation.PERTURBATION): 1.0}
    with pytest.raises(SelfLoopError):
        g.add_edges([0], [0], [_PERT], [1.0])


def test_edge_weight_range():
    g = graph_of([rec("a"), rec("b")])
    with pytest.raises(ValueError):
        g.add_edges([0], [1], [_SIM], [0.0])
    with pytest.raises(ValueError):
        g.add_edges([0], [1], [_SIM], [1.5])


def test_undirected_neighbors_same_weight():
    g = graph_of([rec("a"), rec("b")], [("a", "b", Relation.SIMILARITY, 0.9)]).finalize()
    assert neighbors(g, "a") == [("b", 0.9)]
    assert neighbors(g, "b") == [("a", 0.9)]


def test_max_weight_effective_edge():
    """A pair linked by two relations shows one effective max-weight edge."""
    g = graph_of([rec("a"), rec("b")], [("a", "b", Relation.SIMILARITY, 0.85),
                                         ("a", "b", Relation.PERTURBATION, 1.0)]).finalize()
    assert len(stored_edges(g)) == 2   # both relations stored
    assert neighbors(g, "a") == [("b", 1.0)]  # walker sees max weight


def test_repeated_pair_and_relation_keeps_its_last_weight():
    """A (pair, relation) added twice, in either direction, is one edge at
    the last weight, not the max."""
    g = graph_of([rec("a"), rec("b")], [("a", "b", Relation.SIMILARITY, 0.7),
                                         ("b", "a", Relation.SIMILARITY, 0.5)])
    assert stored_edges(g) == {("a", "b", Relation.SIMILARITY): 0.5}
    g.finalize()
    assert stored_edges(g) == {("a", "b", Relation.SIMILARITY): 0.5}
    assert g.stats()["edges"] == 1
    assert neighbors(g, "a") == [("b", 0.5)]
    once = graph_of([rec("a"), rec("b")], [("a", "b", Relation.SIMILARITY, 0.5)])
    assert g.checksum() == once.finalize().checksum()


# --- min-max scaling -----------------------------------------------------------

def test_min_max_closed_form():
    out = min_max_scale(np.array([[2.0], [4.0], [6.0]]))
    assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_min_max_constant_column():
    out = min_max_scale(np.array([[5.0, 1.0], [5.0, 3.0]]))
    assert np.allclose(out[:, 0], 0.0)
    assert np.allclose(out[:, 1], [0.0, 1.0])


def test_min_max_random_against_one_pass_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3))
    out = min_max_scale(x)
    for j in range(3):
        lo, hi = x[:, j].min(), x[:, j].max()
        expect = (x[:, j] - lo) / (hi - lo)
        assert np.allclose(out[:, j], expect, atol=1e-12)
        assert out[:, j].min() == pytest.approx(0.0) and out[:, j].max() == pytest.approx(1.0)


# --- similarity edges -----------------------------------------------------------

def brute_force_similarity(recs, threshold, keep_fraction):
    """Independent O(n^2) oracle: threshold then global top-k, id tie-break."""
    n = len(recs)
    total_pairs = n * (n - 1) // 2
    cands = []
    for i in range(n):
        fi = recs[i][2].astype(np.float64)
        ni = np.linalg.norm(fi)
        if ni == 0:
            continue
        for j in range(i + 1, n):
            fj = recs[j][2].astype(np.float64)
            nj = np.linalg.norm(fj)
            if nj == 0:
                continue
            s = min(float(fi @ fj / (ni * nj)), 1.0)
            if s >= 1.0 - 1e-12:
                s = 1.0
            if s >= threshold and s > 0:
                a, b = sorted((recs[i][0], recs[j][0]))
                cands.append((s, a, b))
    cands.sort(key=lambda c: (-c[0], c[1], c[2]))
    keep = math.ceil(keep_fraction * total_pairs)
    return {(a, b): s for s, a, b in cands[:keep]}


def test_identical_vectors_edge_weight_one():
    g = graph_of([rec("a", feats=(0.5, 0.5)), rec("b", feats=(1.0, 1.0))])
    added = g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, keep_fraction=1.0)
    assert added == 1
    g.finalize()
    assert neighbors(g, "a") == [("b", 1.0)]


def test_below_threshold_no_edge():
    g = graph_of([rec("a", feats=(1.0, 0.0)), rec("b", feats=(1.0, 1.0))])  # cosine ~ 0.707
    assert g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, keep_fraction=1.0) == 0


def test_mixed_dimensions_rejected():
    g = graph_of([rec("a", feats=(1.0, 0.0)), rec("b", feats=(1.0, 0.0, 0.0))])
    with pytest.raises(MixedDimensionsError):
        g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY)


@pytest.mark.parametrize("seed", range(10))
def test_similarity_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 50
    recs = []
    for i in range(n):
        # correlated features so the 0.8 threshold has plenty of hits
        base = rng.uniform(0.2, 0.8, size=8)
        recs.append(rec(f"n{i:03d}", feats=np.clip(base + 0.15 * rng.standard_normal(8), 0, 1)))
    g = graph_of(recs)
    keep_fraction = rng.choice([0.005, 0.02, 0.1, 1.0])
    expected = brute_force_similarity(recs, 0.8, keep_fraction)
    g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, 0.8, keep_fraction)
    got = {(a, b): w for (a, b, r), w in stored_edges(g).items() if r is Relation.SIMILARITY}
    assert set(got) == set(expected)
    for k in got:
        assert got[k] == pytest.approx(expected[k], abs=1e-12)


def reference_similarity_edges(g, kind, threshold=0.8, keep_fraction=0.005):
    """The per-pair loop that build_similarity_edges replaced: {id pair: weight},
    in the order the edges are added."""
    recs = [r for r in map(g.node, g.node_ids()) if r.kind is kind and r.modality_dim > 0]
    n = len(recs)
    feats = np.stack([r.features.astype(np.float64) for r in recs])
    norms = np.linalg.norm(feats, axis=1)
    ok = norms > 0
    unit = np.zeros_like(feats)
    unit[ok] = feats[ok] / norms[ok, None]
    sims = unit @ unit.T
    keep = math.ceil(keep_fraction * (n * (n - 1) // 2))
    candidates = []
    for i in range(n):
        if not ok[i]:
            continue
        for j in range(i + 1, n):
            if not ok[j]:
                continue
            s = min(float(sims[i, j]), 1.0)
            if s >= 1.0 - 1e-12:
                s = 1.0
            if s >= threshold and s > 0:
                candidates.append((-s, tuple(sorted((recs[i].id, recs[j].id))), s))
    candidates.sort(key=lambda c: (c[0], c[1]))
    return {pair: s for _, pair, s in candidates[:keep]}


def similarity_edges(g):
    return {(a, b): w for (a, b, r), w in stored_edges(g).items() if r is Relation.SIMILARITY}


def assert_matches_reference(feats, ids, keep_fraction, threshold=0.8, ulps=0):
    g = graph_of([rec(nid, feats=f) for nid, f in zip(ids, feats)])
    expected = reference_similarity_edges(g, NodeKind.CELL_MORPHOLOGY, threshold, keep_fraction)
    added = g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, threshold, keep_fraction)
    got = similarity_edges(g)
    assert added == len(expected)
    assert list(got) == list(expected)  # same edges, added in the same order
    if ulps:
        assert all(abs(got[k] - expected[k]) <= ulps * np.spacing(expected[k]) for k in got)
    else:
        assert all(got[k] == expected[k] for k in got)  # exact, not approx
    return expected


def clustered(rng, n, d, spread):
    centres = rng.uniform(0.0, 1.0, size=(4, d))
    return np.clip(centres[rng.integers(0, 4, n)] + spread * rng.standard_normal((n, d)), 0, 1)


def test_similarity_reference_duplicate_vectors():
    """Exact s = 1.0 ties between copies, broken by id pair."""
    rng = np.random.default_rng(0)
    base = rng.uniform(0.1, 1.0, size=(6, 5))
    feats = np.concatenate([base, base, 2 * base / 3, base[:3]])  # scaled copies too
    ids = [f"d{i:02d}" for i in range(len(feats))]
    expected = assert_matches_reference(feats, ids, 0.05)
    assert 1.0 in expected.values()


def test_similarity_reference_lexicographic_ids():
    """Ids whose lexicographic order differs from insertion order ("n10" < "n9")."""
    rng = np.random.default_rng(1)
    feats = clustered(rng, 60, 6, 0.1)
    ids = [f"n{i}" for i in range(60)]
    feats[[9, 10, 11, 40]] = feats[2]  # ties that the id order must break
    assert_matches_reference(feats, ids, 0.02)
    rng.shuffle(ids)
    assert_matches_reference(feats, ids, 0.02)


def test_similarity_reference_zero_norm_rows():
    rng = np.random.default_rng(2)
    feats = clustered(rng, 40, 4, 0.15)
    feats[[0, 7, 8, 39]] = 0.0
    ids = [f"z{i:02d}" for i in range(40)]
    expected = assert_matches_reference(feats, ids, 0.1)
    assert not any({"z00", "z07", "z08", "z39"} & set(pair) for pair in expected)
    # at threshold 0 a zero row's cosine of 0 meets the threshold, but is no weight > 0
    feats = rng.uniform(0.1, 1.0, size=(40, 4))
    feats[[0, 7, 8, 39]] = 0.0
    expected = assert_matches_reference(feats, ids, 1.0, threshold=0.0)
    assert len(expected) == 36 * 35 // 2


def test_similarity_reference_keep_cut_inside_tie_group():
    """More exact ties than `keep`: the id pair decides which survive."""
    feats = np.array([[1.0, 0.5]] * 12 + [[0.5, 1.0]] * 3 + [[0.9, 0.55]] * 2)
    ids = [f"t{i}" for i in range(len(feats))]
    n_pairs = len(feats) * (len(feats) - 1) // 2
    keep = 20  # the first group alone has 66 pairs at s = 1.0
    expected = assert_matches_reference(feats, ids, keep / n_pairs)
    assert len(expected) == keep and set(expected.values()) == {1.0}


@pytest.mark.parametrize("extra,ulps", [(176, 0), (13, 1)])
def test_similarity_reference_more_than_two_blocks(extra, ulps):
    """n past two row blocks, with duplicates, zero rows and a tie-heavy cut.

    The reference takes its cosines from one symmetric product (BLAS syrk),
    the blocks from row-block products (gemm). With OpenBLAS both compute
    every dot product with the same kernel when n is a multiple of 8, so
    the weights are bit-equal; for other n the last n % 8 columns go
    through other kernels and a weight can differ in its last bit.
    """
    from infoalign.ctxgraph import _SIM_BLOCK
    n = 2 * _SIM_BLOCK + extra
    rng = np.random.default_rng(extra)
    feats = clustered(rng, n, 16, 0.2)
    feats[rng.choice(n, 100, replace=False)] = feats[5]  # more s = 1.0 pairs than keep
    feats[rng.choice(n, 5, replace=False)] = 0.0
    ids = [f"b{i}" for i in range(n)]
    rng.shuffle(ids)
    assert_matches_reference(feats, ids, 0.005, ulps=ulps)


def tie_heavy_case(data):
    """Quantised features (many equal cosines, zero rows, orthogonal rows),
    shuffled ids, and a keep that puts the cut inside, just before or just
    after a tie group of the candidates, or at 0. Returns (feats, ids,
    threshold, keep, candidates) with candidates the (s, rank_i, rank_j) of
    every pair i < j with a positive s at or above the threshold."""
    n = data.draw(st.integers(2, 40), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    levels = data.draw(st.integers(1, 3), label="levels")
    feats = np.array(data.draw(st.lists(st.lists(st.integers(0, levels), min_size=d, max_size=d),
                                        min_size=n, max_size=n), label="feats")) / levels
    ids = data.draw(st.permutations([f"q{i}" for i in range(n)]), label="ids")
    threshold = data.draw(st.sampled_from([0.0, 0.5, 0.8]), label="threshold")
    x = feats.astype(np.float32).astype(np.float64)
    norms = np.linalg.norm(x, axis=1)
    unit = np.divide(x, norms[:, None], out=np.zeros_like(x), where=norms[:, None] > 0)
    sims = np.minimum(unit @ unit.T, 1.0)
    sims[sims >= 1.0 - 1e-12] = 1.0
    ok = norms > 0
    i, j = np.nonzero(np.triu(np.ones((n, n), dtype=bool), 1) & ok[:, None] & ok[None, :]
                      & (sims >= threshold) & (sims > 0))
    s = sims[i, j]
    rank = np.argsort(np.argsort(np.array(ids)))
    _values, counts = np.unique(-s, return_counts=True)  # tie groups, best first
    ends = np.cumsum(counts)
    where = data.draw(st.sampled_from(["zero", "inside", "before", "after"]), label="where")
    keep = 0
    if where != "zero" and len(counts):
        g = data.draw(st.integers(0, len(counts) - 1), label="group")
        start, end = ends[g] - counts[g], ends[g]
        keep = {"before": start, "after": end,
                "inside": data.draw(st.integers(start + 1, max(start + 1, end - 1)))}[where]
    return feats, ids, threshold, int(keep), (s, rank[i], rank[j])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_top_pairs_equals_full_sort_on_tie_heavy_features(data):
    """The partition cut against the full lexsort it replaced: the indices of
    one call, then a whole build over several small row blocks."""
    feats, ids, threshold, keep, (s, rank_i, rank_j) = tie_heavy_case(data)
    got = _top_pairs(s, rank_i, rank_j, keep)
    expected = reference_top_pairs(s, rank_i, rank_j, keep)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)

    n = len(ids)
    keep_fraction = 0.0 if keep == 0 else (keep - 0.5) / (n * (n - 1) // 2)
    graphs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ctxgraph, "_SIM_BLOCK", data.draw(st.sampled_from([3, 5, 8]), label="block"))
        for top_pairs in (_top_pairs, reference_top_pairs):
            mp.setattr(ctxgraph, "_top_pairs", top_pairs)
            g = graph_of([rec(nid, feats=f) for nid, f in zip(ids, feats)])
            added = g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, threshold, keep_fraction)
            assert added == min(keep, len(s))
            graphs.append(g)
    new, ref = graphs
    assert list(stored_edges(new).items()) == list(stored_edges(ref).items())  # same order, weights
    assert list(stored_edges(new.finalize()).items()) == list(stored_edges(ref.finalize()).items())


def test_top_pairs_keep_zero_is_empty():
    s = np.array([0.9, 0.9, 0.8])
    got = _top_pairs(s, np.arange(3), np.arange(1, 4), 0)
    assert got.dtype == np.intp and len(got) == 0


def test_zero_cosine_is_no_edge_at_threshold_zero():
    """Edge weights are in (0, 1]: orthogonal rows get no edge, even at
    threshold 0 and keep_fraction 1."""
    g = graph_of([rec(nid, feats=f) for nid, f in [("a", (1.0, 0.0)), ("b", (0.0, 1.0)),
                                                    ("c", (1.0, 1.0))]])
    assert g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, 0.0, 1.0) == 2
    assert set(similarity_edges(g)) == {("a", "c"), ("b", "c")}


def test_given_similarity_edge_keeps_its_weight():
    """A similarity edge added before `build_similarity_edges`, as the tables
    add theirs, keeps its weight, and the returned count leaves it out."""
    g = graph_of([rec(nid, feats=(0.5, 0.5)) for nid in ("a", "b", "c")],
                 [("b", "a", Relation.SIMILARITY, 0.3)])
    assert g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, keep_fraction=1.0) == 2
    assert similarity_edges(g) == {("a", "b"): 0.3, ("a", "c"): 1.0, ("b", "c"): 1.0}
    g.finalize()
    assert neighbors(g, "a") == [("b", 0.3), ("c", 1.0)]


def test_similarity_peak_memory_bounded_by_block():
    """With every one of a kind's 179,700 pairs above the threshold, the
    traced peak of `build_similarity_edges` stays under three cosine blocks
    (the block, a partition copy and masks): it gathers indices only for
    the pairs at or above each block's cut, not for every candidate."""
    n = 600
    feats = np.clip(0.5 + 0.05 * np.random.default_rng(0).standard_normal((n, 8)), 0, 1)
    g = ContextGraph([f"c{i:03d}" for i in range(n)], [KINDS.index(NodeKind.CELL_MORPHOLOGY)] * n,
                     ["t"] * n, [None] * n,
                     {(NodeKind.CELL_MORPHOLOGY, 8): (np.arange(n), feats.astype(np.float32))})
    unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    assert (unit @ unit.T).min() >= 0.8  # every pair is a candidate
    tracemalloc.start()
    try:
        added = g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert added == math.ceil(0.005 * (n * (n - 1) // 2))
    assert peak < 3 * ctxgraph._SIM_BLOCK * n * 8


def test_zero_norm_rows_skipped():
    g = graph_of([rec("a", feats=(0.0, 0.0)), rec("b", feats=(1.0, 0.0)),
                  rec("c", feats=(1.0, 0.0))])
    assert g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, keep_fraction=1.0) == 1


# --- finalize / stats / persistence ------------------------------------------------

def build_random_graph(seed=0, n=30):
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(n):
        nodes += [mol(f"m{i:02d}", "CCO"), rec(f"c{i:02d}", feats=tuple(rng.uniform(0, 1, 4)))]
    g = graph_of(nodes, [(f"m{i:02d}", f"c{i:02d}", Relation.PERTURBATION, 1.0)
                         for i in range(n)])
    g.build_similarity_edges(NodeKind.CELL_MORPHOLOGY, 0.8, 0.1)
    return g.finalize()


def test_stats_counts():
    g = build_random_graph()
    s = g.stats()
    assert s["nodes_by_kind"]["molecule"] == 30
    assert s["nodes_by_kind"]["cell_morphology"] == 30
    assert s["edges_by_relation"]["perturbation"] == 30
    assert s["nodes"] == len(g.node_ids()) and s["edges"] == len(stored_edges(g))


def test_loaded_stats_are_counted_from_the_columns(tmp_path):
    """A stats entry in the file is not read: the loaded graph counts its
    own nodes and edges."""
    g = build_random_graph(seed=1)
    p = tmp_path / "g.ctxg"
    g.save(p)
    meta, arrays = serialize.read_container(p, ctxgraph.MAGIC)
    meta["stats"] = {"nodes": 999, "edges": 0, "nodes_by_kind": {}, "edges_by_relation": {}}
    serialize.write_container(p, ctxgraph.MAGIC, meta, arrays)
    assert ContextGraph.load(p).stats() == g.stats()
    assert g.stats()["nodes"] == 60


def test_finalize_validates_ranges():
    g = graph_of([rec("bad", feats=[1.5])])
    with pytest.raises(ValueError):
        g.finalize()


def test_finalize_rejects_nan_features():
    g = graph_of([rec("nan", feats=[0.5, np.nan])])
    with pytest.raises(ValueError, match="outside"):
        g.finalize()


def test_save_load_round_trip(tmp_path):
    g = build_random_graph(seed=1)
    p = tmp_path / "g.ctxg"
    g.save(p)
    g2 = ContextGraph.load(p)
    assert g2.node_ids() == g.node_ids()
    assert g2.checksum() == g.checksum()
    for nid in g.node_ids():
        assert np.array_equal(g2.node(nid).features, g.node(nid).features)
    # byte-identical re-serialization
    p2 = tmp_path / "g2.ctxg"
    g2.save(p2)
    assert p.read_bytes() == p2.read_bytes()


def assert_same_graph(got, want):
    """Bit for bit: checksum, stats, CSR arrays, ids, tags, SMILES, kind
    codes, dims and rows, and every feature matrix."""
    assert got.checksum() == want.checksum() and got.stats() == want.stats()
    a, b = got.csr(), want.csr()
    assert a.ids == b.ids and a.index == b.index
    for name in ("indptr", "neighbors", "weights", "cdf"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert [(got.node(i).source_tag, got.node(i).smiles) for i in got.node_ids()] == [
        (want.node(i).source_tag, want.node(i).smiles) for i in want.node_ids()]
    assert got.kinds().tobytes() == want.kinds().tobytes()
    (dims, rows, mats), (wdims, wrows, wmats) = got.features(), want.features()
    assert dims.tolist() == wdims.tolist() and rows.tolist() == wrows.tolist()
    assert mats.keys() == wmats.keys()
    for key, mat in mats.items():
        assert mat.dtype == np.float32 and mat.shape == wmats[key].shape, key
        assert mat.tobytes() == wmats[key].tobytes(), key


def _graph_of(nodes, edges=()):
    """A finalized graph of (id, kind, features, smiles) nodes, each tagged
    "t-" and its id, and (a, b, relation, weight) edges."""
    return graph_of([(nid, kind, feats, "t-" + nid, smiles) for nid, kind, feats, smiles in nodes],
                    edges).finalize()


_M, _C, _E = NodeKind.MOLECULE, NodeKind.CELL_MORPHOLOGY, NodeKind.GENE_EXPRESSION
_BITS13 = [[1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1], [0] * 13, [1] * 13]
# Each graph, and the (kind, dim) groups `save` stores as bits.
ROUND_TRIPS = {
    "no-edges": (_graph_of([("m0", _M, [0, 1, 1, 0], "CCO"), ("c0", _C, [0.25, 0.5], None)]),
                 {("molecule", 4)}),
    "no-molecules": (_graph_of([("c0", _C, [0.25, 0.5], None), ("c1", _C, [0.75, 0.5], None),
                                ("e0", _E, [0.1], None)],
                               [("c1", "c0", Relation.SIMILARITY, 0.5),
                                ("e0", "c0", Relation.GENE_GENE, 0.25)]), set()),
    "bits-profile": (_graph_of([("m0", _M, [1, 0], "C"), ("c0", _C, [0, 1, 1], None),
                                ("c1", _C, [1, 1, 0], None), ("e0", _E, [0.5, 1], None)],
                               [("m0", "c0", Relation.PERTURBATION, 1.0),
                                ("c0", "c1", Relation.SIMILARITY, 0.75)]),
                     {("molecule", 2), ("cell_morphology", 3)}),
    "half-in-fingerprints": (_graph_of([("m0", _M, [1, 0.5], "C"), ("m1", _M, [0, 1], "CC"),
                                        ("c0", _C, [1, 0], None)],
                                       [("m0", "c0", Relation.PERTURBATION, 1.0),
                                        ("m1", "c0", Relation.PERTURBATION, 1.0)]),
                             {("cell_morphology", 2)}),
    "negative-zero-in-fingerprints": (_graph_of([("m0", _M, [1, -0.0], "C"),
                                                 ("m1", _M, [0, 1], "CC"),
                                                 ("c0", _C, [0.5, 0.5], None)],
                                                [("m1", "c0", Relation.PERTURBATION, 1.0)]),
                                      set()),
    "width-13": (_graph_of([(f"m{i}", _M, row, "C" * (i + 1)) for i, row in enumerate(_BITS13)]
                           + [("c0", _C, [0.5], None)],
                           [(f"m{i}", "c0", Relation.PERTURBATION, 1.0) for i in range(3)]),
                 {("molecule", 13)}),
}


@pytest.mark.parametrize("case", list(ROUND_TRIPS))
def test_save_load_round_trip_bit_for_bit(tmp_path, case):
    """A matrix of +0.0/1.0 only is stored as packed bits, any other as
    float32 (a 0.5 or a -0.0 keeps its bits), and the graph loads back bit
    for bit, with or without edges or molecules, at a width that is not a
    multiple of 8."""
    g, bits = ROUND_TRIPS[case]
    p = tmp_path / "g.ctxg"
    g.save(p)
    meta, arrays = serialize.read_container(p, ctxgraph.MAGIC)
    assert {(k, d) for k, d, packed in meta["groups"] if packed} == bits
    for (kind, dim, packed), mat in zip(meta["groups"], arrays[2:]):
        assert mat.dtype == (np.uint8 if packed else np.float32)
        assert mat.shape[1] == (-(-dim // 8) if packed else dim)
    g2 = ContextGraph.load(p)
    assert_same_graph(g2, g)
    g2.save(tmp_path / "again.ctxg")
    assert (tmp_path / "again.ctxg").read_bytes() == p.read_bytes()


def test_load_rejects_the_first_format_naming_both_numbers(tmp_path, capsys):
    """A graph of the first format (per-node records, no format number) is
    rejected with both format numbers and the file, and `walk` exits 1."""
    from infoalign.cli import main

    p = tmp_path / "old.ctxg"
    format_1_container(build_random_graph(seed=1), p)
    with pytest.raises(CorruptFileError) as exc:
        ContextGraph.load(p)
    assert str(exc.value) == (f"{p}: graph format 1, but this version reads format "
                              f"{ctxgraph.GRAPH_FORMAT}; build the graph again")
    assert main(["walk", "--graph", str(p), "--out", str(tmp_path / "w.tsv")]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_graph_records_the_fingerprint_radius_of_its_tables(tmp_path):
    """The tables' radius is saved and loaded; a graph constructed from columns has none."""
    nodes, edges = write_tables(tmp_path)
    g = build_graph_from_tables(nodes, edges, fp_radius=3, fp_bits=64)
    assert g.fp_radius == 3
    g.save(tmp_path / "g.ctxg")
    assert ContextGraph.load(tmp_path / "g.ctxg").fp_radius == 3
    bare = build_random_graph()
    assert bare.fp_radius is None
    bare.save(tmp_path / "bare.ctxg")
    assert ContextGraph.load(tmp_path / "bare.ctxg").fp_radius is None


def test_load_parses_each_molecule_once_on_first_use(tmp_path, monkeypatch):
    """`load` parses no SMILES; the first `molecules()` parses every molecule
    node's in one `parse_many` call, and later calls reuse that set."""
    g = build_random_graph(seed=1)
    p = tmp_path / "g.ctxg"
    g.save(p)
    calls = []
    parse = ctxgraph.parse_many

    def counting_parse(texts):
        calls.append(list(texts))
        return parse(texts)

    monkeypatch.setattr(ctxgraph, "parse_many", counting_parse)
    g2 = ContextGraph.load(p)
    assert calls == []
    first = g2.molecules()
    assert calls == [[g2.node(m).smiles for m in g2.molecule_ids()]]
    assert g2.molecules() is first
    assert len(calls) == 1


def test_molecules_parses_every_molecule_node_in_one_call():
    """The set is `parse_many` of the molecule nodes' SMILES in node order,
    and a molecule node without SMILES gets no row."""
    g = graph_of([mol("m2", "c1ccccc1"), rec("c0"), mol("m0", "CCO"), mol("bare", None)])
    mols, row = g.molecules()
    assert row == {"m2": 0, "m0": 1}
    want = parse_many(["c1ccccc1", "CCO"])
    for name in ("element", "charge", "aromatic", "degree", "bonds", "order"):
        assert getattr(mols.graph, name).tobytes() == getattr(want.graph, name).tobytes()
    assert mols.atom_start.tolist() == want.atom_start.tolist()


def test_molecules_names_the_node_of_a_bad_smiles(tmp_path):
    g = build_random_graph(seed=1)
    p = tmp_path / "g.ctxg"
    g.save(p)
    meta, arrays = serialize.read_container(p, ctxgraph.MAGIC)
    k = int(np.flatnonzero(arrays[0] == KINDS.index(NodeKind.MOLECULE))[0])
    meta["smiles"][k] = "C1CC"
    serialize.write_container(p, ctxgraph.MAGIC, meta, arrays)
    g2 = ContextGraph.load(p)
    with pytest.raises(RingUnclosedError,
                       match=rf"^molecule node '{meta['ids'][k]}': dangling ring closure"):
        g2.molecules()


def test_add_node_defers_a_bad_smiles_to_molecules(tmp_path):
    """A graph constructed with a SMILES that does not parse can be
    finalized, saved, loaded and walked; `molecules()` then raises, naming
    the node."""
    g = graph_of([mol("m0", "CCO"), mol("m1", "C(C"), rec("c0")],
                 [("m0", "c0", Relation.PERTURBATION, 1.0),
                  ("m1", "c0", Relation.PERTURBATION, 1.0)]).finalize()
    p = tmp_path / "g.ctxg"
    g.save(p)
    g2 = ContextGraph.load(p)
    walks = batch_walks(g2, ["m0", "m1"], WalkConfig(length=3, walks_per_molecule=2))
    assert [w.nodes[:2] for w in walks] == [["m0", "c0"]] * 2 + [["m1", "c0"]] * 2
    assert not any(w.truncated for w in walks)
    for graph in (g, g2):
        with pytest.raises(UnbalancedParenError, match=r"^molecule node 'm1': 1 unclosed"):
            graph.molecules()


def test_load_corrupt(tmp_path):
    g = build_random_graph()
    p = tmp_path / "g.ctxg"
    g.save(p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CorruptFileError):
        ContextGraph.load(p)


def format_1_container(g, path):
    """`g` saved in the unnumbered first format: a JSON record per node and
    every node's features, in node order, as one float32 array."""
    ids = g.node_ids()
    nodes = [{"id": nid, "kind": g.node(nid).kind.value, "source_tag": g.node(nid).source_tag,
              "smiles": g.node(nid).smiles, "dim": g.node(nid).modality_dim} for nid in ids]
    edges = [[a, b, r.value, w] for (a, b, r), w in stored_edges(g).items()]
    flat = np.concatenate([g.node(nid).features for nid in ids])
    serialize.write_container(path, ctxgraph.MAGIC,
                              {"nodes": nodes, "edges": edges, "stats": g.stats()}, [flat])


def _edit_meta(meta, arrays, case):
    """Edit the metadata or arrays of `build_random_graph(seed=1)`'s file,
    whose groups are its molecules (no features) and then its cell nodes."""
    cell = int(np.flatnonzero(arrays[0] == KINDS.index(NodeKind.CELL_MORPHOLOGY))[0])
    edges = meta["edges"]
    if case == "unknown-node":
        edges[0][1] = "zz"
    elif case == "dims-over":
        arrays[1][cell] += 1
    elif case == "dims-under":
        arrays[1][cell] -= 1
    elif case == "unknown-relation":
        edges[0][2] = "bogus"
    elif case == "unknown-kind":
        meta["groups"][1][0] = "protein"
    elif case == "unknown-kind-code":
        arrays[0][cell] = len(KINDS)
    elif case == "repeated-id":
        meta["ids"][cell] = meta["ids"][0]
    elif case == "edges-out-of-order":
        edges[3], edges[4] = edges[4], edges[3]
    elif case == "edge-repeated":
        edges.insert(4, list(edges[3]))
    elif case == "edge-higher-id-first":
        edges[3][0], edges[3][1] = edges[3][1], edges[3][0]
    elif case == "self-loop":
        edges[3][1] = edges[3][0]
    elif case in ("weight-over", "weight-zero"):
        edges[5][3] = 1.5 if case == "weight-over" else 0.0
    elif case == "feature-over":
        arrays[3][2, 1] = 1.5
    elif case == "matrix-missing":
        arrays.pop()
    elif case == "dims-short":
        arrays[1] = arrays[1][:-1]
    elif case == "group-dropped":
        meta["groups"].pop()
        arrays.pop()
    elif case == "group-repeated":
        meta["groups"].append(list(meta["groups"][1]))
        arrays.append(arrays[3].copy())
    elif case == "packed-width":
        meta["groups"][1][2] = True
    elif case == "format-3":
        meta["format"] = 3


# Each edit of `_edit_meta`, and what the error says.
CONTRADICTIONS = {
    "unknown-node": "unknown edge node 'zz'",
    "dims-over": "the cell_morphology group of dim 4 has a (30, 4) matrix for 29 positions",
    "dims-under": "the cell_morphology group of dim 4 has a (30, 4) matrix for 29 positions",
    "unknown-relation": "unknown relation 'bogus'",
    "unknown-kind": "unknown node kind 'protein'",
    "unknown-kind-code": f"has unknown kind code {len(KINDS)}",
    "repeated-id": "node id 'm00' already present",
    "edges-out-of-order": "edge 3 ",
    "edge-repeated": "edge 4 ",
    "edge-higher-id-first": "edge 3 ",
    "self-loop": "edge 3 ",
    "weight-over": "weight 1.5) has a weight outside (0, 1]",
    "weight-zero": "weight 0.0) has a weight outside (0, 1]",
    "feature-over": "node 'c02' has features outside [0, 1]",
    "matrix-missing": ": 2 feature groups, but 1 matrices",
    "dims-short": ": 60 kind codes, but 59 dims",
    "group-dropped": ": node 'c00' is in 0 feature groups, not one",
    "group-repeated": ": the cell_morphology group of dim 4 is given twice",
    "packed-width": ": the cell_morphology group of dim 4 has a (30, 4) bit-packed matrix",
    "format-3": "graph format 3, but this version reads format 2",
}


@pytest.mark.parametrize("case", list(CONTRADICTIONS))
def test_load_names_the_file_of_contradicting_metadata(tmp_path, capsys, case):
    """A container with a valid checksum whose metadata contradicts itself
    raises CorruptFileError naming the file, and `walk` exits 1 with it."""
    from infoalign.cli import main

    g = build_random_graph(seed=1)
    p = tmp_path / "g.ctxg"
    g.save(p)
    meta, arrays = serialize.read_container(p, ctxgraph.MAGIC)
    _edit_meta(meta, arrays, case)
    serialize.write_container(p, ctxgraph.MAGIC, meta, arrays)
    with pytest.raises(CorruptFileError) as exc:
        ContextGraph.load(p)
    assert str(exc.value).startswith(f"{p}: ") and CONTRADICTIONS[case] in str(exc.value)
    assert main(["walk", "--graph", str(p), "--out", str(tmp_path / "w.tsv")]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not (tmp_path / "w.tsv").exists()


def mutate_edges(data, edges: list) -> list:
    """A copy of the saved edge list with 0 to 3 edits: two entries swapped,
    one moved, one repeated somewhere, or one with its ends swapped (an edit
    may leave the list as it was)."""
    edges = [list(e) for e in edges]
    position = st.integers(0, len(edges) - 1)
    for op in data.draw(st.lists(st.sampled_from(["swap", "move", "repeat", "ends"]),
                                 max_size=3), label="ops"):
        i, j = data.draw(position, label="i"), data.draw(position, label="j")
        if op == "swap":
            edges[i], edges[j] = edges[j], edges[i]
        elif op == "move":
            edges.insert(j, edges.pop(i))
        elif op == "repeat":
            edges.insert(j, list(edges[i]))
        else:
            edges[i][:2] = edges[i][1::-1]
    return edges


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_load_accepts_exactly_the_merge_order(tmp_path_factory, data):
    """A saved edge list permuted, repeated in places or with the ends of an
    edge swapped loads exactly when it is still the merge order; otherwise
    CorruptFileError names the file and the first edge that differs from
    it."""
    g = build_random_graph(seed=1)
    p = tmp_path_factory.mktemp("edges") / "g.ctxg"
    g.save(p)
    meta, arrays = serialize.read_container(p, ctxgraph.MAGIC)
    saved = meta["edges"]
    meta["edges"] = edges = mutate_edges(data, saved)
    serialize.write_container(p, ctxgraph.MAGIC, meta, arrays)
    if edges == saved:
        assert_same_graph(ContextGraph.load(p), g)
        return
    with pytest.raises(CorruptFileError) as exc:
        ContextGraph.load(p)
    first = next(k for k, e in enumerate(edges) if k >= len(saved) or e != saved[k])
    assert str(exc.value).startswith(f"{p}: edge {first} {edges[first]} ")


# --- TSV tables ---------------------------------------------------------------------

def write_tables(tmp_path):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(
        "# comment\n"
        "m1\tmolecule\tsrc\tCCO\n"
        "m2\tmolecule\tsrc\tc1ccccc1\n"
        "c1\tcell_morphology\tsrc\t1.0\t5.0\n"
        "c2\tcell_morphology\tsrc\t3.0\t5.0\n"
        "c3\tcell_morphology\tsrc\t2.0\t9.0\n"
    )
    edges.write_text(
        "m1\tc1\tperturbation\t0.25\n"
        "m2\tc2\tperturbation\t1.0\n"
        "m2\tc3\tsimilarity\t0.9\n"
        "m1\tm2\tgene_molecule\t0.5\n"
    )
    return nodes, edges


def test_load_node_table_scaling(tmp_path):
    nodes, _ = write_tables(tmp_path)
    g = load_node_table(nodes)
    recs = {nid: g.node(nid) for nid in g.node_ids()}
    assert recs["m1"].smiles == "CCO"
    assert recs["m1"].features.sum() > 0  # fingerprint bits
    # min-max over the cell_morphology group: col0 [1,3,2] -> [0,1,0.5]; col1 [5,5,9] -> [0,0,1]
    assert np.allclose(recs["c1"].features, [0.0, 0.0])
    assert np.allclose(recs["c2"].features, [1.0, 0.0])
    assert np.allclose(recs["c3"].features, [0.5, 1.0])


def test_node_table_without_molecules_has_no_molecule_matrix(tmp_path):
    """The fingerprint group of a table without molecules has no rows, and
    the graph keeps no matrix for it."""
    p = tmp_path / "nodes.tsv"
    p.write_text("c1\tcell_morphology\tsrc\t1.0\t5.0\nc2\tcell_morphology\tsrc\t3.0\t4.0\n")
    assert list(load_node_table(p, fp_bits=64).features()[2]) == [(NodeKind.CELL_MORPHOLOGY, 2)]


def test_load_edge_table_perturbation_forced(tmp_path):
    _, edges = write_tables(tmp_path)
    rows = load_edge_table(edges)
    assert rows[0] == ("m1", "c1", Relation.PERTURBATION, 1.0, 1)  # 0.25 overridden
    assert rows[2][2] is Relation.SIMILARITY and rows[2][3] == 0.9


def test_build_graph_from_tables(tmp_path):
    nodes, edges = write_tables(tmp_path)
    g = build_graph_from_tables(nodes, edges)
    assert g.stats()["nodes"] == 5 and g.stats()["edges"] == 4


@pytest.mark.parametrize("table,line,where,msg", [
    ("edges", "m1\tnope\tsimilarity\t0.5", "edges.tsv:5", "unknown node id 'nope'"),
    ("edges", "c1\tc1\tsimilarity\t0.5", "edges.tsv:5", "self-loop on 'c1'"),
    ("nodes", "c2\tgene\tsrc\t4.0", "nodes.tsv:7", "node id 'c2' already present on line 5"),
])
def test_build_graph_id_errors_name_file_and_line(tmp_path, table, line, where, msg):
    paths = dict(zip(("nodes", "edges"), write_tables(tmp_path)))
    with open(paths[table], "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(TableFormatError) as exc:
        build_graph_from_tables(paths["nodes"], paths["edges"])
    assert str(exc.value) == f"{tmp_path / where}: {msg}"


@pytest.mark.parametrize("line,msg", [
    ("x1\tbogus_kind\tsrc\t1.0", "kind"),
    ("x1\tcell_morphology\tsrc\tnot_a_number", "feature"),
    ("x1\tcell_morphology", "columns"),
])
def test_node_table_errors_name_line(tmp_path, line, msg):
    p = tmp_path / "nodes.tsv"
    p.write_text("ok\tcell_morphology\tsrc\t1.0\n" + line + "\n")
    with pytest.raises(TableFormatError, match=":2"):
        load_node_table(p)


def test_node_table_names_first_of_two_bad_smiles(tmp_path):
    """Every SMILES is parsed before any is fingerprinted; the first bad row
    is the one named."""
    p = tmp_path / "nodes.tsv"
    p.write_text("m1\tmolecule\tsrc\tCCO\n"
                 "m2\tmolecule\tsrc\tC(C\n"
                 "c1\tcell_morphology\tsrc\t1.0\n"
                 "m3\tmolecule\tsrc\tC[C@H]O\n")
    with pytest.raises(TableFormatError) as exc:
        load_node_table(p)
    assert str(exc.value).startswith(f"{p}:2: bad SMILES: ")


def test_node_table_parser_fault_is_not_a_bad_smiles(tmp_path, monkeypatch):
    """Only the parser's SmilesError is reported as a bad row; any other
    exception from it propagates as it is."""
    def faulty_parser(_texts):
        raise KeyError("parser fault")

    monkeypatch.setattr(ctxgraph, "parse_many", faulty_parser)
    p = tmp_path / "nodes.tsv"
    p.write_text("m1\tmolecule\tsrc\tCCO\n")
    with pytest.raises(KeyError, match="parser fault"):
        load_node_table(p)


def test_edge_table_errors_name_line(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("a\tb\tperturbation\t1.0\na\tb\tsimilarity\toops\n")
    with pytest.raises(TableFormatError, match=":2"):
        load_edge_table(p)
    p.write_text("a\tb\tnot_a_relation\t1.0\n")
    with pytest.raises(TableFormatError, match=":1"):
        load_edge_table(p)
