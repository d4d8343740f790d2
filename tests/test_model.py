"""Model tests: atom features, encoder symmetry and batching,
reparameterization statistics, KL closed form vs a quadrature oracle, decoder
NLL oracle, loss gradients and decomposition, the batched training step vs the
per-walk loss of `tests/oracles.py`, training determinism, and checkpoint
round-trips."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import infoalign.diffcore as dc
import infoalign.model as model
from infoalign.ctxgraph import ContextGraph, NodeKind, Relation
from infoalign.errors import NoDecoderError, PathMismatchError, ShapeMismatchError
from infoalign.model import (
    _EMBED_ATOMS,
    _NOISE_STREAM,
    _SHUFFLE_STREAM,
    EncoderOutput,
    _embed_blocks,
    LossBreakdown,
    ModelConfig,
    TrainState,
    atom_features,
    batch_loss,
    decode_nll,
    decoder_keys,
    decoder_prefix,
    embed,
    encode_union,
    feature_keys,
    gin_encode,
    infoalign_loss,
    init_model,
    kl_standard_normal,
    load_checkpoint,
    pretrain,
    reparameterize,
    save_checkpoint,
)
from infoalign.molparse import parse_many, parse_smiles
from infoalign.synth import SyntheticSpec, generate
from infoalign.walker import WalkConfig, WalkPath, batch_walks
from tests.oracles import (
    FIXED_SMILES,
    add,
    graph_of,
    molecule,
    molecule_set,
    reference_adam_step,
    reference_atom_features,
    reference_atom_graph,
    reference_batch_loss,
    reference_embed,
    reference_scatter_add,
    reference_walk_loss,
    row_index,
    scanned_neighbors,
    tsum,
    union,
    walk_batch,
)
from tests.test_fingerprint import permute_graph
from tests.test_molparse import smiles_strings


def small_cfg(**kw):
    base = dict(latent_dim=8, num_layers=2, hidden=12, decoder_hidden=10,
                fp_bits=64, epochs=2, batch_size=4, walk_length=3, walks_per_molecule=1)
    base.update(kw)
    return ModelConfig(**base)


def tiny_graph(n_mols=6, seed=0, fp_bits=64):
    """Molecules fingerprinted at fp_bits with one morphology node each."""
    from infoalign.fingerprint import morgan_fingerprint
    rng = np.random.default_rng(seed)
    smiles = ["CCO", "CCN", "c1ccccc1", "CC(C)O", "CCCC", "OCCO",
              "CC=O", "CSC", "NCCN", "C1CC1"]
    nodes = []
    for i in range(n_mols):
        smi = smiles[i % len(smiles)]
        fp = morgan_fingerprint(molecule_set([parse_smiles(smi)]), 2, fp_bits)[0]
        nodes += [(f"m{i}", NodeKind.MOLECULE, fp, "", smi),
                  (f"c{i}", NodeKind.CELL_MORPHOLOGY, rng.uniform(0, 1, 5).astype(np.float32))]
    return graph_of(nodes, [(f"m{i}", f"c{i}", Relation.PERTURBATION, 1.0)
                            for i in range(n_mols)]).finalize()


def encode_batch(mols, bound):
    """The encoder over a list of molecules laid out by the `union` oracle."""
    g, segment = union(mols)
    return encode_union(reference_atom_graph(g, segment, len(mols)), 0, bound)


def make_store(cfg, graph):
    store = dc.ParamStore(seed=cfg.seed)
    init_model(store, cfg, feature_keys(graph))
    return store


# --- atom features ------------------------------------------------------------------

@pytest.mark.parametrize("smi", FIXED_SMILES)
def test_atom_features_match_degree_reference(smi):
    g = parse_smiles(smi)
    assert np.array_equal(atom_features(g), reference_atom_features(g))


@settings(max_examples=200, deadline=None)
@given(smiles_strings())
def test_atom_features_match_degree_reference_fuzzed(smi):
    g = parse_smiles(smi)
    x = atom_features(g)
    assert np.array_equal(x, reference_atom_features(g))
    assert np.array_equal(x[:, 16:].argmax(axis=1),
                          [min(len(scanned_neighbors(g, i)), 5) for i in range(len(g.element))])


def test_atom_features_of_a_batch_stack_each_molecule():
    mols = [parse_smiles(s) for s in FIXED_SMILES]
    assert np.array_equal(atom_features(union(mols)[0]),
                          np.concatenate([reference_atom_features(g) for g in mols]))


# --- encoder ---------------------------------------------------------------------

def test_encoder_permutation_invariance():
    cfg = small_cfg()
    g = tiny_graph()
    store = make_store(cfg, g)
    bound = store.bind()
    rng = np.random.default_rng(1)
    for smi in ["CC(C)CC(=O)O", "c1ccc(N)cc1", "OCC(O)CO"]:
        mol = parse_smiles(smi)
        base = gin_encode(mol, bound)
        for _ in range(3):
            perm = list(rng.permutation(len(mol.element)))
            out = gin_encode(permute_graph(mol, perm), bound)
            assert np.allclose(out.mu.data, base.mu.data, rtol=1e-9)
            assert np.allclose(out.logvar.data, base.logvar.data, rtol=1e-9)


def test_encode_batch_rows_equal_single_molecule_encodes():
    cfg = small_cfg()
    store = make_store(cfg, tiny_graph())
    bound = store.bind()
    mols = [parse_smiles(s) for s in ["C", "CC(C)CC(=O)O", "c1ccc(N)cc1", "O", "OCC(O)CO"]]
    out = encode_batch(mols, bound)
    assert out.mu.shape == out.logvar.shape == (len(mols), cfg.latent_dim)
    for k, mol in enumerate(mols):
        one = gin_encode(mol, bound)
        np.testing.assert_allclose(out.mu.data[k], one.mu.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.logvar.data[k], one.logvar.data[0], rtol=0, atol=1e-12)


def numpy_gin_mu(g, params, num_layers):
    """mu of one molecule in plain numpy: the oracle's atom features, then
    per layer a loop over the bonds that adds both messages of each."""
    def mlp(prefix, h):
        i = 0
        while f"{prefix}.w{i}" in params:
            h = h @ params[f"{prefix}.w{i}"] + params[f"{prefix}.b{i}"]
            if f"{prefix}.w{i + 1}" in params:
                h = np.maximum(h, 0.0)
            i += 1
        return h

    h = reference_atom_features(g) @ params["atom_embed"]
    for layer in range(num_layers):
        agg = np.zeros_like(h)
        for (a, b), order in zip(g.bonds.tolist(), g.order.tolist()):
            edge = params[f"bond_embed.l{layer}"][order]
            agg[b] += h[a] + edge
            agg[a] += h[b] + edge
        h = mlp(f"gin.l{layer}", agg + h)
    return mlp("head_mu", h.sum(axis=0, keepdims=True))[0]


def test_encode_batch_matches_numpy_per_bond_reference():
    cfg = small_cfg()
    store = make_store(cfg, tiny_graph())
    mols = [parse_smiles(s) for s in FIXED_SMILES]
    mu = encode_batch(mols, store.bind()).mu.data
    for k, g in enumerate(mols):
        np.testing.assert_allclose(mu[k], numpy_gin_mu(g, store.params, cfg.num_layers),
                                   rtol=1e-9, atol=1e-9)


def test_encoder_zero_heads_give_zero_outputs():
    cfg = small_cfg()
    g = tiny_graph()
    store = make_store(cfg, g)
    store.params["head_mu.w0"][...] = 0.0
    store.params["head_mu.b0"][...] = 0.0
    store.params["head_logvar.w0"][...] = 0.0
    store.params["head_logvar.b0"][...] = 0.0
    out = gin_encode(parse_smiles("C"), store.bind())
    assert np.allclose(out.mu.data, 0.0)
    assert np.allclose(out.logvar.data, 0.0)


def test_encoder_logvar_clamped():
    cfg = small_cfg()
    g = tiny_graph()
    store = make_store(cfg, g)
    store.params["head_logvar.b0"][...] = 1e4
    out = gin_encode(parse_smiles("CCO"), store.bind())
    assert out.logvar.data.max() <= 10.0


def test_encoder_gradient_finite_difference():
    """Gradient of ||mu||^2 w.r.t. every encoder parameter, rel err < 1e-4."""
    cfg = small_cfg(latent_dim=4, num_layers=2, hidden=6)
    g = tiny_graph()
    store = make_store(cfg, g)
    mol = parse_smiles("CC(=O)O")

    def loss_value():
        out = gin_encode(mol, store.bind())
        return float(tsum(dc.mul(out.mu, out.mu)).data)

    bound = store.bind()
    out = gin_encode(mol, bound)
    tsum(dc.mul(out.mu, out.mu)).backward()

    eps = 1e-6
    for pname, leaf in bound.items():
        if pname.startswith("dec.") or leaf.grad is None:
            continue
        arr = store.params[pname]
        flat_idx = np.unravel_index(np.argmax(np.abs(leaf.grad)), arr.shape)
        for idx in {flat_idx, tuple(0 for _ in arr.shape)}:
            orig = arr[idx]
            arr[idx] = orig + eps
            fp = loss_value()
            arr[idx] = orig - eps
            fm = loss_value()
            arr[idx] = orig
            numeric = (fp - fm) / (2 * eps)
            analytic = leaf.grad[idx]
            denom = max(abs(numeric), 1e-6)
            assert abs(analytic - numeric) / denom < 1e-4, (pname, idx)


# --- reparameterization --------------------------------------------------------------

def mk_out(mu, logvar):
    return EncoderOutput(dc.constant(np.asarray(mu, dtype=np.float64).reshape(1, -1)),
                         dc.constant(np.asarray(logvar, dtype=np.float64).reshape(1, -1)))


def test_reparameterize_zero_noise():
    out = mk_out([1.0, -2.0], [0.3, -0.7])
    z = reparameterize(out, np.zeros((1, 2)))
    assert np.allclose(z.data, [[1.0, -2.0]])


def test_reparameterize_unit_logvar():
    out = mk_out([1.0, 2.0], [0.0, 0.0])
    z = reparameterize(out, np.array([[0.5, -0.5]]))
    assert np.allclose(z.data, [[1.5, 1.5]])


def test_reparameterize_shape_check():
    out = mk_out([0.0, 0.0], [0.0, 0.0])
    for noise in (np.zeros((1, 3)), np.zeros(2)):
        with pytest.raises(ShapeMismatchError):
            reparameterize(out, noise)


def test_reparameterize_statistics():
    mu = np.array([0.7, -1.2])
    logvar = np.array([0.4, -0.9])
    out = mk_out(mu, logvar)
    rng = np.random.default_rng(0)
    n = 100_000
    zs = np.stack([reparameterize(out, rng.standard_normal((1, 2))).data[0]
                   for _ in range(n)])
    std = np.exp(logvar / 2)
    assert np.all(np.abs(zs.mean(axis=0) - mu) < 4 * std / np.sqrt(n))
    assert np.allclose(zs.var(axis=0), np.exp(logvar), rtol=0.05)


# --- KL ---------------------------------------------------------------------------

def kl_quadrature(mu, logvar):
    """Numerical integration oracle for KL(N(mu, s^2) || N(0,1)) per dim."""
    total = 0.0
    for m, lv in zip(mu, logvar):
        s = np.exp(lv / 2)

        def integrand(x):
            p = np.exp(-((x - m) ** 2) / (2 * s * s)) / (s * np.sqrt(2 * np.pi))
            q = np.exp(-x * x / 2) / np.sqrt(2 * np.pi)
            return p * (np.log(p) - np.log(q)) if p > 1e-300 else 0.0

        val, _ = quad(integrand, m - 12 * s, m + 12 * s, limit=200)
        total += val
    return total


def test_kl_zero_at_prior():
    assert kl_standard_normal(mk_out([0.0, 0.0], [0.0, 0.0])).item() == pytest.approx(0.0, abs=1e-15)


def test_kl_closed_forms():
    assert kl_standard_normal(mk_out([1.0], [0.0])).item() == pytest.approx(0.5, abs=1e-12)
    expect = 0.5 * (4 - np.log(4) - 1)
    assert kl_standard_normal(mk_out([0.0], [np.log(4.0)])).item() == pytest.approx(expect, abs=1e-6)


def test_kl_matches_quadrature_on_random_pairs():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = rng.integers(1, 4)
        mu = rng.uniform(-2, 2, d)
        logvar = rng.uniform(-2, 2, d)
        got = kl_standard_normal(mk_out(mu, logvar)).item()
        assert got == pytest.approx(kl_quadrature(mu, logvar), abs=1e-6)
        assert got >= 0.0


def test_kl_zero_iff_standard():
    rng = np.random.default_rng(10)
    for _ in range(20):
        mu = rng.uniform(-1, 1, 3)
        lv = rng.uniform(-1, 1, 3)
        if np.allclose(mu, 0) and np.allclose(lv, 0):
            continue
        assert kl_standard_normal(mk_out(mu, lv)).item() > 0.0


# --- decoder NLL -----------------------------------------------------------------------

def store_with_decoder(dim=5, hidden=6, latent=4, seed=0):
    store = dc.ParamStore(seed=seed)
    dc.init_mlp(store, f"dec.cell_morphology.{dim}", [latent, hidden, dim])
    return store


def test_decode_nll_saturated_correct():
    store = store_with_decoder(dim=3, latent=2)
    prefix = decoder_prefix(store.params, NodeKind.CELL_MORPHOLOGY, 3)
    store.params[f"{prefix}.w0"][...] = 0.0
    store.params[f"{prefix}.b0"][...] = 0.0
    store.params[f"{prefix}.w1"][...] = 0.0
    store.params[f"{prefix}.b1"][...] = 36.0
    z = dc.constant(np.zeros((2, 2)))
    term, nll = decode_nll(z, np.ones((2, 3)), NodeKind.CELL_MORPHOLOGY, store.bind(),
                           row_index([0, 1], 2), np.ones(2))
    assert term.shape == () and nll.shape == (2, 3)
    assert term.item() < 1e-10 and np.all(nll < 1e-10)


def test_decode_nll_zero_logits_ln2():
    store = store_with_decoder(dim=4, latent=2)
    prefix = decoder_prefix(store.params, NodeKind.CELL_MORPHOLOGY, 4)
    for name in (f"{prefix}.w0", f"{prefix}.b0", f"{prefix}.w1", f"{prefix}.b1"):
        store.params[name][...] = 0.0
    z = dc.constant(np.random.default_rng(3).standard_normal((3, 2)))
    term, nll = decode_nll(z, np.random.default_rng(4).uniform(0, 1, (3, 4)),
                           NodeKind.CELL_MORPHOLOGY, store.bind(), row_index([0, 1, 2], 3),
                           np.array([1.0, 0.5, 0.25]))
    np.testing.assert_allclose(nll, np.log(2), rtol=0, atol=1e-12)
    assert term.item() == pytest.approx(1.75 * 4 * np.log(2), abs=1e-12)


def test_decode_nll_matches_scalar_oracle():
    """Target row i is decoded from row rows[i] of z and scored against
    target row i entry by entry, under either likelihood: the term is the
    weighted sum of the rows' NLL sums."""
    store = store_with_decoder(dim=5, latent=4, seed=2)
    bound = store.bind()
    rng = np.random.default_rng(5)
    z = dc.constant(rng.standard_normal((3, 4)))
    rows = [2, 0, 0, 1]
    y = rng.uniform(0, 1, (4, 5))
    weight = rng.uniform(0.1, 1.0, 4)
    prefix = decoder_prefix(bound, NodeKind.CELL_MORPHOLOGY, 5)
    for likelihood in ("bernoulli", "gaussian"):
        term, nll = decode_nll(z, y, NodeKind.CELL_MORPHOLOGY, bound, row_index(rows, 3),
                               weight, likelihood)
        want = []
        for i, k in enumerate(rows):
            logits = dc.mlp_forward(bound, prefix, dc.constant(z.data[k : k + 1])).data[0]
            if likelihood == "bernoulli":
                p = 1.0 / (1.0 + np.exp(-logits))
                want.append(-(y[i] * np.log(p) + (1 - y[i]) * np.log(1 - p)))
            else:
                want.append(0.5 * (logits - y[i]) ** 2)
        np.testing.assert_allclose(nll, want, rtol=0, atol=1e-10, err_msg=likelihood)
        assert term.item() == pytest.approx(float(weight @ np.sum(want, axis=1)), abs=1e-10)


def test_decode_nll_no_decoder():
    store = store_with_decoder(dim=5)
    with pytest.raises(NoDecoderError):
        decode_nll(dc.constant(np.zeros((1, 4))), np.ones((1, 7)),
                   NodeKind.CELL_MORPHOLOGY, store.bind(), row_index([0], 1), np.ones(1))
    with pytest.raises(ValueError, match="unknown likelihood 'poisson'"):
        decode_nll(dc.constant(np.zeros((1, 4))), np.ones((1, 5)),
                   NodeKind.CELL_MORPHOLOGY, store.bind(), row_index([0], 1), np.ones(1),
                   "poisson")


def test_decode_nll_rejects_bad_shapes_and_likelihoods():
    """Targets of another row count than `rows`, and a likelihood other than
    bernoulli or gaussian, are errors."""
    store = store_with_decoder(dim=3)
    z = dc.constant(np.zeros((2, 4)))
    with pytest.raises(ShapeMismatchError, match=r"decoder output \(3, 3\) vs target \(2, 3\)"):
        decode_nll(z, np.zeros((2, 3)), NodeKind.CELL_MORPHOLOGY, store.bind(),
                   row_index([0, 1, 1], 2), np.ones(3))
    with pytest.raises(ValueError, match="unknown likelihood 'poisson'"):
        decode_nll(z, np.zeros((2, 3)), NodeKind.CELL_MORPHOLOGY, store.bind(),
                   row_index([0, 1], 2), np.ones(2), "poisson")


# --- loss -----------------------------------------------------------------------------

def test_loss_breakdown_decomposition():
    """total equals (1/L) sum alpha*NLL + beta*KL to 1e-12."""
    cfg = small_cfg(beta=0.1)
    g = tiny_graph()
    store = make_store(cfg, g)
    path = WalkPath(["m0", "c0", "m0"], [1.0, 1.0])
    bound = store.bind()
    total, br = infoalign_loss(g, walk_batch(g, [path]), bound, beta=0.1,
                               noise=np.zeros((1, cfg.latent_dim)))
    assert total.item() == pytest.approx(br.total, abs=1e-12)
    assert br.total == pytest.approx(
        sum(br.recon_per_modality.values()) / len(path.nodes) + br.beta * br.kl, abs=1e-12)
    assert br.kl >= 0.0


def test_loss_formula_weighted_terms():
    """Direct formula check of the per-walk oracle and of the batched loss:
    NLLs {a at alpha 1, b at alpha 0.5}, L=2, beta 0.1."""
    cfg = small_cfg(beta=0.1)
    g = tiny_graph()
    store = make_store(cfg, g)
    path = WalkPath(["m0", "c0"], [0.5])
    bound = store.bind()
    noise = np.zeros((1, cfg.latent_dim))
    # recompute the pieces independently
    out = gin_encode(parse_smiles(g.node("m0").smiles), bound)
    z = reparameterize(out, noise)
    nll_self = decode_nll(z, g.node("m0").features[None], NodeKind.MOLECULE, bound,
                          row_index([0], 1), np.ones(1))[1].sum()
    nll_c = decode_nll(z, g.node("c0").features[None], NodeKind.CELL_MORPHOLOGY, bound,
                       row_index([0], 1), np.ones(1))[1].sum()
    kl = kl_standard_normal(out).item()
    expect = (1.0 * nll_self + 0.5 * nll_c) / 2 + 0.1 * kl
    for loss, walk in ((reference_walk_loss, path), (infoalign_loss, walk_batch(g, [path]))):
        total, _ = loss(g, walk, bound, beta=0.1, noise=noise)
        assert total.item() == pytest.approx(expect, abs=1e-10), loss.__name__


def test_loss_rejects_non_molecule_start():
    cfg = small_cfg()
    g = tiny_graph()
    store = make_store(cfg, g)
    with pytest.raises(PathMismatchError):
        infoalign_loss(g, walk_batch(g, [WalkPath(["c0", "m0"], [1.0])]), store.bind(),
                       beta=0.0, noise=np.zeros((1, cfg.latent_dim)))


def test_loss_gradient_finite_difference():
    """Gradients vs central differences for every parameter block: of the
    per-walk oracle on one walk, and of `batch_loss` on two molecules' walks."""
    cfg = small_cfg(latent_dim=4, num_layers=1, hidden=5, decoder_hidden=4, fp_bits=64)
    g = tiny_graph(n_mols=3, fp_bits=64)
    store = make_store(cfg, g)
    paths = walk_batch(g, [WalkPath(["m0", "c0", "m0"], [1.0, 1.0]),
                           WalkPath(["m1", "c1"], [0.5])])
    noise = np.random.default_rng(0).standard_normal((2, cfg.latent_dim))
    losses = {
        "oracle": lambda bound: reference_walk_loss(g, paths[0], bound, 0.05, noise[0])[0],
        "batch": lambda bound: batch_loss(g, ["m0", "m1"], paths, bound, 0.05, noise)[0],
    }
    eps = 1e-6
    for name, loss in losses.items():
        bound = store.bind()
        loss(bound).backward()
        checked = 0
        for pname, leaf in bound.items():
            arr = store.params[pname]
            idx = np.unravel_index(np.argmax(np.abs(leaf.grad)), arr.shape)
            if abs(leaf.grad[idx]) < 1e-9:
                continue
            orig = arr[idx]
            arr[idx] = orig + eps
            fp = loss(store.bind()).item()
            arr[idx] = orig - eps
            fm = loss(store.bind()).item()
            arr[idx] = orig
            numeric = (fp - fm) / (2 * eps)
            rel = abs(leaf.grad[idx] - numeric) / max(abs(numeric), 1e-6)
            assert rel < 1e-4, (name, pname, rel)
            checked += 1
        assert checked >= 5, name


# --- batched step vs the per-walk loss -------------------------------------------------

def walk_graph(n_mols=7):
    """Molecules with their own morphology node, three shared gene-expression
    nodes, and a ring of weighted morphology similarity edges, so walks mix
    three decoders and alphas below 1."""
    from infoalign.fingerprint import morgan_fingerprint
    rng = np.random.default_rng(3)
    smiles = ["CCO", "CCN", "c1ccccc1", "CC(C)O", "CCCC", "OCCO", "CC=O", "CSC"]
    nodes = [(f"g{j}", NodeKind.GENE_EXPRESSION, rng.uniform(0, 1, 4).astype(np.float32))
             for j in range(3)]
    edges = []
    for i in range(n_mols):
        smi = smiles[i % len(smiles)]
        fp = morgan_fingerprint(molecule_set([parse_smiles(smi)]), 2, 64)[0]
        nodes += [(f"m{i}", NodeKind.MOLECULE, fp, "", smi),
                  (f"c{i}", NodeKind.CELL_MORPHOLOGY, rng.uniform(0, 1, 5).astype(np.float32))]
        edges += [(f"m{i}", f"c{i}", Relation.PERTURBATION, 1.0),
                  (f"m{i}", f"g{i % 3}", Relation.PERTURBATION, 1.0)]
    edges += [(f"c{i}", f"c{(i + 1) % n_mols}", Relation.SIMILARITY, 0.5 + 0.1 * (i % 3))
              for i in range(n_mols)]
    return graph_of(nodes, edges).finalize()


def per_walk_mean(g, starts, paths, store, beta, noise, likelihood):
    """Batch mean of the per-walk oracle loss: total, KL, recon and gradients."""
    scale = 1.0 / len(paths)
    grads = {name: np.zeros_like(arr) for name, arr in store.params.items()}
    total = kl = 0.0
    recon = {}
    for w, path in enumerate(paths):
        bound = store.bind()
        loss, br = reference_walk_loss(g, path, bound, beta, noise[w], likelihood)
        loss.backward()
        for name, leaf in bound.items():
            if leaf.grad is not None:
                grads[name] += scale * leaf.grad
        total += scale * br.total
        kl += scale * br.kl
        for kind, v in br.recon_per_modality.items():
            recon[kind] = recon.get(kind, 0.0) + scale * v
    return total, kl, recon, grads


def truncated_paths(g):
    """Walks of 4, 2, 2 and 3 nodes, two of them cut short at a dead end."""
    starts = ["m0", "m1"]
    paths = walk_batch(g, [WalkPath(["m0", "c0", "c1", "m1"], [1.0, 0.6, 1.0]),
                           WalkPath(["m0", "g0"], [1.0], truncated=True),
                           WalkPath(["m1", "c1"], [1.0], truncated=True),
                           WalkPath(["m1", "g1", "m4"], [1.0, 1.0])])
    return starts, paths


def sampled_paths(g):
    starts = ["m3", "m0", "m5"]
    return starts, batch_walks(g, starts, WalkConfig(length=4, walks_per_molecule=3, seed=1))


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("beta", [1e-9, 1.0])
@pytest.mark.parametrize("make_paths", [sampled_paths, truncated_paths],
                         ids=["sampled", "truncated"])
def test_batch_loss_equals_per_walk_mean(likelihood, beta, make_paths):
    cfg = small_cfg(likelihood=likelihood)
    g = walk_graph()
    store = make_store(cfg, g)
    starts, paths = make_paths(g)
    noise = np.random.default_rng(4).standard_normal((len(paths), cfg.latent_dim))
    total, kl, recon, grads = per_walk_mean(g, starts, paths, store, beta, noise,
                                            likelihood)

    bound = store.bind()
    loss, br = batch_loss(g, starts, paths, bound, beta, noise, likelihood)
    loss.backward()
    assert loss.item() == pytest.approx(total, rel=0, abs=1e-10)
    assert br.total == pytest.approx(total, rel=0, abs=1e-10)
    assert br.kl == pytest.approx(kl, rel=0, abs=1e-10)
    assert br.beta == beta
    assert br.recon_per_modality.keys() == recon.keys() == {
        "molecule", "cell_morphology", "gene_expression"}
    for kind, v in recon.items():
        assert br.recon_per_modality[kind] == pytest.approx(v, rel=0, abs=1e-10), kind
    for name, leaf in bound.items():
        got = leaf.grad if leaf.grad is not None else np.zeros_like(grads[name])
        np.testing.assert_allclose(got, grads[name], rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
def test_batch_loss_isolated_molecule_trains_on_own_fingerprint(likelihood):
    """A molecule with no context edges walks a 1-node path: its only target
    is its own fingerprint (alpha = 1, L = 1)."""
    from infoalign.fingerprint import morgan_fingerprint
    nodes = [(f"m{i}", NodeKind.MOLECULE, morgan_fingerprint(molecule_set([parse_smiles(smi)]),
                                                              2, 64)[0], "", smi)
             for i, smi in enumerate(["CCO", "CCN", "c1ccccc1"])]
    g = graph_of(nodes + [("c0", NodeKind.CELL_MORPHOLOGY, np.linspace(0, 1, 5))],
                 [("m0", "c0", Relation.PERTURBATION, 1.0),
                  ("m2", "c0", Relation.PERTURBATION, 1.0)]).finalize()
    isolated = batch_walks(g, ["m1"], WalkConfig(length=4))[0]
    assert isolated.nodes == ["m1"] and isolated.alphas == [] and isolated.truncated
    starts = ["m0", "m1", "m2"]
    paths = walk_batch(g, [WalkPath(["m0", "c0", "m2"], [1.0, 1.0]), isolated,
                           WalkPath(["m2", "c0"], [1.0], truncated=True)])
    cfg = small_cfg(likelihood=likelihood)
    store = make_store(cfg, g)
    noise = np.random.default_rng(5).standard_normal((len(paths), cfg.latent_dim))
    total, kl, recon, grads = per_walk_mean(g, starts, paths, store, 1.0, noise, likelihood)
    bound = store.bind()
    loss, br = batch_loss(g, starts, paths, bound, 1.0, noise, likelihood)
    loss.backward()
    assert loss.item() == pytest.approx(total, rel=0, abs=1e-10)
    assert br.kl == pytest.approx(kl, rel=0, abs=1e-10)
    for kind, v in recon.items():
        assert br.recon_per_modality[kind] == pytest.approx(v, rel=0, abs=1e-10), kind
    for name, leaf in bound.items():
        np.testing.assert_allclose(leaf.grad, grads[name], rtol=0, atol=1e-10, err_msg=name)


def test_batch_loss_rejects_misgrouped_paths():
    cfg = small_cfg()
    g = walk_graph()
    store = make_store(cfg, g)
    starts, paths = truncated_paths(g)
    noise = np.zeros((len(paths), cfg.latent_dim))
    with pytest.raises(PathMismatchError):
        batch_loss(g, starts[::-1], paths, store.bind(), 0.0, noise)
    with pytest.raises(PathMismatchError):
        batch_loss(g, ["c0"], walk_batch(g, [WalkPath(["c0", "m0"], [1.0])]), store.bind(),
                   0.0, noise[:1])
    with pytest.raises(ValueError):
        batch_loss(g, starts, paths[:3], store.bind(), 0.0, noise[:3])
    with pytest.raises(ShapeMismatchError):
        batch_loss(g, starts, paths, store.bind(), 0.0, noise[:3])


def reference_pretrain(graph, cfg):
    """The per-walk training loop that `pretrain` batches: one tape per walk,
    one backward pass per molecule, one Adam step per minibatch."""
    store = dc.ParamStore(seed=cfg.seed)
    init_model(store, cfg, feature_keys(graph))
    mols = graph.molecule_ids()
    shuffle_rng = dc.seeded_rng(cfg.seed, _SHUFFLE_STREAM)
    noise_rng = dc.seeded_rng(cfg.seed, _NOISE_STREAM)
    per_mol = cfg.walks_per_molecule
    logs = []
    for epoch in range(cfg.epochs):
        order = [mols[i] for i in shuffle_rng.permutation(len(mols))]
        walks = batch_walks(graph, order, WalkConfig(
            length=cfg.walk_length, walks_per_molecule=per_mol,
            seed=cfg.seed + 7919 * (epoch + 1), uniform=cfg.uniform))
        sums, kl_sum, total_sum = {}, 0.0, 0.0
        for b0 in range(0, len(order), cfg.batch_size):
            batch = order[b0 : b0 + cfg.batch_size]
            for k in range(len(batch)):
                idx = (b0 + k) * per_mol
                bound = store.bind()
                acc = None
                for path in walks[idx : idx + per_mol]:
                    noise = noise_rng.standard_normal(cfg.latent_dim)
                    loss, br = reference_walk_loss(graph, path, bound, cfg.beta, noise,
                                                   cfg.likelihood)
                    acc = loss if acc is None else add(acc, loss)
                    for kind, v in br.recon_per_modality.items():
                        sums[kind] = sums.get(kind, 0.0) + v / per_mol
                    kl_sum += br.kl / per_mol
                    total_sum += br.total / per_mol
                dc.mul(acc, dc.constant(1.0 / per_mol)).backward()
                for leaf in bound.values():
                    if leaf.grad is not None:
                        leaf.grad = leaf.grad * (1.0 / len(batch))
                store.accumulate(bound)
            dc.adam_step(store, lr=cfg.lr)
        n = len(order)
        logs.append(LossBreakdown({k: v / n for k, v in sums.items()}, kl_sum / n,
                                  cfg.beta, total_sum / n))
    return store, logs


@pytest.mark.parametrize("likelihood,beta", [("bernoulli", 1e-9), ("gaussian", 1.0)])
def test_pretrain_matches_per_walk_reference(likelihood, beta):
    """7 molecules in batches of 3 (the last batch holds one), 3 walks each."""
    g = walk_graph(n_mols=7)
    cfg = small_cfg(likelihood=likelihood, beta=beta, epochs=2, batch_size=3, lr=5e-3,
                    seed=2, walk_length=4, walks_per_molecule=3)
    store, logs = pretrain(g, cfg)
    ref, ref_logs = reference_pretrain(g, cfg)
    assert store.step == ref.step == 2 * 3
    for name, arr in ref.params.items():
        np.testing.assert_allclose(store.params[name], arr, rtol=0, atol=1e-10, err_msg=name)
    for got, want in zip(logs, ref_logs, strict=True):
        assert got.total == pytest.approx(want.total, rel=1e-10)
        assert got.kl == pytest.approx(want.kl, rel=1e-10)
        assert got.recon_per_modality == pytest.approx(want.recon_per_modality, rel=1e-10)


def plan_graph():
    """Molecules m0-m5 with their own morphology node and one of two shared
    gene-expression nodes, the morphology nodes in a weighted ring, and m6
    with no edges, so its walks are the molecule alone."""
    from infoalign.fingerprint import morgan_fingerprint
    rng = np.random.default_rng(5)
    smiles = ["CCO", "c1ccccc1", "CC(C)O", "OCCO", "CSC", "NCCN", "CC=O"]
    fps = morgan_fingerprint(molecule_set([parse_smiles(s) for s in smiles]), 2, 64)
    nodes = [(f"g{j}", NodeKind.GENE_EXPRESSION, rng.uniform(0, 1, 4).astype(np.float32))
             for j in range(2)]
    nodes += [(f"m{i}", NodeKind.MOLECULE, fps[i], "", smi) for i, smi in enumerate(smiles)]
    nodes += [(f"c{i}", NodeKind.CELL_MORPHOLOGY, rng.uniform(0, 1, 5).astype(np.float32))
              for i in range(6)]
    edges = [(f"m{i}", f"c{i}", Relation.PERTURBATION, 1.0) for i in range(6)]
    edges += [(f"m{i}", f"g{i % 2}", Relation.PERTURBATION, 0.8) for i in range(6)]
    edges += [(f"c{i}", f"c{(i + 1) % 6}", Relation.SIMILARITY, 0.5 + 0.1 * (i % 3))
              for i in range(6)]
    return graph_of(nodes, edges).finalize()


def reference_steps(graph, cfg):
    """`pretrain`'s steps with `reference_batch_loss` as the loss: per step,
    the store's flat buffer after Adam, the breakdown, and the order in which
    the batch's targets first meet each kind."""
    store = make_store(cfg, graph)
    mols = graph.molecule_ids()
    shuffle_rng = dc.seeded_rng(cfg.seed, _SHUFFLE_STREAM)
    noise_rng = dc.seeded_rng(cfg.seed, _NOISE_STREAM)
    per_mol = cfg.walks_per_molecule
    for epoch in range(cfg.epochs):
        order = [mols[i] for i in shuffle_rng.permutation(len(mols))]
        walks = batch_walks(graph, order, cfg.walks(epoch))
        for b0 in range(0, len(order), cfg.batch_size):
            batch = order[b0 : b0 + cfg.batch_size]
            paths = walks[b0 * per_mol : (b0 + len(batch)) * per_mol]
            noise = noise_rng.standard_normal((len(paths), cfg.latent_dim))
            with np.errstate(over="ignore", invalid="ignore"):
                bound = store.bind()
                loss, br = reference_batch_loss(graph, batch, paths, bound, cfg.beta, noise,
                                                cfg.likelihood)
                loss.backward()
                store.accumulate(bound)
                dc.adam_step(store, lr=cfg.lr)
            kinds = [graph.node(n).kind.value for path in paths for n in path.nodes]
            yield store.flat.copy(), br, list(dict.fromkeys(kinds))


def breakdown_bits(br):
    return list(br.recon_per_modality), np.array(
        [*br.recon_per_modality.values(), br.kl, br.beta, br.total]).view(np.uint64).tolist()


@pytest.mark.parametrize("likelihood,beta", [("bernoulli", 1e-9), ("gaussian", 1.0)])
def test_planned_steps_equal_per_batch_reference_bit_for_bit(likelihood, beta, monkeypatch):
    """Each step of `pretrain`, which slices one plan per epoch, leaves the
    parameters and Adam moments, and gives the breakdown, of the per-step
    structures of `reference_batch_loss`, bit for bit: 7 molecules in
    batches of 3 (the last holds one), an isolated molecule whose walks are
    one node, and batches that meet morphology or gene expression first."""
    import infoalign.model
    real_step, real_adam = infoalign.model.step_loss, dc.adam_step
    steps = []  # per step: the breakdown, then the flat buffer after Adam

    def step(*args):
        loss, br = real_step(*args)
        steps.append([br])
        return loss, br

    def adam(store, **kw):
        real_adam(store, **kw)
        steps[-1].append(store.flat.copy())

    g = plan_graph()
    cfg = small_cfg(likelihood=likelihood, beta=beta, epochs=2, batch_size=3, lr=5e-3, seed=4,
                    walk_length=4, walks_per_molecule=3)
    monkeypatch.setattr(infoalign.model, "step_loss", step)
    monkeypatch.setattr(dc, "adam_step", adam)
    pretrain(g, cfg)
    monkeypatch.undo()
    reference = list(reference_steps(g, cfg))
    assert len(steps) == len(reference) == 2 * 3
    firsts = {tuple(k for k in kinds if k != "molecule") for _f, _b, kinds in reference}
    assert {("cell_morphology", "gene_expression"),
            ("gene_expression", "cell_morphology")} <= firsts
    assert (batch_walks(g, ["m6"], cfg.walks(0)).sizes == 1).all()
    for (br, flat), (ref_flat, ref_br, _kinds) in zip(steps, reference):
        assert np.array_equal(flat.view(np.uint64), ref_flat.view(np.uint64))
        assert breakdown_bits(br) == breakdown_bits(ref_br)


def test_pretrain_decodes_each_group_once_through_decode_nll(monkeypatch):
    """Each step decodes once per (kind, dim) of its batch's walks' nodes,
    through the module's `decode_nll`, the name the per-layer tracer times.
    The groups are read from the walks, not from the plan."""
    from collections import Counter

    import infoalign.model
    real_walks = infoalign.model.batch_walks
    real_loss, real_decode = infoalign.model.step_loss, infoalign.model.decode_nll
    cfg = small_cfg(epochs=2, batch_size=3, walk_length=4, walks_per_molecule=2)
    g = walk_graph(n_mols=7)
    epochs = []  # each epoch's walks
    batches = []  # per step: (decoded (kind, dim) groups, the batch's groups)

    def sampled(*args):
        epochs.append(real_walks(*args))
        return epochs[-1]

    def counted_loss(plan, b, *args):
        size = cfg.batch_size * cfg.walks_per_molecule
        groups = {(g.node(n).kind, g.node(n).modality_dim)
                  for path in epochs[-1][b * size : (b + 1) * size] for n in path.nodes}
        batches.append(([], groups))
        return real_loss(plan, b, *args)

    def counted_decode(z, targets, kind, *args):
        batches[-1][0].append((kind, np.shape(targets)[1]))
        return real_decode(z, targets, kind, *args)

    monkeypatch.setattr(infoalign.model, "batch_walks", sampled)
    monkeypatch.setattr(infoalign.model, "step_loss", counted_loss)
    monkeypatch.setattr(infoalign.model, "decode_nll", counted_decode)
    pretrain(g, cfg)
    assert len(epochs) == 2 and len(batches) == 2 * 3
    assert any(len(groups) == 3 for _calls, groups in batches)
    for calls, groups in batches:
        assert Counter(calls) == Counter(groups)


def test_batch_loss_tape_size_at_the_recovery_config(monkeypatch):
    """A minibatch of the benchmark's recovery configuration (2 GIN layers, 4
    molecules with 4 walks of 4 nodes, three decoders) builds at most 20
    tensors: one node per GIN layer, per head, per decoded group and per
    loss term. An unfused chain fails here, not only in the benchmark's
    timings."""
    cfg = small_cfg(hidden=32, decoder_hidden=32, batch_size=4, walk_length=4,
                    walks_per_molecule=4, lr=5e-3)
    g = walk_graph(n_mols=8)
    store = make_store(cfg, g)
    count = [0]
    init = dc.Tensor.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    starts = g.molecule_ids()[:4]
    paths = batch_walks(g, starts, cfg.walks(0))
    noise = np.zeros((len(paths), cfg.latent_dim))
    bound = store.bind()
    monkeypatch.setattr(dc.Tensor, "__init__", counted)
    batch_loss(g, starts, paths, bound, cfg.beta, noise)
    monkeypatch.undo()
    assert len({g.node(n).kind for path in paths for n in path.nodes}) == 3
    assert count[0] <= 20


def test_pretrain_names_the_step_of_a_non_finite_gradient(monkeypatch):
    """A leaf gradient gone NaN in the fourth step (7 molecules in batches
    of 3) is reported once, by the store's check, with its epoch and
    batch."""
    real_bind, real_backward = dc.ParamStore.bind, dc.Tensor.backward
    bound, steps = {}, []

    def bind(self):
        bound.update(real_bind(self))
        return dict(bound)

    def backward(self):
        real_backward(self)
        steps.append(1)
        if len(steps) == 4:
            bound["gin.l0.w0"].grad = np.full_like(bound["gin.l0.w0"].data, np.nan)

    monkeypatch.setattr(dc.ParamStore, "bind", bind)
    monkeypatch.setattr(dc.Tensor, "backward", backward)
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite leaf gradient in epoch 1, batch 0$"):
        pretrain(walk_graph(n_mols=7), small_cfg(batch_size=3))


def test_pretrain_missing_decoder_fails_before_training(monkeypatch):
    import infoalign.model

    def no_walks(*_args):
        raise AssertionError("walks sampled before the decoder check")

    monkeypatch.setattr(infoalign.model, "batch_walks", no_walks)
    g = tiny_graph()
    cfg = small_cfg()
    store = dc.ParamStore(seed=cfg.seed)
    init_model(store, cfg, [("molecule", 64)])
    before = {name: arr.copy() for name, arr in store.params.items()}
    with pytest.raises(NoDecoderError, match="'cell_morphology' with 5 features"):
        pretrain(g, cfg, store=store)
    assert store.step == 0
    assert all(np.array_equal(store.params[name], arr) for name, arr in before.items())


# --- pretrain / embed / checkpoints -----------------------------------------------------

def test_training_bytes_equal_slow_oracles(tmp_path, monkeypatch):
    """`pretrain` and `probe_train` write the same checkpoint bytes with the
    `np.add.at` scatter and the per-parameter Adam loop patched in. Both runs
    use the same BLAS, so the bytes need not match across builds."""
    from collections import Counter

    from infoalign.cli import main
    from infoalign.evalkit import LabeledSet, ProbeConfig, probe_train
    data, graph = tmp_path / "synth", tmp_path / "g.ctxg"
    assert main(["synth", "--out", str(data), "--clusters", "2", "--per-cluster", "6",
                 "--morph-dim", "6", "--gexp-dim", "6", "--seed", "0"]) == 0
    assert main(["build-graph", "--nodes", str(data / "nodes.tsv"), "--edges",
                 str(data / "edges.tsv"), "--fp-bits", "64", "--out", str(graph)]) == 0
    g = ContextGraph.load(graph)
    cfg = small_cfg(epochs=2, batch_size=5, walks_per_molecule=2)
    mols = g.molecules()[0]
    labels = (np.arange(len(mols)) % 2).astype(np.float64)[:, None]

    def train(tag):
        state = TrainState()
        store, _ = pretrain(g, cfg, state=state)
        save_checkpoint(tmp_path / f"{tag}.iapt", store, cfg, g, state)
        head = probe_train(LabeledSet(embed(store, mols), labels,
                                      ["classification"]),
                           ProbeConfig(epochs=20))
        dc.save_params(tmp_path / f"{tag}.probe", head.store)
        return [(tmp_path / f"{tag}.{ext}").read_bytes() for ext in ("iapt", "probe")]

    fast = train("fast")
    calls = Counter()

    def scatter(self, base, values):
        calls["scatter"] += 1
        return reference_scatter_add(base, self.index, values)

    def adam(store, **kw):
        calls["adam"] += 1
        reference_adam_step(store, **kw)

    monkeypatch.setattr(dc.RowIndex, "add_to", scatter)
    monkeypatch.setattr(dc, "adam_step", adam)
    assert train("oracle") == fast
    assert calls["adam"] == 2 * 3 + 20 and calls["scatter"] > 0


def test_pretrain_deterministic_checkpoint(tmp_path):
    g = tiny_graph()
    cfg = small_cfg(epochs=2)
    p1, p2 = tmp_path / "a.iapt", tmp_path / "b.iapt"
    for p in (p1, p2):
        state = TrainState()
        store, logs = pretrain(g, cfg, state=state)
        save_checkpoint(p, store, cfg, g, state)
        assert len(logs) == cfg.epochs
    assert p1.read_bytes() == p2.read_bytes()


def test_pretrain_loss_decreases():
    g = tiny_graph(n_mols=8)
    ok = 0
    for seed in range(5):
        cfg = small_cfg(epochs=4, seed=seed, lr=5e-3)
        _, logs = pretrain(g, cfg)
        if logs[-1].total < logs[0].total:
            ok += 1
    assert ok >= 4


@pytest.mark.parametrize("uniform", [False, True])
def test_pretrain_resume_equals_straight_run(tmp_path, uniform):
    """One epoch, a checkpoint round trip and one more epoch give the bytes
    and the second epoch's log of one straight run of two."""
    g = walk_graph(n_mols=7)
    cfg = small_cfg(epochs=2, batch_size=3, seed=4, walks_per_molecule=2, uniform=uniform)
    state = TrainState()
    store, logs = pretrain(g, cfg, state=state)
    save_checkpoint(tmp_path / "straight.iapt", store, cfg, g, state)

    state = TrainState()
    store, _ = pretrain(g, replace(cfg, epochs=1), state=state)
    save_checkpoint(tmp_path / "first.iapt", store, cfg, g, state)
    store, loaded, state = load_checkpoint(tmp_path / "first.iapt")
    assert (loaded.epochs, state.epoch) == (1, 1)
    seen = []
    store, resumed = pretrain(g, replace(cfg, epochs=1), store=store, state=state,
                              log_fn=lambda e, br, _store: seen.append(e))
    save_checkpoint(tmp_path / "resumed.iapt", store, cfg, g, state)
    assert seen == [1] and resumed == logs[1:]
    assert (tmp_path / "resumed.iapt").read_bytes() == (tmp_path / "straight.iapt").read_bytes()


def test_pretrain_resume_continues_steps(tmp_path):
    g = tiny_graph()
    cfg = small_cfg(epochs=1)
    store, _ = pretrain(g, cfg)
    step_before = store.step
    store2, _ = pretrain(g, cfg, store=store)
    assert store2.step > step_before


def test_embed_properties():
    g = tiny_graph()
    cfg = small_cfg()
    store, _ = pretrain(g, cfg)
    mols = [parse_smiles(s) for s in ["CCO", "CCN", "c1ccccc1"]]
    z1 = embed(store, molecule_set(mols))
    z2 = embed(store, molecule_set(mols))
    assert np.array_equal(z1, z2)
    assert z1.shape == (3, cfg.latent_dim)
    perm = embed(store, molecule_set([mols[2], mols[0], mols[1]]))
    assert np.array_equal(perm, z1[[2, 0, 1]])


# Sixteen varied molecules ("C" and "O" have no bonds), sixteen single-atom
# molecules, then one more molecule.
EMBED_SMILES = (["CCO", "C", "c1ccccc1", "O", "CC(=O)O", "CCN", "OCC(O)CO", "c1ccc(N)cc1",
                 "CC(C)CC(=O)O", "C1CC1", "N#CC#N", "CSC", "ClC(Cl)(Cl)Cl", "[NH4+]",
                 "CC=O", "NCCN"]
                + ["C", "O", "N", "S", "F", "Cl", "[NH4+]", "[O-]"] * 2
                + ["CC(C)O"])


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33])
def test_embed_rows_equal_single_molecule_encodes(n):
    cfg = small_cfg()
    store = make_store(cfg, tiny_graph())
    mols = [parse_smiles(s) for s in EMBED_SMILES[:n]]
    z = embed(store, molecule_set(mols))
    assert z.shape == (n, cfg.latent_dim)
    bound = store.bind()
    for k, mol in enumerate(mols):
        np.testing.assert_allclose(z[k], gin_encode(mol, bound).mu.data[0], rtol=0, atol=1e-12)


def test_embed_rejects_non_finite_weight():
    store = make_store(small_cfg(), tiny_graph())
    store.params["head_mu.b0"][2] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite embedding"):
        embed(store, molecule_set([parse_smiles("CCO")]))


def test_embed_row_does_not_depend_on_its_block():
    """Rotating a 20-molecule input by 4 moves each molecule to another row
    of its block, and each keeps its exact mu."""
    store = make_store(small_cfg(), tiny_graph())
    mols = [parse_smiles(s) for s in EMBED_SMILES[:20]]
    z = embed(store, molecule_set(mols))
    rotated = embed(store, molecule_set(mols[4:] + mols[:4]))
    assert np.array_equal(rotated, np.concatenate([z[4:], z[:4]]))


@pytest.fixture(scope="module")
def evaluate_set():
    """A store of the evaluate checkpoint's shape and the 1000 molecules of
    the evaluate workload's seed-1 draw."""
    smiles = generate(SyntheticSpec(clusters=8, per_cluster=125, noise=0.1, seed=1)).smiles
    store = dc.ParamStore(seed=1)
    init_model(store, small_cfg(latent_dim=8, hidden=32), [])
    return store, parse_many(smiles)


def test_embed_alone_equals_its_row_in_a_large_set(evaluate_set):
    """Each molecule embedded alone (beside a copy of itself) gives, bit for
    bit, its row of the 1000-molecule set; so does each molecule that does
    not fit in the set's first block, embedded as a lone last molecule after
    it. A BLAS whose gemm rows depend on the row count fails this."""
    store, mols = evaluate_set
    z = embed(store, mols)
    for i in range(len(mols)):
        assert np.array_equal(embed(store, molecule_set([molecule(mols, i)])), z[i : i + 1])

    (_, full), *_ = _embed_blocks(mols.atom_start, _EMBED_ATOMS)
    block = [molecule(mols, k) for k in range(full)]
    room = _EMBED_ATOMS - int(mols.atom_start[full])
    lone = [i for i in range(full, len(mols)) if np.diff(mols.atom_start)[i] > room]
    assert len(lone) > 100
    for i in lone:
        after = molecule_set(block + [molecule(mols, i)])
        assert _embed_blocks(after.atom_start, _EMBED_ATOMS) == [(0, full + 1)]
        assert np.array_equal(embed(store, after)[-1], z[i])


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 40),
       st.lists(st.one_of(st.sampled_from(EMBED_SMILES), smiles_strings()),
                min_size=1, max_size=30))
def test_embed_rows_do_not_depend_on_the_atom_budget(evaluate_set, budget, smiles):
    """Blocks of at most `budget` atoms (or two molecules) cover the set in
    order, none of one molecule, and give the rows of one large block."""
    store, _ = evaluate_set
    mols = parse_many(smiles)
    blocks = _embed_blocks(mols.atom_start, budget)
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == len(mols)

    def closed(lo, hi):  # two molecules, or no more than the budget's atoms
        return hi - lo == 2 or mols.atom_start[hi] - mols.atom_start[lo] <= budget

    for lo, hi in blocks:
        assert hi - lo >= min(2, len(mols))
        # the last block may hold the lone last molecule beside a closed block
        assert closed(lo, hi) or len(mols) == 1 or hi == len(mols) and closed(lo, hi - 1)
    with mock.patch.object(model, "_EMBED_ATOMS", budget):
        z = embed(store, mols)
    with mock.patch.object(model, "_EMBED_ATOMS", 10**9):
        assert np.array_equal(z, embed(store, mols))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["one", "below_largest", "default", "huge"]),
       st.lists(st.one_of(st.sampled_from(EMBED_SMILES), smiles_strings()),
                min_size=1, max_size=30))
@example("default", ["CCO"])
@example("one", ["CCO", "c1ccccc1"])
@example("one", ["CCO", "c1ccccc1", "CC(=O)O"])  # the lone last molecule joins its block
@example("below_largest", ["CC(C)CC(=O)O", "CCO", "CC(C)CC(=O)O", "CCO", "CCO"])
@example("one", ["CCO"] * 5)
@example("one", ["C", "O", "C", "O", "C", "CCO"])  # blocks with no messages
@example("default", ["C", "O"] * 20)
def test_embed_equals_per_block_reference(evaluate_set, budget, smiles):
    """`embed`, which cuts every block from one `AtomGraph`, gives the bits
    of `reference_embed`, which lays out each block on its own, at atom
    budgets of 1, one atom below the largest molecule, the default and
    10**9."""
    store, _ = evaluate_set
    mols = parse_many(smiles)
    atoms = {"one": 1, "below_largest": int(np.diff(mols.atom_start).max()) - 1,
             "default": _EMBED_ATOMS, "huge": 10**9}[budget]
    with mock.patch.object(model, "_EMBED_ATOMS", max(atoms, 1)):
        assert embed(store, mols).tobytes() == reference_embed(store, mols).tobytes()


def test_checkpoint_manifest_round_trip(tmp_path):
    g = tiny_graph()
    cfg = small_cfg(beta=1e-5)
    state = TrainState()
    store, _ = pretrain(g, cfg, state=state)
    p = tmp_path / "ck.iapt"
    save_checkpoint(p, store, cfg, g, state)
    store2, cfg2, state2 = load_checkpoint(p)
    assert cfg2 == cfg
    assert state2 == state and state.epoch == cfg.epochs
    assert decoder_keys(store2) == decoder_keys(store)
    mols = [parse_smiles("CCO")]
    assert np.array_equal(embed(store, molecule_set(mols)), embed(store2, molecule_set(mols)))


def test_checkpoint_records_graph_fingerprint_width(tmp_path):
    """A library checkpoint records the graph's fingerprint width, not the
    config's default."""
    g = tiny_graph(fp_bits=64)
    cfg = small_cfg(fp_bits=1024, epochs=1)
    state = TrainState()
    store, _ = pretrain(g, cfg, state=state)
    p = tmp_path / "ck.iapt"
    save_checkpoint(p, store, cfg, g, state)
    assert load_checkpoint(p)[1] == replace(cfg, fp_bits=64)
