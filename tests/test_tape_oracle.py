"""The hand-written training step and probe fit against the define-by-run
tape they replaced (`tests/oracles.py`), bit for bit.

`model.train_step` and Adam, step after step, leave the parameters and
Adam moments, and give the loss breakdown, of the tape's `step_loss`,
`Tensor.backward`, `ParamStore.accumulate` and Adam on the same plan:
under both likelihoods, 0-3 GIN layers, batches of bond-less molecules and
molecules with no context edges. `evalkit.probe_train` leaves the store of
`tape_probe_train`, for linear and hidden heads over mixed task types."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infoalign.diffcore as dc
from infoalign.ctxgraph import NodeKind, Relation
from infoalign.evalkit import CLASSIFICATION, REGRESSION, LabeledSet, ProbeConfig, probe_train
from infoalign.fingerprint import morgan_fingerprint
from infoalign.model import (_NOISE_STREAM, _SHUFFLE_STREAM, EpochPlan, ModelConfig, Net,
                             feature_keys, init_model, train_step)
from infoalign.molparse import parse_many
from infoalign.walker import batch_walks
from tests.oracles import bind, graph_of, step_loss, tape_probe_train

# "C" and "O" have no bonds; the rest have one to eleven.
POOL = ["C", "O", "CCO", "c1ccccc1", "CC(=O)O", "CCN", "OCC(O)CO", "N#CC#N", "CSC", "C1CC1",
        "[NH4+]", "CC(C)CC(=O)O"]


def drawn_graph(smiles, isolated, seed):
    """Molecule k (SMILES smiles[k]) with its own morphology node and one of
    two gene-expression nodes, the morphology nodes in a weighted ring; the
    last `isolated` molecules have no edges, so their walks are the molecule
    alone."""
    rng = np.random.default_rng(seed)
    fps = morgan_fingerprint(parse_many(smiles), 2, 64)
    linked = len(smiles) - isolated
    nodes = [(f"g{j}", NodeKind.GENE_EXPRESSION, rng.uniform(0, 1, 3).astype(np.float32))
             for j in range(2)]
    nodes += [(f"m{k}", NodeKind.MOLECULE, fps[k], "", smi) for k, smi in enumerate(smiles)]
    nodes += [(f"c{k}", NodeKind.CELL_MORPHOLOGY, rng.uniform(0, 1, 4).astype(np.float32))
              for k in range(linked)]
    edges = [(f"m{k}", f"c{k}", Relation.PERTURBATION, 1.0) for k in range(linked)]
    edges += [(f"m{k}", f"g{k % 2}", Relation.PERTURBATION, 0.7) for k in range(linked)]
    edges += [(f"c{k}", f"c{(k + 1) % linked}", Relation.SIMILARITY, 0.5 + 0.1 * (k % 3))
              for k in range(linked) if linked > 1]
    return graph_of(nodes, edges).finalize()


def bits(br):
    return list(br.recon_per_modality), np.array(
        [*br.recon_per_modality.values(), br.kl, br.beta, br.total]).view(np.uint64).tolist()


def assert_steps_equal_the_tape(graph, cfg):
    """Train `cfg.epochs` epochs on two copies of one store, one through
    `train_step`, one through the tape, on the same plans and noise, and
    compare after every step."""
    stores = []
    for _ in range(2):
        store = dc.ParamStore(seed=cfg.seed)
        init_model(store, cfg, feature_keys(graph))
        stores.append(store)
    fast, tape = stores
    net, grads = Net.of(fast.params), Net.of(fast.grads)
    mols = graph.molecule_ids()
    shuffle = dc.seeded_rng(cfg.seed, _SHUFFLE_STREAM)
    noise_rng = dc.seeded_rng(cfg.seed, _NOISE_STREAM)
    for epoch in range(cfg.epochs):
        order = [mols[i] for i in shuffle.permutation(len(mols))]
        plan = EpochPlan(graph, order, batch_walks(graph, order, cfg.walks(epoch)),
                         cfg.batch_size)
        for b in range(len(plan.molecules)):
            noise = noise_rng.standard_normal((plan.walks[b], cfg.latent_dim))
            with np.errstate(over="ignore", invalid="ignore"):
                br = train_step(plan, b, net, grads, cfg.beta, noise, cfg.likelihood)
                dc.adam_step(fast, lr=cfg.lr)
                bound = bind(tape)
                loss, tape_br = step_loss(plan, b, bound, cfg.beta, noise, cfg.likelihood)
                loss.backward()
                tape.accumulate(bound)
                dc.adam_step(tape, lr=cfg.lr)
            assert fast.flat.tobytes() == tape.flat.tobytes(), (epoch, b)
            assert bits(br) == bits(tape_br), (epoch, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(POOL), min_size=1, max_size=6), st.integers(0, 2),
       st.sampled_from(["bernoulli", "gaussian"]), st.integers(0, 3),
       st.sampled_from([0.0, 1e-9, 0.5, 2.0]), st.integers(1, 4), st.integers(1, 3),
       st.integers(2, 4), st.integers(0, 2**16))
@example(["C", "O"], 0, "bernoulli", 2, 1e-9, 2, 2, 4, 0)  # a batch with no bonds
@example(["C", "O", "C"], 1, "gaussian", 3, 0.5, 3, 2, 3, 1)
# the last molecule isolated
@example(["CCO", "c1ccccc1", "CC(=O)O"], 1, "bernoulli", 1, 1.0, 3, 3, 4, 2)
@example(["CCO", "CCN", "CSC", "C1CC1", "OCC(O)CO"], 1, "gaussian", 0, 1e-9, 2, 2, 4, 3)
def test_train_step_equals_the_tape(smiles, isolated, likelihood, num_layers, beta,
                                    batch_size, walks, length, seed):
    graph = drawn_graph(smiles, min(isolated, len(smiles) - 1), seed)
    cfg = ModelConfig(latent_dim=3, num_layers=num_layers, hidden=6, decoder_hidden=5,
                      beta=beta, likelihood=likelihood, fp_bits=64, epochs=2,
                      batch_size=batch_size, lr=0.02, seed=seed, walk_length=length,
                      walks_per_molecule=walks)
    assert_steps_equal_the_tape(graph, cfg)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30), st.integers(1, 5),
       st.lists(st.sampled_from([CLASSIFICATION, REGRESSION]), min_size=1, max_size=3),
       st.sampled_from([0, 4]), st.integers(1, 6), st.integers(0, 2**16))
@example(20, 3, [CLASSIFICATION, REGRESSION], 4, 5, 0)  # a hidden head, mixed task types
@example(12, 2, [REGRESSION, CLASSIFICATION, CLASSIFICATION], 0, 4, 1)
def test_probe_train_equals_the_tape(n, d, task_types, hidden, epochs, seed):
    rng = np.random.default_rng(seed)
    labels = np.column_stack([rng.integers(0, 2, n).astype(np.float64)
                              if kind == CLASSIFICATION else rng.normal(size=n)
                              for kind in task_types])
    train = LabeledSet(rng.normal(size=(n, d)) * 2.0, labels, task_types)
    cfg = ProbeConfig(hidden=hidden, epochs=epochs, lr=0.05, seed=seed)
    got = probe_train(train, cfg).store.flat
    assert got.tobytes() == tape_probe_train(train, cfg).store.flat.tobytes()


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
def test_train_step_equals_the_tape_at_the_recovery_shape(likelihood):
    """The benchmark's recovery model shape (latent 8, 2 layers, hidden 32,
    batches of 16 with 2 walks of 4 nodes) on a graph of 20 molecules."""
    smiles = (POOL * 2)[:20]
    cfg = ModelConfig(latent_dim=8, num_layers=2, hidden=32, decoder_hidden=32, beta=1e-9,
                      likelihood=likelihood, fp_bits=64, epochs=2, batch_size=16, lr=5e-3,
                      seed=1, walk_length=4, walks_per_molecule=2)
    assert_steps_equal_the_tape(drawn_graph(smiles, 2, 1), cfg)
