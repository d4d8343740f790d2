"""The three benchmark workloads.

Each workload generates its inputs with `infoalign synth` from the benchmark
seed in `setup`, then `run_round` drives the CLI over them once and queues a
check of every output. Every round runs the same commands and checks, so
each round attempts the same operations. Rounds take a few seconds, so
that a run holds several of them and reports their mean.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks

KINDS = "cell_morphology,gene_expression"


def _rows(path):
    return [line.split("\t") for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]


def _write(path, lines):
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _molecule_inputs(d: Path, one_hot: bool):
    """SMILES file, label table and molecule ids derived from the synth tables."""
    nodes = _rows(d / "nodes.tsv")
    mols = [r for r in nodes if r[1] == "molecule"]
    _write(d / "mols.smi", [r[3] for r in mols])
    clusters = [int(r[1]) for r in _rows(d / "labels.tsv")]
    if one_hot:
        k = max(clusters) + 1
        _write(d / "labels.txt", ["\t".join("1" if c == j else "0" for j in range(k))
                                  for c in clusters])
    else:
        _write(d / "labels.txt", [str(c) for c in clusters])
    return [r[0] for r in mols]


class Dataset:
    def __init__(self, path: Path, seed: int):
        self.path = path
        self.seed = seed
        self.mol_ids = []


class Workload:
    name = ""
    why = ""
    # Input sets generated per run; rounds cycle through them, so a run's
    # figures do not hang on one draw of the generator.
    DATASETS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.data = []
        self.graph_bytes = 0
        self.checkpoint_bytes = 0
        self.final_loss = 0.0
        self.encodes_per_mol_epoch = 0.0

    def setup(self, run, d: Path):
        seeds = ([self.seed] if self.DATASETS == 1 else
                 [self.seed * self.DATASETS + k for k in range(self.DATASETS)])
        self.data = [Dataset(d / f"data{k}", s) for k, s in enumerate(seeds)]
        for ds in self.data:
            self.generate(run, ds)

    def generate(self, run, ds: Dataset):
        raise NotImplementedError

    def run_round(self, run, ds: Dataset, out: Path):
        raise NotImplementedError

    def _graph(self, run, ds, graph, fp_bits):
        """build-graph with similarity edges on both profile kinds."""
        d = ds.path
        run.sample("build_graph_s", run.cli(
            ["build-graph", "--nodes", d / "nodes.tsv", "--edges", d / "edges.tsv",
             "--fp-bits", fp_bits, "--similarity-kinds", KINDS, "--out", graph]))
        run.check("graph", checks.check_graph, graph, d / "nodes.tsv", d / "edges.tsv",
                  KINDS.split(","))
        if graph.exists():
            self.graph_bytes = graph.stat().st_size

    def _probe(self, run, ds, emb, report):
        labels = ds.path / "labels.txt"
        if run.cli(["eval", "--embeddings", emb, "--labels", labels,
                    "--seed", ds.seed, "--out", report]) is not None:
            test = json.loads(report.read_text(encoding="utf-8"))["test"]
            run.sample("probe_auc", test["aggregates"]["mean_auc"])
        run.check("probe", checks.check_probe, report, emb, labels, ds.seed)


class Recovery(Workload):
    """The planted-recovery fixture of tests/test_acceptance.py, through the CLI."""

    name = "recovery"
    why = ("planted-recovery fixture, 200 molecules and 2 epochs: pretraining (encoder, "
           "decoders, backward, Adam) is most of a round; graph building is small")
    EPOCHS = 2
    MOLECULES = 200
    MODEL = ["--latent-dim", 8, "--num-layers", 2, "--hidden", 32, "--decoder-hidden", 32,
             "--fp-bits", 64, "--batch-size", 4, "--lr", 5e-3, "--walk-length", 4]

    def generate(self, run, ds):
        run.cli(["synth", "--clusters", 2, "--per-cluster", 100, "--noise", 0.1,
                 "--morph-dim", 32, "--gexp-dim", 32, "--motifs", "CSC,CC(S)C",
                 "--decoration-min", 10, "--decoration-max", 60,
                 "--seed", ds.seed, "--out", ds.path])
        ds.mol_ids = _molecule_inputs(ds.path, one_hot=False)

    def run_round(self, run, ds, out):
        self._graph(run, ds, out / "graph.ctxg", 64)
        ckpt, emb, report = out / "model.iapt", out / "emb.tsv", out / "eval.json"
        log = Path(f"{ckpt}.log.tsv")
        wall = run.cli(["pretrain", "--graph", out / "graph.ctxg", *self.MODEL,
                        "--walks-per-molecule", 4, "--epochs", self.EPOCHS,
                        "--seed", ds.seed, "--out", ckpt])
        if wall is not None:
            n = self.MOLECULES * self.EPOCHS
            run.sample("pretrain_mol_per_s", n / wall)
            self.checkpoint_bytes = ckpt.stat().st_size
            self.final_loss = float(_rows(log)[-1][1])
            if run.last_trace:
                self.encodes_per_mol_epoch = run.last_trace.get("model.encode.calls", 0) / n
        run.check("losses", checks.check_losses, log, self.EPOCHS)
        wall = run.cli(["embed", "--checkpoint", ckpt, "--input", ds.path / "mols.smi",
                        "--out", emb])
        if wall is not None:
            run.sample("embed_mol_per_s", self.MOLECULES / wall)
        self._probe(run, ds, emb, report)


class GraphScale(Workload):
    name = "graph-scale"
    why = ("3 draws of 1000 molecules, 3000 nodes: quadratic similarity edges, SMILES "
           "parsing, fingerprints and 16000 walks; no model is trained")
    # The similarity candidates `build-graph` sorts vary by about 15% between
    # draws, and build time with them.
    DATASETS = 3
    LENGTH, PER = 8, 16

    def generate(self, run, ds):
        run.cli(["synth", "--clusters", 8, "--per-cluster", 125, "--noise", 0.1,
                 "--seed", ds.seed, "--out", ds.path])
        ds.mol_ids = [r[0] for r in _rows(ds.path / "nodes.tsv") if r[1] == "molecule"]

    def run_round(self, run, ds, out):
        graph, walks = out / "graph.ctxg", out / "walks.tsv"
        self._graph(run, ds, graph, 1024)
        wall = run.cli(["walk", "--graph", graph, "--length", self.LENGTH,
                        "--walks-per-molecule", self.PER, "--seed", ds.seed, "--out", walks])
        if wall is not None:
            run.sample("walk_steps_per_s", checks.count_walk_steps(walks) / wall)
        run.check("walks", checks.check_walks, walks, graph, ds.mol_ids, self.PER, self.LENGTH)


class Evaluate(Workload):
    name = "evaluate"
    why = ("a trained checkpoint on 1000 molecules: forward-only embed, probe, 1000 x 1000 "
           "zero-shot match and exact MI bounds; no backward pass or Adam")
    MOLECULES = 1000

    def __init__(self, seed):
        super().__init__(seed)
        self._oracle_mu = None

    def generate(self, run, ds):
        d = ds.path
        run.cli(["synth", "--clusters", 8, "--per-cluster", 125, "--noise", 0.1,
                 "--seed", ds.seed, "--out", d])
        # The checkpoint is trained on a small draw from the same clusters:
        # pretraining visits every molecule of its graph, and one epoch over
        # 1000 molecules would take longer than a whole round.
        t = d / "train"
        run.cli(["synth", "--clusters", 8, "--per-cluster", 8, "--noise", 0.1,
                 "--seed", ds.seed, "--out", t])
        run.cli(["build-graph", "--nodes", t / "nodes.tsv", "--edges", t / "edges.tsv",
                 "--fp-bits", 64, "--out", t / "graph.ctxg"])
        run.cli(["pretrain", "--graph", t / "graph.ctxg", *Recovery.MODEL,
                 "--walks-per-molecule", 2, "--epochs", 1, "--seed", ds.seed,
                 "--out", d / "model.iapt"])
        ds.mol_ids = _molecule_inputs(d, one_hot=True)
        nodes = _rows(d / "nodes.tsv")
        _write(d / "candidates.tsv", ["\t".join([r[0], *r[3:]]) for r in nodes
                                      if r[1] == "cell_morphology"])
        morph_of = {a: b for a, b, _rel, _w in _rows(d / "edges.tsv") if b.startswith("morph")}
        _write(d / "true_ids.txt", [morph_of[m] for m in ds.mol_ids])

    def oracle_mu(self, ds):
        if self._oracle_mu is None:
            self._oracle_mu = checks.gin_embeddings(ds.path / "model.iapt",
                                                    ds.path / "mols.smi")
        return self._oracle_mu

    def run_round(self, run, ds, out):
        d = ds.path
        ckpt = d / "model.iapt"
        self.checkpoint_bytes = ckpt.stat().st_size
        self.final_loss = float(_rows(f"{ckpt}.log.tsv")[-1][1])
        emb, report, match = out / "emb.tsv", out / "eval.json", out / "match.json"
        wall = run.cli(["embed", "--checkpoint", ckpt, "--input", d / "mols.smi", "--out", emb])
        if wall is not None:
            run.sample("embed_mol_per_s", self.MOLECULES / wall)
        run.check("embed", lambda: checks.check_embeddings(emb, self.oracle_mu(ds)))
        self._probe(run, ds, emb, report)
        wall = run.cli(["match", "--checkpoint", ckpt, "--queries", d / "mols.smi",
                        "--candidates", d / "candidates.tsv", "--true-ids", d / "true_ids.txt",
                        "--out", match])
        if wall is not None:
            run.sample("match_queries_per_s", self.MOLECULES / wall)
        run.check("match", lambda: checks.check_match(match, ckpt, self.oracle_mu(ds),
                                                      d / "candidates.tsv", d / "true_ids.txt"))
        run.sample("mi_bench_s", run.cli(["mi-bench", "--exact", "--seed", ds.seed,
                                          "--out", out / "mi.json"]))
        run.check("mi", checks.check_mi, out / "mi.json", ds.seed)


WORKLOADS = {w.name: w for w in (Recovery, GraphScale, Evaluate)}
