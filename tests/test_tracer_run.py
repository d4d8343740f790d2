"""The per-layer tracer against a real run: `perfbench/tracer.py`, loaded by
path and not modified, is installed around in-process `build-graph`,
`pretrain` and `embed` calls, and the counts it reads from the graph
(`ContextGraph.node_ids`, `node(...).kind` and `.modality_dim`) agree with the
graph's own stats."""

import importlib.util
import json
from pathlib import Path

from infoalign.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
KINDS = ("cell_morphology", "gene_expression")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def run(argv):
    return main([str(a) for a in argv])


def test_traced_run_counts_the_similarity_pairs_and_edges(tmp_path):
    data, graph, ck = tmp_path / "synth", tmp_path / "g.ctxg", tmp_path / "ck.iapt"
    smi = tmp_path / "q.smi"
    tracer = load_tracer()
    tracer.install()
    try:
        codes = [
            run(["synth", "--out", data, "--clusters", 2, "--per-cluster", 8,
                 "--morph-dim", 6, "--gexp-dim", 5, "--seed", 1]),
            run(["build-graph", "--nodes", data / "nodes.tsv", "--edges", data / "edges.tsv",
                 "--similarity-kinds", ",".join(KINDS), "--keep-fraction", 0.1,
                 "--fp-bits", 64, "--out", graph]),
            run(["pretrain", "--graph", graph, "--out", ck, "--epochs", 1, "--latent-dim", 4,
                 "--num-layers", 1, "--hidden", 6, "--decoder-hidden", 6, "--fp-bits", 64]),
        ]
        smi.write_text("CCO\nc1ccccc1\n", encoding="utf-8")
        codes.append(run(["embed", "--checkpoint", ck, "--input", smi,
                          "--out", tmp_path / "z.tsv"]))
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert not tracer.installed
    stats = json.loads(Path(f"{graph}.stats.json").read_text())
    counts = tracer.snapshot()
    n = [stats["nodes_by_kind"][kind] for kind in KINDS]
    assert counts["ctxgraph.similarity_pairs"] == sum(k * (k - 1) // 2 for k in n)
    assert counts["ctxgraph.similarity_edges"] == stats["edges_by_relation"]["similarity"] > 0
    assert counts["ctxgraph.similarity.calls"] == len(KINDS)
