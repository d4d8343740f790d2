"""Golden outputs: the bytes of `fingerprint --input` TSVs, of two context
graphs over fixed inputs, one built with no similarity edges and one with
them on both profile kinds, and of a short `pretrain` and `embed` on the
second graph. The first two paths do no BLAS product, so their bytes do not
depend on the BLAS build; the similarity weights and training do.

It also pins the bytes of a weighted and a `--uniform` `walk` table over
the first graph.

The fingerprint and first graph digests were taken from the per-atom parser,
featuriser and identifier builder that the array path replaced, the
similarity graph's from the full sort of every candidate pair that the
partition cut replaced, and the training digests from the loss as it stood
before `batch_loss` decoded through `decode_nll`. The two `.ctxg` digests
were taken again when the container moved to graph format 2 (node columns
and packed fingerprint bits), and again when it stopped storing the stats,
which are counted from the columns; the stats digest and the training
digests, which read those graphs, did not move. A change to the fingerprint, the
`.ctxg` format or the training arithmetic changes them on purpose and must
say so. The walk digests were taken from the writer that built the whole
table as one string, before it wrote its rows in blocks.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infoalign.cli import main
from tests.oracles import FIXED_SMILES


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


FINGERPRINT_SHA256 = {
    (0, 64):
        "ffb043ac479bbd3feaeb012d1d4aa1033a3a158ad8e7cb4a14a1359bfa758538",
    (0, 1024):
        "87202d471ea84e5d9a093d410da94cb48eb13efedb7610f181b6b960599587f2",
    (2, 64):
        "6db3c47290e9253dc1d724136f0c66aeb030652197aaa83924a9597dae3d5b13",
    (2, 1024):
        "44864f18bf1757cb7712a20541c69b621484738901c5abfbe18355bcced2e290",
    (3, 64):
        "0b37aac8e3868b519663423d368633c96087813c4f5032e7e2c0a3b1a8616bf3",
    (3, 1024):
        "5b6d68441bbc3bbea02dcdca7bbec742fd6ae8ae7a4ae7b5c644b71e39944429",
}


@pytest.mark.parametrize("radius,nbits", sorted(FINGERPRINT_SHA256))
def test_fingerprint_tsv_golden(tmp_path, radius, nbits):
    smi = tmp_path / "fixed.smi"
    smi.write_text("".join(s + "\n" for s in FIXED_SMILES), encoding="utf-8")
    out = tmp_path / "fp.tsv"
    assert main(["fingerprint", "--input", str(smi), "--radius", str(radius),
                 "--nbits", str(nbits), "--out", str(out)]) == 0
    assert sha256(out) == FINGERPRINT_SHA256[(radius, nbits)]


GRAPH_NODES = "".join(f"m{i:02d}\tmolecule\tfixed\t{s}\n" for i, s in enumerate(FIXED_SMILES)) + (
    "c0\tcell_morphology\tfixed\t0.1\t0.9\t0.4\t2.5\n"
    "c1\tcell_morphology\tfixed\t0.8\t0.2\t0.6\t-1\n"
    "c2\tcell_morphology\tfixed\t0.3\t0.2\t0.6\t7\n"
    "e0\tgene_expression\tfixed\t3\t1e-3\n"
    "e1\tgene_expression\tfixed\t-2\t0.25\n"
    "g0\tgene\tfixed\t1\n"
)
GRAPH_EDGES = "".join(f"m{i:02d}\tc{i % 3}\tperturbation\t0.5\n"
                      for i in range(len(FIXED_SMILES))) + (
    "m00\te0\tperturbation\t1\n"
    "m01\te1\tperturbation\t1\n"
    "e0\te1\tsimilarity\t0.875\n"
    "g0\tm02\tgene_molecule\t0.3\n"
    "g0\te1\tgene_gene\t0.7\n"
)
GRAPH_SHA256 = "419ec22a2213f85159ad9119087a4ee79d4162257da6c61517d53594f19eedb9"


def test_ctxg_without_similarity_edges_golden(tmp_path):
    (tmp_path / "nodes.tsv").write_text(GRAPH_NODES, encoding="utf-8")
    (tmp_path / "edges.tsv").write_text(GRAPH_EDGES, encoding="utf-8")
    out = tmp_path / "g.ctxg"
    assert main(["build-graph", "--nodes", str(tmp_path / "nodes.tsv"),
                 "--edges", str(tmp_path / "edges.tsv"), "--fp-bits", "64",
                 "--out", str(out)]) == 0
    assert sha256(out) == GRAPH_SHA256


# The graph above plus a molecule with no edges, whose walks stop at their
# start. No BLAS product reaches these tables, so their bytes do not depend
# on the BLAS build.
WALK_SHA256 = {
    "weighted": "74dfed966941091f7d62ed5d22727c5f693225bb07df0e71e6a9c0c383e725ac",
    "uniform": "256c5f01311eb6c9785cfd910147210b67f184493088688d4ac815e84138d674",
}


@pytest.mark.parametrize("mode", sorted(WALK_SHA256))
def test_walk_tsv_golden(tmp_path, mode):
    (tmp_path / "nodes.tsv").write_text(GRAPH_NODES + "m99\tmolecule\tfixed\tCCO\n",
                                        encoding="utf-8")
    (tmp_path / "edges.tsv").write_text(GRAPH_EDGES, encoding="utf-8")
    graph, out = tmp_path / "g.ctxg", tmp_path / "walks.tsv"
    assert main(["build-graph", "--nodes", str(tmp_path / "nodes.tsv"),
                 "--edges", str(tmp_path / "edges.tsv"), "--fp-bits", "64",
                 "--out", str(graph)]) == 0
    assert main(["walk", "--graph", str(graph), "--length", "6", "--walks-per-molecule", "5",
                 "--seed", "11", *(["--uniform"] if mode == "uniform" else []),
                 "--out", str(out)]) == 0
    assert "m99\t4\tm99\t\t\t1\n" in out.read_text(encoding="utf-8")
    assert sha256(out) == WALK_SHA256[mode]


# 16 rows per profile kind, a multiple of 8: with OpenBLAS every cosine of a
# kind then comes from one gemm kernel (see ROADMAP, standing notes). Each
# kind repeats four distinct rows, so its cosines fall into a few large tie
# groups; ids run c0..c15, whose sorted order is not the row order, and
# `--keep-fraction 0.295` keeps ceil(0.295 * 120) = 36 of each kind's 120
# pairs, a cut inside the second tie group of both kinds (26 pairs at s = 1,
# then 25 cell-morphology or 15 gene-expression pairs at one s).
_CELL = ["0.9\t0.1\t0.4\t2.5", "0.8\t0.2\t0.5\t2", "0.3\t0.9\t0.6\t7", "0.1\t0.7\t0.9\t1"]
_EXPR = ["3\t1e-3\t0.5", "2.5\t0.01\t0.25", "-2\t0.25\t0.5", "2.75\t0.002\t0.5"]
_CELL_ROWS = [0, 0, 1, 2, 1, 0, 3, 1, 2, 0, 1, 3, 2, 1, 0, 3]
_EXPR_ROWS = [0, 1, 2, 0, 3, 1, 0, 2, 3, 1, 1, 0, 3, 2, 0, 1]
SIM_NODES = "".join(f"m{i:02d}\tmolecule\tfixed\t{s}\n" for i, s in enumerate(FIXED_SMILES)) + (
    "".join(f"c{i}\tcell_morphology\tfixed\t{_CELL[k]}\n" for i, k in enumerate(_CELL_ROWS))
    + "".join(f"e{i}\tgene_expression\tfixed\t{_EXPR[k]}\n" for i, k in enumerate(_EXPR_ROWS))
)
SIM_EDGES = "".join(f"m{i:02d}\tc{i % 16}\tperturbation\t1\n"
                    f"m{i:02d}\te{(i * 5) % 16}\tperturbation\t1\n"
                    for i in range(len(FIXED_SMILES)))
SIM_GRAPH_SHA256 = "ff0a4f18485d15d0b76f5d60eba499e0b6c73eb9302bb4941c2d237f6210bb39"
SIM_STATS_SHA256 = "8f484f98ae8ce09c72d30df2dd55ceae801781672e1b90faaf4f9c1f32283e3d"


def build_sim_graph(tmp_path):
    (tmp_path / "nodes.tsv").write_text(SIM_NODES, encoding="utf-8")
    (tmp_path / "edges.tsv").write_text(SIM_EDGES, encoding="utf-8")
    out = tmp_path / "g.ctxg"
    assert main(["build-graph", "--nodes", str(tmp_path / "nodes.tsv"),
                 "--edges", str(tmp_path / "edges.tsv"), "--fp-bits", "64",
                 "--similarity-kinds", "cell_morphology,gene_expression",
                 "--keep-fraction", "0.295", "--out", str(out)]) == 0
    return out


def test_ctxg_with_similarity_edges_golden(tmp_path):
    """Similarity edges on both profile kinds, with a tie group at the keep
    cut. Unlike the graph above, the weights come from a BLAS product, so
    these digests hold for this BLAS build (OpenBLAS)."""
    out = build_sim_graph(tmp_path)
    stats = (tmp_path / "g.ctxg.stats.json").read_text(encoding="utf-8")
    assert '"similarity": 72' in stats
    assert (sha256(out), sha256(tmp_path / "g.ctxg.stats.json")) == (
        SIM_GRAPH_SHA256, SIM_STATS_SHA256)


PRETRAIN_SHA256 = {
    "bernoulli": ("56e681b1dfb73310bce267b70d151960b3b9c0dae665366519e1243fa2b4afd8",
                  "4130ef1637916cd2622d4670649fad38c80d0e37bad262f22f7415a6942cd2aa",
                  "fd0cbf71ebcd30de6c053ab09b30ed6b5f236d017e79006042fe5bda62164e1c"),
    "gaussian": ("5827886720412891ce532d02a4cd6fddb34d74cd2b61428ca164d69fe7603b83",
                 "0c79a7befc625b1def3dfcf2d985204ca1876b13d115f6819683d22bffc19d68",
                 "8e68f64aa04949ef615bf7fd814a8eb13322b00336a4230084aedcae6d849270"),
}


@pytest.mark.parametrize("likelihood", sorted(PRETRAIN_SHA256))
def test_pretrain_and_embed_golden(tmp_path, likelihood):
    """Two epochs of a small model on the similarity graph above, then
    `embed` of the fixed SMILES: the checkpoint, its `.log.tsv` and the
    embedding TSV. Training and the encoder are BLAS products, so these
    digests hold for this BLAS build (OpenBLAS)."""
    graph = build_sim_graph(tmp_path)
    ck = tmp_path / "ck.iapt"
    assert main(["pretrain", "--graph", str(graph), "--out", str(ck),
                 "--likelihood", likelihood, "--epochs", "2", "--batch-size", "8",
                 "--latent-dim", "8", "--num-layers", "2", "--hidden", "16",
                 "--decoder-hidden", "8", "--walk-length", "4", "--walks-per-molecule", "2",
                 "--beta", "0.01", "--lr", "0.005", "--seed", "3"]) == 0
    smi = tmp_path / "fixed.smi"
    smi.write_text("".join(s + "\n" for s in FIXED_SMILES), encoding="utf-8")
    emb = tmp_path / "emb.tsv"
    assert main(["embed", "--checkpoint", str(ck), "--input", str(smi),
                 "--out", str(emb)]) == 0
    assert (sha256(ck), sha256(tmp_path / "ck.iapt.log.tsv"), sha256(emb)) == (
        PRETRAIN_SHA256[likelihood])


def test_digests_hold_on_one_blas_thread():
    """Every digest above holds with OpenBLAS held to one thread, in a fresh
    process: the bytes do not depend on the number of threads a BLAS
    product is cut across."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           __file__, "-k", "not one_blas_thread"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and " failed" not in proc.stdout
