"""Golden outputs: the bytes of `fingerprint --input` TSVs and of a context
graph built with no similarity edges, over fixed inputs. Neither path does a
BLAS product, so the bytes do not depend on the BLAS build.

The digests were taken from the per-atom parser, featuriser and identifier
builder that the array path replaced; a change to the fingerprint or to the
`.ctxg` format changes them on purpose and must say so.
"""

import hashlib

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
GRAPH_SHA256 = "2262f3e51d7e70c72b210414e30e1b48aaf07e8ff6f829d30968a9537d4695b7"


def test_ctxg_without_similarity_edges_golden(tmp_path):
    (tmp_path / "nodes.tsv").write_text(GRAPH_NODES, encoding="utf-8")
    (tmp_path / "edges.tsv").write_text(GRAPH_EDGES, encoding="utf-8")
    out = tmp_path / "g.ctxg"
    assert main(["build-graph", "--nodes", str(tmp_path / "nodes.tsv"),
                 "--edges", str(tmp_path / "edges.tsv"), "--fp-bits", "64",
                 "--out", str(out)]) == 0
    assert sha256(out) == GRAPH_SHA256
