"""CLI tests: subcommand behavior, exit codes, config precedence, and
byte-identical determinism of primary outputs."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoalign
from infoalign.cli import _read_matrix_tsv, main
from infoalign.ctxgraph import ContextGraph
from infoalign.errors import TableFormatError
from infoalign.molparse import read_smiles_file
from infoalign.walker import WalkConfig, batch_walks
from tests.oracles import reference_probe_train, reference_walk_tsv
from tests.test_molparse import smiles_strings

TOY_NODES = """\
m0\tmolecule\ttoy\tCCO
m1\tmolecule\ttoy\tCCN
c0\tcell_morphology\ttoy\t0.1\t0.9\t0.4
c1\tcell_morphology\ttoy\t0.8\t0.2\t0.6
g0\tgene_expression\ttoy\t0.3\t0.3
"""

TOY_EDGES = """\
m0\tc0\tperturbation\t1.0
m1\tc1\tperturbation\t1.0
m0\tg0\tperturbation\t1.0
m1\tg0\tperturbation\t1.0
"""


@pytest.fixture
def toy_tables(tmp_path):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(TOY_NODES, encoding="utf-8")
    edges.write_text(TOY_EDGES, encoding="utf-8")
    return nodes, edges


def run(argv):
    return main([str(a) for a in argv])


# --- build-graph ---------------------------------------------------------------

def test_build_graph_toy_stats(toy_tables, tmp_path):
    nodes, edges = toy_tables
    out = tmp_path / "g.ctxg"
    assert run(["build-graph", "--nodes", nodes, "--edges", edges, "--out", out]) == 0
    stats = json.loads((tmp_path / "g.ctxg.stats.json").read_text())
    assert stats["nodes_by_kind"] == {"molecule": 2, "cell_morphology": 2,
                                      "gene_expression": 1}
    assert stats["edges_by_relation"] == {"perturbation": 4}
    assert "checksum" in stats


def test_build_graph_malformed_weight_names_line(toy_tables, tmp_path, capsys):
    nodes, _ = toy_tables
    bad = tmp_path / "bad_edges.tsv"
    bad.write_text("m0\tc0\tperturbation\t1.0\nm1\tc1\tperturbation\toops\n",
                   encoding="utf-8")
    code = run(["build-graph", "--nodes", nodes, "--edges", bad,
                "--out", tmp_path / "g.ctxg"])
    assert code == 1
    err = capsys.readouterr().err
    assert "2" in err and "bad_edges" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_build_graph_non_finite_feature_exit_1(tmp_path, capsys, value):
    nodes = tmp_path / "nodes.tsv"
    nodes.write_text(TOY_NODES.replace("0.8\t0.2", f"{value}\t0.2"), encoding="utf-8")
    edges = tmp_path / "edges.tsv"
    edges.write_text(TOY_EDGES, encoding="utf-8")
    out = tmp_path / "g.ctxg"
    assert run(["build-graph", "--nodes", nodes, "--edges", edges, "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"{nodes}:4: non-finite feature value" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_build_graph_non_finite_edge_weight_exit_1(tmp_path, capsys, value):
    nodes = tmp_path / "nodes.tsv"
    nodes.write_text(TOY_NODES, encoding="utf-8")
    edges = tmp_path / "edges.tsv"
    edges.write_text(TOY_EDGES + f"c0\tc1\tsimilarity\t{value}\n", encoding="utf-8")
    out = tmp_path / "g.ctxg"
    assert run(["build-graph", "--nodes", nodes, "--edges", edges, "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"{edges}:5: non-finite weight" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("weight", ["0", "-0.25", "1.5"])
def test_build_graph_out_of_range_edge_weight_names_line(tmp_path, capsys, weight):
    nodes, edges = tmp_path / "n.tsv", tmp_path / "e.tsv"
    nodes.write_text(TOY_NODES, encoding="utf-8")
    edges.write_text(TOY_EDGES + f"c0\tc1\tsimilarity\t{weight}\n", encoding="utf-8")
    assert run(["build-graph", "--nodes", nodes, "--edges", edges,
                "--out", tmp_path / "g.ctxg"]) == 1
    err = capsys.readouterr().err
    assert f"{edges}:5: weight {weight!r} outside (0, 1]" in err


@pytest.mark.parametrize("option,value,message", [
    ("--keep-fraction", "inf", "keep_fraction must be a finite number >= 0, got inf"),
    ("--keep-fraction", "nan", "keep_fraction must be a finite number >= 0, got nan"),
    ("--threshold", "nan", "threshold must be a finite number, got nan"),
], ids=["keep_fraction-inf", "keep_fraction-nan", "threshold-nan"])
def test_build_graph_non_finite_similarity_option_exit_1(toy_tables, tmp_path, capsys,
                                                         option, value, message):
    nodes, edges = toy_tables
    out = tmp_path / "g.ctxg"
    assert run(["build-graph", "--nodes", nodes, "--edges", edges, "--out", out,
                "--similarity-kinds", "cell_morphology", option, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_build_graph_feature_range_past_float_exit_1(tmp_path, capsys):
    """Columns whose max - min overflows cannot be min-max scaled."""
    nodes, edges = tmp_path / "n.tsv", tmp_path / "e.tsv"
    nodes.write_text(TOY_NODES + "c2\tcell_morphology\ttoy\t1e308\t0\t0\n"
                     "c3\tcell_morphology\ttoy\t-1e308\t0\t0\n", encoding="utf-8")
    edges.write_text(TOY_EDGES, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["build-graph", "--nodes", nodes, "--edges", edges,
                    "--out", tmp_path / "g.ctxg"]) == 1
    err = capsys.readouterr().err
    assert f"{nodes}: cell_morphology features, column 0: max - min is not a finite float" \
        in err


def test_build_graph_rebuild_bit_identical(toy_tables, tmp_path):
    nodes, edges = toy_tables
    a, b = tmp_path / "a.ctxg", tmp_path / "b.ctxg"
    for out in (a, b):
        assert run(["build-graph", "--nodes", nodes, "--edges", edges, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()
    sa = json.loads(Path(str(a) + ".stats.json").read_text())
    sb = json.loads(Path(str(b) + ".stats.json").read_text())
    assert sa == sb


# --- synth -----------------------------------------------------------------------

def test_synth_writes_tables_and_manifest(tmp_path):
    out = tmp_path / "synthdir"
    assert run(["synth", "--out", out, "--clusters", 2, "--per-cluster", 5,
                "--seed", 3]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["molecules"] == 10 and manifest["seed"] == 3
    assert (out / "nodes.tsv").exists() and (out / "edges.tsv").exists()
    assert len((out / "labels.tsv").read_text().splitlines()) == 10


# --- walk / fingerprint ---------------------------------------------------------------

def make_graph(tmp_path, toy_tables):
    nodes, edges = toy_tables
    out = tmp_path / "g.ctxg"
    assert run(["build-graph", "--nodes", nodes, "--edges", edges, "--fp-bits", 64,
                "--out", out]) == 0
    return out


def test_walk_output_structure(toy_tables, tmp_path):
    g = make_graph(tmp_path, toy_tables)
    out = tmp_path / "walks.tsv"
    assert run(["walk", "--graph", g, "--starts", "m0,m1", "--length", 3,
                "--walks-per-molecule", 2, "--seed", 1, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split("\t") == ["start", "walk", "nodes", "weights",
                                    "alphas", "truncated"]
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        cols = line.split("\t")
        nodes_seq = cols[2].split("|")
        assert nodes_seq[0] == cols[0]
        assert len(cols[3].split("|")) == len(nodes_seq) - 1


def test_isolated_molecule_walks_and_trains(toy_tables, tmp_path):
    """A molecule with no context edges gets a 1-node truncated walk and
    trains on its own fingerprint."""
    nodes, edges = toy_tables
    nodes.write_text(TOY_NODES + "molX\tmolecule\tsyn\tCCO\n", encoding="utf-8")
    g = make_graph(tmp_path, toy_tables)
    out = tmp_path / "walks.tsv"
    assert run(["walk", "--graph", g, "--length", 3, "--walks-per-molecule", 2,
                "--out", out]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert [r for r in rows if r[0] == "molX"] == [["molX", str(k), "molX", "", "", "1"]
                                                   for k in range(2)]
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", g, "--out", ck, "--epochs", 1,
                *PRETRAIN_SMALL]) == 0
    assert ck.exists()


@pytest.mark.parametrize("block", [1, 3, 5, 6, 7])
def test_walk_blocks_equal_one_string_writer(toy_tables, tmp_path, monkeypatch, block):
    """`walk` writes its rows a block of walks at a time; the table equals
    the one-string writer's whatever the block size. Rows 2 and 3 are the
    truncated walks of a molecule with no edges, on either side of the
    boundary of 3-walk blocks."""
    nodes, _edges = toy_tables
    nodes.write_text(TOY_NODES + "molX\tmolecule\tsyn\tCCO\n", encoding="utf-8")
    g = make_graph(tmp_path, toy_tables)
    starts, out = ["m0", "molX", "m1"], tmp_path / "walks.tsv"
    monkeypatch.setattr("infoalign.cli._WALK_BLOCK", block)
    assert run(["walk", "--graph", g, "--starts", ",".join(starts), "--length", 4,
                "--walks-per-molecule", 2, "--seed", 5, "--out", out]) == 0
    cfg = WalkConfig(length=4, walks_per_molecule=2, seed=5)
    text = out.read_text(encoding="utf-8")
    assert text == reference_walk_tsv(batch_walks(ContextGraph.load(g), starts, cfg), starts, cfg)
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    assert [r[0] for r in rows] == ["m0", "m0", "molX", "molX", "m1", "m1"]
    assert rows[2][-1] == rows[3][-1] == "1"


def test_walk_unknown_start_exit_1_no_file(toy_tables, tmp_path, capsys):
    """A start that is no node fails before the table is opened, so no
    partial table is left behind."""
    g = make_graph(tmp_path, toy_tables)
    out = tmp_path / "walks.tsv"
    assert run(["walk", "--graph", g, "--starts", "m0,nope", "--out", out]) == 1
    assert capsys.readouterr().err == "error: unknown node id 'nope'\n"
    assert not out.exists()


def test_walk_peak_memory_below_table_size(tmp_path):
    """`walk` never holds its whole table: over eight blocks of walks whose
    rows are mostly long node ids, its peak traced allocation stays below
    the size of the table it writes. A writer that joins every row into one
    string holds the rows and the string at once, more than twice that."""
    pad = "x" * 100
    nodes, edges = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    nodes.write_text(re.sub(r"^(\w+)", rf"\1{pad}", TOY_NODES, flags=re.M), encoding="utf-8")
    edges.write_text(re.sub(r"^(\w+)\t(\w+)", rf"\1{pad}\t\2{pad}", TOY_EDGES, flags=re.M),
                     encoding="utf-8")
    g = make_graph(tmp_path, (nodes, edges))
    out = tmp_path / "walks.tsv"
    tracemalloc.start()
    try:
        assert run(["walk", "--graph", g, "--length", 8, "--walks-per-molecule", 4096,
                    "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8").count(pad) == 9 * 8192  # a start and 8 nodes a row
    assert peak < out.stat().st_size


def test_fingerprint_stdout(capsys):
    assert run(["fingerprint", "--smiles", "CCO", "--nbits", 64]) == 0
    out = capsys.readouterr().out.strip().split("\t")
    assert out[1] == "CCO" and int(out[2]) > 0
    int(out[3], 16)  # hex payload parses


def test_fingerprint_bad_smiles_exit_1(capsys):
    assert run(["fingerprint", "--smiles", "C(("]) == 1
    assert "error" in capsys.readouterr().err


def test_fingerprint_empty_input_exit_1(tmp_path, capsys):
    smi = tmp_path / "empty.smi"
    smi.write_text("# nothing\n\n")
    assert run(["fingerprint", "--input", smi, "--out", tmp_path / "fp.tsv"]) == 1
    assert capsys.readouterr().err == f"error: {smi}: no molecules\n"
    assert not (tmp_path / "fp.tsv").exists()


# --- pretrain / embed -------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth_graph(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    out = base / "synth"
    assert run(["synth", "--out", out, "--clusters", 2, "--per-cluster", 6,
                "--morph-dim", 6, "--gexp-dim", 6, "--seed", 0]) == 0
    g = base / "g.ctxg"
    assert run(["build-graph", "--nodes", out / "nodes.tsv",
                "--edges", out / "edges.tsv", "--fp-bits", 64, "--out", g]) == 0
    return g


PRETRAIN_SMALL = ["--latent-dim", 6, "--num-layers", 2, "--hidden", 8,
                  "--decoder-hidden", 8, "--fp-bits", 64, "--batch-size", 6]


def test_pretrain_log_rows_equal_epochs(synth_graph, tmp_path):
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 3, *PRETRAIN_SMALL]) == 0
    lines = Path(str(ck) + ".log.tsv").read_text().splitlines()
    assert lines[0].startswith("epoch\t")
    assert len(lines) == 1 + 3


def test_pretrain_resume_continues(synth_graph, tmp_path):
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    from infoalign.model import load_checkpoint
    step1 = load_checkpoint(ck)[0].step
    ck2 = tmp_path / "ck2.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck2,
                "--resume", ck, "--epochs", 1, *PRETRAIN_SMALL]) == 0
    assert load_checkpoint(ck2)[0].step > step1


def test_pretrain_resume_onto_graph_without_decoder_exit_1(synth_graph, tmp_path, capsys):
    """A resume onto a graph with a kind of features the checkpoint has no
    decoder for exits 1 before training: that graph is another graph, so
    its checksum is refused first (`pretrain` itself refuses the missing
    decoder, see tests/test_model.py)."""
    from infoalign.ctxgraph import ContextGraph
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    out = tmp_path / "synth7"
    assert run(["synth", "--out", out, "--clusters", 2, "--per-cluster", 6,
                "--morph-dim", 7, "--gexp-dim", 6, "--seed", 0]) == 0
    other = tmp_path / "g7.ctxg"
    assert run(["build-graph", "--nodes", out / "nodes.tsv",
                "--edges", out / "edges.tsv", "--fp-bits", 64, "--out", other]) == 0
    ck2 = tmp_path / "ck2.iapt"
    capsys.readouterr()
    assert run(["pretrain", "--graph", other, "--out", ck2,
                "--resume", ck, "--epochs", 1, *PRETRAIN_SMALL]) == 1
    was, now = (ContextGraph.load(g).checksum() for g in (synth_graph, other))
    assert capsys.readouterr().err == (f"error: the checkpoint {ck} was trained on the graph of "
                                       f"checksum {was}, not on the graph {other} of checksum "
                                       f"{now}\n")
    assert not ck2.exists() and not Path(f"{ck2}.log.tsv").exists()


def test_pretrain_resume_onto_another_graph_exit_1(synth_graph, tmp_path, capsys):
    """A resume onto another graph of the same fingerprint width, radius
    and kinds of features exits 1 before training, naming the checkpoint,
    the graph and both checksums, and writes nothing: one log is of one
    graph. The checkpoint's own graph, copied to another file, resumes."""
    import shutil

    from infoalign.ctxgraph import ContextGraph
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    data, other = tmp_path / "synth7", tmp_path / "g7.ctxg"
    assert run(["synth", "--out", data, "--clusters", 2, "--per-cluster", 7,
                "--morph-dim", 6, "--gexp-dim", 6, "--seed", 0]) == 0
    assert run(["build-graph", "--nodes", data / "nodes.tsv",
                "--edges", data / "edges.tsv", "--fp-bits", 64, "--out", other]) == 0
    was, now = (ContextGraph.load(g).checksum() for g in (synth_graph, other))
    assert was != now
    capsys.readouterr()
    assert run(["pretrain", "--graph", other, "--out", tmp_path / "bad.iapt",
                "--resume", ck, "--epochs", 1]) == 1
    assert capsys.readouterr().err == (f"error: the checkpoint {ck} was trained on the graph of "
                                       f"checksum {was}, not on the graph {other} of checksum "
                                       f"{now}\n")
    assert not list(tmp_path.glob("bad.iapt*"))
    copy = tmp_path / "copy.ctxg"
    shutil.copyfile(synth_graph, copy)
    assert run(["pretrain", "--graph", copy, "--out", tmp_path / "more.iapt",
                "--resume", ck, "--epochs", 1]) == 0


def test_pretrain_beta_sweep_file_counts(synth_graph, tmp_path):
    ck = tmp_path / "sweep.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, "--beta-sweep", "1e-9,1e-5,0.1,1",
                *PRETRAIN_SMALL]) == 0
    for tag in ("1e-09", "1e-05", "0.1", "1"):
        assert Path(f"{ck}.beta{tag}").exists(), tag
        assert Path(f"{ck}.beta{tag}.log.tsv").exists(), tag


def test_pretrain_resume_keeps_checkpoint_config(synth_graph, tmp_path):
    """A resume given only --epochs continues the checkpoint's config at the
    default lr: the same bytes as continuing it through the library."""
    from infoalign.ctxgraph import ContextGraph
    from infoalign.model import load_checkpoint, pretrain, save_checkpoint
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1, "--seed", 3,
                "--uniform", "--beta", 0.01, "--lr", 5e-3, *PRETRAIN_SMALL]) == 0
    ck2 = tmp_path / "ck2.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck2, "--resume", ck,
                "--epochs", 1]) == 0
    store, cfg, state = load_checkpoint(ck)
    cfg.epochs, cfg.lr = 1, 1e-3
    graph = ContextGraph.load(synth_graph)
    store, _ = pretrain(graph, cfg, store=store, state=state)
    save_checkpoint(tmp_path / "lib.iapt", store, cfg, graph, state)
    assert ck2.read_bytes() == (tmp_path / "lib.iapt").read_bytes()


def test_pretrain_resume_applies_given_training_keys(synth_graph, tmp_path):
    from infoalign.model import load_checkpoint
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"walk_length": 3, "beta": 0.25}))
    ck2 = tmp_path / "ck2.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck2, "--resume", ck,
                "--config", cfg_file, "--beta", 0.5, "--batch-size", 4, "--seed", 9,
                "--walks-per-molecule", 3, "--uniform", "--epochs", 2, "--lr", 0.01,
                "--latent-dim", 6]) == 0
    cfg = load_checkpoint(ck2)[1]
    assert (cfg.beta, cfg.batch_size, cfg.seed, cfg.epochs, cfg.lr) == (0.5, 4, 9, 1 + 2, 0.01)
    assert (cfg.walk_length, cfg.walks_per_molecule, cfg.uniform) == (3, 3, True)
    assert (cfg.latent_dim, cfg.num_layers, cfg.hidden, cfg.fp_bits) == (6, 2, 8, 64)
    assert [r.split("\t")[3] for r in Path(f"{ck2}.log.tsv").read_text().splitlines()[1:]] \
        == ["0.5", "0.5"]


@pytest.mark.parametrize("walks", [[], ["--uniform"]], ids=["weighted", "uniform"])
def test_pretrain_resume_equals_straight_run(synth_graph, tmp_path, walks):
    """--epochs 2 and --epochs 1 then --resume --epochs 1, with the same flags,
    write the same checkpoint bytes and the same epoch-1 log row."""
    flags = [*PRETRAIN_SMALL, "--seed", 5, "--lr", 5e-3, "--batch-size", 4, *walks]
    for name, argv in (("straight", ["--epochs", 2]), ("first", ["--epochs", 1]),
                       ("resumed", ["--epochs", 1, "--resume", tmp_path / "first"])):
        assert run(["pretrain", "--graph", synth_graph, "--out", tmp_path / name,
                    *flags, *argv]) == 0
    assert (tmp_path / "resumed").read_bytes() == (tmp_path / "straight").read_bytes()
    straight = (tmp_path / "straight.log.tsv").read_text().splitlines()
    assert (tmp_path / "resumed.log.tsv").read_text().splitlines() == [straight[0], straight[2]]
    assert straight[2].startswith("1\t")


@pytest.mark.parametrize("killed", [False, True], ids=["clean", "after-killed-resume"])
def test_pretrain_resume_into_itself_keeps_earlier_log_rows(synth_graph, tmp_path, killed):
    """2 epochs, then --resume X --out X for 1 more: the log and checkpoint are
    those of one 3-epoch run, byte for byte. Rows past the checkpoint's
    epochs, left by a resume killed before it saved, are dropped."""
    flags = [*PRETRAIN_SMALL, "--seed", 5, "--lr", 5e-3, "--batch-size", 4]
    straight, ck = tmp_path / "straight", tmp_path / "ck"
    assert run(["pretrain", "--graph", synth_graph, "--out", straight, "--epochs", 3,
                *flags]) == 0
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 2, *flags]) == 0
    log = Path(f"{ck}.log.tsv")
    if killed:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("2\t9.5\t1\t1e-09\tmolecule=9\n3\t9.")
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--resume", ck,
                "--epochs", 1, "--lr", 5e-3]) == 0
    assert ck.read_bytes() == straight.read_bytes()
    assert log.read_bytes() == Path(f"{straight}.log.tsv").read_bytes()


class _Stop(Exception):
    """A failure injected into a pretrain run; no handler of the CLI catches
    it, so the run stops where a killed one would."""


def _stop_at_epoch(monkeypatch, finished: int):
    """Make the epoch that starts after `finished` epochs have been trained
    in this process raise _Stop."""
    import infoalign.model as model
    train, trained = model._train_epoch, []

    def stopping(*args):
        if len(trained) == finished:
            raise _Stop
        trained.append(args[-1])
        return train(*args)

    monkeypatch.setattr(model, "_train_epoch", stopping)


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("stop", [1, 2])
def test_pretrain_stopped_run_resumes_to_the_straight_run(synth_graph, tmp_path, monkeypatch,
                                                          likelihood, stop):
    """A 3-epoch run stopped by a failure in epoch `stop` keeps the
    checkpoint of the epochs before it, and --resume X --out X for the rest
    writes the checkpoint and log of the run that was not stopped, byte for
    byte."""
    flags = [*PRETRAIN_SMALL, "--seed", 5, "--lr", 5e-3, "--batch-size", 4,
             "--likelihood", likelihood]
    straight, ck = tmp_path / "straight", tmp_path / "ck"
    assert run(["pretrain", "--graph", synth_graph, "--out", straight, "--epochs", 3,
                *flags]) == 0
    with monkeypatch.context() as m:
        _stop_at_epoch(m, stop)
        with pytest.raises(_Stop):
            run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 3, *flags])
    from infoalign.model import load_checkpoint
    assert load_checkpoint(ck)[2].epoch == stop
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--resume", ck,
                "--epochs", 3 - stop, "--lr", 5e-3]) == 0
    assert ck.read_bytes() == straight.read_bytes()
    assert Path(f"{ck}.log.tsv").read_bytes() == Path(f"{straight}.log.tsv").read_bytes()


def test_pretrain_stopped_beta_sweep_keeps_each_runs_checkpoint(synth_graph, tmp_path,
                                                                monkeypatch):
    """A 2-epoch sweep stopped in its second run's epoch 1 leaves the first
    run's finished checkpoint and log, and the second run's of epoch 0,
    each in its own file; resuming the second into itself for its last
    epoch writes the bytes of the sweep that was not stopped."""
    flags = [*PRETRAIN_SMALL, "--seed", 5, "--lr", 5e-3, "--batch-size", 4, "--epochs", 2,
             "--beta-sweep", "1e-9,1"]
    straight, ck = tmp_path / "straight", tmp_path / "ck"
    assert run(["pretrain", "--graph", synth_graph, "--out", straight, *flags]) == 0
    with monkeypatch.context() as m:
        _stop_at_epoch(m, 3)
        with pytest.raises(_Stop):
            run(["pretrain", "--graph", synth_graph, "--out", ck, *flags])
    from infoalign.model import load_checkpoint
    assert load_checkpoint(f"{ck}.beta1")[2].epoch == 1
    assert run(["pretrain", "--graph", synth_graph, "--out", f"{ck}.beta1",
                "--resume", f"{ck}.beta1", "--epochs", 1, "--lr", 5e-3]) == 0
    for run_file in ("beta1e-09", "beta1"):
        for suffix in ("", ".log.tsv"):
            got, want = Path(f"{ck}.{run_file}{suffix}"), Path(f"{straight}.{run_file}{suffix}")
            assert got.read_bytes() == want.read_bytes(), (run_file, suffix)


def test_pretrain_resume_into_itself_bad_log_row_exit_1(synth_graph, tmp_path, capsys):
    ck = tmp_path / "ck"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1,
                *PRETRAIN_SMALL]) == 0
    log = Path(f"{ck}.log.tsv")
    text = log.read_text().replace("\n0\t", "\nzero\t")
    log.write_text(text)
    before = ck.read_bytes()
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--resume", ck,
                "--epochs", 1]) == 1
    assert capsys.readouterr().err == f"error: {log}:2: epoch 'zero' is not an integer\n"
    assert ck.read_bytes() == before and log.read_text() == text


def test_pretrain_resume_new_seed_draws_fresh_streams(synth_graph, tmp_path):
    """A resume given another seed draws the new seed's streams at the continued
    epoch index, the same bytes as continuing through the library so."""
    from infoalign.ctxgraph import ContextGraph
    from infoalign.model import TrainState, load_checkpoint, pretrain, save_checkpoint
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1,
                *PRETRAIN_SMALL]) == 0
    ck2 = tmp_path / "ck2.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck2, "--resume", ck,
                "--epochs", 1, "--seed", 9]) == 0
    store, cfg, state = load_checkpoint(ck)
    cfg.epochs, cfg.lr, cfg.seed = 1, 1e-3, 9
    state = TrainState(state.epoch)
    graph = ContextGraph.load(synth_graph)
    store, _ = pretrain(graph, cfg, store=store, state=state)
    save_checkpoint(tmp_path / "lib.iapt", store, cfg, graph, state)
    assert ck2.read_bytes() == (tmp_path / "lib.iapt").read_bytes()
    assert state.epoch == 2
    assert Path(f"{ck2}.log.tsv").read_text().splitlines()[1].startswith("1\t")


@pytest.mark.parametrize("command", ["embed", "pretrain --resume"])
def test_checkpoint_of_nested_walk_layout_exit_1(synth_graph, small_checkpoint, tmp_path,
                                                 capsys, command):
    """A checkpoint whose manifest keeps the walk settings apart, the layout
    before the flat config, is refused naming the file."""
    import infoalign.diffcore as dc
    store, manifest = dc.load_params(small_checkpoint)
    model = {k: v for k, v in manifest["model"].items()
             if k not in ("walk_length", "walks_per_molecule", "uniform")}
    old = tmp_path / "old.iapt"
    dc.save_params(old, store, {"model": model, "decoders": manifest["decoders"],
                                "walk": {"length": 4, "walks_per_molecule": 2, "seed": 0,
                                         "weight_proportional": True}})
    (tmp_path / "q.smi").write_text("CCO\n")
    out = tmp_path / "out"
    argv = {"embed": ["embed", "--checkpoint", old, "--input", tmp_path / "q.smi"],
            "pretrain --resume": ["pretrain", "--graph", synth_graph, "--resume", old,
                                  "--epochs", 1]}[command]
    assert run([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {old}: not a checkpoint of this version")
    assert err.count("\n") == 1 and not out.exists()


def test_pretrain_records_graph_fingerprint_bits(synth_graph, tmp_path, capsys):
    from infoalign.model import load_checkpoint
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1]) == 0
    assert load_checkpoint(ck)[1].fp_bits == 64
    assert run(["pretrain", "--graph", synth_graph, "--out", tmp_path / "ck2.iapt",
                "--epochs", 1, "--fp-bits", 1024]) == 1
    assert capsys.readouterr().err == (f"error: fp_bits 1024 disagrees with the 64-bit "
                                       f"molecule fingerprints of the graph {synth_graph}\n")
    assert not (tmp_path / "ck2.iapt").exists()


def test_pretrain_records_graph_fingerprint_radius(synth_graph, tmp_path, capsys):
    """The checkpoint records the radius the graph's fingerprints were built
    with, given or not; a given radius that disagrees exits 1, naming both
    values and the graph, and writes nothing."""
    from infoalign.model import load_checkpoint
    out = synth_graph.parent / "synth"
    g3 = tmp_path / "g3.ctxg"
    assert run(["build-graph", "--nodes", out / "nodes.tsv", "--edges", out / "edges.tsv",
                "--fp-bits", 64, "--fp-radius", 3, "--out", g3]) == 0
    for graph, radius in ((synth_graph, 2), (g3, 3)):
        ck = tmp_path / f"r{radius}.iapt"
        assert run(["pretrain", "--graph", graph, "--out", ck, "--epochs", 1,
                    *PRETRAIN_SMALL]) == 0
        assert load_checkpoint(ck)[1].fp_radius == radius
    ck = tmp_path / "r2-given.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1,
                *PRETRAIN_SMALL, "--fp-radius", 2]) == 0
    assert load_checkpoint(ck)[1].fp_radius == 2
    assert run(["pretrain", "--graph", synth_graph, "--out", tmp_path / "bad.iapt",
                "--epochs", 1, *PRETRAIN_SMALL, "--fp-radius", 3]) == 1
    assert capsys.readouterr().err == (f"error: fp_radius 3 disagrees with the radius-2 "
                                       f"molecule fingerprints of the graph {synth_graph}\n")
    assert not list(tmp_path.glob("bad.iapt*"))


def test_pretrain_resume_onto_graph_of_another_radius_exit_1(synth_graph, tmp_path, capsys):
    """A resume onto a graph built at another fingerprint radius exits 1,
    naming both radii, the checkpoint and the graph, and writes nothing; a
    graph that records no radius resumes as before."""
    from infoalign.ctxgraph import ContextGraph
    from infoalign.model import load_checkpoint
    out = synth_graph.parent / "synth"
    g3 = tmp_path / "g3.ctxg"
    assert run(["build-graph", "--nodes", out / "nodes.tsv", "--edges", out / "edges.tsv",
                "--fp-bits", 64, "--fp-radius", 3, "--out", g3]) == 0
    ck = tmp_path / "r2.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1,
                *PRETRAIN_SMALL]) == 0
    assert run(["pretrain", "--graph", g3, "--resume", ck, "--out", tmp_path / "bad.iapt",
                "--epochs", 2]) == 1
    assert capsys.readouterr().err == (f"error: fp_radius 2 in the checkpoint {ck} disagrees "
                                       f"with the radius-3 molecule fingerprints of the graph "
                                       f"{g3}\n")
    assert not list(tmp_path.glob("bad.iapt*"))
    bare = ContextGraph.load(synth_graph)
    bare.fp_radius = None
    bare.save(tmp_path / "bare.ctxg")
    assert run(["pretrain", "--graph", tmp_path / "bare.ctxg", "--resume", ck,
                "--out", tmp_path / "more.iapt", "--epochs", 2]) == 0
    assert load_checkpoint(tmp_path / "more.iapt")[1].fp_radius == 2


def test_pretrain_resume_onto_graph_of_another_width_exit_1(synth_graph, tmp_path, capsys):
    """A resume onto a graph whose fingerprints have another width exits 1,
    naming both widths, the checkpoint and the graph, and writes nothing."""
    out = synth_graph.parent / "synth"
    g128 = tmp_path / "g128.ctxg"
    assert run(["build-graph", "--nodes", out / "nodes.tsv", "--edges", out / "edges.tsv",
                "--fp-bits", 128, "--out", g128]) == 0
    ck = tmp_path / "b64.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1,
                *PRETRAIN_SMALL]) == 0
    assert run(["pretrain", "--graph", g128, "--resume", ck, "--out", tmp_path / "bad.iapt",
                "--epochs", 2]) == 1
    assert capsys.readouterr().err == (f"error: fp_bits 64 in the checkpoint {ck} disagrees "
                                       f"with the 128-bit molecule fingerprints of the graph "
                                       f"{g128}\n")
    assert not list(tmp_path.glob("bad.iapt*"))


def test_pretrain_resume_beta_sweep_distinct(synth_graph, tmp_path):
    """Each beta of a sweep over one resumed checkpoint trains at that beta."""
    from infoalign.model import load_checkpoint
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    sweep = tmp_path / "sweep.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", sweep, "--resume", ck,
                "--epochs", 2, "--beta-sweep", "1e-9,1"]) == 0
    low, high = Path(f"{sweep}.beta1e-09"), Path(f"{sweep}.beta1")
    assert low.read_bytes() != high.read_bytes()
    for path, beta in ((low, 1e-9), (high, 1.0)):
        rows = Path(f"{path}.log.tsv").read_text().splitlines()[1:]
        assert [float(r.split("\t")[3]) for r in rows] == [beta, beta]
        assert load_checkpoint(path)[1].beta == beta


@pytest.mark.parametrize("argv,config,message", [
    (["--latent-dim", 4], {}, "latent_dim 4 disagrees with 6"),
    ([], {"likelihood": "gaussian"}, "likelihood 'gaussian' disagrees with 'bernoulli'"),
    (["--fp-bits", 128, "--beta-sweep", "0.1,1"], {}, "fp_bits 128 disagrees with 64"),
], ids=["latent_dim-flag", "likelihood-config", "fp_bits-sweep"])
def test_pretrain_resume_architecture_disagrees_exit_1(synth_graph, tmp_path, capsys,
                                                       argv, config, message):
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    ck2 = tmp_path / "ck2.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck2, "--resume", ck,
                "--config", tmp_path / "cfg.json", "--epochs", 1, *argv]) == 1
    err = capsys.readouterr().err
    assert f"{message} in the checkpoint {ck}" in err and "Traceback" not in err
    assert not list(tmp_path.glob("ck2.iapt*"))


@pytest.mark.parametrize("argv,message", [
    (["--lr", 1e200], "non-finite loss in epoch 0, batch 1"),
    (["--lr", -1], "lr must be finite and positive, got -1.0"),
    (["--beta", "nan"], "beta must be finite and >= 0, got nan"),
    (["--batch-size", 0], "batch size must be >= 1, got 0"),
    (["--epochs", -1], "epochs must be >= 0, got -1"),
], ids=["lr-diverges", "lr-negative", "beta-nan", "batch_size-0", "epochs-negative"])
def test_pretrain_bad_or_diverging_run_exit_1(synth_graph, tmp_path, capsys, argv, message):
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL, *argv]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not list(tmp_path.glob("ck.iapt*"))


@pytest.mark.parametrize("key,value,low", [
    ("latent_dim", 0, 1), ("hidden", 0, 1), ("decoder_hidden", 0, 1),
    ("num_layers", -1, 0), ("fp_radius", -1, 0),
])
def test_pretrain_bad_model_setting_exit_1(synth_graph, tmp_path, capsys, key, value, low):
    """A model size below its least value is an error naming the key, and
    nothing is written: no traceback from the parameter init, and no
    checkpoint that `embed` would read into blank lines."""
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1,
                *PRETRAIN_SMALL, "--" + key.replace("_", "-"), value]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} must be >= {low}, got {value}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("count", [0, -1])
def test_walks_per_molecule_below_one_exit_1(synth_graph, tmp_path, capsys, count):
    """walk and pretrain name the key and write nothing: no walk table, and
    no checkpoint and no .log.tsv."""
    message = f"error: walks_per_molecule must be >= 1, got {count}"
    assert run(["walk", "--graph", synth_graph, "--walks-per-molecule", count,
                "--out", tmp_path / "walks.tsv"]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 1,
                *PRETRAIN_SMALL, "--walks-per-molecule", count]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_pretrain_zero_epochs_writes_untrained_checkpoint(synth_graph, tmp_path):
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 0,
                *PRETRAIN_SMALL]) == 0
    assert ck.exists()
    assert Path(str(ck) + ".log.tsv").read_text().splitlines() == [
        "epoch\ttotal\tkl\tbeta\trecon"]


def test_pretrain_out_directory_missing_exit_1(synth_graph, tmp_path, capsys, monkeypatch):
    """A missing directory of --out is named before the first training step."""
    def no_training(*_args, **_kwargs):
        raise AssertionError("pretrain ran")

    monkeypatch.setattr("infoalign.cli.pretrain", no_training)
    out = tmp_path / "missing" / "ck.iapt"
    for sweep in ([], ["--beta-sweep", "0.1,1"]):
        assert run(["pretrain", "--graph", synth_graph, "--out", out,
                    "--epochs", 1, *PRETRAIN_SMALL, *sweep]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {out}: directory {out.parent} does not exist\n")
    assert not out.parent.exists()


def test_pretrain_bad_smiles_in_graph_exit_1_before_training(synth_graph, tmp_path, capsys,
                                                             monkeypatch):
    """A graph file whose SMILES does not parse fails before the first step,
    naming the file and the node, and writes no log or checkpoint."""
    from infoalign import ctxgraph, serialize

    def no_walks(*_args):
        raise AssertionError("walks sampled before the molecules were parsed")

    monkeypatch.setattr("infoalign.model.batch_walks", no_walks)
    meta, arrays = serialize.read_container(synth_graph, ctxgraph.MAGIC)
    k = int(np.flatnonzero(arrays[0] == ctxgraph.KINDS.index(ctxgraph.NodeKind.MOLECULE))[-1])
    meta["smiles"][k] = "C1CC"
    bad = tmp_path / "bad.ctxg"
    serialize.write_container(bad, ctxgraph.MAGIC, meta, arrays)
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", bad, "--out", ck, "--epochs", 1, *PRETRAIN_SMALL]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: molecule node {meta['ids'][k]!r}: dangling ring closure digit(s): [1]\n")
    assert not ck.exists() and not Path(f"{ck}.log.tsv").exists()


def test_pretrain_parses_the_graph_once(synth_graph, tmp_path, monkeypatch):
    """`cmd_pretrain`'s early check parses every molecule of the graph in one
    `parse_many` call, and each run of a beta sweep reuses that set."""
    from infoalign import ctxgraph

    calls = []
    parse = ctxgraph.parse_many

    def counting_parse(texts):
        calls.append(len(texts))
        return parse(texts)

    monkeypatch.setattr(ctxgraph, "parse_many", counting_parse)
    assert run(["pretrain", "--graph", synth_graph, "--out", tmp_path / "ck", "--epochs", 1,
                "--beta-sweep", "1e-9,0.1", *PRETRAIN_SMALL]) == 0
    assert calls == [12]


def test_pretrain_diverging_run_stderr_is_one_line(synth_graph, tmp_path, capfd):
    """In a process of its own, where numpy's warnings print as they would for
    a user, a diverging run writes only its error line to stderr."""
    src = Path(infoalign.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    argv = ["pretrain", "--graph", synth_graph, "--out", tmp_path / "ck.iapt",
            "--epochs", 1, *PRETRAIN_SMALL, "--lr", 1e200]
    code = subprocess.call([sys.executable, "-m", "infoalign.cli", *map(str, argv)], env=env)
    assert code == 1
    assert capfd.readouterr().err == "error: non-finite loss in epoch 0, batch 1\n"


def test_pretrain_log_keeps_epochs_of_diverging_run(synth_graph, tmp_path, capsys):
    """Rows are flushed as their epochs end: a run of one batch per epoch
    that diverges in epoch 1 leaves the header and the epoch-0 row, and the
    checkpoint of epoch 0."""
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--epochs", 2,
                *PRETRAIN_SMALL, "--batch-size", 100, "--lr", 1e200]) == 1
    assert "error: non-finite loss in epoch 1, batch 0" in capsys.readouterr().err
    rows = Path(f"{ck}.log.tsv").read_text().splitlines()
    assert rows[0] == "epoch\ttotal\tkl\tbeta\trecon"
    assert [r.split("\t")[0] for r in rows[1:]] == ["0"]
    from infoalign.model import load_checkpoint
    assert load_checkpoint(ck)[2].epoch == 1


def test_embed_three_molecules(synth_graph, tmp_path):
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    smi = tmp_path / "in.smi"
    smi.write_text("CCO\nCCN\nc1ccccc1\n", encoding="utf-8")
    out = tmp_path / "emb.tsv"
    assert run(["embed", "--checkpoint", ck, "--input", smi, "--out", out]) == 0
    rows = [r.split("\t") for r in out.read_text().splitlines()]
    assert len(rows) == 3 and all(len(r) == 6 for r in rows)
    float(rows[0][0])


def test_embed_writes_the_id_of_each_smiles_line(small_checkpoint, tmp_path):
    """When every SMILES line has an id, its row is `id<TAB>values`, with the
    values of the same SMILES given without ids."""
    plain, named = tmp_path / "plain.smi", tmp_path / "named.smi"
    plain.write_text("CCO\nCCN\nc1ccccc1\n")
    named.write_text("CCO ethanol\n# comment\nCCN\tethylamine\nc1ccccc1 benzene extra\n")
    for smi in (plain, named):
        assert run(["embed", "--checkpoint", small_checkpoint, "--input", smi,
                    "--out", f"{smi}.tsv"]) == 0
    rows = Path(f"{plain}.tsv").read_text().splitlines()
    assert Path(f"{named}.tsv").read_text().splitlines() == [
        f"{nid}\t{row}" for nid, row in zip(["ethanol", "ethylamine", "benzene"], rows)]


@pytest.mark.parametrize("text,message", [
    ("CCO a\nCCN\n", "2: no id, but line 1 has one"),
    ("CCO\n\nCCN b\n", "3: the id 'b', but line 1 has none"),
    ("CCO a\nCCN 2\n", "2: the id '2' reads as a number, so the embeddings could not be "
                        "read back with their ids"),
], ids=["missing", "extra", "numeric"])
def test_embed_of_mixed_or_numeric_ids_exit_1(small_checkpoint, tmp_path, capsys, text,
                                              message):
    """A SMILES file in which some lines have an id and some do not, or an id
    reads as a number, exits 1 naming the file and the line, and writes
    nothing."""
    smi = tmp_path / "q.smi"
    smi.write_text(text)
    assert run(["embed", "--checkpoint", small_checkpoint, "--input", smi,
                "--out", tmp_path / "z.tsv"]) == 1
    assert capsys.readouterr().err == f"error: {smi}:{message}\n"
    assert not (tmp_path / "z.tsv").exists()


# --- eval / match ----------------------------------------------------------------------

def test_eval_report(tmp_path):
    rng = np.random.default_rng(0)
    n = 60
    labels = rng.integers(0, 2, size=n)
    emb = rng.normal(size=(n, 4)) + 2.5 * labels[:, None]
    (tmp_path / "emb.tsv").write_text(
        "\n".join("\t".join(f"{v:.8f}" for v in row) for row in emb) + "\n")
    (tmp_path / "lab.tsv").write_text("\n".join(str(v) for v in labels) + "\n")
    out = tmp_path / "report.json"
    assert run(["eval", "--embeddings", tmp_path / "emb.tsv",
                "--labels", tmp_path / "lab.tsv", "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["train_size"] + rep["valid_size"] + rep["test_size"] == n
    assert rep["test"]["aggregates"]["mean_auc"] > 0.9


@pytest.mark.parametrize("task_types", ["classification", "regression",
                                        "classification,regression,classification"])
def test_eval_report_equals_masked_probe_oracle(tmp_path, monkeypatch, task_types):
    """The probe fitted as one decoder node per epoch gives the report
    bytes of the unfused fit that builds both losses on every entry and
    masks one away, whatever the mix of task types."""
    rng = np.random.default_rng(3)
    n = 40
    emb = rng.normal(size=(n, 5))
    types = task_types.split(",")
    labels = np.stack([rng.integers(0, 2, n) if t == "classification"
                       else rng.normal(size=n) for t in types], axis=1)
    (tmp_path / "emb.tsv").write_text(
        "\n".join("\t".join(map(repr, row)) for row in emb.tolist()) + "\n")
    (tmp_path / "lab.tsv").write_text(
        "\n".join("\t".join(map(repr, row)) for row in labels.tolist()) + "\n")

    def report(name):
        out = tmp_path / name
        assert run(["eval", "--embeddings", tmp_path / "emb.tsv", "--labels",
                    tmp_path / "lab.tsv", "--task-types", task_types, "--probe-hidden", 4,
                    "--probe-epochs", 30, "--out", out]) == 0
        return out.read_bytes()

    fast = report("fast.json")
    monkeypatch.setattr("infoalign.cli.probe_train", reference_probe_train)
    assert report("oracle.json") == fast


@pytest.mark.parametrize("argv,message", [
    (["--task-types", "clasification"],
     "unknown task type 'clasification': expected 'classification' or 'regression'"),
    (["--task-types", "classification,Regression"],
     "unknown task type 'Regression': expected 'classification' or 'regression'"),
    (["--probe-epochs", -5], "probe_epochs must be >= 0, got -5"),
    (["--probe-hidden", -1], "probe_hidden must be >= 0, got -1"),
    (["--probe-lr", 0], "probe_lr must be finite and positive, got 0.0"),
], ids=["type-misspelt", "type-capitalised", "probe_epochs-negative", "probe_hidden-negative",
        "probe_lr-0"])
def test_eval_bad_setting_exit_1(tmp_path, capsys, argv, message):
    """A task type other than the two, and a probe setting out of range, are
    errors naming the value, and no report is written."""
    (tmp_path / "emb.tsv").write_text("".join(f"{i}\t{i % 3}\n" for i in range(10)))
    (tmp_path / "lab.tsv").write_text("".join(f"{i % 2}\t{i}\n" for i in range(10)))
    assert run(["eval", "--embeddings", tmp_path / "emb.tsv", "--labels", tmp_path / "lab.tsv",
                "--out", tmp_path / "r.json", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_eval_label_rows_mismatch_exit_1(tmp_path, capsys):
    (tmp_path / "emb.tsv").write_text("\n".join(f"{i}\t{i % 2}" for i in range(10)) + "\n")
    (tmp_path / "lab.tsv").write_text("\n".join(str(i % 2) for i in range(7)) + "\n")
    assert run(["eval", "--embeddings", tmp_path / "emb.tsv",
                "--labels", tmp_path / "lab.tsv", "--out", tmp_path / "r.json"]) == 1
    assert "7 label rows for 10 embeddings" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_empty_tables_exit_1(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no rows\n\n")
    assert run(["eval", "--embeddings", empty, "--labels", empty,
                "--out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert f"{empty}: no data rows" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_eval_ragged_table_names_line_and_counts(tmp_path, capsys):
    (tmp_path / "emb.tsv").write_text("0.1\t0.2\t0.3\n# comment\n0.4\t0.5\n0.6\t0.7\t0.8\n")
    (tmp_path / "lab.tsv").write_text("0\n1\n0\n")
    assert run(["eval", "--embeddings", tmp_path / "emb.tsv",
                "--labels", tmp_path / "lab.tsv", "--out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'emb.tsv'}:3: 2 values, but line 1 has 3" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_non_finite_value_names_line(tmp_path, capsys, value):
    (tmp_path / "emb.tsv").write_text(f"0.1\t0.2\n0.3\t{value}\n0.5\t0.6\n")
    (tmp_path / "lab.tsv").write_text("0\n1\n0\n")
    assert run(["eval", "--embeddings", tmp_path / "emb.tsv",
                "--labels", tmp_path / "lab.tsv", "--out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'emb.tsv'}:2: non-finite value" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_eval_diverging_probe_exit_1_without_warnings(tmp_path):
    (tmp_path / "emb.tsv").write_text("".join(f"{(-1) ** i * 1e308!r}\t0.5\n" for i in range(20)))
    # Each label disagrees with the sign of its logit at the seed-0 init, so
    # the BCE of every entry is about 1.4e308 and their sum overflows.
    (tmp_path / "lab.tsv").write_text("".join(f"{(i + 1) % 2}\n" for i in range(20)))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert run(["eval", "--embeddings", tmp_path / "emb.tsv",
                    "--labels", tmp_path / "lab.tsv", "--out", tmp_path / "r.json"]) == 1
    assert err.getvalue() == "error: non-finite loss in probe epoch 0\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("emb,where,message", [
    ("a\nb\nc\n", 1, "no values"),
    ("a\t0.1\nb\tx\nc\t0.3\n", 2, "malformed value"),
    ("0.1\t0.2\n0.3\t\n0.5\t0.6\n", 2, "malformed value"),
    ("a\t0.1\n0.2\nc\t0.3\n", 2, "no id, but line 1 has one"),
    ("0.1\n\nb\t0.2\n0.3\n", 3, "the id 'b', but line 1 has none"),
])
def test_eval_bad_cell_names_file_and_line(tmp_path, capsys, emb, where, message):
    (tmp_path / "emb.tsv").write_text(emb)
    (tmp_path / "lab.tsv").write_text("0\n1\n0\n")
    assert run(["eval", "--embeddings", tmp_path / "emb.tsv",
                "--labels", tmp_path / "lab.tsv", "--out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'emb.tsv'}:{where}: {message}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("row,refused", [
    ("{n}\t{c}", True),
    ("{i}\t{c}\t{h}", True),
    ("{m}\t{c}", False),
    ("{i}", False),
    ("m{i}\t{n}\t{c}", False),
], ids=["from-1", "from-0-two-labels", "from-2", "one-column", "after-ids"])
def test_eval_numbered_label_rows_exit_1(tmp_path, capsys, row, refused):
    """A label table whose first column counts the rows from 0 or 1 is an id
    column read as numbers, and exits 1 naming the file and line 1; a count
    from 2, a single column, or a count after an id column is read."""
    ids = row.startswith("m")
    rng = np.random.default_rng(0)
    (tmp_path / "emb.tsv").write_text("".join(
        (f"m{i}\t" if ids else "") + f"{a:.6f}\t{b:.6f}\n"
        for i, (a, b) in enumerate(rng.standard_normal((60, 2)))))
    (tmp_path / "lab.tsv").write_text("".join(
        row.format(i=i, n=i + 1, m=i + 2, c=i % 2, h=i * 0.5) + "\n" for i in range(60)))
    code = run(["eval", "--embeddings", tmp_path / "emb.tsv", "--labels", tmp_path / "lab.tsv",
                "--task-types", "regression", "--probe-epochs", 2, "--out", tmp_path / "r.json"])
    err = capsys.readouterr().err
    assert code == int(refused) and (tmp_path / "r.json").exists() != refused
    if refused:
        assert err.startswith(f"error: {tmp_path / 'lab.tsv'}:1: the first column counts")
        assert "ids must not read as numbers" in err


def test_eval_joins_shuffled_labels_on_their_ids(small_checkpoint, tmp_path):
    """`embed` of a SMILES file with ids, then `eval` against synth's label
    table: reversed label rows give the report of the rows in order. With
    ids in the label table only, rows pair by position."""
    data = tmp_path / "synth"
    assert run(["synth", "--out", data, "--clusters", 2, "--per-cluster", 30,
                "--morph-dim", 6, "--gexp-dim", 6, "--seed", 1]) == 0
    mols = [r.split("\t") for r in (data / "nodes.tsv").read_text().splitlines()
            if r.split("\t")[1] == "molecule"]
    labels = (data / "labels.tsv").read_text().splitlines()
    assert [r.split("\t")[0] for r in labels] == [m[0] for m in mols]
    for name, text in [("named.smi", "".join(f"{m[3]} {m[0]}\n" for m in mols)),
                       ("plain.smi", "".join(f"{m[3]}\n" for m in mols)),
                       ("reversed.tsv", "".join(f"{r}\n" for r in reversed(labels)))]:
        (tmp_path / name).write_text(text)
    for smi in ("named", "plain"):
        assert run(["embed", "--checkpoint", small_checkpoint, "--input", tmp_path / f"{smi}.smi",
                    "--out", tmp_path / f"{smi}.tsv"]) == 0

    def report(emb, lab):
        out = tmp_path / f"{emb}-{lab.name}.json"
        assert run(["eval", "--embeddings", tmp_path / f"{emb}.tsv", "--labels", lab,
                    "--probe-epochs", 20, "--out", out]) == 0
        return out.read_bytes()

    joined = report("named", data / "labels.tsv")
    assert report("named", tmp_path / "reversed.tsv") == joined
    assert report("plain", data / "labels.tsv") == joined
    assert report("plain", tmp_path / "reversed.tsv") != joined


@pytest.mark.parametrize("emb,lab,where,message", [
    ("a\t0.1\nb\t0.2\nc\t0.3\n", "c\t1\na\t0\n", "emb.tsv:2", "id 'b' has no row in "),
    ("a\t0.1\nb\t0.2\n", "b\t1\n# x\nz\t0\na\t1\n", "lab.tsv:3", "id 'z' has no row in "),
    ("a\t0.1\nb\t0.2\na\t0.3\n", "a\t1\nb\t0\n", "emb.tsv:3",
     "id 'a' is given again, after line 1"),
    ("a\t0.1\nb\t0.2\n", "b\t1\na\t0\n\nb\t0\n", "lab.tsv:4",
     "id 'b' is given again, after line 1"),
], ids=["embedding-without-label", "label-without-embedding", "embedding-repeated",
        "label-repeated"])
def test_eval_id_without_partner_or_repeated_exit_1(tmp_path, capsys, emb, lab, where,
                                                    message):
    """When both tables have ids, an id missing from the other table or given
    twice exits 1 naming the file and the line, and writes no report."""
    (tmp_path / "emb.tsv").write_text(emb)
    (tmp_path / "lab.tsv").write_text(lab)
    assert run(["eval", "--embeddings", tmp_path / "emb.tsv", "--labels", tmp_path / "lab.tsv",
                "--out", tmp_path / "r.json"]) == 1
    other = {"emb.tsv": "lab.tsv", "lab.tsv": "emb.tsv"}[where.split(":")[0]]
    tail = tmp_path / other if message.endswith("row in ") else ""
    assert capsys.readouterr().err == f"error: {tmp_path / where}: {message}{tail}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("true_ids,width,message", [
    ("c1\n", 6, "1 true ids for 2 queries"),
    ("c1\nzz\n", 6, "true id 'zz' is not a candidate id"),
    ("c1\nc0\n", 7, "no decoder registered for ('cell_morphology', 7)"),
], ids=["c1\n-1 true ids for 2 queries", "c1\nzz\n-true id 'zz' is not a candidate id",
        "no-decoder-of-the-candidates-width"])
def test_match_bad_true_ids_exit_1(synth_graph, tmp_path, capsys, true_ids, width, message):
    """Bad true ids, or candidates of a width the checkpoint has no
    morphology decoder for, exit 1."""
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    (tmp_path / "cands.tsv").write_text("c0\t" + "\t".join(["0.5"] * width) + "\n"
                                        "c1\t" + "\t".join(["0.1"] * width) + "\n")
    (tmp_path / "q.smi").write_text("CCO\nCCN\n")
    (tmp_path / "true.txt").write_text(true_ids)
    assert run(["match", "--checkpoint", ck, "--queries", tmp_path / "q.smi",
                "--candidates", tmp_path / "cands.tsv",
                "--true-ids", tmp_path / "true.txt", "--out", tmp_path / "m.json"]) == 1
    assert message in capsys.readouterr().err


def test_match_report(synth_graph, tmp_path):
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    rng = np.random.default_rng(1)
    cands = rng.uniform(0, 1, size=(4, 6))
    (tmp_path / "cands.tsv").write_text(
        "\n".join(f"c{i}\t" + "\t".join(f"{v:.6f}" for v in row)
                  for i, row in enumerate(cands)) + "\n")
    (tmp_path / "q.smi").write_text("CCO\nCCN\n")
    (tmp_path / "true.txt").write_text("c1\nc2\n")
    out = tmp_path / "match.json"
    assert run(["match", "--checkpoint", ck, "--queries", tmp_path / "q.smi",
                "--candidates", tmp_path / "cands.tsv",
                "--true-ids", tmp_path / "true.txt", "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["ranks"]) == 2 and all(1 <= r <= 4 for r in rep["ranks"])
    assert set(rep["hit"]) == {"1", "10"}


@pytest.mark.parametrize("k,message", [
    ("0,-3", "k must be >= 1, got 0"),
    ("5,-3", "k must be >= 1, got -3"),
    ("", "k must list at least one cutoff"),
], ids=["zero-first", "negative", "none"])
def test_match_bad_cutoffs_exit_1(small_checkpoint, tmp_path, capsys, k, message):
    """A cutoff below 1 has no hits to count, and no cutoff reports nothing:
    `match` names the first such k, exits 1 and writes no report."""
    (tmp_path / "cands.tsv").write_text("c0\t" + "\t".join(["0.5"] * 6) + "\n")
    (tmp_path / "q.smi").write_text("CCO\n")
    (tmp_path / "true.txt").write_text("c0\n")
    out = tmp_path / "m.json"
    assert run(["match", "--checkpoint", small_checkpoint, "--queries", tmp_path / "q.smi",
                "--candidates", tmp_path / "cands.tsv", "--true-ids", tmp_path / "true.txt",
                "--k", k, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_match_ranks_a_gaussian_checkpoint_by_squared_error(synth_graph, tmp_path):
    """`match` of a Gaussian checkpoint ranks the candidates y of a query by
    -|y - o|^2 / 2 of the decoder outputs o, ties broken by candidate id,
    where the Bernoulli score ranks them otherwise. Each query is asked for
    every candidate, so its whole ranking is checked."""
    import infoalign.diffcore as dc
    from infoalign.ctxgraph import NodeKind
    from infoalign.model import embed, load_checkpoint
    from infoalign.molparse import parse_many
    from tests.oracles import decoder_prefix
    ck = tmp_path / "gauss.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck, "--likelihood", "gaussian",
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    rng = np.random.default_rng(7)
    cands = rng.uniform(0, 1, size=(8, 6)) * rng.uniform(0.05, 1.0, size=(8, 1))
    cands[5] = cands[2]  # a tie, broken by id: "b5" ranks before "c2"
    ids = ["c0", "c1", "c2", "c3", "c4", "b5", "c6", "c7"]
    (tmp_path / "cands.tsv").write_text("".join(
        "\t".join([cid, *map(repr, row.tolist())]) + "\n" for cid, row in zip(ids, cands)))
    smiles = ["CCO", "c1ccccc1N", "CC(=O)O"]
    (tmp_path / "q.smi").write_text("".join(f"{smi}\n" for smi in smiles for _ in ids))
    (tmp_path / "true.txt").write_text("".join(f"{cid}\n" for _ in smiles for cid in ids))
    out = tmp_path / "match.json"
    assert run(["match", "--checkpoint", ck, "--queries", tmp_path / "q.smi",
                "--candidates", tmp_path / "cands.tsv",
                "--true-ids", tmp_path / "true.txt", "--out", out]) == 0

    store = load_checkpoint(ck)[0]
    prefix = decoder_prefix(store.params, NodeKind.CELL_MORPHOLOGY, 6)
    o = dc.mlp(store.params, prefix, embed(store, parse_many(smiles)))

    def ranks(scores):
        order = sorted(range(len(ids)), key=lambda j: (-scores[j], ids[j]))
        return [order.index(j) + 1 for j in range(len(ids))]

    want = [r for q in o for r in ranks([-0.5 * np.sum((y - q) ** 2) for y in cands])]
    bernoulli = [r for q in o for r in ranks(cands @ q)]
    assert json.loads(out.read_text())["ranks"] == want
    assert bernoulli != want
    assert all(want[k + 5] < want[k + 2] for k in range(0, len(want), len(ids)))


@pytest.mark.parametrize("command", ["embed", "match"])
def test_no_molecules_exit_1(synth_graph, tmp_path, capsys, command):
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    smi = tmp_path / "empty.smi"
    smi.write_text("# no molecules\n\n")
    out = tmp_path / "out"
    if command == "embed":
        argv = ["embed", "--checkpoint", ck, "--input", smi, "--out", out]
    else:
        (tmp_path / "cands.tsv").write_text("c0\t" + "\t".join(["0.5"] * 6) + "\n")
        (tmp_path / "true.txt").write_text("")
        argv = ["match", "--checkpoint", ck, "--queries", smi,
                "--candidates", tmp_path / "cands.tsv",
                "--true-ids", tmp_path / "true.txt", "--out", out]
    assert run(argv) == 1
    assert f"{smi}: no molecules" in capsys.readouterr().err
    assert not out.exists()


def test_each_smiles_parsed_once_per_command(synth_graph, tmp_path, monkeypatch):
    """build-graph, embed and match parse every SMILES of their input exactly
    once: `load_node_table` fingerprints the set it parsed. Each block of the
    array pass is counted; valid input never reaches the token parser."""
    import infoalign.molparse as molparse

    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    nodes = synth_graph.parent / "synth" / "nodes.tsv"
    smiles = [r.split("\t")[3] for r in nodes.read_text().splitlines()
              if r.split("\t")[1] == "molecule"]
    smi = tmp_path / "q.smi"
    smi.write_text("\n".join(smiles) + "\n")
    (tmp_path / "cands.tsv").write_text("c0\t" + "\t".join(["0.5"] * 6) + "\n")
    (tmp_path / "true.txt").write_text("c0\n" * len(smiles))
    parsed = []
    parse_block = molparse._parse_block

    def counting(texts):
        parsed.extend(texts)
        return parse_block(texts)

    def unreached(*args):
        raise AssertionError("the token parser ran on valid input")

    monkeypatch.setattr(molparse, "_parse_block", counting)
    monkeypatch.setattr(molparse, "_raise_first_fault", unreached)
    for argv in (["build-graph", "--nodes", nodes, "--edges", nodes.parent / "edges.tsv",
                  "--fp-bits", 64, "--out", tmp_path / "g.ctxg"],
                 ["embed", "--checkpoint", ck, "--input", smi, "--out", tmp_path / "e.tsv"],
                 ["match", "--checkpoint", ck, "--queries", smi, "--candidates",
                  tmp_path / "cands.tsv", "--true-ids", tmp_path / "true.txt",
                  "--out", tmp_path / "m.json"]):
        parsed.clear()
        assert run(argv) == 0
        assert parsed == smiles, argv[0]


@pytest.fixture(scope="module")
def small_checkpoint(synth_graph, tmp_path_factory):
    ck = tmp_path_factory.mktemp("checkpoint") / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    return ck


def smiles_command(command, smi, ck, d):
    """argv of `command` reading the SMILES file `smi`."""
    if command == "fingerprint":
        return ["fingerprint", "--input", smi, "--out", d / "out"]
    if command == "embed":
        return ["embed", "--checkpoint", ck, "--input", smi, "--out", d / "out"]
    (d / "cands.tsv").write_text("c0\t" + "\t".join(["0.5"] * 6) + "\n")
    (d / "true.txt").write_text("c0\n" * len(read_smiles_file(smi)))
    return ["match", "--checkpoint", ck, "--queries", smi, "--candidates", d / "cands.tsv",
            "--true-ids", d / "true.txt", "--out", d / "out"]


@pytest.mark.parametrize("command", ["fingerprint", "embed", "match"])
def test_bad_smiles_line_names_file_and_line(small_checkpoint, tmp_path, capsys, command):
    smi = tmp_path / "q.smi"
    smi.write_text("CCO\n# comment\n\nC1CC name\n")
    assert run(smiles_command(command, smi, small_checkpoint, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {smi}:4: dangling ring closure digit(s): [1]\n"
    assert not (tmp_path / "out").exists()


UTF16 = "CCO\n".encode("utf-16")  # starts with the bytes 0xff 0xfe


@pytest.mark.parametrize("case", [
    "fingerprint --input", "embed --input", "build-graph --nodes", "build-graph --nodes line 2",
    "build-graph --edges", "eval --embeddings", "--config", "--config trailing comma",
    "match --true-ids",
])
def test_input_error_names_file_and_line(small_checkpoint, toy_tables, tmp_path, capsys, case):
    """Each malformed input exits 1 with one error line naming the file and line."""
    nodes, edges = toy_tables
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(UTF16)
    where, message = f"{bad}:1", "not UTF-8 text: byte 0xff at offset 0"
    emb, smi, cands = tmp_path / "emb.tsv", tmp_path / "q.smi", tmp_path / "cands.tsv"
    emb.write_text("0.1\t0.2\n0.3\t0.4\n")
    smi.write_text("CCO\nCCN\n")
    cands.write_text("c0\t0.5\nc1\t0.1\n")
    argv = {
        "fingerprint --input": ["fingerprint", "--input", bad],
        "embed --input": ["embed", "--checkpoint", small_checkpoint, "--input", bad],
        "build-graph --nodes": ["build-graph", "--nodes", bad, "--edges", edges],
        "build-graph --nodes line 2": ["build-graph", "--nodes", bad, "--edges", edges],
        "build-graph --edges": ["build-graph", "--nodes", nodes, "--edges", bad],
        "eval --embeddings": ["eval", "--embeddings", bad, "--labels", emb],
        "--config": ["fingerprint", "--smiles", "CCO", "--config", bad],
        "--config trailing comma": ["fingerprint", "--smiles", "CCO", "--config", bad],
        "match --true-ids": ["match", "--checkpoint", small_checkpoint, "--queries", smi,
                             "--candidates", cands, "--true-ids", bad],
    }[case]
    if case == "build-graph --nodes line 2":
        bad.write_bytes(nodes.read_bytes().replace(b"CCN", b"C\xe9N"))
        where, message = f"{bad}:2", "not UTF-8 text: byte 0xe9 at offset 37"
    elif case == "--config trailing comma":
        bad.write_text('{"radius": 2,}')
        message = "Expecting property name enclosed in double quotes (column 14)"
    elif case == "match --true-ids":
        bad.write_text("c1\n\nzz\n")
        where, message = f"{bad}:3", f"true id 'zz' is not a candidate id in {cands}"
    assert run([*argv, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {where}: {message}\n"
    assert not out.exists()


def test_build_graph_mixed_dimensions_name_line(toy_tables, tmp_path, capsys):
    """Similarity edges on a kind whose rows differ in dimension name the first
    row unlike the kind's first; without them mixed dimensions build."""
    nodes, edges = toy_tables
    nodes.write_text(nodes.read_text() + "c2\tcell_morphology\ttoy\t0.5\t0.5\n")
    out = tmp_path / "g.ctxg"
    assert run(["build-graph", "--nodes", nodes, "--edges", edges,
                "--similarity-kinds", "gene_expression", "--out", out]) == 0
    assert run(["build-graph", "--nodes", nodes, "--edges", edges,
                "--similarity-kinds", "cell_morphology", "--out", tmp_path / "g2.ctxg"]) == 1
    assert capsys.readouterr().err == (
        f"error: {nodes}:6: cell_morphology row has 2 features, but line 3 has 3; "
        f"similarity edges need one dimension per kind\n")
    assert not (tmp_path / "g2.ctxg").exists()


@pytest.mark.parametrize("command", ["embed", "match", "pretrain --resume"])
@pytest.mark.parametrize("array", ["params", "_m"])
def test_non_finite_checkpoint_exit_1(synth_graph, tmp_path, capsys, command, array):
    import infoalign.diffcore as dc
    ck = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--out", ck,
                "--epochs", 1, *PRETRAIN_SMALL]) == 0
    store, manifest = dc.load_params(ck)
    getattr(store, array)["atom_embed"][3, 1] = np.nan
    dc.save_params(ck, store, manifest)
    (tmp_path / "q.smi").write_text("CCO\nCCN\n")
    (tmp_path / "cands.tsv").write_text("c0\t" + "\t".join(["0.5"] * 6) + "\n")
    (tmp_path / "true.txt").write_text("c0\nc0\n")
    out = tmp_path / "out"
    argv = {
        "embed": ["embed", "--checkpoint", ck, "--input", tmp_path / "q.smi", "--out", out],
        "match": ["match", "--checkpoint", ck, "--queries", tmp_path / "q.smi",
                  "--candidates", tmp_path / "cands.tsv", "--true-ids", tmp_path / "true.txt",
                  "--out", out],
        "pretrain --resume": ["pretrain", "--graph", synth_graph, "--resume", ck,
                              "--epochs", 1, *PRETRAIN_SMALL, "--out", out],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    label = "parameter" if array == "params" else "Adam first moment of"
    assert f"{ck}: {label} 'atom_embed' is not finite" in err and "Traceback" not in err
    assert not out.exists()


# --- mi-bench / plumbing ------------------------------------------------------------------

def test_mi_bench_exact_zero_violations(tmp_path):
    out = tmp_path / "mi.json"
    assert run(["mi-bench", "--exact", "--num-joints", 5, "--seed", 2,
                "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True and rep["violations"] == []
    assert rep["mode"] == "exact"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_mi_bench_bad_tolerance_exit_1(tmp_path, capsys, tol):
    """A tolerance that is NaN, infinite or negative is refused by name; it
    would pass or fail every bound whatever the bounds are."""
    out = tmp_path / "mi.json"
    assert run(["mi-bench", "--num-joints", 2, "--tol", tol, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: tol must be a finite number >= 0, got {float(tol)}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--num-joints", 0], "no joint tables to check"),
    (["--k", ""], "no K values to check"),
    (["--nz", 0], "nz must be >= 1, got 0"),
    (["--ny", -2], "ny must be >= 1, got -2"),
], ids=["no-joints", "no-k", "nz", "ny"])
def test_mi_bench_checks_something_or_exit_1(tmp_path, capsys, argv, message):
    """A bench over no joint table or no K would pass by checking nothing,
    and a table with no rows or columns has no MI: each exits 1, naming the
    setting, and writes no report."""
    out = tmp_path / "mi.json"
    assert run(["mi-bench", "--num-joints", 2, *argv, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["mi-bench", "--k", "2,x"], "--k '2,x': entry 'x' is not an integer"),
    (["match", "--k", "1,2.5"], "--k '1,2.5': entry '2.5' is not an integer"),
    (["pretrain", "--beta-sweep", "0.1,y"], "--beta-sweep '0.1,y': entry 'y' is not a number"),
], ids=["mi-bench-k", "match-k", "pretrain-beta-sweep"])
def test_list_option_bad_entry_exit_1(synth_graph, small_checkpoint, tmp_path, capsys, argv,
                                      message):
    """An entry of a comma-separated option that is not a number is named
    with its flag and list; the command exits 1 and writes nothing."""
    (tmp_path / "cands.tsv").write_text("c0\t" + "\t".join(["0.5"] * 6) + "\n")
    (tmp_path / "q.smi").write_text("CCO\n")
    (tmp_path / "true.txt").write_text("c0\n")
    inputs = {"mi-bench": [],
              "match": ["--checkpoint", small_checkpoint, "--queries", tmp_path / "q.smi",
                        "--candidates", tmp_path / "cands.tsv",
                        "--true-ids", tmp_path / "true.txt"],
              "pretrain": ["--graph", synth_graph, *PRETRAIN_SMALL, "--epochs", 1]}
    out = tmp_path / "out"
    assert run([*argv, *inputs[argv[0]], "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


@pytest.mark.parametrize("argv,config,sweep", [
    (["--beta-sweep", ","], {}, ","),
    ([], {"beta_sweep": ","}, ","),
    (["--beta-sweep", ""], {}, ""),
], ids=["flag", "config", "empty"])
def test_pretrain_beta_sweep_of_no_value_exit_1(synth_graph, tmp_path, capsys, argv, config,
                                                sweep):
    """A beta sweep that lists no value exits 1 naming --beta-sweep, and
    writes nothing."""
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run(["pretrain", "--graph", synth_graph, "--config", tmp_path / "cfg.json",
                "--out", tmp_path / "ck.iapt", "--epochs", 1, *PRETRAIN_SMALL, *argv]) == 1
    assert capsys.readouterr().err == f"error: --beta-sweep {sweep!r} lists no value\n"
    assert not list(tmp_path.glob("ck.iapt*"))


@pytest.mark.parametrize("argv,config,sweep,betas,name", [
    (["--beta-sweep", "0,0.1,0.1000001"], {}, "0,0.1,0.1000001", "0.1 and 0.1000001", "0.1"),
    ([], {"beta_sweep": "1,0.001,1e-3"}, "1,0.001,1e-3", "0.001 and 0.001", "0.001"),
    (["--beta-sweep", "0.1,0.1"], {}, "0.1,0.1", "0.1 and 0.1", "0.1"),
], ids=["flag", "config", "repeated"])
def test_pretrain_beta_sweep_of_one_name_twice_exit_1(synth_graph, tmp_path, capsys, argv,
                                                     config, sweep, betas, name):
    """Two betas of a sweep whose checkpoints would have one name exit 1
    naming both values and the file, before any run trains or writes."""
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "ck.iapt"
    assert run(["pretrain", "--graph", synth_graph, "--config", tmp_path / "cfg.json",
                "--out", out, "--epochs", 1, *PRETRAIN_SMALL, *argv]) == 1
    assert capsys.readouterr().err == (f"error: --beta-sweep {sweep!r}: betas {betas} would "
                                       f"both write {out}.beta{name}\n")
    assert not list(tmp_path.glob("ck.iapt*"))


def test_mi_bench_rejects_no_exact(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["mi-bench", "--no-exact", "--out", tmp_path / "mi.json"])
    assert exc.value.code == 2
    assert "--no-exact" in capsys.readouterr().err


def test_mi_bench_config_exact_false_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exact": False}))
    out = tmp_path / "mi.json"
    assert run(["mi-bench", "--config", cfg, "--out", out]) == 1
    assert "only exact-mode verification is supported" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = str(Path(infoalign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, infoalign.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def readme_commands():
    """Each `infoalign ...` command of README.md's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in text.split("```sh\n")[1:]:
        joined = block.split("```")[0].replace("\\\n", " ")
        commands += [line.split()[1:] for line in joined.splitlines()
                     if line.startswith("infoalign ")]
    return commands


def test_readme_commands_parse():
    from infoalign.cli import build_parser
    commands = readme_commands()
    assert len(commands) >= 9
    assert {argv[0] for argv in commands} >= {"synth", "build-graph", "walk", "pretrain",
                                              "mi-bench"}
    for argv in commands:
        build_parser().parse_args(argv)  # exits 2 on an unknown or missing flag


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["walk", "--graph", "x", "--out", "y", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["build-graph", "--nodes", "n", "--edges", "e", "--out", "g"],
    ["fingerprint", "--smiles", "CCO"],
    ["embed", "--checkpoint", "c", "--input", "i", "--out", "o"],
    ["match", "--checkpoint", "c", "--queries", "q", "--candidates", "c", "--true-ids", "t",
     "--out", "o"],
], ids=lambda argv: argv[0])
def test_seed_rejected_where_unused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--seed", 3])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_missing_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nbits": 64, "radius": 1}))
    assert run(["fingerprint", "--smiles", "CCO", "--config", cfg]) == 0
    hex64 = capsys.readouterr().out.strip().split("\t")[3]
    assert len(hex64) == 64 // 4
    # flag beats config
    assert run(["fingerprint", "--smiles", "CCO", "--config", cfg,
                "--nbits", 128]) == 0
    hex128 = capsys.readouterr().out.strip().split("\t")[3]
    assert len(hex128) == 128 // 4


@pytest.mark.parametrize("command,config", [
    (["pretrain", "--graph", "{graph}", "--out", "ck.iapt"], {"latent_dim": [1]}),
    (["fingerprint", "--smiles", "CCO"], {"nbits": "many"}),
    (["mi-bench", "--out", "mi.json"], {"tol": {}}),
], ids=["pretrain", "fingerprint", "mi-bench"])
def test_config_value_unconvertible_exit_1(synth_graph, tmp_path, capsys, monkeypatch,
                                           command, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = [a.format(graph=synth_graph) for a in command]
    assert run([*argv, "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    key, value = next(iter(config.items()))
    assert f"config key {key!r}: cannot convert {value!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("command,config", [
    (["mi-bench", "--out", "mi.json"], {"k": [2, 8]}),
    (["build-graph", "--nodes", "{nodes}", "--edges", "{edges}", "--out", "g.ctxg"],
     {"similarity_kinds": ["cell_morphology"]}),
    (["mi-bench", "--out", "mi.json"], {"k": None}),
    (["build-graph", "--nodes", "{nodes}", "--edges", "{edges}", "--out", "g.ctxg"],
     {"similarity_kinds": True}),
    (["mi-bench", "--out", "mi.json"], {"k": 8}),
], ids=["mi-bench-k", "build-graph-similarity_kinds", "mi-bench-k-null",
        "build-graph-similarity_kinds-true", "mi-bench-k-number"])
def test_config_string_key_wrong_type_exit_1(toy_tables, tmp_path, capsys, monkeypatch,
                                             command, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    nodes, edges = toy_tables
    argv = [a.format(nodes=nodes, edges=edges) for a in command]
    assert run([*argv, "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    key, value = next(iter(config.items()))
    assert f"config key {key!r}: expected a string, got {value!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "mi.json").exists() and not any(tmp_path.glob("g.ctxg*"))


@pytest.mark.parametrize("command,config,expected", [
    (["pretrain", "--graph", "{graph}", "--out", "ck.iapt"], {"beta_sweep": [0.1, 1]},
     "expected a comma-separated string"),
    (["synth", "--out", "synthdir"], {"motifs": 5}, "expected a string or a list of strings"),
    (["synth", "--out", "synthdir"], {"motifs": ["CC", 5]},
     "expected a string or a list of strings"),
], ids=["pretrain-beta_sweep", "synth-motifs", "synth-motifs-list"])
def test_config_none_default_wrong_type_exit_1(synth_graph, tmp_path, capsys, monkeypatch,
                                               command, config, expected):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = [a.format(graph=synth_graph) for a in command]
    assert run([*argv, "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    key, value = next(iter(config.items()))
    assert f"config key {key!r}: {expected}, got {value!r}" in err and "Traceback" not in err
    assert not any(tmp_path.glob("ck.iapt*")) and not (tmp_path / "synthdir").exists()


@pytest.mark.parametrize("command,config", [
    (["walk", "--graph", "{graph}", "--out", "out"], {"uniform": "false"}),
    (["mi-bench", "--out", "out"], {"random_critic": "false"}),
    (["mi-bench", "--out", "out"], {"exact": 0}),
], ids=["walk-uniform", "mi-bench-random_critic", "mi-bench-exact"])
def test_config_bool_key_takes_only_true_or_false(synth_graph, tmp_path, capsys, monkeypatch,
                                                  command, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = [a.format(graph=synth_graph) for a in command]
    assert run([*argv, "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    key, value = next(iter(config.items()))
    assert f"config key {key!r}: expected true or false, got {value!r}" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,expected", [
    ("nz", 2.7, "an integer"), ("nz", -0.5, "an integer"), ("num_joints", True, "an integer"),
    ("tol", False, "a number"),
])
def test_config_number_key_fractional_or_bool_exit_1(tmp_path, capsys, monkeypatch,
                                                     key, value, expected):
    """The flag `--nz 2.7` exits 2; the config value must not be truncated
    either, nor a bool taken as 0 or 1."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert run(["mi-bench", "--out", "mi.json", "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert f"config key {key!r}: expected {expected}, got {value!r}" in err
    assert "Traceback" not in err and not (tmp_path / "mi.json").exists()


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nbits": 64}))
    monkeypatch.setenv("INFOALIGN_CONFIG", str(cfg))
    assert run(["fingerprint", "--smiles", "CCO"]) == 0
    assert len(capsys.readouterr().out.strip().split("\t")[3]) == 16


def test_determinism_byte_identical(toy_tables, tmp_path):
    """build-graph, pretrain, embed, mi-bench primary outputs are byte-identical
    across two runs with the same seed."""
    g = make_graph(tmp_path, toy_tables)
    smi = tmp_path / "in.smi"
    smi.write_text("CCO\nCCN\n")
    outputs = {}
    for tag in ("r1", "r2"):
        d = tmp_path / tag
        d.mkdir()
        ck = d / "ck.iapt"
        assert run(["pretrain", "--graph", g, "--out", ck, "--epochs", 2,
                    "--seed", 11, *PRETRAIN_SMALL]) == 0
        emb = d / "emb.tsv"
        assert run(["embed", "--checkpoint", ck, "--input", smi, "--out", emb]) == 0
        mi = d / "mi.json"
        assert run(["mi-bench", "--num-joints", 3, "--seed", 11, "--out", mi]) == 0
        outputs[tag] = (ck.read_bytes(), Path(str(ck) + ".log.tsv").read_bytes(),
                        emb.read_bytes(), mi.read_bytes())
    assert outputs["r1"] == outputs["r2"]


# --- table fuzzing ------------------------------------------------------------------------

def mostly(good, bad):
    """`good` nine draws in ten, else `bad`."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


FUZZ_ID = mostly(st.sampled_from(["m0", "m1", "m2", "c0", "c1", "c2", "g0", "g1"]),
                 st.sampled_from(["unknown", ""]))
BAD_VALUE = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e400", "0", "-0.25", "1.5"])
FEATURE = mostly(st.floats(allow_nan=False, allow_infinity=False).map(repr)
                 | st.sampled_from(["1e308", "-1e308"]), BAD_VALUE)
MOL_ROW = st.tuples(FUZZ_ID, st.just("molecule"), st.just("t"),
                    mostly(st.sampled_from(["CCO", "c1ccccc1", "CC(=O)N", "C"]),
                           st.sampled_from(["C(", "Q", "[13C]", "", "C.C"])))
PROFILE_ROW = st.tuples(FUZZ_ID, st.sampled_from(["cell_morphology", "gene_expression"]),
                        st.just("t"),
                        mostly(st.lists(FEATURE, min_size=3, max_size=3),
                               st.lists(FEATURE, max_size=5))).map(lambda r: (*r[:3], *r[3]))
BAD_NODE_ROW = st.lists(st.sampled_from(["m9", "gene", "protein", "", "0.5"]), max_size=4)
NODE_ROW = mostly(MOL_ROW | PROFILE_ROW, BAD_NODE_ROW)
EDGE_ROW = mostly(
    st.tuples(FUZZ_ID, FUZZ_ID,
              mostly(st.sampled_from(["perturbation", "similarity", "gene_gene",
                                      "gene_molecule"]), st.just("bogus")),
              mostly(st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(repr),
                     BAD_VALUE)),
    st.lists(st.sampled_from(["m0", "c0", "similarity", "0.5"]), max_size=5))
TABLE_LINES = st.sampled_from(["", "# comment"])


def table(rows):
    return st.lists(rows.map("\t".join) | TABLE_LINES, max_size=8).map(
        lambda lines: "".join(line + "\n" for line in lines))


@settings(max_examples=300, deadline=None)
@given(nodes=table(NODE_ROW), edges=table(EDGE_ROW), similarity=st.booleans())
def test_build_graph_fuzzed_tables_exit_0_or_1_with_message(tmp_path_factory, nodes, edges,
                                                           similarity):
    """Ragged rows, bad kinds and relations, non-numeric, non-finite or
    out-of-range values, unknown, repeated and self-looped ids and empty
    files: build-graph exits 0, or 1 with one error line, which names the
    file and line for an id error; no traceback and no numpy warning."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "nodes.tsv").write_text(nodes, encoding="utf-8")
    (d / "edges.tsv").write_text(edges, encoding="utf-8")
    argv = ["build-graph", "--nodes", d / "nodes.tsv", "--edges", d / "edges.tsv",
            "--fp-bits", 64, "--out", d / "g.ctxg"]
    if similarity:
        argv += ["--similarity-kinds", "cell_morphology,gene_expression"]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(argv)
    if code == 0:
        assert (d / "g.ctxg").exists() and not err.getvalue()
    else:
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) > 8
        if re.search("unknown node id|already present|self-loop", lines[0]):
            tables = "|".join(re.escape(str(d / name)) for name in ("nodes.tsv", "edges.tsv"))
            assert re.match(rf"error: ({tables}):\d+: ", lines[0]), lines[0]


MATRIX_CELL = mostly(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     BAD_VALUE | st.sampled_from(["m0", "x y", " "]))


@settings(max_examples=300, deadline=None)
@given(text=table(st.lists(MATRIX_CELL, max_size=4)))
def test_read_matrix_tsv_fuzzed(tmp_path_factory, text):
    """Id-only and ragged rows, non-numeric, non-finite and empty cells, and
    empty files: the reader returns a finite matrix with at least one row
    and one column, whose rows all have an id or none has, or raises
    TableFormatError naming the file; no numpy warning."""
    path = tmp_path_factory.mktemp("matrix") / "m.tsv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ids, x, lines = _read_matrix_tsv(path)
        except TableFormatError as exc:
            assert str(exc).startswith(f"{path}:")
            return
    assert x.ndim == 2 and x.shape[0] == len(ids) == len(lines) and min(x.shape) >= 1
    assert np.isfinite(x).all()
    assert len({i is None for i in ids}) == 1


SMILES_LINE = mostly(smiles_strings().flatmap(
    lambda smi: st.sampled_from([smi, f"  {smi}\tname", f"{smi} x y"])), st.text(max_size=12))


@pytest.mark.parametrize("command", ["fingerprint", "embed", "match"])
@settings(max_examples=60, deadline=None)
@given(lines=st.lists(SMILES_LINE | TABLE_LINES, max_size=6))
def test_smiles_file_fuzzed_exit_0_or_1_with_message(small_checkpoint, tmp_path_factory,
                                                     command, lines):
    """Bad SMILES, blank, comment and non-ASCII lines and empty files: the
    command exits 0, or 1 with one error line naming the file; no traceback
    and no numpy warning."""
    d = tmp_path_factory.mktemp("smiles")
    smi = d / "in.smi"
    smi.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(smiles_command(command, smi, small_checkpoint, d))
    if code == 0:
        assert (d / "out").exists() and not err.getvalue()
    else:
        assert code == 1
        assert err.getvalue().startswith(f"error: {smi}:")
        assert err.getvalue().count("\n") == 1
