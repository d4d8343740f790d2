"""Reachability: every function defined in `src/` that no subcommand calls is
listed here with the reason it stays.

A child process installs a `sys.setprofile` hook, imports the CLI and runs
every subcommand in-process through `main` on a small synth set: both
likelihoods, `--resume`, `--beta-sweep`, `walk --uniform`, a mixed-type
`eval`, an `embed` and `eval` whose rows are matched by id, `match`, and
`mi-bench` with and without `--random-critic`. A function counts as reached
if any of it runs, at import time included (such as `cli._defaults`). The
test fails when a function goes uncalled that is not listed, or when a
listed one is called: a new function needs a caller or a reason, and a
reason that no longer holds is deleted.

Run this file as a script with a scratch directory as its argument to write
the reached (file, line) pairs there as `reached.json`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "infoalign"

_WRAPPED = "wrapped by name in perfbench/tracer.py"
_NODES = "perfbench/tracer.py's `_similarity_counts` reads the graph's nodes through it"

# "module.qualname" of each uncalled function, and why it stays.
UNREACHED = {
    "model.gin_encode": _WRAPPED,
    "model.infoalign_loss": _WRAPPED,
    "model.batch_loss": "the loss of one batch, as the tests and `infoalign_loss` call it; "
                        "it runs the plan of that batch through `step_loss`, as `pretrain` "
                        "runs each epoch's plan",
    "walker.WalkBatch.__iter__": "perfbench/tracer.py's `_walk_counts` iterates the walks",
    "walker.WalkBatch.__getitem__": "a `Sequence` needs it, and the tests slice walks into "
                                    "batches; `pretrain` plans an epoch's walks whole",
    "walker.WalkPath.__post_init__": "the walks `WalkBatch.__iter__` yields",
    "ctxgraph.ContextGraph.node": _NODES,
    "ctxgraph.ContextGraph._node_index": _NODES,
    "ctxgraph.ContextGraph.node_ids": _NODES,
    "ctxgraph.NodeRecord.__post_init__": _NODES,
    "ctxgraph.NodeRecord.modality_dim": _NODES,
    "molparse._parse_bracket_atom": "synth writes no bracket atoms",
    "molparse.parse_smiles": "perfbench/tracer.py wraps it where `cli` and `ctxgraph` import "
                             "it (ROADMAP item 1); every command parses a list",
    "molparse._raise_first_fault": "it names the fault of a SMILES that does not parse; "
                                   "every command here is given valid SMILES",
    "mibounds.i_eub": "the encoder upper bound, waiting for a caller in the run records "
                      "(ROADMAP item 7)",
}


def definitions() -> dict:
    """{(file, first line of its code object): "module.qualname"} of every
    function defined in `src/`, nested ones included."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def _run_every_command(work: Path):
    """Run each subcommand through `main`; every run must exit 0."""
    from infoalign.cli import main

    def run(*argv):
        code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"exit {code}: {' '.join(map(str, argv))}")

    synth, graph, ck = work / "synth", work / "g.ctxg", work / "ck.iapt"
    small = ["--latent-dim", 4, "--num-layers", 2, "--hidden", 8, "--decoder-hidden", 8,
             "--fp-bits", 64, "--batch-size", 4, "--epochs", 1]
    run("synth", "--out", synth, "--clusters", 2, "--per-cluster", 6, "--morph-dim", 5,
        "--gexp-dim", 3, "--seed", 0)
    run("build-graph", "--nodes", synth / "nodes.tsv", "--edges", synth / "edges.tsv",
        "--fp-bits", 64, "--similarity-kinds", "cell_morphology,gene_expression",
        "--threshold", 0.5, "--out", graph)
    run("walk", "--graph", graph, "--out", work / "walks.tsv")
    run("walk", "--graph", graph, "--uniform", "--out", work / "uniform.tsv")
    nodes = [line.split("\t") for line in (synth / "nodes.tsv").read_text().splitlines()]
    smiles = work / "mols.smi"
    smiles.write_text("".join(row[3] + "\n" for row in nodes if row[1] == "molecule"))
    run("fingerprint", "--smiles", "CCO", "--out", work / "one.tsv")
    run("fingerprint", "--input", smiles, "--nbits", 64, "--out", work / "fp.tsv")
    run("pretrain", "--graph", graph, "--out", ck, *small)
    run("pretrain", "--graph", graph, "--out", work / "gauss.iapt", "--likelihood",
        "gaussian", *small)
    run("pretrain", "--graph", graph, "--resume", ck, "--out", ck, "--epochs", 1)
    run("pretrain", "--graph", graph, "--out", work / "sweep.iapt", "--beta-sweep", "0,0.1",
        *small)
    run("embed", "--checkpoint", ck, "--input", smiles, "--out", work / "emb.tsv")
    (work / "labels.tsv").write_text("".join(f"{i % 2}\t{i * 0.25}\n" for i in range(12)))
    run("eval", "--embeddings", work / "emb.tsv", "--labels", work / "labels.tsv",
        "--task-types", "classification,regression", "--probe-hidden", 4,
        "--probe-epochs", 5, "--out", work / "eval.json")
    named = work / "named.smi"
    named.write_text("".join(f"{row[3]} {row[0]}\n" for row in nodes if row[1] == "molecule"))
    run("embed", "--checkpoint", ck, "--input", named, "--out", work / "named.tsv")
    run("eval", "--embeddings", work / "named.tsv", "--labels", synth / "labels.tsv",
        "--probe-epochs", 5, "--out", work / "joined.json")
    morph = [row for row in nodes if row[1] == "cell_morphology"]
    (work / "cands.tsv").write_text("".join("\t".join([row[0], *row[3:]]) + "\n"
                                            for row in morph))
    (work / "true.txt").write_text("".join(row[0] + "\n" for row in morph))
    run("match", "--checkpoint", ck, "--queries", smiles, "--candidates", work / "cands.tsv",
        "--true-ids", work / "true.txt", "--out", work / "match.json")
    run("mi-bench", "--num-joints", 3, "--out", work / "mi.json")
    run("mi-bench", "--num-joints", 3, "--random-critic", "--out", work / "mi_random.json")


def reached(work: Path) -> set:
    """The (file, first line) of every `src/` code object called while every
    command runs, import time included."""
    hits = set()
    prefix = str(SRC) + os.sep

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        _run_every_command(work)
    finally:
        sys.setprofile(None)
    return hits


def test_wrapped_reasons_name_a_wrap():
    """Each entry kept because the tracer wraps it is a (module, qualname)
    that `perfbench/tracer.py`'s `WRAPS` lists, so a dropped wrap names the
    entries that may go."""
    from tests.test_tracer_names import WRAPS  # loaded by path; a script run needs no tests/

    wrapped = {(module, path) for module, path, *_ in WRAPS}
    stale = sorted(name for name, reason in UNREACHED.items() if reason == _WRAPPED
                   and ("infoalign." + name.split(".", 1)[0], name.split(".", 1)[1])
                   not in wrapped)
    assert not stale, f"listed as wrapped, but perfbench/tracer.py does not wrap: {stale}"


def test_every_uncalled_function_is_listed(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent),
                                                        os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    hits = {tuple(pair) for pair in json.loads((tmp_path / "reached.json").read_text())}
    defined = definitions()
    uncalled = {name for key, name in defined.items() if key not in hits}
    assert set(UNREACHED) <= set(defined.values()), "listed but not defined: " + \
        ", ".join(sorted(set(UNREACHED) - set(defined.values())))
    assert uncalled == set(UNREACHED), (
        f"uncalled but not listed: {sorted(uncalled - set(UNREACHED))}; "
        f"listed but called: {sorted(set(UNREACHED) - uncalled)}")


if __name__ == "__main__":
    work = Path(sys.argv[1])
    (work / "reached.json").write_text(json.dumps(sorted(reached(work))))
