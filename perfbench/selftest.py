"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a small pipeline through the CLI, shows that every check accepts the
real outputs, then corrupts each output in one small way and shows that its
check rejects it: no check passes vacuously. It also checks that
BENCHMARK.json declares the metrics and workloads run.py reports. Exits 0
only if every case behaves.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import zlib
from pathlib import Path

import numpy as np

import checks
from run import END_TO_END, PER_LAYER, ROOT, load_program
from workloads import KINDS, WORKLOADS, _molecule_inputs, _rows


def rewrite_graph(src, dst, edit):
    """Copy a CTXG container with its edge list passed through `edit`."""
    raw = Path(src).read_bytes()
    magic, version, meta_len, payload_len, _crc = checks._HEADER.unpack_from(raw)
    body = raw[checks._HEADER.size:]
    meta = json.loads(body[:meta_len])
    meta["edges"] = edit(meta["edges"])
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = body[meta_len:]
    crc = zlib.crc32(blob + payload) & 0xFFFFFFFF
    Path(dst).write_bytes(checks._HEADER.pack(magic, version, len(blob), payload_len, crc)
                          + blob + payload)


def edit_text(src, dst, edit):
    Path(dst).write_text(edit(Path(src).read_text(encoding="utf-8")), encoding="utf-8")


def edit_json(src, dst, edit):
    obj = json.loads(Path(src).read_text(encoding="utf-8"))
    edit(obj)
    Path(dst).write_text(json.dumps(obj), encoding="utf-8")


def declared_metrics_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    names = [w["name"] for w in spec["workloads"]]
    assert e2e == END_TO_END, "BENCHMARK.json end_to_end differs from run.py"
    assert layers == [m[:3] for m in PER_LAYER], "BENCHMARK.json per_layer differs from run.py"
    assert names == list(WORKLOADS), "BENCHMARK.json workloads differ from workloads.py"


def main():
    cli = load_program()
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = []

    def expect(name, ok_call, bad_calls):
        try:
            ok_call()
        except checks.CheckFailed as exc:
            failures.append(f"{name}: rejects the real output: {exc}")
        for what, bad in bad_calls:
            try:
                bad()
                failures.append(f"{name}: accepts {what}")
            except checks.CheckFailed as exc:
                print(f"  {name:<8} rejects {what}: {exc}")

    def run(*argv):
        rc = cli([str(a) for a in argv])
        assert rc == 0, f"{argv[0]} exited with {rc}"

    try:
        d, seed = work, 5
        run("synth", "--clusters", 2, "--per-cluster", 40, "--seed", seed, "--out", d)
        mol_ids = _molecule_inputs(d, one_hot=False)
        nodes = _rows(d / "nodes.tsv")
        (d / "candidates.tsv").write_text("".join(
            "\t".join([r[0], *r[3:]]) + "\n" for r in nodes if r[1] == "cell_morphology"))
        (d / "true_ids.txt").write_text("".join(
            b + "\n" for _a, b, _r, _w in _rows(d / "edges.tsv") if b.startswith("morph")))
        g, walks, ckpt = d / "g.ctxg", d / "walks.tsv", d / "m.iapt"
        emb, report, match, mi = d / "emb.tsv", d / "eval.json", d / "match.json", d / "mi.json"
        run("build-graph", "--nodes", d / "nodes.tsv", "--edges", d / "edges.tsv",
            "--fp-bits", 64, "--similarity-kinds", KINDS, "--keep-fraction", 0.05, "--out", g)
        run("walk", "--graph", g, "--length", 5, "--walks-per-molecule", 3, "--seed", seed,
            "--out", walks)
        run("pretrain", "--graph", g, "--latent-dim", 8, "--num-layers", 2, "--hidden", 16,
            "--decoder-hidden", 16, "--fp-bits", 64, "--batch-size", 4, "--lr", 5e-3,
            "--epochs", 3, "--seed", seed, "--out", ckpt)
        run("embed", "--checkpoint", ckpt, "--input", d / "mols.smi", "--out", emb)
        run("eval", "--embeddings", emb, "--labels", d / "labels.txt", "--seed", seed,
            "--out", report)
        run("match", "--checkpoint", ckpt, "--queries", d / "mols.smi",
            "--candidates", d / "candidates.tsv", "--true-ids", d / "true_ids.txt", "--out", match)
        run("mi-bench", "--exact", "--seed", seed, "--out", mi)
        bad = d / "bad"

        def graph_check(path):
            return lambda: checks.check_graph(path, d / "nodes.tsv", d / "edges.tsv",
                                              KINDS.split(","), keep_fraction=0.05)

        def sim_edit(fn):
            def edit(edges):
                k = next(i for i, e in enumerate(edges) if e[2] == "similarity")
                return fn(edges, k)
            return edit

        def dropped():
            rewrite_graph(g, bad, sim_edit(lambda e, k: e[:k] + e[k + 1:]))
            graph_check(bad)()

        def reweighted():
            rewrite_graph(g, bad, sim_edit(lambda e, k: e[:k] + [e[k][:3] + [e[k][3] - 1e-6]]
                                           + e[k + 1:]))
            graph_check(bad)()

        expect("graph", graph_check(g), [("a dropped similarity edge", dropped),
                                         ("a reweighted similarity edge", reweighted)])

        def off_edge():
            def edit(text):
                lines = text.splitlines()
                cols = lines[1].split("\t")
                nodes_ = cols[2].split("|")
                nodes_[2] = next(m for m in mol_ids if m != nodes_[0])  # molecules never touch
                cols[2] = "|".join(nodes_)
                return "\n".join([lines[0], "\t".join(cols), *lines[2:]]) + "\n"
            edit_text(walks, bad, edit)
            checks.check_walks(bad, g, mol_ids, 3, 5)

        expect("walks", lambda: checks.check_walks(walks, g, mol_ids, 3, 5),
               [("a step off an edge", off_edge)])

        mu = checks.gin_embeddings(ckpt, d / "mols.smi")

        def perturbed():
            rows = Path(emb).read_text().splitlines()
            cols = rows[7].split("\t")
            cols[0] = repr(float(cols[0]) + 1e-6)
            rows[7] = "\t".join(cols)
            Path(bad).write_text("\n".join(rows) + "\n")
            checks.check_embeddings(bad, mu)

        expect("embed", lambda: checks.check_embeddings(emb, mu),
               [("a perturbed embedding row", perturbed)])

        def swapped():
            def edit(obj):
                r = obj["ranks"]
                i = next(k for k in range(1, len(r)) if r[k] != r[0])
                r[0], r[i] = r[i], r[0]
            edit_json(match, bad, edit)
            checks.check_match(bad, ckpt, mu, d / "candidates.tsv", d / "true_ids.txt")

        expect("match", lambda: checks.check_match(match, ckpt, mu, d / "candidates.tsv",
                                                   d / "true_ids.txt"),
               [("two swapped ranks", swapped)])

        def shuffled():
            labels = Path(d / "labels.txt").read_text().splitlines()
            perm = np.random.default_rng(0).permutation(len(labels))
            Path(bad).write_text("\n".join(labels[i] for i in perm) + "\n")
            checks.check_probe(report, emb, bad, seed)

        expect("probe", lambda: checks.check_probe(report, emb, d / "labels.txt", seed),
               [("shuffled probe labels", shuffled)])

        def nudged():
            edit_json(mi, bad, lambda obj: obj["entries"][4].update(
                i_nce=obj["entries"][4]["i_nce"] + 1e-6))
            checks.check_mi(bad, seed)

        expect("mi", lambda: checks.check_mi(mi, seed), [("a nudged bound", nudged)])

        log = Path(f"{ckpt}.log.tsv")

        def rising():
            def edit(text):
                lines = text.splitlines()
                cols = lines[-1].split("\t")
                cols[1] = "1e9"
                return "\n".join(lines[:-1] + ["\t".join(cols)]) + "\n"
            edit_text(log, bad, edit)
            checks.check_losses(bad, 3)

        expect("losses", lambda: checks.check_losses(log, 3), [("a rising loss", rising)])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    try:
        declared_metrics_agree()
    except AssertionError as exc:
        failures.append(str(exc))
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
