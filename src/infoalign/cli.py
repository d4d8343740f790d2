"""Command-line interface.

Subcommands: build-graph, synth, walk, fingerprint, pretrain, embed, eval,
match, mi-bench. Every command accepts --config (a JSON file, also settable
via the INFOALIGN_CONFIG environment variable) and --out; the commands that
draw random numbers (synth, walk, pretrain, eval, mi-bench) accept --seed.
Precedence: command-line flags > config file > built-in defaults. Primary
outputs are deterministic given identical inputs and seed. Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import diffcore as dc
from . import mibounds, synth
from .ctxgraph import ContextGraph, NodeKind, build_graph_from_tables
from .errors import InfoAlignError, LengthMismatchError, TableFormatError
from .evalkit import (
    LabeledSet,
    ProbeConfig,
    match_zero_shot,
    probe_eval,
    probe_train,
    split_random,
)
from .fingerprint import morgan_fingerprint
from .model import (
    ModelConfig,
    WalkConfig,
    embed,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .molparse import parse_smiles, read_smiles_file
from .walker import batch_walks

CONFIG_ENV = "INFOALIGN_CONFIG"


def _load_config_file(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InfoAlignError(f"config file {path!r} must contain a JSON object")
    return cfg


def _resolve(args, defaults: dict) -> SimpleNamespace:
    """flags > config file > defaults, for the keys listed in `defaults`.

    Each value is converted to the type of its default (int, float or str),
    except that a list or dict is never taken as a string; bools and keys
    whose default is None are taken as they are, and the commands reading
    the latter check their type.
    """
    cfg = _load_config_file(args)
    merged = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        value = flag if flag is not None else cfg.get(key, default)
        convert = type(default)
        if convert is str and isinstance(value, (list, dict)):
            raise InfoAlignError(f"config key {key!r}: expected a string, got {value!r}")
        if convert in (int, float, str):
            try:
                value = convert(value)
            except (TypeError, ValueError):
                raise InfoAlignError(f"config key {key!r}: cannot convert {value!r} "
                                     f"to {convert.__name__}") from None
        merged[key] = value
    return SimpleNamespace(**merged)


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _floats(csv: str):
    return [float(x) for x in csv.split(",") if x]


def _ints(csv: str):
    return [int(x) for x in csv.split(",") if x]


# --- subcommands ---------------------------------------------------------------

def cmd_build_graph(args) -> int:
    opt = _resolve(args, {
        "threshold": 0.8, "keep_fraction": 0.005,
        "fp_radius": 2, "fp_bits": 1024, "similarity_kinds": "",
    })
    kinds = [NodeKind(k) for k in opt.similarity_kinds.split(",") if k]
    g = build_graph_from_tables(
        args.nodes, args.edges,
        fp_radius=opt.fp_radius, fp_bits=opt.fp_bits,
        similarity_kinds=kinds,
        threshold=opt.threshold, keep_fraction=opt.keep_fraction,
    )
    g.save(args.out)
    stats = g.stats()
    stats["checksum"] = g.checksum()
    _write_json(args.stats or (args.out + ".stats.json"), stats)
    return 0


def cmd_synth(args) -> int:
    opt = _resolve(args, {
        "clusters": 2, "per_cluster": 100, "noise": 0.1,
        "morph_dim": 16, "gexp_dim": 16, "seed": 0, "motifs": None,
        "decoration_min": 3, "decoration_max": 10,
    })
    motifs = opt.motifs.split(",") if isinstance(opt.motifs, str) else opt.motifs
    if motifs is not None and not (isinstance(motifs, list)
                                   and all(isinstance(m, str) for m in motifs)):
        raise InfoAlignError(f"config key 'motifs': expected a string or a list of strings, "
                             f"got {opt.motifs!r}")
    spec = synth.SyntheticSpec(
        clusters=opt.clusters, per_cluster=opt.per_cluster,
        noise=opt.noise, morph_dim=opt.morph_dim,
        gexp_dim=opt.gexp_dim, seed=opt.seed, motifs=motifs,
        decoration_min=opt.decoration_min,
        decoration_max=opt.decoration_max,
    )
    data = synth.generate(spec)
    paths = synth.write_tables(data, args.out)
    manifest = {
        "clusters": spec.clusters, "per_cluster": spec.per_cluster,
        "noise": spec.noise, "morph_dim": spec.morph_dim,
        "gexp_dim": spec.gexp_dim, "seed": spec.seed,
        "motifs": list(spec.motifs), "files": paths,
        "molecules": len(data.molecule_ids),
    }
    _write_json(Path(args.out) / "manifest.json", manifest)
    return 0


def cmd_walk(args) -> int:
    opt = _resolve(args, {
        "length": 4, "walks_per_molecule": 2, "seed": 0, "uniform": False,
    })
    g = ContextGraph.load(args.graph)
    starts = g.molecule_ids() if args.starts == "all" else args.starts.split(",")
    cfg = WalkConfig(
        length=opt.length, walks_per_molecule=opt.walks_per_molecule,
        seed=opt.seed, weight_proportional=not opt.uniform,
    )
    walks = batch_walks(g, starts, cfg)
    lines = ["start\twalk\tnodes\tweights\talphas\ttruncated"]
    per = cfg.walks_per_molecule
    for i, w in enumerate(walks):
        lines.append("\t".join([
            starts[i // per], str(i % per),
            "|".join(w.nodes),
            "|".join(f"{x:.12g}" for x in w.edge_weights),
            "|".join(f"{x:.12g}" for x in w.alphas),
            "1" if w.truncated else "0",
        ]))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def cmd_fingerprint(args) -> int:
    opt = _resolve(args, {"radius": 2, "nbits": 1024})
    if args.smiles:
        entries = [args.smiles]
    elif args.input:
        entries = read_smiles_file(args.input)
    else:
        raise InfoAlignError("fingerprint needs --smiles or --input")
    lines = []
    for i, smi in enumerate(entries):
        fp = morgan_fingerprint(parse_smiles(smi), opt.radius, opt.nbits)
        lines.append(f"{i}\t{smi}\t{fp.count()}\t{fp.to_hex()}")
    out = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0


def _model_config(opt) -> ModelConfig:
    return ModelConfig(
        latent_dim=opt.latent_dim, num_layers=opt.num_layers,
        hidden=opt.hidden, decoder_hidden=opt.decoder_hidden,
        beta=opt.beta, likelihood=opt.likelihood,
        fp_radius=opt.fp_radius, fp_bits=opt.fp_bits,
        epochs=opt.epochs, batch_size=opt.batch_size,
        lr=opt.lr, seed=opt.seed,
        walk=WalkConfig(
            length=opt.walk_length,
            walks_per_molecule=opt.walks_per_molecule,
            seed=opt.seed,
            weight_proportional=not opt.uniform,
        ),
    )


_PRETRAIN_DEFAULTS = {
    "latent_dim": 64, "num_layers": 3, "hidden": 128, "decoder_hidden": 64,
    "beta": 1e-9, "likelihood": "bernoulli", "fp_radius": 2, "fp_bits": 1024,
    "epochs": 10, "batch_size": 32, "lr": 1e-3, "seed": 0,
    "walk_length": 4, "walks_per_molecule": 2, "uniform": False,
    "beta_sweep": None,
}


def _run_pretrain(graph, cfg: ModelConfig, out: str, resume: str | None):
    store = None
    if resume:
        store, cfg_loaded = load_checkpoint(resume)
        cfg_loaded.epochs = cfg.epochs
        cfg_loaded.lr = cfg.lr
        cfg = cfg_loaded
    rows = ["epoch\ttotal\tkl\tbeta\trecon"]
    store, logs = pretrain(graph, cfg, store=store)
    for e, br in enumerate(logs):
        recon = ";".join(f"{k}={v:.8g}" for k, v in sorted(br.recon_per_modality.items()))
        rows.append(f"{e}\t{br.total:.8g}\t{br.kl:.8g}\t{br.beta:.8g}\t{recon}")
    save_checkpoint(out, store, cfg, graph)
    Path(out + ".log.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def cmd_pretrain(args) -> int:
    opt = _resolve(args, _PRETRAIN_DEFAULTS)
    if opt.beta_sweep is not None and not isinstance(opt.beta_sweep, str):
        raise InfoAlignError(f"config key 'beta_sweep': expected a comma-separated string, "
                             f"got {opt.beta_sweep!r}")
    graph = ContextGraph.load(args.graph)
    if opt.beta_sweep:
        for beta in _floats(opt.beta_sweep):
            opt.beta = beta
            _run_pretrain(graph, _model_config(opt), f"{args.out}.beta{beta:g}", args.resume)
    else:
        _run_pretrain(graph, _model_config(opt), args.out, args.resume)
    return 0


def cmd_embed(args) -> int:
    store, _cfg = load_checkpoint(args.checkpoint)
    mols = [parse_smiles(s) for s in read_smiles_file(args.input)]
    if not mols:
        raise InfoAlignError(f"{args.input}: no molecules")
    z = embed(store, mols)
    lines = ["\t".join(f"{v:.12g}" for v in row) for row in z]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _read_matrix_tsv(path):
    """Rows of floats; a non-numeric first column is treated as an id column.

    A table with no rows, with rows of different lengths, or with a value
    that is not finite raises TableFormatError naming the file (and the line).
    """
    ids, rows = [], []
    first = None  # (line number, value count) of the first row
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            try:
                float(cols[0])
                ids.append(None)
            except ValueError:
                ids.append(cols[0])
                cols = cols[1:]
            row = [float(c) for c in cols]
            if not all(map(math.isfinite, row)):
                raise TableFormatError(f"{path} line {lineno}: non-finite value")
            if first is None:
                first = (lineno, len(row))
            elif len(row) != first[1]:
                raise TableFormatError(f"{path} line {lineno}: {len(row)} values, "
                                       f"but line {first[0]} has {first[1]}")
            rows.append(row)
    if not rows:
        raise TableFormatError(f"{path}: no data rows")
    return ids, np.array(rows, dtype=np.float64)


def cmd_eval(args) -> int:
    opt = _resolve(args, {
        "seed": 0, "probe_hidden": 0, "probe_epochs": 200, "probe_lr": 0.05,
        "task_types": "classification",
    })
    _ids, emb = _read_matrix_tsv(args.embeddings)
    _lids, labels = _read_matrix_tsv(args.labels)
    if len(labels) != len(emb):
        raise LengthMismatchError(f"{len(labels)} label rows for {len(emb)} embeddings")
    task_types = [t.strip() for t in opt.task_types.split(",")]
    if len(task_types) == 1 and labels.shape[1] > 1:
        task_types = task_types * labels.shape[1]
    tr, va, te = split_random(len(emb), seed=opt.seed)
    head = probe_train(
        LabeledSet(emb[tr], labels[tr], task_types),
        ProbeConfig(hidden=opt.probe_hidden, epochs=opt.probe_epochs,
                    lr=opt.probe_lr, seed=opt.seed),
    )
    report = {
        "train_size": len(tr), "valid_size": len(va), "test_size": len(te),
        "valid": probe_eval(head, LabeledSet(emb[va], labels[va], task_types)),
        "test": probe_eval(head, LabeledSet(emb[te], labels[te], task_types)),
    }
    _write_json(args.out, report)
    return 0


def cmd_match(args) -> int:
    opt = _resolve(args, {"k": "1,10"})
    store, _cfg = load_checkpoint(args.checkpoint)
    queries = [parse_smiles(s) for s in read_smiles_file(args.queries)]
    if not queries:
        raise InfoAlignError(f"{args.queries}: no molecules")
    cand_ids, cand = _read_matrix_tsv(args.candidates)
    if any(i is None for i in cand_ids):
        raise InfoAlignError("candidate table needs an id column")
    true_ids = [l.strip() for l in Path(args.true_ids).read_text(encoding="utf-8").splitlines()
                if l.strip()]
    res = match_zero_shot(store, queries, cand, cand_ids, true_ids,
                          k_list=_ints(opt.k))
    report = {
        "ndcg": {str(k): v for k, v in res["ndcg"].items()},
        "hit": {str(k): v for k, v in res["hit"].items()},
        "ranks": [r.true_rank for r in res["results"]],
    }
    _write_json(args.out, report)
    return 0


def cmd_mi_bench(args) -> int:
    opt = _resolve(args, {
        "num_joints": 20, "nz": 4, "ny": 4, "k": "2,8,32",
        "seed": 0, "tol": 1e-9, "random_critic": False, "exact": True,
    })
    if opt.exact is False:
        raise InfoAlignError('only exact-mode verification is supported; drop "exact": false')
    rng = dc.seeded_rng(opt.seed)
    joints = [mibounds.random_joint(rng, opt.nz, opt.ny)
              for _ in range(opt.num_joints)]
    critic_rng = rng if opt.random_critic else None
    report = mibounds.prop1_report(joints, _ints(opt.k), tol=opt.tol,
                                   critic_rng=critic_rng)
    _write_json(args.out, report)
    return 0 if report["pass"] else 1


# --- parser ----------------------------------------------------------------------

def _add_common(p, seed=False):
    p.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV})")
    if seed:
        p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="infoalign",
                                 description="Cellular-context molecular pretraining toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build and persist a context graph from TSV tables")
    _add_common(p)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats")
    p.add_argument("--similarity-kinds", dest="similarity_kinds")
    p.add_argument("--threshold", type=float)
    p.add_argument("--keep-fraction", dest="keep_fraction", type=float)
    p.add_argument("--fp-radius", dest="fp_radius", type=int)
    p.add_argument("--fp-bits", dest="fp_bits", type=int)
    p.set_defaults(fn=cmd_build_graph)

    p = sub.add_parser("synth", help="generate planted-cluster node/edge/label tables")
    _add_common(p, seed=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--clusters", type=int)
    p.add_argument("--per-cluster", dest="per_cluster", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--morph-dim", dest="morph_dim", type=int)
    p.add_argument("--gexp-dim", dest="gexp_dim", type=int)
    p.add_argument("--motifs")
    p.add_argument("--decoration-min", dest="decoration_min", type=int)
    p.add_argument("--decoration-max", dest="decoration_max", type=int)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("walk", help="sample weighted random walks from molecule nodes")
    _add_common(p, seed=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--starts", default="all", help='comma-separated node ids or "all"')
    p.add_argument("--length", type=int)
    p.add_argument("--walks-per-molecule", dest="walks_per_molecule", type=int)
    p.add_argument("--uniform", action=argparse.BooleanOptionalAction)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("fingerprint", help="Morgan fingerprints for SMILES inputs")
    _add_common(p)
    p.add_argument("--smiles")
    p.add_argument("--input", help="file with one SMILES per line")
    p.add_argument("--radius", type=int)
    p.add_argument("--nbits", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fingerprint)

    p = sub.add_parser("pretrain", help="pretrain the encoder on a context graph")
    _add_common(p, seed=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--latent-dim", dest="latent_dim", type=int)
    p.add_argument("--num-layers", dest="num_layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--decoder-hidden", dest="decoder_hidden", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-sweep", dest="beta_sweep", help="comma-separated beta values")
    p.add_argument("--likelihood", choices=["bernoulli", "gaussian"])
    p.add_argument("--fp-radius", dest="fp_radius", type=int)
    p.add_argument("--fp-bits", dest="fp_bits", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--walk-length", dest="walk_length", type=int)
    p.add_argument("--walks-per-molecule", dest="walks_per_molecule", type=int)
    p.add_argument("--uniform", action=argparse.BooleanOptionalAction)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("embed", help="posterior-mean embeddings for SMILES inputs")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("eval", help="probe frozen embeddings against labels")
    _add_common(p, seed=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task-types", dest="task_types",
                   help="comma-separated: classification|regression per task")
    p.add_argument("--probe-hidden", dest="probe_hidden", type=int)
    p.add_argument("--probe-epochs", dest="probe_epochs", type=int)
    p.add_argument("--probe-lr", dest="probe_lr", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("match", help="zero-shot molecule-to-morphology matching")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", required=True, help="SMILES file, one per line")
    p.add_argument("--candidates", required=True, help="TSV: id then features")
    p.add_argument("--true-ids", dest="true_ids", required=True,
                   help="file with one true candidate id per query")
    p.add_argument("--k")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("mi-bench", help="verify the mutual-information bound hierarchy")
    _add_common(p, seed=True)
    p.add_argument("--num-joints", dest="num_joints", type=int)
    p.add_argument("--nz", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--k")
    p.add_argument("--tol", type=float)
    p.add_argument("--exact", action="store_true", default=None,
                   help="exact-mode verification, the only mode (the default)")
    p.add_argument("--random-critic", dest="random_critic",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mi_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InfoAlignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
