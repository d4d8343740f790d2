"""Command-line interface.

Subcommands: build-graph, synth, walk, fingerprint, pretrain, embed, eval,
match, mi-bench. Every command accepts --config (a JSON file, also settable
via the INFOALIGN_CONFIG environment variable) and --out. A command's
settings are the keys of its `OPTIONS` entry, each both a flag
(`--key-with-dashes`) and a config key; the commands that draw random numbers
(synth, walk, pretrain, eval, mi-bench) have a `seed`. Precedence:
command-line flags > config file > built-in defaults. A config value takes
its default's type; a bool key takes only JSON true or false.

`pretrain --resume` starts from the checkpoint's config. It takes epochs and
lr from the flags, config or defaults, applies each other training key that
a flag or the config gives (beta, batch_size, seed, walk_length,
walks_per_molecule, uniform; a beta sweep gives beta), and keeps the
checkpoint's value of every key not given. A given architecture key that
disagrees with the checkpoint is an error.

Primary outputs are deterministic given identical inputs and seed. Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import diffcore as dc
from . import mibounds, synth
from .ctxgraph import ContextGraph, NodeKind, build_graph_from_tables
from .errors import InfoAlignError, LengthMismatchError, SmilesError, TableFormatError
from .evalkit import (
    LabeledSet,
    ProbeConfig,
    match_zero_shot,
    probe_eval,
    probe_train,
    split_random,
)
from .fingerprint import morgan_fingerprint
from .model import ModelConfig, embed, load_checkpoint, pretrain, save_checkpoint
from .molparse import parse_smiles, read_smiles_file
from .walker import WalkConfig, batch_walks

CONFIG_ENV = "INFOALIGN_CONFIG"

# Each command's settings and their defaults. Every key is a flag and a config
# key; the flag takes its default's type, where a bool gives --x/--no-x and a
# None default a string.
OPTIONS = {
    "build-graph": {"similarity_kinds": "", "threshold": 0.8, "keep_fraction": 0.005,
                    "fp_radius": 2, "fp_bits": 1024},
    "synth": {"seed": 0, "clusters": 2, "per_cluster": 100, "noise": 0.1,
              "morph_dim": 16, "gexp_dim": 16, "motifs": None,
              "decoration_min": 3, "decoration_max": 10},
    "walk": {"seed": 0, "length": 4, "walks_per_molecule": 2, "uniform": False},
    "fingerprint": {"radius": 2, "nbits": 1024},
    "pretrain": {"seed": 0, "latent_dim": 64, "num_layers": 3, "hidden": 128,
                 "decoder_hidden": 64, "beta": 1e-9, "beta_sweep": None,
                 "likelihood": "bernoulli", "fp_radius": 2, "fp_bits": 1024,
                 "epochs": 10, "batch_size": 32, "lr": 1e-3,
                 "walk_length": 4, "walks_per_molecule": 2, "uniform": False},
    "embed": {},
    "eval": {"seed": 0, "task_types": "classification", "probe_hidden": 0,
             "probe_epochs": 200, "probe_lr": 0.05},
    "match": {"k": "1,10"},
    "mi-bench": {"seed": 0, "num_joints": 20, "nz": 4, "ny": 4, "k": "2,8,32",
                 "tol": 1e-9, "exact": True, "random_critic": False},
}

# Flag arguments that differ from the rule above. `--exact` has no --no-exact:
# exact mode is the only mode.
_FLAG_ARGS = {
    "beta_sweep": {"help": "comma-separated beta values"},
    "likelihood": {"choices": ["bernoulli", "gaussian"]},
    "task_types": {"help": "comma-separated: classification|regression per task"},
    "exact": {"action": "store_true", "default": None,
              "help": "exact-mode verification, the only mode (the default)"},
}


def _load_config_file(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise InfoAlignError(f"config file {path!r} must contain a JSON object")
    return cfg


def _resolve(args) -> tuple[SimpleNamespace, set]:
    """The values of `OPTIONS[args.command]`: flags > config file > defaults.

    Returns the values and the set of keys that a flag or the config gave.
    A given value takes its default's type: a string key takes only a
    string, an int key an integer, an integral number or a string of one, a
    float key a number or a string of one, a bool key only true or false,
    and a key whose default is None is taken as it is, for the command
    reading it to check.
    """
    options = OPTIONS[args.command]
    flags = {k: v for k, v in vars(args).items() if v is not None}
    given = {k: v for k, v in {**_load_config_file(args), **flags}.items() if k in options}
    values = dict(options)
    for key, value in given.items():
        convert = type(options[key])
        if convert is bool:
            if not isinstance(value, bool):
                raise InfoAlignError(f"config key {key!r}: expected true or false, "
                                     f"got {value!r}")
        elif convert is str:
            if not isinstance(value, str):
                raise InfoAlignError(f"config key {key!r}: expected a string, got {value!r}")
        elif convert in (int, float):
            if isinstance(value, bool) or (convert is int and isinstance(value, float)
                                           and not value.is_integer()):
                expected = "an integer" if convert is int else "a number"
                raise InfoAlignError(f"config key {key!r}: expected {expected}, got {value!r}")
            try:
                value = convert(value)
            except (TypeError, ValueError, OverflowError):
                raise InfoAlignError(f"config key {key!r}: cannot convert {value!r} "
                                     f"to {convert.__name__}") from None
        values[key] = value
    return SimpleNamespace(**values), set(given)


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _floats(csv: str):
    return [float(x) for x in csv.split(",") if x]


def _ints(csv: str):
    return [int(x) for x in csv.split(",") if x]


# --- subcommands ---------------------------------------------------------------

def cmd_build_graph(args) -> int:
    opt, _given = _resolve(args)
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
    opt, _given = _resolve(args)
    motifs = opt.motifs.split(",") if isinstance(opt.motifs, str) else opt.motifs
    if motifs is not None and not (isinstance(motifs, list)
                                   and all(isinstance(m, str) for m in motifs)):
        raise InfoAlignError(f"config key 'motifs': expected a string or a list of strings, "
                             f"got {opt.motifs!r}")
    spec = synth.SyntheticSpec(**{**vars(opt), "motifs": motifs})
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
    opt, _given = _resolve(args)
    g = ContextGraph.load(args.graph)
    starts = g.molecule_ids() if args.starts == "all" else args.starts.split(",")
    cfg = WalkConfig(
        length=opt.length, walks_per_molecule=opt.walks_per_molecule,
        seed=opt.seed, weight_proportional=not opt.uniform,
    )
    walks = batch_walks(g, starts, cfg)
    ids = np.array(walks.ids, dtype=object)[walks.nodes].tolist()
    weights, alphas = _float_texts(walks.weights), _float_texts(walks.alphas)
    lines = ["start\twalk\tnodes\tweights\talphas\ttruncated"]
    per = cfg.walks_per_molecule
    for i, n in enumerate(walks.sizes.tolist()):
        lines.append("\t".join([
            starts[i // per], str(i % per),
            "|".join(ids[i][:n]),
            "|".join(weights[i][: n - 1]),
            "|".join(alphas[i][: n - 1]),
            "1" if n < cfg.length else "0",
        ]))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _read_molecules(path) -> list:
    """(SMILES, graph) for each SMILES of a file, as `read_smiles_file` reads
    them. A SMILES that does not parse raises the parser's error naming the
    file and line, and a file with none raises InfoAlignError."""
    out = []
    for lineno, smiles in read_smiles_file(path):
        try:
            out.append((smiles, parse_smiles(smiles)))
        except SmilesError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    if not out:
        raise InfoAlignError(f"{path}: no molecules")
    return out


def _float_texts(x: np.ndarray) -> list:
    """The rows of `x` as lists of `f"{v:.12g}"` texts, each distinct value
    formatted once."""
    values, inverse = np.unique(x, return_inverse=True)
    texts = np.array([f"{v:.12g}" for v in values.tolist()], dtype=object)
    return texts[inverse.reshape(x.shape)].tolist()


def cmd_fingerprint(args) -> int:
    opt, _given = _resolve(args)
    if args.smiles:
        entries = [(args.smiles, parse_smiles(args.smiles))]
    elif args.input:
        entries = _read_molecules(args.input)
    else:
        raise InfoAlignError("fingerprint needs --smiles or --input")
    lines = []
    for i, (smi, mol) in enumerate(entries):
        fp = morgan_fingerprint(mol, opt.radius, opt.nbits)
        lines.append(f"{i}\t{smi}\t{fp.count()}\t{fp.to_hex()}")
    out = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0


# Keys that fix the model's shape; a resumed run must agree with its checkpoint.
_ARCHITECTURE = ("latent_dim", "num_layers", "hidden", "decoder_hidden", "likelihood",
                 "fp_radius", "fp_bits")
_MODEL_KEYS = {f.name for f in fields(ModelConfig)} - {"walk"}
_WALK_KEYS = {"walk_length": "length", "walks_per_molecule": "walks_per_molecule",
              "seed": "seed"}


def _model_config(base: ModelConfig, opt, keys) -> ModelConfig:
    """`base` with the `pretrain` values of `keys` applied; `seed` seeds the walks too."""
    model = {k: getattr(opt, k) for k in keys if k in _MODEL_KEYS}
    walk = {field: getattr(opt, k) for k, field in _WALK_KEYS.items() if k in keys}
    if "uniform" in keys:
        walk["weight_proportional"] = not opt.uniform
    return replace(base, walk=replace(base.walk, **walk), **model)


def _run_pretrain(graph, opt, given: set, out: str, resume: str | None):
    """Train and write the checkpoint `out` and its log.

    A fresh run takes every key of `opt`; a resumed run starts from the
    checkpoint's config and takes epochs, lr and the `given` keys.
    """
    if resume:
        store, base = load_checkpoint(resume)
        for key in _ARCHITECTURE:
            if key in given and getattr(opt, key) != getattr(base, key):
                raise InfoAlignError(f"{key} {getattr(opt, key)!r} disagrees with "
                                     f"{getattr(base, key)!r} in the checkpoint {resume}")
        keys = given | {"epochs", "lr"}
    else:
        store, base, keys = None, ModelConfig(), OPTIONS["pretrain"]
    cfg = _model_config(base, opt, keys)
    rows = ["epoch\ttotal\tkl\tbeta\trecon"]
    store, logs = pretrain(graph, cfg, store=store)
    for e, br in enumerate(logs):
        recon = ";".join(f"{k}={v:.8g}" for k, v in sorted(br.recon_per_modality.items()))
        rows.append(f"{e}\t{br.total:.8g}\t{br.kl:.8g}\t{br.beta:.8g}\t{recon}")
    save_checkpoint(out, store, cfg, graph)
    Path(out + ".log.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def cmd_pretrain(args) -> int:
    opt, given = _resolve(args)
    if opt.beta_sweep is not None and not isinstance(opt.beta_sweep, str):
        raise InfoAlignError(f"config key 'beta_sweep': expected a comma-separated string, "
                             f"got {opt.beta_sweep!r}")
    graph = ContextGraph.load(args.graph)
    if opt.beta_sweep:
        for beta in _floats(opt.beta_sweep):
            opt.beta = beta
            _run_pretrain(graph, opt, given | {"beta"}, f"{args.out}.beta{beta:g}",
                          args.resume)
    else:
        _run_pretrain(graph, opt, given, args.out, args.resume)
    return 0


def cmd_embed(args) -> int:
    store, _cfg = load_checkpoint(args.checkpoint)
    z = embed(store, [mol for _smi, mol in _read_molecules(args.input)])
    lines = ["\t".join(f"{v:.12g}" for v in row) for row in z]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _read_matrix_tsv(path):
    """Rows of floats; a non-numeric first column is treated as an id column.

    A table with no rows, a row with no values, a value that is not a finite
    number, or rows of different lengths raise TableFormatError naming the
    file (and the line).
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
            if not cols:
                raise TableFormatError(f"{path}:{lineno}: no values")
            try:
                row = [float(c) for c in cols]
            except ValueError:
                raise TableFormatError(f"{path}:{lineno}: malformed value") from None
            if not all(map(math.isfinite, row)):
                raise TableFormatError(f"{path}:{lineno}: non-finite value")
            if first is None:
                first = (lineno, len(row))
            elif len(row) != first[1]:
                raise TableFormatError(f"{path}:{lineno}: {len(row)} values, "
                                       f"but line {first[0]} has {first[1]}")
            rows.append(row)
    if not rows:
        raise TableFormatError(f"{path}: no data rows")
    return ids, np.array(rows, dtype=np.float64)


def cmd_eval(args) -> int:
    opt, _given = _resolve(args)
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
    opt, _given = _resolve(args)
    store, _cfg = load_checkpoint(args.checkpoint)
    queries = [mol for _smi, mol in _read_molecules(args.queries)]
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
        "ranks": res["ranks"],
    }
    _write_json(args.out, report)
    return 0


def cmd_mi_bench(args) -> int:
    opt, _given = _resolve(args)
    if not opt.exact:
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

def _add_options(p, command: str):
    p.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV})")
    for key, default in OPTIONS[command].items():
        if isinstance(default, bool):
            kwargs = {"action": argparse.BooleanOptionalAction}
        elif isinstance(default, (int, float)):
            kwargs = {"type": type(default)}
        else:
            kwargs = {}
        p.add_argument("--" + key.replace("_", "-"), **{**kwargs, **_FLAG_ARGS.get(key, {})})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="infoalign",
                                 description="Cellular-context molecular pretraining toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, help=summary)
        _add_options(p, name)
        p.set_defaults(fn=fn)
        return p

    p = command("build-graph", cmd_build_graph,
                "build and persist a context graph from TSV tables")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats")

    p = command("synth", cmd_synth, "generate planted-cluster node/edge/label tables")
    p.add_argument("--out", required=True, help="output directory")

    p = command("walk", cmd_walk, "sample weighted random walks from molecule nodes")
    p.add_argument("--graph", required=True)
    p.add_argument("--starts", default="all", help='comma-separated node ids or "all"')
    p.add_argument("--out", required=True)

    p = command("fingerprint", cmd_fingerprint, "Morgan fingerprints for SMILES inputs")
    p.add_argument("--smiles")
    p.add_argument("--input", help="file with one SMILES per line")
    p.add_argument("--out")

    p = command("pretrain", cmd_pretrain, "pretrain the encoder on a context graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", help="checkpoint to continue from")

    p = command("embed", cmd_embed, "posterior-mean embeddings for SMILES inputs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = command("eval", cmd_eval, "probe frozen embeddings against labels")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)

    p = command("match", cmd_match, "zero-shot molecule-to-morphology matching")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", required=True, help="SMILES file, one per line")
    p.add_argument("--candidates", required=True, help="TSV: id then features")
    p.add_argument("--true-ids", required=True,
                   help="file with one true candidate id per query")
    p.add_argument("--out", required=True)

    p = command("mi-bench", cmd_mi_bench, "verify the mutual-information bound hierarchy")
    p.add_argument("--out", required=True)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InfoAlignError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
