"""Command-line interface.

Subcommands: build-graph, synth, walk, fingerprint, pretrain, embed, eval,
match, mi-bench. Every command accepts --config (a JSON file, also settable
via the INFOALIGN_CONFIG environment variable) and --out. A command's
settings are the keys of its `OPTIONS` entry, each both a flag
(`--key-with-dashes`) and a config key; those of synth, walk and pretrain are
the fields of `SyntheticSpec`, `WalkConfig` and `ModelConfig`. Precedence:
command-line flags > config file > built-in defaults. A config value takes
its default's type; a bool key takes only JSON true or false.

`pretrain` records the graph's fingerprint width as fp_bits, and the radius
its fingerprints were built with, if the graph records one, as fp_radius;
a given value that disagrees with the graph's is an error. `pretrain
--resume` continues the checkpoint's epochs, generators and config. It takes
epochs and lr from the flags, config or defaults and each other key that a
flag or the config gives (a beta sweep gives beta); a seed other than the
checkpoint's draws fresh generators. A given architecture key that disagrees
with the checkpoint is an error, and so is a graph whose fingerprint width or
recorded radius disagrees with the checkpoint's, or any graph other than the
one the checkpoint was trained on, by its checksum.

Primary outputs are deterministic given identical inputs and seed. Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import diffcore as dc
from . import mibounds, synth
from .ctxgraph import ContextGraph, NodeKind, build_graph_from_tables
from .errors import (CorruptFileError, InfoAlignError, LengthMismatchError, SmilesError,
                     TableFormatError)
from .evalkit import (
    LabeledSet,
    ProbeConfig,
    match_zero_shot,
    probe_eval,
    probe_train,
    split_random,
)
from .fingerprint import morgan_fingerprint
from .model import (ModelConfig, TrainState, embed, fingerprint_bits, load_checkpoint, pretrain,
                    save_checkpoint)
# `parse_smiles` is not called here: perfbench/tracer.py wraps it under this
# module's name, so a traced run needs it importable from cli.
from .molparse import MoleculeSet, parse_many, parse_smiles, read_smiles_file
from .serialize import table_rows, text_lines
from .walker import WalkConfig, batch_walks

CONFIG_ENV = "INFOALIGN_CONFIG"
# Walks whose TSV rows `walk` joins and writes at a time.
_WALK_BLOCK = 1024


def _defaults(cls, **extra) -> dict:
    return {**{f.name: f.default for f in fields(cls)}, **extra}


# Each command's settings and their defaults. Every key is a flag and a config
# key; the flag takes its default's type, where a bool gives --x/--no-x and a
# None default a string.
OPTIONS = {
    "build-graph": {"similarity_kinds": "", "threshold": 0.8, "keep_fraction": 0.005,
                    "fp_radius": 2, "fp_bits": 1024},
    "synth": _defaults(synth.SyntheticSpec),
    "walk": _defaults(WalkConfig),
    "fingerprint": {"radius": 2, "nbits": 1024},
    "pretrain": _defaults(ModelConfig, beta_sweep=None),
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
    try:
        cfg = json.loads("\n".join(line for _lineno, line in text_lines(path)))
    except json.JSONDecodeError as exc:
        raise InfoAlignError(f"{path}:{exc.lineno}: {exc.msg} (column {exc.colno})") from None
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
        if convert in (bool, str):
            if not isinstance(value, convert):
                expected = "true or false" if convert is bool else "a string"
                raise InfoAlignError(f"config key {key!r}: expected {expected}, got {value!r}")
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


def _numbers(key: str, csv: str, convert) -> list:
    """The entries of the comma-separated option `key`, each read by
    `convert` (int or float). An entry that is not one raises InfoAlignError
    naming the flag, the list and the entry."""
    values = []
    for x in csv.split(","):
        if x:
            try:
                values.append(convert(x))
            except ValueError:
                what = "an integer" if convert is int else "a number"
                raise InfoAlignError(f"--{key.replace('_', '-')} {csv!r}: "
                                     f"entry {x!r} is not {what}") from None
    return values


# --- subcommands ---------------------------------------------------------------

def cmd_build_graph(args) -> int:
    opt, _given = _resolve(args)
    kinds = [NodeKind(k) for k in opt.similarity_kinds.split(",") if k]
    g = build_graph_from_tables(args.nodes, args.edges, fp_radius=opt.fp_radius,
                                fp_bits=opt.fp_bits, similarity_kinds=kinds,
                                threshold=opt.threshold, keep_fraction=opt.keep_fraction)
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
    _write_json(Path(args.out) / "manifest.json", {
        **asdict(spec), "motifs": list(spec.motifs), "files": paths,
        "molecules": len(data.molecule_ids)})
    return 0


def cmd_walk(args) -> int:
    opt, _given = _resolve(args)
    g = ContextGraph.load(args.graph)
    starts = g.molecule_ids() if args.starts == "all" else args.starts.split(",")
    cfg = WalkConfig(**vars(opt))
    walks = batch_walks(g, starts, cfg)
    del g  # the walks hold all the text needs
    ids = np.array(walks.ids, dtype=object)[walks.nodes]
    weights, alphas = _float_texts(walks.weights), _float_texts(walks.alphas)
    per, sizes = cfg.walks_per_molecule, walks.sizes.tolist()
    # Opened only now, so a walk that fails leaves no file; the rows are
    # listed, joined and written _WALK_BLOCK walks at a time.
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("start\twalk\tnodes\tweights\talphas\ttruncated\n")
        for first in range(0, len(sizes), _WALK_BLOCK):
            rows = slice(first, first + _WALK_BLOCK)
            f.write("".join([
                "\t".join([
                    starts[i // per], str(i % per),
                    "|".join(node_ids[:n]),
                    "|".join(w[: n - 1]),
                    "|".join(a[: n - 1]),
                    "1\n" if n < cfg.length else "0\n",
                ])
                for i, n, node_ids, w, a in zip(
                    range(first, len(sizes)), sizes[rows], ids[rows].tolist(),
                    weights[rows].tolist(), alphas[rows].tolist())]))
    return 0


def _read_molecules(path) -> tuple[list, MoleculeSet]:
    """The (line number, SMILES, id) entries of a file, as `read_smiles_file`
    reads them, and the `parse_many` set of their SMILES. A SMILES that does
    not parse raises the parser's error naming the file and line, and a file
    with none raises InfoAlignError."""
    entries = read_smiles_file(path)
    if not entries:
        raise InfoAlignError(f"{path}: no molecules")
    try:
        return entries, parse_many([smi for _lineno, smi, _id in entries])
    except SmilesError as exc:
        raise type(exc)(f"{path}:{entries[exc.index][0]}: {exc}") from None


def _float_texts(x: np.ndarray) -> np.ndarray:
    """`x` as an object array of `f"{v:.12g}"` texts, each distinct value
    formatted once."""
    values, inverse = np.unique(x, return_inverse=True)
    texts = np.array([f"{v:.12g}" for v in values.tolist()], dtype=object)
    return texts[inverse.reshape(x.shape)]


def cmd_fingerprint(args) -> int:
    opt, _given = _resolve(args)
    if args.smiles:
        smiles, mols = [args.smiles], parse_many([args.smiles])
    elif args.input:
        entries, mols = _read_molecules(args.input)
        smiles = [smi for _lineno, smi, _id in entries]
    else:
        raise InfoAlignError("fingerprint needs --smiles or --input")
    fps = morgan_fingerprint(mols, opt.radius, opt.nbits)
    lines = [f"{i}\t{smi}\t{int(row.sum())}\t{np.packbits(row != 0).tobytes().hex()}"
             for i, (smi, row) in enumerate(zip(smiles, fps))]
    out = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0


# Keys that fix the model's shape; a resumed run must agree with its checkpoint.
_ARCHITECTURE = ("latent_dim", "num_layers", "hidden", "decoder_hidden", "likelihood",
                 "fp_radius", "fp_bits")


def _run_pretrain(graph, graph_path: str, opt, given: set, out: str, resume: str | None):
    """Train and write the checkpoint `out` and its log, both as each epoch
    ends: the log row, then the checkpoint of the epochs finished, so that a
    run stopped in any epoch can be resumed from the one before it. A run
    of no epochs writes its checkpoint once.

    A fresh run takes every key of `opt`; a resumed run continues the
    checkpoint and takes epochs, lr and the `given` keys, and with a seed
    other than the checkpoint's, fresh generators. A run resumed into its
    own checkpoint keeps its log's rows of the epochs that checkpoint holds.
    A fingerprint width or radius, given or the checkpoint's, that is not
    the graph's is an error, and so, after those checks, is a resume onto a
    graph whose checksum is not the one the checkpoint was trained on.
    """
    settings = {k: v for k, v in vars(opt).items() if k != "beta_sweep"}
    kept = []
    if resume:
        store, base, state = load_checkpoint(resume)
        for key in _ARCHITECTURE:
            if key in given and getattr(opt, key) != getattr(base, key):
                raise InfoAlignError(f"{key} {getattr(opt, key)!r} disagrees with "
                                     f"{getattr(base, key)!r} in the checkpoint {resume}")
        settings = {k: settings[k] for k in settings.keys() & (given | {"epochs", "lr"})}
        if Path(out).resolve() == Path(resume).resolve():
            kept = _log_rows_before(out + ".log.tsv", state.epoch)
    else:
        store, base, state = None, ModelConfig(), TrainState()
    cfg = replace(base, **settings)
    for key, of_graph, form in (("fp_bits", fingerprint_bits(graph, cfg.fp_bits), "{}-bit"),
                                ("fp_radius", graph.fp_radius, "radius-{}")):
        value = getattr(cfg, key)
        if of_graph is not None and value != of_graph and (resume or key in given):
            held = f" in the checkpoint {resume}" if resume else ""
            raise InfoAlignError(f"{key} {value}{held} disagrees with the "
                                 f"{form.format(of_graph)} molecule fingerprints of the graph "
                                 f"{graph_path}")
    if resume and state.graph != graph.checksum():
        raise InfoAlignError(f"the checkpoint {resume} was trained on the graph of checksum "
                             f"{state.graph}, not on the graph {graph_path} of checksum "
                             f"{graph.checksum()}")
    if cfg.seed != base.seed:  # fresh generators from the new seed
        state = TrainState(state.epoch)
    with _EpochLog(out + ".log.tsv", kept) as log:
        def epoch_end(epoch, br, trained):
            log(epoch, br)
            save_checkpoint(out, trained, cfg, graph, state)

        store, _logs = pretrain(graph, cfg, store=store, log_fn=epoch_end, state=state)
    if cfg.epochs == 0:
        save_checkpoint(out, store, cfg, graph, state)


def _log_rows_before(path: str, epoch: int) -> list:
    """The rows of the `.log.tsv` at `path` of the epochs below `epoch`, none
    if there is no such file. Later rows are of a run that stopped after
    writing an epoch's row and before saving that epoch's checkpoint. A row
    whose epoch is not an integer raises TableFormatError naming its line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    except FileNotFoundError:
        return []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        field = line.split("\t", 1)[0]
        try:
            if int(field) < epoch:
                rows.append(line)
        except ValueError:
            raise TableFormatError(f"{path}:{lineno}: epoch {field.strip()!r} is not an "
                                   f"integer") from None
    return rows


class _EpochLog:
    """A pretrain run's `.log.tsv`: a header, the `kept` rows of earlier runs,
    then one row per epoch, numbered over resumes and flushed as its epoch
    ends, so a killed or diverging run keeps the rows of the epochs it
    finished. The file is made with the first row, or on a clean exit that
    logged none, so a run that fails before an epoch ends leaves no file, or
    the file it found."""

    def __init__(self, path: str, kept=()):
        self.path = path
        self._kept = kept
        self._file = None

    def _open(self):
        self._file = open(self.path, "w", encoding="utf-8")
        self._file.write("epoch\ttotal\tkl\tbeta\trecon\n")
        self._file.writelines(self._kept)

    def __call__(self, epoch: int, br):
        if self._file is None:
            self._open()
        recon = ";".join(f"{k}={v:.8g}" for k, v in sorted(br.recon_per_modality.items()))
        self._file.write(f"{epoch}\t{br.total:.8g}\t{br.kl:.8g}\t{br.beta:.8g}\t{recon}\n")
        self._file.flush()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_exc):
        if self._file is None and exc_type is None:
            self._open()
        if self._file is not None:
            self._file.close()


def cmd_pretrain(args) -> int:
    opt, given = _resolve(args)
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        raise InfoAlignError(f"--out {args.out}: directory {out_dir} does not exist")
    if opt.beta_sweep is not None and not isinstance(opt.beta_sweep, str):
        raise InfoAlignError(f"config key 'beta_sweep': expected a comma-separated string, "
                             f"got {opt.beta_sweep!r}")
    betas = None if opt.beta_sweep is None else _numbers("beta_sweep", opt.beta_sweep, float)
    if betas == []:
        raise InfoAlignError(f"--beta-sweep {opt.beta_sweep!r} lists no value")
    runs = {}  # checkpoint -> beta
    for beta in betas or ():
        out = f"{args.out}.beta{beta:g}"
        if out in runs:
            raise InfoAlignError(f"--beta-sweep {opt.beta_sweep!r}: betas {runs[out]!r} and "
                                 f"{beta!r} would both write {out}")
        runs[out] = beta
    graph = ContextGraph.load(args.graph)
    try:
        graph.molecules()
    except SmilesError as exc:
        raise CorruptFileError(f"{args.graph}: {exc}") from None
    if runs:
        for out, beta in runs.items():
            opt.beta = beta
            _run_pretrain(graph, args.graph, opt, given | {"beta"}, out, args.resume)
    else:
        _run_pretrain(graph, args.graph, opt, given, args.out, args.resume)
    return 0


def cmd_embed(args) -> int:
    store = load_checkpoint(args.checkpoint)[0]
    entries, mols = _read_molecules(args.input)
    named = _have_ids(args.input, [e[0] for e in entries], [e[2] for e in entries])
    # Rows start with their ids only when every line has one; `eval` would
    # read an id that reads as a number as one more value.
    for lineno, _smi, nid in entries if named else ():
        try:
            float(nid)
        except ValueError:
            continue
        raise InfoAlignError(f"{args.input}:{lineno}: the id {nid!r} reads as a number, so the "
                             f"embeddings could not be read back with their ids")
    lines = ["\t".join(f"{v:.12g}" for v in row) for row in embed(store, mols)]
    if named:
        lines = [f"{e[2]}\t{line}" for e, line in zip(entries, lines)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _have_ids(path, lines, ids) -> bool:
    """True if every row of the file `path` has an id, False if none has,
    `ids` being each row's id or None and `lines` its line number. A row
    that differs from the first raises TableFormatError naming its line."""
    for lineno, nid in zip(lines, ids):
        if (nid is None) != (ids[0] is None):
            has = "no id" if nid is None else f"the id {nid!r}"
            raise TableFormatError(f"{path}:{lineno}: {has}, but line {lines[0]} "
                                   f"{'has one' if nid is None else 'has none'}")
    return ids[0] is not None


def _read_matrix_tsv(path):
    """Each row's id (None if it has none), the rows of floats as a matrix,
    and each row's line number; a non-numeric first column is treated as an
    id column.

    A table with no rows, a row with no values, a value that is not a finite
    number, rows of different lengths, or a row that differs from the first
    in having an id raise TableFormatError naming the file (and the line).
    """
    ids, rows, lines = [], [], []
    first = None  # (line number, value count) of the first row
    for lineno, cols in table_rows(path):
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
        lines.append(lineno)
    if not rows:
        raise TableFormatError(f"{path}: no data rows")
    _have_ids(path, lines, ids)
    return ids, np.array(rows, dtype=np.float64), lines


def _row_of_id(path, ids, lines) -> dict:
    """{id: row} of a table's rows; an id given twice raises TableFormatError
    naming the file and both lines."""
    rows = {}
    for k, nid in enumerate(ids):
        if rows.setdefault(nid, k) != k:
            raise TableFormatError(f"{path}:{lines[k]}: id {nid!r} is given again, "
                                   f"after line {lines[rows[nid]]}")
    return rows


def _joined_on_ids(emb_path, emb_ids, emb_lines, label_path, label_ids, label_lines) -> list:
    """The label row of each embedding row, matched by id. An id given twice
    in a table, or given in one table and not the other, raises
    TableFormatError naming the file and the line."""
    emb_rows = _row_of_id(emb_path, emb_ids, emb_lines)
    label_rows = _row_of_id(label_path, label_ids, label_lines)
    for path, lines, rows, other, other_rows in (
            (emb_path, emb_lines, emb_rows, label_path, label_rows),
            (label_path, label_lines, label_rows, emb_path, emb_rows)):
        for nid, k in rows.items():
            if nid not in other_rows:
                raise TableFormatError(f"{path}:{lines[k]}: id {nid!r} has no row in {other}")
    return [label_rows[nid] for nid in emb_ids]


def _refuse_numbered_rows(path, labels: np.ndarray, lines) -> None:
    """TableFormatError, naming the file and its first row, if a label
    table of two or more columns and three or more rows starts with a column
    that counts k, k + 1, ... down its rows, k being 0 or 1: an id column
    whose ids read as numbers, which would be read as one more task."""
    first = labels[:, 0]
    if (labels.shape[1] >= 2 and len(first) >= 3 and first[0] in (0, 1)
            and np.array_equal(first, first[0] + np.arange(len(first)))):
        raise TableFormatError(f"{path}:{lines[0]}: the first column counts the rows "
                               f"{first[0]:g} to {first[-1]:g}, as an id column does; "
                               f"ids must not read as numbers, so give each row an id "
                               f"such as m{first[0]:g}, or drop the column")


def cmd_eval(args) -> int:
    opt, _given = _resolve(args)
    ids, emb, lines = _read_matrix_tsv(args.embeddings)
    label_ids, labels, label_lines = _read_matrix_tsv(args.labels)
    if label_ids[0] is None:
        _refuse_numbered_rows(args.labels, labels, label_lines)
    if ids[0] is not None and label_ids[0] is not None:
        labels = labels[_joined_on_ids(args.embeddings, ids, lines,
                                       args.labels, label_ids, label_lines)]
    elif len(labels) != len(emb):
        raise LengthMismatchError(f"{args.labels}: {len(labels)} label rows for {len(emb)} "
                                  f"embeddings in {args.embeddings}")
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
    store, cfg, _state = load_checkpoint(args.checkpoint)
    queries = _read_molecules(args.queries)[1]
    cand_ids, cand, _lines = _read_matrix_tsv(args.candidates)
    if cand_ids[0] is None:
        raise InfoAlignError(f"{args.candidates}: candidate table needs an id column")
    true_lines = [(n, line.strip()) for n, line in text_lines(args.true_ids) if line.strip()]
    known = set(cand_ids)
    for lineno, tid in true_lines:
        if tid not in known:
            raise InfoAlignError(f"{args.true_ids}:{lineno}: true id {tid!r} is not a "
                                 f"candidate id in {args.candidates}")
    true_ids = [tid for _n, tid in true_lines]
    res = match_zero_shot(store, queries, cand, cand_ids, true_ids,
                          k_list=_numbers("k", opt.k, int), likelihood=cfg.likelihood)
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
    for key in ("nz", "ny"):
        if getattr(opt, key) < 1:
            raise InfoAlignError(f"{key} must be >= 1, got {getattr(opt, key)}")
    rng = dc.seeded_rng(opt.seed)
    joints = [mibounds.random_joint(rng, opt.nz, opt.ny)
              for _ in range(opt.num_joints)]
    critic_rng = rng if opt.random_critic else None
    report = mibounds.prop1_report(joints, _numbers("k", opt.k, int), tol=opt.tol,
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
