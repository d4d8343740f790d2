"""Tests that pin the CLI's option surface.

`PARSER_FLAGS` is the flag surface of every subcommand as it was before the
flags were generated from `cli.OPTIONS`, frozen here so that an edit to that
table cannot silently rename, retype or drop a flag. The hypothesis test
feeds every option key arbitrary JSON config values through `_resolve`.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoalign.cli import OPTIONS, _resolve, build_parser, main
from infoalign.errors import InfoAlignError

# option strings -> (dest, action, type, choices, required, default); -h omitted
PARSER_FLAGS = {
    "build-graph": {
        "--config": ("config", "Store", None, None, False, None),
        "--edges": ("edges", "Store", None, None, True, None),
        "--fp-bits": ("fp_bits", "Store", "int", None, False, None),
        "--fp-radius": ("fp_radius", "Store", "int", None, False, None),
        "--keep-fraction": ("keep_fraction", "Store", "float", None, False, None),
        "--nodes": ("nodes", "Store", None, None, True, None),
        "--out": ("out", "Store", None, None, True, None),
        "--similarity-kinds": ("similarity_kinds", "Store", None, None, False, None),
        "--stats": ("stats", "Store", None, None, False, None),
        "--threshold": ("threshold", "Store", "float", None, False, None),
    },
    "synth": {
        "--clusters": ("clusters", "Store", "int", None, False, None),
        "--config": ("config", "Store", None, None, False, None),
        "--decoration-max": ("decoration_max", "Store", "int", None, False, None),
        "--decoration-min": ("decoration_min", "Store", "int", None, False, None),
        "--gexp-dim": ("gexp_dim", "Store", "int", None, False, None),
        "--morph-dim": ("morph_dim", "Store", "int", None, False, None),
        "--motifs": ("motifs", "Store", None, None, False, None),
        "--noise": ("noise", "Store", "float", None, False, None),
        "--out": ("out", "Store", None, None, True, None),
        "--per-cluster": ("per_cluster", "Store", "int", None, False, None),
        "--seed": ("seed", "Store", "int", None, False, None),
    },
    "walk": {
        "--config": ("config", "Store", None, None, False, None),
        "--graph": ("graph", "Store", None, None, True, None),
        "--length": ("length", "Store", "int", None, False, None),
        "--out": ("out", "Store", None, None, True, None),
        "--seed": ("seed", "Store", "int", None, False, None),
        "--starts": ("starts", "Store", None, None, False, "all"),
        "--uniform --no-uniform": ("uniform", "BooleanOptional", None, None, False, None),
        "--walks-per-molecule": ("walks_per_molecule", "Store", "int", None, False, None),
    },
    "fingerprint": {
        "--config": ("config", "Store", None, None, False, None),
        "--input": ("input", "Store", None, None, False, None),
        "--nbits": ("nbits", "Store", "int", None, False, None),
        "--out": ("out", "Store", None, None, False, None),
        "--radius": ("radius", "Store", "int", None, False, None),
        "--smiles": ("smiles", "Store", None, None, False, None),
    },
    "pretrain": {
        "--batch-size": ("batch_size", "Store", "int", None, False, None),
        "--beta": ("beta", "Store", "float", None, False, None),
        "--beta-sweep": ("beta_sweep", "Store", None, None, False, None),
        "--config": ("config", "Store", None, None, False, None),
        "--decoder-hidden": ("decoder_hidden", "Store", "int", None, False, None),
        "--epochs": ("epochs", "Store", "int", None, False, None),
        "--fp-bits": ("fp_bits", "Store", "int", None, False, None),
        "--fp-radius": ("fp_radius", "Store", "int", None, False, None),
        "--graph": ("graph", "Store", None, None, True, None),
        "--hidden": ("hidden", "Store", "int", None, False, None),
        "--latent-dim": ("latent_dim", "Store", "int", None, False, None),
        "--likelihood": ("likelihood", "Store", None, ["bernoulli", "gaussian"], False, None),
        "--lr": ("lr", "Store", "float", None, False, None),
        "--num-layers": ("num_layers", "Store", "int", None, False, None),
        "--out": ("out", "Store", None, None, True, None),
        "--resume": ("resume", "Store", None, None, False, None),
        "--seed": ("seed", "Store", "int", None, False, None),
        "--uniform --no-uniform": ("uniform", "BooleanOptional", None, None, False, None),
        "--walk-length": ("walk_length", "Store", "int", None, False, None),
        "--walks-per-molecule": ("walks_per_molecule", "Store", "int", None, False, None),
    },
    "embed": {
        "--checkpoint": ("checkpoint", "Store", None, None, True, None),
        "--config": ("config", "Store", None, None, False, None),
        "--input": ("input", "Store", None, None, True, None),
        "--out": ("out", "Store", None, None, True, None),
    },
    "eval": {
        "--config": ("config", "Store", None, None, False, None),
        "--embeddings": ("embeddings", "Store", None, None, True, None),
        "--labels": ("labels", "Store", None, None, True, None),
        "--out": ("out", "Store", None, None, True, None),
        "--probe-epochs": ("probe_epochs", "Store", "int", None, False, None),
        "--probe-hidden": ("probe_hidden", "Store", "int", None, False, None),
        "--probe-lr": ("probe_lr", "Store", "float", None, False, None),
        "--seed": ("seed", "Store", "int", None, False, None),
        "--task-types": ("task_types", "Store", None, None, False, None),
    },
    "match": {
        "--candidates": ("candidates", "Store", None, None, True, None),
        "--checkpoint": ("checkpoint", "Store", None, None, True, None),
        "--config": ("config", "Store", None, None, False, None),
        "--k": ("k", "Store", None, None, False, None),
        "--out": ("out", "Store", None, None, True, None),
        "--queries": ("queries", "Store", None, None, True, None),
        "--true-ids": ("true_ids", "Store", None, None, True, None),
    },
    "mi-bench": {
        "--config": ("config", "Store", None, None, False, None),
        "--exact": ("exact", "StoreTrue", None, None, False, None),
        "--k": ("k", "Store", None, None, False, None),
        "--num-joints": ("num_joints", "Store", "int", None, False, None),
        "--ny": ("ny", "Store", "int", None, False, None),
        "--nz": ("nz", "Store", "int", None, False, None),
        "--out": ("out", "Store", None, None, True, None),
        "--random-critic --no-random-critic":
            ("random_critic", "BooleanOptional", None, None, False, None),
        "--seed": ("seed", "Store", "int", None, False, None),
        "--tol": ("tol", "Store", "float", None, False, None),
    },
}


def flag_surface():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {name: {" ".join(a.option_strings): (
                a.dest, type(a).__name__.strip("_").removesuffix("Action"),
                a.type.__name__ if a.type else None, a.choices, a.required, a.default)
                for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()}


def test_flag_surface_is_frozen():
    assert flag_surface() == PARSER_FLAGS


def test_every_option_key_is_a_flag():
    for command, options in OPTIONS.items():
        flags = {dest for dest, *_ in PARSER_FLAGS[command].values()}
        assert set(options) <= flags, command


@pytest.mark.parametrize("command", sorted(PARSER_FLAGS))
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: infoalign {command}" in capsys.readouterr().out


KEYS = [(command, key) for command, options in OPTIONS.items() for key in options]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10**400, max_value=10**400)
    | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(option=st.sampled_from(KEYS), value=JSON_VALUES)
def test_resolve_gives_default_type_or_infoalign_error(tmp_path_factory, option, value):
    """Any JSON config value comes back with its default's type (a key whose
    default is None takes it as it is) or raises InfoAlignError; nothing else.
    A string key takes only a string, an int key no fractional number, and
    a number key no bool."""
    command, key = option
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    args = SimpleNamespace(command=command, config=str(path),
                           **{k: None for k in OPTIONS[command]})
    default = OPTIONS[command][key]
    try:
        opt, given_keys = _resolve(args)
    except InfoAlignError as exc:
        assert f"config key {key!r}" in str(exc)
        return
    assert given_keys == {key}
    if default is None:
        assert json.dumps(getattr(opt, key)) == json.dumps(value)
    else:
        assert type(getattr(opt, key)) is type(default)
    if isinstance(default, str):
        assert getattr(opt, key) == value
    if type(default) is int and isinstance(value, float):
        assert getattr(opt, key) == value
    if type(default) in (int, float):
        assert not isinstance(value, bool)
    for other, other_default in OPTIONS[command].items():
        if other != key:
            assert getattr(opt, other) == other_default
