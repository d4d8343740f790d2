"""Fingerprint tests backed by a per-atom identifier oracle
(`tests/oracles.py`), an environment-counting oracle and random atom
permutations. The set-at-once hash is checked against the oracle folded to
bits, on batches that cross its chunk boundary."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoalign.fingerprint import _FP_BLOCK, morgan_fingerprint
from infoalign.molparse import MolecularGraph, parse_smiles
from tests.oracles import (FIXED_SMILES, environment_identifiers, molecule_set,
                           reference_environment_identifiers)
from tests.test_molparse import smiles_strings

# uint64 products must wrap on arrays; a product that falls onto a numpy
# scalar warns on overflow instead, which the suite's warning filter fails.


def permute_graph(g: MolecularGraph, perm) -> MolecularGraph:
    """`g` with old atom perm[k] at index k; bonds keep their order, with
    each bond's endpoints renumbered and sorted."""
    perm = np.asarray(perm, dtype=np.intp)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return MolecularGraph(g.element[perm], g.charge[perm], g.aromatic[perm], g.degree[perm],
                          np.sort(inv[g.bonds], axis=1), g.order)


def reference_bits(g: MolecularGraph, radius: int, nbits: int) -> np.ndarray:
    """The oracle's identifiers of `g` folded into an nbits float32 row."""
    row = np.zeros(nbits, dtype=np.float32)
    for ident in reference_environment_identifiers(g, radius):
        row[ident % nbits] = 1.0
    return row


def fingerprint_one(g: MolecularGraph, radius: int = 2, nbits: int = 1024) -> np.ndarray:
    return morgan_fingerprint(molecule_set([g]), radius, nbits)[0]


def assert_matches_reference(mols, radii=range(4), widths=(64, 2048)):
    for radius in radii:
        for nbits in widths:
            expect = np.stack([reference_bits(g, radius, nbits) for g in mols])
            got = morgan_fingerprint(molecule_set(mols), radius, nbits)
            assert got.dtype == np.float32 and got.shape == (len(mols), nbits)
            assert np.array_equal(got, expect), (radius, nbits)


def test_methane_radius0_single_bit():
    assert fingerprint_one(parse_smiles("C"), radius=0).sum() == 1
    # oracle: exactly one distinct environment
    assert len(environment_identifiers(parse_smiles("C"), 0)) == 1


def test_ethane_symmetric_atoms():
    g = parse_smiles("CC")
    idents = environment_identifiers(g, 1)
    # both atoms are equivalent: one identifier per radius
    assert len(idents) == 2
    assert fingerprint_one(g, radius=1).sum() <= 2


def test_determinism():
    mols = [parse_smiles("CC(=O)Oc1ccccc1C(=O)O"), parse_smiles("CCO")]
    a = morgan_fingerprint(molecule_set(mols), 2, 1024)
    b = morgan_fingerprint(molecule_set(mols), 2, 1024)
    assert np.array_equal(a, b)
    assert np.array_equal(a[0], morgan_fingerprint(molecule_set(mols[:1]), 2, 1024)[0])


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    for smi in ["CCO", "c1ccc(O)cc1", "CC(C)CC(=O)N", "C1CCCCC1CO"]:
        g = parse_smiles(smi)
        base = fingerprint_one(g, 2, 512)
        perms = [permute_graph(g, rng.permutation(len(g.element))) for _ in range(5)]
        for row in morgan_fingerprint(molecule_set(perms), 2, 512):
            assert np.array_equal(row, base)


def test_identifier_sets_nested_across_radius():
    """Pre-fold identifiers at radius r are a subset of those at radius r+1."""
    for smi in ["CCO", "c1ccccc1", "CC(C)CC(=O)N"]:
        g = parse_smiles(smi)
        for r in range(3):
            assert environment_identifiers(g, r) <= environment_identifiers(g, r + 1)


def test_fold_consistency():
    """OR of the two halves of a 2048-bit print equals the 1024-bit print."""
    mols = [parse_smiles(s) for s in ["CC(=O)Oc1ccccc1C(=O)O", "NCCCNC1CC1", "OCCOCCOCC"]]
    wide = morgan_fingerprint(molecule_set(mols), 2, 2048)
    folded = np.maximum(wide[:, :1024], wide[:, 1024:])
    assert np.array_equal(folded, morgan_fingerprint(molecule_set(mols), 2, 1024))


def test_environment_oracle_distinct_count():
    """Bit count equals distinct identifiers mod nbits (collision-aware oracle)."""
    for smi in ["CCO", "c1ccncc1", "CC(C)C(N)C(=O)O"]:
        g = parse_smiles(smi)
        idents = environment_identifiers(g, 2)
        expected = len({i % 1024 for i in idents})
        assert fingerprint_one(g, 2, 1024).sum() == expected


@pytest.mark.parametrize("smi", FIXED_SMILES)
def test_identifiers_match_degree_reference(smi):
    g = parse_smiles(smi)
    for radius in range(4):
        assert environment_identifiers(g, radius) == reference_environment_identifiers(g, radius)
    assert_matches_reference([g])


@settings(max_examples=200, deadline=None)
@given(smiles_strings())
def test_identifiers_match_degree_reference_fuzzed(smi):
    g = parse_smiles(smi)
    for radius in (0, 1, 3):
        assert environment_identifiers(g, radius) == reference_environment_identifiers(g, radius)


@settings(max_examples=60, deadline=None)
@given(st.lists(smiles_strings(), min_size=1, max_size=8), st.integers(0, 3),
       st.sampled_from([64, 2048]))
def test_set_matches_reference_fuzzed(smiles, radius, nbits):
    assert_matches_reference([parse_smiles(s) for s in smiles], [radius], [nbits])


@pytest.mark.parametrize("n", [_FP_BLOCK - 1, _FP_BLOCK, _FP_BLOCK + 1, 2 * _FP_BLOCK + 1])
def test_batches_across_chunk_boundary(n):
    """Each row depends on its own molecule only, wherever the chunks split."""
    order = np.random.default_rng(n).permutation(n) % len(FIXED_SMILES)
    mols = [parse_smiles(FIXED_SMILES[k]) for k in order]
    for radius in range(4):
        for nbits in (64, 2048):
            expect = np.stack([reference_bits(parse_smiles(s), radius, nbits)
                               for s in FIXED_SMILES])
            got = morgan_fingerprint(molecule_set(mols), radius, nbits)
            assert np.array_equal(got, expect[order])


@pytest.mark.parametrize("smiles", [
    ["C", "[NH4+]"],                                  # no bond in the whole set
    ["C", "S(F)(F)(F)(F)(F)F", "[NH4+]", "CC"],        # degree 0 beside degree 6
    ["[C+2147483647]C[N-2147483647]", "[O-2147483647]"],  # int32 charge limits
], ids=["bondless", "degree6", "charge-limits"])
def test_edge_cases_match_reference(smiles):
    assert_matches_reference([parse_smiles(s) for s in smiles])


def test_nbits_validation():
    mols = [parse_smiles("C")]
    with pytest.raises(ValueError):
        morgan_fingerprint(molecule_set(mols), 2, 1000)   # not a power of two
    with pytest.raises(ValueError):
        morgan_fingerprint(molecule_set(mols), 2, 32)     # too small
    with pytest.raises(ValueError):
        morgan_fingerprint(molecule_set(mols), -1, 1024)


@pytest.mark.parametrize("nbits", [64, 2048])
def test_empty_sequence(nbits):
    out = morgan_fingerprint(molecule_set([]), 2, nbits)
    assert out.shape == (0, nbits) and out.dtype == np.float32


def test_matrix_is_float32_zero_one():
    out = morgan_fingerprint(molecule_set([parse_smiles("CCO"), parse_smiles("c1ccccc1")]),
                             1, 64)
    assert out.dtype == np.float32 and out.shape == (2, 64)
    assert set(np.unique(out)) <= {0.0, 1.0}
