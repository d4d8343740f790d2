"""Fingerprint tests backed by a per-atom identifier oracle
(`tests/oracles.py`), an environment-counting oracle and random atom
permutations."""

import numpy as np
import pytest
from hypothesis import given, settings

from infoalign.fingerprint import environment_identifiers, morgan_fingerprint
from infoalign.molparse import MolecularGraph, parse_smiles
from tests.oracles import FIXED_SMILES, reference_environment_identifiers
from tests.test_molparse import smiles_strings


def permute_graph(g: MolecularGraph, perm) -> MolecularGraph:
    """`g` with old atom perm[k] at index k; bonds keep their order, with
    each bond's endpoints renumbered and sorted."""
    perm = np.asarray(perm, dtype=np.intp)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return MolecularGraph(g.element[perm], g.charge[perm], g.aromatic[perm], g.degree[perm],
                          np.sort(inv[g.bonds], axis=1), g.order)


def test_methane_radius0_single_bit():
    fp = morgan_fingerprint(parse_smiles("C"), radius=0)
    assert fp.count() == 1
    # oracle: exactly one distinct environment
    assert len(environment_identifiers(parse_smiles("C"), 0)) == 1


def test_ethane_symmetric_atoms():
    g = parse_smiles("CC")
    idents = environment_identifiers(g, 1)
    # both atoms are equivalent: one identifier per radius
    assert len(idents) == 2
    fp = morgan_fingerprint(g, radius=1)
    assert fp.count() <= 2


def test_determinism():
    g = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    a = morgan_fingerprint(g, 2, 1024)
    b = morgan_fingerprint(g, 2, 1024)
    assert np.array_equal(a.bits, b.bits)
    assert a.to_hex() == b.to_hex()


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    for smi in ["CCO", "c1ccc(O)cc1", "CC(C)CC(=O)N", "C1CCCCC1CO"]:
        g = parse_smiles(smi)
        base = morgan_fingerprint(g, 2, 512).bits
        for _ in range(5):
            perm = list(rng.permutation(len(g.element)))
            gp = permute_graph(g, perm)
            assert np.array_equal(morgan_fingerprint(gp, 2, 512).bits, base)


def test_identifier_sets_nested_across_radius():
    """Pre-fold identifiers at radius r are a subset of those at radius r+1."""
    for smi in ["CCO", "c1ccccc1", "CC(C)CC(=O)N"]:
        g = parse_smiles(smi)
        for r in range(3):
            assert environment_identifiers(g, r) <= environment_identifiers(g, r + 1)


def test_fold_consistency():
    """OR of the two halves of a 2048-bit print equals the 1024-bit print."""
    for smi in ["CC(=O)Oc1ccccc1C(=O)O", "NCCCNC1CC1", "OCCOCCOCC"]:
        g = parse_smiles(smi)
        wide = morgan_fingerprint(g, 2, 2048).bits
        folded = wide[:1024] | wide[1024:]
        assert np.array_equal(folded, morgan_fingerprint(g, 2, 1024).bits)


def test_environment_oracle_distinct_count():
    """Bit count equals distinct identifiers mod nbits (collision-aware oracle)."""
    for smi in ["CCO", "c1ccncc1", "CC(C)C(N)C(=O)O"]:
        g = parse_smiles(smi)
        idents = environment_identifiers(g, 2)
        expected = len({i % 1024 for i in idents})
        assert morgan_fingerprint(g, 2, 1024).count() == expected


@pytest.mark.parametrize("smi", FIXED_SMILES)
def test_identifiers_match_degree_reference(smi):
    g = parse_smiles(smi)
    for radius in range(4):
        assert environment_identifiers(g, radius) == reference_environment_identifiers(g, radius)
    expect = np.zeros(1024, dtype=bool)
    for ident in reference_environment_identifiers(g, 2):
        expect[ident % 1024] = True
    assert np.array_equal(morgan_fingerprint(g, 2, 1024).bits, expect)


@settings(max_examples=200, deadline=None)
@given(smiles_strings())
def test_identifiers_match_degree_reference_fuzzed(smi):
    g = parse_smiles(smi)
    for radius in (0, 1, 3):
        assert environment_identifiers(g, radius) == reference_environment_identifiers(g, radius)


def test_nbits_validation():
    g = parse_smiles("C")
    with pytest.raises(ValueError):
        morgan_fingerprint(g, 2, 1000)   # not a power of two
    with pytest.raises(ValueError):
        morgan_fingerprint(g, 2, 32)     # too small
    with pytest.raises(ValueError):
        morgan_fingerprint(g, -1, 1024)


def test_to_float_and_hex():
    fp = morgan_fingerprint(parse_smiles("CCO"), 1, 64)
    f = fp.to_float()
    assert f.dtype == np.float32 and set(np.unique(f)) <= {0.0, 1.0}
    assert len(fp.to_hex()) == 64 // 4
