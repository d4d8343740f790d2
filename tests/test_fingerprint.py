"""Fingerprint tests backed by an environment-enumeration oracle and random
atom permutations."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings

from infoalign.errors import ZeroVectorError
from infoalign.fingerprint import (
    BitFingerprint,
    cosine,
    environment_identifiers,
    morgan_fingerprint,
)
from infoalign.molparse import Bond, MolecularGraph, parse_smiles
from tests.test_molparse import smiles_strings


def permute_graph(g: MolecularGraph, perm) -> MolecularGraph:
    inv = {old: new for new, old in enumerate(perm)}
    atoms = [None] * len(g.atoms)
    for a in g.atoms:
        atoms[inv[a.index]] = type(a)(a.element, a.formal_charge, a.aromatic, inv[a.index])
    bonds = [Bond(inv[b.a], inv[b.b], b.order) for b in g.bonds]
    return MolecularGraph(atoms, bonds)


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
            perm = list(rng.permutation(len(g.atoms)))
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


def reference_environment_identifiers(g: MolecularGraph, radius: int):
    """environment_identifiers with MolecularGraph.degree() and neighbors() per atom."""
    from infoalign.fingerprint import _BOND_CODE, _fnv1a
    ids = [
        _fnv1a(a.element.encode("ascii")
               + struct.pack("<iBI", a.formal_charge, int(a.aromatic), g.degree(a.index)))
        for a in g.atoms
    ]
    collected = set(ids)
    for _ in range(radius):
        nxt = []
        for i in range(len(g.atoms)):
            env = sorted((_BOND_CODE[order], ids[j]) for j, order in g.neighbors(i))
            blob = struct.pack("<Q", ids[i]) + b"".join(
                struct.pack("<BQ", code, nid) for code, nid in env)
            nxt.append(_fnv1a(blob))
        ids = nxt
        collected.update(ids)
    return collected


@pytest.mark.parametrize("smi", ["C", "CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O",
                                 "C(C)(C)(C)(C)(C)C", "[NH4+]", "OCC(O)(N)C1CC1[O-]",
                                 "C1CC2CCC1CC2", "N#CC(=O)[O-]"])
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


# --- cosine ------------------------------------------------------------------

def test_cosine_identity():
    assert cosine([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)


def test_cosine_closed_form():
    assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(2.0 ** -0.5, abs=1e-9)


def test_cosine_zero_vector():
    with pytest.raises(ZeroVectorError):
        cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        cosine([1.0], [1.0, 2.0])


def test_cosine_random_against_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        num = sum(float(a * b) for a, b in zip(u, v))
        du = sum(float(a * a) for a in u) ** 0.5
        dv = sum(float(b * b) for b in v) ** 0.5
        assert cosine(u, v) == pytest.approx(num / (du * dv), abs=1e-12)
