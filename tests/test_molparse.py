"""Parser tests: grammar cases, the atom and bond arrays, the union of a
molecule set, typed errors, round-trip stability and the SMILES file reader."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoalign.errors import (
    RingUnclosedError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnsupportedFeatureError,
)
from infoalign.molparse import (
    ELEMENTS,
    BondOrder,
    MolecularGraph,
    parse_smiles,
    read_smiles_file,
    union,
)
from tests.oracles import FIXED_SMILES, scanned_neighbors


def bond_set(g):
    return {(a, b, BondOrder(o)) for (a, b), o in zip(g.bonds.tolist(), g.order.tolist())}


def elements(g):
    return [ELEMENTS[e] for e in g.element.tolist()]


@st.composite
def smiles_strings(draw):
    """Chains with branches, bond orders, charges and at most one ring."""
    atom = st.sampled_from(["C", "N", "O", "S", "Cl", "c", "[N+]", "[O-]", "[NH3+]"])
    n = draw(st.integers(1, 10))
    ring = {}
    if n >= 3 and draw(st.booleans()):
        i = draw(st.integers(0, n - 3))
        ring = {i: "1", draw(st.integers(i + 2, n - 1)): "1"}
    parts = []
    for k in range(n):
        bond = draw(st.sampled_from(["", "=", "#"])) if k else ""
        branches = "".join(f"({draw(atom)})" for _ in range(draw(st.integers(0, 4))))
        parts.append(bond + draw(atom) + ring.get(k, "") + branches)
    return "".join(parts)


# --- grammar cases --------------------------------------------------------------

def test_single_atom():
    g = parse_smiles("C")
    assert elements(g) == ["C"]
    assert g.bonds.shape == (0, 2) and g.order.shape == (0,)


def test_linear_chain():
    g = parse_smiles("CCO")
    assert elements(g) == ["C", "C", "O"]
    assert bond_set(g) == {(0, 1, BondOrder.SINGLE), (1, 2, BondOrder.SINGLE)}


def test_benzene_ring():
    g = parse_smiles("c1ccccc1")
    assert elements(g) == ["C"] * 6 and g.aromatic.all()
    assert len(g.bonds) == 6
    assert (g.order == BondOrder.AROMATIC).all()
    # ring-closure pairing: every atom has degree exactly 2 (a single cycle)
    assert g.degree.tolist() == [2] * 6


def test_bond_symbols():
    assert parse_smiles("C=C").order.tolist() == [BondOrder.DOUBLE]
    assert parse_smiles("C#N").order.tolist() == [BondOrder.TRIPLE]
    assert parse_smiles("C-C").order.tolist() == [BondOrder.SINGLE]
    assert parse_smiles("c:c").order.tolist() == [BondOrder.AROMATIC]


def test_branches():
    g = parse_smiles("CC(C)(C)C")  # neopentane
    assert len(g.element) == 5
    assert g.degree.tolist() == [1, 4, 1, 1, 1]


def test_bracket_atoms():
    g = parse_smiles("[NH4+]")
    assert elements(g) == ["N"] and g.charge.tolist() == [1]
    assert parse_smiles("[O-]").charge.tolist() == [-1]
    assert parse_smiles("C[N+2]C").charge.tolist() == [0, 2, 0]
    assert parse_smiles("[N--]").charge.tolist() == [-2]
    g = parse_smiles("[nH]1cccc1")
    assert g.aromatic.all() and (g.order == BondOrder.AROMATIC).all()
    # [Fe]: the F parses but the trailing 'e' is an illegal token
    with pytest.raises(SmilesSyntaxError):
        parse_smiles("[Fe]")


def test_two_letter_elements():
    g = parse_smiles("ClCBr")
    assert elements(g) == ["Cl", "C", "Br"]


def test_percent_ring_closure():
    g = parse_smiles("C%10CCC%10")
    assert len(g.bonds) == 4  # 3 chain bonds + 1 closure
    assert g.degree[0] == 2 and g.degree[3] == 2


def test_ring_closure_explicit_order():
    g = parse_smiles("C=1CCCCC=1")
    assert (0, 5, BondOrder.DOUBLE) in bond_set(g)
    g = parse_smiles("C-1CCCCC1")
    assert (0, 5, BondOrder.SINGLE) in bond_set(g)
    # an explicit single closure between aromatic atoms stays single
    assert (0, 5, BondOrder.SINGLE) in bond_set(parse_smiles("c1ccccc-1"))


def check_arrays(g):
    """Endpoints a < b, no repeated bond, and each degree equal to a scan of the bonds."""
    n = len(g.element)
    assert g.bonds.shape == (len(g.order), 2)
    assert all(len(a) == n for a in (g.charge, g.aromatic, g.degree))
    assert (g.bonds[:, 0] < g.bonds[:, 1]).all() and (g.bonds < n).all()
    assert len(bond_set(g)) == len(g.order)
    assert g.degree.tolist() == [len(scanned_neighbors(g, i)) for i in range(n)]
    assert set(g.order.tolist()) <= set(BondOrder)


@pytest.mark.parametrize("smi", FIXED_SMILES)
def test_arrays_consistent(smi):
    check_arrays(parse_smiles(smi))


@settings(max_examples=200, deadline=None)
@given(smiles_strings())
def test_arrays_consistent_fuzzed(smi):
    check_arrays(parse_smiles(smi))


def test_charge_beyond_int32_rejected():
    assert parse_smiles("[C+2147483647]").charge.tolist() == [2147483647]
    with pytest.raises(SmilesSyntaxError, match="charge out of range"):
        parse_smiles("[C-99999999999]")


# --- the union of a molecule set -----------------------------------------------

FIELDS = [f.name for f in fields(MolecularGraph)]


def check_union(mols):
    """Each field the concatenation, bonds offset by the atoms before, and
    each atom's molecule index; the union satisfies the parser's invariants."""
    g, mol_of_atom = union(mols)
    check_arrays(g)
    for name in FIELDS:
        assert getattr(g, name).dtype == getattr(mols[0], name).dtype
    for name in ("element", "charge", "aromatic", "degree", "order"):
        assert getattr(g, name).tolist() == [v for m in mols for v in getattr(m, name).tolist()]
    starts = np.cumsum([0] + [len(m.element) for m in mols]).tolist()
    assert g.bonds.tolist() == [[a + start, b + start] for m, start in zip(mols, starts)
                                for a, b in m.bonds.tolist()]
    assert mol_of_atom.tolist() == [k for k, m in enumerate(mols) for _ in m.element]


@pytest.mark.parametrize("smiles", [
    FIXED_SMILES, FIXED_SMILES[::-1], ["C", "[NH4+]"], ["[NH4+]", "CCO", "C"],
], ids=["fixed", "reversed", "bond-less", "bond-less-ends"])
def test_union_concatenates_and_offsets(smiles):
    check_union([parse_smiles(s) for s in smiles])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(smiles_strings(), st.sampled_from(["C", "[NH4+]"])),
                min_size=1, max_size=8))
def test_union_concatenates_and_offsets_fuzzed(smiles):
    check_union([parse_smiles(s) for s in smiles])


@pytest.mark.parametrize("smi", FIXED_SMILES)
def test_union_of_one_molecule_is_the_molecule(smi):
    g = parse_smiles(smi)
    u, mol_of_atom = union([g])
    for name in FIELDS:
        assert getattr(u, name).dtype == getattr(g, name).dtype
        assert np.array_equal(getattr(u, name), getattr(g, name))
    assert mol_of_atom.tolist() == [0] * len(g.element)


# --- errors ------------------------------------------------------------------

@pytest.mark.parametrize("bad,err", [
    ("C1CC", RingUnclosedError),
    ("C(C", UnbalancedParenError),
    ("CC)", UnbalancedParenError),
    ("C.C", UnsupportedFeatureError),
    ("C@C", UnsupportedFeatureError),
    ("[13C]", UnsupportedFeatureError),
    ("C*", UnsupportedFeatureError),
    ("C/C=C/C", UnsupportedFeatureError),
    ("", SmilesSyntaxError),
    ("C==C", SmilesSyntaxError),
    ("C=", SmilesSyntaxError),
    ("1CC", SmilesSyntaxError),
    ("(CC)", SmilesSyntaxError),
    ("Cx", SmilesSyntaxError),
    ("C11", SmilesSyntaxError),   # ring closure to itself
    ("[C", SmilesSyntaxError),
    ("[]", SmilesSyntaxError),
    ("C=1CCCCC#1", SmilesSyntaxError),  # conflicting ring-closure orders
])
def test_typed_errors(bad, err):
    with pytest.raises(err):
        parse_smiles(bad)


def test_all_failures_are_typed():
    from infoalign.errors import InfoAlignError
    for bad in ["C1CC", "C(", ")", "C..", "\x00", "é"]:
        with pytest.raises(InfoAlignError):
            parse_smiles(bad)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30))
def test_parser_never_crashes(text):
    """Fuzz property: arbitrary input either parses or raises a typed error."""
    from infoalign.errors import InfoAlignError
    try:
        g = parse_smiles(text)
        assert len(g.element) >= 1
    except InfoAlignError:
        pass


# --- round-trip stability ----------------------------------------------------

def test_reparse_identical():
    for smi in ["CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "[NH4+]"]:
        g1, g2 = parse_smiles(smi), parse_smiles(smi)
        for name in ("element", "charge", "aromatic", "degree", "bonds", "order"):
            assert np.array_equal(getattr(g1, name), getattr(g2, name))


def test_token_count_oracle():
    """Atom/bond counts match an independent token-counting scan."""
    cases = ["CCO", "C1CCCCC1", "CC(C)C", "c1ccc(O)cc1", "N#CC#N",
             "CC(=O)Oc1ccccc1C(=O)O", "ClC(Cl)(Cl)Cl", "OCCOCCO"]
    for smi in cases:
        g = parse_smiles(smi)
        # oracle: atoms = element tokens; bonds = atoms - 1 + ring closures
        i, atom_count, ring_digits = 0, 0, 0
        while i < len(smi):
            if smi[i : i + 2] in ("Cl", "Br"):
                atom_count += 1
                i += 2
            elif smi[i] in "BCNOPSFbcnops":
                atom_count += 1
                i += 1
            elif smi[i].isdigit():
                ring_digits += 1
                i += 1
            else:
                i += 1
        assert len(g.element) == atom_count
        assert len(g.bonds) == atom_count - 1 + ring_digits // 2


def test_read_smiles_file(tmp_path):
    p = tmp_path / "mols.smi"
    p.write_text("# comment\nCCO\n\nc1ccccc1 benzene\n")
    assert read_smiles_file(p) == [(2, "CCO"), (4, "c1ccccc1")]
