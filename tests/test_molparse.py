"""Parser tests: grammar cases, typed errors, round-trip stability and the
SMILES file reader."""

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
    BondOrder,
    parse_smiles,
    read_smiles_file,
)


def bond_set(g):
    return {(b.a, b.b, b.order) for b in g.bonds}


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
    assert len(g.atoms) == 1 and g.atoms[0].element == "C"
    assert not g.bonds


def test_linear_chain():
    g = parse_smiles("CCO")
    assert [a.element for a in g.atoms] == ["C", "C", "O"]
    assert bond_set(g) == {(0, 1, BondOrder.SINGLE), (1, 2, BondOrder.SINGLE)}


def test_benzene_ring():
    g = parse_smiles("c1ccccc1")
    assert len(g.atoms) == 6
    assert all(a.element == "C" and a.aromatic for a in g.atoms)
    assert len(g.bonds) == 6
    assert all(b.order is BondOrder.AROMATIC for b in g.bonds)
    # ring-closure pairing: every atom has degree exactly 2 (a single cycle)
    assert all(g.degree(i) == 2 for i in range(6))


def test_bond_symbols():
    g = parse_smiles("C=C")
    assert g.bonds[0].order is BondOrder.DOUBLE
    g = parse_smiles("C#N")
    assert g.bonds[0].order is BondOrder.TRIPLE
    g = parse_smiles("C-C")
    assert g.bonds[0].order is BondOrder.SINGLE


def test_branches():
    g = parse_smiles("CC(C)(C)C")  # neopentane
    assert len(g.atoms) == 5
    assert g.degree(1) == 4


def test_bracket_atoms():
    g = parse_smiles("[NH4+]")
    a = g.atoms[0]
    assert a.element == "N" and a.formal_charge == 1
    g = parse_smiles("[O-]")
    assert g.atoms[0].formal_charge == -1
    g = parse_smiles("C[N+2]C")
    assert g.atoms[1].formal_charge == 2
    # [Fe]: the F parses but the trailing 'e' is an illegal token
    with pytest.raises(SmilesSyntaxError):
        parse_smiles("[Fe]")


def test_two_letter_elements():
    g = parse_smiles("ClCBr")
    assert [a.element for a in g.atoms] == ["Cl", "C", "Br"]


def test_percent_ring_closure():
    g = parse_smiles("C%10CCC%10")
    assert len(g.bonds) == 4  # 3 chain bonds + 1 closure
    assert g.degree(0) == 2 and g.degree(3) == 2


def test_ring_closure_explicit_order():
    g = parse_smiles("C=1CCCCC=1")
    closure = [b for b in g.bonds if set(b.endpoints) == {0, 5}]
    assert closure and closure[0].order is BondOrder.DOUBLE


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
        assert len(g.atoms) >= 1
    except InfoAlignError:
        pass


# --- round-trip stability ----------------------------------------------------

def test_reparse_identical():
    for smi in ["CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "[NH4+]"]:
        g1, g2 = parse_smiles(smi), parse_smiles(smi)
        assert [(a.element, a.formal_charge, a.aromatic) for a in g1.atoms] == \
               [(a.element, a.formal_charge, a.aromatic) for a in g2.atoms]
        assert bond_set(g1) == bond_set(g2)


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
        assert len(g.atoms) == atom_count
        assert len(g.bonds) == atom_count - 1 + ring_digits // 2


def test_read_smiles_file(tmp_path):
    p = tmp_path / "mols.smi"
    p.write_text("# comment\nCCO\n\nc1ccccc1 benzene\n")
    assert read_smiles_file(p) == ["CCO", "c1ccccc1"]
