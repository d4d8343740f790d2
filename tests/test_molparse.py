"""Parser tests: grammar cases, the atom and bond arrays, a molecule set laid
out as one graph against the one-at-a-time `union` oracle, typed errors,
parity with the character-at-a-time oracle, round-trip stability and the
SMILES file reader."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoalign.errors import (
    RingUnclosedError,
    SmilesError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnsupportedFeatureError,
)
from infoalign.molparse import (
    ELEMENTS,
    BondOrder,
    MolecularGraph,
    MoleculeSet,
    parse_many,
    parse_smiles,
    read_smiles_file,
)
from tests.oracles import FIXED_SMILES, reference_parse_smiles, scanned_neighbors, union


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
    """`MoleculeSet.of(mols).block(0, n)` is the `union` oracle's layout byte
    for byte: each field the concatenation, bonds offset by the atoms before,
    and each atom's molecule index; it satisfies the parser's invariants."""
    g, mol_of_atom = MoleculeSet.of(mols).block(0, len(mols))
    want, want_of_atom = union(mols)
    for name in FIELDS:
        assert getattr(g, name).dtype == getattr(want, name).dtype
        assert getattr(g, name).shape == getattr(want, name).shape
        assert getattr(g, name).tobytes() == getattr(want, name).tobytes()
    assert mol_of_atom.dtype == want_of_atom.dtype
    assert mol_of_atom.tobytes() == want_of_atom.tobytes()
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
    u, mol_of_atom = MoleculeSet.of([g]).block(0, 1)
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


# --- parity with the character-at-a-time oracle -------------------------------

def parse_outcome(parse, text):
    """Each array's dtype, shape and bytes, or the exception's type and message."""
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (getattr(g, name) for name in FIELDS)]


def check_parity(text):
    assert parse_outcome(parse_smiles, text) == parse_outcome(reference_parse_smiles, text)


# The grammar's symbols and its neighbours: a newline, a non-ASCII letter,
# unterminated and stereo bracket atoms, and charges of more digits than
# int() takes (4300), one of them in range for its leading zeros.
PIECES = [*"BCNOPSFIbcnops()=#:-0123456789%[]+H.@/\\*~\nxlr é",
          "Cl", "Br", "%12", "[NH3+]", "[O-]", "[nH]", "[C--]", "[C@H]", "[13C]",
          "[C+" + "9" * 4301 + "]", "[C-" + "0" * 4301 + "7]"]


# A bond symbol must sit between two atoms of one chain: one before ')' or
# before the first atom is an error at the symbol's position.
BOND_PLACEMENT = ["C(C=)C", "C(C#)C", "C(=)C", "CC(C(C-)C)C", "=C", "=C=C", "#", "C=)"]


@pytest.mark.parametrize("smi", FIXED_SMILES + BOND_PLACEMENT)
def test_parity_with_oracle_fixed(smi):
    check_parity(smi)


@pytest.mark.parametrize("smi,message", [
    ("C(C=)C", "bond symbol at position 3 ends a branch without an atom"),
    ("C(C#)C", "bond symbol at position 3 ends a branch without an atom"),
    ("CC(C(C-)C)C", "bond symbol at position 6 ends a branch without an atom"),
    ("=C", "bond symbol before any atom at position 0"),
    ("=C=C", "bond symbol before any atom at position 0"),
])
def test_misplaced_bond_symbol_rejected_at_its_position(smi, message):
    with pytest.raises(SmilesSyntaxError) as exc:
        parse_smiles(smi)
    assert str(exc.value) == message


@settings(max_examples=200, deadline=None)
@given(smiles_strings())
def test_parity_with_oracle_fuzzed(smi):
    check_parity(smi)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), min_size=1, max_size=20).map("".join))
def test_parity_with_oracle_arbitrary(text):
    check_parity(text)


# --- a whole set in one pass ----------------------------------------------------

def reference_set_outcome(texts):
    """The oracle's parse of each text, or (index, type, message) of the first
    that fails."""
    mols = []
    for i, text in enumerate(texts):
        try:
            mols.append(reference_parse_smiles(text))
        except Exception as exc:
            return i, type(exc), str(exc)
    return mols


def check_parse_many(texts):
    """`parse_many` equals the `union` of the oracle's parses, field by field
    and dtype by dtype, with each molecule's atom and bond offsets; or it
    raises the oracle's first error with that text's index."""
    expect = reference_set_outcome(texts)
    if isinstance(expect, tuple):
        with pytest.raises(SmilesError) as exc:
            parse_many(texts)
        assert (exc.value.index, type(exc.value), str(exc.value)) == expect
        return
    got = parse_many(texts)
    assert len(got) == len(texts)
    assert got.atom_start.tolist() == np.cumsum([0] + [len(m.element) for m in expect]).tolist()
    assert got.bond_start.tolist() == np.cumsum([0] + [len(m.bonds) for m in expect]).tolist()
    if not expect:
        return
    g, mol_of_atom = union(expect)
    for name in FIELDS:
        assert getattr(got.graph, name).dtype == getattr(g, name).dtype
        assert getattr(got.graph, name).shape == getattr(g, name).shape
        assert getattr(got.graph, name).tobytes() == getattr(g, name).tobytes()
    assert np.array_equal(got.block(0, len(texts))[1], mol_of_atom)
    for i, mol in enumerate(expect):
        one = got.molecule(i)
        for name in FIELDS:
            assert getattr(one, name).dtype == getattr(mol, name).dtype
            assert np.array_equal(getattr(one, name), getattr(mol, name))


@pytest.mark.parametrize("texts", [
    FIXED_SMILES, FIXED_SMILES[::-1], ["C", "[NH4+]"], ["[NH4+]", "CCO", "C"], ["CCO"],
    FIXED_SMILES + ["C1CC"], ["CCO", "C(C=)C", "CC"], ["CCO", "", "CC"], ["C", 5],
], ids=["fixed", "reversed", "bond-less", "bond-less-ends", "one", "bad-last",
        "bad-middle", "empty-string", "not-a-string"])
def test_parse_many_equals_union_of_oracle_parses(texts):
    check_parse_many(texts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(smiles_strings(), st.sampled_from(["C", "[NH4+]"])), max_size=8))
def test_parse_many_equals_union_of_oracle_parses_fuzzed(texts):
    check_parse_many(texts)


@settings(max_examples=200, deadline=None)
@given(st.lists(smiles_strings(), max_size=4),
       st.lists(st.sampled_from(PIECES), min_size=1, max_size=12).map("".join),
       st.lists(smiles_strings(), max_size=4))
def test_parse_many_names_the_failing_index(before, text, after):
    """A list with one arbitrary text among good ones: the oracle's set, or its
    error with that text's index."""
    check_parse_many(before + [text] + after)


def test_parse_many_of_nothing_is_empty():
    got = parse_many([])
    assert len(got) == 0 and got.atom_start.tolist() == [0] and got.bond_start.tolist() == [0]
    assert got.graph.bonds.shape == (0, 2)
    assert [getattr(got.graph, name).dtype for name in FIELDS] == \
        [np.intp, np.int32, bool, np.intp, np.intp, np.intp]
    assert MoleculeSet.of([]).atom_start.tolist() == [0]


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
