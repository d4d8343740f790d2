"""SMILES subset parser producing molecular graphs.

Supported grammar: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
aromatic lowercase forms (b, c, n, o, p, s), bracket atoms with explicit
hydrogens and formal charge, branches, single-digit and %nn ring closures,
and the bond symbols ``- = # :``. Stereo markers, isotopes, wildcards and
multi-fragment input ('.') are rejected with a typed error instead of being
silently mis-parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Tuple

from .errors import (
    RingUnclosedError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnsupportedFeatureError,
)

ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
AROMATIC_ELEMENTS = ("b", "c", "n", "o", "p", "s")


class BondOrder(Enum):
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    AROMATIC = "aromatic"


_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}


@dataclass(frozen=True)
class Atom:
    element: str
    formal_charge: int = 0
    aromatic: bool = False
    index: int = 0


@dataclass(frozen=True)
class Bond:
    """Undirected bond; endpoints are stored sorted."""

    a: int
    b: int
    order: BondOrder

    def __post_init__(self):
        if self.a == self.b:
            raise SmilesSyntaxError(f"bond endpoints must differ, got {self.a}")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def endpoints(self) -> Tuple[int, int]:
        return (self.a, self.b)


@dataclass
class MolecularGraph:
    atoms: List[Atom] = field(default_factory=list)
    bonds: List[Bond] = field(default_factory=list)

    def neighbors(self, idx: int) -> List[Tuple[int, BondOrder]]:
        out = []
        for bond in self.bonds:
            if bond.a == idx:
                out.append((bond.b, bond.order))
            elif bond.b == idx:
                out.append((bond.a, bond.order))
        return out

    def degree(self, idx: int) -> int:
        return sum(1 for b in self.bonds if idx in b.endpoints)


def _parse_bracket_atom(text: str, pos: int, index: int) -> Tuple[Atom, int]:
    """Parse a bracket atom starting at text[pos] == '['.

    Returns the atom and the position just past the closing ']'.
    """
    end = text.find("]", pos)
    if end < 0:
        raise SmilesSyntaxError(f"unterminated bracket atom at position {pos}")
    body = text[pos + 1 : end]
    if not body:
        raise SmilesSyntaxError(f"empty bracket atom at position {pos}")
    i = 0
    if body[0].isdigit():
        raise UnsupportedFeatureError(f"isotope specification not supported: [{body}]")
    # element symbol, two-letter first
    element = None
    aromatic = False
    for sym in ("Cl", "Br"):
        if body.startswith(sym):
            element = sym
            i = len(sym)
            break
    if element is None:
        ch = body[0]
        if ch in AROMATIC_ELEMENTS:
            element = ch.upper()
            aromatic = True
            i = 1
        elif ch in ELEMENTS:
            element = ch
            i = 1
        else:
            raise UnsupportedFeatureError(f"unsupported element in bracket atom: [{body}]")
    # optional explicit hydrogens (count accepted and discarded; the graph is heavy-atom only)
    if i < len(body) and body[i] == "H":
        i += 1
        while i < len(body) and body[i].isdigit():
            i += 1
    # optional charge
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        i += 1
        if i < len(body) and body[i].isdigit():
            num = 0
            while i < len(body) and body[i].isdigit():
                num = num * 10 + int(body[i])
                i += 1
            charge = sign * num
        else:
            charge = sign
            # allow repeated ++ / --
            while i < len(body) and body[i] == body[i - 1]:
                charge += sign
                i += 1
    if i != len(body):
        if body[i] in "@/\\*":
            raise UnsupportedFeatureError(f"stereo/wildcard markers not supported: [{body}]")
        raise SmilesSyntaxError(f"illegal token '{body[i]}' in bracket atom [{body}]")
    return Atom(element, charge, aromatic, index), end + 1


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string under the documented subset grammar.

    Raises SmilesSyntaxError, RingUnclosedError, UnbalancedParenError, or
    UnsupportedFeatureError; never returns a partially built graph.
    """
    if not isinstance(text, str) or not text:
        raise SmilesSyntaxError("input must be a non-empty string")
    try:
        text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise SmilesSyntaxError("input must be ASCII") from exc

    atoms: List[Atom] = []
    bonds: List[Bond] = []
    prev: int | None = None
    branch_stack: List[int] = []
    # ring number -> (open atom index, explicit bond order at opening or None)
    open_rings: dict[int, Tuple[int, BondOrder | None]] = {}
    pending_bond: BondOrder | None = None
    seen_bonds: set[Tuple[int, int]] = set()

    def make_bond(a: int, b: int, explicit: BondOrder | None):
        if a == b:
            raise SmilesSyntaxError("ring closure bonds an atom to itself")
        order = explicit
        if order is None:
            if atoms[a].aromatic and atoms[b].aromatic:
                order = BondOrder.AROMATIC
            else:
                order = BondOrder.SINGLE
        key = (min(a, b), max(a, b))
        if key in seen_bonds:
            raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {b}")
        seen_bonds.add(key)
        bonds.append(Bond(key[0], key[1], order))

    def attach_atom(atom: Atom):
        nonlocal prev, pending_bond
        atoms.append(atom)
        if prev is not None:
            make_bond(prev, atom.index, pending_bond)
        pending_bond = None
        prev = atom.index

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == ".":
            raise UnsupportedFeatureError("multi-fragment SMILES ('.') not supported")
        if ch in "@/\\*~":
            raise UnsupportedFeatureError(f"unsupported feature '{ch}' at position {i}")
        if ch == "(":
            if prev is None:
                raise SmilesSyntaxError("branch opened before any atom")
            branch_stack.append(prev)
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise UnbalancedParenError(f"unmatched ')' at position {i}")
            prev = branch_stack.pop()
            i += 1
            continue
        if ch in _BOND_SYMBOLS:
            if pending_bond is not None:
                raise SmilesSyntaxError(f"two consecutive bond symbols at position {i}")
            pending_bond = _BOND_SYMBOLS[ch]
            i += 1
            continue
        if ch.isdigit() or ch == "%":
            if prev is None:
                raise SmilesSyntaxError("ring closure before any atom")
            if ch == "%":
                if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                    raise SmilesSyntaxError(f"malformed %nn ring closure at position {i}")
                num = int(text[i + 1 : i + 3])
                i += 3
            else:
                num = int(ch)
                i += 1
            if num in open_rings:
                other, open_order = open_rings.pop(num)
                if open_order is not None and pending_bond is not None and open_order != pending_bond:
                    raise SmilesSyntaxError(f"conflicting bond orders for ring closure {num}")
                make_bond(prev, other, pending_bond or open_order)
                pending_bond = None
            else:
                open_rings[num] = (prev, pending_bond)
                pending_bond = None
            continue
        if ch == "[":
            atom, i = _parse_bracket_atom(text, i, len(atoms))
            attach_atom(atom)
            continue
        # organic subset atom, two-letter first
        matched = False
        for sym in ("Cl", "Br"):
            if text.startswith(sym, i):
                attach_atom(Atom(sym, 0, False, len(atoms)))
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch in ELEMENTS:
            attach_atom(Atom(ch, 0, False, len(atoms)))
            i += 1
            continue
        if ch in AROMATIC_ELEMENTS:
            attach_atom(Atom(ch.upper(), 0, True, len(atoms)))
            i += 1
            continue
        raise SmilesSyntaxError(f"illegal token '{ch}' at position {i}")

    if branch_stack:
        raise UnbalancedParenError(f"{len(branch_stack)} unclosed '(' in input")
    if open_rings:
        raise RingUnclosedError(f"dangling ring closure digit(s): {sorted(open_rings)}")
    if pending_bond is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if not atoms:
        raise SmilesSyntaxError("no atoms parsed")
    return MolecularGraph(atoms, bonds)


def read_smiles_file(path) -> List[str]:
    """Read one SMILES per line; blank lines and '#' comment lines skipped."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(line.split()[0])
    return out
