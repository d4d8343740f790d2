"""SMILES subset parser producing molecular graphs as arrays.

Supported grammar: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
aromatic lowercase forms (b, c, n, o, p, s), bracket atoms with explicit
hydrogens and formal charge, branches, single-digit and %nn ring closures,
and the bond symbols ``- = # :``. Stereo markers, isotopes, wildcards and
multi-fragment input ('.') are rejected with a typed error instead of being
silently mis-parsed.

A `MolecularGraph` holds per-atom arrays (element index into `ELEMENTS`,
formal charge, aromatic flag, degree) and per-bond arrays in parse order
(endpoints a < b, `BondOrder` code), the layout of PyG's atom features and
edge index. `union` lays a molecule set out as one such graph, the disjoint
union that the fingerprint hash and the encoder both read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    RingUnclosedError,
    SmilesSyntaxError,
    UnbalancedParenError,
    UnsupportedFeatureError,
)
from .serialize import text_lines

ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
AROMATIC_ELEMENTS = ("b", "c", "n", "o", "p", "s")
# Formal charges are stored as int32, as the fingerprint hashes them.
_CHARGE_LIMIT = 2**31 - 1


class BondOrder(IntEnum):
    SINGLE = 0
    DOUBLE = 1
    TRIPLE = 2
    AROMATIC = 3


_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}


@dataclass(frozen=True, eq=False)
class MolecularGraph:
    """A heavy-atom graph: atom i is row i of the atom arrays, bond k row k
    of the bond arrays."""

    element: np.ndarray   # (atoms,) intp, index into ELEMENTS
    charge: np.ndarray    # (atoms,) int32 formal charge
    aromatic: np.ndarray  # (atoms,) bool
    degree: np.ndarray    # (atoms,) intp, bonds per atom
    bonds: np.ndarray     # (bonds, 2) intp endpoints, a < b, in parse order
    order: np.ndarray     # (bonds,) intp BondOrder value


def _parse_bracket_atom(text: str, pos: int) -> Tuple[str, int, bool, int]:
    """Parse a bracket atom starting at text[pos] == '['.

    Returns the element, charge and aromatic flag, and the position just past
    the closing ']'.
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
    if abs(charge) > _CHARGE_LIMIT:
        raise SmilesSyntaxError(f"formal charge out of range in bracket atom [{body}]")
    return element, charge, aromatic, end + 1


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

    element: List[int] = []
    charge: List[int] = []
    aromatic: List[bool] = []
    degree: List[int] = []
    bonds: List[Tuple[int, int]] = []
    orders: List[BondOrder] = []
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
            if aromatic[a] and aromatic[b]:
                order = BondOrder.AROMATIC
            else:
                order = BondOrder.SINGLE
        key = (min(a, b), max(a, b))
        if key in seen_bonds:
            raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {b}")
        seen_bonds.add(key)
        bonds.append(key)
        orders.append(order)
        degree[a] += 1
        degree[b] += 1

    def attach_atom(symbol: str, formal_charge: int, is_aromatic: bool):
        nonlocal prev, pending_bond
        index = len(element)
        element.append(ELEMENTS.index(symbol))
        charge.append(formal_charge)
        aromatic.append(is_aromatic)
        degree.append(0)
        if prev is not None:
            make_bond(prev, index, pending_bond)
        pending_bond = None
        prev = index

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
                make_bond(prev, other, pending_bond if pending_bond is not None else open_order)
                pending_bond = None
            else:
                open_rings[num] = (prev, pending_bond)
                pending_bond = None
            continue
        if ch == "[":
            *atom, i = _parse_bracket_atom(text, i)
            attach_atom(*atom)
            continue
        # organic subset atom, two-letter first
        sym = text[i : i + 2]
        if sym in ("Cl", "Br"):
            attach_atom(sym, 0, False)
            i += 2
            continue
        if ch in ELEMENTS:
            attach_atom(ch, 0, False)
            i += 1
            continue
        if ch in AROMATIC_ELEMENTS:
            attach_atom(ch.upper(), 0, True)
            i += 1
            continue
        raise SmilesSyntaxError(f"illegal token '{ch}' at position {i}")

    if branch_stack:
        raise UnbalancedParenError(f"{len(branch_stack)} unclosed '(' in input")
    if open_rings:
        raise RingUnclosedError(f"dangling ring closure digit(s): {sorted(open_rings)}")
    if pending_bond is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if not element:
        raise SmilesSyntaxError("no atoms parsed")
    return MolecularGraph(
        np.array(element, dtype=np.intp), np.array(charge, dtype=np.int32),
        np.array(aromatic, dtype=bool), np.array(degree, dtype=np.intp),
        np.array(bonds, dtype=np.intp).reshape(-1, 2), np.array(orders, dtype=np.intp))


def union(mols: Sequence[MolecularGraph]) -> Tuple[MolecularGraph, np.ndarray]:
    """The disjoint union of a non-empty molecule set, and the index into
    `mols` of each of its atoms. Atoms and bonds keep their input order; each
    molecule's bond endpoints are offset past the atoms before it, the
    block-diagonal batch of PyG."""
    arrays = {f.name: np.concatenate([getattr(g, f.name) for g in mols])
              for f in fields(MolecularGraph)}
    atoms = np.array([len(g.element) for g in mols], dtype=np.intp)
    starts = np.repeat(np.cumsum(atoms) - atoms, [len(g.bonds) for g in mols])
    arrays["bonds"] += starts[:, None]
    return MolecularGraph(**arrays), np.repeat(np.arange(len(mols)), atoms)


def read_smiles_file(path) -> List[Tuple[int, str]]:
    """(line number, SMILES) per SMILES line of a file. Blank lines and '#'
    comment lines are skipped; a line's SMILES is its first
    whitespace-separated field."""
    out = []
    for lineno, line in text_lines(path):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            out.append((lineno, fields[0]))
    return out
