"""SMILES subset parser producing molecular graphs as arrays.

Supported grammar, the organic subset of Weininger's SMILES (J. Chem. Inf.
Comput. Sci. 28:31, 1988): organic-subset atoms (B, C, N, O, P, S, F, Cl,
Br, I), aromatic lowercase forms (b, c, n, o, p, s), bracket atoms with
explicit hydrogens and formal charge, branches, single-digit and %nn ring
closures, and the bond symbols ``- = # :``. Stereo markers, isotopes,
wildcards and multi-fragment input ('.') are rejected with a typed error
instead of being silently mis-parsed.

The parser reads tokens, not characters. One pattern splits the input into
``Cl``, ``Br``, ``%nn``, whole bracket atoms and single characters; one
pattern reads a bracket atom's element, hydrogen count and charge; one table
maps each atom token to its element index and aromatic flag. Tokens are
handled left to right and the first offending one is reported, with its
start as "position N" where the message gives one; the checks that need the
whole input (unclosed branches and rings, a trailing bond) come after the
last token. A bond symbol must sit between two atoms of one chain: one
before the first atom or before a ')' is an error, not dropped or carried
past the branch.

A `MolecularGraph` holds per-atom arrays (element index into `ELEMENTS`,
formal charge, aromatic flag, degree) and per-bond arrays in parse order
(endpoints a < b, `BondOrder` code), the layout of PyG's atom features and
edge index. `parse_many` parses a whole list of SMILES into one
`MoleculeSet`: one such graph, the disjoint union of the molecules, with the
atom and bond offsets of each, which the fingerprint hash and the encoder
read in blocks. `parse_smiles` is its one-molecule case, so there is one
grammar; `MoleculeSet.of` lays out a list of parsed molecules the same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    RingUnclosedError,
    SmilesError,
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


# Bond symbol -> BondOrder value.
_BOND_SYMBOLS = {"-": BondOrder.SINGLE.value, "=": BondOrder.DOUBLE.value,
                 "#": BondOrder.TRIPLE.value, ":": BondOrder.AROMATIC.value}
_SINGLE, _AROMATIC = BondOrder.SINGLE.value, BondOrder.AROMATIC.value
# Atom token -> (index into ELEMENTS, aromatic flag, formal charge 0), inside
# brackets too.
_ATOMS = {**{e: (k, False, 0) for k, e in enumerate(ELEMENTS)},
          **{a: (ELEMENTS.index(a.upper()), True, 0) for a in AROMATIC_ELEMENTS}}
# Two-letter elements, %nn ring numbers and bracket atoms (to the first ']',
# or to the end when it is unterminated), else one character, newline too:
# under DOTALL the tokens tile the input, so their lengths give positions.
_TOKEN = re.compile(r"Cl|Br|%\d\d|\[[^\]]*\]?|.", re.DOTALL)
# A bracket atom's element, optional hydrogen count, and charge: a sign and a
# number, or a run of one sign.
_BRACKET = re.compile(r"(?P<element>Cl|Br|[BCNOPSFIbcnops])(?:H\d*)?"
                      r"(?:(?P<sign>[+-])(?:(?P<digits>\d+)|(?P<more>(?P=sign)*)))?")


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


@dataclass(frozen=True, eq=False)
class MoleculeSet:
    """Molecules laid out as one graph, their disjoint union: molecule i is
    atoms atom_start[i]:atom_start[i + 1] and bonds
    bond_start[i]:bond_start[i + 1] of `graph`, its bond endpoints offset by
    atom_start[i], the block-diagonal batch of PyG."""

    graph: MolecularGraph
    atom_start: np.ndarray  # (molecules + 1,) intp
    bond_start: np.ndarray  # (molecules + 1,) intp

    @classmethod
    def of(cls, mols: Sequence[MolecularGraph]) -> "MoleculeSet":
        """The set of the molecules `mols`, in their order."""
        if not len(mols):
            return parse_many([])
        arrays = {f.name: np.concatenate([getattr(g, f.name) for g in mols])
                  for f in fields(MolecularGraph)}
        atom_start = np.cumsum([0] + [len(g.element) for g in mols], dtype=np.intp)
        bond_start = np.cumsum([0] + [len(g.bonds) for g in mols], dtype=np.intp)
        arrays["bonds"] += np.repeat(atom_start[:-1], np.diff(bond_start))[:, None]
        return cls(MolecularGraph(**arrays), atom_start, bond_start)

    def __len__(self) -> int:
        return len(self.atom_start) - 1

    def molecule(self, i: int) -> MolecularGraph:
        """Molecule i on its own."""
        return self._slice(i, i + 1)

    def block(self, lo: int, hi: int) -> Tuple[MolecularGraph, np.ndarray]:
        """Molecules lo to hi - 1 as one graph, and each of its atoms'
        molecule index counted from lo."""
        atoms = np.diff(self.atom_start[lo : hi + 1])
        return self._slice(lo, hi), np.repeat(np.arange(hi - lo), atoms)

    def _slice(self, lo: int, hi: int) -> MolecularGraph:
        g = self.graph
        a0, a1 = self.atom_start[lo], self.atom_start[hi]
        b0, b1 = self.bond_start[lo], self.bond_start[hi]
        return MolecularGraph(g.element[a0:a1], g.charge[a0:a1], g.aromatic[a0:a1],
                              g.degree[a0:a1], g.bonds[b0:b1] - a0, g.order[b0:b1])


def _parse_bracket_atom(token: str, pos: int) -> Tuple[int, bool, int]:
    """The element index, aromatic flag and formal charge of a bracket atom
    token that starts at `pos`."""
    if not token.endswith("]"):
        raise SmilesSyntaxError(f"unterminated bracket atom at position {pos}")
    body = token[1:-1]
    if not body:
        raise SmilesSyntaxError(f"empty bracket atom at position {pos}")
    if body[0].isdigit():
        raise UnsupportedFeatureError(f"isotope specification not supported: [{body}]")
    m = _BRACKET.match(body)
    if m is None:
        raise UnsupportedFeatureError(f"unsupported element in bracket atom: [{body}]")
    if m.end() < len(body):
        bad = body[m.end()]
        if bad in "@/\\*":
            raise UnsupportedFeatureError(f"stereo/wildcard markers not supported: [{body}]")
        raise SmilesSyntaxError(f"illegal token '{bad}' in bracket atom [{body}]")
    charge = 0
    if m["sign"]:
        # Eleven significant digits tell whether a charge is in range and
        # stay within int()'s limit on digits.
        size = int(m["digits"].lstrip("0")[:11] or 0) if m["digits"] else 1 + len(m["more"])
        charge = size if m["sign"] == "+" else -size
    if abs(charge) > _CHARGE_LIMIT:
        raise SmilesSyntaxError(f"formal charge out of range in bracket atom [{body}]")
    element, aromatic, _ = _ATOMS[m["element"]]
    return element, aromatic, charge


def _parse_into(text: str, atoms: List[Tuple[int, bool, int]], ends: List[int],
                orders: List[int]) -> None:
    """Append the atoms of one SMILES to `atoms` as (element, aromatic,
    charge), and its bonds to `ends` as endpoint pairs a < b and to `orders`
    as BondOrder values, in parse order. Endpoints count from the molecule's
    own first atom, so they stay small ints."""
    if not isinstance(text, str) or not text:
        raise SmilesSyntaxError("input must be a non-empty string")
    if not text.isascii():
        raise SmilesSyntaxError("input must be ASCII")
    first = len(atoms)
    bonds = set()  # this molecule's (a, b) pairs
    branches: List[int] = []
    # ring number -> (open atom, bond symbol written at the opening or None)
    rings: Dict[int, Tuple[int, Optional[int]]] = {}
    prev = pending = None  # the atom the next bonds to; the bond symbol read for it
    end = 0
    for tok in _TOKEN.findall(text):
        pos, end = end, end + len(tok)
        atom = _ATOMS.get(tok)
        if atom is not None or tok[0] == "[":
            atoms.append(atom or _parse_bracket_atom(tok, pos))
            link, prev = prev, len(atoms) - 1 - first
        elif tok in _BOND_SYMBOLS:
            if prev is None:
                raise SmilesSyntaxError(f"bond symbol before any atom at position {pos}")
            if pending is not None:
                raise SmilesSyntaxError(f"two consecutive bond symbols at position {pos}")
            pending, pending_pos = _BOND_SYMBOLS[tok], pos
            continue
        elif tok == "(":
            if prev is None:
                raise SmilesSyntaxError("branch opened before any atom")
            branches.append(prev)
            continue
        elif tok == ")":
            if not branches:
                raise UnbalancedParenError(f"unmatched ')' at position {pos}")
            if pending is not None:
                raise SmilesSyntaxError(f"bond symbol at position {pending_pos} "
                                        f"ends a branch without an atom")
            prev = branches.pop()
            continue
        elif tok.isdigit() or tok[0] == "%":
            if prev is None:
                raise SmilesSyntaxError("ring closure before any atom")
            if tok == "%":
                raise SmilesSyntaxError(f"malformed %nn ring closure at position {pos}")
            num = int(tok.lstrip("%"))
            if num not in rings:
                rings[num], pending = (prev, pending), None
                continue
            link, opened = rings.pop(num)
            if opened is not None and pending is not None and opened != pending:
                raise SmilesSyntaxError(f"conflicting bond orders for ring closure {num}")
            pending = opened if pending is None else pending
        elif tok == ".":
            raise UnsupportedFeatureError("multi-fragment SMILES ('.') not supported")
        elif tok in "@/\\*~":
            raise UnsupportedFeatureError(f"unsupported feature '{tok}' at position {pos}")
        else:
            raise SmilesSyntaxError(f"illegal token '{tok}' at position {pos}")
        if link is not None:  # only a ring closure can bond an atom to itself or repeat a bond
            if link == prev:
                raise SmilesSyntaxError("ring closure bonds an atom to itself")
            key = (link, prev) if link < prev else (prev, link)
            if key in bonds:
                raise SmilesSyntaxError(f"duplicate bond between atoms {prev} and {link}")
            bonds.add(key)
            ends += key
            orders.append(pending if pending is not None
                          else _AROMATIC if atoms[first + link][1] and atoms[first + prev][1]
                          else _SINGLE)
        pending = None

    if branches:
        raise UnbalancedParenError(f"{len(branches)} unclosed '(' in input")
    if rings:
        raise RingUnclosedError(f"dangling ring closure digit(s): {sorted(rings)}")
    if pending is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if len(atoms) == first:
        raise SmilesSyntaxError("no atoms parsed")


def parse_many(texts: Sequence[str]) -> MoleculeSet:
    """Parse SMILES strings under the documented subset grammar into one set,
    in their order.

    The first string that does not parse raises SmilesSyntaxError,
    RingUnclosedError, UnbalancedParenError or UnsupportedFeatureError, with
    its position in `texts` as the error's `index`; no partial set is
    returned.
    """
    atoms: List[Tuple[int, bool, int]] = []
    ends: List[int] = []
    orders: List[int] = []
    atom_start, bond_start = [0], [0]
    for index, text in enumerate(texts):
        try:
            _parse_into(text, atoms, ends, orders)
        except SmilesError as exc:
            exc.index = index
            raise
        atom_start.append(len(atoms))
        bond_start.append(len(orders))
    element, aromatic, charge = zip(*atoms) if atoms else ((), (), ())
    atom_start = np.array(atom_start, dtype=np.intp)
    bond_start = np.array(bond_start, dtype=np.intp)
    edges = np.array(ends, dtype=np.intp).reshape(-1, 2)
    edges += np.repeat(atom_start[:-1], np.diff(bond_start))[:, None]
    graph = MolecularGraph(
        np.array(element, dtype=np.intp), np.array(charge, dtype=np.int32),
        np.array(aromatic, dtype=bool), np.bincount(edges.ravel(), minlength=len(atoms)),
        edges, np.array(orders, dtype=np.intp))
    return MoleculeSet(graph, atom_start, bond_start)


def parse_smiles(text: str) -> MolecularGraph:
    """Parse one SMILES string: the graph of `parse_many([text])`, whose one
    molecule it is.

    Raises SmilesSyntaxError, RingUnclosedError, UnbalancedParenError, or
    UnsupportedFeatureError; never returns a partially built graph.
    """
    return parse_many([text]).graph


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
