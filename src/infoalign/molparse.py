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
last token.

A `MolecularGraph` holds per-atom arrays (element index into `ELEMENTS`,
formal charge, aromatic flag, degree) and per-bond arrays in parse order
(endpoints a < b, `BondOrder` code), the layout of PyG's atom features and
edge index. `union` lays a molecule set out as one such graph, the disjoint
union that the fingerprint hash and the encoder both read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

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
# Atom token -> (index into ELEMENTS, aromatic flag), inside brackets too.
_ATOMS = {**{e: (k, False) for k, e in enumerate(ELEMENTS)},
          **{a: (ELEMENTS.index(a.upper()), True) for a in AROMATIC_ELEMENTS}}
# Two-letter elements, %nn ring numbers and bracket atoms (to the first ']',
# or to the end when it is unterminated), else one character, newline too.
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
    return (*_ATOMS[m["element"]], charge)


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string under the documented subset grammar.

    Raises SmilesSyntaxError, RingUnclosedError, UnbalancedParenError, or
    UnsupportedFeatureError; never returns a partially built graph.
    """
    if not isinstance(text, str) or not text:
        raise SmilesSyntaxError("input must be a non-empty string")
    if not text.isascii():
        raise SmilesSyntaxError("input must be ASCII")
    atoms: List[Tuple[int, bool, int]] = []  # (element, aromatic, charge)
    bonds: Dict[Tuple[int, int], BondOrder] = {}  # (a, b) with a < b -> order, in parse order
    branches: List[int] = []
    # ring number -> (open atom, bond symbol written at the opening or None)
    rings: Dict[int, Tuple[int, Optional[BondOrder]]] = {}
    prev = pending = None  # the atom the next bonds to; the bond symbol read for it
    for m in _TOKEN.finditer(text):
        tok, pos = m[0], m.start()
        if tok in _ATOMS or tok[0] == "[":
            atoms.append((*_ATOMS[tok], 0) if tok in _ATOMS else _parse_bracket_atom(tok, pos))
            link, prev = prev, len(atoms) - 1
        elif tok in _BOND_SYMBOLS:
            if pending is not None:
                raise SmilesSyntaxError(f"two consecutive bond symbols at position {pos}")
            pending = _BOND_SYMBOLS[tok]
            continue
        elif tok == "(":
            if prev is None:
                raise SmilesSyntaxError("branch opened before any atom")
            branches.append(prev)
            continue
        elif tok == ")":
            if not branches:
                raise UnbalancedParenError(f"unmatched ')' at position {pos}")
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
            key = (min(link, prev), max(link, prev))
            if key in bonds:
                raise SmilesSyntaxError(f"duplicate bond between atoms {prev} and {link}")
            aromatic = atoms[link][1] and atoms[prev][1]
            bonds[key] = (pending if pending is not None
                          else BondOrder.AROMATIC if aromatic else BondOrder.SINGLE)
        pending = None

    if branches:
        raise UnbalancedParenError(f"{len(branches)} unclosed '(' in input")
    if rings:
        raise RingUnclosedError(f"dangling ring closure digit(s): {sorted(rings)}")
    if pending is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if not atoms:
        raise SmilesSyntaxError("no atoms parsed")
    element, aromatic, charge = zip(*atoms)
    edges = np.array(list(bonds), dtype=np.intp).reshape(-1, 2)
    return MolecularGraph(
        np.array(element, dtype=np.intp), np.array(charge, dtype=np.int32),
        np.array(aromatic, dtype=bool), np.bincount(edges.ravel(), minlength=len(atoms)),
        edges, np.array(list(bonds.values()), dtype=np.intp))


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
