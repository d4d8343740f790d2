"""SMILES subset parser producing molecular graphs as arrays.

Supported grammar, the organic subset of Weininger's SMILES (J. Chem. Inf.
Comput. Sci. 28:31, 1988): organic-subset atoms (B, C, N, O, P, S, F, Cl,
Br, I), aromatic lowercase forms (b, c, n, o, p, s), bracket atoms with
explicit hydrogens and formal charge, branches, single-digit and %nn ring
closures, and the bond symbols ``- = # :``. Stereo markers, isotopes,
wildcards and multi-fragment input ('.') are rejected with a typed error
instead of being silently mis-parsed.

`parse_many` reads a list of SMILES as arrays, in blocks of whole molecules
of up to `_PARSE_BLOCK` bytes. A 256-entry table maps each byte to a token
kind; `Cl`, `Br` and `%nn` are merged into their first byte, and each
distinct bracket atom is read once. Branch depth is a cumsum, each ')' is
matched to its '(' by sorting on (molecule, level, position), the atom each
token bonds to is found by pointer jumping, ring numbers pair up per
(molecule, number) in order, and the bonds are laid out in the order of the
tokens that make them. The same pass decides which molecules are valid.

The token parser `_raise_first_fault` names the faults; valid input never
reaches it. When the array pass rejects a molecule, it reads that one string
and raises its first fault. It reads tokens, not characters: one pattern
splits the input into ``Cl``, ``Br``, ``%nn``, whole bracket atoms and
single characters, and one pattern reads a bracket atom's element, hydrogen
count and charge. Tokens are handled left to right and the first offending
one is reported, with its start as "position N" where the message gives one;
the checks that need the whole input (unclosed branches and rings, a
trailing bond) come after the last token. A bond symbol must sit between two
atoms of one chain: one before the first atom or before a ')' is an error,
not dropped or carried past the branch.

A `MolecularGraph` holds per-atom arrays (element index into `ELEMENTS`,
formal charge, aromatic flag, degree) and per-bond arrays in parse order
(endpoints a < b, `BondOrder` code), the layout of PyG's atom features and
edge index. `parse_many` parses a whole list of SMILES into one
`MoleculeSet`: one such graph, the disjoint union of the molecules, with the
atom and bond offsets of each, which the fingerprint hash and the encoder
read in blocks. `parse_smiles` is its one-molecule case, so there is one
grammar; `MoleculeSet.take` gathers some of a set's molecules, in any
order, into a set of their own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
# Bytes of SMILES that `parse_many` reads in one array pass. Measured on 2
# cores (numpy 2.4.6), median of 41, on the synth seed-1 recovery list (200
# SMILES of 52 characters) and evaluate list (1000 of 15): 3.5 and 5.4 ms at
# 1024 bytes, 1.9 and 2.7 ms at 4096, 1.6 and 2.3 ms at 8192, 1.3 and 2.0 ms
# for the whole list in one pass; tracemalloc peaks 0.47 and 0.75 MB at
# 1024, 0.46 and 0.74 MB at 4096, 0.61 and 0.73 MB at 8192, 0.78 and 1.19 MB
# in one pass.
_PARSE_BLOCK = 8192


class BondOrder(IntEnum):
    SINGLE = 0
    DOUBLE = 1
    TRIPLE = 2
    AROMATIC = 3


# Bond symbol -> BondOrder value.
_BOND_SYMBOLS = {"-": BondOrder.SINGLE.value, "=": BondOrder.DOUBLE.value,
                 "#": BondOrder.TRIPLE.value, ":": BondOrder.AROMATIC.value}
_SINGLE, _AROMATIC = BondOrder.SINGLE.value, BondOrder.AROMATIC.value
# Atom token -> (index into ELEMENTS, aromatic flag), inside brackets too.
_ATOMS = {**{e: (k, False) for k, e in enumerate(ELEMENTS)},
          **{a: (ELEMENTS.index(a.upper()), True) for a in AROMATIC_ELEMENTS}}
# Two-letter elements, %nn ring numbers and bracket atoms (to the first ']',
# or to the end when it is unterminated), else one character, newline too:
# under DOTALL the tokens tile the input, so their lengths give positions.
_TOKEN = re.compile(r"Cl|Br|%\d\d|\[[^\]]*\]?|.", re.DOTALL)
# A bracket atom's element, optional hydrogen count, and charge: a sign and a
# number, or a run of one sign.
_BRACKET = re.compile(r"(?P<element>Cl|Br|[BCNOPSFIbcnops])(?:H\d*)?"
                      r"(?:(?P<sign>[+-])(?:(?P<digits>\d+)|(?P<more>(?P=sign)*)))?")


# Token kinds of the array pass; a bracket atom is an _ATOM once it parses.
_ATOM, _BOND, _OPEN, _CLOSE, _RING, _BAD = range(6)


def _byte_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per byte value: its token kind as a token of one character, the
    element index, bond order or ring number it carries, and its aromatic
    flag. Bytes that make no token of one character are _BAD; `[`, `%` and
    the second letter of `Cl` and `Br` are read by `_tokens`."""
    kind = np.full(256, _BAD, dtype=np.int8)
    value = np.zeros(256, dtype=np.int8)
    aromatic = np.zeros(256, dtype=bool)
    for tok, (element, arom) in _ATOMS.items():
        if len(tok) == 1:
            kind[ord(tok)], value[ord(tok)], aromatic[ord(tok)] = _ATOM, element, arom
    for sym, order in _BOND_SYMBOLS.items():
        kind[ord(sym)], value[ord(sym)] = _BOND, order
    kind[ord("(")], kind[ord(")")] = _OPEN, _CLOSE
    for d in range(10):
        kind[ord("0") + d], value[ord("0") + d] = _RING, d
    return kind, value, aromatic


_BYTE_KIND, _BYTE_VALUE, _BYTE_AROMATIC = _byte_tables()


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

    def __len__(self) -> int:
        return len(self.atom_start) - 1

    def take(self, rows: Sequence[int]) -> "MoleculeSet":
        """Molecules `rows`, in that order and repeats kept, as a set of their
        own, gathered from this set's arrays in one pass."""
        rows = np.asarray(rows, dtype=np.intp)
        g = self.graph
        atoms = self.atom_start[rows + 1] - self.atom_start[rows]
        bonds = self.bond_start[rows + 1] - self.bond_start[rows]
        atom_start = np.concatenate([[0], np.cumsum(atoms)]).astype(np.intp)
        bond_start = np.concatenate([[0], np.cumsum(bonds)]).astype(np.intp)
        # each gathered atom's and bond's index in this set
        a = np.repeat(self.atom_start[rows] - atom_start[:-1], atoms) + np.arange(atom_start[-1])
        b = np.repeat(self.bond_start[rows] - bond_start[:-1], bonds) + np.arange(bond_start[-1])
        shift = np.repeat(atom_start[:-1] - self.atom_start[rows], bonds)
        return MoleculeSet(MolecularGraph(g.element[a], g.charge[a], g.aromatic[a], g.degree[a],
                                          g.bonds[b] + shift[:, None], g.order[b]),
                           atom_start, bond_start)

    def block(self, lo: int, hi: int) -> Tuple[MolecularGraph, np.ndarray]:
        """Molecules lo to hi - 1 as one graph, and each of its atoms'
        molecule index counted from lo."""
        g = self.graph
        a0, a1 = self.atom_start[lo], self.atom_start[hi]
        b0, b1 = self.bond_start[lo], self.bond_start[hi]
        atoms = np.diff(self.atom_start[lo : hi + 1])
        return (MolecularGraph(g.element[a0:a1], g.charge[a0:a1], g.aromatic[a0:a1],
                               g.degree[a0:a1], g.bonds[b0:b1] - a0, g.order[b0:b1]),
                np.repeat(np.arange(hi - lo), atoms))


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
    element, aromatic = _ATOMS[m["element"]]
    return element, aromatic, charge


def _raise_first_fault(text: str) -> None:
    """Raise the first fault of one SMILES, or return if it parses. Only
    what the checks read is followed: the atom count, the open branches and
    rings, the bond symbol read for the next bond, and the bonded pairs
    (a, b), numbered from the molecule's first atom."""
    if not isinstance(text, str) or not text:
        raise SmilesSyntaxError("input must be a non-empty string")
    if not text.isascii():
        raise SmilesSyntaxError("input must be ASCII")
    atoms = 0
    bonds = set()
    branches: List[int] = []
    # ring number -> (open atom, bond symbol written at the opening or None)
    rings: Dict[int, Tuple[int, Optional[str]]] = {}
    prev = pending = None  # the atom the next bonds to; the bond symbol read for it
    end = 0
    for tok in _TOKEN.findall(text):
        pos, end = end, end + len(tok)
        if tok in _ATOMS or tok[0] == "[":
            if tok[0] == "[":
                _parse_bracket_atom(tok, pos)
            link, prev = prev, atoms
            atoms += 1
        elif tok in _BOND_SYMBOLS:
            if prev is None:
                raise SmilesSyntaxError(f"bond symbol before any atom at position {pos}")
            if pending is not None:
                raise SmilesSyntaxError(f"two consecutive bond symbols at position {pos}")
            pending, pending_pos = tok, pos
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
        pending = None

    if branches:
        raise UnbalancedParenError(f"{len(branches)} unclosed '(' in input")
    if rings:
        raise RingUnclosedError(f"dangling ring closure digit(s): {sorted(rings)}")
    if pending is not None:
        raise SmilesSyntaxError("trailing bond symbol")
    if not atoms:
        raise SmilesSyntaxError("no atoms parsed")


def _tokens(texts: Sequence[str]) -> Tuple[np.ndarray, ...]:
    """The tokens of `texts` joined, non-empty ASCII strings: per token its
    kind, its element index, bond order or ring number, its aromatic flag,
    its charge and its molecule, and each molecule's first token."""
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    text = "\n".join([*texts, ""])  # a separator after each molecule
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    n, ends = len(buf), np.cumsum(lengths + 1) - 1
    sep = np.zeros(n, dtype=bool)
    sep[ends] = True
    # A bracket atom runs from '[' to the first ']' or to its molecule's
    # end; a '[' inside it starts no token.
    stops = np.flatnonzero(sep | (buf == ord("]")))
    lb = np.flatnonzero(buf == ord("["))
    rb = stops[np.searchsorted(stops, lb)]
    keep = np.ones(len(lb), dtype=bool)
    keep[1:] = rb[1:] != rb[:-1]
    lb, rb = lb[keep], rb[keep]
    cover = np.zeros(n + 1, dtype=np.int8)
    cover[lb] += 1
    cover[rb + 1] -= 1
    out = ~(sep | (np.cumsum(cover[:n], dtype=np.int8) > 0))
    kind, value, aromatic = _BYTE_KIND[buf], _BYTE_VALUE[buf], _BYTE_AROMATIC[buf]
    charge = np.zeros(n, dtype=np.int32)
    # Cl, Br and %nn: the token's first byte carries it, the rest start none.
    two = np.flatnonzero(out[:-1] & (((buf[:-1] == ord("C")) & (buf[1:] == ord("l")))
                                     | ((buf[:-1] == ord("B")) & (buf[1:] == ord("r")))))
    kind[two] = _ATOM
    value[two] = np.where(buf[two] == ord("C"), _ATOMS["Cl"][0], _ATOMS["Br"][0])
    digit = kind == _RING
    pct = np.flatnonzero(out[:-2] & (buf[:-2] == ord("%")) & digit[1:-1] & digit[2:])
    kind[pct], value[pct] = _RING, 10 * value[pct + 1] + value[pct + 2]
    start = out
    start[np.concatenate([two + 1, pct + 1, pct + 2])] = False
    start[lb] = True
    parsed: Dict[str, Optional[Tuple[int, bool, int]]] = {}
    for p, q in zip(lb.tolist(), rb.tolist()):
        token = text[p : q + 1]  # an unterminated one ends in the separator
        if token not in parsed:
            try:
                parsed[token] = _parse_bracket_atom(token, p)
            except SmilesError:
                parsed[token] = None
        atom = parsed[token]
        if atom is not None:
            kind[p], (value[p], aromatic[p], charge[p]) = _ATOM, atom
    tok = np.flatnonzero(start)
    return (kind[tok], value[tok], aromatic[tok], charge[tok], np.searchsorted(ends, tok),
            np.searchsorted(tok, ends - lengths))


def _current_atoms(kind: np.ndarray, mol: np.ndarray, first: np.ndarray,
                   bad: np.ndarray) -> np.ndarray:
    """The atom each token leaves current, counted from the block's first,
    by pointer jumping: an atom is its own, a ')' takes that of the token
    before its '(', any other token that of the token before it. Marks in
    `bad` each molecule whose branches do not balance."""
    # Depth within the molecule from a cumsum, and each ')' matched to its
    # '(' as the one before it at its level.
    par = np.flatnonzero((kind == _OPEN) | (kind == _CLOSE))
    step = np.where(kind[par] == _OPEN, 1, -1)
    pm = mol[par]
    depth = np.cumsum(step)
    lead = np.searchsorted(pm, pm)
    depth -= depth[lead] - step[lead]
    last = np.ones(len(par), dtype=bool)
    last[:-1] = pm[1:] != pm[:-1]
    bad[pm[(depth < 0) | (last & (depth != 0))]] = True
    order = np.lexsort((depth + (step < 0), pm))
    k = np.flatnonzero(step[order] < 0)
    closes, opens = par[order[k]], par[order[np.maximum(k - 1, 0)]]
    is_atom = kind == _ATOM
    ptr = np.arange(-1, len(kind) - 1)
    ptr[is_atom] = np.flatnonzero(is_atom)
    ptr[closes] = np.where((opens > 0) & (opens <= closes), opens - 1, closes)
    ptr[first] = first
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    return (np.cumsum(is_atom) - 1)[ptr]


def _pending(kind: np.ndarray, value: np.ndarray, mol: np.ndarray,
             bad: np.ndarray) -> np.ndarray:
    """The BondOrder value of the bond symbol each token takes, or -1. A
    bond symbol binds the next token but '(', which must be an atom or a
    ring number of its molecule; `bad` marks each molecule where it is
    not."""
    pending = np.full(len(kind), -1, dtype=np.int8)
    nonopen = np.flatnonzero(kind != _OPEN)
    bt = np.flatnonzero(kind == _BOND)
    at = np.searchsorted(nonopen, bt) + 1
    nb = nonopen[np.minimum(at, len(nonopen) - 1)]
    ok = (at < len(nonopen)) & (mol[nb] == mol[bt]) & ((kind[nb] == _ATOM) | (kind[nb] == _RING))
    bad[mol[bt[~ok]]] = True
    pending[nb[ok]] = value[bt[ok]]
    return pending


def _parse_block(texts: Sequence[str]) -> Union[int, Tuple[np.ndarray, ...]]:
    """The molecules of `texts`, non-empty ASCII strings, in one array pass:
    the element, aromatic flag and charge of each atom, the endpoints a < b
    of each bond, counted from the block's first atom, and its BondOrder
    value, in parse order, and each molecule's atom and bond counts, in
    compact dtypes; or, as an int, the index in `texts` of the first that
    does not parse."""
    kind, value, aromatic, charge, mol, first = _tokens(texts)
    bad = np.zeros(len(texts), dtype=bool)
    bad[mol[kind == _BAD]] = True
    bad |= kind[first] != _ATOM
    cur = _current_atoms(kind, mol, first, bad)
    pending = _pending(kind, value, mol, bad)

    # Ring numbers pair up per (molecule, number) in order: each even one
    # opens, the next closes.
    rt = np.flatnonzero(kind == _RING)
    key = mol[rt] * 100 + value[rt]
    by_key = np.argsort(key, kind="stable")
    rt, key = rt[by_key], key[by_key]
    opening = (np.arange(len(rt)) - np.searchsorted(key, key)) % 2 == 0
    last = np.ones(len(rt), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    bad[mol[rt[last & opening]]] = True
    c = np.flatnonzero(~opening)
    ro, rc = rt[c - 1], rt[c]
    x, y = cur[ro], cur[rc]
    po, pc = pending[ro], pending[rc]
    bad[mol[rc[(x == y) | ((po >= 0) & (pc >= 0) & (po != pc))]]] = True
    ring_lo, ring_hi = np.minimum(x, y), np.maximum(x, y)

    # Each atom but its molecule's first bonds to the current atom before
    # it; a bond's slot is the count of the tokens before it that make one.
    is_atom = kind == _ATOM
    chain = is_atom.copy()
    chain[first] = False
    makes = chain.copy()
    makes[rc] = True
    slot = np.cumsum(makes) - 1
    chain = np.flatnonzero(chain)
    # Only a ring closure can repeat a bond: that of its higher atom's chain
    # bond, or that of a ring closure before it.
    natoms = int(np.count_nonzero(is_atom))
    link = np.full(natoms + 1, -1)  # the chain bond's lower atom; [-1] for non-atoms
    link[cur[chain]] = cur[chain - 1]
    pair = ring_lo * (natoms + 1) + ring_hi
    by_pair = np.argsort(pair, kind="stable")
    again = by_pair[np.flatnonzero(pair[by_pair][1:] == pair[by_pair][:-1]) + 1]
    bad[mol[rc[link[ring_hi] == ring_lo]]] = True
    bad[mol[rc[again]]] = True
    if bad.any():
        return int(np.argmax(bad))
    edges = np.empty((len(chain) + len(rc), 2), dtype=np.int32)
    order = np.empty(len(edges), dtype=np.int8)
    edges[slot[chain]] = np.stack([cur[chain - 1], cur[chain]], axis=1)
    order[slot[chain]] = pending[chain]
    edges[slot[rc]] = np.stack([ring_lo, ring_hi], axis=1)
    order[slot[rc]] = np.where(pc >= 0, pc, po)
    flag = aromatic[is_atom]
    both = flag[edges[:, 0]] & flag[edges[:, 1]]
    order[order < 0] = np.where(both, _AROMATIC, _SINGLE)[order < 0]
    return (value[is_atom], flag, charge[is_atom], edges, order,
            np.bincount(mol[is_atom], minlength=len(texts)),
            np.bincount(mol[makes], minlength=len(texts)))


def parse_many(texts: Sequence[str]) -> MoleculeSet:
    """Parse SMILES strings under the documented subset grammar into one set,
    in their order.

    The first string that does not parse raises SmilesSyntaxError,
    RingUnclosedError, UnbalancedParenError or UnsupportedFeatureError, with
    its position in `texts` as the error's `index`; no partial set is
    returned.
    """
    lengths = []  # of the leading texts that are non-empty ASCII strings
    for text in texts:
        if not (isinstance(text, str) and text and text.isascii()):
            break
        lengths.append(len(text))
    # each text's first byte, the texts joined with separators
    starts = np.concatenate([[0], np.cumsum(np.array(lengths, dtype=np.intp) + 1)])
    blocks, spans, lo = [], [], 0
    while lo < len(lengths) or not blocks:
        # whole texts of up to _PARSE_BLOCK bytes, and at least one
        hi = int(np.searchsorted(starts, starts[lo] + _PARSE_BLOCK, side="right")) - 1
        hi = min(max(lo + 1, hi), len(lengths))
        block = _parse_block(texts[lo:hi])
        if isinstance(block, int):
            del lengths[lo + block :]
            break
        blocks.append(block)
        spans.append((lo, hi))
        lo = hi
    if len(lengths) < len(texts):
        # Text len(lengths) does not parse: the token parser names its fault.
        try:
            _raise_first_fault(texts[len(lengths)])
        except SmilesError as exc:
            exc.index = len(lengths)
            raise
        raise AssertionError(f"the array pass rejects SMILES {len(lengths)}, "
                             f"which the token parser takes")
    element, aromatic, charge, edges, order, atoms, bonds = (
        np.concatenate(col, dtype=dtype) for col, dtype in
        zip(zip(*blocks), (np.intp, bool, np.int32, np.intp, np.intp, np.intp, np.intp)))
    atom_start = np.concatenate([[0], np.cumsum(atoms)]).astype(np.intp)
    bond_start = np.concatenate([[0], np.cumsum(bonds)]).astype(np.intp)
    for lo, hi in spans:  # number each block's atoms on from those before it
        edges[bond_start[lo] : bond_start[hi]] += atom_start[lo]
    graph = MolecularGraph(element, charge, aromatic,
                           np.bincount(edges.ravel(), minlength=len(element)), edges, order)
    return MoleculeSet(graph, atom_start, bond_start)


def parse_smiles(text: str) -> MolecularGraph:
    """Parse one SMILES string: the graph of `parse_many([text])`, whose one
    molecule it is.

    Raises SmilesSyntaxError, RingUnclosedError, UnbalancedParenError, or
    UnsupportedFeatureError; never returns a partially built graph.
    """
    return parse_many([text]).graph


def read_smiles_file(path) -> List[Tuple[int, str, Optional[str]]]:
    """(line number, SMILES, id) per SMILES line of a file. Blank lines and
    '#' comment lines are skipped; a line's SMILES is its first
    whitespace-separated field, and its id the second, None if it has none."""
    out = []
    for lineno, line in text_lines(path):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            out.append((lineno, fields[0], fields[1] if len(fields) > 1 else None))
    return out
