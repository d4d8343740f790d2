"""Morgan-style circular (ECFP) fingerprints of a molecule set.

Environment identifiers are 64-bit FNV-1a hashes over a canonical byte
serialization of (atom invariants, sorted neighbor identifiers, bond orders),
so bit layouts are reproducible across platforms and runs. The radius-0
identifier hashes the element name followed by
`struct.pack("<iBI", charge, aromatic, degree)`; each later round hashes
`struct.pack("<Q", id)` followed by `struct.pack("<BQ", code, neighbor_id)`
for the atom's (bond code, neighbor identifier) pairs in sorted order, where
the bond code is the `BondOrder` value + 1. `tests/oracles.py` keeps the
per-atom Python form of this hash as the reference.
"""

from __future__ import annotations

import numpy as np

from .molparse import ELEMENTS, MolecularGraph, MoleculeSet

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)
# Molecules hashed at a time: bounds the block's atom and byte arrays.
_FP_BLOCK = 64


def _fnv1a_rows(data: np.ndarray, h: np.ndarray) -> np.ndarray:
    """FNV-1a of each row of the uint8 matrix `data`, continuing in place
    from the uint64 states `h`. Array products wrap mod 2**64."""
    for col in data.T:
        h ^= col
        h *= _FNV_PRIME
    return h


def _le_bytes(values: np.ndarray, dtype: str) -> np.ndarray:
    """(n, itemsize) uint8: each value in the little-endian `dtype`."""
    values = np.ascontiguousarray(values, dtype=dtype)
    return values.view(np.uint8).reshape(-1, values.itemsize)


# FNV-1a state after each element's name bytes, indexed like ELEMENTS.
_ELEMENT_STATE = np.array([
    _fnv1a_rows(np.frombuffer(e.encode("ascii"), np.uint8)[None, :],
                np.full(1, _FNV_OFFSET))[0]
    for e in ELEMENTS], dtype=np.uint64)


def _fingerprint_block(g: MolecularGraph, mol_of_atom: np.ndarray, radius: int,
                       out: np.ndarray):
    """Set in `out` (molecules, nbits) the folded identifier bits of the
    molecules of `g`, a block of a `MoleculeSet`; atom i belongs to row
    mol_of_atom[i]."""
    src, dst = np.concatenate([g.bonds, g.bonds[:, ::-1]]).T
    codes = np.tile(g.order.astype(np.uint8) + 1, 2)

    invariants = np.hstack([
        _le_bytes(g.charge, "<i4"),
        g.aromatic.astype(np.uint8)[:, None],
        _le_bytes(g.degree, "<u4"),
    ])
    ids = _fnv1a_rows(invariants, _ELEMENT_STATE[g.element])
    rounds = [ids]

    # Sorted by source atom, each atom's g.degree directed edges are contiguous.
    first_edge = np.cumsum(g.degree) - g.degree
    for _ in range(radius):
        order = np.lexsort((ids[dst], codes, src))  # per atom, sorted (code, id) pairs
        nbr_codes, nbr_bytes = codes[order], _le_bytes(ids[dst[order]], "<u8")
        id_bytes = _le_bytes(ids, "<u8")
        nxt = np.empty_like(ids)
        for d in np.flatnonzero(np.bincount(g.degree)).tolist():  # the degrees present
            at = np.flatnonzero(g.degree == d)
            edges = first_edge[at][:, None] + np.arange(d)
            rows = np.empty((len(at), 8 + 9 * d), dtype=np.uint8)
            rows[:, :8] = id_bytes[at]
            pairs = rows[:, 8:].reshape(len(at), d, 9)
            pairs[:, :, 0] = nbr_codes[edges]
            pairs[:, :, 1:] = nbr_bytes[edges]
            nxt[at] = _fnv1a_rows(rows, np.full(len(at), _FNV_OFFSET))
        ids = nxt
        rounds.append(ids)

    nbits = out.shape[1]
    bits = np.concatenate(rounds) & np.uint64(nbits - 1)
    out[np.tile(mol_of_atom, radius + 1), bits.astype(np.intp)] = 1.0


def morgan_fingerprint(mols: MoleculeSet, radius: int = 2, nbits: int = 1024) -> np.ndarray:
    """The (len(mols), nbits) float32 0/1 matrix whose row i has bit
    `identifier % nbits` set for every environment identifier of molecule i
    at radii 0..radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if nbits < 64 or nbits & (nbits - 1):
        raise ValueError("nbits must be a power of two >= 64")
    out = np.zeros((len(mols), nbits), dtype=np.float32)
    for b0 in range(0, len(mols), _FP_BLOCK):
        b1 = min(b0 + _FP_BLOCK, len(mols))
        _fingerprint_block(*mols.block(b0, b1), radius, out[b0:b1])
    return out
