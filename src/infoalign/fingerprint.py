"""Morgan-style circular fingerprints and the shared cosine utility.

Environment identifiers are 64-bit FNV-1a hashes over a canonical byte
serialization of (atom invariants, sorted neighbor identifiers, bond orders),
so bit layouts are reproducible across platforms and runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from .errors import ZeroVectorError
from .molparse import BondOrder, MolecularGraph

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1

_BOND_CODE = {
    BondOrder.SINGLE: 1,
    BondOrder.DOUBLE: 2,
    BondOrder.TRIPLE: 3,
    BondOrder.AROMATIC: 4,
}


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


@dataclass
class BitFingerprint:
    bits: np.ndarray  # bool vector
    radius: int

    @property
    def nbits(self) -> int:
        return len(self.bits)

    def count(self) -> int:
        return int(self.bits.sum())

    def to_hex(self) -> str:
        return np.packbits(self.bits.astype(np.uint8)).tobytes().hex()

    def to_float(self) -> np.ndarray:
        return self.bits.astype(np.float32)


def environment_identifiers(g: MolecularGraph, radius: int) -> Set[int]:
    """Pre-fold identifier set over all atoms and radii 0..radius.

    The radius-0 identifier hashes (element, charge, aromatic, degree); each
    subsequent round hashes the previous identifier with the sorted
    (bond code, neighbor identifier) pairs.
    """
    # (neighbor, order) per atom in bond order, as MolecularGraph.neighbors() lists them
    adjacency: List[List[Tuple[int, BondOrder]]] = [[] for _ in g.atoms]
    for bond in g.bonds:
        adjacency[bond.a].append((bond.b, bond.order))
        adjacency[bond.b].append((bond.a, bond.order))
    ids = [
        _fnv1a(
            a.element.encode("ascii")
            + struct.pack("<iBI", a.formal_charge, int(a.aromatic), len(adjacency[a.index]))
        )
        for a in g.atoms
    ]
    collected = set(ids)
    for _ in range(radius):
        nxt = []
        for i in range(len(g.atoms)):
            env = sorted(
                (_BOND_CODE[order], ids[j]) for j, order in adjacency[i]
            )
            blob = struct.pack("<Q", ids[i]) + b"".join(
                struct.pack("<BQ", code, nid) for code, nid in env
            )
            nxt.append(_fnv1a(blob))
        ids = nxt
        collected.update(ids)
    return collected


def morgan_fingerprint(g: MolecularGraph, radius: int = 2, nbits: int = 1024) -> BitFingerprint:
    """Fold the environment identifiers into an nbits-long bit vector."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if nbits < 64 or nbits & (nbits - 1):
        raise ValueError("nbits must be a power of two >= 64")
    bits = np.zeros(nbits, dtype=bool)
    for ident in environment_identifiers(g, radius):
        bits[ident % nbits] = True
    return BitFingerprint(bits, radius)


def cosine(u, v) -> float:
    """Cosine similarity; raises ZeroVectorError instead of returning NaN."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVectorError("cosine undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))
