"""Morgan-style circular (ECFP) fingerprints.

Environment identifiers are 64-bit FNV-1a hashes over a canonical byte
serialization of (atom invariants, sorted neighbor identifiers, bond orders),
so bit layouts are reproducible across platforms and runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from .molparse import ELEMENTS, MolecularGraph

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1
_ELEMENT_BYTES = [e.encode("ascii") for e in ELEMENTS]


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
    (bond code, neighbor identifier) pairs, where the bond code is the
    `BondOrder` value + 1.
    """
    # (neighbor, bond code) per atom, in bond order
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(len(g.element))]
    for (a, b), order in zip(g.bonds.tolist(), g.order.tolist()):
        adjacency[a].append((b, order + 1))
        adjacency[b].append((a, order + 1))
    ids = [
        _fnv1a(_ELEMENT_BYTES[e] + struct.pack("<iBI", charge, aromatic, degree))
        for e, charge, aromatic, degree in zip(g.element.tolist(), g.charge.tolist(),
                                               g.aromatic.tolist(), g.degree.tolist())
    ]
    collected = set(ids)
    for _ in range(radius):
        nxt = []
        for i, nbrs in enumerate(adjacency):
            env = sorted((code, ids[j]) for j, code in nbrs)
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
