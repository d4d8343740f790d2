"""Per-atom oracles for the array paths, the training step's slow paths, and
a fixed SMILES set.

Each `reference_*` molecule oracle walks one molecule atom by atom in Python
and takes every degree and neighbour list from its own scan of the bond list,
so it shares neither the parser's degree array nor the fingerprint's arrays.
`environment_identifiers` is the per-molecule hash that the set-at-once
`morgan_fingerprint` replaced: it reads the parser's degrees and adjacency
from the bond arrays. `reference_scatter_add` and `reference_adam_step` are
the `np.add.at` scatter and the per-parameter Adam loop that the row index
tables and the flat parameter buffer replaced. `reference_top_pairs` is the
full sort of every similarity candidate that the partition cut replaced.
"""

import struct
from typing import List, Set, Tuple

import numpy as np

from infoalign.model import ATOM_FEATURE_DIM
from infoalign.molparse import ELEMENTS, BondOrder, MolecularGraph

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_U64 = (1 << 64) - 1
_ELEMENT_BYTES = [e.encode("ascii") for e in ELEMENTS]

# Every element and bond symbol, aromatic rings of each aromatic element,
# bracket atoms with hydrogens and charges (clipped by the encoder past +-2),
# %nn and reused ring digits, ring-closure bond orders, and an atom of
# degree 6 (clipped by the encoder to 5).
FIXED_SMILES = [
    "C", "CC", "CCO", "O=C=O", "C#N", "C-C=C#C", "c1ccccc1", "c1ccncc1", "c1ccoc1",
    "c1ccsc1", "[nH]1cccc1", "b1ccccc1", "p1ccccc1", "c1ccc2ccccc2c1",
    "CC(=O)Oc1ccccc1C(=O)O", "C(C)(C)(C)(C)(C)C", "[NH4+]", "[O-]C(=O)CC[N+](C)(C)C",
    "OCC(O)(N)C1CC1[O-]", "C1CC2CCC1CC2", "N#CC(=O)[O-]", "ClC(Cl)(Cl)Br",
    "FC(F)(F)c1ccc(I)cc1", "B(O)(O)c1ccccc1", "P(=O)(O)(O)OCC", "CS(=O)(=O)N",
    "C%10CCC%10", "C=1CCCCC=1", "C1CC1C1CC1", "[C+2]", "[N--]", "[S+3]CC[C-3]",
    "S(F)(F)(F)(F)(F)F", "CSC", "CC(S)C", "CC(C)(CSCC(N)C(=O)O)c1ccc(Cl)c(Br)c1",
]


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


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


BOND_CODE = {BondOrder.SINGLE: 1, BondOrder.DOUBLE: 2, BondOrder.TRIPLE: 3,
             BondOrder.AROMATIC: 4}


def scanned_neighbors(g: MolecularGraph, i: int):
    """(neighbour, BondOrder) of atom i, in bond order, from a scan of every bond."""
    out = []
    for (a, b), order in zip(g.bonds.tolist(), g.order.tolist()):
        if a == i:
            out.append((b, BondOrder(order)))
        elif b == i:
            out.append((a, BondOrder(order)))
    return out


def reference_atom_features(g: MolecularGraph) -> np.ndarray:
    """The encoder's input rows: one-hot element, charge clipped to [-2, 2],
    aromatic flag and degree clipped to 5."""
    x = np.zeros((len(g.element), ATOM_FEATURE_DIM))
    for i in range(len(g.element)):
        x[i, int(g.element[i])] = 1.0
        x[i, 10 + min(max(int(g.charge[i]), -2), 2) + 2] = 1.0
        x[i, 15] = float(g.aromatic[i])
        x[i, 16 + min(len(scanned_neighbors(g, i)), 5)] = 1.0
    return x


def reference_environment_identifiers(g: MolecularGraph, radius: int) -> set:
    """ECFP identifiers: FNV-1a of (element, charge, aromatic, degree), then
    per round of the identifier and its sorted (bond code, neighbour id) pairs."""
    n = len(g.element)
    nbrs = [scanned_neighbors(g, i) for i in range(n)]
    ids = [_fnv1a(ELEMENTS[int(g.element[i])].encode("ascii")
                  + struct.pack("<iBI", int(g.charge[i]), int(g.aromatic[i]), len(nbrs[i])))
           for i in range(n)]
    collected = set(ids)
    for _ in range(radius):
        nxt = []
        for i in range(n):
            env = sorted((BOND_CODE[order], ids[j]) for j, order in nbrs[i])
            blob = struct.pack("<Q", ids[i]) + b"".join(
                struct.pack("<BQ", code, nid) for code, nid in env)
            nxt.append(_fnv1a(blob))
        ids = nxt
        collected.update(ids)
    return collected


def reference_scatter_add(base: np.ndarray, index, values: np.ndarray) -> np.ndarray:
    """base[index[i]] += values[i], one entry at a time in index order, in place."""
    np.add.at(base, index, values)
    return base


def reference_adam_step(store, lr: float = 1e-3, beta1: float = 0.9,
                        beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam, one parameter at a time, then grad reset."""
    store.step += 1
    t = store.step
    for name, p in store.params.items():
        g = store.grads[name]
        m = store._m[name]
        v = store._v[name]
        m[...] = beta1 * m + (1 - beta1) * g
        v[...] = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
    for g in store.grads.values():
        g[...] = 0.0


def reference_top_pairs(s: np.ndarray, rank_i: np.ndarray, rank_j: np.ndarray,
                        keep: int) -> np.ndarray:
    """Indices of the best `keep` pairs by (-s, lo rank, hi rank), best first,
    from a lexsort of every pair."""
    lo = np.minimum(rank_i, rank_j)
    hi = np.maximum(rank_i, rank_j)
    return np.lexsort((hi, lo, -s))[:keep]
