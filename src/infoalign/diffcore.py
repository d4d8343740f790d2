"""Minimal dense-array reverse-mode autodiff, parameter store, and Adam.

Every array is float64 (the gradient checks demand it). The primitive set is
deliberately small: matmul, broadcast mul, row gather and index-scatter-add
for message passing, and clip. The training step's layers and loss terms are
one node each: a whole MLP, `mlp_forward` (per layer a matmul, bias add and
ReLU), and the Gaussian bottleneck's `gaussian_kl` and `gaussian_sample`
(Paszke et al. 2019, arXiv 1912.01703, fuse a linear layer's bias the same
way; Alemi et al. 2017, arXiv 1612.00410, give the rate term in closed
form). So are a whole GIN message-passing layer, `gin_layer` (gather, bond
embedding, scatter, residual add and MLP, as PyG fuses message passing; Fey
& Lenssen 2019, arXiv 1903.02428), one decoded group of targets,
`decode_group` (gather, MLP, Bernoulli or Gaussian NLL and weighted sum: the
variational decoder of Alemi et al., which is also the probe's head), and a
running total of terms, `add_n`. Each fused node does the floating-point
operations of the chain of primitives it replaced, in their order, so the
values and gradients are the same bits; `tests/oracles.py` keeps those
chains to check it. Every primitive and every fused node has a
finite-difference test.

Primitives do not check their outputs. Finiteness is checked where values
leave the tape: `backward` raises FloatingPointError for a non-finite loss,
`ParamStore.accumulate` checks the store's gradients once per step, and the
callers that return forward values (embeddings, matching logits, probe
predictions) check them with `require_finite`. Checkpoints are checked as
they are loaded.

The scatter of `scatter_add_rows` and of `gather_rows`' backward pass sums
through a `RowIndex`: the index and a table of each row's entries in
ascending order, read by every pass that shares it (as in PyG's CSR message
passing). `RowIndex.blocks` is its one builder: it cuts the indexes of many
blocks, such as a training epoch's batches or `embed`'s blocks of
molecules, and their tables from one sort of all of them. The sums are
those of numpy's `add.at`, in its order, bit for bit:
- Small scatters (fewer than `_ADD_AT_SIZE` values) call `np.add.at`
  itself, which beats the table there.
- Many rows with few entries each (in-neighbours) loop over the table's
  columns, adding a whole column of rows at a time. Short rows are padded
  with a -0.0 row, which adds nothing to any value: a -0.0 in a running
  gradient stays -0.0, as under `add.at`, where a +0.0 pad would flip it.
- Few rows with many entries each (bond types, the readout) sum each row
  over [running row; its entries], one after another: values of two or
  more columns with `np.add.reduce(axis=0)`, which adds the rows in order
  (a fuzz in `tests/test_diffcore.py` checks it against `add.at`), started
  from -0.0 where numpy would start from +0.0 and turn a column of -0.0s
  into +0.0; one-column values with `np.cumsum`, since `np.add.reduce`
  sums a single column pairwise and the last bits move.

`ParamStore` keeps the parameters, gradients and Adam moments as the four
rows of one flat array, so `adam_step` is a few whole-buffer operations.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import serialize
from .errors import CorruptFileError, ShapeMismatchError

MAGIC = b"IAPT"

# exp inputs, and those of `logistic`, are clamped here to avoid overflow.
_EXP_CLAMP = 36.7

# `RowIndex.add_to` hands scatters of fewer values (entries times row width)
# than this to `np.add.at`, whose time goes by values, about 2 us + 0.01 us
# per value, where a table costs 25-40 us to build, whatever the width, and
# 5-15 us per use (2 cores, numpy 2.4.6, best of 7). At 8 columns add.at took
# 3-8 us for 16-64 entries against 26-34 us; at 32 columns 41 against 40 us
# at 128 entries and 63 against 54 at 192; at 128 columns 40 against 54 us at
# 32 entries and 80 against 44 at 64. In a recovery step (latent 8, hidden
# 32) the walk-to-molecule and z gathers (16-50 entries) fall below it; the
# 150-400-entry message, bond-type and readout indexes, and `embed`'s
# 192-atom blocks, stay on the table. These figures date from when a table
# was built on its first use; `RowIndex.blocks` now builds every table
# ahead, and the cutoff has not been measured again since.
_ADD_AT_SIZE = 2048


def _philox_key(seed: int, stream: int) -> np.ndarray:
    return np.array([seed & ((1 << 64) - 1), stream], dtype=np.uint64)


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox generator keyed by (seed mod 2**64, stream).

    Distinct streams under one seed are independent, and every draw is
    reproducible bit-exactly across runs and platforms.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


def seeded_streams(seed: int, streams: Sequence[int]) -> Iterator[np.random.Generator]:
    """`seeded_rng(seed, i)` for each i of `streams`, in order: one Philox
    re-keyed to (seed mod 2**64, i) at counter 0 with an empty buffer, which
    is the state a fresh generator starts in, so the draws are the same. The
    generator yielded is the same object each time; draw from each stream
    before taking the next."""
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    for stream in streams:
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": np.zeros(4, dtype=np.uint64),
                                  "key": _philox_key(seed, stream)},
                        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        yield rng


def require_finite(data: np.ndarray, what: str) -> np.ndarray:
    """`data`, or FloatingPointError naming `what` if it holds a NaN or Inf."""
    if not np.isfinite(data).all():
        raise FloatingPointError(f"non-finite {what}")
    return data


class Tensor:
    """Node in the computation tape."""

    __slots__ = ("data", "grad", "_parents", "_bw")

    def __init__(self, data, parents=(), bw=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._bw = bw

    @property
    def shape(self):
        return self.data.shape

    # --- graph traversal ---

    def backward(self):
        """Gradients of this node into every node of its tape, starting from
        ones.

        A node's gradient is allocated when its first contribution arrives.
        Raises FloatingPointError if this node's value is not finite; leaf
        gradients are checked where a step gathers them,
        `ParamStore.accumulate`.
        """
        require_finite(self.data, "loss")
        topo: List[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bw is not None:
                node._bw(node.grad)

    def item(self) -> float:
        return float(self.data)


def _acc(t: Tensor, g: np.ndarray):
    """Add g to t's gradient. The first g is kept as it is, so nothing adds in
    place: `add_n` hands the same buffer to every term."""
    t.grad = g if t.grad is None else t.grad + g


def constant(x) -> Tensor:
    return Tensor(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad over the dimensions that broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# --- primitives --------------------------------------------------------------

def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"mul: {a.shape} vs {b.shape}") from exc
    out = Tensor(data, (a, b))

    def bw(g):
        _acc(a, _unbroadcast(g * b.data, a.shape))
        _acc(b, _unbroadcast(g * a.data, b.shape))

    out._bw = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def bw(g):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    out._bw = bw
    return out


class RowIndex:
    """An index into `num_rows` rows, `index[i]` naming the row of entry i,
    with the table of each row's entries that `add_to` sums through, in the
    layout the module docstring describes: a (width, rows) array of
    positions, padded with one past the last entry, when no row has more
    entries than there are rows; else the (row, start, stop) of each row
    with entries in `_positions`, the entries grouped by row and ascending
    within each row (the order of `np.argsort(index, kind="stable")`).
    `blocks` is the one constructor, for one block or many.
    """

    __slots__ = ("index", "num_rows", "_positions", "_table")

    @classmethod
    def blocks(cls, index, num_rows, bounds) -> List["RowIndex"]:
        """The RowIndex of each block of `index`, block k being entries
        bounds[k]:bounds[k + 1], each naming one of num_rows[k] rows. The
        range check, the stable sort and the tables run once, over every
        block: each block's index, positions and table are slices of them,
        the same as that block cut alone would hold. They are int32 where
        the entries and rows fit, which halves what the blocks hold; numpy
        indexes with int32 as fast as with intp."""
        index = np.asarray(index, dtype=np.intp)
        num_rows = np.asarray(num_rows, dtype=np.intp)
        bounds = np.asarray(bounds, dtype=np.intp)
        sizes = np.diff(bounds)
        if index.ndim != 1 or len(index) != bounds[-1] or len(sizes) != len(num_rows):
            raise ShapeMismatchError(f"{len(index)} entries in blocks ending at {bounds[-1]} "
                                     f"over {len(num_rows)} row counts")
        if len(index) and not ((index >= 0).all() and (index < np.repeat(num_rows, sizes)).all()):
            raise IndexError("row index out of range for its block's rows")
        # Block k's rows are rows first[k]:first[k + 1] of all blocks' rows,
        # and its entries are slots bounds[k]:bounds[k + 1] of their sort.
        first = np.concatenate([[0], np.cumsum(num_rows)])
        row_block = np.repeat(np.arange(len(sizes)), num_rows)
        held = np.int32 if max(len(index), first[-1]) < 2**31 else np.intp
        key = index + np.repeat(first[:-1], sizes)
        counts = np.bincount(key, minlength=first[-1])
        stops = np.cumsum(counts)
        positions = (np.argsort(key, kind="stable") - np.repeat(bounds[:-1], sizes)).astype(held)
        width = np.zeros(len(sizes), dtype=np.intp)
        rowed = num_rows > 0
        if rowed.any():
            width[rowed] = np.maximum.reduceat(counts, first[:-1][rowed])
        columns = width <= num_rows
        # the column layout: entry j of each row, or its block's pad
        on = columns[row_block]
        table = np.empty((width[columns].max(initial=0), first[-1]), dtype=held)
        table[...] = sizes[row_block]
        for j, column in enumerate(table):
            rows = np.flatnonzero(on & (counts > j))
            column[rows] = positions[stops[rows] - counts[rows] + j]
        # the list layout: (row, start, stop) of each row with entries
        listed = np.flatnonzero((counts > 0) & ~on)
        runs = list(zip((listed - first[row_block[listed]]).tolist(),
                        (stops - counts - bounds[row_block])[listed].tolist(),
                        (stops - bounds[row_block])[listed].tolist()))
        cuts = np.searchsorted(listed, first).tolist()
        index = index.astype(held)
        out = []
        for k, (lo, hi, n, w) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist(),
                                               num_rows.tolist(), width.tolist())):
            planned = cls()
            planned.index, planned.num_rows = index[lo:hi], n
            # only the list layout reads the positions; a column table holds them
            if columns[k]:
                planned._positions, planned._table = None, table[:w, first[k] : first[k] + n]
            else:
                planned._positions, planned._table = positions[lo:hi], runs[cuts[k] : cuts[k + 1]]
            out.append(planned)
        return out

    def add_to(self, base: np.ndarray, values: np.ndarray) -> np.ndarray:
        """base[index[i]] += values[i] in place, for i in ascending order:
        the sums of numpy's `add.at(base, index, values)`, bit for bit.
        (Which NaN a sum of two NaNs keeps is left open, as numpy's own
        loops leave it.) Fewer than `_ADD_AT_SIZE` values go to `add.at`
        itself, which does not read the table."""
        if values.size < _ADD_AT_SIZE:
            np.add.at(base, self.index, values)
            return base
        if isinstance(self._table, list):
            # a sequential sum: np.add.reduce sums one column pairwise
            grouped = values[self._positions]
            wide = values.ndim > 1 and values.shape[1] > 1
            for k, start, stop in self._table:
                run = np.concatenate([base[k : k + 1], grouped[start:stop]])
                base[k] = (np.add.reduce(run, axis=0, initial=-0.0) if wide
                           else np.cumsum(run, axis=0)[-1])
        else:
            # -0.0 pads add nothing, even to a -0.0 (+0.0 would make it +0.0)
            padded = np.concatenate([values, np.full((1,) + values.shape[1:], -0.0)])
            for column in self._table:
                base += padded[column]
        return base


def gather_rows(a: Tensor, index: RowIndex) -> Tensor:
    """out[i] = a[index.index[i]]; rows may repeat. `index` is over a's rows."""
    out = Tensor(a.data[index.index], (a,))
    out._bw = lambda g: _acc_rows(a, index, g)
    return out


def _acc_rows(t: Tensor, index: RowIndex, g: np.ndarray):
    """Add row i of g to row index[i] of t's gradient: a gather's backward.
    It adds into a copy of the running gradient, which keeps the order of
    the sums: adding a separate scatter afterwards moves the last bits."""
    grad = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
    t.grad = index.add_to(grad, g)


def scatter_add_rows(a: Tensor, index: RowIndex) -> Tensor:
    """out[k] = sum of a[i] over i with index.index[i] == k, for each of the
    index's rows (message aggregation)."""
    if len(index.index) != a.shape[0]:
        raise ShapeMismatchError(f"scatter_add: {len(index.index)} indices for {a.shape[0]} rows")
    data = index.add_to(np.zeros((index.num_rows,) + a.shape[1:]), a.data)
    out = Tensor(data, (a,))
    out._bw = lambda g: _acc(a, g[index.index])
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient inside [lo, hi], zero outside."""
    out = Tensor(np.clip(a.data, lo, hi), (a,))
    mask = (a.data >= lo) & (a.data <= hi)
    out._bw = lambda g: _acc(a, g * mask)
    return out


# --- fused nodes -------------------------------------------------------------
#
# Each computes what its chain of primitives computed, operation by
# operation, and sends each parent the contributions that chain sent, in its
# order. Parents are listed as the chain's were met from left to right, so
# the tape visits them, and runs every other node, in the chain's order.

Layers = Sequence[Tuple[Tensor, Tensor]]


def _mlp_data(x: np.ndarray, layers: Layers) -> List[np.ndarray]:
    """Each layer's output of the affine stack `layers` on x: x @ w + b, then
    ReLU after all but the last layer."""
    outs = []
    for k, (w, b) in enumerate(layers):
        x = x @ w.data
        x += b.data
        if k < len(layers) - 1:
            # max(pre, 0) > 0 exactly where pre > 0, so the mask needs no copy of pre
            np.maximum(x, 0.0, out=x)
        outs.append(x)
    return outs


def _mlp_grads(g: np.ndarray, x: np.ndarray, outs: List[np.ndarray], layers: Layers) -> np.ndarray:
    """Send each layer's bias and weight their gradients, last layer first,
    and return the input's. A ReLU's subgradient at 0 is 0."""
    for k in reversed(range(len(layers))):
        w, b = layers[k]
        if k < len(layers) - 1:
            g = g * (outs[k] > 0)
        _acc(b, g.sum(axis=0))
        _acc(w, (outs[k - 1] if k else x).T @ g)
        g = g @ w.data.T
    return g


def _params(layers: Layers) -> Tuple[Tensor, ...]:
    return tuple(t for layer in layers for t in layer)


def gin_layer(h: Tensor, bond_embed: Tensor, layers: Layers, out_of: RowIndex,
              into: RowIndex, bond_type: RowIndex) -> Tensor:
    """One GIN layer: MLP(h + sum over messages i into row into[i] of
    (h[out_of[i]] + bond_embed[bond_type[i]])), the MLP the affine stack
    `layers` ((w, b) pairs, ReLU after all but the last). With no messages
    it is MLP(h), and `bond_embed` gets no gradient.

    Replaces gather, gather, add, scatter_add_rows, add (the residual) and
    the MLP's matmul, add and ReLU per layer. Backward sends h the
    residual's gradient first, then adds the messages' into it in `out_of`'s
    order.
    """
    bonded = len(into.index) > 0
    if bonded:
        msgs = h.data[out_of.index] + bond_embed.data[bond_type.index]
        x = into.add_to(np.zeros((into.num_rows,) + msgs.shape[1:]), msgs) + h.data
    else:
        x = h.data
    outs = _mlp_data(x, layers)
    out = Tensor(outs[-1], ((h, bond_embed) if bonded else (h,)) + _params(layers))

    def bw(g):
        gx = _mlp_grads(g, x, outs, layers)
        if not bonded:
            _acc(h, gx)
            return
        gm = gx[into.index]
        # gx and h.grad + gx are fresh, so the gather's copy is not needed
        h.grad = out_of.add_to(gx if h.grad is None else h.grad + gx, gm)
        _acc_rows(bond_embed, bond_type, gm)

    out._bw = bw
    return out


def decode_group(z: Tensor, rows: Optional[RowIndex], layers: Layers, targets: np.ndarray,
                 weight, squared_error=False) -> Tuple[Tensor, np.ndarray]:
    """sum over i of weight[i] * NLL(MLP(z[rows.index[i]]), targets[i]) as one
    scalar node, and the NLL of every target entry.

    The MLP is the affine stack `layers`. The NLL is the Bernoulli one, the
    binary cross-entropy softplus(l) - l * y on the logits for soft targets
    in [0, 1], or if `squared_error` the unit-variance Gaussian one up to its
    constant, (o - y)^2 / 2. `squared_error` may instead be one flag per
    target column: each entry then takes its column's NLL and gradient, and
    the other NLL never reaches the sum, even where it overflows.

    `rows` is a RowIndex over z's rows, or None for z's rows in order, which
    gathers nothing. `weight` is one weight per target
    row, or a scalar for every row. Replaces gather_rows, the MLP's matmul,
    add and ReLU per layer, the NLL node, the weight constant, mul and
    tsum; the weighted sum is `(nll * weight).sum()`, tsum's pairwise order
    over the same array.
    """
    x = z.data if rows is None else z.data[rows.index]
    outs = _mlp_data(x, layers)
    logits = outs[-1]
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeMismatchError(f"decoder output {logits.shape} vs target {y.shape}")
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim:
        w = w[:, None]
    flags = np.asarray(squared_error, dtype=bool)
    if flags.shape not in ((), y.shape[1:]):
        raise ShapeMismatchError(f"{flags.shape} squared-error flags for {y.shape[1]} columns")
    d = logits + -y if flags.any() else None
    nll = _pick(flags, lambda: (d * d) * 0.5, lambda: np.logaddexp(0.0, logits) + -(logits * y))
    out = Tensor((nll * w).sum(), (z,) + _params(layers))

    def bw(g):
        gw = g * w  # row i of the weighted NLL's gradient, g * weight[i] throughout

        def squared():
            t = (gw * 0.5) * d
            return t + t

        gl = _pick(flags, squared, lambda: gw * logistic(logits) + (-gw) * y)
        gx = _mlp_grads(gl, x, outs, layers)
        if rows is None:
            _acc(z, gx)
        else:
            _acc_rows(z, rows, gx)

    out._bw = bw
    return out, nll


def _pick(flags: np.ndarray, squared, bce) -> np.ndarray:
    """squared() in the columns that `flags` marks and bce() in the others,
    computing only what some column takes."""
    if flags.all():
        return squared()
    if not flags.any():
        return bce()
    return np.where(flags, squared(), bce())


def add_n(terms: Sequence[Tensor]) -> Tensor:
    """((t0 + t1) + t2) + ... over terms of one shape, left to right: the
    chain of `add`s as one node. Each term's gradient is the output's."""
    shapes = {t.shape for t in terms}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"add_n: shapes {sorted(shapes)}")
    data = terms[0].data
    for t in terms[1:]:
        data = data + t.data
    out = Tensor(data, tuple(terms))

    def bw(g):
        for t in terms:
            _acc(t, g)

    out._bw = bw
    return out


def logistic(l: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-l)), with l clamped to +-_EXP_CLAMP."""
    return 1.0 / (1.0 + np.exp(-np.clip(l, -_EXP_CLAMP, _EXP_CLAMP)))


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)) summed over every entry:
    sum(mu^2 + exp(logvar) - logvar - 1) / 2, a scalar."""
    m = mu.data
    e = np.exp(np.clip(logvar.data, -_EXP_CLAMP, _EXP_CLAMP))
    out = Tensor((((m * m + e) + -logvar.data) + -1.0).sum() * 0.5, (mu, logvar))

    def bw(g):
        half = np.broadcast_to(g * 0.5, m.shape)
        _acc(mu, half * m)
        _acc(mu, half * m)
        _acc(logvar, half * e)
        _acc(logvar, -half)

    out._bw = bw
    return out


def gaussian_sample(mu: Tensor, logvar: Tensor, noise: np.ndarray) -> Tensor:
    """mu + exp(logvar / 2) * noise, the reparameterized draw."""
    std = np.exp(np.clip(logvar.data * 0.5, -_EXP_CLAMP, _EXP_CLAMP))
    out = Tensor(mu.data + std * noise, (mu, logvar))

    def bw(g):
        _acc(mu, g)
        _acc(logvar, ((g * noise) * std) * 0.5)

    out._bw = bw
    return out


# --- parameters, MLP, optimizer ----------------------------------------------

class ParamStore:
    """Named parameter arrays with gradient slots and Adam moments.

    The parameters, their gradients and the two Adam moments are the four
    rows of one float64 array, `flat`, each a flat vector holding every
    parameter in the order added. `params`, `grads`, `_m` and `_v` map each
    name to its view into a row, so whole-store updates are vector ops.

    Weight init is uniform(+-sqrt(6 / (fan_in + fan_out))), biases zero, from
    a Philox stream keyed by the seed, so checkpoints are comparable across
    runs and platforms.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.flat = np.zeros((4, 0))
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self.step = 0
        self._rng = seeded_rng(self.seed)

    def add(self, name: str, shape, init: str = "glorot") -> np.ndarray:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already exists")
        shape = tuple(shape)
        if init == "glorot":
            if not shape:
                raise ValueError(f"parameter {name!r}: glorot init needs a shape with at "
                                 f"least one dimension, got ()")
            fan_in = shape[0]
            fan_out = shape[1] if len(shape) > 1 else shape[0]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            arr = self._rng.uniform(-limit, limit, size=shape)
        elif init == "zeros":
            arr = np.zeros(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        self._append([(name, arr, np.zeros(shape), np.zeros(shape))])
        return self.params[name]

    def _append(self, entries: Sequence[Tuple[str, np.ndarray, np.ndarray, np.ndarray]]):
        """Add (name, value, first moment, second moment) parameters with zero
        gradients: the rows move to a longer array and every view follows."""
        shapes = {name: arr.shape for name, arr in self.params.items()}
        shapes.update((name, value.shape) for name, value, _, _ in entries)
        flat = np.zeros((4, sum(math.prod(shape) for shape in shapes.values())))
        flat[:, : self.flat.shape[1]] = self.flat
        self.flat = flat
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            for table, row in zip((self.params, self.grads, self._m, self._v), flat):
                table[name] = row[start:stop].reshape(shape)
            start = stop
        for name, value, m, v in entries:
            self.params[name][...] = value
            self._m[name][...] = m
            self._v[name][...] = v

    def bind(self) -> Dict[str, Tensor]:
        """Leaf tensors for one forward/backward pass."""
        return {name: Tensor(arr) for name, arr in self.params.items()}

    def accumulate(self, bound: Dict[str, Tensor]):
        """Add the bound leaves' gradients into the store's gradient slots.
        Raises FloatingPointError if a slot is then not finite."""
        for name, leaf in bound.items():
            if leaf.grad is not None:
                self.grads[name] += leaf.grad
        require_finite(self.flat[1], "leaf gradient")

    def zero_grads(self):
        self.flat[1] = 0.0


def init_mlp(store: ParamStore, prefix: str, sizes: Sequence[int]):
    """Affine stack parameters: sizes = [in, hidden..., out]."""
    for i in range(len(sizes) - 1):
        store.add(f"{prefix}.w{i}", (sizes[i], sizes[i + 1]))
        store.add(f"{prefix}.b{i}", (sizes[i + 1],), init="zeros")


def mlp_layers(bound: Dict[str, Tensor], prefix: str) -> List[Tuple[Tensor, Tensor]]:
    """The (w, b) leaves of the affine stack under `prefix`, in order."""
    layers = []
    while f"{prefix}.w{len(layers)}" in bound:
        layers.append((bound[f"{prefix}.w{len(layers)}"], bound[f"{prefix}.b{len(layers)}"]))
    if not layers:
        raise KeyError(f"no parameters found under prefix {prefix!r}")
    return layers


def mlp_forward(bound: Dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    """The affine stack under `prefix` on x, ReLU after all but the last
    layer, as one node. x must be 2-D, as wide as the first layer's input."""
    layers = mlp_layers(bound, prefix)
    w = layers[0][0]
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatchError(f"mlp_forward {prefix!r}: {x.shape} @ {w.shape}")
    outs = _mlp_data(x.data, layers)
    out = Tensor(outs[-1], (x,) + _params(layers))
    out._bw = lambda g: _acc(x, _mlp_grads(g, x.data, outs, layers))
    return out


def adam_step(store: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam update over all parameters, then grad reset.

    It runs over the store's flat rows at once; every element takes the
    operations of a per-parameter update in the same order, so the results
    are the same bits.
    """
    store.step += 1
    t = store.step
    p, g, m, v = store.flat
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    p -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
    store.zero_grads()


# --- checkpoints --------------------------------------------------------------

def save_params(path, store: ParamStore, manifest: Optional[dict] = None):
    """Checkpoint: manifest JSON + raw little-endian arrays; load is bit-exact."""
    names = sorted(store.params)
    meta = {
        "manifest": manifest or {},
        "names": names,
        "dtype": "<f8",
        "seed": store.seed,
        "step": store.step,
    }
    arrays = [table[name] for table in (store.params, store._m, store._v) for name in names]
    serialize.write_container(path, MAGIC, meta, arrays)


def load_params(path):
    """Returns (ParamStore, manifest dict).

    Raises CorruptFileError naming the file and the array if a parameter or
    an Adam moment holds a NaN or Inf.
    """
    meta, arrays = serialize.read_container(path, MAGIC)
    store = ParamStore(seed=meta["seed"])
    store.step = meta["step"]
    names = meta["names"]
    k = len(names)
    if len(arrays) != 3 * k:
        raise CorruptFileError(f"{path}: {len(arrays)} arrays for {k} parameters")
    for j, arr in enumerate(arrays):
        if not np.isfinite(arr).all():
            what = ("parameter", "Adam first moment of", "Adam second moment of")[j // k]
            raise CorruptFileError(f"{path}: {what} {names[j % k]!r} is not finite")
    store._append([(name, arrays[i], arrays[k + i], arrays[2 * k + i])
                   for i, name in enumerate(names)])
    return store, meta["manifest"]
