"""Dense float64 pieces of the training step, the parameter store, and Adam.

Every array is float64 (the gradient checks demand it). The training step
(`model.train_step`) and the probe fit (`evalkit.probe_train`) run their
forward and backward passes by hand over these pieces: an affine stack (an
MLP, per layer a matmul, bias add and ReLU) and its backward pass
(`mlp_outputs`, `mlp_backward`), and one decoded group of targets,
`Decoded` (MLP, Bernoulli or Gaussian NLL and weighted sum: the variational
decoder of Alemi et al. 2017, arXiv 1612.00410, which is also the probe's
head). A backward pass adds each parameter's one gradient into its zeroed
slot of the store. The pieces take an MLP as its list of (w, b) arrays:
`mlp_layers` reads one by name out of a store's table, and it runs only
where a table is built (`model.Net.of`, once per `pretrain`, `embed` or
`match`; the probe fit, once per fit; `mlp`, once per call), never inside a
step. `tests/oracles.py` keeps the define-by-run tape (Paszke et al. 2019,
arXiv 1912.01703) that these steps replaced, one node per fused layer, and
the tests hold the steps to it bit for bit: each step does the tape's
floating-point operations, in its order. `Tensor`, the tape's
node, and `ParamStore.accumulate`, which gathers a tape's leaf gradients,
stay here because perfbench/tracer.py wraps them by name; nothing in the
package builds a tape.

Nothing here checks its outputs. Finiteness is checked where values leave a
step: the training step and the probe fit check their loss and then the
store's gradients once per step, and the callers that return forward values
(embeddings, matching logits, probe predictions) check them with
`require_finite`. Checkpoints are checked as they are loaded.

Scatters (message aggregation, the readout, and the backward pass of every
row gather) sum through a `RowIndex`: the index and a table of each row's
entries in ascending order, read by every pass that shares it (as in PyG's
CSR message passing). `RowIndex.blocks` is its one builder: it cuts the
indexes of many blocks, such as a training epoch's batches or `embed`'s
blocks of molecules, and their tables from one sort of all of them. The
sums are those of numpy's `add.at`, in its order, bit for bit:
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
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

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
    """A node of the define-by-run tape that `tests/oracles.py` builds as the
    slow path of the training step and the probe fit."""

    __slots__ = ("data", "grad", "_parents", "_bw")

    def __init__(self, data, parents=(), bw=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents = parents
        self._bw = bw

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


# --- affine stacks and decoded groups ----------------------------------------

Layers = Sequence[Tuple[np.ndarray, np.ndarray]]


def mlp_outputs(x: np.ndarray, layers: Layers) -> List[np.ndarray]:
    """Each layer's output of the affine stack `layers` ((w, b) pairs) on x:
    x @ w + b, then ReLU after all but the last layer."""
    outs = []
    for k, (w, b) in enumerate(layers):
        x = x @ w
        x += b
        if k < len(layers) - 1:
            # max(pre, 0) > 0 exactly where pre > 0, so the mask needs no copy of pre
            np.maximum(x, 0.0, out=x)
        outs.append(x)
    return outs


def mlp_backward(g: np.ndarray, x: np.ndarray, outs: List[np.ndarray], layers: Layers,
                 grads: Layers, input_grad: bool = True) -> Optional[np.ndarray]:
    """The backward pass of `mlp_outputs(x, layers)` from g, the gradient of
    its last output: adds each layer's bias and weight gradients into
    `grads`, the (w, b) slots of `layers`, last layer first, and returns the
    input's gradient, or None if not `input_grad`. A ReLU's subgradient at 0
    is 0."""
    for k in reversed(range(len(layers))):
        if k < len(layers) - 1:
            g = g * (outs[k] > 0)
        gw, gb = grads[k]
        gb += g.sum(axis=0)
        gw += (outs[k - 1] if k else x).T @ g
        if k or input_grad:
            g = g @ layers[k][0].T
    return g if input_grad else None


def mlp(params: Mapping[str, np.ndarray], prefix: str, x: np.ndarray) -> np.ndarray:
    """The affine stack under `prefix` of `params` on x, ReLU after all but
    the last layer. x must be 2-D, as wide as the first layer's input."""
    layers = mlp_layers(params, prefix)
    w = layers[0][0]
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatchError(f"mlp {prefix!r}: {x.shape} @ {w.shape}")
    return mlp_outputs(x, layers)[-1]


class Decoded:
    """The forward pass of one decoded group of targets, with what its
    backward pass reads: `term`, the sum over i of
    weight[i] * NLL(MLP(x[i]), targets[i]), and `nll`, the NLL of every
    target entry.

    The MLP is the affine stack `layers`. The NLL is the Bernoulli one, the
    binary cross-entropy softplus(l) - l * y on the logits for soft targets
    in [0, 1], or if `squared_error` the unit-variance Gaussian one up to its
    constant, (o - y)^2 / 2. `squared_error` may instead be one flag per
    target column: each entry then takes its column's NLL and gradient, and
    the other NLL never reaches the sum, even where it overflows. `weight`
    is one weight per target row, or a scalar for every row. The weighted
    sum is `(nll * weight).sum()`, numpy's pairwise order.
    """

    __slots__ = ("x", "layers", "outs", "y", "w", "flags", "d", "nll", "term")

    def __init__(self, x: np.ndarray, layers: Layers, targets: np.ndarray, weight,
                 squared_error=False):
        outs = mlp_outputs(x, layers)
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
        nll = _pick(flags, lambda: (d * d) * 0.5,
                    lambda: np.logaddexp(0.0, logits) + -(logits * y))
        self.x, self.layers, self.outs, self.y, self.w = x, layers, outs, y, w
        self.flags, self.d, self.nll = flags, d, nll
        self.term = (nll * w).sum()

    def backward(self, g, grads: Layers, input_grad: bool = True) -> Optional[np.ndarray]:
        """The backward pass from g, the gradient of `term`: adds the
        decoder's gradients into `grads`, the (w, b) slots of its layers, and
        returns x's gradient, or None if not `input_grad`."""
        gw = g * self.w  # row i of the weighted NLL's gradient, g * weight[i] throughout

        def squared():
            t = (gw * 0.5) * self.d
            return t + t

        gl = _pick(self.flags, squared, lambda: gw * logistic(self.outs[-1]) + (-gw) * self.y)
        return mlp_backward(gl, self.x, self.outs, self.layers, grads, input_grad)


def _pick(flags: np.ndarray, squared, bce) -> np.ndarray:
    """squared() in the columns that `flags` marks and bce() in the others,
    computing only what some column takes."""
    if flags.all():
        return squared()
    if not flags.any():
        return bce()
    return np.where(flags, squared(), bce())


def clamped_exp(x: np.ndarray) -> np.ndarray:
    """exp(x), with x clamped to +-_EXP_CLAMP."""
    return np.exp(np.clip(x, -_EXP_CLAMP, _EXP_CLAMP))


def logistic(l: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-l)), with l clamped to +-_EXP_CLAMP."""
    return 1.0 / (1.0 + np.exp(-np.clip(l, -_EXP_CLAMP, _EXP_CLAMP)))


# --- parameters, optimizer ---------------------------------------------------

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


def mlp_layers(params: Mapping, prefix: str) -> list:
    """The (w, b) entries of the affine stack under `prefix` in `params`, in
    order: a store's parameters or gradient slots, or a tape's leaves."""
    layers = []
    while f"{prefix}.w{len(layers)}" in params:
        layers.append((params[f"{prefix}.w{len(layers)}"], params[f"{prefix}.b{len(layers)}"]))
    if not layers:
        raise KeyError(f"no parameters found under prefix {prefix!r}")
    return layers


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
