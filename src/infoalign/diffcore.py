"""Minimal dense-array reverse-mode autodiff, parameter store, and Adam.

Every array is float64 (the gradient checks demand it). The primitive set is
deliberately small: matmul, broadcast add/mul, negation, elementwise (relu,
exp, softplus), sum reduction, row gather and index-scatter-add for message
passing, and clip. Every primitive has a finite-difference test.

Primitives do not check their outputs. Finiteness is checked where values
leave the tape: `backward` raises FloatingPointError for a non-finite loss or
leaf gradient, and the callers that return forward values (embeddings,
matching logits, probe predictions) check them with `require_finite`.
Checkpoints are checked as they are loaded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from . import serialize
from .errors import CorruptFileError, ShapeMismatchError

MAGIC = b"IAPT"

# exp inputs, and the logistic inside the softplus gradient, are clamped here
# to avoid overflow.
_EXP_CLAMP = 36.7


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox generator keyed by (seed mod 2**64, stream).

    Distinct streams under one seed are independent, and every draw is
    reproducible bit-exactly across runs and platforms.
    """
    key = np.array([seed & ((1 << 64) - 1), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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

    def backward(self, seed: Optional[np.ndarray] = None):
        """Gradients of this node into every node of its tape.

        A node's gradient is allocated when its first contribution arrives.
        Raises FloatingPointError if this node's value or a leaf's gradient
        is not finite.
        """
        require_finite(self.data, "loss")
        if seed is None:
            seed = np.ones_like(self.data)
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
        self.grad = np.asarray(seed, dtype=self.data.dtype)
        for node in reversed(topo):
            if node._bw is not None:
                node._bw(node.grad)
            else:
                require_finite(node.grad, "leaf gradient")

    def item(self) -> float:
        return float(self.data)


def _acc(t: Tensor, g: np.ndarray):
    """Add g to t's gradient. The first g is kept as it is, so nothing adds in
    place: `add` hands the same buffer to both of its parents."""
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

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatchError(f"add: {a.shape} vs {b.shape}") from exc
    out = Tensor(data, (a, b))

    def bw(g):
        _acc(a, _unbroadcast(g, a.shape))
        _acc(b, _unbroadcast(g, b.shape))

    out._bw = bw
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data, (a,))
    out._bw = lambda g: _acc(a, -g)
    return out


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


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), (a,))
    # subgradient at 0 is 0
    out._bw = lambda g: _acc(a, g * (a.data > 0))
    return out


def exp(a: Tensor) -> Tensor:
    e = np.exp(np.clip(a.data, -_EXP_CLAMP, _EXP_CLAMP))
    out = Tensor(e, (a,))
    out._bw = lambda g: _acc(a, g * e)
    return out


def softplus(a: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, a.data), (a,))
    s = 1.0 / (1.0 + np.exp(-np.clip(a.data, -_EXP_CLAMP, _EXP_CLAMP)))
    out._bw = lambda g: _acc(a, g * s)
    return out


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def bw(g):
        if axis is None:
            _acc(a, np.broadcast_to(g, a.shape))
        else:
            gexp = g if keepdims else np.expand_dims(g, axis)
            _acc(a, np.broadcast_to(gexp, a.shape))

    out._bw = bw
    return out


def gather_rows(a: Tensor, index) -> Tensor:
    """out[i] = a[index[i]]; rows may repeat."""
    index = np.asarray(index, dtype=np.intp)
    out = Tensor(a.data[index], (a,))

    def bw(g):
        # into a copy of the running gradient, which keeps the order of the
        # sums: adding a separate scatter afterwards moves the last bits
        grad = np.zeros_like(a.data) if a.grad is None else a.grad.copy()
        np.add.at(grad, index, g)
        a.grad = grad

    out._bw = bw
    return out


def scatter_add_rows(a: Tensor, index, num_rows: int) -> Tensor:
    """out[k] = sum of a[i] over i with index[i] == k (message aggregation)."""
    index = np.asarray(index, dtype=np.intp)
    if len(index) != a.shape[0]:
        raise ShapeMismatchError(f"scatter_add: {len(index)} indices for {a.shape[0]} rows")
    data = np.zeros((num_rows,) + a.shape[1:], dtype=a.data.dtype)
    np.add.at(data, index, a.data)
    out = Tensor(data, (a,))
    out._bw = lambda g: _acc(a, g[index])
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient inside [lo, hi], zero outside."""
    out = Tensor(np.clip(a.data, lo, hi), (a,))
    mask = (a.data >= lo) & (a.data <= hi)
    out._bw = lambda g: _acc(a, g * mask)
    return out


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise binary cross-entropy for soft targets in [0, 1].

    softplus(l) - l * y, the numerically stable form; summing is left to the
    caller.
    """
    y = constant(targets)
    if y.shape != logits.shape:
        raise ShapeMismatchError(f"bce: logits {logits.shape} vs targets {y.shape}")
    return add(softplus(logits), neg(mul(logits, y)))


# --- parameters, MLP, optimizer ----------------------------------------------

class ParamStore:
    """Named parameter arrays with gradient slots and Adam moments.

    Weight init is uniform(+-sqrt(6 / (fan_in + fan_out))), biases zero, from
    a Philox stream keyed by the seed, so checkpoints are comparable across
    runs and platforms.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
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
            fan_in = shape[0]
            fan_out = shape[1] if len(shape) > 1 else shape[0]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            arr = self._rng.uniform(-limit, limit, size=shape)
        elif init == "zeros":
            arr = np.zeros(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.params[name] = arr
        self.grads[name] = np.zeros(shape)
        self._m[name] = np.zeros(shape)
        self._v[name] = np.zeros(shape)
        return arr

    def bind(self) -> Dict[str, Tensor]:
        """Leaf tensors for one forward/backward pass."""
        return {name: Tensor(arr) for name, arr in self.params.items()}

    def accumulate(self, bound: Dict[str, Tensor], scale: float = 1.0):
        """Add the bound leaves' gradients into the store's gradient slots."""
        for name, leaf in bound.items():
            if leaf.grad is not None:
                self.grads[name] += scale * leaf.grad

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0


def init_mlp(store: ParamStore, prefix: str, sizes: Sequence[int]):
    """Affine stack parameters: sizes = [in, hidden..., out]."""
    for i in range(len(sizes) - 1):
        store.add(f"{prefix}.w{i}", (sizes[i], sizes[i + 1]))
        store.add(f"{prefix}.b{i}", (sizes[i + 1],), init="zeros")


def mlp_forward(bound: Dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    """Affine + ReLU stack; the final layer stays linear."""
    i = 0
    h = x
    while f"{prefix}.w{i}" in bound:
        last = f"{prefix}.w{i + 1}" not in bound
        h = add(matmul(h, bound[f"{prefix}.w{i}"]), bound[f"{prefix}.b{i}"])
        if not last:
            h = relu(h)
        i += 1
    if i == 0:
        raise KeyError(f"no parameters found under prefix {prefix!r}")
    return h


def adam_step(store: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam update over all parameters, then grad reset."""
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
    for i, name in enumerate(names):
        store.params[name] = arrays[i].astype(np.float64)
        store.grads[name] = np.zeros_like(store.params[name])
        store._m[name] = arrays[k + i].astype(np.float64)
        store._v[name] = arrays[2 * k + i].astype(np.float64)
    return store, meta["manifest"]
