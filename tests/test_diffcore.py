"""Array substrate tests: central finite differences for every primitive and
fused node of the tape in `tests/oracles.py`, the fused nodes bit for bit
against the chains of primitives they replaced, the row-index scatter (on
both sides of its `np.add.at` cutoff) and the flat Adam against their slow
oracles, MLP gradient checks, Adam behavior, checkpoint round-trips."""

import functools
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import infoalign.diffcore as dc
from infoalign.errors import CorruptFileError, ShapeMismatchError
from tests import oracles as tape
from tests.oracles import (
    add,
    composed_bce,
    composed_decode_group,
    composed_gin_layer,
    composed_half_squared_error,
    composed_kl,
    composed_mlp_forward,
    composed_sample,
    exp,
    neg,
    reference_adam_step,
    reference_row_table,
    reference_scatter_add,
    relu,
    row_index,
    softplus,
    tsum,
)

DATA = Path(__file__).resolve().parent / "data"


def finite_diff(f, x, eps=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f(x)
        x[idx] = orig - eps
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_gradient(build, x0, rtol=1e-5, eps=1e-6):
    """build(Tensor) -> scalar Tensor; compares backward grad to central FD."""
    leaf = tape.Tensor(x0.copy())
    out = build(leaf)
    out.backward()
    analytic = leaf.grad

    def f(x):
        return build(tape.Tensor(x)).data.sum()

    numeric = finite_diff(f, x0.copy(), eps)
    denom = np.maximum(np.abs(numeric), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < rtol, f"max rel err {rel.max():.3g}"


def _c(shape, seed):
    """Frozen random constant (the same array on every call)."""
    return tape.constant(np.random.default_rng(seed).standard_normal(shape))


def _stack(params):
    """The leaves (w0, b0, w1, b1, ...) bound under the prefix "f"."""
    return {f"f.{'wb'[k % 2]}{k // 2}": p for k, p in enumerate(params)}


def _mlp(x, *params):
    """`mlp_forward` of x through the stack `params`."""
    return tape.mlp_forward(_stack(params), "f", x)


def _mlp_chain(x, *params):
    """The same stack as `composed_mlp_forward`'s chain of primitives."""
    return composed_mlp_forward(_stack(params), "f", x)


def _messages(bonds, order, atoms):
    """`gin_layer`'s (out_of, into, bond_type) indexes of a molecule's bonds,
    laid out as `encode_union` lays them: bond j is messages 2j (a -> b)
    and 2j + 1 (b -> a)."""
    bonds = np.asarray(bonds, dtype=np.intp).reshape(-1, 2)
    return (row_index(bonds.ravel(), atoms), row_index(bonds[:, ::-1].ravel(), atoms),
            row_index(np.repeat(order, 2), 3))


# A 3-ring with bond types 0, 2 and 1, for (3, 4) inputs.
_RING3 = _messages([[0, 1], [1, 2], [2, 0]], [0, 2, 1], 3)
# Five atoms, a ring of four and a branch: atom 2 has three in-neighbours.
_RING4 = _messages([[0, 1], [1, 2], [2, 3], [3, 1], [2, 4]], [0, 1, 2, 0, 1], 5)
_NO_BONDS = _messages([], [], 4)


def _gin(messages, composed=False):
    """A two-layer GIN node over `messages`, or its chain, on (h, bond
    embedding, w0, b0, w1, b1)."""
    layer = composed_gin_layer if composed else tape.gin_layer

    def build(h, be, w0, b0, w1, b1):
        return layer(h, be, [(w0, b0), (w1, b1)], *messages)
    return build


def _decode(rows, squared_error, composed=False):
    """A two-layer decode group over `rows` of z, or its chain (the weighted
    sum), on (z, w0, b0, w1, b1, targets, weight)."""
    def build(z, w0, b0, w1, b1, targets, weight):
        layers = [(w0, b0), (w1, b1)]
        if composed:
            return composed_decode_group(z, rows, layers, targets, weight, squared_error)[0]
        return tape.decode_group(z, rows, layers, targets, weight, squared_error)[0]
    return build


# Rows of a three-row z.
_DECODE_ROWS = row_index([0, 2, 2, 1, 0], 3)
# One squared-error flag per target column of a three-column group.
_PER_COLUMN = np.array([False, True, False])


def test_square_gradient_closed_form():
    x = tape.Tensor(np.array([3.0]))
    y = tape.mul(x, x)
    y.backward()
    assert x.grad[0] == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("name,build", [
    ("add", lambda t: tsum(tape.mul(add(t, _c((3, 4), 10)), _c((3, 4), 11)))),
    ("add_broadcast", lambda t: tsum(tape.mul(add(t, _c((1, 4), 12)), _c((3, 4), 13)))),
    ("neg", lambda t: tsum(tape.mul(neg(t), _c((3, 4), 14)))),
    ("mul", lambda t: tsum(tape.mul(t, _c((3, 4), 15)))),
    ("matmul", lambda t: tsum(tape.matmul(t, _c((4, 2), 16)))),
    ("relu", lambda t: tsum(tape.mul(relu(t), _c((3, 4), 17)))),
    ("exp", lambda t: tsum(tape.mul(exp(t), _c((3, 4), 19)))),
    ("softplus", lambda t: tsum(tape.mul(softplus(t), _c((3, 4), 21)))),
    ("tsum_axis", lambda t: tsum(tape.mul(tsum(t, axis=0, keepdims=True), _c((1, 4), 22)))),
    ("gather", lambda t: tsum(tape.mul(tape.gather_rows(t, row_index([0, 2, 2, 1], 3)),
                                     _c((4, 4), 25)))),
    ("scatter", lambda t: tsum(tape.mul(tape.scatter_add_rows(t, row_index([1, 0, 1], 2)),
                                      _c((2, 4), 26)))),
    ("clip", lambda t: tsum(tape.mul(tape.clip(t, -0.5, 0.5), _c((3, 4), 27)))),
    ("affine_relu_x", lambda t: tsum(tape.mul(_mlp(
        t, _c((4, 5), 30), _c((5,), 31), _c((5, 2), 101), _c((2,), 102)), _c((3, 2), 32)))),
    ("affine_relu_w", lambda t: tsum(tape.mul(_mlp(
        _c((2, 3), 33), t, _c((4,), 34), _c((4, 3), 103), _c((3,), 104)), _c((2, 3), 35)))),
    ("affine_linear", lambda t: tsum(tape.mul(
        _mlp(t, _c((4, 2), 36), _c((2,), 37)), _c((3, 2), 38)))),
    ("gaussian_kl_mu", lambda t: tape.gaussian_kl(t, _c((3, 4), 41))),
    ("gaussian_kl_logvar", lambda t: tape.gaussian_kl(_c((3, 4), 42), t)),
    ("gaussian_sample_mu", lambda t: tsum(tape.mul(
        tape.gaussian_sample(t, _c((3, 4), 43), _c((3, 4), 44).data), _c((3, 4), 45)))),
    ("gaussian_sample_logvar", lambda t: tsum(tape.mul(
        tape.gaussian_sample(_c((3, 4), 46), t, _c((3, 4), 47).data), _c((3, 4), 48)))),
    ("gin_layer_h", lambda t: tsum(tape.mul(_gin(_RING3)(
        t, _c((3, 4), 50), _c((4, 5), 51), _c((5,), 52), _c((5, 2), 53), _c((2,), 54)),
        _c((3, 2), 55)))),
    ("gin_layer_bond_embed", lambda t: tsum(tape.mul(_gin(_RING3)(
        _c((3, 4), 56), t, _c((4, 5), 57), _c((5,), 58), _c((5, 2), 59), _c((2,), 60)),
        _c((3, 2), 61)))),
    ("gin_layer_w1", lambda t: tsum(tape.mul(_gin(_RING3)(
        _c((3, 3), 62), _c((3, 3), 63), _c((3, 3), 64), _c((3,), 65), t, _c((4,), 66)),
        _c((3, 4), 67)))),
    ("gin_layer_no_bonds", lambda t: tsum(tape.mul(_gin(_messages([], [], 3))(
        t, _c((3, 4), 68), _c((4, 5), 69), _c((5,), 70), _c((5, 2), 71), _c((2,), 72)),
        _c((3, 2), 73)))),
    ("decode_group_z", lambda t: _decode(_DECODE_ROWS, False)(
        t, _c((4, 6), 74), _c((6,), 75), _c((6, 2), 76), _c((2,), 77),
        np.full((5, 2), 0.3), np.linspace(0.2, 1.0, 5))),
    ("decode_group_w0", lambda t: _decode(_DECODE_ROWS, False)(
        _c((3, 3), 78), t, _c((4,), 79), _c((4, 2), 80), _c((2,), 81),
        np.full((5, 2), 0.7), np.linspace(1.0, 0.1, 5))),
    ("decode_group_squared_error", lambda t: _decode(_DECODE_ROWS, True)(
        t, _c((4, 6), 82), _c((6,), 83), _c((6, 2), 84), _c((2,), 85),
        _c((5, 2), 86).data, np.linspace(0.2, 1.0, 5))),
    ("decode_group_one_row", lambda t: _decode(row_index([1], 3), False)(
        t, _c((4, 6), 87), _c((6,), 88), _c((6, 3), 89), _c((3,), 90),
        np.full((1, 3), 0.4), np.array([0.5]))),
    ("decode_group_per_column", lambda t: _decode(_DECODE_ROWS, _PER_COLUMN)(
        t, _c((4, 6), 93), _c((6,), 94), _c((6, 3), 95), _c((3,), 96),
        np.tile([0.3, 1.7, 0.8], (5, 1)), np.linspace(0.2, 1.0, 5))),
    ("decode_group_all_rows", lambda t: _decode(None, _PER_COLUMN)(
        t, _c((4, 6), 97), _c((6,), 98), _c((6, 3), 99), _c((3,), 100),
        np.tile([-0.6, 0.2, 0.9], (3, 1)), np.float64(0.7))),
    ("add_n", lambda t: tsum(tape.mul(tape.add_n([t, _c((3, 4), 91), t]), _c((3, 4), 92)))),
])
def test_primitive_gradients(name, build):
    # A fixed seed per case: str hashes are salted per process.
    x0 = np.random.default_rng(zlib.crc32(name.encode())).standard_normal((3, 4)) + 0.1
    check_gradient(build, x0)


def test_clip_gradient_pass_through():
    x = tape.Tensor(np.array([-2.0, 0.5, 2.0]))
    y = tsum(tape.clip(x, -1.0, 1.0))
    y.backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_relu_subgradient_zero_at_zero():
    x = tape.Tensor(np.array([[0.0, -1e-12]]))
    y = tsum(_mlp(x, tape.constant(np.eye(2)), tape.constant(np.zeros(2)),
                  tape.constant(np.eye(2)), tape.constant(np.zeros(2))))
    y.backward()
    assert x.grad[0, 0] == 0.0 and x.grad[0, 1] == 0.0


def test_matmul_sum_gradient_structure():
    """grad of sum(A @ B) w.r.t. A is the broadcast of B's row sums."""
    rng = np.random.default_rng(4)
    A = tape.Tensor(rng.standard_normal((3, 4)))
    B = rng.standard_normal((4, 2))
    out = tsum(tape.matmul(A, tape.constant(B)))
    out.backward()
    assert np.allclose(A.grad, np.tile(B.sum(axis=1), (3, 1)), atol=1e-12)


def test_shape_mismatch_errors():
    with pytest.raises(ShapeMismatchError):
        tape.mul(tape.constant(np.ones((2, 3))), tape.constant(np.ones((4, 5))))
    with pytest.raises(ShapeMismatchError):
        tape.matmul(tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 3))))
    store = dc.ParamStore(seed=0)
    dc.init_mlp(store, "f", [3, 2])
    for x in (np.ones((2, 4)), np.ones(3), np.ones((1, 2, 3))):
        with pytest.raises(ShapeMismatchError, match="mlp_forward 'f'"):
            tape.mlp_forward(tape.bind(store), "f", tape.constant(x))


def test_backward_rejects_non_finite_loss():
    x = tape.Tensor(np.array([1.0, 2.0]))
    loss = tsum(tape.mul(x, tape.constant(np.array([np.nan, 1.0]))))
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        loss.backward()


def test_accumulate_rejects_non_finite_leaf_gradient():
    """`backward` checks only the loss; the leaves' gradients are checked
    once, in the store's gradient row, as a step gathers them."""
    store = dc.ParamStore(seed=0)
    store.add("x", (1,))
    store.params["x"][...] = 2.0
    bound = tape.bind(store)
    # clip hides the inf in the forward pass; the gradient 0 * inf is NaN
    loss = tsum(tape.clip(tape.mul(bound["x"], tape.constant(np.array([np.inf]))), -1.0, 1.0))
    assert loss.item() == 1.0
    with np.errstate(invalid="ignore"):
        loss.backward()
        assert np.isnan(bound["x"].grad).all()
        with pytest.raises(FloatingPointError, match="non-finite leaf gradient"):
            store.accumulate(bound)


def test_exp_overflow_clamped_finite():
    """The exp inside the KL and the sample is clamped: a logvar of +-1e6
    gives finite values and gradients."""
    for node in (lambda mu, lv: tape.gaussian_kl(mu, lv),
                 lambda mu, lv: tsum(tape.gaussian_sample(mu, lv, np.ones((1, 2))))):
        mu, lv = tape.Tensor(np.zeros((1, 2))), tape.Tensor(np.array([[1e6, -1e6]]))
        y = node(mu, lv)
        assert np.all(np.isfinite(y.data))
        y.backward()
        assert np.all(np.isfinite(lv.grad)) and np.all(np.isfinite(mu.grad))


# --- fused nodes against their chains -----------------------------------------------

# name: (input shapes, how many of them are leaves, fused node, unfused chain)
FUSED = {
    "affine_relu": ([(5, 4), (4, 3), (3,), (3, 2), (2,)], 5, _mlp, _mlp_chain),
    "affine_linear": ([(5, 4), (4, 3), (3,)], 3, _mlp, _mlp_chain),
    "mlp_forward": ([(5, 4), (4, 6), (6,), (6, 3), (3,), (3, 2), (2,)], 7, _mlp, _mlp_chain),
    "gaussian_kl": ([(5, 4), (5, 4)], 2, tape.gaussian_kl, composed_kl),
    "gaussian_sample": ([(5, 4), (5, 4), (5, 4)], 2, tape.gaussian_sample, composed_sample),
    "gin_layer": ([(5, 4), (3, 4), (4, 6), (6,), (6, 3), (3,)], 6,
                  _gin(_RING4), _gin(_RING4, composed=True)),
    "gin_layer_no_bonds": ([(4, 4), (3, 4), (4, 6), (6,), (6, 3), (3,)], 6,
                           _gin(_NO_BONDS), _gin(_NO_BONDS, composed=True)),
    "decode_group": ([(3, 4), (4, 6), (6,), (6, 3), (3,), (5, 3), (5,)], 5,
                     _decode(_DECODE_ROWS, False), _decode(_DECODE_ROWS, False, composed=True)),
    "decode_group_squared_error": ([(3, 4), (4, 6), (6,), (6, 3), (3,), (5, 3), (5,)], 5,
                                   _decode(_DECODE_ROWS, True),
                                   _decode(_DECODE_ROWS, True, composed=True)),
    "decode_group_one_row": ([(3, 4), (4, 6), (6,), (6, 3), (3,), (1, 3), (1,)], 5,
                             _decode(row_index([2], 3), False),
                             _decode(row_index([2], 3), False, composed=True)),
    "decode_group_per_column": ([(3, 4), (4, 6), (6,), (6, 3), (3,), (5, 3), (5,)], 5,
                                _decode(_DECODE_ROWS, _PER_COLUMN),
                                _decode(_DECODE_ROWS, _PER_COLUMN, composed=True)),
    "decode_group_all_rows": ([(5, 4), (4, 6), (6,), (6, 3), (3,), (5, 3), ()], 5,
                              _decode(None, _PER_COLUMN),
                              _decode(None, _PER_COLUMN, composed=True)),
    "add_n": ([(5, 4), (5, 4), (5, 4)], 3, lambda *ts: tape.add_n(ts),
              lambda *ts: functools.reduce(add, ts)),
}


def _draw(rng, shape, special: bool) -> np.ndarray:
    """Normal draws; with `special`, about a third of the entries are 0.0,
    -0.0, +-inf, NaN, subnormal or near the float range, where a product
    regrouped or scaled by 2 in another order rounds differently."""
    x = np.asarray(rng.standard_normal(shape))
    if special:
        hit = rng.random(shape) < 0.35
        x[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -3e-310, 1.5e308],
                            size=int(hit.sum()))
    return x


def _same_bits(a, b) -> bool:
    """Equal shapes and bits, any NaN matching any NaN: which NaN a sum
    keeps is left open, as in `RowIndex.add_to`."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_node_equals_its_chain_bit_for_bit(name, special, monkeypatch):
    """The fused node's value and every leaf gradient are the bits of the
    chain of primitives it replaced, with the leaves' gradients starting
    empty or holding earlier contributions, and with the scatters of both
    on `np.add.at` (seeds 0-4) and on the row tables (seeds 5-9)."""
    shapes, leaves, fused, chain = FUSED[name]
    cutoff = dc._ADD_AT_SIZE
    for seed in range(10):
        monkeypatch.setattr(dc, "_ADD_AT_SIZE", 0 if seed >= 5 else cutoff)
        rng = np.random.default_rng(zlib.crc32(f"{name}-{seed}".encode()))
        arrays = [_draw(rng, shape, special) for shape in shapes]
        for with_prior in (False, True):
            priors = [_draw(rng, shape, special) if with_prior else None
                      for shape in shapes[:leaves]]
            seed_grad = None
            results = []
            for build in (fused, chain):
                ts = [tape.Tensor(a.copy()) for a in arrays[:leaves]]
                with np.errstate(all="ignore"):
                    out = build(*ts, *arrays[leaves:])
                    if seed_grad is None:
                        seed_grad = _draw(rng, out.shape, special)

                    def seed_all(_g, out=out, ts=ts):
                        tape._acc(out, seed_grad)
                        for t, prior in zip(ts, priors):
                            t.grad = None if prior is None else prior.copy()

                    tape.Tensor(0.0, (*ts, out), seed_all).backward()
                results.append([out.data] + [t.grad for t in ts])
            for k, (got, want) in enumerate(zip(*results)):
                assert _same_bits(got, want), (seed, with_prior, "value" if k == 0 else k - 1)


@pytest.mark.parametrize("squared_error", [False, True, _PER_COLUMN],
                         ids=["bce", "squared_error", "per_column"])
@pytest.mark.parametrize("special", [False, True], ids=["normal", "special"])
def test_decode_group_row_sums_equal_its_chain(special, squared_error):
    """The per-entry NLL `decode_group` hands back, and so the row sums
    `batch_loss` takes of it for the loss breakdown, are the bits of the
    chain's."""
    for seed in range(5):
        rng = np.random.default_rng(zlib.crc32(f"rows-{seed}".encode()))
        z, w0, b0, w1, b1, y, weight = (_draw(rng, shape, special) for shape in
                                        [(3, 4), (4, 6), (6,), (6, 3), (3,), (5, 3), (5,)])
        layers = [(tape.Tensor(w0), tape.Tensor(b0)), (tape.Tensor(w1), tape.Tensor(b1))]
        with np.errstate(all="ignore"):
            got = tape.decode_group(tape.Tensor(z), _DECODE_ROWS, layers, y, weight,
                                  squared_error)[1]
            _, nll = composed_decode_group(tape.Tensor(z), _DECODE_ROWS, layers, y, weight,
                                           squared_error)
            assert _same_bits(got, nll.data), seed
            assert _same_bits(got.sum(axis=1), nll.data.sum(axis=1)), seed


def _masked_chain(h, y, flags):
    """Both NLLs on every entry, each masked to its columns and added, then
    summed: the probe's chain before it was a decoder."""
    mask = np.asarray(flags, dtype=np.float64)
    return tsum(add(tape.mul(composed_bce(h, y), tape.constant(1.0 - mask)),
                    tape.mul(composed_half_squared_error(h, y), tape.constant(mask))))


def test_decode_group_per_column_equals_the_masked_chain():
    """On finite inputs, a group with one likelihood per column has the
    value and gradients of the masked chain, bit for bit."""
    for seed in range(5):
        rng = np.random.default_rng(zlib.crc32(f"masked-{seed}".encode()))
        arrays = [rng.standard_normal(shape) for shape in
                  [(5, 4), (4, 6), (6,), (6, 3), (3,), (5, 3)]]
        y = arrays.pop()
        results = []
        for fused in (True, False):
            z, w0, b0, w1, b1 = leaves = [tape.Tensor(a) for a in arrays]
            if fused:
                out = tape.decode_group(z, None, [(w0, b0), (w1, b1)], y, 1.0, _PER_COLUMN)[0]
            else:
                bound = {"f.w0": w0, "f.b0": b0, "f.w1": w1, "f.b1": b1}
                out = _masked_chain(composed_mlp_forward(bound, "f", z), y, _PER_COLUMN)
            out.backward()
            results.append([out.data] + [t.grad for t in leaves])
        for k, (got, want) in enumerate(zip(*results)):
            assert _same_bits(got, want), (seed, k)


def test_decode_group_per_column_skips_the_other_nll():
    """An entry's other NLL never reaches the loss: the squared error of a
    logit of 1e200 overflows, but in a cross-entropy column it is not taken,
    where the masked chain's 0 * inf made the loss NaN."""
    z = tape.Tensor(np.array([[1e200, 0.5], [-1e200, -0.5]]))
    layers = [(tape.constant(np.eye(2)), tape.constant(np.zeros(2)))]
    y = np.array([[1.0, 0.2], [0.0, -0.3]])
    flags = np.array([False, True])
    with np.errstate(over="ignore", invalid="ignore"):
        out, nll = tape.decode_group(z, None, layers, y, 1.0, flags)
        out.backward()
        h = composed_mlp_forward({"f.w0": layers[0][0], "f.b0": layers[0][1]}, "f", z)
        masked = _masked_chain(h, y, flags)
    assert np.isnan(masked.item())
    assert np.isfinite(nll).all() and np.isfinite(z.grad).all()
    assert out.item() == nll.sum() == 0.5 * 0.3 ** 2 + 0.5 * 0.2 ** 2


def test_backward_shared_gradient_buffer_not_aliased():
    """add hands one buffer to both parents; later sums must not write into it."""
    for late in (lambda x: tape.mul(x, tape.constant(np.array([7.0, 11.0]))),
                 lambda x: tape.scatter_add_rows(
                     tape.mul(tape.gather_rows(x, row_index([1, 0, 1], 2)),
                            tape.constant(np.array([4.0, 7.0, 7.0]))),
                     row_index([0, 1, 1], 2))):
        x = tape.Tensor(np.array([1.0, 2.0]))
        y = tape.Tensor(np.array([3.0, 4.0]))
        s = add(x, y)
        loss = tsum(add(tape.mul(s, tape.constant(np.array([2.0, 5.0]))), late(x)))
        loss.backward()
        assert np.array_equal(x.grad, [9.0, 16.0])
        assert np.array_equal(y.grad, [2.0, 5.0])


def test_backward_twice_gives_same_gradient():
    x = tape.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
    loss = tsum(tape.gather_rows(tape.mul(x, x), row_index([0, 1, 1], 2)))
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, first)


# --- row index tables -------------------------------------------------------------

_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]),
                    st.floats(-4, 4), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def scatter_cases(draw, layout):
    """(index, num_rows, values, base): a "columns" index has at least as many
    rows as any row has entries, a "rows" index fewer. Values are 1-D, one
    column or three columns wide; base is a running gradient of any floats."""
    if layout == "columns":
        num_rows = draw(st.integers(0, 8))
        index = draw(st.lists(st.integers(0, max(num_rows - 1, 0)), max_size=2 * num_rows))
        assume(np.bincount(index, minlength=1).max() <= num_rows)
    else:
        num_rows = draw(st.integers(1, 3))
        index = draw(st.lists(st.integers(0, num_rows - 1), min_size=num_rows + 1,
                              max_size=40))
        assume(np.bincount(index).max() > num_rows)
    cols = draw(st.sampled_from([(), (1,), (3,)]))
    values = draw(hnp.arrays(np.float64, (len(index),) + cols, elements=_FLOATS))
    base = draw(hnp.arrays(np.float64, (num_rows,) + cols, elements=_FLOATS))
    return index, num_rows, values, base


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    """Equal bytes, the signs of zeros and infinities included, with NaNs in
    the same places. A NaN's own bits are not compared: IEEE 754 leaves open
    which NaN a sum of two returns, and numpy's loops differ on it
    (`np.add.at` keeps the row's NaN on 1-D values and the added one's on 2-D)."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("layout", ["columns", "rows"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scatter_and_gather_backward_equal_add_at(layout, data):
    """The scatter from zeros, and the gather's backward into no gradient and
    into a running one, give `np.add.at`'s bits, on the tables: the cutoff
    below which `add_to` calls `np.add.at` itself is set to 0."""
    index, num_rows, values, base = data.draw(scatter_cases(layout))
    rows = row_index(index, num_rows)
    with np.errstate(invalid="ignore", over="ignore"), mock.patch.object(dc, "_ADD_AT_SIZE", 0):
        got = tape.scatter_add_rows(tape.Tensor(values), rows).data
        assert_same_bits(got, reference_scatter_add(np.zeros_like(base), index, values))
        assert isinstance(rows._table, list) == (layout == "rows")
        for running in (None, base):
            a = tape.Tensor(np.zeros_like(base))
            gathered = tape.gather_rows(a, rows)
            a.grad = None if running is None else running.copy()
            gathered._bw(values)
            start = np.zeros_like(base) if running is None else running.copy()
            assert_same_bits(a.grad, reference_scatter_add(start, index, values))


@pytest.mark.parametrize("cols", [(), (1,)])
def test_long_row_sums_are_sequential(cols, monkeypatch):
    """Rows of up to 120 entries of mixed scale, where a pairwise sum (which
    numpy's reductions use on contiguous values) rounds differently, on the
    tables."""
    monkeypatch.setattr(dc, "_ADD_AT_SIZE", 0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        num_rows = int(rng.integers(1, 4))
        index = rng.integers(0, num_rows, int(rng.integers(40, 120)))
        scale = 10.0 ** rng.uniform(-3, 3, (len(index),) + cols)
        values = rng.standard_normal((len(index),) + cols) * scale
        base = rng.standard_normal((num_rows,) + cols)
        a = tape.Tensor(np.zeros_like(base))
        gathered = tape.gather_rows(a, row_index(index, num_rows))
        a.grad = base.copy()
        gathered._bw(values)
        assert a.grad.tobytes() == reference_scatter_add(base.copy(), index, values).tobytes()


@pytest.mark.parametrize("layout", ["columns", "rows"])
@pytest.mark.parametrize("width", [1, 8, 32])
def test_add_to_equals_add_at_on_both_sides_of_the_cutoff(layout, width):
    """Scatters of one entry fewer than the cutoff's values go to `np.add.at`;
    at the cutoff and past it they sum through the table. Both give
    `np.add.at`'s bits, -0.0 values and -0.0 running rows included."""
    rng = np.random.default_rng(width)
    per_entry = dc._ADD_AT_SIZE // width
    for entries in (per_entry - 1, per_entry, per_entry + 1, 2 * per_entry):
        num_rows = max(entries // 4, 1) if layout == "columns" else 2
        index = rng.integers(0, num_rows, entries)
        values = rng.standard_normal((entries, width)) * 10.0 ** rng.uniform(-3, 3,
                                                                            (entries, width))
        values[rng.random(values.shape) < 0.3] = -0.0
        base = np.where(rng.random((num_rows, width)) < 0.5, -0.0,
                        rng.standard_normal((num_rows, width)))
        base[0] = -0.0
        rows = row_index(index, num_rows)
        got = rows.add_to(base.copy(), values)
        assert got.tobytes() == reference_scatter_add(base.copy(), index, values).tobytes()
        assert isinstance(rows._table, list) == (layout == "rows")


def test_few_row_sums_equal_add_at_at_every_width(monkeypatch):
    """Few rows of many entries, on the tables: values of 2 to 128 columns
    are summed by `np.add.reduce` over [running row; entries] from -0.0,
    which must add the rows one after another, as `np.add.at` does, to give
    its bits, the sign of zero included. A numpy that sums them in another
    order fails here. One-column values take `np.cumsum`."""
    monkeypatch.setattr(dc, "_ADD_AT_SIZE", 0)
    rng = np.random.default_rng(11)
    for case in range(600):
        width = 1 if case % 10 == 0 else int(rng.integers(2, 129))
        num_rows = int(rng.integers(1, 5))
        index = rng.integers(0, num_rows, int(rng.integers(20, 300)))
        shape = (len(index), width)
        values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        values[rng.random(shape) < 0.2] = -0.0
        values[rng.random(shape) < 0.05] = 0.0
        base = np.where(rng.random((num_rows, width)) < 0.3, -0.0,
                        rng.standard_normal((num_rows, width)))
        if case % 3 == 0:  # a column of -0.0 sums to -0.0, as in `add.at`
            values[:, -1] = base[:, -1] = -0.0
        rows = row_index(index, num_rows)
        got = rows.add_to(base.copy(), values)
        assert isinstance(rows._table, list), case
        assert got.tobytes() == reference_scatter_add(base.copy(), index, values).tobytes(), case


def test_row_index_blocks_equal_each_blocks_own_index(monkeypatch):
    """Each RowIndex that `RowIndex.blocks` cuts holds its block's index and
    rows, and the table (columns or rows) `reference_row_table` builds from
    the block's index alone, with the positions the list layout reads; its
    sums are `np.add.at`'s bits. Blocks of no rows or no entries included."""
    monkeypatch.setattr(dc, "_ADD_AT_SIZE", 0)
    rng = np.random.default_rng(7)
    for case in range(300):
        num_rows = rng.integers(0, 7, int(rng.integers(1, 6)))
        sizes = np.where(num_rows > 0, rng.integers(0, 30, len(num_rows)), 0)
        parts = [rng.integers(0, max(n, 1), k) for n, k in zip(num_rows, sizes)]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        planned = dc.RowIndex.blocks(np.concatenate(parts), num_rows, bounds)
        assert len(planned) == len(parts)
        for rows, part, n in zip(planned, parts, num_rows.tolist()):
            table, positions = reference_row_table(part, n)
            assert np.array_equal(rows.index, part) and rows.num_rows == n
            if isinstance(table, list):
                assert rows._table == table, case
                assert np.array_equal(rows._positions, positions)
            else:
                assert rows._table.shape == table.shape
                assert np.array_equal(rows._table, table), case
            values = rng.standard_normal((len(part), 3))
            base = rng.standard_normal((n, 3))
            assert (rows.add_to(base.copy(), values).tobytes()
                    == reference_scatter_add(base.copy(), part, values).tobytes())
    with pytest.raises(IndexError, match="out of range for its block's rows"):
        dc.RowIndex.blocks([0, 1, 2], [3, 2], [0, 1, 3])
    with pytest.raises(ShapeMismatchError):
        dc.RowIndex.blocks([0, 1], [3, 2], [0, 1, 3])


def test_row_index_rejects_out_of_range_rows():
    for index in ([0, 2], [-1, 0]):
        with pytest.raises(IndexError, match="out of range for its block's rows"):
            row_index(index, 2)
    with pytest.raises(ShapeMismatchError):
        tape.scatter_add_rows(tape.Tensor(np.ones((3, 2))), row_index([0, 1], 2))


def test_bce_matches_scalar_oracle():
    """`decode_group`'s Bernoulli NLL, read from its per-entry NLL through
    an identity layer."""
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 6))
    y = rng.uniform(0, 1, size=(4, 6))
    identity = [(tape.constant(np.eye(6)), tape.constant(np.zeros(6)))]
    got = tape.decode_group(tape.constant(logits), None, identity, y, 1.0)[1]
    # independent scalar-loop oracle via explicit probabilities
    for i in range(4):
        for j in range(6):
            p = 1.0 / (1.0 + np.exp(-logits[i, j]))
            expect = -(y[i, j] * np.log(p) + (1 - y[i, j]) * np.log(1 - p))
            assert got[i, j] == pytest.approx(expect, abs=1e-10)


# --- MLP --------------------------------------------------------------------------

def test_mlp_identity_layer():
    store = dc.ParamStore(seed=0)
    dc.init_mlp(store, "f", [3, 3])
    store.params["f.w0"][...] = np.eye(3)
    x = np.random.default_rng(6).standard_normal((2, 3))
    out = tape.mlp_forward(tape.bind(store), "f", tape.constant(x))
    assert np.allclose(out.data, x)


def test_mlp_zero_weights_bias():
    store = dc.ParamStore(seed=0)
    dc.init_mlp(store, "f", [3, 2])
    store.params["f.w0"][...] = 0.0
    store.params["f.b0"][...] = [1.5, -2.0]
    out = tape.mlp_forward(tape.bind(store), "f", tape.constant(np.ones((4, 3))))
    assert np.allclose(out.data, np.tile([1.5, -2.0], (4, 1)))


def test_mlp_forward_is_one_node():
    """A three-layer stack builds one tape node, whose parents are x and each
    layer's w and b in order; its value and gradients are the chain's bits
    (the `mlp_forward` case of `test_fused_node_equals_its_chain_bit_for_bit`)."""
    store = dc.ParamStore(seed=5)
    dc.init_mlp(store, "f", [4, 6, 5, 2])
    bound = tape.bind(store)
    x = tape.Tensor(np.random.default_rng(8).standard_normal((3, 4)))
    with mock.patch.object(tape, "Tensor", wraps=tape.Tensor) as tensor:
        out = tape.mlp_forward(bound, "f", x)
    assert tensor.call_count == 1
    assert out._parents == (x, *(bound[f"f.{p}{k}"] for k in range(3) for p in "wb"))


def test_mlp_gradient_finite_difference():
    store = dc.ParamStore(seed=3)
    dc.init_mlp(store, "f", [5, 7, 2])
    x = np.random.default_rng(7).standard_normal((3, 5))

    for pname in store.params:
        bound = tape.bind(store)
        out = tsum(tape.mul(tape.mlp_forward(bound, "f", tape.constant(x)),
                             tape.mlp_forward(bound, "f", tape.constant(x))))
        out.backward()
        analytic = bound[pname].grad.copy()

        def f(arr, pname=pname):
            saved = store.params[pname].copy()
            store.params[pname][...] = arr
            b = tape.bind(store)
            h = tape.mlp_forward(b, "f", tape.constant(x))
            val = float(tsum(tape.mul(h, h)).data)
            store.params[pname][...] = saved
            return val

        numeric = finite_diff(f, store.params[pname].copy())
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-5, pname


# --- optimizer ----------------------------------------------------------------------

def test_store_rejects_0d_glorot_shape():
    """A 0-d shape has no fan-in for glorot: ValueError naming the parameter,
    as for an unknown init, and the store is left as it was. A 0-d zeros
    parameter is still allowed."""
    store = dc.ParamStore(seed=0)
    store.add("w", (2,))
    with pytest.raises(ValueError, match=r"^parameter 'x': glorot init needs a shape"):
        store.add("x", ())
    assert list(store.params) == ["w"] and store.flat.shape == (4, 2)
    store.add("x", (), init="zeros")
    assert store.params["x"].shape == () and store.flat.shape == (4, 3)


def test_adam_zero_gradient_no_change():
    store = dc.ParamStore(seed=0)
    store.add("w", (3, 3))
    before = store.params["w"].copy()
    dc.adam_step(store)
    assert np.array_equal(store.params["w"], before)


def test_adam_single_step_closed_form():
    """First step from zero moments moves by ~lr against the gradient sign."""
    store = dc.ParamStore(seed=0)
    store.add("w", (4,), init="zeros")
    g = np.array([1.0, -2.0, 0.5, -0.1])
    store.grads["w"][...] = g
    dc.adam_step(store, lr=1e-3)
    # bias-corrected mhat = g, vhat = g^2 -> update = -lr * g/|g| = -lr*sign(g)
    assert np.allclose(store.params["w"], -1e-3 * np.sign(g), atol=1e-6)


def test_adam_deterministic_trajectory():
    def run():
        store = dc.ParamStore(seed=5)
        store.add("w", (3, 2))
        x = np.random.default_rng(8).standard_normal((4, 3))
        for _ in range(10):
            bound = tape.bind(store)
            out = tsum(tape.mul(tape.matmul(tape.constant(x), bound["w"]),
                                 tape.matmul(tape.constant(x), bound["w"])))
            out.backward()
            store.accumulate(bound)
            dc.adam_step(store, lr=0.01)
        return store.params["w"].copy()
    assert np.array_equal(run(), run())


def _flat_adam_store():
    store = dc.ParamStore(seed=9)
    dc.init_mlp(store, "f", [5, 7, 3])
    store.add("g", (2, 3, 2))
    store.add("s", (), init="zeros")
    return store


def test_flat_adam_equals_per_parameter_loop():
    """20 steps over gradients of mixed scales, zeros and signed zeros."""
    flat, loop = _flat_adam_store(), _flat_adam_store()
    rng = np.random.default_rng(12)
    for _ in range(20):
        for name, arr in flat.params.items():
            g = rng.standard_normal(arr.shape) * 10.0 ** rng.integers(-9, 4, arr.shape)
            g = np.where(rng.random(arr.shape) < 0.1, rng.choice([0.0, -0.0]), g)
            flat.grads[name][...] = g
            loop.grads[name][...] = g
        dc.adam_step(flat, lr=1e-2)
        reference_adam_step(loop, lr=1e-2)
    for table in ("params", "_m", "_v", "grads"):
        for name, arr in getattr(loop, table).items():
            assert getattr(flat, table)[name].tobytes() == arr.tobytes(), (table, name)


def test_store_views_share_the_flat_buffer(tmp_path):
    store = dc.ParamStore(seed=2)
    for name, shape in [("a", (3, 2)), ("b", (4,)), ("c", (1,))]:
        store.add(name, shape)
        store.params[name][...] += 1.0  # written through the view, kept by later adds
        for table in (store.params, store.grads, store._m, store._v):
            assert all(np.shares_memory(view, store.flat) for view in table.values())
    assert store.flat.shape == (4, 3 * 2 + 4 + 1)
    dc.save_params(tmp_path / "s.iapt", store)
    loaded, _ = dc.load_params(tmp_path / "s.iapt")
    for table in (loaded.params, loaded.grads, loaded._m, loaded._v):
        assert all(np.shares_memory(view, loaded.flat) for view in table.values())
    assert loaded.flat[0].tobytes() == store.flat[0].tobytes()


def _adam3_store():
    """Three Adam steps on seeded gradients; no BLAS product is involved."""
    store = dc.ParamStore(seed=11)
    dc.init_mlp(store, "f", [4, 8, 2])
    store.add("g", (2, 3, 2))
    for step in range(3):
        rng = np.random.default_rng(step)
        for name, arr in store.params.items():
            store.grads[name][...] = rng.standard_normal(arr.shape)
        dc.adam_step(store, lr=1e-2)
    return store


def test_checkpoint_of_per_parameter_store_round_trips(tmp_path):
    """`data/adam3.iapt` was written by the store that kept one array per
    parameter, from `_adam3_store`. Loading and saving it again gives
    its bytes, and so does the same recipe run on the flat store."""
    fixture = DATA / "adam3.iapt"
    store, manifest = dc.load_params(fixture)
    dc.save_params(tmp_path / "again.iapt", store, manifest)
    assert (tmp_path / "again.iapt").read_bytes() == fixture.read_bytes()
    dc.save_params(tmp_path / "fresh.iapt", _adam3_store(), {"recipe": "adam_fixture"})
    assert (tmp_path / "fresh.iapt").read_bytes() == fixture.read_bytes()


def test_init_deterministic_per_seed():
    a = dc.ParamStore(seed=7)
    a.add("w", (5, 5))
    b = dc.ParamStore(seed=7)
    b.add("w", (5, 5))
    c = dc.ParamStore(seed=8)
    c.add("w", (5, 5))
    assert np.array_equal(a.params["w"], b.params["w"])
    assert not np.array_equal(a.params["w"], c.params["w"])
    limit = np.sqrt(6.0 / 10)
    assert np.abs(a.params["w"]).max() <= limit


@pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1])
def test_seeded_streams_draw_as_seeded_rng(seed):
    """Each stream of `seeded_streams` draws what a fresh `seeded_rng(seed,
    i)` draws, although the generator before it was left mid-buffer: by a
    uint32 draw (half of a 64-bit word kept), a 32-bit integer draw or a
    double."""
    leave = [lambda r: r.integers(0, 2**32, dtype=np.uint32),
             lambda r: r.integers(0, 1000, 3, dtype=np.int32), lambda r: r.random(), None]
    for i, rng in enumerate(dc.seeded_streams(seed, range(50))):
        fresh = dc.seeded_rng(seed, i)
        for draw in (lambda r: r.random((2, 3)), lambda r: r.integers(0, 2**32, 5, np.uint32),
                     lambda r: r.standard_normal(4)):
            assert draw(rng).tobytes() == draw(fresh).tobytes(), i
        if leave[i % 4]:
            leave[i % 4](rng)
    assert rng.bit_generator.state["state"]["key"].tolist() == [seed % 2**64, 49]


# --- checkpoints ----------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    store = dc.ParamStore(seed=1)
    dc.init_mlp(store, "f", [4, 8, 2])
    # take a few steps so moments are nontrivial
    for _ in range(3):
        bound = tape.bind(store)
        out = tsum(tape.mul(tape.mlp_forward(bound, "f", tape.constant(np.ones((2, 4)))),
                             tape.constant(np.ones((2, 2)))))
        out.backward()
        store.accumulate(bound)
        dc.adam_step(store)
    p = tmp_path / "ck.iapt"
    dc.save_params(p, store, {"note": "x"})
    store2, manifest = dc.load_params(p)
    assert manifest == {"note": "x"}
    assert store2.step == store.step
    for name in store.params:
        assert np.array_equal(store2.params[name], store.params[name])
        assert np.array_equal(store2._m[name], store._m[name])
        assert np.array_equal(store2._v[name], store._v[name])
    # saving the loaded store is byte-identical
    p2 = tmp_path / "ck2.iapt"
    dc.save_params(p2, store2, {"note": "x"})
    assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("array,label", [(0, "parameter"), (1, "Adam first moment of"),
                                         (2, "Adam second moment of")])
def test_checkpoint_non_finite_value_names_array(tmp_path, array, label):
    store = dc.ParamStore(seed=1)
    dc.init_mlp(store, "f", [3, 2])
    (store.params, store._m, store._v)[array]["f.w0"][1, 0] = np.nan
    p = tmp_path / "nan.iapt"
    dc.save_params(p, store)
    with pytest.raises(CorruptFileError, match=f"{label} 'f.w0' is not finite") as exc:
        dc.load_params(p)
    assert str(p) in str(exc.value)


def test_checkpoint_wrong_magic(tmp_path):
    from infoalign import serialize
    p = tmp_path / "bad.bin"
    serialize.write_container(p, b"XXXX", {}, [])
    with pytest.raises(CorruptFileError):
        dc.load_params(p)
