"""Autodiff substrate tests: central finite differences for every primitive,
the row-index scatter and the flat Adam against their slow oracles, MLP
gradient checks, Adam behavior, checkpoint round-trips."""

import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import infoalign.diffcore as dc
from infoalign.errors import CorruptFileError, ShapeMismatchError
from tests.oracles import reference_adam_step, reference_scatter_add

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
    leaf = dc.Tensor(x0.copy())
    out = build(leaf)
    out.backward()
    analytic = leaf.grad

    def f(x):
        return build(dc.Tensor(x)).data.sum()

    numeric = finite_diff(f, x0.copy(), eps)
    denom = np.maximum(np.abs(numeric), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < rtol, f"max rel err {rel.max():.3g}"


def _c(shape, seed):
    """Frozen random constant (the same array on every call)."""
    return dc.constant(np.random.default_rng(seed).standard_normal(shape))


def test_square_gradient_closed_form():
    x = dc.Tensor(np.array([3.0]))
    y = dc.mul(x, x)
    y.backward()
    assert x.grad[0] == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("name,build", [
    ("add", lambda t: dc.tsum(dc.mul(dc.add(t, _c((3, 4), 10)), _c((3, 4), 11)))),
    ("add_broadcast", lambda t: dc.tsum(dc.mul(dc.add(t, _c((1, 4), 12)), _c((3, 4), 13)))),
    ("neg", lambda t: dc.tsum(dc.mul(dc.neg(t), _c((3, 4), 14)))),
    ("mul", lambda t: dc.tsum(dc.mul(t, _c((3, 4), 15)))),
    ("matmul", lambda t: dc.tsum(dc.matmul(t, _c((4, 2), 16)))),
    ("relu", lambda t: dc.tsum(dc.mul(dc.relu(t), _c((3, 4), 17)))),
    ("exp", lambda t: dc.tsum(dc.mul(dc.exp(t), _c((3, 4), 19)))),
    ("softplus", lambda t: dc.tsum(dc.mul(dc.softplus(t), _c((3, 4), 21)))),
    ("tsum_axis", lambda t: dc.tsum(dc.mul(dc.tsum(t, axis=0, keepdims=True), _c((1, 4), 22)))),
    ("gather", lambda t: dc.tsum(dc.mul(dc.gather_rows(t, [0, 2, 2, 1]), _c((4, 4), 25)))),
    ("scatter", lambda t: dc.tsum(dc.mul(dc.scatter_add_rows(t, [1, 0, 1], 2), _c((2, 4), 26)))),
    ("clip", lambda t: dc.tsum(dc.mul(dc.clip(t, -0.5, 0.5), _c((3, 4), 27)))),
    ("bce", lambda t: dc.tsum(dc.bce_with_logits(t, np.full((3, 4), 0.3)))),
])
def test_primitive_gradients(name, build):
    # A fixed seed per case: str hashes are salted per process.
    x0 = np.random.default_rng(zlib.crc32(name.encode())).standard_normal((3, 4)) + 0.1
    check_gradient(build, x0)


def test_clip_gradient_pass_through():
    x = dc.Tensor(np.array([-2.0, 0.5, 2.0]))
    y = dc.tsum(dc.clip(x, -1.0, 1.0))
    y.backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_relu_subgradient_zero_at_zero():
    x = dc.Tensor(np.array([0.0, -1e-12]))
    y = dc.tsum(dc.relu(x))
    y.backward()
    assert x.grad[0] == 0.0 and x.grad[1] == 0.0


def test_matmul_sum_gradient_structure():
    """grad of sum(A @ B) w.r.t. A is the broadcast of B's row sums."""
    rng = np.random.default_rng(4)
    A = dc.Tensor(rng.standard_normal((3, 4)))
    B = rng.standard_normal((4, 2))
    out = dc.tsum(dc.matmul(A, dc.constant(B)))
    out.backward()
    assert np.allclose(A.grad, np.tile(B.sum(axis=1), (3, 1)), atol=1e-12)


def test_shape_mismatch_errors():
    with pytest.raises(ShapeMismatchError):
        dc.add(dc.constant(np.ones((2, 3))), dc.constant(np.ones((4, 5))))
    with pytest.raises(ShapeMismatchError):
        dc.matmul(dc.constant(np.ones((2, 3))), dc.constant(np.ones((2, 3))))


def test_backward_rejects_non_finite_loss():
    x = dc.Tensor(np.array([1.0, 2.0]))
    loss = dc.tsum(dc.mul(x, dc.constant(np.array([np.nan, 1.0]))))
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        loss.backward()


def test_backward_rejects_non_finite_leaf_gradient():
    # clip hides the inf in the forward pass; the gradient 0 * inf is NaN
    x = dc.Tensor(np.array([2.0]))
    loss = dc.tsum(dc.clip(dc.mul(x, dc.constant(np.array([np.inf]))), -1.0, 1.0))
    assert loss.item() == 1.0
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="non-finite leaf gradient"):
        loss.backward()


def test_exp_overflow_clamped_finite():
    x = dc.Tensor(np.array([1e6, -1e6]))
    y = dc.exp(x)
    assert np.all(np.isfinite(y.data))
    dc.tsum(y).backward()
    assert np.all(np.isfinite(x.grad))


def test_backward_shared_gradient_buffer_not_aliased():
    """add hands one buffer to both parents; later sums must not write into it."""
    for late in (lambda x: dc.mul(x, dc.constant(np.array([7.0, 11.0]))),
                 lambda x: dc.scatter_add_rows(dc.mul(dc.gather_rows(x, [1, 0, 1]),
                                                      dc.constant(np.array([4.0, 7.0, 7.0]))),
                                               [0, 1, 1], 2)):
        x = dc.Tensor(np.array([1.0, 2.0]))
        y = dc.Tensor(np.array([3.0, 4.0]))
        s = dc.add(x, y)
        loss = dc.tsum(dc.add(dc.mul(s, dc.constant(np.array([2.0, 5.0]))), late(x)))
        loss.backward()
        assert np.array_equal(x.grad, [9.0, 16.0])
        assert np.array_equal(y.grad, [2.0, 5.0])


def test_backward_twice_gives_same_gradient():
    x = dc.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
    loss = dc.tsum(dc.gather_rows(dc.mul(x, x), [0, 1, 1]))
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
    into a running one, give `np.add.at`'s bits."""
    index, num_rows, values, base = data.draw(scatter_cases(layout))
    rows = dc.RowIndex(index, num_rows)
    with np.errstate(invalid="ignore", over="ignore"):
        got = dc.scatter_add_rows(dc.Tensor(values), rows).data
        assert_same_bits(got, reference_scatter_add(np.zeros_like(base), index, values))
        assert isinstance(rows._table, list) == (layout == "rows")
        for running in (None, base):
            a = dc.Tensor(np.zeros_like(base))
            gathered = dc.gather_rows(a, rows)
            a.grad = None if running is None else running.copy()
            gathered._bw(values)
            start = np.zeros_like(base) if running is None else running.copy()
            assert_same_bits(a.grad, reference_scatter_add(start, index, values))


@pytest.mark.parametrize("cols", [(), (1,)])
def test_long_row_sums_are_sequential(cols):
    """Rows of up to 120 entries of mixed scale, where a pairwise sum (which
    numpy's reductions use on contiguous values) rounds differently."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        num_rows = int(rng.integers(1, 4))
        index = rng.integers(0, num_rows, int(rng.integers(40, 120)))
        scale = 10.0 ** rng.uniform(-3, 3, (len(index),) + cols)
        values = rng.standard_normal((len(index),) + cols) * scale
        base = rng.standard_normal((num_rows,) + cols)
        a = dc.Tensor(np.zeros_like(base))
        gathered = dc.gather_rows(a, index)
        a.grad = base.copy()
        gathered._bw(values)
        assert a.grad.tobytes() == reference_scatter_add(base.copy(), index, values).tobytes()


def test_row_index_rejects_out_of_range_rows():
    for index in ([0, 2], [-1, 0]):
        with pytest.raises(IndexError, match="out of range for 2 rows"):
            dc.RowIndex(index, 2)
    with pytest.raises(ShapeMismatchError):
        dc.scatter_add_rows(dc.Tensor(np.ones((3, 2))), [0, 1], 2)


def test_bce_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 6))
    y = rng.uniform(0, 1, size=(4, 6))
    got = dc.bce_with_logits(dc.constant(logits), y).data
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
    out = dc.mlp_forward(store.bind(), "f", dc.constant(x))
    assert np.allclose(out.data, x)


def test_mlp_zero_weights_bias():
    store = dc.ParamStore(seed=0)
    dc.init_mlp(store, "f", [3, 2])
    store.params["f.w0"][...] = 0.0
    store.params["f.b0"][...] = [1.5, -2.0]
    out = dc.mlp_forward(store.bind(), "f", dc.constant(np.ones((4, 3))))
    assert np.allclose(out.data, np.tile([1.5, -2.0], (4, 1)))


def test_mlp_gradient_finite_difference():
    store = dc.ParamStore(seed=3)
    dc.init_mlp(store, "f", [5, 7, 2])
    x = np.random.default_rng(7).standard_normal((3, 5))

    for pname in store.params:
        bound = store.bind()
        out = dc.tsum(dc.mul(dc.mlp_forward(bound, "f", dc.constant(x)),
                             dc.mlp_forward(bound, "f", dc.constant(x))))
        out.backward()
        analytic = bound[pname].grad.copy()

        def f(arr, pname=pname):
            saved = store.params[pname].copy()
            store.params[pname][...] = arr
            b = store.bind()
            h = dc.mlp_forward(b, "f", dc.constant(x))
            val = float(dc.tsum(dc.mul(h, h)).data)
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
            bound = store.bind()
            out = dc.tsum(dc.mul(dc.matmul(dc.constant(x), bound["w"]),
                                 dc.matmul(dc.constant(x), bound["w"])))
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


# --- checkpoints ----------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    store = dc.ParamStore(seed=1)
    dc.init_mlp(store, "f", [4, 8, 2])
    # take a few steps so moments are nontrivial
    for _ in range(3):
        bound = store.bind()
        out = dc.tsum(dc.mul(dc.mlp_forward(bound, "f", dc.constant(np.ones((2, 4)))),
                             dc.constant(np.ones((2, 2)))))
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
