import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepatch import numcore as nc
from sparsepatch import psformer
from sparsepatch.errors import NumericalError, ShapeError, ValidationError


def test_tensor_shapes():
    t = nc.Tensor(3.0)
    assert t.shape == (1, 1)
    assert t.item() == 3.0
    with pytest.raises(ShapeError):
        nc.Tensor([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        nc.Tensor(np.zeros((2, 2, 2)))


def test_matmul_known_value():
    a = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = nc.Tensor([[5.0], [6.0]])
    out = nc.matmul(a, b)
    # [1*5+2*6, 3*5+4*6]
    assert out.data.tolist() == [[17.0], [39.0]]
    with pytest.raises(ShapeError):
        nc.matmul(a, nc.Tensor([[1.0, 2.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_matmul_matches_numpy(m, k, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    out = nc.matmul(nc.Tensor(a), nc.Tensor(b))
    assert np.allclose(out.data, a @ b, atol=1e-12)


def test_nonfinite_rejected():
    x = nc.Tensor([[0.0, -1.0]])
    with pytest.raises(NumericalError):
        nc.log_(x)


def test_fused_ops_refuse_what_their_op_chains_refused():
    # a row of +-1e200 has a finite mean but an infinite variance, which
    # would normalize it to zeros; a bias add that overflows the product
    params = nc.ParamSet()
    params.add("huge.w", [[1e308]])
    params.add("huge.b", [[1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            nc.layer_norm(nc.Tensor([[1e200, -1e200, 1.0], [0.5, 1.0, 2.0]]),
                          nc.Tensor(np.ones((1, 3))), nc.Tensor(np.zeros((1, 3))))
        with pytest.raises(NumericalError):
            psformer._linear(nc.Tensor([[1.0]]), params, "huge")


@pytest.mark.parametrize("constant", [0, 1])
def test_matmul_backward_skips_a_constant_operand(constant):
    # the product for an operand that records no gradient is never formed
    a = nc.Tensor(_rand((5, 4), 63), requires_grad=constant != 0)
    b = nc.Tensor(_rand((4, 3), 64), requires_grad=constant != 1)
    g = _rand((5, 3), 65)
    with nc.tape() as t:
        out = nc.matmul(a, b)
        grads = t._entries[-1][2](g)
        t.backward(nc.sum_(nc.mul(out, nc.Tensor(g)), None))
    assert grads[constant] is None
    live = (a, b)[1 - constant]
    want = g @ b.data.T if constant else a.data.T @ g
    assert np.array_equal(grads[1 - constant], want)
    assert np.array_equal(live.grad, want)
    assert (a, b)[constant].grad is None


def test_backward_accumulates_on_leaves():
    w = nc.Tensor([[2.0]], requires_grad=True)
    with nc.tape() as t:
        first = nc.mul(w, w)
        t.backward(first)
    assert w.grad[0, 0] == 4.0
    with nc.tape() as t:
        second = nc.scale(w, 3.0)
        t.backward(second)
    # gradients accumulate until cleared
    assert w.grad[0, 0] == 7.0


def _rand(shape, seed, lo=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal(shape)
    if lo is not None:
        x = np.abs(x) + lo
    # keep clear of relu/max kinks so finite differences stay clean
    x = np.where(np.abs(x) < 1e-2, x + 0.05, x)
    return x


def _op_cases():
    w = nc.Tensor(_rand((4, 3), 7))
    idx = np.array([2, 0, 2, 1])
    labels = np.array([1, 0, 2, 1])
    gamma = nc.Tensor(_rand((1, 3), 8))
    beta = nc.Tensor(_rand((1, 3), 9))
    ln_x = nc.Tensor(_rand((4, 3), 61))
    ln_weight = nc.Tensor(_rand((4, 3), 62))
    # two segments of unequal length: one attends to its own rows as a
    # slice, the other to its own rows plus aux key/value rows 5-7 by
    # index; two heads, dk = 2, dv = 3
    segments = [(slice(0, 2), slice(0, 2)),
                (slice(2, 5), np.array([2, 3, 4, 5, 6, 7]))]
    q = nc.Tensor(_rand((5, 4), 44))
    k = nc.Tensor(_rand((8, 4), 45))
    v = nc.Tensor(_rand((8, 6), 46))
    attn_weight = nc.Tensor(_rand((5, 6), 47))

    def attention(q_, k_, v_):
        out = nc.multihead_attention(q_, k_, v_, 2, segments)
        return nc.mul(out, attn_weight)

    # case ids name the operation: sum_, mean, concat and slice_ get one
    # case per axis, and a row max or min is gather_labels at the arg-extreme
    return [
        ("matmul", lambda x: nc.matmul(x, w), _rand((5, 4), 1)),
        ("transpose", lambda x: nc.transpose(x), _rand((3, 4), 2)),
        ("add_row_broadcast", lambda x: nc.add(x, nc.Tensor(_rand((1, 3), 20))), _rand((4, 3), 3)),
        ("add_col_broadcast", lambda x: nc.add(nc.Tensor(_rand((4, 3), 21)), x), _rand((4, 1), 4)),
        ("sub", lambda x: nc.sub(x, nc.Tensor(_rand((4, 3), 22))), _rand((4, 3), 5)),
        ("mul", lambda x: nc.mul(x, nc.Tensor(_rand((4, 3), 23))), _rand((4, 3), 6)),
        ("scale", lambda x: nc.scale(x, -2.5), _rand((3, 3), 7)),
        ("add_const", lambda x: nc.add_const(x, 1.75), _rand((2, 3), 8)),
        ("relu", lambda x: nc.relu(x), _rand((4, 4), 9)),
        ("gelu", lambda x: nc.gelu(x), _rand((4, 4), 10)),
        ("exp", lambda x: nc.exp_(x), _rand((3, 3), 12)),
        ("log", lambda x: nc.log_(x), _rand((3, 3), 13, lo=0.5)),
        ("sqrt", lambda x: nc.sqrt_(x), _rand((3, 3), 14, lo=0.5)),
        ("reciprocal", lambda x: nc.reciprocal(x), _rand((3, 3), 15, lo=0.5)),
        ("rowsum", lambda x: nc.sum_(x, 1), _rand((4, 3), 17)),
        ("rowmean", lambda x: nc.mean(x, 1), _rand((4, 3), 18)),
        ("colsum", lambda x: nc.sum_(x, 0), _rand((4, 3), 19)),
        ("colmean", lambda x: nc.mean(x, 0), _rand((4, 3), 30)),
        ("segment_mean", lambda x: nc.segment_mean(x, [2, 1, 3]), _rand((6, 3), 29)),
        ("sum_all", lambda x: nc.sum_(nc.mul(x, nc.Tensor(_rand((3, 4), 48))), None), _rand((3, 4), 28)),
        ("mean_all", lambda x: nc.mean(nc.mul(x, nc.Tensor(_rand((3, 4), 53))), None), _rand((3, 4), 54)),
        ("attention_q", lambda x: attention(x, k, v), _rand((5, 4), 49)),
        ("attention_k", lambda x: attention(q, x, v), _rand((8, 4), 50)),
        ("attention_v", lambda x: attention(q, k, x), _rand((8, 6), 51)),
        ("rowmax", lambda x: nc.gather_labels(x, x.data.argmax(axis=1)), _rand((4, 5), 31)),
        ("rowmin", lambda x: nc.gather_labels(x, x.data.argmin(axis=1)), _rand((4, 5), 32)),
        ("concat_rows", lambda x: nc.concat([x, nc.Tensor(_rand((2, 3), 24))], 0), _rand((3, 3), 33)),
        ("concat_cols", lambda x: nc.concat([x, nc.Tensor(_rand((3, 2), 25))], 1), _rand((3, 3), 34)),
        ("slice_rows", lambda x: nc.slice_(x, 1, 3, 0), _rand((4, 3), 35)),
        ("slice_cols", lambda x: nc.slice_(x, 0, 2, 1), _rand((4, 3), 36)),
        ("gather_rows", lambda x: nc.gather_rows(x, idx), _rand((3, 3), 37)),
        ("gather_labels", lambda x: nc.gather_labels(x, labels), _rand((4, 3), 38)),
        # odd 2x3x5 grid, offset 1: taps past the far edges read padding
        ("neighborhood", lambda x: nc.mul(nc.neighborhood_rows(x, 2, 3, 5, 1, range(2)),
                                          nc.Tensor(_rand((4, 54), 52))), _rand((30, 2), 39)),
        ("layer_norm", lambda x: nc.layer_norm(x, gamma, beta), _rand((4, 3), 41)),
        ("layer_norm_gamma", lambda x: nc.mul(nc.layer_norm(ln_x, x, beta), ln_weight),
         _rand((1, 3), 56)),
        ("layer_norm_beta", lambda x: nc.mul(nc.layer_norm(ln_x, gamma, x), ln_weight),
         _rand((1, 3), 57)),
        ("matmul_bias", lambda x: nc.mul(nc.matmul(nc.Tensor(_rand((5, 4), 58)), w, x),
                                         nc.Tensor(_rand((5, 3), 59))), _rand((1, 3), 60)),
        ("cosine_distance", lambda x: nc.cosine_distance(x, nc.Tensor(_rand((1, 5), 26))), _rand((1, 5), 42)),
    ]


@pytest.mark.parametrize("name,op,value", _op_cases(),
                         ids=[c[0] for c in _op_cases()])
def test_op_gradients(name, op, value):
    x = nc.Tensor(value.copy())
    err = nc.grad_check(lambda: nc.mean(op(x), None), {"x": x}, ["x"])["x"]
    assert err < 1e-4, f"{name}: grad error {err:.3e}"


@pytest.mark.parametrize("name,op,value", _op_cases(),
                         ids=[c[0] for c in _op_cases()])
def test_ops_leave_their_inputs_unchanged(name, op, value, monkeypatch):
    # no op writes into an array it did not allocate, forward or backward,
    # which is what lets an op return a view of its input; every public
    # numcore function snapshots its tensor arguments as it is called
    seen = []

    def snapshotting(fn):
        def call(*args, **kwargs):
            for arg in args:
                for tensor in arg if isinstance(arg, list) else [arg]:
                    if isinstance(tensor, nc.Tensor):
                        seen.append((tensor, tensor.data.tobytes()))
            return fn(*args, **kwargs)
        return call

    for attr, fn in list(vars(nc).items()):
        if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == nc.__name__:
            monkeypatch.setattr(nc, attr, snapshotting(fn))
    x = nc.Tensor(value.copy(), requires_grad=True)
    with nc.tape() as t:
        t.backward(nc.mean(op(x), None))
    assert x.grad is not None and any(tensor is x for tensor, _ in seen)
    for tensor, before in seen:
        assert tensor.data.tobytes() == before, f"{name}: an input of shape {tensor.shape} changed"


def test_slices_are_views_and_a_gather_copies_once():
    x = nc.Tensor(_rand((4096, 64), 66))
    for axis in (0, 1):
        assert np.shares_memory(nc.slice_(x, 1, 3, axis).data, x.data)
    idx = np.arange(4096)[::-1].copy()
    tracemalloc.start()
    try:
        out = nc.gather_rows(x, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.data, x.data[::-1])
    assert out.data.nbytes <= peak < 1.5 * out.data.nbytes


def test_bad_axis_is_refused_before_any_work(monkeypatch):
    def no_work(*_args):
        raise AssertionError("an op with a bad axis reached _record")

    monkeypatch.setattr(nc, "_record", no_work)
    x = nc.Tensor(_rand((3, 4), 55), requires_grad=True)
    calls = [lambda axis: nc.sum_(x, axis), lambda axis: nc.mean(x, axis),
             lambda axis: nc.concat([x, x], axis), lambda axis: nc.slice_(x, 0, 1, axis)]
    with nc.tape() as t:
        for call in calls:
            for axis in (2, -1, True, 1.0, "rows"):
                with pytest.raises(ShapeError, match="axis must be one of"):
                    call(axis)
        for call in calls[2:]:
            with pytest.raises(ShapeError, match="axis must be one of"):
                call(None)
        with pytest.raises(ShapeError, match="axis must be one of"):
            nc.concat([], 2)
    assert len(t) == 0


def test_row_max_and_min_send_the_gradient_to_the_first_tied_extreme():
    x = nc.Tensor([[1.0, 3.0, 3.0], [-2.0, 0.0, -2.0]], requires_grad=True)
    with nc.tape() as t:
        top = nc.gather_labels(x, x.data.argmax(axis=1))
        bottom = nc.gather_labels(x, x.data.argmin(axis=1))
        t.backward(nc.sum_(nc.add(top, nc.scale(bottom, 2.0)), None))
    assert top.data.tolist() == [[3.0], [0.0]]
    assert bottom.data.tolist() == [[1.0], [-2.0]]
    assert x.grad.tolist() == [[2.0, 1.0, 0.0], [2.0, 1.0, 0.0]]


def _neighborhood_oracle(grid, offset, g):
    """Loop gather of every centre's 27 taps (zero outside the grid), and
    the scatter-add of the output gradient ``g`` back to the grid cells."""
    t, h, w, c = grid.shape
    rows, gx = [], np.zeros_like(grid)
    for ti in range(t):
        for yo in range(h // 2):
            for xo in range(w // 2):
                g_row = g[len(rows)].reshape(27, c)
                row = []
                for k, (dt, dy, dx) in enumerate(itertools.product((-1, 0, 1), repeat=3)):
                    tt, y, x = ti + dt, 2 * yo + offset + dy, 2 * xo + offset + dx
                    if 0 <= tt < t and 0 <= y < h and 0 <= x < w:
                        row.append(grid[tt, y, x])
                        gx[tt, y, x] += g_row[k]
                    else:
                        row.append(np.zeros(c))
                rows.append(np.concatenate(row))
    return np.array(rows).reshape(-1, 27 * c), gx.reshape(-1, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
       st.integers(0, 1), st.integers(0, 2**31 - 1))
def test_neighborhood_rows_matches_loop_gather(frames, height, width, channels, offset, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = rng.standard_normal((frames, height, width, channels))
    g = rng.standard_normal((frames * (height // 2) * (width // 2), 27 * channels))
    want, want_grad = _neighborhood_oracle(grid, offset, g)
    x = nc.Tensor(grid.reshape(-1, channels), requires_grad=True)
    with nc.tape() as t:
        cols = nc.neighborhood_rows(x, frames, height, width, offset, range(frames))
        t.backward(nc.sum_(nc.mul(cols, nc.Tensor(g)), None))
    assert np.array_equal(cols.data, want)
    assert np.allclose(x.grad, want_grad, rtol=0.0, atol=1e-12)


def test_recorded_neighborhood_rows_keeps_only_its_output_alive():
    # the backward reads no forward buffer, so once the forward returns the
    # tape holds the output and a small closure, not the padded volume
    frames, height, width, c = 4, 32, 32, 8
    rng = np.random.Generator(np.random.PCG64(3))
    x = nc.Tensor(rng.standard_normal((frames * height * width, c)), requires_grad=True)
    padded_bytes = (frames + 2) * (height + 2) * (width + 2) * c * 8
    with nc.tape():
        tracemalloc.start()
        try:
            cols = nc.neighborhood_rows(x, frames, height, width, 1, range(frames))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert cols.data.nbytes <= held <= cols.data.nbytes + padded_bytes // 8


def test_neighborhood_rows_rejects_bad_grid_or_offset():
    x = nc.Tensor(np.zeros((2 * 4 * 6, 3)))
    assert nc.neighborhood_rows(x, 2, 4, 6, 1, range(2)).shape == (2 * 2 * 3, 81)
    for frames, height, width, offset in ((2, 4, 5, 0), (3, 4, 6, 0), (2, 4, 6, 2), (2, 4, 6, -1)):
        with pytest.raises(ShapeError):
            nc.neighborhood_rows(x, frames, height, width, offset, range(frames))


def test_grad_check_detects_scale_error():
    # a deliberately wrong gradient must be caught, otherwise the checker
    # itself is vacuous
    x = nc.Tensor(_rand((2, 2), 50))
    err = nc.grad_check(lambda: nc.mean(nc.mul(x, nc.Tensor(x.data.copy())), None),
                        {"x": x}, ["x"])["x"]
    assert err > 0.3


def test_grad_check_leaves_every_tensor_as_found(monkeypatch):
    # one taped pass gives every checked gradient, only the checked tensors
    # record in it, and every tensor handed in gets its own requires_grad
    # and grad back, also when the loss raises
    params = nc.ParamSet()
    a = params.add("a", _rand((3, 4), 61))
    b = params.add("b", _rand((4, 2), 62))
    bias = params.add("bias", _rand((1, 2), 63))
    held = np.ones((4, 2))
    b.grad = held
    x = nc.Tensor(_rand((5, 2), 64), requires_grad=True)
    frozen = nc.Tensor(_rand((2, 3), 65))
    weight = nc.Tensor(_rand((3, 2), 66))
    tensors = {"x": x, "frozen": frozen, "weight": weight}

    passes = []
    real_backward = nc.Tape.backward

    def spy(tape, loss):
        real_backward(tape, loss)
        # what the unchecked matmul operands hold inside the pass
        passes.append((b.grad, frozen.grad))

    monkeypatch.setattr(nc.Tape, "backward", spy)

    def found(group):
        return [(t, t.requires_grad, t.grad) for _, t in group.items()]

    def assert_as_found(before):
        for t, requires_grad, grad in before:
            assert t.requires_grad == requires_grad
            assert t.grad is grad

    before = found(params)
    errs = nc.grad_check(lambda: nc.mean(nc.matmul(nc.matmul(a, b, bias), frozen), None),
                         params, ["a", "bias"])
    assert sorted(errs) == ["a", "bias"] and max(errs.values()) < 1e-4
    assert_as_found(before)
    assert len(passes) == 1 and passes[0][0] is held

    before = found(tensors)
    errs = nc.grad_check(lambda: nc.mean(nc.matmul(nc.matmul(x, frozen), weight), None),
                         tensors, ["x", "weight"])
    assert sorted(errs) == ["weight", "x"] and max(errs.values()) < 1e-4
    assert_as_found(before)
    assert len(passes) == 2 and passes[1][1] is None

    before = found(params)
    with pytest.raises(ShapeError):
        nc.grad_check(lambda: nc.sum_(nc.slice_(nc.matmul(a, b, bias), 0, 2, 0), 1),
                      params, ["a"])
    assert_as_found(before)
    assert len(passes) == 2


def test_hard_gate_forward_is_strict():
    x = nc.Tensor([[-1.0, 0.0, 1e-9, 2.0]])
    y = nc.hard_gate(x)
    assert y.data.tolist() == [[0.0, 0.0, 1.0, 1.0]]


def test_hard_gate_matches_soft_surrogate_gradient():
    vals = np.array([[ -2.0, -1.0, -0.3, 0.2, 0.9, 2.1]])
    x = nc.Tensor(vals, requires_grad=True)
    with nc.tape() as t:
        t.backward(nc.sum_(nc.hard_gate(x), None))
    st_grad = x.grad.copy()

    # central differences of the surrogate, with grad_check's error bound
    eps = 1e-5
    numeric = (nc.soft_gate_value(vals + eps) - nc.soft_gate_value(vals - eps)) / (2 * eps)
    err = np.abs(st_grad - numeric) / (np.abs(numeric) + 1e-8)
    assert err.max() < 1e-4


def test_hard_gate_saturation_outside_band():
    x = nc.Tensor([[4.0, -4.0, 2.5, -2.5]], requires_grad=True)
    with nc.tape() as t:
        t.backward(nc.sum_(nc.hard_gate(x), None))
    assert np.all(x.grad == 0.0)


def test_soft_gate_values():
    assert nc.soft_gate_value(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
    assert nc.soft_gate_value(np.array([4.0]))[0] == pytest.approx(1.0, abs=1e-3)
    assert nc.soft_gate_value(np.array([-4.0]))[0] == pytest.approx(0.0, abs=1e-3)
    assert nc.soft_gate_value(np.array([100.0]))[0] == 1.0
    assert nc.soft_gate_value(np.array([-100.0]))[0] == 0.0


def test_layer_norm_statistics():
    x = nc.Tensor(_rand((5, 7), 60) * 3.0)
    ones = nc.Tensor(np.ones((1, 7)))
    zeros = nc.Tensor(np.zeros((1, 7)))
    y = nc.layer_norm(x, ones, zeros).data
    assert np.allclose(y.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(y.var(axis=1), 1.0, atol=1e-4)


def test_cosine_distance_zero_vector_is_one():
    a = nc.Tensor(np.zeros((1, 4)))
    b = nc.Tensor([[1.0, 2.0, 3.0, 4.0]])
    assert nc.cosine_distance(a, b).item() == pytest.approx(1.0, abs=1e-12)
    assert nc.cosine_distance(b, b).item() == pytest.approx(0.0, abs=1e-9)


def test_mac_counter_counts_matmuls_only():
    counter = nc.MacCounter()
    a = nc.Tensor(np.ones((2, 3)))
    b = nc.Tensor(np.ones((3, 4)))
    with nc.mac_counting(counter):
        nc.matmul(a, b)
        nc.add(a, a)
        nc.relu(a)
        with counter.stage("attention"):
            nc.matmul(a, b)
    assert counter.total == 2 * 3 * 4 * 2
    assert counter.by_stage == {"other": 24, "attention": 24}
    nc.matmul(a, b)  # outside the context: not counted
    assert counter.total == 48


def test_row_labelled_stage_charges_each_row_to_its_label():
    a = nc.Tensor(np.ones((4, 3)))
    b = nc.Tensor(np.ones((3, 5)))
    q, k, v = nc.Tensor(np.ones((4, 4))), nc.Tensor(np.ones((5, 4))), nc.Tensor(np.ones((5, 6)))
    # two heads, dk = 2, dv = 3: a query row costs 2 * keys * 5 MACs
    segments = [(slice(0, 2), np.array([0, 1, 4])),
                (slice(2, 4), slice(1, 5))]
    plain, rowwise = nc.MacCounter(), nc.MacCounter()
    for counter, label in ((plain, "all"), (rowwise, ["x", "x", "y", "x"])):
        with nc.mac_counting(counter), counter.stage(label):
            nc.matmul(a, b)
            nc.multihead_attention(q, k, v, 2, segments)
    # matmul: 15 per row; attention: 30 per row of segment 0, 40 of segment 1
    assert rowwise.by_stage == {"x": 3 * 15 + 2 * 30 + 40, "y": 15 + 40}
    assert plain.by_stage == {"all": 200}
    assert rowwise.total == plain.total == 200


def test_rng_stream_tags_are_independent():
    a = nc.rng_stream(9, "alpha").standard_normal(4)
    b = nc.rng_stream(9, "alpha").standard_normal(4)
    c = nc.rng_stream(9, "beta").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_param_set_roundtrip(tmp_path):
    params = nc.ParamSet()
    params.add("b.w", np.arange(6.0).reshape(2, 3))
    params.add("a.w", np.ones((1, 2)))
    assert params.names() == ["a.w", "b.w"]
    path = tmp_path / "params.npz"
    params.save_npz(path)
    loaded = nc.ParamSet.load_npz(path)
    assert loaded.names() == params.names()
    for name, t in loaded.items():
        assert np.array_equal(t.data, params[name].data)
        assert t.requires_grad
    with pytest.raises(ValidationError):
        params.add("a.w", np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        params["missing"]
