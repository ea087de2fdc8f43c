"""Tape engine tests: forward examples, VJPs vs central differences, checkpoints."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unansqgen import tensor
from unansqgen.tensor import (
    CHECKPOINT_VERSION,
    CheckpointError,
    PRIMITIVE_KINDS,
    Tape,
    TapeError,
    Tensor,
    backward,
    constant,
    grad_check,
    load_checkpoint,
    parameter,
    save_checkpoint,
)


def central_fd(loss_fn, arr, step=1e-5):
    """Independent central-difference gradient of loss_fn wrt arr, in place."""
    flat = arr.ravel()
    out = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss_fn()
        flat[i] = orig - step
        down = loss_fn()
        flat[i] = orig
        out[i] = (up - down) / (2.0 * step)
    return out.reshape(arr.shape)


def rel_err(auto, fd):
    return np.max(np.abs(auto - fd) / np.maximum(1e-8, np.abs(auto) + np.abs(fd)))


# forward examples


def test_row_softmax_symmetry():
    tape = Tape()
    out = tape.row_softmax(constant([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_tanh_and_sigmoid_at_zero():
    tape = Tape()
    assert tape.tanh(constant([[0.0]])).data[0, 0] == 0.0
    assert tape.sigmoid(constant([[0.0]])).data[0, 0] == 0.5


def test_matmul_identity():
    tape = Tape()
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    eye = constant([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(tape.matmul(a, eye).data, a.data)


def test_matmul_transpose_flags():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((5, 4))
    tape = Tape()
    out = tape.matmul(constant(a), constant(b), transpose_b=True)
    np.testing.assert_allclose(out.data, a @ b.T)
    c = rng.standard_normal((4, 3))
    d = rng.standard_normal((5, 4))
    out2 = tape.matmul(constant(c), constant(d), transpose_a=True, transpose_b=True)
    np.testing.assert_allclose(out2.data, c.T @ d.T)


def test_tensor_views_and_flags():
    t = parameter(np.arange(6.0).reshape(2, 3), name="w")
    assert t.shape == (2, 3)
    assert t.values.shape == (6,)
    assert t.requires_grad
    assert not constant([1.0]).requires_grad


# backward examples


def test_backward_sum_is_ones():
    tape = Tape()
    x = parameter([1.0, -2.0, 3.0])
    loss = tape.sum(x)
    grads = backward(loss, tape)
    np.testing.assert_array_equal(grads[x], [1.0, 1.0, 1.0])


def test_backward_square():
    tape = Tape()
    x = parameter([2.0])
    loss = tape.sum(tape.mul(x, x))
    grads = backward(loss, tape)
    np.testing.assert_allclose(grads[x], [4.0])


def test_backward_two_layer_tanh_net_vs_fd():
    # 50 parameters: W1 (4x5) + b1 (1x5) + W2 (5x5) = 20 + 5 + 25
    rng = np.random.default_rng(7)
    x = constant(rng.uniform(-1, 1, (2, 4)))
    w1 = parameter(rng.uniform(-1, 1, (4, 5)), name="w1")
    b1 = parameter(rng.uniform(-1, 1, (1, 5)), name="b1")
    w2 = parameter(rng.uniform(-1, 1, (5, 5)), name="w2")
    assert w1.data.size + b1.data.size + w2.data.size == 50

    def run():
        tape = Tape()
        h = tape.tanh(tape.add(tape.matmul(x, w1), b1))
        return tape.sum(tape.tanh(tape.matmul(h, w2))), tape

    loss, tape = run()
    grads = backward(loss, tape)
    for p in (w1, b1, w2):
        fd = central_fd(lambda: float(run()[0].data), p.data, step=1e-5)
        assert rel_err(grads[p], fd) < 1e-4


def test_backward_rejects_non_scalar_loss():
    tape = Tape()
    x = parameter([[1.0, 2.0]])
    out = tape.tanh(x)
    with pytest.raises(TapeError):
        backward(out, tape)


def test_backward_fanout_accumulates():
    # y used twice: d/dy [sum(y*y) + sum(y)] = 2y + 1
    tape = Tape()
    y = parameter([1.5, -0.5])
    loss = tape.add(tape.sum(tape.mul(y, y)), tape.sum(y))
    grads = backward(loss, tape)
    np.testing.assert_allclose(grads[y], 2 * y.data + 1)


def test_backward_additivity():
    rng = np.random.default_rng(3)
    x = parameter(rng.uniform(-1, 1, (2, 3)), name="x")

    def loss_a(tape):
        return tape.sum(tape.mul(x, x))

    def loss_b(tape):
        return tape.sum(tape.tanh(x))

    t1 = Tape()
    g1 = backward(loss_a(t1), t1)[x]
    t2 = Tape()
    g2 = backward(loss_b(t2), t2)[x]
    t3 = Tape()
    g3 = backward(t3.add(loss_a(t3), loss_b(t3)), t3)[x]
    np.testing.assert_allclose(g3, g1 + g2, atol=1e-12)


def test_unused_parameter_absent_from_gradient_map():
    tape = Tape()
    x = parameter([1.0])
    unused = parameter([5.0])
    grads = backward(tape.sum(x), tape)
    assert x in grads and unused not in grads


# per-primitive VJPs vs central finite differences at points in [-2, 2]


def _vjp_case(build, params, step=1e-5, tol=1e-4):
    """build(tape) -> output Tensor; checks every param's VJP against FD.

    The output is probed with a fixed random weight vector so the loss is a
    scalar function of the inputs alone.
    """
    probe = {}

    def run_fixed():
        tape = Tape()
        out = build(tape)
        if "w" not in probe:
            probe["w"] = constant(np.random.default_rng(99).uniform(-1, 1, out.data.shape))
        return tape.sum(tape.mul(out, probe["w"])), tape

    loss, tape = run_fixed()
    grads = backward(loss, tape)
    for p in params:
        fd = central_fd(lambda: float(run_fixed()[0].data), p.data, step=step)
        auto = grads.get(p)
        auto = np.zeros_like(p.data) if auto is None else auto
        assert rel_err(auto, fd) < tol


def test_vjp_matmul_all_transpose_combos():
    rng = np.random.default_rng(21)
    for ta in (False, True):
        for tb in (False, True):
            a_shape = (4, 3) if ta else (3, 4)
            b_shape = (5, 4) if tb else (4, 5)
            a = parameter(rng.uniform(-2, 2, a_shape))
            b = parameter(rng.uniform(-2, 2, b_shape))
            _vjp_case(lambda t, a=a, b=b, ta=ta, tb=tb: t.matmul(a, b, transpose_a=ta, transpose_b=tb),
                      [a, b])


def test_vjp_add_with_row_broadcast():
    rng = np.random.default_rng(22)
    a = parameter(rng.uniform(-2, 2, (3, 4)))
    b = parameter(rng.uniform(-2, 2, (1, 4)))
    _vjp_case(lambda t: t.add(a, b), [a, b])


def test_vjp_mul():
    rng = np.random.default_rng(23)
    a = parameter(rng.uniform(-2, 2, (3, 4)))
    b = parameter(rng.uniform(-2, 2, (3, 4)))
    _vjp_case(lambda t: t.mul(a, b), [a, b])


def test_vjp_concat_and_stack():
    rng = np.random.default_rng(24)
    a = parameter(rng.uniform(-2, 2, (3, 2)))
    b = parameter(rng.uniform(-2, 2, (3, 5)))
    _vjp_case(lambda t: t.concat_cols([a, b]), [a, b])
    c = parameter(rng.uniform(-2, 2, (2, 4)))
    d = parameter(rng.uniform(-2, 2, (3, 4)))
    _vjp_case(lambda t: t.stack_rows([c, d]), [c, d])


def test_vjp_tanh_sigmoid_softmax():
    rng = np.random.default_rng(25)
    x = parameter(rng.uniform(-2, 2, (3, 5)))
    _vjp_case(lambda t: t.tanh(x), [x])
    _vjp_case(lambda t: t.sigmoid(x), [x])
    _vjp_case(lambda t: t.row_softmax(x), [x])


def test_vjp_embedding_with_repeated_ids():
    rng = np.random.default_rng(26)
    table = parameter(rng.uniform(-2, 2, (6, 3)))
    _vjp_case(lambda t: t.embedding(table, [0, 2, 2, 5, 0]), [table])


def test_vjp_max_pool_rows():
    rng = np.random.default_rng(27)
    x = parameter(rng.uniform(-2, 2, (4, 6)))
    _vjp_case(lambda t: t.max_pool_rows(x), [x])


def test_vjp_dropout_fixed_seed():
    rng = np.random.default_rng(28)
    x = parameter(rng.uniform(-2, 2, (4, 4)))
    _vjp_case(lambda t: t.dropout(x, keep=0.7, seed=(5, 1)), [x])


def test_vjp_scale_slice_sum_log():
    rng = np.random.default_rng(29)
    x = parameter(rng.uniform(-2, 2, (4, 3)))
    _vjp_case(lambda t: t.scale(x, -1.7), [x])
    _vjp_case(lambda t: t.slice_rows(x, 1, 3), [x])
    _vjp_case(lambda t: t.sum(x), [x])
    pos = parameter(rng.uniform(0.1, 2, (3, 3)))
    _vjp_case(lambda t: t.log(pos), [pos])


# deferred weight gradients vs the dense per-use reference (conftest.dense_vjps)


def _loss_and_grads(build):
    loss, tape = build()
    return float(loss.data), backward(loss, tape)


def assert_matches_dense(build, dense_vjps):
    """build() -> (loss, tape): equal loss, and gradients within 1e-12 x max|g|."""
    loss, grads = _loss_and_grads(build)
    want_loss, want = dense_vjps(lambda: _loss_and_grads(build))
    assert loss == want_loss
    assert set(grads) == set(want)
    for t, g in want.items():
        assert np.max(np.abs(grads[t] - g)) <= 1e-12 * np.max(np.abs(g)), t.name
    return grads


def test_deferred_matmul_leaf_used_with_both_transpose_flags(dense_vjps):
    # interact_W's pattern: one weight as `b` and as `b.T` in one tape, with
    # tracked non-leaf left operands
    rng = np.random.default_rng(31)
    w = parameter(rng.uniform(-1, 1, (4, 5)), name="w")
    v = parameter(rng.uniform(-1, 1, (3, 4)), name="v")
    x = constant(rng.uniform(-1, 1, (6, 3)))
    y = constant(rng.uniform(-1, 1, (2, 5)))

    def build():
        tape = Tape()
        p = tape.tanh(tape.matmul(x, v))
        s1 = tape.matmul(tape.matmul(p, w), y, transpose_b=True)
        s2 = tape.matmul(y, w, transpose_b=True)
        loss = tape.add(tape.sum(tape.tanh(s1)), tape.sum(tape.tanh(s2)))
        return loss, tape

    assert_matches_dense(build, dense_vjps)


def test_deferred_and_dense_contributions_to_one_leaf(dense_vjps):
    rng = np.random.default_rng(32)
    w = parameter(rng.uniform(-1, 1, (4, 4)), name="w")
    table = parameter(rng.uniform(-1, 1, (3, 2)), name="table")
    x = constant(rng.uniform(-1, 1, (4, 4)))

    def build():
        tape = Tape()
        h = tape.tanh(tape.add(tape.matmul(x, w), w))
        e = tape.tanh(tape.add(tape.embedding(table, [2, 0, 2]), table))
        return tape.add(tape.sum(h), tape.sum(e)), tape

    assert_matches_dense(build, dense_vjps)


def test_deferred_pieces_of_non_leaves_are_made_dense(dense_vjps):
    rng = np.random.default_rng(33)
    w0 = parameter(rng.uniform(-1, 1, (3, 4)), name="w0")
    t0 = parameter(rng.uniform(-1, 1, (5, 2)), name="t0")
    x = constant(rng.uniform(-1, 1, (2, 3)))

    def build():
        tape = Tape()
        b = tape.tanh(w0)  # a tracked non-leaf `b`
        table = tape.scale(t0, 2.0)  # a tracked non-leaf table
        h = tape.tanh(tape.matmul(x, b, transpose_b=False))
        e = tape.tanh(tape.embedding(table, [4, 1, 4, 0]))
        return tape.add(tape.sum(h), tape.sum(e)), tape

    grads = assert_matches_dense(build, dense_vjps)
    assert set(grads) == {w0, t0}


def test_deferred_lookups_with_repeated_ids(dense_vjps):
    rng = np.random.default_rng(34)
    table = parameter(rng.uniform(-1, 1, (6, 3)), name="table")
    probe = constant(rng.uniform(-1, 1, (9, 3)))

    def build():
        tape = Tape()
        rows = tape.stack_rows([tape.embedding(table, ids)
                                for ids in ([0, 2, 2], [5, 0], [2, 2, 2, 1])])
        return tape.sum(tape.mul(tape.tanh(rows), probe)), tape

    grads = assert_matches_dense(build, dense_vjps)
    assert not grads[table][[3, 4]].any()


def test_untracked_b_piece_is_dropped_unbuilt(dense_vjps, monkeypatch):
    rng = np.random.default_rng(35)
    a = parameter(rng.uniform(-1, 1, (2, 3)), name="a")
    b = constant(rng.uniform(-1, 1, (3, 4)))

    def build():
        tape = Tape()
        return tape.sum(tape.tanh(tape.matmul(a, b))), tape

    grads = assert_matches_dense(build, dense_vjps)
    assert set(grads) == {a}

    def unexpected(*args):
        raise AssertionError("a piece for an untracked input was built")

    monkeypatch.setattr(tensor, "_sum_pieces", unexpected)
    np.testing.assert_array_equal(_loss_and_grads(build)[1][a], grads[a])


def test_backward_returns_unshared_arrays():
    # add's vjp hands both operands views of one gradient
    a = parameter(np.ones((2, 3)), name="a")
    b = parameter(np.full((2, 3), 2.0), name="b")
    tape = Tape()
    grads = backward(tape.sum(tape.tanh(tape.add(a, b))), tape)
    assert not np.shares_memory(grads[a], grads[b])
    assert grads[a].base is None and grads[b].base is None


def test_backward_peak_memory_is_one_gradient_per_leaf():
    # three lookups of one large table and a per-row matmul loop over one
    # weight: a dense gradient per use would hold about three tables at once
    rng = np.random.default_rng(36)
    table = parameter(rng.uniform(-0.1, 0.1, (20000, 64)), name="table")
    weight = parameter(rng.uniform(-0.1, 0.1, (64, 256)), name="weight")
    tape = Tape()
    rows = tape.stack_rows([tape.embedding(table, ids)
                            for ids in ([1, 5, 7], [5, 19999], [0, 1, 2, 3])])
    outs = [tape.matmul(tape.slice_rows(rows, r, r + 1), weight) for r in range(9)]
    loss = tape.sum(tape.tanh(tape.stack_rows(outs)))
    tracemalloc.start()
    try:
        grads = backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(grads) == {table, weight}
    assert peak < 1.5 * (table.data.nbytes + weight.data.nbytes)


# invariants


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-15, max_value=15), min_size=2, max_size=6),
                min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_row_softmax_rows_sum_to_one(rows):
    # logit gaps beyond ~36 round the winning entry to exactly 1.0 in float64,
    # so strict openness is only testable at bounded magnitudes
    tape = Tape()
    out = tape.row_softmax(constant(rows)).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_dropout_identical_seed_identical_mask():
    x = constant(np.ones((8, 8)))
    t1, t2 = Tape(), Tape()
    a = t1.dropout(x, keep=0.5, seed=(1, 2))
    b = t2.dropout(x, keep=0.5, seed=(1, 2))
    np.testing.assert_array_equal(a.data, b.data)
    c = t2.dropout(x, keep=0.5, seed=(1, 3))
    assert not np.array_equal(a.data, c.data)


def test_dropout_inverted_scaling_preserves_mean():
    x = constant(np.ones((200, 50)))
    tape = Tape()
    out = tape.dropout(x, keep=0.8, seed=(77,))
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 1.0 / 0.8)
    assert abs(out.data.mean() - 1.0) < 0.02


def test_max_pool_tie_goes_to_first_row():
    tape = Tape()
    x = parameter([[1.0, 5.0], [1.0, 7.0], [1.0, 7.0]])
    out = tape.max_pool_rows(x)
    grads = backward(tape.sum(out), tape)
    np.testing.assert_array_equal(grads[x], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


# grad_check


def test_grad_check_quadratic_is_exact():
    rng = np.random.default_rng(41)
    x = parameter(rng.uniform(-1, 1, (3, 3)), name="x")

    def build(params):
        tape = Tape()
        return tape.sum(tape.mul(x, x)), tape

    assert grad_check(build, [x], step=1e-3) < 1e-9


def test_grad_check_rejects_bad_step():
    x = parameter([1.0])

    def build(params):
        tape = Tape()
        return tape.sum(x), tape

    with pytest.raises(ValueError):
        grad_check(build, [x], step=0.0)
    with pytest.raises(ValueError):
        grad_check(build, [x], step=2e-3)


def test_grad_check_rejects_nondeterministic_loss():
    x = parameter([1.0])
    counter = {"n": 0}

    def build(params):
        counter["n"] += 1
        tape = Tape()
        return tape.sum(tape.scale(x, float(counter["n"]))), tape

    with pytest.raises(TapeError):
        grad_check(build, [x], step=1e-4)


def test_grad_check_max_over_split_coordinates_is_exact(monkeypatch):
    # d/dx sum(x^3) = 3x^2, and the central difference is exactly 3x^2 + h^2,
    # so the worst coordinate is the smallest |x|. It sits last, in the share
    # an off-by-one split would lose.
    h = 1e-3
    a = parameter(np.linspace(2.0, 0.9, 6).reshape(2, 3), name="a")
    b = parameter([1.7, 1.3, 0.8, 0.5], name="b")
    xs = np.concatenate([a.data.ravel(), b.data])
    expected = np.max(h * h / (np.abs(3 * xs**2) + np.abs(3 * xs**2 + h * h)))

    def build(params):
        tape = Tape()
        cubes = [tape.sum(tape.mul(tape.mul(p, p), p)) for p in params]
        return tape.add(cubes[0], cubes[1]), tape

    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(tensor, "_usable_cpus", lambda: workers)
        assert grad_check(build, [a, b], step=h) == pytest.approx(expected, rel=1e-4)


def test_grad_check_reraises_worker_error(monkeypatch):
    # log(5e-5 - 1e-4) is the log of a negative number: a non-finite forward
    x = parameter(np.full(4, 5e-5), name="x")

    def build(params):
        tape = Tape()
        return tape.sum(tape.log(x)), tape

    for workers in (1, 2):
        monkeypatch.setattr(tensor, "_usable_cpus", lambda: workers)
        with pytest.raises(TapeError):
            grad_check(build, [x], step=1e-4)
        np.testing.assert_array_equal(x.data, 5e-5)


def test_grad_check_raises_when_a_worker_dies(monkeypatch):
    x = parameter([1.0, 2.0, 3.0], name="x")
    caller = os.getpid()

    def build(params):
        if os.getpid() != caller:
            os._exit(3)
        tape = Tape()
        return tape.sum(tape.mul(x, x)), tape

    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError):
        grad_check(build, [x], step=1e-4)
    np.testing.assert_array_equal(x.data, [1.0, 2.0, 3.0])


# error behaviour


def test_shape_mismatch_names_primitive_and_shapes():
    tape = Tape()
    a = constant(np.zeros((2, 3)))
    b = constant(np.zeros((2, 3)))
    with pytest.raises(TapeError) as exc:
        tape.matmul(a, b)
    msg = str(exc.value)
    assert "matmul" in msg and "(2, 3)" in msg


def test_non_finite_input_rejected():
    tape = Tape()
    with pytest.raises(TapeError):
        tape.tanh(constant([np.inf]))
    with pytest.raises(TapeError):
        tape.add(constant([np.nan]), constant([1.0]))


def test_leaf_changed_in_place_is_checked_by_the_next_tape():
    # the slice leaves the bad row out, so only the input check can see it
    x = parameter([[0.5], [-0.5]])
    Tape().slice_rows(x, 0, 1)
    x.data[1, 0] = np.nan
    with pytest.raises(TapeError):
        Tape().slice_rows(x, 0, 1)


def test_busy_tape_rejects_new_non_finite_constant():
    tape = Tape()
    h = tape.tanh(parameter([[0.5], [-0.5]]))
    tape.slice_rows(tape.add(h, constant([[1.0], [2.0]])), 0, 1)
    with pytest.raises(TapeError):
        tape.slice_rows(constant([[1.0], [np.inf]]), 0, 1)


def test_log_of_zero_rejected_as_non_finite_output():
    tape = Tape()
    with pytest.raises(TapeError):
        tape.log(constant([[0.0]]))


def test_unknown_primitive_kind_rejected():
    tape = Tape()
    with pytest.raises(TapeError):
        tape.primitive("outer-product", [constant([1.0])])


def test_dropout_requires_seed_and_valid_keep():
    tape = Tape()
    x = constant(np.ones((2, 2)))
    with pytest.raises(TapeError):
        tape.dropout(x, keep=0.5, seed=None)
    with pytest.raises(TapeError):
        tape.dropout(x, keep=0.0, seed=(1,))
    with pytest.raises(TapeError):
        tape.dropout(x, keep=1.5, seed=(1,))


def test_embedding_and_slice_bounds_rejected():
    tape = Tape()
    table = constant(np.zeros((3, 2)))
    with pytest.raises(TapeError):
        tape.embedding(table, [0, 3])
    with pytest.raises(TapeError):
        tape.slice_rows(constant(np.zeros((3, 2))), 2, 2)


def test_primitive_kind_inventory():
    required = {"matmul", "add", "elementwise-multiply", "concat-last-axis", "tanh",
                "sigmoid", "row-softmax", "embedding-lookup", "max-pool-over-rows",
                "dropout", "scalar-multiply", "slice-rows", "sum", "log"}
    assert required <= set(PRIMITIVE_KINDS)


# checkpoint round-trip


def test_checkpoint_byte_exact_round_trip(tmp_path):
    rng = np.random.default_rng(51)
    named = {
        "w": Tensor(rng.standard_normal((3, 4))),
        "b": Tensor(rng.standard_normal((1, 4))),
        "scalar": Tensor(np.float64(3.5)),
    }
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, named)
    loaded = load_checkpoint(p1)
    assert list(loaded) == ["w", "b", "scalar"]
    for name, tensor in named.items():
        np.testing.assert_array_equal(loaded[name], tensor.data)
    save_checkpoint(p2, {k: v for k, v in loaded.items()})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_version_mismatch(tmp_path):
    p = tmp_path / "v.ckpt"
    save_checkpoint(p, {"x": Tensor([1.0])})
    blob = bytearray(p.read_bytes())
    blob[8] = CHECKPOINT_VERSION + 1  # little-endian version field
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(p)
    assert str(CHECKPOINT_VERSION + 1) in str(exc.value)


def test_checkpoint_trailing_bytes(tmp_path):
    p = tmp_path / "t.ckpt"
    save_checkpoint(p, {"x": Tensor([1.0, 2.0])})
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


@pytest.mark.parametrize("keep", [0, 5, 12, 16, 20, 40, -9, -4, -1])
def test_checkpoint_truncated_raises_checkpoint_error(tmp_path, keep):
    p = tmp_path / "cut.ckpt"
    save_checkpoint(p, {"weights": Tensor(np.arange(6.0).reshape(2, 3)),
                        "bias": Tensor(np.ones((1, 3)))})
    blob = p.read_bytes()
    p.write_bytes(blob[:keep % len(blob)] if keep else b"")
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_name_not_utf8(tmp_path):
    p = tmp_path / "name.ckpt"
    save_checkpoint(p, {"ab": Tensor([1.0])})
    blob = bytearray(p.read_bytes())
    blob[20] = 0xFF  # first byte of the first record's name
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(p)
    assert "UTF-8" in str(exc.value)
