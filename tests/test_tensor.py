"""Tape engine tests: forward examples, VJPs vs central differences, checkpoints."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
    out = tape.row_softmax(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_tanh_and_sigmoid_at_zero():
    tape = Tape()
    assert tape.tanh(Tensor([[0.0]])).data[0, 0] == 0.0
    assert tape.sigmoid(Tensor([[0.0]])).data[0, 0] == 0.5


def test_matmul_identity():
    tape = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(tape.matmul(a, eye).data, a.data)


def test_matmul_transpose_flags():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((5, 4))
    tape = Tape()
    out = tape.matmul(Tensor(a), Tensor(b), transpose_b=True)
    np.testing.assert_allclose(out.data, a @ b.T)
    c = rng.standard_normal((4, 3))
    d = rng.standard_normal((5, 4))
    out2 = tape.matmul(Tensor(c), Tensor(d), transpose_a=True, transpose_b=True)
    np.testing.assert_allclose(out2.data, c.T @ d.T)


def test_tensor_views_and_flags():
    t = parameter(np.arange(6.0).reshape(2, 3), name="w")
    assert t.shape == (2, 3)
    assert t.data.ravel().shape == (6,)
    assert t.requires_grad
    assert not Tensor([1.0]).requires_grad


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
    x = Tensor(rng.uniform(-1, 1, (2, 4)))
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
            probe["w"] = Tensor(np.random.default_rng(99).uniform(-1, 1, out.data.shape))
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
    x = Tensor(rng.uniform(-1, 1, (6, 3)))
    y = Tensor(rng.uniform(-1, 1, (2, 5)))

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
    x = Tensor(rng.uniform(-1, 1, (4, 4)))

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
    x = Tensor(rng.uniform(-1, 1, (2, 3)))

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
    probe = Tensor(rng.uniform(-1, 1, (9, 3)))

    def build():
        tape = Tape()
        rows = tape.stack_rows([tape.embedding(table, ids)
                                for ids in ([0, 2, 2], [5, 0], [2, 2, 2, 1])])
        return tape.sum(tape.mul(tape.tanh(rows), probe)), tape

    grads = assert_matches_dense(build, dense_vjps)
    assert not grads[table][[3, 4]].any()


def test_deferred_matmul_leaf_a_used_with_both_transpose_flags(dense_vjps):
    rng = np.random.default_rng(38)
    w = parameter(rng.uniform(-1, 1, (3, 4)), name="w")
    x = Tensor(rng.uniform(-1, 1, (4, 5)))
    y = Tensor(rng.uniform(-1, 1, (3, 2)))

    def build():
        tape = Tape()
        s1 = tape.matmul(w, x)
        s2 = tape.matmul(w, y, transpose_a=True)
        return tape.add(tape.sum(tape.tanh(s1)), tape.sum(tape.tanh(s2))), tape

    assert_matches_dense(build, dense_vjps)


def test_deferred_pieces_of_a_non_leaf_a_used_three_times(dense_vjps):
    rng = np.random.default_rng(39)
    v = parameter(rng.uniform(-1, 1, (3, 4)), name="v")
    w1 = parameter(rng.uniform(-1, 1, (4, 2)), name="w1")
    w2 = parameter(rng.uniform(-1, 1, (4, 5)), name="w2")
    y = Tensor(rng.uniform(-1, 1, (3, 6)))

    def build():
        tape = Tape()
        a = tape.tanh(v)
        s = [tape.matmul(a, w1), tape.matmul(a, w2), tape.matmul(a, y, transpose_a=True)]
        loss = tape.sum(tape.tanh(s[0]))
        for t in s[1:]:
            loss = tape.add(loss, tape.sum(tape.tanh(t)))
        return loss, tape

    assert_matches_dense(build, dense_vjps)


def test_deferred_pieces_of_one_leaf_as_both_operands(dense_vjps):
    rng = np.random.default_rng(40)
    w = parameter(rng.uniform(-1, 1, (3, 4)), name="w")

    def build():
        tape = Tape()
        return tape.sum(tape.tanh(tape.matmul(w, w, transpose_b=True))), tape

    assert_matches_dense(build, dense_vjps)


def test_deferred_a_pieces_and_dense_contributions_to_one_non_leaf(dense_vjps):
    rng = np.random.default_rng(41)
    v = parameter(rng.uniform(-1, 1, (3, 4)), name="v")
    w = parameter(rng.uniform(-1, 1, (4, 5)), name="w")
    probe = Tensor(rng.uniform(-1, 1, (3, 4)))

    def build():
        tape = Tape()
        a = tape.tanh(v)
        loss = tape.add(tape.sum(tape.tanh(tape.matmul(a, w))),
                        tape.sum(tape.mul(tape.tanh(a), probe)))
        return loss, tape

    assert_matches_dense(build, dense_vjps)


def test_deferred_overlapping_slices_of_a_non_leaf(dense_vjps):
    # the LSTM cell's pattern: one pre-activation sliced into gate blocks,
    # here overlapping, plus a whole-tensor use of the same non-leaf
    rng = np.random.default_rng(42)
    w = parameter(rng.uniform(-1, 1, (4, 6)), name="w")
    x = Tensor(rng.uniform(-1, 1, (4, 3)))

    def build():
        tape = Tape()
        pre = tape.tanh(tape.matmul(w, x, transpose_a=True))
        parts = [tape.slice_rows(pre, a, b) for a, b in ((0, 3), (1, 4), (2, 3), (5, 6))]
        loss = tape.add(tape.sum(tape.mul(parts[0], parts[1])),
                        tape.add(tape.sum(tape.sigmoid(tape.stack_rows(parts[2:]))),
                                 tape.sum(tape.tanh(pre))))
        return loss, tape

    assert_matches_dense(build, dense_vjps)


def test_deferred_slices_of_a_leaf(dense_vjps):
    # the encoder's pattern: a leaf weight sliced into row blocks, here
    # overlapping, and also used whole, so it gets slice and matmul pieces;
    # checked with and without a dict collecting the leaves' pieces
    rng = np.random.default_rng(43)
    w = parameter(rng.uniform(-1, 1, (5, 3)), name="w")
    x = Tensor(rng.uniform(-1, 1, (2, 3)))
    y = Tensor(rng.uniform(-1, 1, (2, 5)))

    def build():
        tape = Tape()
        top, mid = tape.slice_rows(w, 0, 3), tape.slice_rows(w, 2, 5)
        loss = tape.add(tape.sum(tape.tanh(tape.matmul(x, top))),
                        tape.add(tape.sum(tape.mul(mid, mid)),
                                 tape.sum(tape.tanh(tape.add(tape.matmul(x, w, transpose_b=True),
                                                             y)))))
        return loss, tape

    grads = assert_matches_dense(build, dense_vjps)
    loss, tape = build()
    leaf_pieces = {}
    dense = backward(loss, tape, leaf_pieces)
    assert [len(p) for p in leaf_pieces[w]] == [3]  # the matmul piece only
    got = tensor.sum_gradients(leaf_pieces, dense)
    assert np.max(np.abs(got[w] - grads[w])) <= 1e-12 * np.max(np.abs(grads[w]))


@st.composite
def _row_moves(draw):
    """(rows, cols, moves): each move reads the leaf or the non-leaf through
    row slices, all plain or all transposed (several tiling it, or one), or
    through a gather whose ids may repeat."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    moves = []
    for _ in range(draw(st.integers(1, 5))):
        source = draw(st.sampled_from(["leaf", "inner"]))
        kind = draw(st.sampled_from(["slice", "tiles", "gather"]))
        if kind == "gather":
            moves.append((source, "gather", draw(st.lists(st.integers(0, rows - 1),
                                                         min_size=1, max_size=6))))
            continue
        if kind == "tiles":
            cuts = [0] + sorted(draw(st.sets(st.integers(1, rows - 1)))) + [rows]
        else:
            start = draw(st.integers(0, rows - 1))
            cuts = [start, draw(st.integers(start + 1, rows))]
        moves.append((source, draw(st.booleans()), list(zip(cuts, cuts[1:]))))
    return rows, cols, moves


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_row_moves())
def test_slice_and_gather_pieces_match_dense_vjps(dense_vjps, program):
    # plain and transposed slices, overlapping or tiling, and gathers with
    # repeated ids, of a leaf and of a non-leaf; the leaf's pieces are also
    # carried across two tapes, as a batch carries them
    rows, cols, moves = program
    rng = np.random.default_rng(rows * 10 + cols)
    w = parameter(rng.uniform(-1, 1, (rows, cols)), name="w")
    x = Tensor(rng.uniform(-1, 1, (rows, rows)))

    def build(seed):
        probes = np.random.default_rng(seed)
        tape = Tape()
        inner = tape.tanh(tape.matmul(x, w))
        loss = tape.sum(tape.mul(inner, Tensor(probes.uniform(-1, 1, inner.shape))))
        for source, how, spans in moves:
            src = w if source == "leaf" else inner
            if how == "gather":
                reads = [tape.embedding(src, spans)]
            else:
                reads = [tape.slice_rows(src, a, b, transpose=how) for a, b in spans]
            for r in reads:
                probe = Tensor(probes.uniform(-1, 1, r.shape))
                loss = tape.add(loss, tape.sum(tape.mul(tape.tanh(r), probe)))
        return loss, tape

    def grads_of(tapes, pieces=None):
        total = {}
        for loss, tape in tapes:
            for t, g in backward(loss, tape, pieces).items():
                total[t] = total[t] + g if t in total else g
        return total

    for seeds in ([1], [1, 2]):
        want = dense_vjps(lambda: grads_of([build(s) for s in seeds]))
        leaf_pieces = {}
        got = tensor.sum_gradients(leaf_pieces, grads_of([build(s) for s in seeds], leaf_pieces))
        for grads in (got, grads_of([build(s) for s in seeds])):
            assert set(grads) == set(want) == {w}
            assert np.max(np.abs(grads[w] - want[w])) <= 1e-12 * np.max(np.abs(want[w]))
    loss, _ = build(1)
    assert float(loss.data) == dense_vjps(lambda: float(build(1)[0].data))


def test_untracked_b_piece_is_dropped_unbuilt(dense_vjps, monkeypatch):
    # A matmul's piece for one operand holds the other operand's data, so the
    # leaf's own piece holds the constant's and a piece holding the leaf's
    # data is the constant's, which nothing needs. Checked with the constant
    # as `b` and as `a`.
    rng = np.random.default_rng(35)
    seen = []
    real = tensor._sum_pieces

    def probe(pieces, like):
        seen.extend(pieces)
        return real(pieces, like)

    for leaf_is_a in (True, False):
        leaf = parameter(rng.uniform(-1, 1, (2, 3) if leaf_is_a else (3, 4)), name="leaf")
        const = Tensor(rng.uniform(-1, 1, (3, 4) if leaf_is_a else (2, 3)))
        operands = (leaf, const) if leaf_is_a else (const, leaf)

        def build():
            tape = Tape()
            return tape.sum(tape.tanh(tape.matmul(*operands))), tape

        grads = assert_matches_dense(build, dense_vjps)
        assert set(grads) == {leaf}

        loss, tape = build()
        entry = next(e for e in tape.entries if e.kind == "matmul")
        assert all(type(gi) is tuple for gi in entry.vjp(np.ones(entry.output.shape)))
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(tensor, "_sum_pieces", probe)
            np.testing.assert_array_equal(backward(loss, tape)[leaf], grads[leaf])
        assert seen
        assert not any(np.shares_memory(x, leaf.data) for piece in seen for x in piece[:2])


def test_backward_returns_unshared_arrays():
    # add's vjp hands both same-shape operands the one gradient array itself;
    # checked with and without a dict collecting the leaves' pieces
    a = parameter(np.ones((2, 3)), name="a")
    b = parameter(np.full((2, 3), 2.0), name="b")
    tape = Tape()
    loss = tape.sum(tape.tanh(tape.add(a, b)))
    for grads in (backward(loss, tape), backward(loss, tape, {})):
        assert set(grads) == {a, b}
        assert not np.shares_memory(grads[a], grads[b])
        assert grads[a].base is None and grads[b].base is None
        before = grads[b].copy()
        grads[a] /= 2
        np.testing.assert_array_equal(grads[b], before)


def test_collected_pieces_survive_in_place_dense_updates():
    # the bias's dense gradient is the array the weight's matmul piece holds;
    # a caller adding into the dense part must not change the weight's sum
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(3, 4)))
    w = parameter(rng.normal(size=(4, 5)), name="w")
    bias = parameter(rng.normal(size=(3, 5)), name="bias")
    tape = Tape()
    loss = tape.sum(tape.tanh(tape.add(tape.matmul(x, w), bias)))
    want = backward(loss, tape)
    leaf_pieces = {}
    dense = backward(loss, tape, leaf_pieces)
    assert set(dense) == {bias} and list(leaf_pieces) == list(want)
    dense[bias] += 1.0
    got = tensor.sum_gradients(leaf_pieces, dense)
    np.testing.assert_array_equal(got[w], want[w])
    np.testing.assert_array_equal(got[bias], want[bias] + 1.0)


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


def test_backward_sums_a_non_leafs_pieces_without_copying_a_weight():
    # `features` reaches a V-wide weight and a one-column weight as matmul's
    # `a`, as the output layer's does: its two pieces hold the transposes of
    # both weights, and stacking them would copy the big one whole
    rng = np.random.default_rng(37)
    x = parameter(rng.uniform(-0.1, 0.1, (13, 900)), name="x")
    big = parameter(rng.uniform(-0.1, 0.1, (900, 20000)), name="big")
    small = parameter(rng.uniform(-0.1, 0.1, (900, 1)), name="small")
    tape = Tape()
    features = tape.tanh(x)
    loss = tape.add(tape.sum(tape.log(tape.row_softmax(tape.matmul(features, big)))),
                    tape.sum(tape.sigmoid(tape.matmul(features, small))))
    real = tensor._sum_pieces
    sums = []

    def probe(pieces, like):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        total = real(pieces, like)
        sums.append((like.shape, tracemalloc.get_traced_memory()[1] - start))
        return total

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tensor, "_sum_pieces", probe)
            grads = backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(grads) == {x, big, small}
    assert peak < 1.5 * big.data.nbytes
    # the non-leaf's sum, inside the sweep, allocates far less than the weight
    assert [grown for shape, grown in sums if shape == features.shape][0] < 0.1 * big.data.nbytes


def test_backward_returns_a_leafs_piece_sum_itself():
    # a piece sum is a new array, so it is returned as it is: never copied
    # because a freed array that a vjp once handed on had the same id
    rng = np.random.default_rng(37)
    x = parameter(rng.uniform(-0.1, 0.1, (13, 30)), name="x")
    big = parameter(rng.uniform(-0.1, 0.1, (30, 500)), name="big")
    small = parameter(rng.uniform(-0.1, 0.1, (30, 1)), name="small")
    real = tensor._sum_pieces
    sums = []

    def probe(pieces, like):
        sums.append(real(pieces, like))
        return sums[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tensor, "_sum_pieces", probe)
        for k in range(50):
            sums.clear()
            tape = Tape()
            features = tape.tanh(x)
            loss = tape.add(tape.sum(tape.log(tape.row_softmax(tape.matmul(features, big)))),
                            tape.sum(tape.sigmoid(tape.matmul(features, small))))
            grads = backward(loss, tape)
            assert any(grads[big] is total for total in sums), k
            churn = [np.asarray(float(i)) for i in range(k % 7)]  # reuses freed ids
            del churn, tape, loss, features, grads


# invariants


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-15, max_value=15), min_size=2, max_size=6),
                min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_row_softmax_rows_sum_to_one(rows):
    # logit gaps beyond ~36 round the winning entry to exactly 1.0 in float64,
    # so strict openness is only testable at bounded magnitudes
    tape = Tape()
    out = tape.row_softmax(Tensor(rows)).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_dropout_identical_seed_identical_mask():
    x = Tensor(np.ones((8, 8)))
    t1, t2 = Tape(), Tape()
    a = t1.dropout(x, keep=0.5, seed=(1, 2))
    b = t2.dropout(x, keep=0.5, seed=(1, 2))
    np.testing.assert_array_equal(a.data, b.data)
    c = t2.dropout(x, keep=0.5, seed=(1, 3))
    assert not np.array_equal(a.data, c.data)


def test_dropout_inverted_scaling_preserves_mean():
    x = Tensor(np.ones((200, 50)))
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
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    with pytest.raises(TapeError) as exc:
        tape.matmul(a, b)
    msg = str(exc.value)
    assert "matmul" in msg and "(2, 3)" in msg


def test_non_finite_input_rejected():
    tape = Tape()
    with pytest.raises(TapeError):
        tape.tanh(Tensor([np.inf]))
    with pytest.raises(TapeError):
        tape.add(Tensor([np.nan]), Tensor([1.0]))


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
    tape.slice_rows(tape.add(h, Tensor([[1.0], [2.0]])), 0, 1)
    with pytest.raises(TapeError):
        tape.slice_rows(Tensor([[1.0], [np.inf]]), 0, 1)


@pytest.mark.parametrize("record", [True, False])
def test_verified_input_is_trusted_and_everything_else_checked(record, monkeypatch):
    scanned = []
    real = tensor._all_finite
    monkeypatch.setattr(tensor, "_all_finite", lambda a: scanned.append(a.shape) or real(a))
    tape = Tape(record=record)
    w = parameter(np.full((3, 2), 0.5))
    w.verified = True
    x = Tensor(np.ones((1, 3)))
    y = tape.matmul(x, w)
    tape.tanh(tape.matmul(x, w))
    # x once on first read, then each output as it is born; w never
    assert scanned == [(1, 3), (1, 2), (1, 2), (1, 2)]
    with pytest.raises(TapeError, match="^tanh: non-finite input value$"):
        tape.tanh(Tensor([[np.nan]]))
    y.data[0, 0] = np.nan  # an output is not checked again by its own tape ...
    with pytest.raises(TapeError, match="^scalar-multiply: produced a non-finite output$"):
        tape.scale(y, 2.0)
    with pytest.raises(TapeError, match="^scalar-multiply: non-finite input value$"):
        Tape(record=record).scale(y, 2.0)  # ... but by any other tape
    w.data[0, 0] = np.nan  # bypassing every writer: the first output it reaches is caught
    with pytest.raises(TapeError, match="^matmul: produced a non-finite output$"):
        Tape(record=record).matmul(x, w)


@pytest.mark.parametrize("record", [True, False])
def test_tape_checks_survive_freed_tensors(record):
    # a non-recording tape holds no output, so their ids are reused at once
    tape = Tape(record=record)
    for _ in range(50):
        tape.tanh(tape.add(Tensor([[1.0], [2.0]]), Tensor([[0.5], [0.5]])))
    with pytest.raises(TapeError, match="non-finite input value"):
        tape.slice_rows(Tensor([[1.0], [np.inf]]), 0, 1)


def test_non_recording_tape_keeps_no_entries_and_rejects_backward():
    x = parameter([[0.5, -0.25]])
    record, skip = Tape(), Tape(record=False)
    a, b = (tape.sum(tape.tanh(tape.mul(x, x))) for tape in (record, skip))
    assert np.array_equal(a.data, b.data) and b.data.dtype == np.float64
    assert len(record.entries) == 3 and skip.entries == []
    with pytest.raises(TapeError, match="record=False"):
        backward(b, skip)


def test_log_of_zero_rejected_as_non_finite_output():
    tape = Tape()
    with pytest.raises(TapeError):
        tape.log(Tensor([[0.0]]))


def test_unknown_primitive_kind_rejected():
    tape = Tape()
    with pytest.raises(TapeError):
        tape.primitive("outer-product", [Tensor([1.0])])


def test_dropout_requires_seed_and_valid_keep():
    tape = Tape()
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(TapeError):
        tape.dropout(x, keep=0.5, seed=None)
    with pytest.raises(TapeError):
        tape.dropout(x, keep=0.0, seed=(1,))
    with pytest.raises(TapeError):
        tape.dropout(x, keep=1.5, seed=(1,))


def test_embedding_and_slice_bounds_rejected():
    tape = Tape()
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(TapeError):
        tape.embedding(table, [0, 3])
    with pytest.raises(TapeError):
        tape.slice_rows(Tensor(np.zeros((3, 2))), 2, 2)


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
    version, loaded = load_checkpoint(p1)
    assert version == CHECKPOINT_VERSION
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
