"""Training tests: NLL credit assignment, Adagrad arithmetic, the train loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unansqgen import tensor
from unansqgen import train as train_module
from unansqgen.data import AlignedPair
from unansqgen.model import (DropStream, ModelParams, decode_step, encode_input,
                             final_distribution, init_decoder)
from unansqgen.tensor import Tape, TapeError, Tensor, backward
from unansqgen.text import BOS_ID, EOS, Vocab
from unansqgen.train import (
    AdagradState,
    TrainConfig,
    TrainingError,
    _bucketed_batches,
    adagrad_step,
    perplexity,
    sequence_nll,
    train,
)


def small_params(mode="seq2seq", vocab_size=11, seed=13):
    return ModelParams(vocab_size, mode, word_dim=6, enc_hidden=3, seed=seed)


def toy_vocab():
    return Vocab(["aa", "bb", "cc", "dd", "ee", "ff"])  # ids 5..10


def make_pair(paragraph, start, end, question, target, k=0):
    return AlignedPair(
        title="t", paragraph_tokens=paragraph, answer_start=start, answer_end=end,
        answerable_tokens=question, unanswerable_tokens=target,
        answerable_id=f"a{k}", unanswerable_id=f"u{k}")


# config validation


@pytest.mark.parametrize("kwargs", [
    {"mode": "transformer"},
    {"batch_size": 0},
    {"learning_rate": 0.0},
    {"learning_rate": -1.0},
    {"dropout": 1.0},
    {"dropout": -0.1},
    {"epochs": 0},
    {"learning_rate": math.nan},
    {"learning_rate": math.inf},
    {"clip_norm": 0.0},
    {"clip_norm": -1.0},
    {"clip_norm": math.nan},
    {"clip_norm": math.inf},
    {"max_target_len": 0},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(TrainingError):
        TrainConfig(**kwargs).validate()


def test_config_defaults_are_valid():
    TrainConfig(clip_norm=None, max_target_len=1).validate()  # None: no clipping
    cfg = TrainConfig()
    cfg.validate()
    assert (cfg.batch_size, cfg.learning_rate, cfg.dropout) == (32, 0.15, 0.2)


# sequence NLL


def teacher_forced_nll(params, vocab, pair, target_tokens, max_len=50):
    """Independent recomputation: step probabilities read off final_distribution."""
    targets = list(target_tokens)[:max_len - 1] + [EOS]
    tape = Tape()
    enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                       pair.answer_start, pair.answer_end, pair.answerable_tokens)
    state = init_decoder(tape, params, enc)
    prev = BOS_ID
    total = 0.0
    for tok in targets:
        step = decode_step(tape, params, enc, state, prev)
        dist, extra = final_distribution(step, enc, vocab)
        if tok in vocab:
            p = dist[vocab.id(tok)]
        elif tok in extra:
            p = dist[len(vocab) + extra.index(tok)]
        else:
            p = 0.0
        total -= math.log(p + 1e-12)
        state = step.state
        prev = vocab.id(tok)
    return total


def test_sequence_nll_matches_final_distribution():
    vocab = toy_vocab()
    pairs = [make_pair(["aa", "bb", "zz", "cc"], 1, 3, ["dd", "aa"], ["bb", "zz", "ee"]),
             # "bb" (in the vocabulary) and "zz" (not) repeat among the copy
             # positions; "yy" is out of the vocabulary and nowhere in the source
             make_pair(["bb", "zz", "aa", "zz", "bb"], 1, 3, ["zz", "cc", "bb"],
                       ["bb", "zz", "yy", "zz", "bb"])]
    for mode in ("seq2seq", "pair2seq"):
        params = small_params(mode)
        for pair in pairs:
            tape = Tape()
            enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                               pair.answer_start, pair.answer_end, pair.answerable_tokens)
            loss, steps, truncated = sequence_nll(tape, params, enc, vocab,
                                                  pair.unanswerable_tokens)
            assert steps == len(pair.unanswerable_tokens) + 1 and not truncated
            want = teacher_forced_nll(params, vocab, pair, pair.unanswerable_tokens)
            assert float(loss.data) == pytest.approx(want, rel=1e-12)


def per_step_nll(tape, params, enc, vocab, target_tokens, drops=None):
    """The loss built one decoder step at a time: a decode_step per target,
    then the gold probability through a V x 1 one-hot matmul and an Lc x 1
    copy-indicator matmul."""
    one = Tensor(np.ones((1, 1)))
    eps = Tensor(np.full((1, 1), 1e-12))
    state = init_decoder(tape, params, enc)
    prev_id = BOS_ID
    log_terms = []
    for tok in list(target_tokens) + [EOS]:
        step = decode_step(tape, params, enc, state, prev_id, drops=drops)
        state = step.state
        inv_gate = tape.add(one, tape.scale(step.gate, -1.0))
        indicator = np.array([[1.0] if t == tok else [0.0] for t in enc.copy_tokens])
        copy_mass = tape.matmul(step.copy_attn, Tensor(indicator))
        if tok in vocab:
            onehot = np.zeros((len(vocab), 1))
            onehot[vocab.id(tok), 0] = 1.0
            vocab_mass = tape.matmul(step.p_vocab, Tensor(onehot))
            prob = tape.add(tape.mul(step.gate, vocab_mass), tape.mul(inv_gate, copy_mass))
        else:
            prob = tape.mul(inv_gate, copy_mass)
        log_terms.append(tape.log(tape.add(prob, eps)))
        prev_id = vocab.id(tok)
    return tape.scale(tape.sum(tape.stack_rows(log_terms)), -1.0)


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_sequence_nll_equals_per_step_reference(mode):
    # "bb" is in the vocabulary and in the source, "zz" is an OOV source
    # token, "yy" is OOV and nowhere in the source; dropout is on, so the
    # mask order of the encoder and of every decoder step is checked too
    vocab = toy_vocab()
    params = small_params(mode)
    name_of = {id(t): name for name, t in params.items()}
    pair = make_pair(["aa", "bb", "zz", "cc"], 1, 3, ["dd", "aa"], ["bb", "zz", "yy", "ee"])

    def loss_and_grads(build):
        tape = Tape()
        drops = DropStream((13, 1, 0), 0.8)
        enc = encode_input(tape, params, vocab, pair.paragraph_tokens, pair.answer_start,
                           pair.answer_end, pair.answerable_tokens, drops=drops)
        loss = build(tape, enc, drops)
        return float(loss.data), {name_of[id(t)]: g for t, g in backward(loss, tape).items()}

    got, got_grads = loss_and_grads(lambda tape, enc, drops: sequence_nll(
        tape, params, enc, vocab, pair.unanswerable_tokens, drops=drops)[0])
    want, want_grads = loss_and_grads(lambda tape, enc, drops: per_step_nll(
        tape, params, enc, vocab, pair.unanswerable_tokens, drops=drops))
    assert got == pytest.approx(want, rel=1e-9)
    assert set(got_grads) == set(want_grads) == set(params.tensors)
    for name, g in want_grads.items():
        np.testing.assert_allclose(got_grads[name], g, rtol=1e-9, err_msg=name)


# Uneven paragraph, question and target lengths; "zz" and "yy" are OOV
# targets, "zz" also in the paragraph, and one target exceeds max_target_len.
UNEVEN_PAIRS = [
    make_pair(["aa", "bb", "zz", "cc"], 1, 3, ["dd", "aa"], ["bb", "zz", "yy", "ee"], k=0),
    make_pair(["cc", "dd", "ee", "ff", "aa", "bb", "cc"], 0, 2, ["ee", "bb", "ff"], ["aa"], k=1),
    make_pair(["ff", "aa"], 1, 2, ["cc"], ["dd", "yy", "ff", "aa", "bb", "cc", "dd"], k=2),
]


def _example_grads(params, pair, drop_seed):
    drops = DropStream(drop_seed, 0.8)
    tape, loss, _ = train_module._example_loss(params, toy_vocab(), pair, 6, drops=drops)
    return float(loss.data), {t.name: g for t, g in backward(loss, tape).items()}


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_deferred_gradients_equal_dense_reference(mode, dense_vjps):
    # Every weight gradient summed once per tape equals the dense per-use sum
    # of the reference vjps (conftest.dense_vjps), with dropout on.
    params = small_params(mode)
    for k, pair in enumerate(UNEVEN_PAIRS):
        loss, grads = _example_grads(params, pair, (13, 1, k))
        want_loss, want = dense_vjps(lambda: _example_grads(params, pair, (13, 1, k)))
        assert loss == want_loss
        assert set(grads) == set(want) == set(params.tensors)
        for name, g in want.items():
            assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def backward_per_tape(loss, tape):
    """A test-only copy of `tensor.backward` before pieces could be carried
    across tapes: every leaf's pieces are summed at the end of its own tape."""
    grads = {id(loss): np.ones_like(loss.data)}
    holder = {id(loss): loss}
    pieces = {}

    def total(key, t):
        g = grads.pop(key, None)
        if key in pieces:
            summed = tensor._sum_pieces(pieces.pop(key), t.data)
            g = summed if g is None else np.add(summed, g, out=summed)
        return g

    for e in reversed(tape.entries):
        key = id(e.output)
        holder.pop(key, None)
        g = total(key, e.output)
        if g is None:
            continue
        for t, gi in zip(e.inputs, e.vjp(g)):
            if not t._tracked:
                continue
            key = id(t)
            holder.setdefault(key, t)
            if type(gi) is tuple:
                pieces.setdefault(key, []).append(gi)
            elif key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
    return {t: total(key, t) for key, t in holder.items() if t.requires_grad}


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_plain_backward_is_bit_identical_to_the_per_tape_sum(mode):
    # without a pieces dict, backward returns what it returned before; with
    # one, a single tape's pieces summed by sum_gradients give the same bits
    params = small_params(mode)
    for k, pair in enumerate(UNEVEN_PAIRS):
        tape, loss, _ = train_module._example_loss(params, toy_vocab(), pair, 6,
                                                   drops=DropStream((13, 1, k), 0.8))
        want = backward_per_tape(loss, tape)
        leaf_pieces = {}
        dense = backward(loss, tape, leaf_pieces)
        for got in (backward(loss, tape), tensor.sum_gradients(leaf_pieces, dense)):
            assert list(got) == list(want)
            for t, g in want.items():
                np.testing.assert_array_equal(got[t], g, err_msg=t.name)


def _train_one_batch(params, mode, monkeypatch):
    """The gradients `train` hands Adagrad for one batch of UNEVEN_PAIRS."""
    seen = []
    real_step = train_module.adagrad_step

    def capture(params, grads, state, *args):
        seen.append({name: g.copy() for name, g in grads.items()})
        return real_step(params, grads, state, *args)

    monkeypatch.setattr(train_module, "adagrad_step", capture)
    config = TrainConfig(mode=mode, epochs=1, batch_size=len(UNEVEN_PAIRS), dropout=0.2,
                         max_target_len=6, word_dim=6, enc_hidden=3, seed=13)
    train(config, UNEVEN_PAIRS, UNEVEN_PAIRS[:1], toy_vocab(), params=params)
    (grads,) = seen
    return grads


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_batch_gradients_equal_the_sum_of_per_example_maps(mode, monkeypatch):
    # uneven lengths, OOV and truncated targets, dropout on: the pieces
    # carried across the batch's tapes sum to the per-example maps' mean
    params = small_params(mode)
    want = {}
    for k, pair in enumerate(UNEVEN_PAIRS):
        _, grads = _example_grads(params, pair, (13, 1, k))
        for name, g in grads.items():
            want[name] = want[name] + g if name in want else g
    got = _train_one_batch(params, mode, monkeypatch)
    assert set(got) == set(want) == set(params.tensors)
    assert list(got) == list(params.tensors)  # the clip norm sums in parameter order
    for name, g in want.items():
        g = g / len(UNEVEN_PAIRS)
        assert np.max(np.abs(got[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def test_train_builds_each_vocabulary_wide_gradient_once_per_batch(monkeypatch):
    params = small_params("pair2seq")
    wide = {"out_W": params["out_W"].data, "word_emb": params["word_emb"].data}
    built = []
    real = tensor._sum_pieces

    def probe(pieces, like):
        built.extend(name for name, data in wide.items() if like is data)
        return real(pieces, like)

    monkeypatch.setattr(tensor, "_sum_pieces", probe)
    _train_one_batch(params, "pair2seq", monkeypatch)
    assert sorted(built) == ["out_W", "word_emb"]  # not once per example


def test_batch_carries_no_slice_piece_across_tapes(monkeypatch):
    # slice pieces may view larger gradients, so a tape never carries them;
    # no tape slices or concatenates an LSTM weight, so each carries the
    # LSTM weights' matmul pieces to the once-per-batch sum instead of
    # returning them dense
    params = small_params("pair2seq")
    carried, dense_names = [], set()
    real_sum, real_backward = train_module.sum_gradients, train_module.backward

    def capture(leaf_pieces, dense):
        carried.append({t.name: list(found) for t, found in leaf_pieces.items()})
        return real_sum(leaf_pieces, dense)

    def tape_dense(loss, tape, leaf_pieces):
        out = real_backward(loss, tape, leaf_pieces)
        dense_names.update(t.name for t in out)
        return out

    monkeypatch.setattr(train_module, "sum_gradients", capture)
    monkeypatch.setattr(train_module, "backward", tape_dense)
    _train_one_batch(params, "pair2seq", monkeypatch)
    (pieces,) = carried
    assert set(pieces) == set(params.tensors)
    assert not any(type(p[0]) is slice for found in pieces.values() for p in found)
    assert pieces["out_W"] and pieces["word_emb"]
    for name in ("enc_Wx", "dec_Wx", "dec_Wh"):
        assert pieces[name] and all(len(p) == 3 for p in pieces[name]), name  # matmul pieces
    assert not dense_names & {"enc_Wx", "dec_Wx", "dec_Wh"}


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_backward_gradients_share_no_memory(mode):
    # train.train keeps the first example's arrays and adds the rest into
    # them in place, so no gradient may alias another or a parameter
    params = small_params(mode)
    _, grads = _example_grads(params, UNEVEN_PAIRS[0], (13, 1, 0))
    arrays = list(grads.values()) + [t.data for t in params.tensors.values()]
    for i, g in enumerate(grads.values()):
        assert not any(np.shares_memory(g, other) for other in arrays[i + 1:])


def test_sequence_nll_oov_target_gets_copy_mass_only():
    # "zz" is OOV but sits in the paragraph: its only credit is copy attention
    vocab = toy_vocab()
    params = small_params()
    pair = make_pair(["aa", "zz", "bb"], 1, 2, ["cc"], ["zz"])
    tape = Tape()
    enc = encode_input(tape, params, vocab, pair.paragraph_tokens, 1, 2,
                       pair.answerable_tokens)
    loss, steps, _ = sequence_nll(tape, params, enc, vocab, ["zz"])
    assert steps == 2  # target plus EOS

    state = init_decoder(Tape(), params, enc)
    tape2 = Tape()
    enc2 = encode_input(tape2, params, vocab, pair.paragraph_tokens, 1, 2,
                        pair.answerable_tokens)
    state = init_decoder(tape2, params, enc2)
    step = decode_step(tape2, params, enc2, state, BOS_ID)
    gate = float(step.gate.data[0, 0])
    copy_mass = sum(float(step.copy_attn.data[0, i])
                    for i, t in enumerate(enc2.copy_tokens) if t == "zz")
    first_term = -math.log((1.0 - gate) * copy_mass + 1e-12)
    # the UNK row of p_vocab must not leak in: first step depends on copy mass only
    step2 = decode_step(tape2, params, enc2, step.state, vocab.id("zz"))
    dist, extra = final_distribution(step2, enc2, vocab)
    second_term = -math.log(dist[vocab.id(EOS)] + 1e-12)
    assert float(loss.data) == pytest.approx(first_term + second_term, rel=1e-9)


def test_sequence_nll_truncates_long_targets():
    vocab = toy_vocab()
    params = small_params()
    tape = Tape()
    enc = encode_input(tape, params, vocab, ["aa", "bb"], 0, 1, ["cc"])
    long_target = ["aa", "bb", "cc", "dd", "ee", "ff", "aa", "bb"]
    loss, steps, truncated = sequence_nll(tape, params, enc, vocab, long_target, max_len=4)
    assert truncated and steps == 4  # three kept tokens plus EOS
    _, steps, truncated = sequence_nll(Tape(), params, enc, vocab, ["aa"], max_len=4)
    assert not truncated and steps == 2


def test_sequence_nll_nonnegative_and_finite():
    vocab = toy_vocab()
    for seed in (1, 5, 9):
        params = small_params(seed=seed)
        tape = Tape()
        enc = encode_input(tape, params, vocab, ["aa", "bb", "cc"], 0, 2, ["dd"])
        loss, _, _ = sequence_nll(tape, params, enc, vocab, ["ee", "ff"])
        value = float(loss.data)
        assert math.isfinite(value) and value > -1e-9


# Adagrad


def one_tensor_params(value):
    p = small_params(vocab_size=5)
    # shrink to a single named tensor view for scalar arithmetic checks
    class Solo:
        def __init__(self, tensor):
            self.tensor = tensor

        def items(self):
            return [("w", self.tensor)]

        def __getitem__(self, name):
            assert name == "w"
            return self.tensor

    from unansqgen.tensor import Tensor
    return Solo(Tensor(np.array([[float(value)]])))


def test_adagrad_scalar_hand_arithmetic():
    params = one_tensor_params(1.0)
    state = AdagradState(params)
    applied = adagrad_step(params, {"w": np.array([[3.0]])}, state, lr=0.15, clip=None)
    assert applied
    # independent scalar route: acc = 0.1 + 9 = 9.1, theta = 1 - 0.45 / sqrt(9.1)
    acc = 0.1 + 3.0 ** 2
    want = 1.0 - 0.15 * 3.0 / math.sqrt(acc)
    assert state.acc["w"][0, 0] == pytest.approx(9.1, abs=1e-15)
    assert params["w"].data[0, 0] == pytest.approx(want, abs=1e-15)
    assert round(want, 4) == 0.8508


def test_adagrad_zero_gradient_is_identity():
    params = small_params(vocab_size=6)
    before = {n: t.data.copy() for n, t in params.items()}
    state = AdagradState(params)
    grads = {n: np.zeros(t.data.shape) for n, t in params.items()}
    adagrad_step(params, grads, state, lr=0.15, clip=5.0)
    for n, t in params.items():
        np.testing.assert_array_equal(t.data, before[n])


def test_adagrad_second_identical_step_is_smaller():
    params = one_tensor_params(1.0)
    state = AdagradState(params)
    g = {"w": np.array([[2.0]])}
    x0 = params["w"].data[0, 0]
    adagrad_step(params, g, state, lr=0.15, clip=None)
    x1 = params["w"].data[0, 0]
    adagrad_step(params, g, state, lr=0.15, clip=None)
    x2 = params["w"].data[0, 0]
    assert abs(x2 - x1) < abs(x1 - x0)


def test_adagrad_skips_nonfinite_gradients():
    params = one_tensor_params(1.0)
    state = AdagradState(params)
    applied = adagrad_step(params, {"w": np.array([[float("nan")]])}, state, lr=0.15, clip=5.0)
    assert not applied
    assert state.skipped == 1
    assert params["w"].data[0, 0] == 1.0
    assert state.acc["w"][0, 0] == 0.1


def test_adagrad_clips_global_norm():
    params = one_tensor_params(0.0)
    state = AdagradState(params)
    adagrad_step(params, {"w": np.array([[10.0]])}, state, lr=0.15, clip=5.0)
    # clipped gradient is 5: accumulator grows by exactly 25
    assert state.acc["w"][0, 0] == pytest.approx(0.1 + 25.0, abs=1e-12)


def test_adagrad_zero_learning_rate_is_identity():
    params = small_params(vocab_size=6)
    before = {n: t.data.copy() for n, t in params.items()}
    state = AdagradState(params)
    rng = np.random.default_rng(8)
    grads = {n: rng.normal(size=t.data.shape) for n, t in params.items()}
    adagrad_step(params, grads, state, lr=0.0, clip=5.0)
    for n, t in params.items():
        np.testing.assert_array_equal(t.data, before[n])


def test_adagrad_accumulators_nondecreasing():
    params = small_params(vocab_size=6)
    state = AdagradState(params)
    rng = np.random.default_rng(9)
    prev = {n: a.copy() for n, a in state.acc.items()}
    for _ in range(3):
        grads = {n: rng.normal(size=t.data.shape) for n, t in params.items()}
        adagrad_step(params, grads, state, lr=0.15, clip=5.0)
        for n, a in state.acc.items():
            assert np.all(a >= prev[n])
            prev[n] = a.copy()


def adagrad_step_by_formula(params, grads, state, lr, clip):
    """The update written with whole-tensor temporaries."""
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    scale = clip / norm if clip is not None and norm > clip else 1.0
    for name, g in grads.items():
        g = g * scale
        acc = state.acc[name]
        acc += g * g
        params[name].data -= lr * g / np.sqrt(acc)


@pytest.mark.parametrize("block", [None, 7])
def test_adagrad_equals_formula_bit_for_bit(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(train_module, "_BLOCK", block)
    rng = np.random.default_rng(12)
    # at vocab_size 12000, word_emb and out_W span more than one default block
    params_a = small_params(vocab_size=12000)
    params_b = small_params(vocab_size=12000)
    shapes = {n: t.data.shape for n, t in params_a.items()}
    state_a, state_b = AdagradState(params_a), AdagradState(params_b)
    for _ in range(2):
        grads = {n: rng.normal(size=shape) for n, shape in shapes.items()}
        before = {n: g.copy() for n, g in grads.items()}
        assert math.sqrt(sum(float((g * g).sum()) for g in grads.values())) > 5.0
        assert adagrad_step(params_a, grads, state_a, lr=0.15, clip=5.0)
        adagrad_step_by_formula(params_b, grads, state_b, lr=0.15, clip=5.0)
        for n in shapes:
            np.testing.assert_array_equal(grads[n], before[n])
            np.testing.assert_array_equal(state_a.acc[n], state_b.acc[n])
            np.testing.assert_array_equal(params_a[n].data, params_b[n].data)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=4),
       st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
       st.one_of(st.none(), st.just(math.inf), st.floats(min_value=-1e3, max_value=1e300)),
       st.integers(min_value=1, max_value=3))
def test_adagrad_leaves_verified_only_finite_parameters(rows, lr, clip, steps):
    # extreme finite parameters and gradients; every step applies (no gradient is non-finite)
    w = Tensor(np.array([[p for p, _ in rows]]))
    w.verified = True
    params, grads = {"w": w}, {"w": np.array([[g for _, g in rows]])}
    state = AdagradState(params)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            assert adagrad_step(params, grads, state, lr=lr, clip=clip)
    if lr <= 1.0 and (clip is None or clip >= 0):  # the bound the step relies on holds
        assert w.verified
    if w.verified:
        assert np.isfinite(w.data).all()


# perplexity


def test_perplexity_matches_nll_definition():
    vocab = toy_vocab()
    params = small_params()
    pairs = [
        make_pair(["aa", "bb"], 0, 1, ["cc"], ["dd"], k=0),
        make_pair(["cc", "dd", "ee"], 1, 3, ["aa", "bb"], ["ee", "ff"], k=1),
    ]
    total = 0.0
    tokens = 0
    for pair in pairs:
        tape = Tape()
        enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                           pair.answer_start, pair.answer_end, pair.answerable_tokens)
        loss, steps, _ = sequence_nll(tape, params, enc, vocab, pair.unanswerable_tokens)
        total += float(loss.data)
        tokens += steps
    assert perplexity(params, pairs, vocab) == pytest.approx(math.exp(total / tokens))


def test_perplexity_deterministic_and_rejects_empty():
    vocab = toy_vocab()
    params = small_params()
    pairs = [make_pair(["aa", "bb"], 0, 1, ["cc"], ["dd"])]
    assert perplexity(params, pairs, vocab) == perplexity(params, pairs, vocab)
    with pytest.raises(TrainingError):
        perplexity(params, [], vocab)


@pytest.mark.parametrize("mode", ["seq2seq", "pair2seq"])
def test_perplexity_on_non_recording_tapes_is_bit_identical(mode, monkeypatch):
    vocab = toy_vocab()
    params = small_params(mode)
    pairs = [  # qq and rr are out of vocabulary, and copied
        make_pair(["aa", "qq", "bb"], 0, 1, ["cc", "qq"], ["qq", "dd"], k=0),
        make_pair(["cc", "dd", "ee", "rr"], 1, 3, ["aa", "rr"], ["ee", "rr", "ff"], k=1),
    ]
    made = []
    monkeypatch.setattr(train_module, "Tape",
                        lambda record: made.append(Tape(record=record)) or made[-1])
    skipped = perplexity(params, pairs, vocab)
    monkeypatch.setattr(train_module, "Tape", lambda record: made.append(Tape()) or made[-1])
    assert perplexity(params, pairs, vocab) == skipped
    assert [(t.record, bool(t.entries)) for t in made] == [(False, False)] * 2 + [(True, True)] * 2


def _poisoned(params, name, vocab):
    """Write a NaN straight into a verified parameter that the toy pairs read."""
    t = params[name]
    assert t.verified
    t.data[(vocab.id("aa"), 0) if name == "word_emb" else (1, 2)] = np.nan
    return params


@pytest.mark.parametrize("name,kind", [("word_emb", "embedding-lookup"), ("out_W", "matmul")])
def test_non_finite_parameter_past_every_writer_is_one_error(name, kind):
    # a verified array is not scanned on read: the output check of the first
    # primitive that reads the NaN catches it
    vocab = toy_vocab()
    pairs = [make_pair(["aa", "bb", "cc"], 0, 1, ["dd", "aa"], ["dd", "bb"])]
    with pytest.raises(TapeError, match=f"^{kind}: produced a non-finite output$"):
        perplexity(_poisoned(small_params(), name, vocab), pairs, vocab)
    config = TrainConfig(epochs=1, batch_size=1, word_dim=6, enc_hidden=3)
    with pytest.raises(TrainingError,
                       match=f"^epoch 1 batch 0: {kind}: produced a non-finite output$"):
        train(config, pairs, pairs, vocab, params=_poisoned(small_params(), name, vocab))


# batching


def test_bucketed_batches_partition_indices():
    pairs = [make_pair(["aa"] * (1 + i % 7), 0, 1, ["bb"] * (1 + i % 3), ["cc"], k=i)
             for i in range(23)]
    rng = np.random.default_rng(4)
    order = rng.permutation(len(pairs))
    batches = _bucketed_batches(order, pairs, batch_size=4, window_batches=2, rng=rng)
    flat = [i for batch in batches for i in batch]
    assert sorted(flat) == list(range(23))
    assert all(1 <= len(b) <= 4 for b in batches)


def test_bucketed_batches_sort_within_window():
    pairs = [make_pair(["aa"] * (i + 1), 0, 1, ["bb"], ["cc"], k=i) for i in range(8)]
    rng = np.random.default_rng(0)
    # one window covering everything: each batch must be a contiguous length run
    batches = _bucketed_batches(np.arange(8)[::-1], pairs, batch_size=2,
                                window_batches=50, rng=rng)
    for batch in batches:
        lengths = [len(pairs[i].paragraph_tokens) for i in batch]
        assert lengths == sorted(lengths)
    starts = sorted(batch[0] for batch in batches)
    assert starts == [0, 2, 4, 6]


# train loop


def toy_corpus():
    pairs = [
        make_pair(["aa", "bb", "cc"], 0, 1, ["dd", "aa"], ["dd", "bb"], k=0),
        make_pair(["bb", "cc", "dd"], 1, 2, ["ee", "bb"], ["ee", "cc"], k=1),
        make_pair(["cc", "dd", "ee"], 2, 3, ["ff", "cc"], ["ff", "dd"], k=2),
        make_pair(["dd", "ee", "ff"], 0, 2, ["aa", "dd"], ["aa", "ee"], k=3),
    ]
    holdout = [make_pair(["ee", "ff", "aa"], 1, 2, ["bb", "ee"], ["bb", "ff"], k=9)]
    return pairs, holdout


def small_config(**kwargs):
    base = dict(mode="seq2seq", epochs=2, batch_size=2, dropout=0.0,
                word_dim=6, enc_hidden=3, seed=13)
    base.update(kwargs)
    return TrainConfig(**base)


def test_train_rejects_empty_inputs():
    vocab = toy_vocab()
    pairs, holdout = toy_corpus()
    with pytest.raises(TrainingError):
        train(small_config(), [], holdout, vocab)
    with pytest.raises(TrainingError):
        train(small_config(), pairs, [], vocab)


def test_train_history_and_best_selection():
    vocab = toy_vocab()
    pairs, holdout = toy_corpus()
    lines = []
    params, history = train(small_config(epochs=3), pairs, holdout, vocab,
                            log=lines.append)
    assert len(history) == 3 and len(lines) == 3
    assert all(set(h) == {"epoch", "train_loss", "holdout_ppl", "seconds", "skipped_steps"}
               for h in history)
    best = min(h["holdout_ppl"] for h in history)
    # returned parameters are the best epoch's snapshot, not the last epoch's
    assert perplexity(params, holdout, vocab) == pytest.approx(best, rel=1e-12)


def test_train_reports_no_skipped_steps_on_a_normal_run():
    vocab = toy_vocab()
    pairs, holdout = toy_corpus()
    lines = []
    _, history = train(small_config(), pairs, holdout, vocab, log=lines.append)
    assert [h["skipped_steps"] for h in history] == [0, 0]
    assert all(line.endswith(" skipped_steps 0") for line in lines)


def test_train_counts_skipped_steps_per_epoch(monkeypatch):
    # the first optimizer step sees a NaN gradient; later steps are clean
    vocab = toy_vocab()
    pairs, holdout = toy_corpus()
    real_step = train_module.adagrad_step
    calls = []

    def first_step_poisoned(params, grads, state, *args):
        calls.append(1)
        if len(calls) == 1:
            grads = {name: np.full_like(g, np.nan) for name, g in grads.items()}
        return real_step(params, grads, state, *args)

    monkeypatch.setattr(train_module, "adagrad_step", first_step_poisoned)
    _, history = train(small_config(), pairs, holdout, vocab)
    assert len(calls) == 4  # two batches per epoch
    assert [h["skipped_steps"] for h in history] == [1, 0]


def test_train_determinism_bit_identical():
    vocab = toy_vocab()
    pairs, holdout = toy_corpus()
    runs = []
    for _ in range(2):
        params, history = train(small_config(dropout=0.2), pairs, holdout, vocab)
        runs.append((params.copy_arrays(), [h["holdout_ppl"] for h in history]))
    assert runs[0][1] == runs[1][1]
    for name, arr in runs[0][0].items():
        np.testing.assert_array_equal(arr, runs[1][0][name])


def test_train_seed_changes_outcome():
    vocab = toy_vocab()
    pairs, holdout = toy_corpus()
    a, _ = train(small_config(seed=13), pairs, holdout, vocab)
    b, _ = train(small_config(seed=14), pairs, holdout, vocab)
    assert any(not np.array_equal(a.copy_arrays()[n], b.copy_arrays()[n])
               for n in a.copy_arrays())


def test_train_memorizes_tiny_corpus():
    vocab = toy_vocab()
    pairs, _ = toy_corpus()
    config = small_config(epochs=150, batch_size=4, learning_rate=0.3)
    params, history = train(config, pairs, pairs, vocab)
    first, last = history[0], history[-1]
    assert last["holdout_ppl"] < first["holdout_ppl"]
    # four two-token targets are far inside capacity: near-deterministic recall
    assert last["holdout_ppl"] < 1.1


def test_train_uses_pretrained_vectors(tmp_path):
    vocab = toy_vocab()
    pairs, holdout = toy_corpus()
    vec = " ".join(["0.25"] * 6)
    path = tmp_path / "vectors.txt"
    path.write_text(f"aa {vec}\nbb {vec}\n", encoding="utf-8")
    cfg = small_config(epochs=1, pretrained_path=str(path))
    seeded = ModelParams(len(vocab), "seq2seq", word_dim=6, enc_hidden=3, seed=13)
    params, _ = train(cfg, pairs, holdout, vocab)
    # the loaded rows start from the file values, so training lands elsewhere
    assert not np.array_equal(params["word_emb"].data[vocab.id("aa")],
                              seeded["word_emb"].data[vocab.id("aa")])


@pytest.mark.parametrize("ppls, calls", [
    ([1.0, 2.0, 3.0], ["copy", "set"]),
    ([2.0, 1.0, 3.0], ["copy", "copy", "set"]),
    ([3.0, 2.0, 1.0], ["copy", "copy"]),
])
def test_train_copies_parameters_only_for_a_later_restore(ppls, calls, monkeypatch):
    vocab = toy_vocab()
    pairs, holdout = toy_corpus()
    snapshots = []

    def scripted_perplexity(params, *args):
        snapshots.append({name: t.data.copy() for name, t in params.items()})
        return ppls[len(snapshots) - 1]

    seen = []
    real_copy, real_set = ModelParams.copy_arrays, ModelParams.set_arrays
    monkeypatch.setattr(train_module, "perplexity", scripted_perplexity)
    monkeypatch.setattr(ModelParams, "copy_arrays",
                        lambda self: seen.append("copy") or real_copy(self))
    monkeypatch.setattr(ModelParams, "set_arrays",
                        lambda self, arrays: seen.append("set") or real_set(self, arrays))
    params, history = train(small_config(epochs=3, dropout=0.2), pairs, holdout, vocab)
    # a test-only copy of the loop that copied after every improving epoch
    # and always restored the best copy
    best_ppl, best_arrays = math.inf, None
    for ppl, arrays in zip(ppls, snapshots):
        if ppl < best_ppl:
            best_ppl, best_arrays = ppl, {name: a.copy() for name, a in arrays.items()}
    for name, t in params.items():
        np.testing.assert_array_equal(t.data, best_arrays[name])
    assert [h["holdout_ppl"] for h in history] == ppls
    assert seen == calls


def test_one_epoch_train_neither_copies_nor_restores(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-epoch run returns its only arrays as they are")

    monkeypatch.setattr(ModelParams, "copy_arrays", refuse)
    monkeypatch.setattr(ModelParams, "set_arrays", refuse)
    pairs, holdout = toy_corpus()
    _, history = train(small_config(epochs=1), pairs, holdout, toy_vocab())
    assert len(history) == 1
