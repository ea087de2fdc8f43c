"""The benchmark's tracer still finds the names it patches in this package."""

import sys
from collections import Counter
from pathlib import Path

from conftest import make_pair, toy_vocab
from unansqgen import decode, model, tensor, train

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_tracer_spans_cover_training_and_decoding():
    vocab = toy_vocab()
    pair = make_pair(["aa", "bb", "cc"], 0, 1, ["dd", "aa"], ["dd", "bb"])
    params = model.ModelParams(len(vocab), "pair2seq", word_dim=6, enc_hidden=3, seed=13)
    before = {(owner, attr): getattr(owner, attr) for owner, attr, _, _ in tracing._TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        config = train.TrainConfig(mode="pair2seq", epochs=1, batch_size=1,
                                   word_dim=6, enc_hidden=3)
        train.train(config, [pair], [pair], vocab, params=params)
        trained = tracer.totals()
        decode.generate_for_example(params, vocab, pair, beam_size=2, max_len=3)
    finally:
        tracer.uninstall()
    # training decodes through the traced name too, not only beam search
    assert "model.decode_step" in trained
    spans = tracer.totals()
    for name in ("tensor.backward", "tensor.primitive.matmul", "model.decode_step",
                 "train.adagrad_step"):
        assert name in spans, name
    assert tracer.counters["tensor.backward.grad_bytes"]
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in before.items())


def test_tracer_counts_every_primitive_of_the_non_recording_tapes():
    vocab = toy_vocab()
    pair = make_pair(["aa", "zz", "cc"], 0, 1, ["dd", "zz"], ["zz", "bb"])  # zz: a copied OOV
    params = model.ModelParams(len(vocab), "pair2seq", word_dim=6, enc_hidden=3, seed=13)
    # the same work on recording tapes, counted by kind from their entries
    loss_tape, _, _ = train._example_loss(params, vocab, pair, train.TrainConfig.max_target_len)
    beam_tape = tensor.Tape()
    enc = model.encode_input(beam_tape, params, vocab, pair.paragraph_tokens, pair.answer_start,
                             pair.answer_end, pair.answerable_tokens)
    decode.beam_search(beam_tape, params, enc, vocab, beam_size=2, max_len=3)
    want = Counter(e.kind for tape in (loss_tape, beam_tape) for e in tape.entries)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        train.perplexity(params, [pair], vocab)
        decode.generate_for_example(params, vocab, pair, beam_size=2, max_len=3)
    finally:
        tracer.uninstall()
    got = Counter({name.removeprefix("tensor.primitive."): sum(row[2] for row in phases.values())
                   for name, phases in tracer.totals().items()
                   if name.startswith("tensor.primitive.")})
    assert got == want and sum(got.values()) > 100
