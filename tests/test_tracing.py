"""The benchmark's tracer still finds the names it patches in this package."""

import sys
from pathlib import Path

from conftest import make_pair, toy_vocab
from unansqgen import decode, model, train

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
