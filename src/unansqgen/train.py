"""Teacher-forced NLL training with Adagrad and holdout-perplexity selection."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import text
from .model import (MODES, DropStream, ModelParams, encode_input, decode_steps,
                    init_decoder, load_pretrained_vectors)
from .model import decode_step  # noqa: F401  perfbench/tracing.py patches train.decode_step
from .tensor import Tape, Tensor, TapeError, backward


class TrainingError(RuntimeError):
    """Raised when optimization cannot proceed (bad config, non-finite loss)."""


@dataclass
class TrainConfig:
    mode: str = "seq2seq"
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.15
    dropout: float = 0.2
    clip_norm: float = 5.0
    seed: int = 13
    word_dim: int = 300
    enc_hidden: int = 150
    max_target_len: int = 50
    pretrained_path: str = None

    def validate(self):
        if self.mode not in MODES:
            raise TrainingError(f"unknown mode {self.mode!r}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise TrainingError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise TrainingError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")


def sequence_nll(tape, params, enc, vocab, target_tokens, max_len=50, drops=None):
    """Teacher-forced -sum log(P(target_t) + 1e-12) for one example.

    The step probability is the mixture value of the gold token: gate-scaled
    vocabulary probability (for in-vocabulary targets) plus copy attention
    summed over the token's source occurrences. An out-of-vocabulary target
    is credited with its copy mass only. Targets longer than max_len - 1 are
    truncated before the closing EOS.

    Returns (loss Tensor, step count, truncated flag).
    """
    targets = list(target_tokens)
    truncated = len(targets) > max_len - 1
    if truncated:
        targets = targets[:max_len - 1]
    targets.append(text.EOS)
    prev_ids = [text.BOS_ID] + [vocab.id(tok) for tok in targets[:-1]]

    state = init_decoder(tape, params, enc)
    out = decode_steps(tape, params, enc, state, prev_ids, drops=drops)
    # Gold probabilities are read through constant masks: row t of `onehot`
    # and `indicator` marks target t in the vocabulary and among the copy
    # positions. An out-of-vocabulary target has an all-zero onehot row, so
    # it is credited with its copy mass only.
    onehot = np.zeros((len(targets), len(vocab)))
    indicator = np.zeros((len(targets), len(enc.copy_tokens)))
    for t, tok in enumerate(targets):
        if tok in vocab:
            onehot[t, vocab.id(tok)] = 1.0
        indicator[t] = [source_tok == tok for source_tok in enc.copy_tokens]
    vocab_mass = tape.matmul(tape.mul(out.p_vocab, Tensor(onehot)),
                             Tensor(np.ones((len(vocab), 1))))
    copy_mass = tape.matmul(tape.mul(out.copy_attn, Tensor(indicator)),
                            Tensor(np.ones((len(enc.copy_tokens), 1))))
    inv_gate = tape.add(Tensor(np.ones((1, 1))), tape.scale(out.gate, -1.0))
    prob = tape.add(tape.mul(out.gate, vocab_mass), tape.mul(inv_gate, copy_mass))
    log_terms = tape.log(tape.add(prob, Tensor(np.full((1, 1), 1e-12))))
    loss = tape.scale(tape.sum(log_terms), -1.0)
    return loss, len(targets), truncated


class AdagradState:
    """Per-parameter squared-gradient accumulators, initialized at 0.1."""

    def __init__(self, params, init=0.1):
        self.acc = {name: np.full(t.data.shape, init) for name, t in params.items()}
        self.skipped = 0


_BLOCK = 1 << 16  # elements per slice of an Adagrad update


def adagrad_step(params, grads, state, lr=0.15, clip=5.0):
    """One Adagrad update from batch-averaged gradients.

    The global gradient norm is clipped to `clip` first, then each
    accumulator grows by g^2 and the parameter moves by lr * g / sqrt(acc).
    A non-finite gradient skips the whole step (counted). Returns whether
    the step was applied.

    The update runs over each tensor in slices of about `_BLOCK` elements,
    so its temporaries stay small; every operation is elementwise, so the
    slicing does not change a bit. The gradient arrays are not modified.
    """
    if any(not np.isfinite(g).all() for g in grads.values()):
        state.skipped += 1
        return False
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    scale = clip / norm if clip is not None and norm > clip else 1.0
    for name, g in grads.items():
        rows = max(1, _BLOCK * len(g) // max(1, g.size))
        for lo in range(0, len(g), rows):
            g_block = g[lo:lo + rows] * scale
            acc = state.acc[name][lo:lo + rows]
            acc += g_block * g_block
            params[name].data[lo:lo + rows] -= lr * g_block / np.sqrt(acc)
    return True


def _example_loss(params, vocab, pair, max_target_len, drops=None):
    tape = Tape()
    enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                       pair.answer_start, pair.answer_end,
                       pair.answerable_tokens, drops=drops)
    loss, steps, _ = sequence_nll(tape, params, enc, vocab, pair.unanswerable_tokens,
                                  max_len=max_target_len, drops=drops)
    return tape, loss, steps


def perplexity(params, pairs, vocab, max_target_len=50):
    """exp(total NLL / total target tokens), dropout disabled."""
    if not pairs:
        raise TrainingError("perplexity: empty pair list")
    total = 0.0
    tokens = 0
    for pair in pairs:
        _, loss, steps = _example_loss(params, vocab, pair, max_target_len)
        total += float(loss.data)
        tokens += steps
    return math.exp(total / tokens)


def _source_length(pair):
    return len(pair.paragraph_tokens) + len(pair.answerable_tokens)


_BUCKET_WINDOW = 50  # batches sorted together by source length


def _bucketed_batches(order, pairs, batch_size, window_batches, rng):
    """Shuffled batches, length-sorted within windows of `window_batches`."""
    window = max(1, window_batches) * batch_size
    batches = []
    for w in range(0, len(order), window):
        chunk = sorted(order[w:w + window], key=lambda i: _source_length(pairs[i]))
        window_batches_list = [chunk[i:i + batch_size] for i in range(0, len(chunk), batch_size)]
        for p in rng.permutation(len(window_batches_list)):
            batches.append(window_batches_list[p])
    return batches


def train(config, train_pairs, holdout_pairs, vocab, params=None, log=None):
    """Optimize on train_pairs, keeping the checkpoint with lowest holdout perplexity.

    Returns (params holding the best arrays, per-epoch history). Batch
    gradients are per-example sums averaged over the batch; examples are
    re-shuffled each epoch and length-bucketed for padding-free batches.
    Each history entry holds epoch, train_loss, holdout_ppl, seconds and
    skipped_steps, the optimizer steps skipped that epoch for a non-finite
    gradient.
    """
    config.validate()
    if not train_pairs:
        raise TrainingError("train: no training pairs")
    if not holdout_pairs:
        raise TrainingError("train: no holdout pairs")
    if params is None:
        params = ModelParams(len(vocab), config.mode, word_dim=config.word_dim,
                             enc_hidden=config.enc_hidden, seed=config.seed)
    if config.pretrained_path:
        load_pretrained_vectors(config.pretrained_path, vocab, params)
    opt = AdagradState(params)
    keep = 1.0 - config.dropout
    best_ppl = math.inf
    best_arrays = None
    history = []
    for epoch in range(1, config.epochs + 1):
        started = time.monotonic()
        rng = np.random.default_rng((config.seed, 101, epoch))
        order = rng.permutation(len(train_pairs))
        epoch_loss = 0.0
        n_examples = 0
        skipped_before = opt.skipped
        for bi, batch in enumerate(_bucketed_batches(order, train_pairs, config.batch_size,
                                                     _BUCKET_WINDOW, rng)):
            grad_sum = {}
            try:
                for ei in batch:
                    drops = (DropStream((config.seed, epoch, int(ei)), keep)
                             if config.dropout > 0 else None)
                    tape, loss, _ = _example_loss(params, vocab, train_pairs[ei],
                                                  config.max_target_len, drops=drops)
                    value = float(loss.data)
                    if not math.isfinite(value):
                        raise TapeError("non-finite loss")
                    for t, g in backward(loss, tape).items():
                        if t.name in grad_sum:
                            grad_sum[t.name] += g
                        else:
                            grad_sum[t.name] = g  # backward's arrays are ours to keep
                    epoch_loss += value
                    n_examples += 1
            except TapeError as exc:
                raise TrainingError(f"epoch {epoch} batch {bi}: {exc}") from None
            for g in grad_sum.values():
                g /= len(batch)
            adagrad_step(params, grad_sum, opt, config.learning_rate, config.clip_norm)
        ppl = perplexity(params, holdout_pairs, vocab, config.max_target_len)
        entry = {
            "epoch": epoch,
            "train_loss": epoch_loss / max(1, n_examples),
            "holdout_ppl": ppl,
            "seconds": time.monotonic() - started,
            "skipped_steps": opt.skipped - skipped_before,
        }
        history.append(entry)
        if log is not None:
            log(f"epoch {entry['epoch']} loss {entry['train_loss']:.4f} "
                f"holdout_ppl {entry['holdout_ppl']:.4f} time {entry['seconds']:.1f}s "
                f"skipped_steps {entry['skipped_steps']}")
        if ppl < best_ppl:
            best_ppl = ppl
            best_arrays = params.copy_arrays()
    params.set_arrays(best_arrays)
    return params, history
