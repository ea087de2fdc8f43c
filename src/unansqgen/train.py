"""Teacher-forced NLL training with Adagrad and holdout-perplexity selection."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import text
from .model import (MODES, DropStream, ModelParams, decode_step, encode_input, gold_probability,
                    init_decoder, load_pretrained_vectors)
from .tensor import Tape, Tensor, TapeError, backward, sum_gradients


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
        lr, clip, cap = self.learning_rate, self.clip_norm, self.max_target_len
        for ok, problem in [
                (self.mode in MODES, f"unknown mode {self.mode!r}"),
                (self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}"),
                (0 < lr < math.inf, f"learning_rate must be finite and > 0, got {lr}"),
                (0.0 <= self.dropout < 1.0, f"dropout must be in [0, 1), got {self.dropout}"),
                (self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}"),
                (clip is None or 0 < clip < math.inf, f"clip_norm must be finite and > 0, got {clip}"),
                (cap >= 1, f"max_target_len must be >= 1, got {cap}")]:
            if not ok:
                raise TrainingError(problem)


def sequence_nll(tape, params, enc, vocab, target_tokens, max_len=TrainConfig.max_target_len,
                 drops=None):
    """Teacher-forced -sum log(P(target_t) + 1e-12) for one example.

    The step probability is the gold token's mixture value (`gold_probability`):
    gate-scaled vocabulary probability (for in-vocabulary targets) plus copy
    attention summed over the token's source occurrences. An out-of-vocabulary
    target is credited with its copy mass only. Targets longer than
    max_len - 1 are truncated before the closing EOS.

    Returns (loss Tensor, step count, truncated flag).
    """
    targets = list(target_tokens)
    truncated = len(targets) > max_len - 1
    if truncated:
        targets = targets[:max_len - 1]
    targets.append(text.EOS)
    prev_ids = [text.BOS_ID] + [vocab.id(tok) for tok in targets[:-1]]

    out = decode_step(tape, params, enc, init_decoder(tape, params, enc), prev_ids, drops=drops)
    prob = gold_probability(tape, out, enc, vocab, targets)
    log_terms = tape.log(tape.add(prob, Tensor(np.full((1, 1), 1e-12))))
    loss = tape.scale(tape.sum(log_terms), -1.0)
    return loss, len(targets), truncated


class AdagradState:
    """Per-parameter squared-gradient accumulators, initialized at 0.1."""

    def __init__(self, params):
        self.acc = {name: np.full(t.data.shape, 0.1) for name, t in params.items()}
        self.skipped = 0


_BLOCK = 1 << 16  # elements per slice of an Adagrad update


def _blocks(g, ids):
    """Indexes of about `_BLOCK` elements: slices of `g.reshape(-1)`, or blocks of rows `ids`."""
    if ids is None:
        return (slice(lo, lo + _BLOCK) for lo in range(0, g.size, _BLOCK))
    per = max(1, _BLOCK * len(g) // g.size)
    return (ids[lo:lo + per] for lo in range(0, len(ids), per))


def adagrad_step(params, grads, state, lr, clip, rows=None):
    """One Adagrad update from batch-averaged gradients; returns whether it applied.

    The global gradient norm is clipped to `clip` first, then each
    accumulator grows by g^2 and the parameter moves by lr * g / sqrt(acc).
    A non-finite gradient skips the whole step (counted). `rows` may map a
    table's name to the sorted unique rows off which its gradient is +0.0;
    only those are read and updated, which is exact. Each pass runs over
    blocks of about `_BLOCK` elements in two reused buffers, so the step
    allocates only block-sized temporaries. The squared norm adds each
    block's pairwise numpy sum to a running total, in `grads` and block
    order, with no BLAS call, so its bits do not depend on the BLAS thread
    count; a block is scanned only if the total is not finite. The update
    is elementwise, so blocks keep its bits; `grads` is unchanged.
    """
    parts = [(name, g, (rows or {}).get(name)) for name, g in grads.items()]
    squares = 0.0
    buf = np.empty((2, max([_BLOCK] + [g[0].size for _, g, ids in parts if ids is not None])))
    for _, g, ids in parts:
        for at in _blocks(g, ids):
            block = (g if ids is not None else g.reshape(-1))[at].reshape(-1)
            squares += float(np.multiply(block, block, out=buf[0, :block.size]).sum())
            if not math.isfinite(squares) and not np.isfinite(block).all():
                state.skipped += 1  # nothing is written yet
                return False
    norm = math.sqrt(squares)
    scale = clip / norm if clip is not None and norm > max(clip, 0.0) else 1.0  # 0 norm: no move
    # A verified parameter stays so without a scan: with g finite and
    # acc >= 0.1 + g^2, each coordinate moves by |lr * g / sqrt(acc)| < lr.
    # With lr <= 1 and |scale| <= 1, lr * g is finite, and a move below 1
    # cannot carry a finite parameter past float64's largest value.
    bounded = lr <= 1.0 and abs(scale) <= 1.0
    for name, g, ids in parts:
        p = params[name]
        p.verified = p.verified and bounded
        p.data = np.ascontiguousarray(p.data)  # so that its flat view writes through
        view, data, acc = (a.reshape(-1) if ids is None else a for a in (g, p.data, state.acc[name]))
        for at in _blocks(g, ids):
            g_block, acc_block = view[at], acc[at]  # views, or copies of rows `ids`
            step, sq = (b[:g_block.size].reshape(g_block.shape) for b in buf)
            g_block = g_block if scale == 1.0 else np.multiply(g_block, scale, out=step)
            acc_block += np.multiply(g_block, g_block, out=sq)
            data[at] -= np.divide(np.multiply(lr, g_block, out=step), np.sqrt(acc_block, out=sq),
                                  out=step)
            acc[at] = acc_block  # a copy for rows `ids`; a view writes onto itself
    return True


def _example_loss(params, vocab, pair, max_target_len, drops=None, record=True):
    tape = Tape(record=record)
    enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                       pair.answer_start, pair.answer_end,
                       pair.answerable_tokens, drops=drops)
    loss, steps, _ = sequence_nll(tape, params, enc, vocab, pair.unanswerable_tokens,
                                  max_len=max_target_len, drops=drops)
    return tape, loss, steps


def perplexity(params, pairs, vocab, max_target_len=TrainConfig.max_target_len):
    """exp(total NLL / total target tokens), dropout disabled, on tapes that record nothing."""
    if not pairs:
        raise TrainingError("perplexity: empty pair list")
    total = 0.0
    tokens = 0
    for pair in pairs:
        _, loss, steps = _example_loss(params, vocab, pair, max_target_len, record=False)
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
    The weights' deferred pieces are carried across a batch's tapes and
    summed once per batch (see `tensor.backward`), so gradients, and so
    checkpoints, can move in the last place. Parameters are copied only after
    an improving epoch that is not the last. Each history entry holds epoch,
    train_loss, holdout_ppl, seconds and skipped_steps, the optimizer steps
    skipped that epoch for a non-finite gradient.
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
            leaf_pieces, dense = {}, {}
            try:
                for ei in batch:
                    drops = (DropStream((config.seed, epoch, int(ei)), keep)
                             if config.dropout > 0 else None)
                    tape, loss, _ = _example_loss(params, vocab, train_pairs[ei],
                                                  config.max_target_len, drops=drops)
                    value = float(loss.data)  # finite: the tape checks each output it produces
                    for t, g in backward(loss, tape, leaf_pieces).items():
                        if t in dense:
                            dense[t] += g
                        else:
                            dense[t] = g  # backward's arrays are ours to keep
                    del tape, loss  # freed before the next forward; pieces keep what the sum needs
                    epoch_loss += value
                    n_examples += 1
            except TapeError as exc:
                raise TrainingError(f"epoch {epoch} batch {bi}: {exc}") from None
            summed = sum_gradients(leaf_pieces, dense)
            # in parameter order, so the clip norm's sum does not follow the tapes
            grads = {name: summed[t] for name, t in params.items() if t in summed}
            for g in grads.values():
                g /= len(batch)
            # a table reached only through lookups has a +0.0 gradient off the rows looked up
            # (sorted unique by bincount: np.unique would import numpy.ma, 1.6 MB of RSS)
            rows = {t.name: np.flatnonzero(np.bincount(np.concatenate([p[0] for p in found])))
                    for t, found in leaf_pieces.items()
                    if t not in dense and {len(p) for p in found} == {2}}
            adagrad_step(params, grads, opt, config.learning_rate, config.clip_norm, rows)
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
        if ppl < best_ppl:  # the last epoch's arrays need no copy: they are returned as they are
            best_ppl = ppl
            best_arrays = params.copy_arrays() if epoch < config.epochs else None
    if best_arrays is not None:
        params.set_arrays(best_arrays)
    return params, history
