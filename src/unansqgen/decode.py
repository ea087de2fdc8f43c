"""Beam-search and greedy inference over the mixture distribution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import text
from .fileio import atomic_write, open_text
from .model import (DecoderState, decode_step, encode_input, final_distribution,
                    gold_probability, init_decoder)
from .tensor import Tape

BEAM_SIZE, MAX_LEN = 5, 50  # defaults: beam width, decoder steps per generation


@dataclass
class BeamHypothesis:
    """One partial or finished decode. `tokens` are surface forms; a finished
    hypothesis ends with the EOS surface. `state` is its parent's row in the
    decoder state returned by the beam step that made it."""
    tokens: list
    score: float
    state: object
    prev_id: int
    finished: bool = False

    def surface(self):
        """Tokens without the closing EOS marker."""
        if self.finished and self.tokens and self.tokens[-1] == text.EOS:
            return self.tokens[:-1]
        return list(self.tokens)


def _ranked(hypotheses):
    return sorted(hypotheses, key=lambda h: (-h.score, h.tokens))


def _top_k(flat, k):
    """Indices of the k largest entries, equal to np.argsort(-flat, kind="stable")[:k].

    Only the entries at least as large as the k-th largest (ties included)
    are sorted, so equal values still come out in index order.
    """
    if k >= flat.size:
        return np.argsort(-flat, kind="stable")
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    candidates = np.flatnonzero(flat >= kth)
    return candidates[np.argsort(-flat[candidates], kind="stable")[:k]]


def _gather_rows(tape, state, rows):
    """The decoder state whose row i is row `rows[i]` of `state`."""
    hidden, cell, *contexts = (tape.embedding(t, rows)
                               for t in [state.hidden, state.cell, *state.contexts])
    return DecoderState(hidden, cell, contexts)


def beam_search(tape, params, enc, vocab, beam_size=BEAM_SIZE, max_len=MAX_LEN):
    """Ranked hypotheses for one encoded input.

    Standard beam expansion over the final mixture distribution with the
    UNK entry suppressed to -inf; hypotheses retire when they emit EOS.
    Each step advances all live hypotheses at once, as the rows of one
    decoder state. Candidate ties break toward the earlier parent, then the
    lower token index. Hypotheses are ranked by total log-probability,
    ties by their tokens. If nothing finishes within max_len, the surviving
    partial hypotheses are returned (finished=False).
    """
    if beam_size < 1:
        raise ValueError(f"beam_search: beam_size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise ValueError(f"beam_search: max_len must be >= 1, got {max_len}")
    width = len(vocab) + len(enc.extra)
    state = init_decoder(tape, params, enc)
    beams = [BeamHypothesis([], 0.0, 0, text.BOS_ID)]
    finished = []
    for _ in range(max_len):
        if not beams or len(finished) >= beam_size:
            break
        state = _gather_rows(tape, state, [h.state for h in beams])
        step = decode_step(tape, params, enc, state, [h.prev_id for h in beams])
        state = step.state
        dist, _ = final_distribution(step, enc, vocab)
        with np.errstate(divide="ignore"):
            logp = np.log(dist.reshape(len(beams), width))
        logp[:, text.UNK_ID] = -np.inf
        flat = (np.array([[h.score] for h in beams]) + logp).ravel()
        new_beams = []
        for slot in _top_k(flat, beam_size):
            if not math.isfinite(flat[slot]):
                break
            parent, idx = divmod(int(slot), width)
            surface = vocab.token(idx) if idx < len(vocab) else enc.extra[idx - len(vocab)]
            hyp = BeamHypothesis(beams[parent].tokens + [surface], float(flat[slot]), parent,
                                 idx if idx < len(vocab) else text.UNK_ID)
            if idx == text.EOS_ID:
                hyp.finished = True
                finished.append(hyp)
            else:
                new_beams.append(hyp)
        beams = new_beams
    return _ranked(finished or beams)


def greedy_decode(tape, params, enc, vocab, max_len=MAX_LEN):
    """The width-1 beam: argmax decode after UNK suppression, ties to the
    lowest index.

    Returns the surface tokens without the EOS marker, or [] when no
    candidate is finite.
    """
    hyps = beam_search(tape, params, enc, vocab, beam_size=1, max_len=max_len)
    return hyps[0].surface() if hyps else []


def score_sequence(tape, params, enc, vocab, surface_tokens, include_eos=True):
    """Total log mixture probability of a token sequence, teacher-forced.

    One decoder pass over [BOS] + the previous ids and `gold_probability`,
    as in training; beam search scores through `final_distribution`, so the
    two cross-check. Tokens in neither the vocabulary nor the copy candidates,
    or of zero probability, score -inf; an empty sequence scores 0.0.
    """
    steps = list(surface_tokens) + ([text.EOS] if include_eos else [])
    if not steps:
        return 0.0
    prev_ids = [text.BOS_ID] + vocab.encode(steps[:-1])
    out = decode_step(tape, params, enc, init_decoder(tape, params, enc), prev_ids)
    total = 0.0
    for p in gold_probability(tape, out, enc, vocab, steps).data[:, 0]:
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def filter_outputs(hypotheses, source_question_tokens):
    """Drop hypotheses whose surface equals the source question exactly."""
    source = list(source_question_tokens)
    return [h for h in hypotheses if h.surface() != source]


def generate_for_example(params, vocab, pair, beam_size=BEAM_SIZE, max_len=MAX_LEN, nbest=1):
    """Encode one aligned pair and return up to nbest filtered hypotheses,
    on a tape that records nothing."""
    if nbest < 1:
        raise ValueError(f"generate_for_example: nbest must be >= 1, got {nbest}")
    tape = Tape(record=False)
    enc = encode_input(tape, params, vocab, pair.paragraph_tokens,
                       pair.answer_start, pair.answer_end, pair.answerable_tokens)
    hyps = beam_search(tape, params, enc, vocab, beam_size=beam_size, max_len=max_len)
    return filter_outputs(hyps, pair.answerable_tokens)[:nbest]


def save_generations(path, rows):
    """One record per generation: id, space-joined tokens, total log-probability."""
    with atomic_write(path) as fh:
        for qid, tokens, score in rows:
            fh.write(f"{qid}\t{' '.join(tokens)}\t{score:.6f}\n")


def load_generations(path):
    rows = []
    with open_text(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{ln}: expected 3 tab-separated fields")
            try:
                score = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{ln}: score {parts[2]!r} is not a number") from None
            if not math.isfinite(score):
                raise ValueError(f"{path}:{ln}: score {parts[2]!r} is not finite")
            rows.append((parts[0], parts[1].split(), score))
    return rows
