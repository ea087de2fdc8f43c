"""Seeded, SQuAD-shaped synthetic inputs for the benchmark workloads.

Everything here is a pure function of (workload shape, seed): the same seed
gives byte-identical files. The program under test only ever sees the files
and objects built here, never the seed.

A paragraph carries several answerable questions, each with its own answer
pivot. Every pivot also carries one planted unanswerable question (the
aligned target) and decoy unanswerable questions that are strictly farther in
token edit distance, so `align` sees more candidates than it accepts and must
recover exactly the planted pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_SYLLABLES = [c + v for c in "bdfghklmnprstvwz" for v in "aeiou"]  # 80, no "q"
_SPECIALS = 5  # the five special tokens every unansqgen Vocab starts with


@dataclass(frozen=True)
class Shape:
    """The input properties a workload fixes; recorded in BENCHMARK.json."""
    name: str
    modes: tuple  # model modes, alternated op by op
    vocab_size: int  # |V| including the special tokens
    dims: tuple  # (word_dim, enc_hidden)
    paragraph_len: tuple  # inclusive token range
    question_len: tuple  # inclusive token range, closing "?" included
    questions_per_paragraph: tuple  # inclusive range of answerable questions
    decoys_per_pivot: int
    oov_share: float
    paragraphs: int
    paragraphs_per_article: int
    epoch_pairs: tuple  # (train, holdout) pairs of one train.train epoch
    ppl_pairs: int  # holdout pairs per train.perplexity call
    questions: int  # distinct questions the generate phase cycles through
    max_len: int  # decode max_len; beam is always 5
    shares: dict  # phase -> share of --seconds
    min_reps: dict  # phase -> repetitions run whatever the time


# Model phases drive the tape; corpus phases drive data/text/metrics/cli.
PHASES = ("align", "train", "ppl", "generate", "evaluate", "augment")

SHAPES = {
    # Paper scale: dense V-wide work and BLAS dominate (the 27 h epoch).
    "full-pair2seq": Shape(
        name="full-pair2seq", modes=("pair2seq",), vocab_size=20000, dims=(300, 150),
        paragraph_len=(120, 120), question_len=(11, 11), questions_per_paragraph=(4, 5),
        decoys_per_pivot=1, oov_share=0.05, paragraphs=3, paragraphs_per_article=1,
        epoch_pairs=(4, 1), ppl_pairs=2, questions=2, max_len=20,
        shares={"align": 0.12, "train": 0.3, "ppl": 0.08, "generate": 0.26,
                "evaluate": 0.12, "augment": 0.12},
        min_reps={"align": 3, "train": 1, "ppl": 1, "generate": 2,
                  "evaluate": 3, "augment": 3}),
    # Corpus scale: the only heavy load on data, text, metrics and cli. Its
    # small models (seq2seq and pair2seq alternately) are the
    # acceptance-test regime, where per-primitive Python cost dominates.
    "corpus": Shape(
        name="corpus", modes=("seq2seq", "pair2seq"), vocab_size=2000, dims=(16, 8),
        paragraph_len=(110, 130), question_len=(9, 13), questions_per_paragraph=(4, 5),
        decoys_per_pivot=2, oov_share=0.05, paragraphs=120, paragraphs_per_article=4,
        epoch_pairs=(4, 1), ppl_pairs=4, questions=4, max_len=20,
        shares={"align": 0.15, "train": 0.15, "ppl": 0.1, "generate": 0.2,
                "evaluate": 0.2, "augment": 0.2},
        min_reps={"align": 3, "train": 1, "ppl": 1, "generate": 2,
                  "evaluate": 3, "augment": 3}),
}


def word(i, prefix=""):
    """The i-th synthetic word: at least two syllables, lowercase letters only."""
    out = []
    i += len(_SYLLABLES)  # start at two syllables
    while i:
        i, r = divmod(i, len(_SYLLABLES))
        out.append(_SYLLABLES[r])
    return prefix + "".join(out)


def vocab_words(shape):
    """The in-vocabulary words; `text.build_vocab` over them gives |V| = vocab_size."""
    return [word(i) for i in range(shape.vocab_size - _SPECIALS)]


def reference_distance(a, b):
    """Token edit distance, written independently of `unansqgen.data.levenshtein`."""
    d = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        prev_diag, d[0] = d[0], i
        for j, y in enumerate(b, start=1):
            cur = min(d[j] + 1, d[j - 1] + 1, prev_diag + (x != y))
            prev_diag, d[j] = d[j], cur
    return d[-1]


@dataclass
class Planted:
    """One planted (answerable, unanswerable) pair, as align must recover it."""
    title: str
    paragraph_tokens: list
    answer_start: int
    answer_end: int
    question_tokens: list
    target_tokens: list
    answerable_id: str
    unanswerable_id: str
    distance: int
    hypothesis_tokens: list  # a synthetic generation for evaluate and augment


@dataclass
class Inputs:
    shape: Shape
    squad: dict
    planted: list

    def squad_json(self):
        return json.dumps(self.squad, sort_keys=True)

    def generations_tsv(self):
        return "".join(f"{p.answerable_id}\t{' '.join(p.hypothesis_tokens)}\t-1.000000\n"
                       for p in self.planted)

    def sources_txt(self):
        return "".join(" ".join(p.question_tokens) + "\n" for p in self.planted)

    def references_txt(self):
        return "".join(" ".join(p.target_tokens) + "\n" for p in self.planted)


class _Sampler:
    def __init__(self, shape, rng):
        self.rng = rng
        self.words = vocab_words(shape)
        ranks = np.arange(1, len(self.words) + 1, dtype=np.float64)
        cdf = np.cumsum(ranks ** -1.1)
        self.cdf = cdf / cdf[-1]
        self.oov_share = shape.oov_share
        self.oov_pool = 50 * len(self.words)

    def tokens(self, n):
        picks = np.minimum(np.searchsorted(self.cdf, self.rng.random(n), side="right"),
                           len(self.words) - 1)
        oov = self.rng.random(n) < self.oov_share
        oov_ids = self.rng.integers(0, self.oov_pool, size=n)
        return [word(int(o), prefix="q") if is_oov else self.words[int(k)]
                for k, is_oov, o in zip(picks, oov, oov_ids)]

    def other_than(self, tok):
        while True:
            cand = self.tokens(1)[0]
            if cand != tok:
                return cand


def _edit(sampler, question, n_subs, n_inserts):
    """Substitute n_subs words (never the closing "?"), then insert n_inserts."""
    out = list(question)
    body = len(out) - 1
    for pos in sampler.rng.choice(body, size=min(n_subs, body), replace=False):
        out[int(pos)] = sampler.other_than(out[int(pos)])
    for _ in range(n_inserts):
        pos = int(sampler.rng.integers(0, len(out)))
        out.insert(pos, sampler.tokens(1)[0])
    return out


def _cycle(bounds, k):
    """The k-th length of a fixed cycle through an inclusive range.

    Lengths follow the cycle rather than the seed, so every seed asks for the
    same amount of work and only the words change.
    """
    lo, hi = bounds
    return lo + k % (hi - lo + 1)


def _question(sampler, paragraph, shape, k):
    n = _cycle(shape.question_len, k) - 1
    words = sampler.tokens(n)
    from_para = sampler.rng.random(n) < 0.3  # questions reuse paragraph words
    picks = sampler.rng.integers(0, len(paragraph), size=n)
    return [paragraph[int(k)] if f else w for w, f, k in zip(words, from_para, picks)] + ["?"]


def generate(shape, seed):
    """Build the workload's inputs from its shape and seed alone."""
    rng = np.random.default_rng([seed, len(shape.name)] + [ord(c) for c in shape.name])
    sampler = _Sampler(shape, rng)
    articles = []
    planted = []
    qid = 0
    for pi in range(shape.paragraphs):
        if pi % shape.paragraphs_per_article == 0:
            articles.append({"title": f"article_{len(articles)}", "paragraphs": []})
        title = articles[-1]["title"]
        n_tok = _cycle(shape.paragraph_len, pi)
        paragraph = sampler.tokens(n_tok)
        context = " ".join(paragraph)
        n_q = _cycle(shape.questions_per_paragraph, pi)
        starts = sorted(int(s) for s in rng.choice(n_tok, size=n_q, replace=False))
        qas = []
        for start in starts:
            end = min(n_tok, start + int(rng.integers(1, 4)))
            span = {"text": " ".join(paragraph[start:end]),
                    "answer_start": len(" ".join(paragraph[:start])) + (1 if start else 0)}
            question = _question(sampler, paragraph, shape, len(planted))
            # one insertion plus 2 or 3 substitutions: mean edit distance ~3.5
            target = _edit(sampler, question, int(rng.integers(2, 4)), 1)
            distance = reference_distance(question, target)
            decoys = []
            while len(decoys) < shape.decoys_per_pivot:
                decoy = _edit(sampler, _question(sampler, paragraph, shape, len(planted)), 0, 3)
                if reference_distance(question, decoy) > distance:
                    decoys.append(decoy)
            hypothesis = _edit(sampler, target, 1, 0)
            a_id, u_id = f"q{qid}", f"q{qid + 1}"
            qid += 2
            qas.append({"id": a_id, "question": " ".join(question), "is_impossible": False,
                        "answers": [span]})
            for k, unans in enumerate([target] + decoys):
                qas.append({"id": u_id if k == 0 else f"q{qid + k - 1}",
                            "question": " ".join(unans), "is_impossible": True,
                            "answers": [], "plausible_answers": [span]})
            qid += len(decoys)
            planted.append(Planted(title, paragraph, start, end, question, target,
                                   a_id, u_id, distance, hypothesis))
        articles[-1]["paragraphs"].append({"context": context, "qas": qas})
    return Inputs(shape, {"version": "v2.0", "data": articles}, planted)
