"""Shared fixtures: toy corpora, a memorized model, synthetic SQuAD files."""

import json
import os
import random

import numpy as np
import pytest

from unansqgen import tensor
from unansqgen.data import AlignedPair
from unansqgen.text import Vocab
from unansqgen.train import TrainConfig, train


def make_pair(paragraph, start, end, question, target, k=0, title="t"):
    return AlignedPair(
        title=title, paragraph_tokens=paragraph, answer_start=start, answer_end=end,
        answerable_tokens=question, unanswerable_tokens=target,
        answerable_id=f"a{k}", unanswerable_id=f"u{k}")


def toy_vocab():
    return Vocab(["aa", "bb", "cc", "dd", "ee", "ff"])


def toy_corpus():
    pairs = [
        make_pair(["aa", "bb", "cc"], 0, 1, ["dd", "aa"], ["dd", "bb"], k=0),
        make_pair(["bb", "cc", "dd"], 1, 2, ["ee", "bb"], ["ee", "cc"], k=1),
        make_pair(["cc", "dd", "ee"], 2, 3, ["ff", "cc"], ["ff", "dd"], k=2),
        make_pair(["dd", "ee", "ff"], 0, 2, ["aa", "dd"], ["aa", "ee"], k=3),
    ]
    holdout = [make_pair(["ee", "ff", "aa"], 1, 2, ["bb", "ee"], ["bb", "ff"], k=9)]
    return pairs, holdout


@pytest.fixture(scope="session")
def memorized_toy():
    """A small model trained to recall the toy corpus; decodes terminate."""
    vocab = toy_vocab()
    pairs, _ = toy_corpus()
    config = TrainConfig(mode="seq2seq", epochs=150, batch_size=4, dropout=0.0,
                         learning_rate=0.3, word_dim=6, enc_hidden=3, seed=13)
    params, _ = train(config, pairs, pairs, vocab)
    return params, vocab, pairs


# synthetic SQuAD-format corpus: every paragraph carries an answerable and an
# unanswerable question sharing the same pivot span

_WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliet", "kilo", "lima", "mike", "november"]


def synthetic_squad(n_articles=4, paragraphs_per=2, seed=0, title_prefix="article"):
    rng = random.Random(seed)
    data = []
    qid = 0
    for a in range(n_articles):
        paragraphs = []
        for _ in range(paragraphs_per):
            tokens = [rng.choice(_WORDS) for _ in range(rng.randint(8, 14))]
            context = " ".join(tokens)
            t = rng.randrange(len(tokens))
            answer = tokens[t]
            start = len(" ".join(tokens[:t])) + (1 if t else 0)
            head = rng.choice(["what", "which", "where"])
            body = [rng.choice(_WORDS) for _ in range(rng.randint(2, 4))]
            answerable = f"{head} is {' '.join(body)} ?"
            swapped = body[:]
            swapped[rng.randrange(len(swapped))] = rng.choice(_WORDS)
            unanswerable = f"{head} is {' '.join(swapped)} never ?"
            span = {"text": answer, "answer_start": start}
            paragraphs.append({"context": context, "qas": [
                {"id": f"q{qid}", "question": answerable,
                 "is_impossible": False, "answers": [span]},
                {"id": f"q{qid + 1}", "question": unanswerable,
                 "is_impossible": True, "answers": [],
                 "plausible_answers": [span]},
            ]})
            qid += 2
        data.append({"title": f"{title_prefix}_{a}", "paragraphs": paragraphs})
    return {"version": "v2.0", "data": data}


def write_squad(path, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh)
    return str(path)


def real_squad_paths():
    """(train, dev) SQuAD 2.0 file paths if present, else None.

    Looked up under $UNANSQGEN_SQUAD_DIR, then ./data/.
    """
    roots = []
    if os.environ.get("UNANSQGEN_SQUAD_DIR"):
        roots.append(os.environ["UNANSQGEN_SQUAD_DIR"])
    roots.append(os.path.join(os.path.dirname(__file__), os.pardir, "data"))
    for root in roots:
        train_path = os.path.join(root, "train-v2.0.json")
        dev_path = os.path.join(root, "dev-v2.0.json")
        if os.path.exists(train_path) and os.path.exists(dev_path):
            return train_path, dev_path
    return None


# Dense per-use reference vjps: each matmul, embedding lookup and row slice
# hands `backward` a complete dense gradient for every input, as the engine
# did before their gradients were deferred to one sum per tensor.

def _dense_matmul(arrays, meta):
    a, b = arrays
    ta, tb = meta.get("transpose_a", False), meta.get("transpose_b", False)
    aop = a.T if ta else a
    bop = b.T if tb else b

    def vjp(g):
        da_op = g @ bop.T
        db_op = aop.T @ g
        return [da_op.T if ta else da_op, db_op.T if tb else db_op]

    return aop @ bop, vjp


def _dense_embedding(arrays, meta):
    table = arrays[0]
    ids = np.asarray(meta["ids"], dtype=np.int64)

    def vjp(g):
        dt = np.zeros_like(table)
        np.add.at(dt, ids, g)
        return [dt]

    return table[ids], vjp


def _dense_slice_rows(arrays, meta):
    x = arrays[0]
    start, stop = meta["start"], meta["stop"]

    def vjp(g):
        dx = np.zeros_like(x)
        dx[start:stop] = g
        return [dx]

    return x[start:stop], vjp


@pytest.fixture
def dense_vjps(monkeypatch):
    """Call `dense_vjps(fn)` to run `fn()` with the dense reference vjps recorded."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setitem(tensor._FORWARD, "matmul", _dense_matmul)
            m.setitem(tensor._FORWARD, "embedding-lookup", _dense_embedding)
            m.setitem(tensor._FORWARD, "slice-rows", _dense_slice_rows)
            return fn()
    return run
