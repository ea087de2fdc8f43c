"""BLEU/GLEU/ROUGE tests with brute-force oracles."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unansqgen.metrics import (
    bleu,
    format_report,
    gleu,
    lcs_length,
    metric_report,
    rouge_l,
    rouge_n,
)


# bleu


def test_bleu_perfect_match():
    pairs = [(["the", "cat", "sat", "down"], ["the", "cat", "sat", "down"])] * 3
    assert bleu(pairs, max_n=4) == pytest.approx(1.0)


def test_bleu_corpus_without_high_order_ngrams_scores_zero():
    # three-token sentences have no 4-grams: the n=4 precision is empty, no smoothing
    pairs = [(["the", "cat", "sat"], ["the", "cat", "sat"])]
    assert bleu(pairs, max_n=4) == 0.0
    assert bleu(pairs, max_n=3) == pytest.approx(1.0)


def test_bleu_brevity_penalty_example():
    # p1 = p2 = 1, BP = exp(1 - 3/2)
    pairs = [(["the", "cat"], ["the", "cat", "sat"])]
    assert bleu(pairs, max_n=2) == pytest.approx(math.exp(-0.5), abs=1e-4)
    assert bleu(pairs, max_n=2) == pytest.approx(0.6065, abs=1e-4)


def test_bleu_disjoint_is_zero():
    assert bleu([(["a", "b"], ["x", "y"])], max_n=4) == 0.0


def test_bleu_empty_corpus_rejected():
    with pytest.raises(ValueError):
        bleu([], max_n=4)


def test_bleu_empty_hypothesis_scores_zero():
    assert bleu([([], ["a", "b"])], max_n=2) == 0.0


def test_bleu_zero_precision_at_any_order_zeroes_score():
    # unigrams overlap, bigrams do not
    pairs = [(["a", "x", "b"], ["a", "y", "b"])]
    assert bleu(pairs, max_n=2) == 0.0


def test_bleu_clipping():
    # hyp repeats "the" 3 times, ref contains it twice: clipped p1 = 2/3
    pairs = [(["the", "the", "the"], ["the", "the", "cat"])]
    assert bleu(pairs, max_n=1) == pytest.approx(2.0 / 3.0)


def test_bleu_permutation_invariant():
    rng = np.random.default_rng(3)
    vocab = ["a", "b", "c", "d"]
    corpus = []
    for _ in range(12):
        hyp = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(2, 6))]
        ref = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(2, 6))]
        corpus.append((hyp, ref))
    shuffled = corpus[::-1]
    for n in (3, 4):
        assert bleu(corpus, max_n=n) == pytest.approx(bleu(shuffled, max_n=n))


def test_bleu_no_penalty_when_hypothesis_longer():
    pairs = [(["a", "b", "c", "d"], ["a", "b", "c"])]
    assert bleu(pairs, max_n=1) == pytest.approx(3.0 / 4.0)


# gleu


def test_gleu_perfect_match_equals_bleu():
    triples = [(["who", "?"], ["the", "cat", "sat"], ["the", "cat", "sat"])]
    assert gleu(triples, max_n=3) == pytest.approx(1.0)


def test_gleu_penalizes_copying_the_source():
    src = ["what", "runs", "the", "public", "schools", "?"]
    ref = ["what", "runs", "the", "waste", "management", "?"]
    hyp = list(src)  # parrot the input
    g = gleu([(src, hyp, ref)], max_n=2)
    b = bleu([(hyp, ref)], max_n=2)
    assert g < b


def test_gleu_equals_bleu_when_no_source_overlap():
    src = ["zz", "qq"]
    corpus = [
        (src, ["the", "cat"], ["the", "cat", "sat"]),
        (src, ["a", "dog", "ran"], ["a", "dog", "ran"]),
    ]
    for n in (2, 3):
        g = gleu(corpus, max_n=n)
        b = bleu([(h, r) for _, h, r in corpus], max_n=n)
        assert g == pytest.approx(b)


def test_gleu_never_exceeds_bleu():
    rng = np.random.default_rng(17)
    vocab = ["a", "b", "c", "d", "e"]

    def sent():
        return [vocab[i] for i in rng.integers(0, 5, size=rng.integers(2, 7))]

    for _ in range(30):
        corpus = [(sent(), sent(), sent()) for _ in range(5)]
        for n in (3, 4):
            assert gleu(corpus, max_n=n) <= bleu([(h, r) for _, h, r in corpus], max_n=n) + 1e-12


def test_gleu_numerator_floor():
    # every hypothesis unigram matches the source only: numerator floors at 0
    triples = [(["a", "b"], ["a", "b"], ["x", "y"])]
    assert gleu(triples, max_n=1) == 0.0


def test_gleu_empty_corpus_rejected():
    with pytest.raises(ValueError):
        gleu([], max_n=4)


# rouge


def test_rouge_l_example():
    recall, precision, f1 = rouge_l(["a", "c", "d"], ["a", "b", "c", "d"])
    assert recall == pytest.approx(0.75)
    assert precision == pytest.approx(1.0)
    assert f1 == pytest.approx(6.0 / 7.0, abs=1e-4)


def test_rouge_identical_sequences():
    seq = ["one", "two", "three"]
    assert rouge_l(seq, seq) == pytest.approx((1.0, 1.0, 1.0))
    assert rouge_n(seq, seq, 2) == pytest.approx((1.0, 1.0, 1.0))


def test_rouge_disjoint_sequences():
    assert rouge_l(["a", "b"], ["x", "y"]) == (0.0, 0.0, 0.0)
    assert rouge_n(["a", "b"], ["x", "y"], 2) == (0.0, 0.0, 0.0)


def test_rouge_n_larger_than_sequences():
    assert rouge_n(["a"], ["a"], 3) == (0.0, 0.0, 0.0)


def test_rouge_n_clipped_overlap():
    recall, precision, _ = rouge_n(["a", "a", "a"], ["a", "a", "b"], 1)
    assert recall == pytest.approx(2.0 / 3.0)
    assert precision == pytest.approx(2.0 / 3.0)


def oracle_lcs(a, b):
    """Longest common subsequence by enumerating all subsequences of a."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


def test_lcs_matches_bruteforce_enumeration():
    alphabet = ("p", "q")
    short = [list(t) for n in range(5) for t in itertools.product(alphabet, repeat=n)]
    for a in short:
        for b in short:
            assert lcs_length(a, b) == oracle_lcs(a, b)
    rng = np.random.default_rng(29)
    for _ in range(200):
        a = [alphabet[i] for i in rng.integers(0, 2, size=rng.integers(0, 9))]
        b = [alphabet[i] for i in rng.integers(0, 2, size=rng.integers(0, 9))]
        assert lcs_length(a, b) == oracle_lcs(a, b)


# report


def test_metric_report_keys_and_ranges():
    triples = [
        (["who", "runs", "it", "?"], ["who", "owns", "it", "?"], ["who", "owns", "it", "?"]),
        (["where", "is", "it", "?"], ["where", "was", "it", "?"], ["where", "will", "it", "be", "?"]),
    ]
    report = metric_report(triples)
    expected = ["bleu_3", "bleu_4", "gleu_3", "gleu_4",
                "rouge_2_recall", "rouge_2_precision", "rouge_2_f1",
                "rouge_3_recall", "rouge_3_precision", "rouge_3_f1",
                "rouge_l_recall", "rouge_l_precision", "rouge_l_f1"]
    assert list(report) == expected
    assert all(0.0 <= v <= 1.0 for v in report.values())


def test_metric_report_perfect_corpus():
    triples = [(["src", "?"], ["the", "cat", "sat", "?"], ["the", "cat", "sat", "?"])]
    report = metric_report(triples)
    for key in ("bleu_3", "bleu_4", "gleu_3", "gleu_4", "rouge_l_f1"):
        assert report[key] == pytest.approx(1.0)


def test_metric_report_corpus_rouge_is_arithmetic_mean():
    triples = [
        (["s"], ["a", "c", "d"], ["a", "b", "c", "d"]),
        (["s"], ["x", "y"], ["x", "y"]),
    ]
    report = metric_report(triples)
    expected_recall = (0.75 + 1.0) / 2
    assert report["rouge_l_recall"] == pytest.approx(expected_recall)


def test_format_report_layout():
    text = format_report({"bleu_4": 0.60653, "rouge_l_f1": 1.0})
    assert text == "bleu_4=0.6065\nrouge_l_f1=1.0000\n"


def test_metric_report_empty_rejected():
    with pytest.raises(ValueError):
        metric_report([])


# the shared corpus scorer against separate BLEU and GLEU references


def _reference_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def reference_bleu(pairs, max_n=4):
    """Corpus BLEU as a standalone scorer: pooled clipped precisions,
    uniform geometric mean, brevity penalty, no smoothing."""
    if not pairs:
        raise ValueError("bleu: empty corpus")
    if max_n < 1:
        raise ValueError("bleu: max_n must be positive")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _reference_ngram_counts(hyp, n)
            ref_counts = _reference_ngram_counts(ref, n)
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            totals[n - 1] += sum(hyp_counts.values())
    if hyp_len == 0 or any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_n
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_p)


def reference_gleu(triples, max_n=4):
    """GLEU as a standalone scorer: the source penalty summed over every
    hypothesis n-gram type, numerators floored at 0."""
    if not triples:
        raise ValueError("gleu: empty corpus")
    if max_n < 1:
        raise ValueError("gleu: max_n must be positive")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for src, hyp, ref in triples:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _reference_ngram_counts(hyp, n)
            ref_counts = _reference_ngram_counts(ref, n)
            src_counts = _reference_ngram_counts(src, n)
            clipped = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            penalty = sum(min(c, src_counts[g]) - min(c, src_counts[g], ref_counts[g])
                          for g, c in hyp_counts.items())
            matches[n - 1] += max(0, clipped - penalty)
            totals[n - 1] += sum(hyp_counts.values())
    if hyp_len == 0 or any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_n
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_p)


# A three-word alphabet makes shared n-grams between source, hypothesis and
# reference common; lengths 0-6 include empty and shorter-than-max_n sentences.
_sentences = st.lists(st.sampled_from(["a", "b", "c"]), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_sentences, _sentences, _sentences), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=4), st.booleans())
def test_shared_scorer_is_bit_equal_to_references(triples, max_n, empty_sources):
    if empty_sources:
        triples = [([], hyp, ref) for _, hyp, ref in triples]
    pairs = [(hyp, ref) for _, hyp, ref in triples]
    assert bleu(pairs, max_n=max_n) == reference_bleu(pairs, max_n=max_n)
    assert gleu(triples, max_n=max_n) == reference_gleu(triples, max_n=max_n)
    if empty_sources:
        assert gleu(triples, max_n=max_n) == bleu(pairs, max_n=max_n)


def test_shared_scorer_reference_cases():
    # a parroted hypothesis, a source that overlaps only the reference, and an
    # empty hypothesis, scored together and one by one
    triples = [
        (["what", "runs", "the", "schools", "?"], ["what", "runs", "the", "schools", "?"],
         ["what", "runs", "the", "waste", "?"]),
        (["who", "owns", "it"], ["who", "sold", "it", "?"], ["who", "owns", "it", "?"]),
        (["why", "?"], [], ["why", "not", "?"]),
    ]
    for max_n in (1, 2, 3, 4):
        for corpus in [triples] + [[t] for t in triples]:
            pairs = [(hyp, ref) for _, hyp, ref in corpus]
            assert gleu(corpus, max_n=max_n) == reference_gleu(corpus, max_n=max_n)
            assert bleu(pairs, max_n=max_n) == reference_bleu(pairs, max_n=max_n)


def test_bleu_and_gleu_keep_their_error_names():
    with pytest.raises(ValueError, match="^bleu: max_n"):
        bleu([(["a"], ["a"])], max_n=0)
    with pytest.raises(ValueError, match="^gleu: max_n"):
        gleu([(["a"], ["a"], ["a"])], max_n=0)
    with pytest.raises(ValueError, match="^bleu: empty"):
        bleu([])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_sentences, _sentences, _sentences), min_size=1, max_size=5),
       st.booleans())
def test_metric_report_equals_the_four_separate_scores(triples, empty_sources):
    # the report counts each order once per triple; its BLEU/GLEU entries must
    # be the very floats of separate bleu/gleu calls, zero-match orders included
    if empty_sources:
        triples = [([], hyp, ref) for _, hyp, ref in triples]
    pairs = [(hyp, ref) for _, hyp, ref in triples]
    report = metric_report(triples)
    want = {"bleu_3": bleu(pairs, max_n=3), "bleu_4": bleu(pairs, max_n=4),
            "gleu_3": gleu(triples, max_n=3), "gleu_4": gleu(triples, max_n=4)}
    assert list(report)[:4] == list(want)
    assert {k: report[k] for k in want} == want
