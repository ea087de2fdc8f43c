"""Corpus BLEU, source-penalizing GLEU, and ROUGE-2/3/L over token lists."""

from __future__ import annotations

import math
from collections import Counter


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _order_sums(name, triples, max_n):
    """Per-order corpus sums over (source, hypothesis, reference) triples:
    {"bleu": matches, "gleu": matches less each non-empty source's penalty},
    hypothesis n-gram totals, and the hypothesis and reference lengths."""
    if not triples:
        raise ValueError(f"{name}: empty corpus")
    if max_n < 1:
        raise ValueError(f"{name}: max_n must be positive")
    matches = {"bleu": [0] * max_n, "gleu": [0] * max_n}
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for src, hyp, ref in triples:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            matches["bleu"][n - 1] += matched
            if src:
                # An n-gram absent from the source has a penalty of 0.
                src_counts = _ngram_counts(src, n)
                matched = max(0, matched - sum(
                    min(c, src_counts[g]) - min(c, src_counts[g], ref_counts[g])
                    for g, c in hyp_counts.items() if g in src_counts))
            matches["gleu"][n - 1] += matched
            totals[n - 1] += sum(hyp_counts.values())
    return matches, totals, hyp_len, ref_len


def _score(sums, name, max_n):
    """Corpus BLEU or GLEU, by `name`, from `_order_sums` of orders 1..max_n."""
    matches, totals, hyp_len, ref_len = sums
    matches, totals = matches[name][:max_n], totals[:max_n]
    if hyp_len == 0 or any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_n
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_p)


def bleu(pairs, max_n=4):
    """Corpus-level BLEU over (hypothesis, reference) token-list pairs.

    Clipped modified n-gram precisions pooled over the corpus, geometric
    mean with uniform weights, brevity penalty exp(1 - r/c) when c < r.
    Any zero precision gives 0 (no smoothing).
    """
    return _score(_order_sums("bleu", [((), h, r) for h, r in pairs], max_n), "bleu", max_n)


def gleu(triples, max_n=4):
    """GLEU over (source, hypothesis, reference) triples.

    BLEU with per-sentence numerators reduced by hypothesis n-grams that
    match the source but not the reference:

        penalty(g) = min(c_hyp, c_src) - min(c_hyp, c_src, c_ref)

    summed over n-gram types g, with the reduced numerator floored at 0.
    An empty source gives the BLEU numerator.
    """
    return _score(_order_sums("gleu", triples, max_n), "gleu", max_n)


def _prf(overlap, ref_total, hyp_total):
    recall = overlap / ref_total if ref_total else 0.0
    precision = overlap / hyp_total if hyp_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return recall, precision, f1


def rouge_n(hypothesis, reference, n):
    """Clipped n-gram overlap (recall, precision, f1) for one pair."""
    hyp_counts = _ngram_counts(hypothesis, n)
    ref_counts = _ngram_counts(reference, n)
    overlap = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    return _prf(overlap, sum(ref_counts.values()), sum(hyp_counts.values()))


def lcs_length(a, b):
    """Longest common subsequence length by dynamic programming."""
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(hypothesis, reference):
    """LCS-based (recall, precision, f1) for one pair."""
    ell = lcs_length(hypothesis, reference)
    return _prf(ell, len(reference), len(hypothesis))


def _mean_rouge(pairs, fn):
    scores = [fn(h, r) for h, r in pairs]
    k = len(scores)
    return tuple(sum(s[i] for s in scores) / k for i in range(3))


def metric_report(triples):
    """All reported metrics over (source, hypothesis, reference) triples.

    Returns an ordered dict of metric name -> float. The ROUGE headline
    is f1; recall and precision are included alongside.
    """
    sums = _order_sums("metric_report", triples, 4)  # counted once for all four scores
    report = {f"{name}_{n}": _score(sums, name, n) for name in ("bleu", "gleu") for n in (3, 4)}
    pairs = [(h, r) for _, h, r in triples]
    rouges = {"2": lambda h, r: rouge_n(h, r, 2), "3": lambda h, r: rouge_n(h, r, 3),
              "l": rouge_l}
    for name, fn in rouges.items():
        for part, value in zip(("recall", "precision", "f1"), _mean_rouge(pairs, fn)):
            report[f"rouge_{name}_{part}"] = value
    return report


def format_report(report):
    """key=value lines, 4 decimal places, stable order."""
    return "".join(f"{name}={value:.4f}\n" for name, value in report.items())
