"""SQuAD 2.0 ingestion, answer-pivot pair alignment, splits, augmentation."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

from .fileio import atomic_write
from .text import tokenize, tokenize_with_spans

PARAGRAPH_TOKEN_CAP = 300
QUESTION_TOKEN_CAP = 50


class DatasetError(ValueError):
    """Raised for malformed dataset files."""


@dataclass
class QuestionRecord:
    id: str
    question: str
    is_impossible: bool
    # (text, char_start) spans: answers when answerable, plausible answers otherwise.
    answers: list


@dataclass
class ParagraphRecord:
    article_title: str
    context: str
    qas: list


@dataclass
class ParseResult:
    records: list
    dropped_records: int


@dataclass
class AlignedPair:
    title: str
    paragraph_tokens: list
    answer_start: int  # token index, inclusive
    answer_end: int  # token index, exclusive
    answerable_tokens: list
    unanswerable_tokens: list
    pivot: tuple = None  # (text, char_start)
    answerable_id: str = None
    unanswerable_id: str = None
    distance: int = None


@dataclass
class AlignStats:
    candidate_pairs: int = 0
    expanded_spans: int = 0
    dropped_pivots: int = 0


def parse_squad(path):
    """Parse a SQuAD v2.0 JSON file into paragraph records.

    Every annotated (text, char_start) span is verified against the context;
    a question record with any mismatching span (or an answerable record
    with no answers at all) is dropped and counted.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("data"), list):
        raise DatasetError(f"{path}: top level must be an object with a 'data' list")

    records = []
    dropped = 0
    for ai, article in enumerate(doc["data"]):
        where = f"{path}: data[{ai}]"
        if not isinstance(article, dict):
            raise DatasetError(f"{where}: article must be an object")
        title = article.get("title", "")
        for pi, para in enumerate(article.get("paragraphs", [])):
            pwhere = f"{where}.paragraphs[{pi}]"
            if not isinstance(para, dict) or not isinstance(para.get("context"), str):
                raise DatasetError(f"{pwhere}: missing 'context' string")
            context = para["context"]
            if not context:
                raise DatasetError(f"{pwhere}: empty context")
            qas = []
            for qi, qa in enumerate(para.get("qas", [])):
                qwhere = f"{pwhere}.qas[{qi}]"
                if not isinstance(qa, dict) or "question" not in qa or "id" not in qa:
                    raise DatasetError(f"{qwhere}: missing 'id' or 'question'")
                impossible = bool(qa.get("is_impossible", False))
                raw = qa.get("plausible_answers" if impossible else "answers", []) or []
                if type(raw) is not list:
                    raise DatasetError(f"{qwhere} (id {qa['id']!r}): answers must be a list")
                spans = []
                ok = True
                for ans in raw:
                    if type(ans) is not dict:
                        raise DatasetError(f"{qwhere} (id {qa['id']!r}): an answer must be "
                                           f"an object, got {type(ans).__name__}")
                    text, start = ans.get("text", ""), ans.get("answer_start", -1)
                    if type(text) is not str or type(start) is not int:
                        raise DatasetError(f"{qwhere} (id {qa['id']!r}): an answer needs a "
                                           f"'text' string and an integer 'answer_start'")
                    if context[start:start + len(text)] != text or start < 0:
                        ok = False
                        break
                    spans.append((text, start))
                if not ok or (not impossible and not spans):
                    dropped += 1
                    continue
                qas.append(QuestionRecord(str(qa["id"]), qa["question"], impossible, spans))
            records.append(ParagraphRecord(title, context, qas))
    return ParseResult(records, dropped)


def levenshtein(a, b):
    """Minimum insert/delete/substitute edits turning token list a into b."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1,  # delete
                         cur[j - 1] + 1,  # insert
                         prev[j - 1] + (tok_a != tok_b))  # substitute
        prev = cur
    return prev[-1]


def pivot_token_span(token_spans, text, char_start):
    """Map a character span onto covering token indices.

    Returns (start, end, exact) with end exclusive, or None when no token
    overlaps the span (e.g. the span lies beyond a truncated paragraph).
    `exact` is False when token boundaries had to expand the span.
    """
    char_end = char_start + len(text)
    covering = [k for k, (_, s, e) in enumerate(token_spans) if s < char_end and e > char_start]
    if not covering:
        return None
    start, end = covering[0], covering[-1] + 1
    exact = token_spans[start][1] == char_start and token_spans[end - 1][2] == char_end
    return start, end, exact


def align_pairs(records, paragraph_cap=PARAGRAPH_TOKEN_CAP, question_cap=QUESTION_TOKEN_CAP):
    """Pair answerable and unanswerable questions sharing an answer-span pivot.

    Candidates within a paragraph share an identical (text, char_start)
    pivot. All candidates are sorted globally by ascending token-level
    Levenshtein distance between the two questions (ties by dataset order)
    and accepted greedily while both questions are still unpaired. A
    question with no tokens is skipped.

    Returns (pairs, AlignStats).
    """
    stats = AlignStats()
    candidates = []
    ans_order = {}
    unans_order = {}

    for record in records:
        token_spans = tokenize_with_spans(record.context)[:paragraph_cap]
        para_tokens = [tok for tok, _, _ in token_spans]
        by_pivot_ans = {}
        by_pivot_unans = {}
        for qa in record.qas:
            q_tokens = tokenize(qa.question)[:question_cap]
            if not q_tokens:
                continue
            order = unans_order if qa.is_impossible else ans_order
            if qa.id not in order:
                order[qa.id] = len(order)
            bucket = by_pivot_unans if qa.is_impossible else by_pivot_ans
            for pivot in dict.fromkeys(qa.answers):
                bucket.setdefault(pivot, []).append((qa, q_tokens))
        for pivot in by_pivot_ans:
            if pivot not in by_pivot_unans:
                continue
            span = pivot_token_span(token_spans, pivot[0], pivot[1])
            if span is None:
                stats.dropped_pivots += 1
                continue
            for a_qa, a_tokens in by_pivot_ans[pivot]:
                for u_qa, u_tokens in by_pivot_unans[pivot]:
                    stats.candidate_pairs += 1
                    dist = levenshtein(a_tokens, u_tokens)
                    candidates.append((dist, ans_order[a_qa.id], unans_order[u_qa.id],
                                       record, para_tokens, span, pivot,
                                       a_qa, a_tokens, u_qa, u_tokens))

    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    paired_ans, paired_unans = set(), set()
    pairs = []
    for dist, _, _, record, para_tokens, span, pivot, a_qa, a_tokens, u_qa, u_tokens in candidates:
        if a_qa.id in paired_ans or u_qa.id in paired_unans:
            continue
        paired_ans.add(a_qa.id)
        paired_unans.add(u_qa.id)
        start, end, exact = span
        if not exact:
            stats.expanded_spans += 1
        pairs.append(AlignedPair(record.article_title, para_tokens, start, end,
                                 a_tokens, u_tokens, pivot=pivot,
                                 answerable_id=a_qa.id, unanswerable_id=u_qa.id,
                                 distance=dist))
    return pairs, stats


def split_holdout(pairs, seed, fraction=0.1, titles=None):
    """Split pairs into (train, holdout) by whole articles.

    Articles are shuffled with the seed, then accumulated into the holdout
    side while that brings its pair count closer to the target fraction.
    """
    if titles is None:
        titles = sorted({p.title for p in pairs})
    else:
        titles = sorted(titles)
    rng = random.Random(seed)
    rng.shuffle(titles)
    counts = Counter(p.title for p in pairs)
    target = fraction * len(pairs)
    held = set()
    running = 0
    for title in titles:
        c = counts[title]
        if abs(running + c - target) <= abs(running - target):
            held.add(title)
            running += c
        else:
            break
    train = [p for p in pairs if p.title not in held]
    holdout = [p for p in pairs if p.title in held]
    return train, holdout


def _clean_field(value):
    return " ".join(str(value).split())


def save_pairs(path, pairs):
    """Tab-separated pair records, tokens space-joined, UTF-8."""
    with atomic_write(path) as fh:
        for p in pairs:
            fh.write("\t".join([
                _clean_field(p.title),
                " ".join(p.paragraph_tokens),
                str(p.answer_start),
                str(p.answer_end),
                " ".join(p.answerable_tokens),
                " ".join(p.unanswerable_tokens),
            ]) + "\n")


def load_pairs(path):
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise DatasetError(f"{path}:{ln}: expected 6 tab-separated fields, got {len(parts)}")
            title, para, start, end, ans_q, unans_q = parts
            tokens = para.split()
            try:
                start, end = int(start), int(end)
            except ValueError:
                raise DatasetError(f"{path}:{ln}: answer start {start!r} and end {end!r} "
                                   f"must be integers") from None
            if not 0 <= start < end <= len(tokens):
                raise DatasetError(f"{path}:{ln}: answer span [{start}, {end}) invalid "
                                   f"for {len(tokens)} paragraph tokens")
            question = ans_q.split()
            if not question:
                raise DatasetError(f"{path}:{ln}: empty answerable question")
            pairs.append(AlignedPair(title, tokens, start, end, question, unans_q.split()))
    return pairs


@dataclass
class AugmentationResult:
    written: int
    skipped: int


def build_augmentation(generated, out_path):
    """Write generated questions as SQuAD-2.0-schema unanswerable examples.

    `generated` is a list of (ParagraphRecord, source QuestionRecord,
    generated question tokens). Each record reuses the original context,
    marks the question impossible, and carries the source answers as
    plausible answers. Generations equal to their source question (token
    level) or empty are skipped and counted.
    """
    paragraphs = {}  # title -> context -> qas, each in first-seen order
    written = 0
    skipped = 0
    per_source = {}
    for paragraph, source, tokens in generated:
        if not tokens or tokens == tokenize(source.question):
            skipped += 1
            continue
        k = per_source.get(source.id, 0) + 1
        per_source[source.id] = k
        qas = paragraphs.setdefault(paragraph.article_title, {}).setdefault(paragraph.context, [])
        qas.append({
            "id": f"{source.id}-unansq-{k}",
            "question": " ".join(tokens),
            "is_impossible": True,
            "answers": [],
            "plausible_answers": [
                {"text": text, "answer_start": start} for text, start in source.answers
            ],
        })
        written += 1

    doc = {
        "version": "v2.0",
        "data": [{"title": title,
                  "paragraphs": [{"context": c, "qas": qas} for c, qas in contexts.items()]}
                 for title, contexts in paragraphs.items()],
    }
    with atomic_write(out_path) as fh:
        json.dump(doc, fh, ensure_ascii=True, sort_keys=True, indent=1)
        fh.write("\n")
    return AugmentationResult(written, skipped)
