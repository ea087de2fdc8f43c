"""Dataset ingestion, alignment, splitting, and augmentation tests."""

import itertools
import json

import numpy as np
import pytest

from unansqgen import data as data_module
from unansqgen.data import (
    QUESTION_TOKEN_CAP,
    AlignedPair,
    DatasetError,
    ParagraphRecord,
    QuestionRecord,
    align_pairs,
    build_augmentation,
    levenshtein,
    load_pairs,
    parse_squad,
    pivot_token_span,
    save_pairs,
    split_holdout,
)
from unansqgen.text import tokenize, tokenize_with_spans


def write_squad(path, data):
    path.write_text(json.dumps({"version": "v2.0", "data": data}), encoding="utf-8")
    return path


def qa_entry(qid, question, answers=(), impossible=False):
    key = "plausible_answers" if impossible else "answers"
    return {
        "id": qid,
        "question": question,
        "is_impossible": impossible,
        key: [{"text": t, "answer_start": s} for t, s in answers],
    }


# parse_squad


def test_parse_squad_reads_both_question_kinds(tmp_path):
    context = "The district runs the public schools in the city."
    path = write_squad(tmp_path / "a.json", [{
        "title": "Town",
        "paragraphs": [{
            "context": context,
            "qas": [
                qa_entry("q1", "Who runs the schools?", [("The district", 0)]),
                qa_entry("q2", "Who runs the zoos?", [("The district", 0)], impossible=True),
            ],
        }],
    }])
    result = parse_squad(path)
    assert result.dropped_records == 0
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.article_title == "Town" and rec.context == context
    ans, unans = rec.qas
    assert not ans.is_impossible and ans.answers == [("The district", 0)]
    assert unans.is_impossible and unans.answers == [("The district", 0)]


def test_parse_squad_empty_data(tmp_path):
    result = parse_squad(write_squad(tmp_path / "e.json", []))
    assert result.records == [] and result.dropped_records == 0


def test_parse_squad_drops_span_mismatch(tmp_path):
    path = write_squad(tmp_path / "m.json", [{
        "title": "T",
        "paragraphs": [{
            "context": "alpha beta gamma",
            "qas": [
                qa_entry("bad", "q?", [("beta", 0)]),  # offset 0 reads "alph"
                qa_entry("good", "q?", [("beta", 6)]),
            ],
        }],
    }])
    result = parse_squad(path)
    assert result.dropped_records == 1
    assert [qa.id for qa in result.records[0].qas] == ["good"]


def test_parse_squad_drops_answerable_without_answers(tmp_path):
    path = write_squad(tmp_path / "n.json", [{
        "title": "T",
        "paragraphs": [{"context": "alpha beta", "qas": [qa_entry("q1", "q?")]}],
    }])
    assert parse_squad(path).dropped_records == 1


def test_parse_squad_malformed_json_names_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"data": [', encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        parse_squad(path)
    msg = str(exc.value)
    assert str(path) in msg and "line" in msg


def test_parse_squad_structural_errors_name_location(tmp_path):
    path = write_squad(tmp_path / "s.json", [{"title": "T", "paragraphs": [{"qas": []}]}])
    with pytest.raises(DatasetError) as exc:
        parse_squad(path)
    assert "paragraphs[0]" in str(exc.value)
    path2 = write_squad(tmp_path / "s2.json",
                        [{"title": "T", "paragraphs": [{"context": "", "qas": []}]}])
    with pytest.raises(DatasetError):
        parse_squad(path2)


def squad_with_answers(tmp_path, answers):
    return write_squad(tmp_path / "x.json", [{
        "title": "T",
        "paragraphs": [{"context": "alpha beta gamma",
                        "qas": [{"id": "q-odd", "question": "q?", "answers": answers}]}],
    }])


def test_parse_squad_rejects_string_answer_start(tmp_path):
    path = squad_with_answers(tmp_path, [{"text": "beta", "answer_start": "6"}])
    with pytest.raises(DatasetError) as exc:
        parse_squad(path)
    assert "'q-odd'" in str(exc.value) and "answer_start" in str(exc.value)


def test_parse_squad_rejects_bare_string_answer(tmp_path):
    path = squad_with_answers(tmp_path, ["beta"])
    with pytest.raises(DatasetError) as exc:
        parse_squad(path)
    assert "'q-odd'" in str(exc.value) and "an answer must be an object" in str(exc.value)


# levenshtein


def test_levenshtein_identity():
    assert levenshtein(["a", "b"], ["a", "b"]) == 0
    assert levenshtein([], []) == 0


def test_levenshtein_pivot_pair_example():
    a = "what organization runs the public schools in victoria ?".split()
    b = "what organization runs the waste management in victoria ?".split()
    assert levenshtein(a, b) == 2


def test_levenshtein_insertions_only():
    assert levenshtein([], ["a", "b"]) == 2
    assert levenshtein(["a", "b"], []) == 2


def oracle_levenshtein(a, b):
    """Plain recursive definition with memoization; independent of the DP."""
    memo = {}

    def go(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if i == len(a):
            r = len(b) - j
        elif j == len(b):
            r = len(a) - i
        else:
            r = min(go(i + 1, j) + 1,
                    go(i, j + 1) + 1,
                    go(i + 1, j + 1) + (a[i] != b[j]))
        memo[(i, j)] = r
        return r

    return go(0, 0)


def all_token_lists(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_levenshtein_matches_bruteforce_oracle():
    lists = [list(t) for t in all_token_lists(("x", "y", "z"), 4)]
    for a in lists:
        for b in lists:
            assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_levenshtein_metric_properties():
    lists = [list(t) for t in all_token_lists(("x", "y"), 3)]
    for a in lists:
        for b in lists:
            d = levenshtein(a, b)
            assert d == levenshtein(b, a)
            assert (d == 0) == (a == b)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, len(lists), size=(300, 3))
    for i, j, k in idx:
        a, b, c = lists[i], lists[j], lists[k]
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# pivot span conversion


def test_pivot_token_span_exact():
    spans = tokenize_with_spans("the public schools opened")
    assert pivot_token_span(spans, "public schools", 4) == (1, 3, True)


def test_pivot_token_span_expands_to_token_boundaries():
    spans = tokenize_with_spans("green apples fell")
    start, end, exact = pivot_token_span(spans, "reen", 1)
    assert (start, end) == (0, 1) and not exact


def test_pivot_token_span_beyond_tokens_is_none():
    spans = tokenize_with_spans("short context")[:1]
    assert pivot_token_span(spans, "context", 6) is None


# align_pairs


def make_paragraph(context, qas, title="T"):
    return ParagraphRecord(title, context, qas)


def test_align_single_pair():
    context = "the public schools serve the town"
    rec = make_paragraph(context, [
        QuestionRecord("a1", "What serves the town?", False, [("public schools", 4)]),
        QuestionRecord("u1", "What rules the town?", True, [("public schools", 4)]),
    ])
    pairs, stats = align_pairs([rec])
    assert len(pairs) == 1
    p = pairs[0]
    assert p.pivot == ("public schools", 4)
    assert (p.answer_start, p.answer_end) == (1, 3)
    assert p.answerable_tokens == tokenize("What serves the town?")
    assert p.unanswerable_tokens == tokenize("What rules the town?")
    assert p.answerable_id == "a1" and p.unanswerable_id == "u1"
    assert stats.candidate_pairs == 1 and stats.expanded_spans == 0
    assert 0 <= p.answer_start < p.answer_end <= len(p.paragraph_tokens)


def test_align_keeps_minimum_distance_candidate():
    context = "the public schools serve the town"
    rec = make_paragraph(context, [
        QuestionRecord("a1", "What body serves lunch daily here?", False, [("schools", 11)]),
        QuestionRecord("a2", "What rules the town?", False, [("schools", 11)]),
        QuestionRecord("u1", "What rules the sea?", True, [("schools", 11)]),
    ])
    pairs, stats = align_pairs([rec])
    assert stats.candidate_pairs == 2
    assert len(pairs) == 1
    assert pairs[0].answerable_id == "a2"  # distance 1 beats a1


def test_align_each_question_paired_once():
    context = "alpha beta gamma delta"
    rec = make_paragraph(context, [
        QuestionRecord("a1", "where is alpha ?", False, [("beta", 6), ("gamma", 11)]),
        QuestionRecord("u1", "where is alpha now ?", True, [("beta", 6)]),
        QuestionRecord("u2", "where is alpha today ?", True, [("gamma", 11)]),
    ])
    pairs, _ = align_pairs([rec])
    assert len(pairs) == 1
    ids = [(p.answerable_id, p.unanswerable_id) for p in pairs]
    assert len(set(i for pair in ids for i in pair)) == 2


def test_align_tie_break_uses_dataset_order():
    context = "alpha beta gamma delta"
    rec = make_paragraph(context, [
        QuestionRecord("a1", "where is it ?", False, [("beta", 6)]),
        QuestionRecord("a2", "where is it ?", False, [("beta", 6)]),
        QuestionRecord("u1", "where is that ?", True, [("beta", 6)]),
    ])
    pairs, _ = align_pairs([rec])
    assert len(pairs) == 1 and pairs[0].answerable_id == "a1"


def test_align_counts_expanded_spans():
    context = "green apples fell early"
    rec = make_paragraph(context, [
        QuestionRecord("a1", "what fell ?", False, [("reen", 1)]),
        QuestionRecord("u1", "what flew ?", True, [("reen", 1)]),
    ])
    pairs, stats = align_pairs([rec])
    assert len(pairs) == 1 and stats.expanded_spans == 1
    assert (pairs[0].answer_start, pairs[0].answer_end) == (0, 1)


def test_align_drops_pivot_beyond_cap(monkeypatch):
    context = "alpha beta gamma delta epsilon"
    rec = make_paragraph(context, [
        QuestionRecord("a1", "what is last ?", False, [("epsilon", 23)]),
        QuestionRecord("u1", "what is first ?", True, [("epsilon", 23)]),
    ])
    monkeypatch.setattr(data_module, "PARAGRAPH_TOKEN_CAP", 2)
    pairs, stats = align_pairs([rec])
    assert pairs == [] and stats.dropped_pivots == 1


def test_align_pivot_requires_identical_offset():
    context = "beta stuff beta"
    rec = make_paragraph(context, [
        QuestionRecord("a1", "where ?", False, [("beta", 0)]),
        QuestionRecord("u1", "when ?", True, [("beta", 11)]),
    ])
    pairs, stats = align_pairs([rec])
    assert pairs == [] and stats.candidate_pairs == 0


def test_align_question_cap_truncates():
    context = "alpha beta"
    long_q = " ".join(["word"] * 60) + " ?"
    rec = make_paragraph(context, [
        QuestionRecord("a1", long_q, False, [("alpha", 0)]),
        QuestionRecord("u1", "short ?", True, [("alpha", 0)]),
    ])
    pairs, _ = align_pairs([rec])
    assert len(pairs[0].answerable_tokens) == QUESTION_TOKEN_CAP == 50


def test_align_skips_questions_without_tokens():
    context = "alpha beta gamma"
    rec = make_paragraph(context, [
        QuestionRecord("a0", " \t ", False, [("beta", 6)]),
        QuestionRecord("a1", "where is beta ?", False, [("beta", 6)]),
        QuestionRecord("u0", "   ", True, [("beta", 6)]),
        QuestionRecord("u1", "where was beta ?", True, [("beta", 6)]),
    ])
    pairs, stats = align_pairs([rec])
    assert [(p.answerable_id, p.unanswerable_id) for p in pairs] == [("a1", "u1")]
    assert stats.candidate_pairs == 1


# split_holdout


def make_pairs(counts):
    pairs = []
    for title, n in counts.items():
        for k in range(n):
            pairs.append(AlignedPair(title, ["w"], 0, 1, ["a"], ["b"],
                                     answerable_id=f"{title}-a{k}",
                                     unanswerable_id=f"{title}-u{k}"))
    return pairs


def test_split_holdout_partition_and_article_purity():
    pairs = make_pairs({f"t{i}": 10 for i in range(20)})
    train, hold = split_holdout(pairs, seed=13)
    assert len(train) + len(hold) == len(pairs)
    assert {id(p) for p in train} | {id(p) for p in hold} == {id(p) for p in pairs}
    assert {p.title for p in train} & {p.title for p in hold} == set()
    assert len(hold) == 20  # homogeneous article sizes make 10% exact


def test_split_holdout_deterministic():
    pairs = make_pairs({f"t{i}": 3 + (i % 5) for i in range(30)})
    a = split_holdout(pairs, seed=7)
    b = split_holdout(pairs, seed=7)
    assert [p.answerable_id for p in a[1]] == [p.answerable_id for p in b[1]]


def test_split_holdout_fraction_band():
    pairs = make_pairs({f"t{i}": 3 + (i * 7) % 6 for i in range(40)})
    for seed in (1, 2, 3, 13):
        _, hold = split_holdout(pairs, seed=seed)
        frac = len(hold) / len(pairs)
        assert 0.08 <= frac <= 0.12


# pair file round-trip


def test_pair_file_round_trip(tmp_path):
    pairs = [
        AlignedPair("Title One", "alpha beta gamma".split(), 1, 2,
                    "what is beta ?".split(), "what was beta ?".split()),
        AlignedPair("Two", ["x"], 0, 1, ["q", "?"], ["p", "?"]),
    ]
    path = tmp_path / "pairs.tsv"
    save_pairs(path, pairs)
    loaded = load_pairs(path)
    assert len(loaded) == 2
    for orig, got in zip(pairs, loaded):
        assert got.title == orig.title
        assert got.paragraph_tokens == orig.paragraph_tokens
        assert (got.answer_start, got.answer_end) == (orig.answer_start, orig.answer_end)
        assert got.answerable_tokens == orig.answerable_tokens
        assert got.unanswerable_tokens == orig.unanswerable_tokens


def test_pair_file_cleans_title_whitespace(tmp_path):
    pairs = [AlignedPair("Tab\there", ["w"], 0, 1, ["a"], ["b"])]
    path = tmp_path / "pairs.tsv"
    save_pairs(path, pairs)
    assert load_pairs(path)[0].title == "Tab here"


@pytest.mark.parametrize("start, end", [
    ("x", "2"),  # start not an integer
    ("1", "2.5"),  # end not an integer
    ("-1", "2"),  # start before the paragraph
    ("2", "2"),  # empty span
    ("2", "1"),  # end before start
    ("1", "4"),  # end past the last of three tokens
])
def test_load_pairs_rejects_bad_answer_span(tmp_path, start, end):
    path = tmp_path / "bad.tsv"
    good = "t\talpha beta gamma\t0\t1\twhat ?\twhy ?\n"
    path.write_text(good + f"t\talpha beta gamma\t{start}\t{end}\twhat ?\twhy ?\n",
                    encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        load_pairs(path)
    assert str(exc.value).startswith(f"{path}:2: ")


def test_load_pairs_rejects_empty_answerable_question(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("t\talpha beta\t0\t1\twhat ?\twhy ?\n"
                    "t\talpha beta\t0\t1\t \twhy ?\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        load_pairs(path)
    assert str(exc.value) == f"{path}:2: empty answerable question"


def test_load_pairs_rejects_bad_field_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only\tthree\tfields\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        load_pairs(path)
    assert ":1:" in str(exc.value)


# build_augmentation


def test_build_augmentation_round_trip(tmp_path):
    context = "the public schools serve the town"
    para = ParagraphRecord("Town", context, [])
    source = QuestionRecord("q7", "What serves the town?", False, [("public schools", 4)])
    out = tmp_path / "aug.json"
    result = build_augmentation([
        (para, source, "what rules the town ?".split()),
        (para, source, "what blesses the town ?".split()),
        (para, source, tokenize(source.question)),  # equals source: skipped
        (para, source, []),  # empty: skipped
    ], out)
    assert result.written == 2 and result.skipped == 2

    reparsed = parse_squad(out)
    assert reparsed.dropped_records == 0
    rec = reparsed.records[0]
    assert rec.article_title == "Town" and rec.context == context
    assert [qa.id for qa in rec.qas] == ["q7-unansq-1", "q7-unansq-2"]
    qa = rec.qas[0]
    assert qa.is_impossible
    assert qa.question == "what rules the town ?"
    assert qa.answers == [("public schools", 4)]


def test_build_augmentation_empty_list(tmp_path):
    out = tmp_path / "aug.json"
    result = build_augmentation([], out)
    assert result.written == 0 and result.skipped == 0
    reparsed = parse_squad(out)
    assert reparsed.records == [] and reparsed.dropped_records == 0


def test_build_augmentation_groups_by_title_and_context(tmp_path):
    p1 = ParagraphRecord("A", "alpha beta", [])
    p2 = ParagraphRecord("A", "gamma delta", [])
    p3 = ParagraphRecord("B", "epsilon zeta", [])
    s1 = QuestionRecord("s1", "one?", False, [("alpha", 0)])
    s2 = QuestionRecord("s2", "two?", False, [("gamma", 0)])
    s3 = QuestionRecord("s3", "three?", False, [("epsilon", 0)])
    out = tmp_path / "aug.json"
    build_augmentation([
        (p1, s1, ["why", "?"]),
        (p3, s3, ["how", "?"]),
        (p2, s2, ["when", "?"]),
    ], out)
    doc = json.loads(out.read_text(encoding="utf-8"))
    titles = [a["title"] for a in doc["data"]]
    assert titles == ["A", "B"]
    assert [p["context"] for p in doc["data"][0]["paragraphs"]] == ["alpha beta", "gamma delta"]
