"""Tokenizer, vocabulary, and character-id tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unansqgen.text import (
    CHAR_INVENTORY_SIZE,
    CHAR_UNK_ID,
    EOS,
    EOS_ID,
    MAX_TOKEN_CHARS,
    PAD,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    TYPE_ANSWER,
    TYPE_PARAGRAPH,
    TYPE_QUESTION,
    UNK,
    UNK_ID,
    Vocab,
    build_vocab,
    char_ids,
    load_vocab,
    save_vocab,
    tokenize,
    tokenize_with_spans,
)


# tokenize


def test_tokenize_question_example():
    assert tokenize("What organization runs the public schools?") == [
        "what", "organization", "runs", "the", "public", "schools", "?"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def test_tokenize_contractions():
    assert tokenize("don't") == ["do", "n't"]
    assert tokenize("It's Victoria's") == ["it", "'s", "victoria", "'s"]
    assert tokenize("we're you've they'll I'd I'm") == [
        "we", "'re", "you", "'ve", "they", "'ll", "i", "'d", "i", "'m"]


def test_tokenize_punctuation_detached():
    assert tokenize('"Hello," she said.') == ['"', "hello", ",", '"', "she", "said", "."]
    assert tokenize("(1929-1935)") == ["(", "1929-1935", ")"]


def test_tokenize_spans_recover_surface():
    text = 'Schools don\'t close, "ever."'
    for tok, start, end in tokenize_with_spans(text):
        assert text[start:end].lower() == tok
        assert 0 <= start < end <= len(text)


def test_spans_are_ordered_and_disjoint():
    spans = tokenize_with_spans("one two, three's four")
    for (_, _, e1), (_, s2, _) in zip(spans, spans[1:]):
        assert e1 <= s2


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
def test_tokenize_idempotent_under_rejoin(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def test_bare_contraction_token_stays_whole():
    # required for rejoin stability: "n't" must not re-split into "n" "'" "t"
    assert tokenize("n't") == ["n't"]
    assert tokenize("'s") == ["'s"]


# vocabulary


def test_special_tokens_occupy_ids_0_to_4():
    v = Vocab([])
    assert len(v) == 5
    assert [v.token(i) for i in range(5)] == list(SPECIAL_TOKENS)
    assert (PAD_ID, UNK_ID, EOS_ID, SEP_ID) == (0, 1, 3, 4)
    assert v.id(PAD) == PAD_ID and v.id(EOS) == EOS_ID


def test_build_vocab_threshold_boundary():
    corpus = [["a"] * 9 + ["b"] * 8]
    v = build_vocab(corpus, min_frequency=9)
    assert "a" in v and "b" not in v
    assert len(v) == 6


def test_build_vocab_threshold_one_keeps_all():
    v = build_vocab([["x", "y"], ["y", "z"]], min_frequency=1)
    assert all(t in v for t in ("x", "y", "z"))
    assert len(v) == 8


def test_build_vocab_lexicographic_tie_break():
    v = build_vocab([["y"] * 3 + ["x"] * 3], min_frequency=3)
    assert v.id("x") < v.id("y")


def test_build_vocab_count_order():
    v = build_vocab([["rare"] * 2 + ["common"] * 5], min_frequency=1)
    assert v.id("common") < v.id("rare")


def test_build_vocab_rejects_bad_threshold():
    with pytest.raises(ValueError):
        build_vocab([["a"]], min_frequency=0)


def test_build_vocab_ignores_special_surface_forms():
    v = build_vocab([[UNK] * 10, ["word"] * 10], min_frequency=1)
    assert v.id("word") == 5
    assert len(v) == 6


def test_encode_oov_maps_to_unk():
    v = build_vocab([["a"] * 3], min_frequency=1)
    assert v.encode(["a", "zzz"]) == [v.id("a"), UNK_ID]


def test_decode_encode_round_trip():
    v = build_vocab([["alpha", "beta", "gamma"] * 2], min_frequency=1)
    for t in ("alpha", "beta", "gamma"):
        assert v.decode(v.encode([t])) == [t]


def test_ids_contiguous():
    v = build_vocab([list("abcdef") * 3], min_frequency=1)
    assert sorted(v.token_to_id.values()) == list(range(len(v)))
    assert all(v.id(v.token(i)) == i for i in range(len(v)))


def test_vocab_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocab(["dup", "dup"])


def test_token_type_ids():
    assert (TYPE_ANSWER, TYPE_PARAGRAPH, TYPE_QUESTION) == (0, 1, 2)


# character ids


def test_char_ids_basic():
    ids = char_ids("ab")
    assert ids == [ord("a") - 32 + 2, ord("b") - 32 + 2]
    assert all(2 <= i < CHAR_INVENTORY_SIZE for i in ids)


def test_char_ids_truncates_to_16():
    assert len(char_ids("x" * 17)) == MAX_TOKEN_CHARS


def test_char_ids_unknown_character():
    assert char_ids("é") == [CHAR_UNK_ID]
    assert char_ids("\t") == [CHAR_UNK_ID]


def test_char_ids_inventory_bounds():
    assert char_ids(" ") == [2]
    assert char_ids("~") == [CHAR_INVENTORY_SIZE - 1]


# vocabulary file round-trip


def test_vocab_file_round_trip(tmp_path):
    v = build_vocab([["beta"] * 4 + ["alpha"] * 9], min_frequency=2)
    path = tmp_path / "vocab.txt"
    save_vocab(path, v)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:5] == list(SPECIAL_TOKENS)
    loaded = load_vocab(path)
    assert loaded.id_to_token == v.id_to_token


@pytest.mark.parametrize("body,line,problem", [
    (["foo", "", "bar"], 7, "blank vocabulary entry"),
    (["foo", "   "], 7, "blank vocabulary entry"),
    (["foo", "bar", "foo"], 8, "duplicate token 'foo' (first on line 6)"),
    (["<unk>"], 6, "duplicate token '<unk>' (first on line 2)"),
])
def test_load_vocab_rejects_blank_and_duplicate_entries(tmp_path, body, line, problem):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(list(SPECIAL_TOKENS) + body) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_vocab(path)
    assert str(err.value) == f"{path}:{line}: {problem}"


def test_load_vocab_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alpha\nbeta\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_vocab(path)
