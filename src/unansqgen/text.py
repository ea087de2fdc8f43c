"""Tokenization, vocabulary construction, and character id sequences."""

from __future__ import annotations

from collections import Counter

from .fileio import atomic_write, open_text

PAD, UNK, BOS, EOS, SEP = "<pad>", "<unk>", "<bos>", "<eos>", "<sep>"
SPECIAL_TOKENS = (PAD, UNK, BOS, EOS, SEP)
PAD_ID, UNK_ID, BOS_ID, EOS_ID, SEP_ID = range(5)

# Token type ids for the input embedding sum.
TYPE_ANSWER, TYPE_PARAGRAPH, TYPE_QUESTION = 0, 1, 2

_PUNCT = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
_CONTRACTIONS = ("n't", "'s", "'re", "'ve", "'ll", "'d", "'m")

# Character inventory: id 0 reserved, id 1 unknown, ids 2..96 printable ASCII.
CHAR_UNK_ID = 1
CHAR_INVENTORY_SIZE = 97
MAX_TOKEN_CHARS = 16


def tokenize_with_spans(text):
    """Tokenize and keep each token's [start, end) character span.

    Rules: lowercase; split on whitespace; detach leading/trailing
    punctuation one character at a time; split trailing English contraction
    suffixes (n't, 's, ...) off non-empty stems. Tokens that are exactly a
    contraction form stay whole so re-tokenizing joined output is stable.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        _split_chunk(text, i, j, out)
        i = j
    return out


def _split_chunk(text, start, stop, out):
    chunk = text[start:stop].lower()
    if chunk in _CONTRACTIONS:
        out.append((chunk, start, stop))
        return
    lo, hi = start, stop
    lead, trail = [], []
    while lo < hi and text[lo] in _PUNCT:
        lead.append((text[lo].lower(), lo, lo + 1))
        lo += 1
    while hi > lo and text[hi - 1] in _PUNCT:
        trail.append((text[hi - 1].lower(), hi - 1, hi))
        hi -= 1
    out.extend(lead)
    if lo < hi:
        core = text[lo:hi].lower()
        suffix = next((s for s in _CONTRACTIONS if core.endswith(s) and len(core) > len(s)), None)
        if suffix is None:
            out.append((core, lo, hi))
        else:
            cut = hi - len(suffix)
            out.append((core[:-len(suffix)], lo, cut))
            out.append((suffix, cut, hi))
    out.extend(reversed(trail))


def tokenize(text):
    """Lowercased tokens with punctuation detached; empty text gives []."""
    return [tok for tok, _, _ in tokenize_with_spans(text)]


class Vocab:
    """Bidirectional token<->id map; ids 0-4 are the fixed special tokens."""

    def __init__(self, tokens):
        self.id_to_token = list(SPECIAL_TOKENS) + list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, token):
        return token in self.token_to_id

    def id(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def token(self, idx):
        return self.id_to_token[idx]

    def encode(self, tokens):
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]


def build_vocab(token_corpora, min_frequency):
    """Vocabulary of tokens seen >= min_frequency times across the corpora.

    Non-special ids follow descending corpus count, ties broken
    lexicographically. Corpus tokens colliding with a special surface form
    are ignored.
    """
    if min_frequency < 1:
        raise ValueError(f"min_frequency must be >= 1, got {min_frequency}")
    counts = Counter()
    for tokens in token_corpora:
        counts.update(tokens)
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    kept = [t for t, c in counts.items() if c >= min_frequency]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab(kept)


def char_ids(token):
    """Character ids for one token, capped at 16 characters.

    Printable ASCII maps into the 95-entry inventory; anything else maps to
    the unknown-character id.
    """
    ids = []
    for ch in token[:MAX_TOKEN_CHARS]:
        code = ord(ch)
        ids.append(code - 32 + 2 if 32 <= code <= 126 else CHAR_UNK_ID)
    return ids


def save_vocab(path, vocab):
    """One token per line in id order; the first five lines are the specials."""
    with atomic_write(path) as fh:
        for token in vocab.id_to_token:
            fh.write(token + "\n")


def load_vocab(path):
    """Read a `save_vocab` file; a blank or repeated token raises ValueError naming path:line."""
    with open_text(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if tuple(lines[:5]) != SPECIAL_TOKENS:
        raise ValueError(f"{path}: vocabulary file must start with the special-token header")
    first = {}
    for ln, token in enumerate(lines, start=1):
        if not token.strip():
            raise ValueError(f"{path}:{ln}: blank vocabulary entry")
        if first.setdefault(token, ln) != ln:
            raise ValueError(f"{path}:{ln}: duplicate token {token!r} (first on line {first[token]})")
    return Vocab(lines[5:])
