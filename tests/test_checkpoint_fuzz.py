"""Fuzzed checkpoint readers: copies of the toy checkpoints and their sidecars,
truncated or with one bit flipped, and a few hand-made corruptions. Loading
one gives a model or a ModelError or CheckpointError, never anything else."""

import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_corpus, toy_vocab
from unansqgen import data, text
from unansqgen.cli import main
from unansqgen.model import MODES, ModelError, ModelParams
from unansqgen.tensor import CheckpointError, load_checkpoint

FIXTURES = Path(__file__).parent / "fixtures"
ORIGINAL = {(mode, part): (FIXTURES / f"toy-{mode}.ckpt{suffix}").read_bytes()
            for mode in MODES for part, suffix in (("ckpt", ""), ("sidecar", ".json"))}


def _record(name, shape, values=b""):
    raw = name.encode("utf-8")
    return (struct.pack("<I", len(raw)) + raw + struct.pack(f"<I{len(shape)}Q", len(shape), *shape)
            + values)


def _appended(blob, record):
    """`blob` with one more record counted in its header and written at its end."""
    (count,) = struct.unpack_from("<I", blob, 12)
    return blob[:12] + struct.pack("<I", count + 1) + blob[16:] + record


def _fixed_case(case):
    """(checkpoint bytes, sidecar bytes) for a hand-made corruption of toy-seq2seq."""
    blob, sidecar = ORIGINAL["seq2seq", "ckpt"], ORIGINAL["seq2seq", "sidecar"]
    _, arrays = load_checkpoint(FIXTURES / "toy-seq2seq.ckpt")
    first = next(iter(arrays))
    values = arrays[first].astype("<f8").tobytes()
    return {
        "extra-record": (_appended(blob, _record("bogus", (1, 1), bytes(8))), sidecar),
        "repeated-name": (_appended(blob, _record(first, arrays[first].shape, values)), sidecar),
        "2^40-elements": (_appended(blob, _record("huge", (2 ** 20, 2 ** 20))), sidecar),
        "empty-past-address-space": (_appended(blob, _record("void", (0, 2 ** 63))), sidecar),
        "sidecar-not-json": (blob, b'{"format_version": 1, "model": '),
    }[case]


FIXED = {
    "extra-record": (ModelError, "unexpected parameters ['bogus']"),
    "repeated-name": (CheckpointError, "repeats the name 'word_emb'"),
    "2^40-elements": (CheckpointError, f"needs {8 * 2 ** 40} more bytes"),
    "empty-past-address-space": (CheckpointError, "impossible shape (0, 9223372036854775808)"),
    "sidecar-not-json": (ModelError, "invalid sidecar"),
}


def _write(directory, blob, sidecar):
    path = directory / "m.ckpt"
    path.write_bytes(blob)
    Path(f"{path}.json").write_bytes(sidecar)
    return path


def _outcome(path):
    """None when the checkpoint loads, else the ModelError or CheckpointError."""
    try:
        ModelParams.load(path)
    except (ModelError, CheckpointError) as exc:
        return exc
    return None


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutate(blob, cut, at, bit):
    if cut:
        return blob[:at]
    flipped = bytearray(blob)
    flipped[at] ^= 1 << bit
    return bytes(flipped)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mode=st.sampled_from(MODES), part=st.sampled_from(["ckpt", "sidecar"]),
       cut=st.booleans(), bit=st.integers(0, 7), draw=st.data())
def test_a_damaged_checkpoint_loads_or_raises_a_checkpoint_error(scratch, mode, part, cut,
                                                                 bit, draw):
    blob = ORIGINAL[mode, part]
    # half the positions fall in the first 96 bytes, where the headers are
    at = draw.draw(st.one_of(st.integers(0, 95), st.integers(0, len(blob) - 1)), label="at")
    files = dict(ckpt=ORIGINAL[mode, "ckpt"], sidecar=ORIGINAL[mode, "sidecar"])
    files[part] = _mutate(blob, cut, at, bit)
    _outcome(_write(scratch, files["ckpt"], files["sidecar"]))  # raises anything else


@pytest.mark.parametrize("case", list(FIXED))
def test_a_hand_made_corruption_raises_one_named_error(scratch, case):
    kind, message = FIXED[case]
    path = _write(scratch, *_fixed_case(case))
    exc = _outcome(path)
    assert type(exc) is kind and message in str(exc)
    assert str(path) in str(exc)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    vocab, pairs = root / "vocab.txt", root / "pairs.tsv"
    text.save_vocab(vocab, toy_vocab())
    data.save_pairs(pairs, toy_corpus()[0])
    return str(vocab), str(pairs)


SAMPLE = [("fixed", case) for case in FIXED] + [
    ("seq2seq", "ckpt", True, 40, 0),  # cut inside the first record
    ("pair2seq", "ckpt", False, 8, 1),  # a header version the build does not read
    ("pair2seq", "ckpt", False, 20, 3),  # the first record's name is not the one expected
    ("seq2seq", "sidecar", False, 0, 7),  # a first byte that is not UTF-8
    ("pair2seq", "sidecar", True, 30, 0),  # cut inside the JSON
]


@pytest.mark.parametrize("sample", SAMPLE, ids=lambda s: "-".join(map(str, s)))
def test_generate_from_a_damaged_checkpoint_is_one_error_line(tmp_path, capsys, inputs,
                                                              sample):
    if sample[0] == "fixed":
        blob, sidecar = _fixed_case(sample[1])
    else:
        mode, part, cut, at, bit = sample
        files = dict(ckpt=ORIGINAL[mode, "ckpt"], sidecar=ORIGINAL[mode, "sidecar"])
        files[part] = _mutate(files[part], cut, at, bit)
        blob, sidecar = files["ckpt"], files["sidecar"]
    path, out = _write(tmp_path, blob, sidecar), tmp_path / "g"
    rc = main(["generate", "--checkpoint", str(path), "--vocab", inputs[0],
               "--input", inputs[1], "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and not out.exists()
    assert captured.err.startswith(f"error: {path}") and captured.err.count("\n") == 1
