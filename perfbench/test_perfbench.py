"""Tests of the benchmark itself: seeded inputs and the metric contract.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import workloads  # noqa: E402
from unansqgen import data  # noqa: E402


def _files(inputs):
    return (inputs.squad_json(), inputs.generations_tsv(), inputs.sources_txt(),
            inputs.references_txt())


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_same_seed_gives_identical_inputs(name):
    shape = workloads.SHAPES[name]
    assert _files(workloads.generate(shape, 7)) == _files(workloads.generate(shape, 7))
    assert _files(workloads.generate(shape, 7)) != _files(workloads.generate(shape, 8))


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_align_recovers_the_planted_pairs(name, tmp_path):
    inputs = workloads.generate(workloads.SHAPES[name], 3)
    path = tmp_path / "squad.json"
    path.write_text(inputs.squad_json(), encoding="utf-8")
    parsed = data.parse_squad(path)
    pairs, stats = data.align_pairs(parsed.records)
    assert parsed.dropped_records == 0
    assert {(p.answerable_id, p.unanswerable_id, p.distance) for p in pairs} == {
        (p.answerable_id, p.unanswerable_id, p.distance) for p in inputs.planted}
    assert stats.candidate_pairs > len(pairs)


def test_full_shape_is_paper_scale():
    shape = workloads.SHAPES["full-pair2seq"]
    inputs = workloads.generate(shape, 5)
    assert len(workloads.vocab_words(shape)) + 5 == 20000
    for p in inputs.planted:
        assert len(p.paragraph_tokens) == 120
        assert len(p.question_tokens) == 11
        assert len(p.target_tokens) == 12
    tokens = [t for p in inputs.planted for t in p.paragraph_tokens]
    in_vocab = set(workloads.vocab_words(shape))
    oov = sum(t not in in_vocab for t in tokens) / len(tokens)
    assert 0.02 < oov < 0.08


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SHAPES)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
