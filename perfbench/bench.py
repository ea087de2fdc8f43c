"""One workload: set-up, the six timed phases, their output checks, and metrics.

Every phase drives a public entry point of unansqgen:
- align, evaluate, augment: `cli.main([...])` in process, on files in a work
  directory;
- train: one `train.train` epoch with `TrainConfig` defaults apart from mode
  and dims, on a fresh copy of the loaded model;
- ppl: `train.perplexity` on holdout pairs;
- generate: `decode.generate_for_example` with beam 5 and nbest 1.

The phases are interleaved until each has had its share of `--seconds` and
its minimum repetitions. Checks run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from unansqgen import cli, data, decode, metrics, model, tensor, text, train

import tracing
import workloads

_BEAM = 5


@dataclass
class Checks:
    """Operations attempted and failed; a failed check counts as a failed operation."""
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems)


@dataclass
class Rep:
    ops: int
    seconds: float
    key: object = None  # repetitions with equal keys do like work: a mode, or a question


def _quiet_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _as_pair(p):
    return data.AlignedPair(p.title, p.paragraph_tokens, p.answer_start, p.answer_end,
                            p.question_tokens, p.target_tokens)


class Workload:
    """One workload's inputs, models and work files, and its phase repetitions."""

    def __init__(self, shape, seed, workdir, tracer):
        self.shape = shape
        self.seed = seed
        self.dir = workdir
        self.tracer = tracer
        self.checks = Checks()
        self.files = {name: str(workdir / name) for name in (
            "squad.json", "generations.tsv", "sources.txt", "references.txt",
            "pairs.tsv", "holdout.tsv", "vocab.txt", "augmented.json")}
        self.params = {}

    # ------------------------------------------------------------------ set-up

    def build(self):
        """Inputs, their files, the vocab and the models, through a save/load round trip."""
        self.params = {}  # release the previous build's models first
        started = perf_counter()
        shape = self.shape
        self.inputs = workloads.generate(shape, self.seed)
        for name, body in (("squad.json", self.inputs.squad_json()),
                           ("generations.tsv", self.inputs.generations_tsv()),
                           ("sources.txt", self.inputs.sources_txt()),
                           ("references.txt", self.inputs.references_txt())):
            with open(self.files[name], "w", encoding="utf-8") as fh:
                fh.write(body)
        self.vocab = text.build_vocab([workloads.vocab_words(shape)], 1)
        word_dim, enc_hidden = shape.dims
        for mode in shape.modes:
            fresh = model.ModelParams(len(self.vocab), mode, word_dim=word_dim,
                                      enc_hidden=enc_hidden, seed=self.seed)
            path = self.dir / f"{mode}.ckpt"
            fresh.save(path, extra={"vocab_size": len(self.vocab)})
            del fresh
            self.params[mode], _ = model.ModelParams.load(path)
        elapsed = perf_counter() - started
        self._derive_inputs()
        return elapsed

    def _derive_inputs(self):
        shape = self.shape
        pairs = [_as_pair(p) for p in self.inputs.planted]
        n_train, n_hold = shape.epoch_pairs
        self.epoch_train = pairs[:n_train]
        self.epoch_holdout = pairs[n_train:n_train + n_hold]
        rest = pairs[n_train + n_hold:] or pairs
        self.ppl_pairs = (rest * shape.ppl_pairs)[:shape.ppl_pairs]
        # an even count keeps each question on one mode when modes alternate
        self.questions = pairs[:shape.questions]
        self.n_squad_questions = sum(len(p["qas"]) for a in self.inputs.squad["data"]
                                     for p in a["paragraphs"])
        self.triples = [(p.question_tokens, p.hypothesis_tokens, p.target_tokens)
                        for p in self.inputs.planted]
        with self._untraced():
            self.expected_report = metrics.format_report(metrics.metric_report(self.triples))
        self.planted_rows = Counter(
            (tuple(p.paragraph_tokens), p.answer_start, p.answer_end,
             tuple(p.question_tokens), tuple(p.target_tokens)) for p in self.inputs.planted)

    def warm_up(self):
        """One forward/backward and one short beam decode per model."""
        started = perf_counter()
        pair = self.questions[0]
        for params in self.params.values():
            tape = tensor.Tape()
            enc = model.encode_input(tape, params, self.vocab, pair.paragraph_tokens,
                                     pair.answer_start, pair.answer_end,
                                     pair.answerable_tokens,
                                     drops=model.DropStream((self.seed, 0, 0), 0.8))
            loss, _, _ = train.sequence_nll(tape, params, enc, self.vocab,
                                            pair.unanswerable_tokens)
            tensor.backward(loss, tape)
            decode.generate_for_example(params, self.vocab, pair, beam_size=_BEAM, max_len=2)
        return perf_counter() - started

    # ------------------------------------------------------------------ phases

    def _mode(self, rep):
        return self.shape.modes[rep % len(self.shape.modes)]

    def rep_align(self, rep):
        f = self.files
        started = perf_counter()
        code, out, err = _quiet_cli(["align", "--squad", f["squad.json"],
                                     "--out-pairs", f["pairs.tsv"],
                                     "--out-holdout", f["holdout.tsv"],
                                     "--out-vocab", f["vocab.txt"]])
        elapsed = perf_counter() - started
        with self._untraced():
            self.checks.record(self._check_align(code, out, err, exact=rep == 0))
        return Rep(self.n_squad_questions, elapsed)

    def rep_train(self, rep):
        mode = self._mode(rep)
        word_dim, enc_hidden = self.shape.dims
        loaded = self.params[mode]
        fresh = model.ModelParams(loaded.vocab_size, mode, word_dim=word_dim,
                                  enc_hidden=enc_hidden, seed=self.seed)
        fresh.set_arrays({name: t.data for name, t in loaded.items()})
        config = train.TrainConfig(mode=mode, epochs=1, word_dim=word_dim,
                                   enc_hidden=enc_hidden)
        started = perf_counter()
        _, history = train.train(config, self.epoch_train, self.epoch_holdout, self.vocab,
                                 params=fresh)
        elapsed = perf_counter() - started
        del fresh
        last = history[-1]
        problems = [f"train {mode}: non-finite {key} {last[key]}"
                    for key in ("train_loss", "holdout_ppl") if not math.isfinite(last[key])]
        self.checks.record(problems)
        return Rep(len(self.epoch_train), elapsed, mode)

    def rep_ppl(self, rep):
        mode = self._mode(rep)
        started = perf_counter()
        value = train.perplexity(self.params[mode], self.ppl_pairs, self.vocab)
        elapsed = perf_counter() - started
        self.checks.record([] if math.isfinite(value) else [f"ppl {mode}: {value}"])
        return Rep(len(self.ppl_pairs), elapsed, mode)

    def rep_generate(self, rep):
        mode = self._mode(rep)
        index = rep % len(self.questions)
        pair = self.questions[index]
        params = self.params[mode]
        started = perf_counter()
        kept = decode.generate_for_example(params, self.vocab, pair, beam_size=_BEAM,
                                           max_len=self.shape.max_len, nbest=1)
        elapsed = perf_counter() - started
        with self._untraced():
            self.checks.record(self._check_generated(params, pair, kept))
        return Rep(1, elapsed, index)

    def rep_evaluate(self, rep):
        f = self.files
        started = perf_counter()
        code, out, err = _quiet_cli(["evaluate", "--generations", f["generations.tsv"],
                                     "--sources", f["sources.txt"],
                                     "--references", f["references.txt"]])
        elapsed = perf_counter() - started
        problems = []
        if code != 0 or out != self.expected_report:
            problems.append(f"evaluate: exit {code}, report {out!r}, stderr {err!r}")
        self.checks.record(problems)
        return Rep(len(self.triples), elapsed)

    def rep_augment(self, rep):
        f = self.files
        started = perf_counter()
        code, out, err = _quiet_cli(["augment", "--generations", f["generations.tsv"],
                                     "--squad", f["squad.json"], "--out", f["augmented.json"]])
        elapsed = perf_counter() - started
        with self._untraced():
            self.checks.record(self._check_augment(code, out, err))
        return Rep(len(self.inputs.planted), elapsed)

    # ------------------------------------------------------------------ checks

    @contextlib.contextmanager
    def _untraced(self):
        was = self.tracer.enabled
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = was

    def _check_align(self, code, out, err, exact):
        if code != 0:
            return [f"align: exit {code}: {err.strip()}"]
        problems = []
        rows = Counter(
            (tuple(p.paragraph_tokens), p.answer_start, p.answer_end,
             tuple(p.answerable_tokens), tuple(p.unanswerable_tokens))
            for path in (self.files["pairs.tsv"], self.files["holdout.tsv"])
            for p in data.load_pairs(path))
        if rows != self.planted_rows:
            problems.append("align: written pairs differ from the planted pairs")
        planted = self.inputs.planted
        mean = sum(p.distance for p in planted) / len(planted)
        if f"pairs={len(planted)}\n" not in out or f"mean_distance={mean:.4f}\n" not in out:
            problems.append(f"align: unexpected summary {out!r}")
        if exact:
            records = data.parse_squad(self.files["squad.json"]).records
            got = {(p.answerable_id, p.unanswerable_id, p.distance)
                   for p in data.align_pairs(records)[0]}
            want = {(p.answerable_id, p.unanswerable_id, p.distance) for p in planted}
            if got != want:
                problems.append("align: pair ids or edit distances differ from the planted ones")
        return problems

    def _check_generated(self, params, pair, kept):
        problems = []
        if not kept:
            problems.append("generate: every hypothesis was filtered out")
        for h in kept:
            surface = h.surface()
            if text.UNK in surface:
                problems.append(f"generate: output contains {text.UNK}: {surface}")
            if surface == list(pair.answerable_tokens):
                problems.append("generate: output equals its source question")
            tape = tensor.Tape()
            enc = model.encode_input(tape, params, self.vocab, pair.paragraph_tokens,
                                     pair.answer_start, pair.answer_end, pair.answerable_tokens)
            ref = decode.score_sequence(tape, params, enc, self.vocab, surface,
                                        include_eos=h.finished)
            if not abs(ref - h.score) <= 1e-9:
                problems.append(f"generate: beam score {h.score!r} != score_sequence {ref!r}")
        return problems

    def _check_augment(self, code, out, err):
        n = len(self.inputs.planted)
        if code != 0 or out != f"written={n}\nskipped=0\nunmatched=0\n":
            return [f"augment: exit {code}, summary {out!r}, stderr {err!r}"]
        parsed = data.parse_squad(self.files["augmented.json"])
        qas = [qa for rec in parsed.records for qa in rec.qas]
        if parsed.dropped_records or len(qas) != n or not all(qa.is_impossible for qa in qas):
            return [f"augment: re-parse gave {len(qas)} records, "
                    f"{parsed.dropped_records} dropped, expected {n} impossible"]
        return []

    def check_metric_oracle(self):
        """metric_report with each reference as its own hypothesis scores 1."""
        identity = [(src, ref, ref) for src, _, ref in self.triples]
        report = metrics.metric_report(identity)
        keys = ("bleu_3", "bleu_4", "gleu_3", "gleu_4", "rouge_2_f1", "rouge_3_f1", "rouge_l_f1")
        self.checks.record([f"metrics: identity {k} = {report[k]!r}"
                            for k in keys if abs(report[k] - 1.0) > 1e-12])


_MODEL_PHASES = ("train", "ppl", "generate")


def run_phases(work, seconds, tracer=None):
    """Interleave the phases for `seconds`, each taking its share of the time.

    A phase's due time is its share of the time elapsed so far, and the phase
    furthest behind its due time runs next. At paper scale one model
    repetition takes seconds, so a run holds only a few of them; tying the
    due times to elapsed time puts the short corpus repetitions into every
    gap between them, so each phase samples the whole run rather than one
    stretch of it: on a shared machine the speed drifts over seconds. Once
    `seconds` have passed, only phases still short of their share of
    `seconds` or of their minimum repetitions run, and model phases with
    alternating modes finish whole rounds of modes. Returns {phase: [Rep]}.
    """
    shape = work.shape
    width = len(shape.modes)
    reps = {phase: [] for phase in workloads.PHASES}
    spent = dict.fromkeys(workloads.PHASES, 0.0)

    def unfinished(phase):
        done = len(reps[phase])
        return (done < shape.min_reps[phase] or spent[phase] < shape.shares[phase] * seconds
                or (phase in _MODEL_PHASES and done % width))

    started = perf_counter()
    while True:
        elapsed = perf_counter() - started
        candidates = workloads.PHASES
        if elapsed >= seconds:
            candidates = [p for p in workloads.PHASES if unfinished(p)]
            if not candidates:
                return reps
        phase = max(candidates, key=lambda p: shape.shares[p] * elapsed - spent[p])
        if tracer is not None:
            tracer.phase, tracer.op = phase, len(reps[phase])
        step_started = perf_counter()
        reps[phase].append(getattr(work, f"rep_{phase}")(len(reps[phase])))
        spent[phase] += perf_counter() - step_started


def _times_per_op(reps):
    """The median seconds per operation of each group of like repetitions."""
    groups = {}
    for r in reps:
        groups.setdefault(r.key, []).append(r.seconds / r.ops)
    return [statistics.median(t) for t in groups.values()]


def _rate(reps):
    """Operations per second of a phase, from the median repetition.

    On a shared machine a busy neighbour slows single repetitions by up to
    2x, and the interleaving spreads each phase over the whole run, so a
    median of many repetitions ignores those where a total over them would
    not. Modes and questions differ in cost, so the median is taken per
    group of like repetitions, and the rate is the inverse of the groups'
    mean time per operation; the modes alternate, so each group is an equal
    share of the work.
    """
    return 1.0 / statistics.fmean(_times_per_op(reps))


def _latency_p50(reps):
    """Median over the distinct questions of each question's median latency."""
    return statistics.median(_times_per_op(reps))


def end_to_end(reps):
    """Throughputs and the median question latency from phase repetitions."""
    return {
        "train.examples_per_s": _rate(reps["train"]),
        "ppl.examples_per_s": _rate(reps["ppl"]),
        "generate.questions_per_s": _rate(reps["generate"]),
        "generate.latency_p50_s": _latency_p50(reps["generate"]),
        "align.questions_per_s": _rate(reps["align"]),
        "evaluate.triples_per_s": _rate(reps["evaluate"]),
        "augment.records_per_s": _rate(reps["augment"]),
    }


def latency_p90(reps):
    """90th-percentile question latency, or None with fewer than 10 samples beyond it."""
    latencies = [r.seconds for r in reps["generate"]]
    if len(latencies) < 100:
        return None
    return statistics.quantiles(latencies, n=10)[-1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


E2E_UNITS = {
    "setup_s": "s",
    "train.examples_per_s": "1/s",
    "ppl.examples_per_s": "1/s",
    "generate.questions_per_s": "1/s",
    "generate.latency_p50_s": "s",
    "align.questions_per_s": "1/s",
    "evaluate.triples_per_s": "1/s",
    "augment.records_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"tensor.primitive.s": "s", "tensor.primitive.calls": "count"}
    for kind in tensor.PRIMITIVE_KINDS:
        units[f"tensor.primitive.{kind}.s"] = "s"
        units[f"tensor.primitive.{kind}.calls"] = "count"
    units.update({
        "tensor.backward.s": "s",
        "tensor.backward.grad_mb": "MB",
        "tensor.checkpoint.save_s": "s",
        "tensor.checkpoint.load_s": "s",
        "model.encode_input.self_s": "s",
        "model.encode_input.calls": "count",
        "model.embed_inputs.s": "s",
        "model.interact.s": "s",
        "model.decode_step.self_s": "s",
        "model.decode_step.calls": "count",
        "model.final_distribution.s": "s",
        "train.sequence_nll.self_s": "s",
        "train.adagrad_step.s": "s",
        "train.adagrad_step.calls": "count",
        "train.adagrad_step.skipped": "count",
        "train.perplexity.s": "s",
        "decode.beam_search.self_s": "s",
        "decode.kept_share": "ratio",
        "data.parse_squad.s": "s",
        "data.align_pairs.self_s": "s",
        "data.levenshtein.s": "s",
        "data.levenshtein.calls": "count",
        "data.align.pair_share": "ratio",
        "data.build_augmentation.s": "s",
        "text.tokenize_with_spans.s": "s",
        "text.tokenize_with_spans.calls": "count",
        "text.build_vocab.s": "s",
        "metrics.bleu.s": "s",
        "metrics.gleu.s": "s",
        "metrics.rouge_n.s": "s",
        "metrics.rouge_l.s": "s",
        "cli.main.self_s": "s",
    })
    for layer in tracing.LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    for name, unit in E2E_UNITS.items():
        if name not in ("setup_s", "peak_rss_mb"):
            units[f"trace.overhead.{name}"] = unit
    return units


def per_layer(tracer, ops, traced, untraced):
    """Per-layer metrics from the traced pass.

    `ops` maps each phase to its operation count (set-up builds, train
    examples, holdout examples, questions, align questions, triples,
    records). A time or count is per operation of the phase it ran in,
    summed over phases, so a layer used by several phases shows each
    phase's per-operation cost.
    """
    totals = tracer.totals()

    def per_op(names, column):
        return sum(row[column] / ops[phase]
                   for name in names for phase, row in totals.get(name, {}).items())

    def counter(name):
        return sum(v / ops[phase] for phase, v in tracer.counters[name].items())

    def ratio(numerator, denominator):
        d = sum(denominator)
        return sum(numerator) / d if d else 0.0

    kinds = [f"tensor.primitive.{k}" for k in tensor.PRIMITIVE_KINDS]
    m = {"tensor.primitive.s": per_op(kinds, 0), "tensor.primitive.calls": per_op(kinds, 2)}
    for kind in kinds:
        m[f"{kind}.s"] = per_op([kind], 0)
        m[f"{kind}.calls"] = per_op([kind], 2)
    m["tensor.backward.s"] = per_op(["tensor.backward"], 0)
    m["tensor.backward.grad_mb"] = counter("tensor.backward.grad_bytes") / 2 ** 20
    m["tensor.checkpoint.save_s"] = per_op(["tensor.checkpoint.save"], 0)
    m["tensor.checkpoint.load_s"] = per_op(["tensor.checkpoint.load"], 0)
    m["model.encode_input.self_s"] = per_op(["model.encode_input"], 1)
    m["model.encode_input.calls"] = per_op(["model.encode_input"], 2)
    m["model.embed_inputs.s"] = per_op(["model.embed_inputs"], 0)
    m["model.interact.s"] = per_op(["model.interact"], 0)
    m["model.decode_step.self_s"] = per_op(["model.decode_step"], 1)
    m["model.decode_step.calls"] = per_op(["model.decode_step"], 2)
    m["model.final_distribution.s"] = per_op(["model.final_distribution"], 0)
    m["train.sequence_nll.self_s"] = per_op(["train.sequence_nll"], 1)
    m["train.adagrad_step.s"] = per_op(["train.adagrad_step"], 0)
    m["train.adagrad_step.calls"] = per_op(["train.adagrad_step"], 2)
    m["train.adagrad_step.skipped"] = counter("train.adagrad_step.skipped")
    m["train.perplexity.s"] = per_op(["train.perplexity"], 0)
    m["decode.beam_search.self_s"] = per_op(["decode.beam_search"], 1)
    m["decode.kept_share"] = ratio(tracer.counters["decode.kept"].values(),
                                   tracer.counters["decode.returned"].values())
    m["data.parse_squad.s"] = per_op(["data.parse_squad"], 0)
    m["data.align_pairs.self_s"] = per_op(["data.align_pairs"], 1)
    m["data.levenshtein.s"] = per_op(["data.levenshtein"], 0)
    m["data.levenshtein.calls"] = per_op(["data.levenshtein"], 2)
    m["data.align.pair_share"] = ratio(tracer.counters["data.align.accepted"].values(),
                                       [row[2] for row in totals["data.levenshtein"].values()])
    m["data.build_augmentation.s"] = per_op(["data.build_augmentation"], 0)
    m["text.tokenize_with_spans.s"] = per_op(["text.tokenize_with_spans"], 0)
    m["text.tokenize_with_spans.calls"] = per_op(["text.tokenize_with_spans"], 2)
    m["text.build_vocab.s"] = per_op(["text.build_vocab"], 0)
    for name in ("bleu", "gleu", "rouge_n", "rouge_l"):
        m[f"metrics.{name}.s"] = per_op([f"metrics.{name}"], 0)
    m["cli.main.self_s"] = per_op(["cli.main"], 1)
    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_s"] = per_op([n for n in totals if n.split(".")[0] == layer], 1)
    for name, value in traced.items():
        m[f"trace.overhead.{name}"] = value - untraced[name]
    return m
