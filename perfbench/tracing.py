"""Span tracing around the public functions of each unansqgen layer.

Wrappers are installed from the benchmark's side by patching the name where
its caller looks it up (for example `unansqgen.train.adagrad_step`, which
`train.train` calls through its module globals), so the program itself is
unchanged. Spans are kept in memory as (name, start, end, parent, phase, op)
and written out when the run ends.
"""

from __future__ import annotations

import csv
import gzip
from array import array
from collections import defaultdict
from time import perf_counter

from unansqgen import cli, data, decode, metrics, model, tensor, text, train

LAYERS = ("tensor", "model", "train", "decode", "data", "text", "metrics", "cli")


def _grad_bytes(tracer, grads):
    tracer.count("tensor.backward.grad_bytes", sum(g.nbytes for g in grads.values()))


def _adagrad_skipped(tracer, applied):
    tracer.count("train.adagrad_step.skipped", 0 if applied else 1)


def _beam_returned(tracer, hyps):
    tracer.count("decode.returned", len(hyps))


def _filter_kept(tracer, hyps):
    tracer.count("decode.kept", len(hyps))


def _align_accepted(tracer, result):
    tracer.count("data.align.accepted", len(result[0]))


# (owner whose attribute the caller reads, attribute, span name, counter).
# The span name of Tape.primitive is completed with the primitive kind.
# train.train, split_holdout, metric_report and generate_for_example have no
# metric of their own; their spans keep their work out of their callers'
# self time.
_TARGETS = [
    (tensor.Tape, "primitive", "tensor.primitive", None),
    (train, "backward", "tensor.backward", _grad_bytes),
    (model, "save_checkpoint", "tensor.checkpoint.save", None),
    (model, "load_checkpoint", "tensor.checkpoint.load", None),
    (train, "encode_input", "model.encode_input", None),
    (decode, "encode_input", "model.encode_input", None),
    (model, "embed_inputs", "model.embed_inputs", None),
    (model, "interact", "model.interact", None),
    (train, "decode_step", "model.decode_step", None),
    (decode, "decode_step", "model.decode_step", None),
    (decode, "final_distribution", "model.final_distribution", None),
    (train, "sequence_nll", "train.sequence_nll", None),
    (train, "adagrad_step", "train.adagrad_step", _adagrad_skipped),
    (train, "perplexity", "train.perplexity", None),
    (train, "train", "train.train", None),
    (decode, "beam_search", "decode.beam_search", _beam_returned),
    (decode, "filter_outputs", "decode.filter_outputs", _filter_kept),
    (decode, "generate_for_example", "decode.generate_for_example", None),
    (data, "parse_squad", "data.parse_squad", None),
    (data, "align_pairs", "data.align_pairs", _align_accepted),
    (data, "levenshtein", "data.levenshtein", None),
    (data, "split_holdout", "data.split_holdout", None),
    (data, "build_augmentation", "data.build_augmentation", None),
    (data, "tokenize", "text.tokenize", None),
    (data, "tokenize_with_spans", "text.tokenize_with_spans", None),
    (text, "tokenize", "text.tokenize", None),
    (text, "tokenize_with_spans", "text.tokenize_with_spans", None),
    (text, "build_vocab", "text.build_vocab", None),
    (metrics, "bleu", "metrics.bleu", None),
    (metrics, "gleu", "metrics.gleu", None),
    (metrics, "rouge_n", "metrics.rouge_n", None),
    (metrics, "rouge_l", "metrics.rouge_l", None),
    (metrics, "metric_report", "metrics.metric_report", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    """Records spans while installed and enabled; `phase` and `op` tag each span."""

    def __init__(self):
        # Parallel flat arrays, not one object per span: the cyclic garbage
        # collector would otherwise walk every span and slow the traced run.
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.phases = []
        self.ops = array("q")
        self.stack = []
        self.counters = defaultdict(lambda: defaultdict(float))  # name -> phase -> total
        self.phase = "setup"
        self.op = 0
        self.enabled = False
        self._saved = []

    def count(self, name, amount):
        self.counters[name][self.phase] += amount

    def _wrap(self, fn, name, counter, by_kind):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            index = len(tracer.names)
            tracer.names.append(f"{name}.{args[1]}" if by_kind else name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.phases.append(tracer.phase)
            tracer.ops.append(tracer.op)
            tracer.ends.append(0.0)
            stack.append(index)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, counter in _TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter, name == "tensor.primitive"))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def totals(self):
        """{span name: {phase: [inclusive s, self s, calls]}}."""
        child = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for name, start, end, phase, inner in zip(self.names, self.starts, self.ends,
                                                  self.phases, child):
            row = out[name][phase]
            row[0] += end - start
            row[1] += end - start - inner
            row[2] += 1
        return out

    def write(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "phase", "op"])
            rows = zip(self.names, self.starts, self.ends, self.parents, self.phases, self.ops)
            for i, (name, start, end, parent, phase, op) in enumerate(rows):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, phase, op])
