"""Command-line pipeline: align, train, generate, evaluate, augment, gradcheck."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import data, decode, metrics, text
from .fileio import atomic_write, open_text
from .model import MODES, ModelParams, encode_input
from .tensor import Tape, grad_check
from .train import TrainConfig, TrainingError, sequence_nll, train


def _mode(value):
    if value not in MODES:
        raise argparse.ArgumentTypeError(f"mode must be one of {', '.join(MODES)}, "
                                         f"got {value!r}")
    return value


# Each command's settable options: name -> (type, default, help). Every one is
# a --flag (underscores become dashes) and a key of the --config file.
# Command-line flags override the file; the file overrides the default.
_OPTIONS = {
    "align": {
        "seed": (int, 13, "seed of the article-level holdout split"),
        "min_count": (int, 9, "vocabulary frequency threshold"),
        "holdout_fraction": (float, 0.1, "share of pairs held out, by whole articles"),
    },
    "train": {
        "mode": (_mode, TrainConfig.mode, "generator architecture"),
        "epochs": (int, TrainConfig.epochs, "passes over the training pairs"),
        "batch_size": (int, TrainConfig.batch_size, "examples per Adagrad step"),
        "lr": (float, TrainConfig.learning_rate, "Adagrad learning rate"),
        "dropout": (float, TrainConfig.dropout, "dropout probability"),
        "clip": (float, TrainConfig.clip_norm, "global gradient-norm clip"),
        "seed": (int, TrainConfig.seed, "seed of initialization, shuffling and dropout"),
        "dims_override": (str, None, "WORD/HIDDEN, for tests only"),
        "max_target_len": (int, TrainConfig.max_target_len, "target length cap, EOS included"),
    },
    "generate": {
        "beam": (int, decode.BEAM_SIZE, "beam width"),
        "nbest": (int, 1, "generations kept per input"),
        "max_len": (int, decode.MAX_LEN, "decoder steps per generation"),
    },
    "evaluate": {},
    "augment": {},
    "gradcheck": {
        "mode": (_mode, "seq2seq", "generator architecture"),
        "dims_override": (str, "8/4", "WORD/HIDDEN"),
        "vocab_size": (int, 20, "vocabulary size of the miniature model"),
        "seed": (int, 13, "seed of the miniature model"),
    },
}


class CliError(ValueError):
    pass


def _read_config(path, spec):
    """Typed {name: value} from a key=value file; every key must be in `spec`."""
    values = {}
    with open_text(path, CliError) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{ln}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in spec:
                raise CliError(f"{path}:{ln}: unknown key {key!r}")
            try:
                values[key] = spec[key][0](value)
            except (ValueError, argparse.ArgumentTypeError):
                raise CliError(f"{path}:{ln}: config key {key!r}: cannot parse "
                               f"{value!r}") from None
    return values


def _resolve_options(args, command):
    spec = _OPTIONS[command]
    file_values = _read_config(args.config, spec) if args.config else {}
    for name, (_, default, _) in spec.items():
        if getattr(args, name) is None:
            setattr(args, name, file_values.get(name, default))


def _parse_dims(value):
    if value is None:
        return None
    parts = value.split("/")
    if len(parts) != 2:
        raise CliError(f"--dims-override expects WORD/HIDDEN, got {value!r}")
    try:
        word, hidden = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"--dims-override expects integers, got {value!r}") from None
    if word < 1 or hidden < 1:
        raise CliError(f"--dims-override dims must be positive, got {value!r}")
    return word, hidden


def cmd_align(args):
    records = []
    dropped = 0
    vocab_corpus = []
    for i, path in enumerate(args.squad):
        result = data.parse_squad(path)
        records.extend(result.records)
        dropped += result.dropped_records
        if i == 0:
            for rec in result.records:
                vocab_corpus.append(text.tokenize(rec.context))
                for qa in rec.qas:
                    vocab_corpus.append(text.tokenize(qa.question))
    pairs, stats = data.align_pairs(records)
    train_pairs, holdout_pairs = data.split_holdout(pairs, args.seed,
                                                    fraction=args.holdout_fraction)
    vocab = text.build_vocab(vocab_corpus, min_frequency=args.min_count)
    data.save_pairs(args.out_pairs, train_pairs)
    data.save_pairs(args.out_holdout, holdout_pairs)
    text.save_vocab(args.out_vocab, vocab)
    mean_distance = (sum(p.distance for p in pairs) / len(pairs)) if pairs else 0.0
    print(f"pairs={len(pairs)}")
    print(f"mean_distance={mean_distance:.4f}")
    print(f"train_pairs={len(train_pairs)}")
    print(f"holdout_pairs={len(holdout_pairs)}")
    print(f"vocab_size={len(vocab)}")
    print(f"dropped_records={dropped}")
    print(f"expanded_spans={stats.expanded_spans}")
    print(f"dropped_pivots={stats.dropped_pivots}")
    return 0


def cmd_train(args):
    pairs = data.load_pairs(args.pairs)
    holdout = data.load_pairs(args.holdout)
    vocab = text.load_vocab(args.vocab)
    dims = _parse_dims(args.dims_override)
    config = TrainConfig(mode=args.mode, epochs=args.epochs, batch_size=args.batch_size,
                         learning_rate=args.lr, dropout=args.dropout, clip_norm=args.clip,
                         seed=args.seed, max_target_len=args.max_target_len,
                         pretrained_path=args.pretrained)
    if dims is not None:
        config.word_dim, config.enc_hidden = dims
    try:
        config.validate()
    except TrainingError as exc:  # name the flag typed, not the TrainConfig field
        field, _, rest = str(exc).partition(" ")
        flag = {"learning_rate": "lr", "clip_norm": "clip"}.get(field, field).replace("_", "-")
        raise CliError(f"--{flag} {rest}") from None
    params, history = train(config, pairs, holdout, vocab, log=print)
    params.save(args.out, extra={"vocab_size": len(vocab),
                                 "train_config": asdict(config)})
    best = min(h["holdout_ppl"] for h in history)
    print(f"best_holdout_ppl={best:.4f}")
    return 0


def _squad_generation_inputs(path):
    """(question id, pair-shaped record) for every answerable question."""
    result = data.parse_squad(path)
    inputs = []
    skipped_spans = 0
    for rec in result.records:
        token_spans = text.tokenize_with_spans(rec.context)[:data.PARAGRAPH_TOKEN_CAP]
        para_tokens = [tok for tok, _, _ in token_spans]
        for qa in rec.qas:
            if qa.is_impossible or not qa.answers:
                continue
            ans_text, ans_start = qa.answers[0]
            span = data.pivot_token_span(token_spans, ans_text, ans_start)
            if span is None or not para_tokens:
                skipped_spans += 1
                continue
            q_tokens = text.tokenize(qa.question)[:data.QUESTION_TOKEN_CAP]
            if not q_tokens:
                skipped_spans += 1
                continue
            inputs.append((qa.id, data.AlignedPair(rec.article_title, para_tokens,
                                                   span[0], span[1], q_tokens, [])))
    return inputs, skipped_spans


def _pairs_generation_inputs(path):
    pairs = data.load_pairs(path)
    return [(f"pair-{k}", p) for k, p in enumerate(pairs, start=1)], 0


def _looks_like_squad(path):
    if str(path).endswith(".json"):
        return True
    with open_text(path, CliError) as fh:
        head = fh.read(64).lstrip()
    return head.startswith("{")


def cmd_generate(args):
    for name, value in (("beam_size", args.beam), ("max_len", args.max_len), ("nbest", args.nbest)):
        if value < 1:
            raise CliError(f"generate: {name} must be >= 1, got {value}")
    vocab = text.load_vocab(args.vocab)
    params, _ = ModelParams.load(args.checkpoint)
    if params.vocab_size != len(vocab):
        raise CliError(f"checkpoint vocabulary size {params.vocab_size} does not match "
                       f"vocabulary file size {len(vocab)}")
    if _looks_like_squad(args.input):
        inputs, skipped_spans = _squad_generation_inputs(args.input)
    else:
        inputs, skipped_spans = _pairs_generation_inputs(args.input)
    rows = []
    filtered_out = 0
    for qid, pair in inputs:
        hyps = decode.generate_for_example(params, vocab, pair, beam_size=args.beam,
                                           max_len=args.max_len, nbest=args.nbest)
        if not hyps:
            filtered_out += 1
            continue
        for h in hyps:
            rows.append((qid, h.surface(), h.score))
    decode.save_generations(args.out, rows)
    print(f"inputs={len(inputs)}")
    print(f"generations={len(rows)}")
    print(f"filtered_empty={filtered_out}")
    if skipped_spans:
        print(f"skipped_spans={skipped_spans}")
    return 0


def cmd_evaluate(args):
    gens = decode.load_generations(args.generations)
    triples = []
    if args.pairs:
        pairs = data.load_pairs(args.pairs)
        first_by_id = {}
        for qid, tokens, _ in gens:
            first_by_id.setdefault(qid, tokens)
        for k, pair in enumerate(pairs, start=1):
            tokens = first_by_id.get(f"pair-{k}")
            if tokens is not None:
                triples.append((pair.answerable_tokens, tokens, pair.unanswerable_tokens))
    else:
        if not (args.sources and args.references):
            raise CliError("evaluate needs --pairs, or both --sources and --references")
        # lines end at \n, \r\n and \r only, as in every other reader
        with open_text(args.sources, CliError) as fh:
            sources = [text.tokenize(line) for line in fh]
        with open_text(args.references, CliError) as fh:
            references = [text.tokenize(line) for line in fh]
        if not len(gens) == len(sources) == len(references):
            raise CliError(f"evaluate: {len(gens)} generations vs {len(sources)} sources "
                           f"vs {len(references)} references")
        triples = [(src, tokens, ref)
                   for (_, tokens, _), src, ref in zip(gens, sources, references)]
    if not triples:
        raise CliError("evaluate: no scorable generation/reference pairs")
    report = metrics.format_report(metrics.metric_report(triples))
    sys.stdout.write(report)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(report)
    return 0


def cmd_augment(args):
    gens = decode.load_generations(args.generations)
    parsed = data.parse_squad(args.squad)
    index = {}
    for rec in parsed.records:
        for qa in rec.qas:
            if not qa.is_impossible:
                index[qa.id] = (rec, qa)
    generated = [(*index[qid], tokens) for qid, tokens, _ in gens if qid in index]
    result = data.build_augmentation(generated, args.out)
    print(f"written={result.written}")
    print(f"skipped={result.skipped}")
    print(f"unmatched={len(gens) - len(generated)}")
    return 0


def _gradcheck_fixture(vocab_size, mode, dims, seed):
    """Deterministic miniature model and example for the finite-difference check."""
    if vocab_size <= len(text.SPECIAL_TOKENS):
        raise CliError(f"--vocab-size must exceed {len(text.SPECIAL_TOKENS)}")
    bank = [c + v for c in "kmnprstw" for v in "aeio"][:vocab_size - len(text.SPECIAL_TOKENS)]
    vocab = text.Vocab(sorted(bank))
    word_dim, enc_hidden = dims
    params = ModelParams(len(vocab), mode, word_dim=word_dim, enc_hidden=enc_hidden,
                         seed=seed)
    # Widen the init to uniform(-1, 1): with the training-scale init the
    # attention stays near-uniform and some bilinear-weight gradients fall
    # below the float64 cancellation floor of the difference quotient,
    # eps * |loss| / (2 * step), which no admissible step can resolve. The
    # widened values are finite, so the parameters stay verified.
    for _, tensor in params.items():
        tensor.data *= 10.0
    n = len(bank)
    paragraph = [bank[0], bank[1 % n], bank[2 % n], "zq", bank[3 % n]]
    question = [bank[5 % n], bank[0], bank[2 % n]]
    target = [bank[2 % n], "zq", bank[1 % n]]  # the OOV target exercises the copy-only path
    return params, vocab, paragraph, question, target


def cmd_gradcheck(args):
    dims = _parse_dims(args.dims_override)
    params, vocab, paragraph, question, target = _gradcheck_fixture(
        args.vocab_size, args.mode, dims, args.seed)

    def build_loss(_):
        tape = Tape()
        enc = encode_input(tape, params, vocab, paragraph, 2, 4, question)
        loss, _, _ = sequence_nll(tape, params, enc, vocab, target, max_len=10)
        return loss, tape

    worst = grad_check(build_loss, params.parameters(), step=1e-4)
    print(f"mode={args.mode}")
    print(f"max_relative_error={worst:.6e}")
    if worst >= 1e-4:
        raise CliError(f"gradient check failed: max relative error {worst:.6e} >= 1e-4")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="unansqgen",
        description="Generate unanswerable reading-comprehension questions from "
                    "answerable ones, and build augmentation data from the output.")
    sub = parser.add_subparsers(dest="command")

    def command(name, run, help_text):
        """A subcommand that calls `run`, with its option table and --config."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for key, (kind, default, key_help) in _OPTIONS[name].items():
            if default is not None:
                key_help = f"{key_help} (default {default})"
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=key_help)
        p.add_argument("--config", help="key=value file of option values; flags override it")
        return p

    p = command("align", cmd_align, "extract aligned question pairs from SQuAD 2.0 files")
    p.add_argument("--squad", nargs="+", required=True,
                   help="input SQuAD v2.0 JSON files; the first builds the vocabulary")
    p.add_argument("--out-pairs", required=True)
    p.add_argument("--out-holdout", required=True)
    p.add_argument("--out-vocab", required=True)

    p = command("train", cmd_train, "train a generator on aligned pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--holdout", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--pretrained", help="optional word-vector text file")

    p = command("generate", cmd_generate, "decode questions for a SQuAD file or pair file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True, help="SQuAD JSON or aligned-pair file")
    p.add_argument("--out", required=True)

    p = command("evaluate", cmd_evaluate, "score generations against references")
    p.add_argument("--generations", required=True)
    p.add_argument("--pairs", help="aligned-pair file whose rows match pair-<k> ids")
    p.add_argument("--sources", help="one source question per line")
    p.add_argument("--references", help="one reference question per line")
    p.add_argument("--out")

    p = command("augment", cmd_augment, "emit unanswerable SQuAD records from generations")
    p.add_argument("--generations", required=True)
    p.add_argument("--squad", required=True, help="source file holding the question ids")
    p.add_argument("--out", required=True)

    command("gradcheck", cmd_gradcheck, "finite-difference check on a miniature model")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        _resolve_options(args, args.command)
        with np.errstate(all="ignore"):  # the tape reports a non-finite value where it is born
            return args.run(args)
    except (ValueError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
