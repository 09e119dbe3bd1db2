"""Command-line interface tying the pipeline stages together.

Exit codes: 0 on success, 1 for usage errors, 2 for data or validation
errors. Commands that read a parallel corpus (build-vocab, toy-teacher,
train) all apply the same cleaning pass first, so row alignment between
the corpus and a teacher table built from it is stable. Evaluation
commands read their datasets verbatim because labels align by line.

A flag left out takes the default of what it feeds: ``TrainingConfig``,
``TsneConfig``, ``EncoderConfig``, ``build_vocab``, ``preprocess`` or
``paraphrase_accuracy`` (whose formula eval-paraphrase calls on its pairs'
cosines, as ``_accuracy``). The CLI sets only the model sizes of toy-teacher
and train and its own flags. ``train`` takes its width from the teacher.

``dispatch`` parses with one parser per process, built on its first call;
``build_parser`` returns a new one. Only the ``_cmd_*`` handlers are bound
when the parser is built. They look up every library function in this
module's globals when a command runs, so a function patched here after the
first dispatch is the one the next command calls.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .corpus import (
    ParallelCorpus, ScoredPairs, load_labeled, load_parallel, load_scored_pairs, preprocess,
    read_lines,
)
from .encoder import EncoderConfig, embed
from .errors import ToolkitError, ValidationError
from .evaluation import EvalReport, _accuracy, pearson, spearman, time_inference
from .losses import _row_cosines
from .teacher import TeacherTable, read_teacher_file, toy_teacher, write_teacher_file
from .tokenizer import Vocab, build_vocab, load_vocab, save_vocab
from .trainer import Checkpoint, TrainingConfig, load_checkpoint, save_checkpoint, train
from .tsne import Layout2D, TsneConfig, check_scatter_labels, render_scatter, run_tsne

# EncoderConfig field -> flag, for the commands that build an encoder. The
# width is not among them: train takes the teacher's, toy-teacher has --dim.
ENCODER_FLAGS = {"n_layers": "--layers", "n_heads": "--heads", "ffn_mult": "--ffn-mult",
                 "max_len": "--max-len", "seed": "--seed"}


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags present in args: given, or defaulted by the CLI."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _infer_format(path: str, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    return "jsonl" if path.endswith(".jsonl") else "tsv"


def _load_clean_corpus(args: argparse.Namespace) -> ParallelCorpus:
    corpus = load_parallel(args.corpus, _infer_format(args.corpus, args.format))
    corpus = preprocess(corpus, **_given(args, "min_chars", "max_chars"))
    if len(corpus.pairs) == 0:
        raise ValidationError(f"{args.corpus}: no usable pairs after cleaning")
    return corpus


def _load_model(args: argparse.Namespace) -> tuple[Checkpoint, Vocab]:
    ckpt = load_checkpoint(args.ckpt)
    vocab = load_vocab(args.vocab)
    if vocab.content_hash() != ckpt.vocab_hash:
        raise ValidationError(
            f"{args.vocab} is not the vocabulary this checkpoint was trained with "
            "(content hash mismatch)"
        )
    return ckpt, vocab


def _read_text_lines(path: str) -> list[str]:
    lines = read_lines(path)
    if not lines:
        raise ValidationError(f"{path} contains no text lines")
    return lines


def _read_binary_labels(path: str, expected: int) -> list[int]:
    lines = _read_text_lines(path)
    if len(lines) != expected:
        raise ValidationError(f"{path}: {len(lines)} labels for {expected} pairs")
    labels = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip() not in ("0", "1"):
            raise ValidationError(f"{path}: line {lineno}: label must be 0 or 1, got {line!r}")
        labels.append(int(line.strip()))
    return labels


def _cmd_build_vocab(args: argparse.Namespace) -> int:
    corpus = _load_clean_corpus(args)
    vocab = build_vocab(corpus, **_given(args, "max_size", "min_freq"))
    save_vocab(vocab, args.out)
    print(f"wrote {vocab.size}-entry vocabulary (source side) to {args.out}")
    return 0


def _cmd_toy_teacher(args: argparse.Namespace) -> int:
    corpus = _load_clean_corpus(args)
    vocab = build_vocab(corpus, side="target", **_given(args, "max_size", "min_freq"))
    config = EncoderConfig(vocab_size=vocab.size, **_given(args, "dim", *ENCODER_FLAGS))
    table = toy_teacher(config, vocab, corpus)
    write_teacher_file(table, args.out)
    print(f"wrote {table.count} x {table.dim} teacher table to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = _load_clean_corpus(args)
    teacher = read_teacher_file(args.teacher)
    vocab = load_vocab(args.vocab)
    enc_config = EncoderConfig(vocab_size=vocab.size, dim=teacher.dim,
                               **_given(args, *ENCODER_FLAGS))
    train_config = TrainingConfig(**_given(args, *(f.name for f in fields(TrainingConfig))))
    ckpt = train(corpus, teacher, vocab, enc_config, train_config)
    save_checkpoint(ckpt, args.out)
    meta = ckpt.training_meta
    print(
        f"trained {args.loss} student for {meta['steps']} steps "
        f"(final loss {meta['final_loss']:.6g}); checkpoint at {args.out}"
    )
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    ckpt, vocab = _load_model(args)
    texts = _read_text_lines(args.texts)
    batch = embed(ckpt.params, vocab, texts, ckpt.config.max_len)
    write_teacher_file(TeacherTable(embeddings=batch), args.out)
    print(f"wrote {batch.count} x {batch.dim} embeddings to {args.out}")
    return 0


def _evaluate(args: argparse.Namespace, task: str, read_pairs: Callable[[str], Any],
              metrics: Callable[[Any, np.ndarray], dict[str, float]]) -> int:
    """Load the model, then ``read_pairs(args.pairs)``, whose pairs must not
    be empty; embed both sides in one timed pass, take each pair's cosine
    once, score the cosines with ``metrics(data, cosines)``, print and write
    the report."""
    ckpt, vocab = _load_model(args)
    data = read_pairs(args.pairs)
    n = len(data.pairs)
    if n == 0:
        raise ValidationError(f"{args.pairs}: no pairs to evaluate")
    texts = [a for a, _ in data.pairs] + [b for _, b in data.pairs]
    both, seconds = time_inference(ckpt.params, vocab, texts, ckpt.config.max_len)
    cosines = _row_cosines(both.vectors[:n], both.vectors[n:])
    report = EvalReport(task=task, inference_seconds=seconds, n_items=n, **metrics(data, cosines))
    print(report.to_json())
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _cmd_eval_paraphrase(args: argparse.Namespace) -> int:
    def metrics(corpus: ParallelCorpus, cosines: np.ndarray) -> dict[str, float]:
        n = cosines.size
        labels = _read_binary_labels(args.labels, n) if args.labels else [1] * n
        return {
            "mcs": float(cosines.mean()),
            "accuracy": _accuracy(cosines, labels, **_given(args, "threshold")),
        }

    return _evaluate(args, "paraphrase", lambda p: load_parallel(p, _infer_format(p, args.format)),
                     metrics)


def _cmd_eval_sts(args: argparse.Namespace) -> int:
    def correlations(scored: ScoredPairs, cosines: np.ndarray) -> dict[str, float]:
        return {
            "pearson_r": pearson(cosines, scored.scores),
            "spearman_rho": spearman(cosines, scored.scores),
        }

    return _evaluate(args, "sts", load_scored_pairs, correlations)


def _cmd_tsne(args: argparse.Namespace) -> int:
    table = read_teacher_file(args.embeddings)
    labeled = load_labeled(args.labels)
    if len(labeled.texts) != table.count:
        raise ValidationError(
            f"{args.labels} has {len(labeled.texts)} rows but {args.embeddings} "
            f"holds {table.count} embeddings"
        )
    config = TsneConfig(**_given(args, *(f.name for f in fields(TsneConfig))))
    check_scatter_labels(labeled.labels, labeled.label_names)
    points = run_tsne(table.embeddings.vectors, config)
    layout = Layout2D(points=points, labels=labeled.labels)
    render_scatter(layout, labeled.label_names, args.out)
    print(f"wrote scatter plot of {table.count} points to {args.out}")
    return 0


def _add_corpus_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="parallel corpus (TSV or JSONL)")
    p.add_argument("--format", choices=("auto", "tsv", "jsonl"), default="auto",
                   help="corpus format; auto picks JSONL for .jsonl paths")
    p.add_argument("--min-chars", type=int,
                   help="drop pairs with a side shorter than this many characters")
    p.add_argument("--max-chars", type=int,
                   help="drop pairs with a side longer than this many characters")


def _add_encoder_options(p: argparse.ArgumentParser, **defaults: int) -> None:
    """The ENCODER_FLAGS; defaults holds this command's own."""
    for dest, flag in ENCODER_FLAGS.items():
        p.add_argument(flag, type=int, dest=dest, metavar=flag[2:].upper().replace("-", "_"),
                       default=defaults.get(dest, argparse.SUPPRESS))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlembed",
        description="Train and evaluate a compact sentence encoder distilled "
                    "from precomputed teacher embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # A flag left out stays absent from args, so the library default applies.
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    p = command("build-vocab", "build a word vocabulary from a parallel corpus's source side")
    _add_corpus_options(p)
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--max-size", type=int)
    p.add_argument("--min-freq", type=int)
    p.set_defaults(handler=_cmd_build_vocab)

    p = command("toy-teacher", "embed the target side with a frozen random encoder "
                               "(stand-in teacher for closed-loop runs)")
    _add_corpus_options(p)
    p.add_argument("--out", required=True, help="teacher table file to write")
    p.add_argument("--dim", type=int, default=32)
    _add_encoder_options(p, n_layers=1, n_heads=4, ffn_mult=2)
    p.add_argument("--vocab-max-size", type=int, dest="max_size", metavar="VOCAB_MAX_SIZE")
    p.add_argument("--vocab-min-freq", type=int, dest="min_freq", metavar="VOCAB_MIN_FREQ")
    p.set_defaults(handler=_cmd_toy_teacher)

    p = command("train", "distill a teacher table into a fresh student encoder")
    _add_corpus_options(p)
    p.add_argument("--teacher", required=True, help="teacher table file")
    p.add_argument("--vocab", required=True, help="source-side vocabulary file")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--loss", choices=("mse", "mnr"), required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float, dest="base_lr", metavar="LR")
    p.add_argument("--warmup-ratio", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--scale", type=float, help="logit multiplier for the ranking loss")
    p.add_argument("--log", dest="log_path", metavar="LOG", help="per-step training log (TSV)")
    _add_encoder_options(p, n_layers=2, n_heads=4)
    p.set_defaults(handler=_cmd_train)

    p = command("embed", "embed one sentence per line into a teacher-format file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--texts", required=True, help="UTF-8 text file, one sentence per line")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_embed)

    p = command("eval-paraphrase", "mean cosine similarity and thresholded paraphrase accuracy")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--pairs", required=True, help="sentence pairs (TSV or JSONL)")
    p.add_argument("--format", choices=("auto", "tsv", "jsonl"), default="auto")
    p.add_argument("--labels", default=None,
                   help="optional file of 0/1 labels, one per pair (default: all 1)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(handler=_cmd_eval_paraphrase)

    p = command("eval-sts", "Pearson and Spearman correlation against 0..5 scores")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--pairs", required=True, help="three-column TSV: text_a, text_b, score")
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(handler=_cmd_eval_sts)

    p = command("tsne", "project an embedding file to 2-D and render an SVG")
    p.add_argument("--embeddings", required=True, help="teacher-format embedding file")
    p.add_argument("--labels", required=True, help="labeled TSV: text, label_name")
    p.add_argument("--out", required=True, help="SVG file to write")
    p.add_argument("--perplexity", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--early-exaggeration", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_tsne)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
