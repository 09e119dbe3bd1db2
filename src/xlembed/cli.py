"""Command-line interface tying the pipeline stages together.

Exit codes: 0 on success, 1 for usage errors, 2 for data or validation
errors. Commands that read a parallel corpus (build-vocab, toy-teacher,
train) all apply the same cleaning pass first, so row alignment between
the corpus and a teacher table built from it is stable. Evaluation
commands read their datasets verbatim because labels align by line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import ParallelCorpus, load_labeled, load_parallel, load_scored_pairs, preprocess
from .encoder import EncoderConfig, embed
from .errors import ToolkitError, ValidationError
from .evaluation import (
    EvalReport,
    mean_cosine_similarity,
    paraphrase_accuracy,
    pearson,
    spearman,
    time_inference,
)
from .losses import cosine
from .teacher import TeacherTable, read_teacher_file, toy_teacher, write_teacher_file
from .tokenizer import Vocab, build_vocab, load_vocab, save_vocab
from .trainer import Checkpoint, TrainingConfig, load_checkpoint, save_checkpoint, train
from .tsne import Layout2D, TsneConfig, render_scatter, run_tsne


def _infer_format(path: str, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    return "jsonl" if path.endswith(".jsonl") else "tsv"


def _load_clean_corpus(args: argparse.Namespace) -> ParallelCorpus:
    corpus = load_parallel(args.corpus, _infer_format(args.corpus, args.format))
    corpus = preprocess(corpus, min_chars=args.min_chars, max_chars=args.max_chars)
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
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"no such file: {p}")
    lines = p.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValidationError(f"{p} contains no text lines")
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
    vocab = build_vocab(corpus, side=args.side, max_size=args.max_size, min_freq=args.min_freq)
    save_vocab(vocab, args.out)
    print(f"wrote {vocab.size}-entry vocabulary ({args.side} side) to {args.out}")
    return 0


def _cmd_toy_teacher(args: argparse.Namespace) -> int:
    corpus = _load_clean_corpus(args)
    vocab = build_vocab(
        corpus, side="target", max_size=args.vocab_max_size, min_freq=args.vocab_min_freq
    )
    config = EncoderConfig(
        vocab_size=vocab.size,
        dim=args.dim,
        n_layers=args.layers,
        n_heads=args.heads,
        ffn_mult=args.ffn_mult,
        max_len=args.max_len,
        seed=args.seed,
    )
    table = toy_teacher(config, vocab, corpus)
    write_teacher_file(table, args.out)
    print(f"wrote {table.count} x {table.dim} teacher table to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = _load_clean_corpus(args)
    teacher = read_teacher_file(args.teacher)
    vocab = load_vocab(args.vocab)
    enc_config = EncoderConfig(
        vocab_size=vocab.size,
        dim=args.dim if args.dim is not None else teacher.dim,
        n_layers=args.layers,
        n_heads=args.heads,
        ffn_mult=args.ffn_mult,
        max_len=args.max_len,
        seed=args.seed,
    )
    train_config = TrainingConfig(
        loss=args.loss,
        epochs=args.epochs,
        batch_size=args.batch_size,
        base_lr=args.lr,
        warmup_ratio=args.warmup_ratio,
        weight_decay=args.weight_decay,
        beta1=args.beta1,
        beta2=args.beta2,
        eps=args.eps,
        scale=args.scale,
        max_len=args.max_len,
        seed=args.seed,
        shuffle=args.shuffle,
        log_path=args.log,
    )
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


def _cmd_eval_paraphrase(args: argparse.Namespace) -> int:
    ckpt, vocab = _load_model(args)
    pairs = load_parallel(args.pairs, _infer_format(args.pairs, args.format))
    if len(pairs.pairs) == 0:
        raise ValidationError(f"{args.pairs}: no pairs to evaluate")
    labels = (
        _read_binary_labels(args.labels, len(pairs.pairs))
        if args.labels
        else [1] * len(pairs.pairs)
    )
    max_len = ckpt.config.max_len
    emb_a, seconds = time_inference(ckpt.params, vocab, pairs.sources(), max_len)
    emb_b = embed(ckpt.params, vocab, pairs.targets(), max_len)
    report = EvalReport(
        task="paraphrase",
        mcs=mean_cosine_similarity(emb_a, emb_b),
        accuracy=paraphrase_accuracy(emb_a, emb_b, labels, threshold=args.threshold),
        inference_seconds=seconds,
        n_items=len(pairs.pairs),
    )
    print(report.to_json())
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _cmd_eval_sts(args: argparse.Namespace) -> int:
    ckpt, vocab = _load_model(args)
    scored = load_scored_pairs(args.pairs)
    if len(scored.pairs) == 0:
        raise ValidationError(f"{args.pairs}: no pairs to evaluate")
    max_len = ckpt.config.max_len
    emb_a, seconds = time_inference(ckpt.params, vocab, [a for a, _ in scored.pairs], max_len)
    emb_b = embed(ckpt.params, vocab, [b for _, b in scored.pairs], max_len)
    cosines = [cosine(u, v) for u, v in zip(emb_a.vectors, emb_b.vectors)]
    report = EvalReport(
        task="sts",
        pearson_r=pearson(cosines, scored.scores),
        spearman_rho=spearman(cosines, scored.scores),
        inference_seconds=seconds,
        n_items=len(scored.pairs),
    )
    print(report.to_json())
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _cmd_tsne(args: argparse.Namespace) -> int:
    table = read_teacher_file(args.embeddings)
    labeled = load_labeled(args.labels)
    if len(labeled.texts) != table.count:
        raise ValidationError(
            f"{args.labels} has {len(labeled.texts)} rows but {args.embeddings} "
            f"holds {table.count} embeddings"
        )
    config = TsneConfig(
        perplexity=args.perplexity,
        iterations=args.iterations,
        learning_rate=args.learning_rate,
        early_exaggeration=args.early_exaggeration,
        seed=args.seed,
    )
    points = run_tsne(table.embeddings.vectors, config)
    layout = Layout2D(points=points, labels=labeled.labels)
    render_scatter(layout, labeled.label_names, args.out)
    print(f"wrote scatter plot of {table.count} points to {args.out}")
    return 0


def _add_corpus_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="parallel corpus (TSV or JSONL)")
    p.add_argument("--format", choices=("auto", "tsv", "jsonl"), default="auto",
                   help="corpus format; auto picks JSONL for .jsonl paths")
    p.add_argument("--min-chars", type=int, default=1,
                   help="drop pairs with a side shorter than this many characters")
    p.add_argument("--max-chars", type=int, default=512,
                   help="drop pairs with a side longer than this many characters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlembed",
        description="Train and evaluate a compact sentence encoder distilled "
                    "from precomputed teacher embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab",
                       help="build a word vocabulary from one side of a parallel corpus")
    _add_corpus_options(p)
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--side", choices=("source", "target"), default="source")
    p.add_argument("--max-size", type=int, default=8000)
    p.add_argument("--min-freq", type=int, default=1)
    p.set_defaults(handler=_cmd_build_vocab)

    p = sub.add_parser("toy-teacher",
                       help="embed the target side with a frozen random encoder "
                            "(stand-in teacher for closed-loop runs)")
    _add_corpus_options(p)
    p.add_argument("--out", required=True, help="teacher table file to write")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--ffn-mult", type=int, default=2)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab-max-size", type=int, default=8000)
    p.add_argument("--vocab-min-freq", type=int, default=1)
    p.set_defaults(handler=_cmd_toy_teacher)

    p = sub.add_parser("train",
                       help="distill a teacher table into a fresh student encoder")
    _add_corpus_options(p)
    p.add_argument("--teacher", required=True, help="teacher table file")
    p.add_argument("--vocab", required=True, help="source-side vocabulary file")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--loss", choices=("mse", "mnr"), required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--warmup-ratio", type=float, default=0.1)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--scale", type=float, default=20.0,
                   help="logit multiplier for the ranking loss")
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--log", default=None, help="per-step training log (TSV)")
    p.add_argument("--dim", type=int, default=None,
                   help="student dimension (default: match the teacher)")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--ffn-mult", type=int, default=4)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("embed",
                       help="embed one sentence per line into a teacher-format file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--texts", required=True, help="UTF-8 text file, one sentence per line")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("eval-paraphrase",
                       help="mean cosine similarity and thresholded paraphrase accuracy")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--pairs", required=True, help="sentence pairs (TSV or JSONL)")
    p.add_argument("--format", choices=("auto", "tsv", "jsonl"), default="auto")
    p.add_argument("--labels", default=None,
                   help="optional file of 0/1 labels, one per pair (default: all 1)")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(handler=_cmd_eval_paraphrase)

    p = sub.add_parser("eval-sts",
                       help="Pearson and Spearman correlation against 0..5 scores")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--pairs", required=True, help="three-column TSV: text_a, text_b, score")
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(handler=_cmd_eval_sts)

    p = sub.add_parser("tsne",
                       help="project an embedding file to 2-D and render an SVG")
    p.add_argument("--embeddings", required=True, help="teacher-format embedding file")
    p.add_argument("--labels", required=True, help="labeled TSV: text, label_name")
    p.add_argument("--out", required=True, help="SVG file to write")
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--learning-rate", type=float, default=200.0)
    p.add_argument("--early-exaggeration", type=float, default=12.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_tsne)

    return parser


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (ToolkitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
