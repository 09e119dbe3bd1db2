"""Workloads, measurement loop and correctness gate of the xlembed benchmark.

``run.py`` imports this module after pinning the BLAS thread pools. Each run
is one process, one workload and one closed-loop client: every operation
starts when the previous one has returned. README.md says why each workload
exists and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import Any, Callable

import numpy as np
import scipy

import xlembed
from xlembed import cli, corpus, encoder, evaluation, losses, teacher, tokenizer, trainer

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
ALPHABET = 3000
MAX_LEN = 64
RECHUNK = 97  # chunk size of the re-embedding that checks chunk independence
LENGTH_CLASSES = 4  # t-SNE labels: sentence-length buckets
PARAPHRASE_MAX_CHANGED = 0.25  # a pair is a paraphrase when at most this share of words changed


def _load_random_sentences() -> Callable:
    """The seeded sentence generator the test suite uses, from tests/conftest.py."""
    spec = importlib.util.spec_from_file_location(
        "xlembed_tests_conftest", ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_sentences


random_sentences = _load_random_sentences()

END_TO_END = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "train_tokens_per_s": "tokens/s",
    "embed_sents_per_s": "sentences/s",
    "eval_sts_s": "s",
    "eval_paraphrase_s": "s",
    "tsne_s": "s",
    "peak_rss_mb": "MB",
}

# <module>.<function>.<stat>, from the traced run.
PER_LAYER = {
    "tokenizer.encode_batch.calls": "count",
    "tokenizer.encode_batch.busy_s": "s",
    "tokenizer.build_vocab.busy_s": "s",
    "tokenizer.load_vocab.busy_s": "s",
    "encoder.forward.calls": "count",
    "encoder.forward.busy_s": "s",
    "encoder.forward.positions": "count",
    "encoder.forward.real_token_ratio": "ratio",
    "encoder.forward.train_call_ms": "ms",
    "encoder.backward.calls": "count",
    "encoder.backward.busy_s": "s",
    "encoder.backward.train_call_ms": "ms",
    "encoder.embed.calls": "count",
    "encoder.embed.busy_s": "s",
    "encoder.embed.self_s": "s",
    "losses.objective.busy_s": "s",
    "losses.cosine.calls": "count",
    "losses.cosine.busy_s": "s",
    "trainer.adamw_step.calls": "count",
    "trainer.adamw_step.busy_s": "s",
    "trainer.adamw_step.train_call_ms": "ms",
    "trainer.train.busy_s": "s",
    "trainer.train.self_s": "s",
    "trainer.save_checkpoint.busy_s": "s",
    "trainer.load_checkpoint.busy_s": "s",
    "trainer.checkpoint.bytes": "bytes",
    "teacher.toy_teacher.busy_s": "s",
    "teacher.read_teacher_file.busy_s": "s",
    "teacher.write_teacher_file.busy_s": "s",
    "evaluation.time_inference.busy_s": "s",
    "evaluation.pearson.busy_s": "s",
    "evaluation.spearman.busy_s": "s",
    "evaluation.mean_cosine_similarity.busy_s": "s",
    "evaluation.paraphrase_accuracy.busy_s": "s",
    "tsne.joint_probabilities.busy_s": "s",
    "tsne.run_tsne.busy_s": "s",
    "tsne.run_tsne.self_s": "s",
    "tsne.render_scatter.busy_s": "s",
    "corpus.load_parallel.busy_s": "s",
    "corpus.load_scored_pairs.busy_s": "s",
    "corpus.load_labeled.busy_s": "s",
    "corpus.preprocess.busy_s": "s",
    "cli.dispatch.calls": "count",
    "cli.dispatch.busy_s": "s",
    "cli.dispatch.self_s": "s",
    "cli.build_parser.busy_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.

    The corpus sizes the vocabulary and the toy teacher; each timed train()
    call runs one epoch over its first ``train_call_pairs`` pairs, so a
    sample lasts about a second at most.
    """

    dim: int
    batch: int
    loss: str
    corpus_pairs: int
    train_call_pairs: int
    train_words: tuple[int, int]
    embed_texts: int
    text_words: tuple[int, int]
    eval_pairs: int
    tsne_points: int
    tsne_iterations: int = 300  # past the 250 exaggeration steps, so both phases run


WORKLOADS = {
    # Trains on short sentences, then runs inference on lengths mixed from
    # 1 to 64 words, where a length-sorted embed pays.
    "train-short": Workload(
        dim=32, batch=4, loss="mse", corpus_pairs=512, train_call_pairs=64,
        train_words=(4, 12), embed_texts=300, text_words=(1, 64), eval_pairs=32,
        tsne_points=200,
    ),
    "train-long": Workload(
        dim=128, batch=32, loss="mnr", corpus_pairs=256, train_call_pairs=64,
        train_words=(24, 72), embed_texts=96, text_words=(24, 72), eval_pairs=16,
        tsne_points=96,
    ),
}


def tiny(w: Workload) -> Workload:
    """The same workload at smoke-test size."""
    pairs = max(32, 2 * w.batch)
    return replace(
        w, corpus_pairs=pairs, train_call_pairs=pairs, embed_texts=100, eval_pairs=16,
        tsne_points=100, tsne_iterations=260,
    )


class BenchFailure(Exception):
    """An operation returned a wrong or failed result."""


@dataclass
class Inputs:
    pairs: list[tuple[str, str]]
    texts: list[str]
    sts: list[tuple[str, str, float]]
    paraphrase: list[tuple[str, str, int]]


def _perturb(rng: np.random.Generator, text: str) -> tuple[str, float]:
    """Replace a random number of words; returns the text and the share changed."""
    words = text.split()
    k = int(rng.integers(0, len(words) + 1))
    for i in rng.choice(len(words), size=k, replace=False):
        words[i] = f"w{int(rng.integers(ALPHABET)):02d}"
    return " ".join(words), k / len(words)


def _sentences(rng: np.random.Generator, count: int, lo: int, hi: int) -> list[str]:
    """``count`` unique sentences whose lengths cycle through lo..hi, in seeded order.

    The multiset of lengths is the same for every seed, so a seed changes
    the words but not the number of real tokens, which the work depends on.
    """
    lengths = np.resize(np.arange(lo, hi + 1), count)
    by_length = {
        int(n): iter(random_sentences(rng, int((lengths == n).sum()), ALPHABET, int(n), int(n)))
        for n in np.unique(lengths)
    }
    return [next(by_length[int(n)]) for n in rng.permutation(lengths)]


def make_inputs(w: Workload, seed: int) -> Inputs:
    """All inputs of a run, from the seed alone."""
    rng = np.random.default_rng(seed)
    # The first train_call_pairs pairs are what train() sees, so they get
    # the full length cycle on their own.
    sources = _sentences(rng, w.train_call_pairs, *w.train_words) + _sentences(
        rng, w.corpus_pairs - w.train_call_pairs, *w.train_words
    )
    # The "translation" renames every word through a fixed permutation.
    rename = rng.permutation(ALPHABET)
    targets = [" ".join(f"v{rename[int(t[1:])]:02d}" for t in s.split()) for s in sources]
    texts = _sentences(rng, w.embed_texts, *w.text_words)
    sts = []
    for a in _sentences(rng, w.eval_pairs, *w.text_words):
        b, changed = _perturb(rng, a)
        sts.append((a, b, round(5.0 * (1.0 - changed), 2)))
    paraphrase = []
    for a in _sentences(rng, w.eval_pairs, *w.text_words):
        b, changed = _perturb(rng, a)
        paraphrase.append((a, b, int(changed <= PARAPHRASE_MAX_CHANGED)))
    return Inputs(pairs=list(zip(sources, targets)), texts=texts, sts=sts, paraphrase=paraphrase)


def _length_class(n_words: int, lo: int, hi: int) -> str:
    width = (hi - lo + 1) / LENGTH_CLASSES
    b = min(LENGTH_CLASSES - 1, int((n_words - lo) / width))
    return f"{lo + int(b * width)}-{lo + int((b + 1) * width) - 1} words"


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Prepared:
    """What set-up leaves for the rounds: data in memory and files on disk."""

    corpus: corpus.ParallelCorpus  # the pairs one train() call trains on
    vocab: tokenizer.Vocab
    table: teacher.TeacherTable  # teacher rows of those pairs
    enc_config: encoder.EncoderConfig
    train_config: trainer.TrainingConfig
    texts: list[str]
    tokens_per_train: int


OPS = ("train", "embed", "eval_sts", "eval_paraphrase", "tsne")


class Bench:
    """One run of one workload: set-ups, timed operations, gate and records."""

    def __init__(self, w: Workload, seed: int, work: Path) -> None:
        self.w, self.seed = w, seed
        self.files = {
            key: work / fname
            for key, fname in (
                ("vocab", "vocab.txt"), ("teacher", "teacher.xlte"), ("model", "model.bemb"),
                ("sts", "sts.tsv"), ("paraphrase", "paraphrase.tsv"),
                ("labels", "paraphrase_labels.txt"), ("tsne_labels", "tsne_labels.tsv"),
                ("embeddings", "embeddings.xlte"), ("tsne_in", "tsne_in.xlte"),
                ("svg", "scatter.svg"), ("resaved", "resaved.bemb"),
            )
        }
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.tracer: tracing.Tracer | None = None
        self.prep: Prepared | None = None
        self.started = 0  # operations started, numbers the op ids
        # What the operations produced: one digest per producing call.
        self.digests: dict[str, list[str]] = defaultdict(list)
        self.reports: dict[str, list[dict]] = defaultdict(list)
        self.circles: list[int] = []
        self.steps = 0
        self.ckpt: trainer.Checkpoint | None = None
        self.embeddings: np.ndarray | None = None

    def _op(self, kind: str) -> contextlib.AbstractContextManager:
        self.attempted += 1
        self.started += 1
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(f"{kind}-{self.started}", kind)

    def setup(self) -> Prepared:
        """Corpus generation and cleaning, vocabulary, toy teacher and input files."""
        w, seed, files = self.w, self.seed, self.files
        with self._op("setup"):
            inputs = make_inputs(w, seed)
            clean = corpus.preprocess(corpus.ParallelCorpus(pairs=inputs.pairs))
            n = w.train_call_pairs
            if len(clean.pairs) < n or n % w.batch:
                raise BenchFailure(
                    f"cannot train on {n} of {len(clean.pairs)} pairs in batches of {w.batch}"
                )
            vocab = tokenizer.build_vocab(clean, side="source")
            tokenizer.save_vocab(vocab, files["vocab"])
            target_vocab = tokenizer.build_vocab(clean, side="target")
            teacher_config = encoder.EncoderConfig(
                vocab_size=target_vocab.size, dim=w.dim, n_layers=1, n_heads=4, ffn_mult=2,
                max_len=MAX_LEN, seed=seed,
            )
            teacher.write_teacher_file(
                teacher.toy_teacher(teacher_config, target_vocab, clean), files["teacher"]
            )
            table = teacher.read_teacher_file(files["teacher"])
            self.digests["teacher"].append(sha256(files["teacher"].read_bytes()))
            files["sts"].write_text("".join(f"{a}\t{b}\t{s}\n" for a, b, s in inputs.sts))
            files["paraphrase"].write_text("".join(f"{a}\t{b}\n" for a, b, _ in inputs.paraphrase))
            files["labels"].write_text("".join(f"{y}\n" for _, _, y in inputs.paraphrase))
            lo, hi = w.text_words
            files["tsne_labels"].write_text("".join(
                f"{t}\t{_length_class(len(t.split()), lo, hi)}\n"
                for t in inputs.texts[: w.tsne_points]
            ))
            head = clean.pairs[:n]
            return Prepared(
                corpus=corpus.ParallelCorpus(pairs=head),
                vocab=vocab,
                table=teacher.TeacherTable(
                    embeddings=encoder.EmbeddingBatch(vectors=table.embeddings.vectors[:n])
                ),
                enc_config=encoder.EncoderConfig(
                    vocab_size=vocab.size, dim=w.dim, n_layers=2, n_heads=4, ffn_mult=4,
                    max_len=MAX_LEN, seed=seed,
                ),
                train_config=trainer.TrainingConfig(
                    loss=w.loss, epochs=1, batch_size=w.batch, max_len=MAX_LEN, seed=seed
                ),
                texts=inputs.texts,
                tokens_per_train=sum(min(len(src.split()), MAX_LEN) for src, _ in head),
            )

    # --- operations: each returns the wall time of its timed call -------------

    def _train(self) -> float:
        p, files = self.prep, self.files
        t0 = time.perf_counter()
        ckpt = trainer.train(p.corpus, p.table, p.vocab, p.enc_config, p.train_config)
        seconds = time.perf_counter() - t0
        trainer.save_checkpoint(ckpt, files["model"])
        self.digests["checkpoint"].append(sha256(files["model"].read_bytes()))
        self.ckpt, self.steps = ckpt, ckpt.training_meta["steps"]
        return seconds

    def _embed(self) -> float:
        p, files = self.prep, self.files
        t0 = time.perf_counter()
        emb = encoder.embed(self.ckpt.params, p.vocab, p.texts, MAX_LEN)
        seconds = time.perf_counter() - t0
        teacher.write_teacher_file(teacher.TeacherTable(embeddings=emb), files["embeddings"])
        head = encoder.EmbeddingBatch(vectors=emb.vectors[: self.w.tsne_points])
        teacher.write_teacher_file(teacher.TeacherTable(embeddings=head), files["tsne_in"])
        self.digests["embeddings"].append(sha256(files["embeddings"].read_bytes()))
        self.embeddings = emb.vectors
        return seconds

    def _dispatch(self, argv: list[str]) -> tuple[float, str]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.dispatch(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            raise BenchFailure(f"xlembed {argv[0]} exited with code {code}")
        return seconds, out.getvalue()

    def _eval(self, kind: str, argv: list[str]) -> float:
        model = ["--ckpt", str(self.files["model"]), "--vocab", str(self.files["vocab"])]
        seconds, printed = self._dispatch([argv[0], *model, *argv[1:]])
        self.reports[kind].append(json.loads(printed.strip().splitlines()[-1]))
        return seconds

    def _tsne(self) -> float:
        files = self.files
        seconds, _ = self._dispatch([
            "tsne", "--embeddings", str(files["tsne_in"]), "--labels", str(files["tsne_labels"]),
            "--out", str(files["svg"]), "--iterations", str(self.w.tsne_iterations),
            "--seed", str(self.seed),
        ])
        svg = files["svg"].read_bytes()
        self.digests["svg"].append(sha256(svg))
        self.circles.append(svg.count(b"<circle "))
        return seconds

    def run_ops(self, budget: float) -> dict[str, list[float]]:
        """Rounds of one call of each operation, in ``OPS`` order, until the
        next round would end past ``budget`` seconds (at least one round).

        Interleaving spreads every operation's samples over the whole run,
        so a slow spell of the host does not hide all of one operation's
        fast samples. Returns the timed seconds of every call.
        """
        files = self.files
        calls: dict[str, Callable[[], float]] = {
            "train": self._train,
            "embed": self._embed,
            "eval_sts": lambda: self._eval("eval_sts", ["eval-sts", "--pairs", str(files["sts"])]),
            "eval_paraphrase": lambda: self._eval("eval_paraphrase", [
                "eval-paraphrase", "--pairs", str(files["paraphrase"]),
                "--labels", str(files["labels"]),
            ]),
            "tsne": self._tsne,
        }
        seconds: dict[str, list[float]] = {kind: [] for kind in OPS}
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for kind in OPS:
                with self._op(kind):
                    seconds[kind].append(calls[kind]())
            now = time.perf_counter()
            if now - start + (now - t0) > budget:
                return seconds

    # --- correctness gate -------------------------------------------------

    def _check(self, name: str, fn: Callable[[], bool]) -> None:
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:  # a check that raises has failed; keep checking the rest
            traceback.print_exc()
            ok = False
        self.checks[name] = ok
        if not ok:
            self.failed += 1

    def gate(self) -> None:
        files, prep = self.files, self.prep
        self._check("train_repeatable", lambda: len(set(self.digests["checkpoint"])) == 1)

        def round_trip() -> bool:
            trainer.save_checkpoint(trainer.load_checkpoint(files["model"]), files["resaved"])
            return files["resaved"].read_bytes() == files["model"].read_bytes()

        self._check("checkpoint_round_trip", round_trip)
        params = trainer.load_checkpoint(files["model"]).params

        def chunk_invariant() -> bool:
            order = np.random.default_rng(self.seed).permutation(len(prep.texts))
            shuffled = encoder.embed(
                params, prep.vocab, [prep.texts[i] for i in order], MAX_LEN, batch_size=RECHUNK
            ).vectors
            restored = np.empty_like(shuffled)
            restored[order] = shuffled
            return restored.tobytes() == self.embeddings.tobytes()

        self._check("embed_chunk_invariant", chunk_invariant)

        def eval_reports_match() -> bool:
            def embed_sides(pairs: list[tuple[str, str]]) -> tuple:
                return tuple(
                    encoder.embed(params, prep.vocab, [p[side] for p in pairs], MAX_LEN)
                    for side in (0, 1)
                )

            scored = corpus.load_scored_pairs(files["sts"])
            a, b = embed_sides(scored.pairs)
            cosines = [losses.cosine(u, v) for u, v in zip(a.vectors, b.vectors)]
            expected = {"eval_sts": {"pearson_r": evaluation.pearson(cosines, scored.scores),
                                     "spearman_rho": evaluation.spearman(cosines, scored.scores)}}
            pairs = corpus.load_parallel(files["paraphrase"])
            labels = [int(x) for x in files["labels"].read_text().split()]
            a, b = embed_sides(pairs.pairs)
            expected["eval_paraphrase"] = {
                "mcs": evaluation.mean_cosine_similarity(a, b),
                "accuracy": evaluation.paraphrase_accuracy(a, b, labels),
            }
            return all(
                self.reports[kind]
                and all({k: report[k] for k in values} == values for report in self.reports[kind])
                for kind, values in expected.items()
            )

        self._check("eval_reports_match", eval_reports_match)
        self._check(
            "svg_one_circle_per_point",
            lambda: all(n == self.w.tsne_points for n in self.circles),
        )
        self._check(
            "outputs_repeatable", lambda: all(len(set(v)) == 1 for v in self.digests.values())
        )

    def last_digests(self) -> dict[str, str]:
        return {kind: values[-1] for kind, values in self.digests.items()}

    # --- the two kinds of run ---------------------------------------------

    def measure(self, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
        """Untraced: end-to-end metrics.

        Each timing is the best of the run's samples, each sample a fraction
        of a second where the workload allows it: on a host whose speed
        drifts, the fastest sample is the steadiest estimate of the code's
        own cost. Set-up time is the median of its repeats.
        """
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.prep = self.setup()
            setup_times.append(time.perf_counter() - t0)
        timed = self.run_ops(seconds)
        self.gate()
        samples: dict[str, list[float]] = {
            "train_steps_per_s": [self.steps / s for s in timed["train"]],
            "train_tokens_per_s": [self.prep.tokens_per_train / s for s in timed["train"]],
            "embed_sents_per_s": [len(self.prep.texts) / s for s in timed["embed"]],
            "eval_sts_s": timed["eval_sts"],
            "eval_paraphrase_s": timed["eval_paraphrase"],
            "tsne_s": timed["tsne"],
        }
        best = {name: (max if name.endswith("_per_s") else min)(v) for name, v in samples.items()}
        metrics = {
            "setup_s": median(setup_times),
            **best,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples["setup_s"] = setup_times
        return metrics, {
            "samples": samples,
            "medians": {name: median(v) for name, v in samples.items()},
            "digests": self.last_digests(),
        }

    def trace(self, seconds: float) -> tuple[dict[str, float], dict[str, Any]]:
        """Untraced pass, then a traced set-up and pass: per-layer metrics."""
        self.prep = self.setup()
        untraced = self.run_ops(seconds / 2)
        self.tracer = tracing.Tracer()
        with tracing.installed(self.tracer):
            self.prep = self.setup()
            traced = self.run_ops(seconds / 2)
        spans = self.tracer.spans
        self.tracer = None
        self.gate()
        stats = tracing.layer_stats(spans)
        for name in ("encoder.forward", "encoder.backward", "trainer.adamw_step"):
            stats[f"{name}.train_call_ms"] = tracing.median_call_ms(spans, name, "trainer.train")
        positions = stats.get("encoder.forward.positions", 0.0)
        real = stats.get("encoder.forward.real_tokens", 0.0)
        stats["encoder.forward.real_token_ratio"] = real / positions if positions else 0.0
        # The workload's training loss: mse_loss or mnr_loss (the other reads 0).
        stats["losses.objective.busy_s"] = stats.get("losses.mse_loss.busy_s", 0.0) + stats.get(
            "losses.mnr_loss.busy_s", 0.0
        )
        stats["trainer.checkpoint.bytes"] = tracing.largest_count(
            spans, "trainer.save_checkpoint", "bytes"
        )
        stats["trace.overhead_s"] = sum(median(traced[k]) - median(untraced[k]) for k in OPS)
        metrics = {name: stats.get(name, 0.0) for name in PER_LAYER}
        return metrics, {
            "seconds": {"untraced": untraced, "traced": traced},
            "digests": self.last_digests(),
            "spans": tracing.to_records(spans),
        }


def _git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict[str, Any]:
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "xlembed": xlembed.__version__,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="measuring time of the rounds, set-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run that reports the per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.size == "tiny":
        w = tiny(w)
    units = PER_LAYER if args.trace else END_TO_END
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    metrics: dict[str, float] = {}
    record: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=f"{args.workload}-") as tmp:
        bench = Bench(w, args.seed, Path(tmp))
        try:
            metrics, record = (bench.trace if args.trace else bench.measure)(args.seconds)
        except Exception:  # any failed operation ends the run and is counted
            traceback.print_exc()
            bench.failed += 1
    for name, ok in bench.checks.items():
        print(f"check {name} {'ok' if ok else 'FAIL'}")
    for kind, digest in record.get("digests", {}).items():
        print(f"digest {kind} sha256:{digest}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    error_rate = bench.failed / max(bench.attempted, 1)
    print(f"error_rate {error_rate:.6g} ({bench.failed} failed / {bench.attempted} attempted)")
    correct = bench.failed == 0
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "env": env, "checks": bench.checks, "error_rate": error_rate,
        "metrics": metrics, **record,
    }, sort_keys=True, default=float))
    print(f"wrote {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1
