"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

These are the end-to-end bars the package has to clear, with pinned
tolerances and time limits. Run with ``pytest -v tests/test_acceptance.py``
for the per-criterion pass/fail listing; add ``-s`` to see the detail lines.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from xlembed import (
    EmbeddingBatch,
    EncoderConfig,
    ParallelCorpus,
    TrainingConfig,
    backward,
    build_vocab,
    cosine,
    embed,
    forward,
    init_params,
    joint_probabilities,
    load_checkpoint,
    load_vocab,
    lr_at,
    mean_cosine_similarity,
    mnr_loss,
    mse_loss,
    paraphrase_accuracy,
    pearson,
    read_teacher_file,
    run_tsne,
    save_checkpoint,
    save_vocab,
    spearman,
    split,
    toy_teacher,
    train,
    write_teacher_file,
    TsneConfig,
    kl_divergence,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared synthetic distillation task: 2000 aligned pairs over a small token
# alphabet, a frozen random teacher, and a 200-pair held-out set.
# ---------------------------------------------------------------------------


def synthetic_corpus(n: int = 2000, alphabet: int = 8, lo: int = 3, hi: int = 7,
                     seed: int = 71) -> ParallelCorpus:
    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    pairs: list[tuple[str, str]] = []
    while len(pairs) < n:
        k = int(rng.integers(lo, hi + 1))
        toks = rng.integers(0, alphabet, size=k)
        src = " ".join(f"s{t:02d}" for t in toks)
        if src in seen:
            continue
        seen.add(src)
        pairs.append((src, " ".join(f"t{t:02d}" for t in toks)))
    return ParallelCorpus(pairs=pairs)


@dataclasses.dataclass
class DistillationTask:
    train_corpus: ParallelCorpus
    val_corpus: ParallelCorpus
    source_vocab: object
    teacher_train: object
    teacher_val: object
    student_config: EncoderConfig


@pytest.fixture(scope="module")
def task() -> DistillationTask:
    corpus = synthetic_corpus()
    train_c, val_c = split(corpus, 0.1, seed=13)
    vs = build_vocab(corpus, side="source")
    vt = build_vocab(corpus, side="target")
    teacher_config = EncoderConfig(
        vocab_size=vt.size, dim=32, n_layers=1, n_heads=1, ffn_mult=2, max_len=8, seed=11
    )
    student_config = EncoderConfig(
        vocab_size=vs.size, dim=32, n_layers=2, n_heads=4, ffn_mult=2, max_len=8, seed=5
    )
    return DistillationTask(
        train_corpus=train_c,
        val_corpus=val_c,
        source_vocab=vs,
        teacher_train=toy_teacher(teacher_config, vt, train_c),
        teacher_val=toy_teacher(teacher_config, vt, val_c),
        student_config=student_config,
    )


# ---------------------------------------------------------------------------
# Independent oracle implementations (exact accumulation via math.fsum, no
# shared code with the package).
# ---------------------------------------------------------------------------


def oracle_mse(t: np.ndarray, s: np.ndarray) -> float:
    terms = [(s[i, j] - t[i, j]) ** 2 for i in range(t.shape[0]) for j in range(t.shape[1])]
    return math.fsum(terms) / (t.shape[0] * t.shape[1])


def oracle_mnr(t: np.ndarray, s: np.ndarray, scale: float) -> float:
    def unit(row):
        norm = math.sqrt(math.fsum(v * v for v in row))
        return [v / norm for v in row]

    n = t.shape[0]
    t_hat = [unit(t[i]) for i in range(n)]
    s_hat = [unit(s[j]) for j in range(n)]
    losses = []
    for i in range(n):
        logits = [scale * math.fsum(a * b for a, b in zip(t_hat[i], s_hat[j])) for j in range(n)]
        peak = max(logits)
        log_z = peak + math.log(math.fsum(math.exp(l - peak) for l in logits))
        losses.append(log_z - logits[i])
    return math.fsum(losses) / n


def oracle_pearson(x, y) -> float:
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(
        math.fsum((a - mx) ** 2 for a in x) * math.fsum((b - my) ** 2 for b in y)
    )
    return num / den


def oracle_ranks(values) -> list[float]:
    out = []
    for v in values:
        below = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(below + (equal + 1) / 2)
    return out


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients against finite differences.
# ---------------------------------------------------------------------------


def test_encoder_and_loss_gradients_match_finite_differences():
    started = time.perf_counter()

    config = EncoderConfig(
        vocab_size=50, dim=8, n_layers=1, n_heads=1, ffn_mult=2, max_len=8, seed=1
    )
    params = init_params(config, dtype=np.float64)
    batch = [
        [5, 17, 42],
        [3, 3, 8, 49, 20],
        [11, 30],
    ]
    rng = np.random.default_rng(2)
    probe = rng.normal(size=(3, config.dim))

    def loss_of(p) -> float:
        emb, _ = forward(p, batch)
        return float((emb.vectors * probe).sum())

    _, cache = forward(params, batch)
    grads = backward(params, cache, probe, params.zeros_like())

    eps = 1e-5
    worst_enc = 0.0
    n_checked = 0
    for (name, p), (_, g) in zip(params.tensors(), grads.tensors()):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for k in range(flat_p.size):
            keep = flat_p[k]
            flat_p[k] = keep + eps
            up = loss_of(params)
            flat_p[k] = keep - eps
            down = loss_of(params)
            flat_p[k] = keep
            fd = (up - down) / (2 * eps)
            rel = abs(fd - flat_g[k]) / max(abs(fd), abs(flat_g[k]), 1e-6)
            worst_enc = max(worst_enc, rel)
            n_checked += 1

    loss_rng = np.random.default_rng(3)
    t = loss_rng.normal(size=(6, 5))
    s = loss_rng.normal(size=(6, 5))
    eps_l = 1e-6
    worst_loss = 0.0
    for fn in (
        lambda a, b: mse_loss(EmbeddingBatch(a), EmbeddingBatch(b)),
        lambda a, b: mnr_loss(EmbeddingBatch(a), EmbeddingBatch(b), scale=20.0),
    ):
        grad = fn(t, s).grad_student
        for i in range(s.shape[0]):
            for j in range(s.shape[1]):
                bump = np.zeros_like(s)
                bump[i, j] = eps_l
                fd = (fn(t, s + bump).value - fn(t, s - bump).value) / (2 * eps_l)
                rel = abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-6)
                worst_loss = max(worst_loss, rel)

    elapsed = time.perf_counter() - started
    report(
        "gradient-check",
        worst_enc < 1e-3 and worst_loss < 1e-4 and elapsed < 60.0,
        f"{n_checked} encoder coords worst rel {worst_enc:.2e} (limit 1e-3), "
        f"loss grads worst rel {worst_loss:.2e} (limit 1e-4), {elapsed:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: regression distillation recovers the teacher's geometry on
# held-out sentences.
# ---------------------------------------------------------------------------


def test_distillation_recovers_teacher_geometry(task):
    started = time.perf_counter()
    config = TrainingConfig(loss="mse", epochs=5, batch_size=4, max_len=8, seed=5)
    ckpt = train(task.train_corpus, task.teacher_train, task.source_vocab,
                 task.student_config, config)
    student_val = embed(ckpt.params, task.source_vocab, task.val_corpus.sources(), 8)
    mcs = mean_cosine_similarity(student_val, task.teacher_val.embeddings)
    elapsed = time.perf_counter() - started
    report(
        "mse-distillation",
        mcs >= 0.90 and elapsed < 600.0,
        f"held-out mean cosine {mcs:.4f} over {student_val.count} pairs "
        f"(floor 0.90), {elapsed:.0f}s (limit 600s)",
    )


# ---------------------------------------------------------------------------
# Criterion 3: ranking distillation retrieves the right translation among
# in-batch candidates on held-out data.
# ---------------------------------------------------------------------------


def test_ranking_distillation_retrieval(task):
    started = time.perf_counter()
    config = TrainingConfig(loss="mnr", epochs=5, batch_size=8, scale=20.0, max_len=8, seed=5)
    ckpt = train(task.train_corpus, task.teacher_train, task.source_vocab,
                 task.student_config, config)
    student = embed(ckpt.params, task.source_vocab, task.val_corpus.sources(), 8)
    s = student.vectors.astype(np.float64)
    t = task.teacher_val.embeddings.vectors.astype(np.float64)
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    hits = total = 0
    for start in range(0, t.shape[0] - t.shape[0] % 8, 8):
        sims = t[start : start + 8] @ s[start : start + 8].T
        hits += int((sims.argmax(axis=1) == np.arange(8)).sum())
        total += 8
    accuracy = hits / total
    elapsed = time.perf_counter() - started
    report(
        "mnr-retrieval",
        accuracy >= 0.90 and elapsed < 600.0,
        f"top-1 in-batch retrieval {hits}/{total} = {accuracy:.3f} (floor 0.90), "
        f"{elapsed:.0f}s (limit 600s)",
    )


# ---------------------------------------------------------------------------
# Criterion 4: loss values agree with independent brute-force oracles.
# ---------------------------------------------------------------------------


def test_loss_values_match_brute_force_oracles():
    rng = np.random.default_rng(101)
    worst_mnr = 0.0
    worst_mse = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(2, 25))
        t = rng.normal(size=(n, d)) * float(rng.uniform(0.2, 5.0))
        s = rng.normal(size=(n, d)) * float(rng.uniform(0.2, 5.0))
        scale = float(rng.uniform(0.5, 30.0))
        got_mnr = mnr_loss(EmbeddingBatch(t), EmbeddingBatch(s), scale=scale).value
        worst_mnr = max(worst_mnr, abs(got_mnr - oracle_mnr(t, s, scale)))
        got_mse = mse_loss(EmbeddingBatch(t), EmbeddingBatch(s)).value
        worst_mse = max(worst_mse, abs(got_mse - oracle_mse(t, s)))
    report(
        "loss-oracles",
        worst_mnr <= 1e-10 and worst_mse <= 1e-12,
        f"100 random batches: ranking worst |diff| {worst_mnr:.2e} (limit 1e-10), "
        f"mse worst |diff| {worst_mse:.2e} (limit 1e-12)",
    )


# ---------------------------------------------------------------------------
# Criterion 5: correlation statistics against definitional oracles, with tie
# handling and two exact hand-worked anchors.
# ---------------------------------------------------------------------------


def test_correlations_match_definitional_oracles():
    anchors_ok = (
        pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == 0.5
        and spearman([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == -0.5
    )
    rng = np.random.default_rng(102)
    worst_r = 0.0
    worst_rho = 0.0
    n = 100
    for case in range(100):
        if case % 2 == 0:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        else:
            x = rng.integers(0, 8, size=n).astype(np.float64)
            y = rng.integers(0, 8, size=n).astype(np.float64)
        worst_r = max(worst_r, abs(pearson(x, y) - oracle_pearson(list(x), list(y))))
        expected_rho = oracle_pearson(oracle_ranks(list(x)), oracle_ranks(list(y)))
        worst_rho = max(worst_rho, abs(spearman(x, y) - expected_rho))
    report(
        "correlation-oracles",
        anchors_ok and worst_r <= 1e-12 and worst_rho <= 1e-12,
        f"anchors exact: {anchors_ok}; 100 length-100 cases (half with ties): "
        f"pearson worst |diff| {worst_r:.2e}, spearman worst |diff| {worst_rho:.2e} "
        f"(limit 1e-12)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: the inclusive decision rule at cosine >= 0.8, checked on pairs
# whose cosines are exactly the doubles 0.79, 0.80, and 0.81.
# ---------------------------------------------------------------------------


def test_paraphrase_threshold_boundary():
    # Each left vector has an exact integer norm of 100 (the second component
    # is sqrt(100^2 - k^2), and the rounding error in squaring it back is far
    # below half an ulp of 10000), so cosine against [100, 0] is exactly k/100.
    left = np.array(
        [
            [79.0, math.sqrt(10000.0 - 79.0**2)],
            [80.0, 60.0],
            [81.0, math.sqrt(10000.0 - 81.0**2)],
        ]
    )
    right = np.array([[100.0, 0.0]] * 3)
    exact = [cosine(left[i], right[i]) for i in range(3)]
    cosines_exact = exact == [0.79, 0.80, 0.81]

    accuracy = paraphrase_accuracy(
        EmbeddingBatch(left), EmbeddingBatch(right), [0, 1, 1], threshold=0.8
    )
    flipped = paraphrase_accuracy(
        EmbeddingBatch(left), EmbeddingBatch(right), [1, 0, 0], threshold=0.8
    )
    report(
        "threshold-boundary",
        cosines_exact and accuracy == 1.0 and flipped == 0.0,
        f"cosines exactly 0.79/0.80/0.81: {cosines_exact}; inclusive >= 0.8 rule "
        f"classifies them (no, yes, yes): {accuracy == 1.0 and flipped == 0.0}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: the 2-D projection keeps well-separated Gaussian blobs apart.
# ---------------------------------------------------------------------------


def test_tsne_separates_gaussian_blobs():
    started = time.perf_counter()
    rng = np.random.default_rng(17)
    dim, per_class = 16, 50
    offset = 5.0 / math.sqrt(2.0)
    points = []
    for c in range(3):
        center = np.zeros(dim)
        center[c] = offset
        points.append(center + 0.1 * rng.normal(size=(per_class, dim)))
    x = np.concatenate(points)
    labels = np.repeat(np.arange(3), per_class)
    center_gap = math.sqrt(2.0 * offset * offset)
    assert abs(center_gap - 5.0) < 1e-12

    p = joint_probabilities(x, perplexity=15.0)
    invariants_ok = (
        np.array_equal(p, p.T)
        and np.array_equal(np.diag(p), np.zeros(x.shape[0]))
        and bool((p >= 0.0).all())
        and abs(p.sum() - 1.0) <= 1e-9
    )

    config = TsneConfig(perplexity=15.0, iterations=1000, seed=0)
    first: dict[str, np.ndarray] = {}

    def capture(i: int, pts: np.ndarray) -> None:
        if i == 0:
            first["layout"] = pts.copy()

    out = run_tsne(x, config, on_iteration=capture)
    d2 = ((out[:, None, :] - out[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    knn = float((labels[np.argmin(d2, axis=1)] == labels).mean())
    kl_start = kl_divergence(p, first["layout"])
    kl_end = kl_divergence(p, out)
    elapsed = time.perf_counter() - started
    report(
        "tsne-separation",
        invariants_ok and knn >= 0.95 and kl_end < kl_start and elapsed < 120.0,
        f"P invariants ok: {invariants_ok}; 1-NN accuracy {knn:.3f} (floor 0.95); "
        f"KL {kl_start:.3f} -> {kl_end:.3f}; {elapsed:.0f}s (limit 120s)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: fixed seeds give bit-identical runs, and every file format
# round-trips exactly.
# ---------------------------------------------------------------------------


def test_bit_exact_determinism_and_round_trips(task, tmp_path):
    corpus = ParallelCorpus(pairs=task.train_corpus.pairs[:40])
    teacher = type(task.teacher_train)(
        embeddings=EmbeddingBatch(task.teacher_train.embeddings.vectors[:40])
    )
    config = TrainingConfig(loss="mse", epochs=2, batch_size=4, max_len=8, seed=9)

    ckpt_a = train(corpus, teacher, task.source_vocab, task.student_config, config)
    ckpt_b = train(corpus, teacher, task.source_vocab, task.student_config, config)
    path_a, path_b = tmp_path / "a.bemb", tmp_path / "b.bemb"
    save_checkpoint(ckpt_a, path_a)
    save_checkpoint(ckpt_b, path_b)
    trains_identical = path_a.read_bytes() == path_b.read_bytes()

    loaded = load_checkpoint(path_a)
    path_c = tmp_path / "c.bemb"
    save_checkpoint(loaded, path_c)
    checkpoint_stable = path_a.read_bytes() == path_c.read_bytes()

    texts = corpus.sources()[:10]
    before = embed(ckpt_a.params, task.source_vocab, texts, 8)
    after = embed(loaded.params, task.source_vocab, texts, 8)
    embeddings_stable = np.array_equal(before.vectors, after.vectors)

    five_tokens = [s for s in task.train_corpus.sources() if len(s.split()) == 5][:8]
    unpadded = embed(ckpt_a.params, task.source_vocab, five_tokens, 5)
    padded = embed(ckpt_a.params, task.source_vocab, five_tokens, 8)
    padding_inert = np.array_equal(unpadded.vectors, padded.vectors)

    teacher_path = tmp_path / "t.xlte"
    write_teacher_file(teacher, teacher_path)
    reread = read_teacher_file(teacher_path)
    teacher_path2 = tmp_path / "t2.xlte"
    write_teacher_file(reread, teacher_path2)
    teacher_stable = (
        teacher_path.read_bytes() == teacher_path2.read_bytes()
        and np.array_equal(reread.embeddings.vectors, teacher.embeddings.vectors)
    )

    vocab_path = tmp_path / "v.txt"
    save_vocab(task.source_vocab, vocab_path)
    vocab_path2 = tmp_path / "v2.txt"
    save_vocab(load_vocab(vocab_path), vocab_path2)
    vocab_stable = vocab_path.read_bytes() == vocab_path2.read_bytes()

    rng = np.random.default_rng(7)
    cloud = rng.normal(size=(12, 4))
    tsne_config = TsneConfig(perplexity=3.0, iterations=30, seed=4)
    tsne_stable = np.array_equal(run_tsne(cloud, tsne_config), run_tsne(cloud, tsne_config))

    report(
        "determinism-round-trips",
        trains_identical and checkpoint_stable and embeddings_stable
        and padding_inert and teacher_stable and vocab_stable and tsne_stable,
        f"train twice identical: {trains_identical}; checkpoint save/load/save "
        f"byte-stable: {checkpoint_stable}; embeddings after reload bit-equal: "
        f"{embeddings_stable}; padded vs unpadded forward bit-equal: "
        f"{padding_inert}; teacher file stable: {teacher_stable}; vocab file "
        f"stable: {vocab_stable}; projection deterministic: {tsne_stable}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: the warmup/decay schedule has exactly the documented shape.
# ---------------------------------------------------------------------------


def test_lr_schedule_shape():
    base = 5e-5
    anchors_ok = (
        lr_at(0, 1000, 0.1, base) == 0.0
        and lr_at(100, 1000, 0.1, base) == base
        and lr_at(1000, 1000, 0.1, base) == 0.0
        and abs(lr_at(50, 1000, 0.1, base) - 2.5e-5) <= 1e-15
    )
    worst = 0.0
    shape_ok = True
    for total, ratio in ((10, 0.1), (100, 0.1), (250, 0.06), (1000, 0.1), (1000, 0.25), (7, 0.5)):
        warmup = max(1, min(int(round(ratio * total)), total - 1))
        values = [lr_at(s, total, ratio, base) for s in range(total + 1)]
        shape_ok &= values[0] == 0.0 and values[total] == 0.0 and values[warmup] == base
        shape_ok &= values.index(max(values)) == warmup
        for s in range(total + 1):
            expected = (
                base * s / warmup if s <= warmup else base * (total - s) / (total - warmup)
            )
            worst = max(worst, abs(values[s] - expected))
    single = lr_at(0, 1, 0.1, base) == 0.0 and lr_at(1, 1, 0.1, base) == 0.0
    report(
        "lr-schedule",
        anchors_ok and shape_ok and single and worst <= 1e-15,
        f"worked example (0 -> 0, 100 -> base, 50 -> base/2, 1000 -> 0) exact: "
        f"{anchors_ok}; peak once at warmup, piecewise-linear worst "
        f"|diff| {worst:.1e} (limit 1e-15), one-step run pinned at zero: {single}",
    )
