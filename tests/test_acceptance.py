"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rP`) to see the
per-criterion lines.
"""

import hashlib
import json
import time
from itertools import product

import numpy as np

from handcam import change, classify, discovery, inference, synth
from handcam.alignment import compute_pixel_stats, median_as_image, ncc_match
from handcam.cli import run_pipeline
from handcam.core import (
    Camera, FeatureStream, LabelSpace, StateSequence, Task, run_starts, save_label_space,
)
from handcam.features import read_features, write_features
from handcam.media import Image, load_ppm, save_ppm


def _report(line):
    print(f"ACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# 1. DP optimality against exhaustive enumeration


def _make_problem(rng):
    n = int(rng.integers(2, 11))  # N <= 10
    k = int(rng.integers(1, 5))  # K <= 4
    m = int(rng.integers(0, min(4, n - 1) + 1))
    cand = np.sort(rng.choice(np.arange(1, n), size=m, replace=False)).astype(int)
    unary = rng.uniform(-1.0, 1.0, (n, k))
    sims = rng.uniform(-1.0, 1.0, m)
    angles = np.concatenate([[0.0], np.cumsum(np.arccos(sims))])
    feats = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    lam = [0.1, 1.0, 10.0][int(rng.integers(0, 3))]
    return inference.InferenceProblem(unary, cand, feats), lam


def test_criterion_1_dp_optimality():
    rng = np.random.default_rng(2024)
    start = time.time()
    for _ in range(200):
        problem, lam = _make_problem(rng)
        decoded = inference.decode(problem, lam)
        dp_score = inference.score_sequence(problem, decoded, lam)
        bounds = inference.segment_bounds(problem.n_frames, problem.candidates)
        lengths = np.diff(bounds)
        best = float("-inf")
        for combo in product(range(problem.num_states), repeat=len(lengths)):
            states = np.repeat(np.array(combo, dtype=np.int64), lengths)
            best = max(best, inference.score_sequence(problem, states, lam))
        assert dp_score == best  # exact equality
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(f"1 DP optimality: 200/200 exact matches in {elapsed:.2f}s: PASS")


# ---------------------------------------------------------------------------
# 2. degenerate reductions


def test_criterion_2_degenerate_reductions():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, k = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        unary = rng.uniform(-1, 1, (n, k))
        sims = rng.uniform(-1, 1, n - 1)
        angles = np.concatenate([[0.0], np.cumsum(np.arccos(sims))])
        feats = [np.array([np.cos(a), np.sin(a)]) for a in angles]
        all_cand = inference.InferenceProblem(unary, np.arange(1, n), feats)
        assert np.array_equal(
            inference.decode(all_cand, 0.0).states, np.argmax(unary, axis=1)
        )
        no_cand = inference.InferenceProblem(
            unary, np.array([], dtype=int), [np.ones(2)]
        )
        decoded = inference.decode(no_cand, 1.0).states
        assert len(set(decoded.tolist())) == 1
        assert decoded[0] == int(np.argmax(unary.sum(axis=0)))
    _report("2 degenerate reductions (lambda=0 argmax, forced constant): PASS")


# ---------------------------------------------------------------------------
# 3. full model beats unary on the seeded benchmark


def test_criterion_3_unary_to_full_improvement():
    start = time.time()
    d, lam = 3, 1.0
    cfg = classify.TrainConfig(c_reg=0.1, epochs=150)
    unary_accs, full_accs = [], []
    for seed in range(20):
        centers = synth.orthonormal_centers(3, 6, seed * 7 + 1)
        pairs = []
        for i in range(5):
            scfg = synth.SynthConfig(
                seed=seed * 100 + i, num_states=3, dim=6, n_frames=240,
                min_dwell=20, centers=centers, noise_sigma=0.6,
            )
            pairs.append(synth.gen_feature_stream(scfg, video_id=f"v{i}"))
        state_model = classify.train([s for s, _ in pairs[:4]], [t for _, t in pairs[:4]], cfg)
        test_stream, test_truth = pairs[4]
        unary = classify.score_stream(state_model, test_stream)
        unary_accs.append(float(np.mean(np.argmax(unary, 1) == test_truth.states)))
        change_model = change.train_change_model(
            [s for s, _ in pairs[:4]], [t for _, t in pairs[:4]], d, cfg
        )
        cands = change.detect_candidates(test_stream, change_model, d)
        segf = inference.segment_features(test_stream, cands)
        decoded = inference.decode(inference.InferenceProblem(unary, cands, segf), lam)
        full_accs.append(float(np.mean(decoded.states == test_truth.states)))
    elapsed = time.time() - start
    med_u, med_f = float(np.median(unary_accs)), float(np.median(full_accs))
    assert 0.70 <= med_u <= 0.90  # noise level keeps unary in the target band
    assert med_f - med_u >= 0.02
    assert elapsed < 60.0
    _report(
        f"3 unary-to-full: median unary {med_u:.3f}, full {med_f:.3f}, "
        f"gap {100 * (med_f - med_u):.1f}pp in {elapsed:.1f}s: PASS"
    )


# ---------------------------------------------------------------------------
# 4. alignment recovery, Laplace stats properties


def test_criterion_4_alignment_recovery():
    scales = (0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 1)
        s = scales[int(rng.integers(0, 7))]
        hand = synth.textured_patch(24, 24, seed=seed)
        w, h = 120, 90
        sw, sh = round(s * w), round(s * h)
        dx = int(rng.integers(1, min(84, sw - 25)))
        dy = int(rng.integers(1, min(84, sh - 25)))
        videos, _ = synth.gen_video_set(
            hand, [synth.VideoSpec("v", s, dx, dy)], (w, h),
            n_frames=9, noise_sigma=60.0, jitter=1, seed=seed,
        )
        stats = compute_pixel_stats(videos["v"])
        match = ncc_match(hand, median_as_image(stats), scales)
        hits += match.scale == s and abs(match.dx - dx) <= 2 and abs(match.dy - dy) <= 2
    assert hits >= 95

    # constant video: diversity identically zero
    rng = np.random.default_rng(0)
    frame = Image(rng.integers(0, 256, (20, 30, 3), dtype=np.uint8))
    stats = compute_pixel_stats([frame] * 6)
    assert np.all(stats.diversity_image == 0.0)

    # median L1-optimality on 10^4 random pixel series
    rng = np.random.default_rng(1)
    series = rng.integers(0, 256, size=(10_000, 7)).astype(np.float64)
    med = np.median(series, axis=1, keepdims=True)
    best = np.abs(series - med).sum(axis=1)
    for _ in range(100):
        c = rng.uniform(0, 255, size=(10_000, 1))
        assert np.all(best <= np.abs(series - c).sum(axis=1) + 1e-9)
    _report(f"4 alignment recovery {hits}/100, beta==0 on constant video, median L1-optimal: PASS")


# ---------------------------------------------------------------------------
# 5. change detection properties


def test_criterion_5_change_detection():
    # exact time-reversal symmetry of the change feature
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, dim, d = int(rng.integers(9, 60)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        vals = rng.standard_normal((n, dim))
        s = FeatureStream("v", Camera.RIGHT_HAND, 6.0, vals)
        s_rev = FeatureStream("v", Camera.RIGHT_HAND, 6.0, vals[::-1])
        for i in range(d, n - d):
            assert np.array_equal(
                change.change_feature(s, i, d),
                change.change_feature(s_rev, n - 1 - i, d),
            )

    # NMS separation and local-maximality on 10^3 random confidence tracks
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(5, 80))
        radius = int(rng.integers(1, 8))
        conf = rng.standard_normal(n)
        cands = change.suppress_non_maxima(np.arange(n), conf, radius)
        kept = cands.frame_indices
        if kept.size > 1:
            assert np.all(np.diff(kept) > radius)
        for i, c in zip(kept, cands.confidences):
            assert c >= conf[max(0, i - radius) : i + radius + 1].max()

    # 100% recall of true transitions on high-SNR streams over 50 seeds
    d = 3
    cfg = classify.TrainConfig(c_reg=0.1, epochs=150)
    misses = 0
    for seed in range(50):
        centers = synth.orthonormal_centers(3, 6, seed + 900)  # separation 10x sigma
        pairs = []
        for i in range(4):
            scfg = synth.SynthConfig(
                seed=seed * 37 + i, num_states=3, dim=6, n_frames=200,
                min_dwell=20, centers=centers, noise_sigma=0.14,
            )
            pairs.append(synth.gen_feature_stream(scfg, video_id=f"v{i}"))
        model = change.train_change_model(
            [s for s, _ in pairs[:3]], [t for _, t in pairs[:3]], d, cfg
        )
        cands = change.detect_candidates(pairs[3][0], model, d)
        for t in run_starts(pairs[3][1].states)[1:]:
            if not np.any(np.abs(cands.frame_indices - t) <= d):
                misses += 1
    assert misses == 0
    _report("5 change detection (cf symmetry, NMS invariants, recall 100%): PASS")


# ---------------------------------------------------------------------------
# 6. classifier contract


def test_criterion_6_classifier():
    # separable two-blob set: 5-sigma gap, 200 frames
    rng = np.random.default_rng(5)
    n0 = rng.standard_normal((100, 4))
    n1 = rng.standard_normal((100, 4))
    n0[:, 0] = 2.5 + np.abs(n0[:, 0])
    n1[:, 0] = -2.5 - np.abs(n1[:, 0])
    x = np.vstack([n0, n1])
    y = np.array([0] * 100 + [1] * 100)
    space = LabelSpace.free_active()
    cfg = classify.TrainConfig(c_reg=1.0, epochs=200)
    model = classify.train_arrays(x, y, space, cfg)
    pred = np.argmax(x @ model.weights.T + model.bias, axis=1)
    assert float(np.mean(pred == y)) == 1.0

    model2 = classify.train_arrays(x, y, space, cfg)
    assert classify.model_bytes(model) == classify.model_bytes(model2)

    stream = FeatureStream("v", Camera.RIGHT_HAND, 6.0, rng.standard_normal((50, 4)))
    shifted = classify.LinearModel(model.weights, model.bias + 42.0, space, cfg)
    assert np.array_equal(
        classify.predict_frames(model, stream).states,
        classify.predict_frames(shifted, stream).states,
    )
    _report("6 classifier (100% separable, byte-identical rerun, shift invariance): PASS")


# ---------------------------------------------------------------------------
# 7. modified purity


def test_criterion_7_purity():
    labels = ("free", "cup", "kettle") + tuple(f"obj{i:02d}" for i in range(21))
    space = LabelSpace(Task.OBJECT_CATEGORY, labels, 0)
    cup, kettle = space.index_of("cup"), space.index_of("kettle")

    truth = StateSequence(space, np.array([cup, cup, 0, 0, 0, kettle]))
    segs = [
        discovery.Segment("v", i, i + 1, 1, np.array([1.0, 0.0])) for i in range(6)
    ]
    clustering = discovery.Clustering(2, np.array([0, 0, 0, 1, 1, 1]), ())
    purity = discovery.modified_purity(clustering, segs, {"v": truth})
    assert abs(purity - 2.0 / 3.0) < 1e-12

    # purity in [0, 1] on 10^3 random clusterings
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n_frames = int(rng.integers(6, 30))
        t = StateSequence(space, rng.integers(0, 5, n_frames))
        if not np.any(t.states != 0):
            continue
        cuts = np.sort(rng.choice(np.arange(1, n_frames), 3, replace=False))
        bounds = [0, *cuts.tolist(), n_frames]
        rsegs = [
            discovery.Segment("v", a, b, 1, rng.standard_normal(2))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        raw = rng.integers(0, len(rsegs), len(rsegs))
        used = np.unique(raw)
        assignment = np.array([int(np.nonzero(used == c)[0][0]) for c in raw])
        rc = discovery.Clustering(len(used), assignment, ())
        p = discovery.modified_purity(rc, rsegs, {"v": t})
        assert 0.0 <= p <= 1.0

    # perfect clustering of pure per-category segments scores 1
    truth2 = StateSequence(space, np.array([cup, cup, kettle, kettle]))
    segs2 = [
        discovery.Segment("v", 0, 2, 1, np.array([1.0, 0.0])),
        discovery.Segment("v", 2, 4, 1, np.array([0.0, 1.0])),
    ]
    c2 = discovery.Clustering(2, np.array([0, 1]), ())
    assert discovery.modified_purity(c2, segs2, {"v": truth2}) == 1.0
    _report("7 purity (hand example 2/3, bounded on random, perfect = 1): PASS")


# ---------------------------------------------------------------------------
# 8. formats and pipeline reproducibility


def test_criterion_8_formats_and_pipeline(tmp_path):
    rng = np.random.default_rng(8)

    feat_a = tmp_path / "a.feat"
    feat_b = tmp_path / "b.feat"
    stream = FeatureStream("vid", Camera.HEAD, 6.0, rng.standard_normal((12, 5)))
    write_features(stream, feat_a)
    write_features(read_features(feat_a), feat_b)
    assert feat_a.read_bytes() == feat_b.read_bytes()

    ppm_a = tmp_path / "a.ppm"
    ppm_b = tmp_path / "b.ppm"
    ppm_a.write_bytes(b"P6\n6 4\n255\n" + rng.integers(0, 256, 72, dtype=np.uint8).tobytes())
    save_ppm(load_ppm(ppm_a), ppm_b)
    assert ppm_a.read_bytes() == ppm_b.read_bytes()

    labels = ("free",) + tuple(f"g{i:02d}" for i in range(1, 13))
    save_label_space(LabelSpace(Task.GESTURE, labels, 0), tmp_path / "labels.txt")
    config = {
        "seed": 11,
        "label_space": "labels.txt",
        "synth": {"train_videos": 4, "test_videos": 2, "frames": 200, "states": 3,
                  "dim": 6, "min_dwell": 20, "noise_sigma": 0.6},
        "hyperparameters": {"C": 0.1, "d": 3, "lambda": 1.0},
        "training": {"epochs": 120},
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(config))
    run_pipeline(cfg_path, tmp_path / "run1")
    run_pipeline(cfg_path, tmp_path / "run2")
    trees = []
    for run in ("run1", "run2"):
        tree = {
            str(p.relative_to(tmp_path / run)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / run).rglob("*"))
            if p.is_file()
        }
        trees.append(tree)
    assert trees[0] == trees[1]
    _report(f"8 formats round-trip and pipeline rerun identical ({len(trees[0])} artifacts): PASS")
