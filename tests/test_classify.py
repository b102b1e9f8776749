import os
import re
import struct
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from handcam import classify, synth
from handcam.change import change_training_set, detect_candidates, train_change_model
from handcam.classify import (
    LinearModel,
    ModelFileError,
    TrainConfig,
    load_model,
    model_bytes,
    predict_frames,
    save_model,
    score_stream,
    train,
    train_binary,
    train_binary_grid,
    train_grid,
)
from handcam.core import Camera, FeatureStream, StateSequence
from handcam.crossval import CrossValPlan, CVResult, cross_validate
from handcam.features import write_features
from handcam.inference import decode_stream
from conftest import free_active, space_of, train_arrays
from test_features import float32_pair
from test_synth import orthonormal_centers


def two_blobs(seed=0, n_per=100, margin=5.0, sigma=1.0, dim=4):
    """Two Gaussian blobs separated by a true `margin`-sigma gap: noise on
    the first axis is folded away from the midplane, so the closest points
    of the two classes are margin*sigma apart."""
    rng = np.random.default_rng(seed)
    half = margin * sigma / 2.0
    n0 = rng.standard_normal((n_per, dim)) * sigma
    n1 = rng.standard_normal((n_per, dim)) * sigma
    x0 = n0.copy()
    x1 = n1.copy()
    x0[:, 0] = half + np.abs(n0[:, 0])
    x1[:, 0] = -half - np.abs(n1[:, 0])
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def training_objective(model, x, y_signs):
    """Per-class objective of a model on (n, D) features and (n, K) signs:
    the oracle for what training descends."""
    margins = y_signs * (x @ model.weights.T + model.bias)
    reg = 0.5 * model.config.c_reg * (model.weights * model.weights).sum(axis=1)
    return reg + np.maximum(0.0, 1.0 - margins).mean(axis=0)


class TestTrain:
    def test_separable_blobs_perfect(self):
        x, y = two_blobs()
        model = train_arrays(x, y, free_active())
        pred = np.argmax(x @ model.weights.T + model.bias, axis=1)
        assert (pred == y).mean() == 1.0

    def test_same_seed_byte_identical(self):
        x, y = two_blobs()
        cfg = TrainConfig(c_reg=1.0, epochs=150)
        a = train_arrays(x, y, free_active(), cfg)
        b = train_arrays(x, y, free_active(), cfg)
        assert model_bytes(a) == model_bytes(b)

    def test_duplicated_frames_same_predictions(self):
        x, y = two_blobs()
        xd, yd = np.vstack([x, x]), np.concatenate([y, y])
        a = train_arrays(x, y, free_active())
        b = train_arrays(xd, yd, free_active())
        pa = np.argmax(x @ a.weights.T + a.bias, axis=1)
        pb = np.argmax(x @ b.weights.T + b.bias, axis=1)
        assert np.array_equal(pa, pb)

    def test_single_class_rejected(self):
        x = np.zeros((5, 2))
        y = np.ones(5, dtype=int)
        with pytest.raises(ValueError, match="two distinct labels"):
            train_arrays(x, y, free_active())

    def test_nan_feature_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):  # a NaN, or either end of the range
            x = np.array([[bad, 0.0], [1.0, 1.0]])
            with pytest.raises(ValueError, match="finite"):
                train_arrays(x, np.array([0, 1]), free_active())

    def test_objective_final_le_initial(self):
        # the returned iterate never scores worse than the zero initializer
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((80, 5))
            y = rng.integers(0, 3, 80)
            if np.unique(y).size < 2:
                continue
            model = train_arrays(x, y, space_of(3), TrainConfig(c_reg=0.5, epochs=60))
            signs = np.full((80, 3), -1.0)
            signs[np.arange(80), y] = 1.0
            obj = training_objective(model, x, signs)
            assert np.all(obj <= 1.0 + 1e-12)  # objective at w = 0, b = 0 is 1

    def test_unusable_c_rejected(self):
        # NaN passed a `c_reg <= 0` test, and 1 / 1e-320 overflows to inf;
        # each trained an all-zero model
        for c in (0.0, -1.0, float("nan"), float("inf"), 1e-320):
            with pytest.raises(ValueError, match="c_reg"):
                TrainConfig(c_reg=c)
        assert TrainConfig(c_reg=1e-300).c_reg == 1e-300

    def test_training_arrays_checked(self):
        x, y = np.arange(12.0).reshape(4, 3), np.array([0, 1, 0, 1])
        for bad_x, bad_y in ((x[:, 0], y), (x, y[:3]), (x, y[:, None])):
            with pytest.raises(ValueError,
                               match=re.escape("expected (n, D) features and (n,) labels")):
                train_binary(bad_x, bad_y, 1)
        for bad in (np.nan, np.inf):
            x_bad = x.copy()
            x_bad[2, 1] = bad
            with pytest.raises(ValueError, match="training features must be finite"):
                train_binary(x_bad, y, 1)
        for row_folds in (np.zeros(3, dtype=int), np.zeros((4, 1), dtype=int)):
            with pytest.raises(ValueError, match="expected one fold index per training row"):
                train_binary_grid(x, y, 1, row_folds, 2, (1.0,), 5)

    def test_float32_streams_train_their_float64_upcast_models(self):
        # streams as read from feature files (float32, aligned or not)
        # against their float64 upcast: train, train_grid and the change grid
        centers = synth.random_centers(3, 24, 5)
        videos = [synth.gen_feature_stream(centers, seed=i, n_frames=300, min_dwell=10,
                                           noise_sigma=1.5, label_space=space_of(3),
                                           video_id=f"v{i}") for i in range(4)]
        pairs = [float32_pair(s.values, aligned=i % 2 == 0) for i, (s, _) in enumerate(videos)]
        truths = [t for _, t in videos]
        s32, s64 = [p[0] for p in pairs], [p[1] for p in pairs]
        cfg = TrainConfig(c_reg=0.5, epochs=20)
        assert model_bytes(train(s32, truths, cfg)) == model_bytes(train(s64, truths, cfg))
        row_folds = np.repeat(np.arange(4), 300)
        for a, b in zip(*(sum(train_grid(s, truths, row_folds, 4, [0.1, 1.0], 20), [])
                          for s in (s32, s64))):
            assert model_bytes(a) == model_bytes(b)
        grids = []
        for s in (s32, s64):
            x, y, _ = change_training_set(s, truths, 3)
            grids.append(sum(train_binary_grid(x, y, 3, np.arange(y.size) % 3, 3, [0.1, 1.0], 20),
                             []))
        for a, b in zip(*grids):
            assert model_bytes(a) == model_bytes(b)

    def test_train_on_streams(self):
        x, y = two_blobs(seed=5)
        space = free_active()
        streams = [FeatureStream("v0", Camera.RIGHT_HAND, 6.0, x)]
        truths = [StateSequence(space, y)]
        model = train(streams, truths)
        assert model.label_space == space
        assert predict_frames(model, streams[0]).tolist() == y.tolist()


def parent_solve(x, y_signs, c_reg, epochs):
    """The solver as it was with one scalar C for every column, verbatim."""
    n, d = x.shape
    k = y_signs.shape[1]
    w = np.zeros((k, d))
    b = np.zeros(k)
    best_w, best_b = w.copy(), b.copy()
    best_obj = np.full(k, np.inf)
    for t in range(epochs + 1):
        margins = y_signs * (x @ w.T + b)
        obj = 0.5 * c_reg * (w * w).sum(axis=1) + np.maximum(0.0, 1.0 - margins).mean(axis=0)
        better = obj < best_obj
        best_w[better] = w[better]
        best_b[better] = b[better]
        best_obj[better] = obj[better]
        if t == epochs:
            break
        active = np.where(margins < 1.0, y_signs, 0.0)
        eta = 1.0 / (c_reg * (t + 1))
        w = (1.0 - eta * c_reg) * w + (eta / n) * (active.T @ x)
        b = b + (eta / n) * active.sum(axis=0)
    return best_w, best_b, best_obj


def parent_masked_solve(x, y_signs, c_regs, epochs):
    """The solver with one C per column and zero signs, before the lean
    epoch, verbatim: the reference every solve must equal byte for byte."""
    left_out = y_signs == 0.0
    n = np.count_nonzero(y_signs, axis=0).astype(np.float64)
    if not np.all(n):
        raise ValueError("every column needs at least one training row")
    k, d = y_signs.shape[1], x.shape[1]
    w = np.zeros((k, d))
    b = np.zeros(k)
    best_w, best_b = w.copy(), b.copy()
    best_obj = np.full(k, np.inf)
    work = np.empty(y_signs.shape)  # margins, then hinge terms, then active signs
    for t in range(epochs + 1):
        np.matmul(x, w.T, out=work)
        work += b
        work *= y_signs
        np.subtract(1.0, work, out=work)
        np.maximum(0.0, work, out=work)
        np.copyto(work, 0.0, where=left_out)
        obj = 0.5 * c_regs * (w * w).sum(axis=1) + work.sum(axis=0) / n
        better = obj < best_obj
        best_w[better] = w[better]
        best_b[better] = b[better]
        best_obj[better] = obj[better]
        if t == epochs:
            break
        active = work > 0.0  # 1 - margin > 0 exactly where margin < 1
        work.fill(0.0)
        np.copyto(work, y_signs, where=active)
        eta = 1.0 / (c_regs * (t + 1))
        w = (1.0 - eta * c_regs)[:, None] * w + (eta / n)[:, None] * (work.T @ x)
        b = b + (eta / n) * work.sum(axis=0)
    return best_w, best_b, best_obj


def reference_solve(x, y_signs, c_regs, epochs):
    """The solver with frames on BLAS's row side, verbatim: (k, n) signs,
    margins as w @ x.T and each column's hinge terms summed pairwise as one
    contiguous row. The reference for the shapes where BLAS rounds the
    transposed products differently from `parent_masked_solve`, or where the
    objective's pairwise sum differs from its row-order sum."""
    in_problem = y_signs != 0.0  # the 1 of 1 - margin, as a bool
    n = np.count_nonzero(in_problem, axis=1).astype(np.float64)
    if not np.all(n):
        raise ValueError("every column needs at least one training row")
    k, d = y_signs.shape[0], x.shape[1]
    w = np.zeros((k, d))
    b = np.zeros(k)
    best_w, best_b = w.copy(), b.copy()
    best_obj = np.full(k, np.inf)
    work = np.empty(y_signs.shape)  # margins, then hinge terms, then active signs
    ones = np.ones(y_signs.shape[1])
    for t in range(epochs + 1):
        np.matmul(w, x.T, out=work)  # frames on BLAS's row side: x is not packed whole
        work += b[:, None]
        work *= y_signs
        np.subtract(in_problem, work, out=work)
        np.maximum(0.0, work, out=work)
        obj = 0.5 * c_regs * (w * w).sum(axis=1) + work.sum(axis=1) / n
        better = obj < best_obj
        best_w[better] = w[better]
        best_b[better] = b[better]
        best_obj[better] = obj[better]
        if t == epochs:
            break
        np.greater(work, 0.0, out=work)  # 1 - margin > 0 exactly where margin < 1
        work *= y_signs
        work += 0.0  # an inactive -1 row gives -0.0; the gradient sums +0.0
        eta = 1.0 / (c_regs * (t + 1))
        w = (1.0 - eta * c_regs)[:, None] * w + (eta / n)[:, None] * (work @ x)
        b = b + (eta / n) * (work @ ones)  # integer sums of -1, +0, +1: exact in any order
    return best_w, best_b, best_obj


def rows(signs):
    """(n, k) sign columns as (k, n) sign rows, one contiguous row each."""
    return np.ascontiguousarray(signs.T)


def solve_columns(x, signs, c_regs, epochs):
    """The solver on (n, k) sign columns with one C each, taken as the k
    classes of one fold under one C row."""
    return classify._solve_subgradient(x, rows(signs)[None, None], c_regs[None], epochs)


def parent_fit(x, y_signs, held_out, space, c_grid, epochs, d=None):
    """`classify._fit` as it was, solving every class column, verbatim but
    for the reference solver; every model records d."""
    configs = [TrainConfig(c, epochs) for c in c_grid]
    (n, k), folds = y_signs.shape, held_out.shape[1]
    signs = np.empty((n, folds, len(configs), k))
    signs[...] = y_signs[:, None, None, :]
    signs[held_out] = 0.0
    w, b, _ = parent_masked_solve(
        x, signs.reshape(n, -1), np.tile(np.repeat(c_grid, k), folds), epochs
    )
    w, b = w.reshape(folds, len(configs), k, -1), b.reshape(folds, len(configs), k)
    return [[LinearModel(wc, bc, space, cfg, d) for wc, bc, cfg in zip(wf, bf, configs)]
            for wf, bf in zip(w, b)]


def fold_signs(signs, folds, c_grid):
    """Sign columns tiled fold-major, then C, each fold's rows signed 0
    in its own columns (rows go to folds round robin; one fold holds out
    none), and their Cs; then the same problem as the solver takes it: one
    (k, n) block of sign rows per fold, shared by the C grid, and the Cs as
    a column."""
    n, k = signs.shape
    held_out = (np.arange(n) % folds)[:, None] == np.arange(folds) if folds > 1 else (
        np.zeros((n, 1), dtype=bool))
    tiled = np.empty((n, folds, len(c_grid), k))
    tiled[...] = signs[:, None, None, :]
    tiled[held_out] = 0.0
    per_fold = np.where(held_out.T[:, None, None, :], 0.0, rows(signs))
    return (tiled.reshape(n, -1), np.tile(np.repeat(c_grid, k), folds),
            per_fold, np.array(c_grid)[:, None])


def same_bytes(a, b):
    return all(u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
               for u, v in zip(a, b, strict=True))


def one_vs_rest(y, k):
    signs = np.full((y.size, k), -1.0)
    signs[np.arange(y.size), y] = 1.0
    return signs


def seeded_states(seed, k, n=150, dim=7):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    x = rng.standard_normal((n, dim)) + 1.5 * rng.standard_normal((k, dim))[y]
    return x, y


C_GRID = (0.01, 0.1, 1.0, 10.0)


class TestGridSolve:
    """Every C of a grid solved as column blocks of one run."""

    def test_one_c_matches_scalar_solver_bytes(self, monkeypatch):
        widths = []
        solve = classify._solve_subgradient

        def counted(x, signs, c_regs, epochs):
            widths.append(signs.shape[0] * c_regs.shape[0] * signs.shape[2])
            return solve(x, signs, c_regs, epochs)

        monkeypatch.setattr(classify, "_solve_subgradient", counted)
        for k, c in product(range(2, 14), (0.01, 1.0, 10.0)):
            x, y = seeded_states(k, k)
            cfg = TrainConfig(c_reg=c, epochs=40)
            w, b, _ = parent_solve(x, one_vs_rest(y, k), c, cfg.epochs)
            assert model_bytes(train_arrays(x, y, space_of(k), cfg)) == model_bytes(
                LinearModel(w, b, space_of(k), cfg))
            assert widths[-1] == k  # a single K=2 model solves both columns
            space = free_active() if k == 2 else None
            if space is not None:
                model = train(
                    [FeatureStream("v", Camera.HEAD, 6.0, x)], [StateSequence(space, y)], cfg
                )
                assert model_bytes(model) == model_bytes(LinearModel(w, b, space, cfg))
        for seed, c in product(range(6), (0.01, 1.0, 10.0)):
            x, y = seeded_states(seed, 2)
            cfg = TrainConfig(c_reg=c, epochs=40)
            w, b, _ = parent_solve(x, (2.0 * y - 1.0)[:, None], c, cfg.epochs)
            assert model_bytes(train_binary(x, y, 2, cfg)) == model_bytes(
                LinearModel(w, b, None, cfg, 2))

    def test_change_model_matches_scalar_solver_bytes(self):
        pairs = synth_cv_videos(2, ramp=3, sigma=0.4, n_videos=3)
        streams, truths = [s for s, _ in pairs], [t for _, t in pairs]
        cfg = TrainConfig(c_reg=0.1, epochs=30)
        x, y, _ = change_training_set(streams, truths, 4)
        w, b, _ = parent_solve(x, (2.0 * y - 1.0)[:, None], cfg.c_reg, cfg.epochs)
        model = train_change_model(streams, truths, 4, cfg)
        assert model_bytes(model) == model_bytes(LinearModel(w, b, None, cfg, d=4))

    def test_each_c_block_matches_its_own_solve(self):
        for k in range(2, 8):
            x, y = seeded_states(10 + k, k)
            space = free_active() if k == 2 else space_of(k)
            truth = StateSequence(space, y)
            stream = FeatureStream("v", Camera.HEAD, 6.0, x)
            (grid,) = train_grid([stream], [truth], None, 1, C_GRID, 40)
            assert [m.config for m in grid] == [TrainConfig(c, 40) for c in C_GRID]
            for c, model in zip(C_GRID, grid):
                alone = train([stream], [truth], TrainConfig(c, 40))
                assert model.label_space == space and model.weights.shape == (k, 7)
                assert np.allclose(model.weights, alone.weights, rtol=1e-12, atol=1e-13)
                assert np.allclose(model.bias, alone.bias, rtol=1e-12, atol=1e-13)
                assert np.all(training_objective(model, x, one_vs_rest(y, k)) <= 1.0)
        for seed in range(4):
            x, y = seeded_states(seed, 2)
            (grid,) = train_binary_grid(x, y, 5, None, 1, C_GRID, 40)
            for c, model in zip(C_GRID, grid):
                alone = train_binary(x, y, 5, TrainConfig(c, 40))
                assert model.is_binary and model.config.c_reg == c and model.d == 5
                assert np.allclose(model.weights, alone.weights, rtol=1e-12, atol=1e-13)
                assert np.allclose(model.bias, alone.bias, rtol=1e-12, atol=1e-13)
                assert training_objective(model, x, (2.0 * y - 1.0)[:, None])[0] <= 1.0


class TestSolverExactness:
    """The solver and `_fit` keep the reference's bytes: (w, b, objective)
    of every column, and every model of a K=2 grid whose class 1 is the
    negation of a solved class 0. The reference is `parent_masked_solve`,
    or `reference_solve` where the objective's sum order moved or BLAS
    rounds the transposed products differently at that shape."""

    def test_fold_grids_match_reference_bytes(self):
        for k, folds, seed in product(range(2, 7), (1, 3, 5), (0, 1)):
            x, y = seeded_states(20 * k + seed, k)
            signs, c_regs, per_fold, c_column = fold_signs(one_vs_rest(y, k), folds, C_GRID)
            expected = reference_solve(x, rows(signs), c_regs, 30)
            assert same_bytes(classify._solve_subgradient(x, per_fold, c_column, 30), expected)

    def test_random_zero_signs_match_reference_bytes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((90, 6))
        signs = np.where(rng.random((90, 7)) < 0.5, 1.0, -1.0)
        signs[rng.random((90, 7)) < 0.3] = 0.0
        c_regs = np.array([0.01, 0.1, 1.0, 10.0, 0.5, 3.0, 1e-3])
        expected = reference_solve(x, rows(signs), c_regs, 25)
        assert same_bytes(solve_columns(x, signs, c_regs, 25), expected)

    def test_column_with_no_active_rows_matches_reference_bytes(self):
        # separable rows and a small C: after the first step every margin is
        # at least 1, so no row is active and the active sign of each -1 row
        # is -1 * False = -0.0, which the reference held as +0.0
        x, y = two_blobs(seed=3, n_per=30, margin=6.0, dim=3)
        signs = (1.0 - 2.0 * y)[:, None] * np.array([1.0, -1.0])
        signs[::7, 1] = 0.0
        c_regs = np.array([0.01, 0.01])
        n = np.count_nonzero(signs, axis=0)
        w1, b1 = (signs.T @ x) / (c_regs * n)[:, None], signs.sum(axis=0) / (c_regs * n)
        margins = signs * (x @ w1.T + b1)
        assert np.all(margins[signs != 0.0] >= 1.0)
        expected = parent_masked_solve(x, signs, c_regs, 20)
        assert same_bytes(solve_columns(x, signs, c_regs, 20), expected)

    def test_k2_grids_match_reference_fit_bytes(self):
        # the halved solve pairs class 0 with its negation, a zero weight
        # (a feature that is 0 on every row) staying +0.0 in both
        for seed, folds, c_grid in product(range(3), (1, 2, 5), ((0.1, 1.0), C_GRID, (1e6,))):
            x, y = seeded_states(seed, 2)
            x[:, 3] = 0.0
            row_folds = np.arange(y.size) % folds if folds > 1 else None
            x, y, held_out = classify._training_input(x, y, row_folds, folds)
            got = classify._fit(x, y, range(2), held_out, free_active(), c_grid, 30)
            expected = parent_fit(x, one_vs_rest(y, 2), held_out, free_active(), c_grid, 30)
            assert [[model_bytes(m) for m in f] for f in got] == [
                [model_bytes(m) for m in f] for f in expected
            ]

    def test_wide_grid_matches_reference_bytes(self):
        # 120 columns at 400 x 9: BLAS rounds w @ x.T differently from x @ w.T here
        x, y = seeded_states(7, 6, n=400, dim=9)
        signs, c_regs, per_fold, c_column = fold_signs(one_vs_rest(y, 6), 5, C_GRID)
        assert signs.shape[1] == 120
        expected = reference_solve(x, rows(signs), c_regs, 25)
        assert same_bytes(classify._solve_subgradient(x, per_fold, c_column, 25), expected)

    def test_long_solves_match_reference_bytes(self):
        # more rows than numpy's 8,192-element buffer, in one and in three columns
        rng = np.random.default_rng(8)
        x = rng.standard_normal((9000, 5)) * np.array([0.01, 1.0, 100.0, 1.0, 3.0])
        signs = np.where(x[:, :3] + rng.standard_normal((9000, 3)) > 0.0, 1.0, -1.0)
        signs[rng.random((9000, 3)) < 0.2] = 0.0
        for cols in (slice(0, 1), slice(0, 3)):
            c_regs = np.array([0.01, 0.3, 5.0])[cols]
            expected = parent_masked_solve(x, signs[:, cols], c_regs, 8)
            got = solve_columns(x, signs[:, cols], c_regs, 8)
            assert same_bytes(got, expected)

    def test_one_column_solves_match_reference_bytes(self):
        # a lone column is contiguous, so its hinge terms sum pairwise
        for seed, n, c in product(range(4), (9, 130, 1000, 9000), (0.1, 1.0)):
            x, y = seeded_states(seed, 2, n=n)
            signs = (2.0 * y - 1.0)[:, None]
            signs[::5] = 0.0
            c_regs = np.array([c])
            expected = parent_masked_solve(x, signs, c_regs, 30)
            assert same_bytes(solve_columns(x, signs, c_regs, 30), expected)

    def test_k24_single_model_matches_reference_fit_bytes(self):
        x, y = seeded_states(24, 24, n=600, dim=12)
        x, y, held_out = classify._training_input(x, y, None, 1)
        ((got,),) = classify._fit(x, y, range(24), held_out, space_of(24), (0.5,), 30)
        w, b, _ = reference_solve(x, rows(one_vs_rest(y, 24)), np.full(24, 0.5), 30)
        assert model_bytes(got) == model_bytes(
            LinearModel(w, b, space_of(24), TrainConfig(0.5, 30)))

    def test_workload_shapes_match_column_reference_weights(self):
        # with the frames as BLAS's rows, weights and biases keep the (n, k)
        # products' bits at the workloads' shapes: 1,200-frame videos,
        # cv-auto's 7,200 rows with 5 folds x 4 C, 8,000 rows, K=24, D=512
        for n, d in product((1_200, 7_200, 8_000), (64, 512)):
            x, y = seeded_states(n + d, 24, n=n, dim=d)
            binary = (2.0 * (y % 2) - 1.0)[:, None]
            for k in (1, 2, 20, 24):
                if k == 20:
                    signs, c_regs, per_fold, c_column = fold_signs(binary, 5, C_GRID)
                    got = classify._solve_subgradient(x, per_fold, c_column, 4)
                else:
                    signs = one_vs_rest(y % k, k) if k > 1 else binary
                    c_regs = np.full(k, 0.5)
                    got = solve_columns(x, signs, c_regs, 4)
                expected = parent_masked_solve(x, signs, c_regs, 4)
                assert same_bytes(got[:2], expected[:2]), (n, d, k)


# `classify._solve_subgradient` as it was with an `in_problem` mask, a
# `+= 0.0` pass and a matrix-vector bias gradient, verbatim: the reference
# for the epoch that marks rows outside a column's problem by zero signs alone
def parent_solve_subgradient(
    x: np.ndarray, signs: np.ndarray, c_regs: np.ndarray, epochs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-objective iterate of subgradient descent, per column. signs is
    (folds, 1, classes, n), one contiguous row of signs per fold and class,
    shared by every C; c_regs is (|C|, 1), one C per row, or (|C|, classes).
    The columns are ordered fold, then C, then class, and the (k, n) work
    buffer is viewed as (folds, |C|, classes, n) wherever the signs enter.
    A sign of 0 leaves the frame out of the column's problem: its hinge term
    is 0 - margin * 0 = +0 (so it is never active) and the mean divides by
    its fold's count of non-zero signs. Without zero signs these are exactly
    the float steps of a plain mean."""
    folds, _, classes, rows = signs.shape
    grid = (folds, c_regs.shape[0], classes)
    in_problem = signs != 0.0  # the 1 of 1 - margin, as a bool
    n = np.count_nonzero(in_problem, axis=-1).astype(np.float64)  # (folds, 1, classes)
    if not np.all(n):
        raise ValueError("every column needs at least one training row")
    n = np.broadcast_to(n, grid).reshape(-1)
    c_regs = np.broadcast_to(c_regs, grid).reshape(-1)
    k, d = n.size, x.shape[1]
    w = np.zeros((k, d))
    b = np.zeros(k)
    best_w, best_b = w.copy(), b.copy()
    best_obj = np.full(k, np.inf)
    work = np.empty((k, rows))  # margins, then hinge terms, then active signs
    grid_work = work.reshape(*grid, rows)  # a view: the signs broadcast over C
    ones = np.ones(rows)
    for t in range(epochs + 1):
        np.matmul(w, x.T, out=work)  # frames on BLAS's row side: x is not packed whole
        work += b[:, None]
        grid_work *= signs
        np.subtract(in_problem, grid_work, out=grid_work)
        np.maximum(0.0, work, out=work)
        obj = 0.5 * c_regs * (w * w).sum(axis=1) + work.sum(axis=1) / n
        better = obj < best_obj
        best_w[better] = w[better]
        best_b[better] = b[better]
        best_obj[better] = obj[better]
        if t == epochs:
            break
        np.greater(work, 0.0, out=work)  # 1 - margin > 0 exactly where margin < 1
        grid_work *= signs
        work += 0.0  # an inactive -1 row gives -0.0; the gradient sums +0.0
        eta = 1.0 / (c_regs * (t + 1))
        w = (1.0 - eta * c_regs)[:, None] * w + (eta / n)[:, None] * (work @ x)
        b = b + (eta / n) * (work @ ones)  # integer sums of -1, +0, +1: exact in any order
    return best_w, best_b, best_obj


def fold_sign_rows(y, positives, folds):
    """(folds, 1, classes, n) sign rows as `_fit` builds them: +1 on the
    rows of each positive label, -1 elsewhere, and +0 on the rows a fold
    holds out (round robin; one fold holds out none)."""
    held_out = ((np.arange(y.size) % folds)[:, None] == np.arange(folds) if folds > 1
                else np.zeros((y.size, 1), dtype=bool))
    signs = np.where(y == np.asarray(positives)[:, None], 1.0, -1.0)
    return np.where(held_out.T[:, None, None, :], 0.0, signs[None, None])


class TestEpochMatchesParent:
    """The epoch takes the hinge as s * (s - margin), and zero signs alone
    mark the rows outside a column's problem. Every best (w, b) keeps the
    parent's bytes, and the objectives compare equal (a zero objective may
    differ only in the sign of zero, and `_fit` discards it)."""

    @staticmethod
    def check(x, signs, c_regs, epochs):
        got = classify._solve_subgradient(x, signs, c_regs, epochs)
        want = parent_solve_subgradient(x, signs, c_regs, epochs)
        assert same_bytes(got[:2], want[:2])
        assert np.array_equal(got[2], want[2])
        return got

    def test_one_column(self):
        # k = 1: BLAS's matrix-vector path
        for seed, n in product(range(3), (9, 130, 1_200)):
            x, y = seeded_states(seed, 2, n=n)
            self.check(x, fold_sign_rows(y, (1,), 1), np.array([[0.1]]), 30)

    def test_two_unpaired_columns(self):
        # a single two-state model solves both of its columns
        for seed, c in product(range(4), (0.1, 1.0)):
            x, y = seeded_states(seed, 2)
            self.check(x, fold_sign_rows(y, (0, 1), 1), np.array([[c]]), 30)

    def test_paired_fold_grid(self):
        # cv-auto's shape: class 0 of 5 folds x 4 C, each fold's rows signed 0
        for seed in range(3):
            x, y = seeded_states(seed, 2, n=1_200, dim=16)
            self.check(x, fold_sign_rows(y, (0,), 5), np.array(C_GRID)[:, None], 30)

    def test_k24_one_vs_rest(self):
        # long-video's state model
        x, y = seeded_states(24, 24, n=1_200, dim=16)
        self.check(x, fold_sign_rows(y, range(24), 1), np.array([[0.1]]), 20)

    def test_zero_start_stays_best_at_small_c(self):
        # at C = 0.01 the first step overshoots and no later iterate beats
        # the zero start, as for cv-auto's chosen change model
        x, y = seeded_states(3, 2, n=300, dim=16)
        w, b, _ = self.check(x, fold_sign_rows(y, (1,), 5), np.array([[0.01], [1.0]]), 30)
        w, b = w.reshape(5, 2, -1), b.reshape(5, 2)
        assert not np.any(w[:, 0]) and not np.any(b[:, 0])
        assert np.all(np.any(w[:, 1], axis=-1))

    def test_integer_features_with_ties(self):
        # values in {-1, 0, 1} and dyadic steps put margins at exactly 1,
        # so the hinge terms of -1 rows there are -0
        rng = np.random.default_rng(11)
        for _, folds in product(range(6), (1, 4)):
            x = rng.integers(-1, 2, (64, 3)).astype(np.float64)
            y = rng.integers(0, 3, 64)
            self.check(x, fold_sign_rows(y, range(3), folds),
                       np.array([[1 / 64], [0.125], [0.5], [1.0]]), 12)


def tiled_fit(x, y_signs, held_out, space, c_grid, epochs, d=None):
    """`classify._fit` with its sign rows tiled fold-major, then C, one row
    per column, verbatim but for the reference solver: the reference for
    the sign rows that one fold shares across the C grid. Every model
    records d."""
    configs = [TrainConfig(c, epochs) for c in c_grid]
    (n, k), folds = y_signs.shape, held_out.shape[1]
    paired = k == 2 and folds * len(configs) >= 2
    solved = 1 if paired else k
    signs = np.empty((folds, len(configs), solved, n))
    signs[...] = y_signs.T[:solved]
    np.copyto(signs, 0.0, where=held_out.T[:, None, None, :])
    w, b, _ = reference_solve(
        x, signs.reshape(-1, n), np.tile(np.repeat(c_grid, solved), folds), epochs
    )
    w, b = w.reshape(folds, len(configs), solved, -1), b.reshape(folds, len(configs), solved)
    if paired:
        w, b = np.concatenate([w, 0.0 - w], axis=2), np.concatenate([b, 0.0 - b], axis=2)
    return [[LinearModel(wc, bc, space, cfg, d) for wc, bc, cfg in zip(wf, bf, configs)]
            for wf, bf in zip(w, b)]


def grid_bytes(grid):
    return [[model_bytes(m) for m in fold] for fold in grid]


class TestPerFoldSigns:
    """One sign row per fold and class, shared by every C of the grid,
    trains the models of the tiled sign rows (`tiled_fit`) byte for byte."""

    @pytest.mark.parametrize("k, folds, c_grid", [
        (2, 5, C_GRID),  # a paired grid: class 1 negates class 0
        (2, 1, (0.5,)),  # a single model solves both columns
        (3, 5, C_GRID),
        (13, 5, C_GRID),
        (24, 5, C_GRID),
        (3, 1, C_GRID),  # no folds
        (24, 1, C_GRID),
    ])
    def test_state_grids_match_tiled_signs(self, k, folds, c_grid):
        x, y = seeded_states(100 + k, k, n=40 * k, dim=9)
        space = free_active() if k == 2 else space_of(k)
        truth = StateSequence(space, y)
        row_folds = np.arange(y.size) % folds if folds > 1 else None
        got = train_grid([FeatureStream("v", Camera.HEAD, 6.0, x)], [truth], row_folds, folds,
                         c_grid, 25)
        x64, y64, held_out = classify._training_input(x, y, row_folds, folds)
        expected = tiled_fit(x64, one_vs_rest(y64, k), held_out, space, c_grid, 25)
        assert grid_bytes(got) == grid_bytes(expected)

    @pytest.mark.parametrize("folds, c_grid", [(5, C_GRID), (1, C_GRID), (1, (0.5,))])
    def test_binary_grids_match_tiled_signs(self, folds, c_grid):
        x, y = seeded_states(7, 2, n=300, dim=6)
        row_folds = np.arange(y.size) % folds if folds > 1 else None
        x64, y64, held_out = classify._training_input(x, y, row_folds, folds)
        expected = tiled_fit(x64, (2.0 * y64 - 1.0)[:, None], held_out, None, c_grid, 25, 4)
        assert grid_bytes(train_binary_grid(x, y, 4, row_folds, folds, c_grid, 25)) == grid_bytes(
            expected)
        if len(c_grid) == 1:  # the one-column path
            model = train_binary(x, y, 4, TrainConfig(c_grid[0], 25))
            assert model_bytes(model) == model_bytes(expected[0][0])

    def test_memory_holds_the_work_buffer_and_one_sign_row_block_per_fold(self, traced_peak):
        # K=24, 5 folds x 4 C: 480 columns share 5 blocks of 24 sign rows.
        # The peak is 19.8-20.8 MiB against a bound of 21.8 MiB; the rest
        # is the bool in-problem mask, the (columns, D) iterates and first-
        # call allocations. Tiling the sign rows per column peaked at 33.9
        # MiB: a second work-sized array, and its bool copy.
        n, d, k, folds = 4_000, 16, 24, 5
        x, y = seeded_states(24, k, n=n, dim=d)
        stream = FeatureStream("v", Camera.HEAD, 6.0, x)
        truth = StateSequence(space_of(k), y)
        peak, grid = traced_peak(train_grid, [stream], [truth], np.arange(n) % folds, folds,
                                 C_GRID, 2)
        assert len(grid) == folds and all(len(models) == len(C_GRID) for models in grid)
        work, signs = 8 * folds * len(C_GRID) * k * n, 8 * folds * k * n
        assert peak <= work + x.nbytes + signs + 3 * 2**20, peak / 2**20


# The growth of the high-water mark over one product of n x D frames with
# k weight rows, in bytes, in a fresh process at 2 BLAS threads: a solve
# (argv "solve n D k"), a scoring (argv "score n D k"), or the reading and
# scoring of a feature file (argv "read path D k"). VmHWM is the process's
# own mark; the ru_maxrss of a child starts at its parent's.
HIGH_WATER_GROWTH = """
import sys
import numpy as np
from handcam import classify
from handcam.core import Camera, FeatureStream, LabelSpace, Task
from handcam.features import read_features

def high_water():
    with open("/proc/self/status") as f:
        return 1024 * next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

what = sys.argv[1]
rng = np.random.default_rng(0)
if what == "read":
    path, (d, k) = sys.argv[2], map(int, sys.argv[3:])
else:
    n, d, k = map(int, sys.argv[2:])
    x = rng.standard_normal((n, d))
    x.setflags(write=False)
    signs = np.where(rng.random((1, 1, k, n)) < 0.5, 1.0, -1.0)
    stream = FeatureStream("v", Camera.HEAD, 6.0, x)
space = LabelSpace(Task.GESTURE, tuple(f"s{i}" for i in range(k)), 0)
model = classify.LinearModel(rng.standard_normal((k, d)), np.ones(k), space, classify.TrainConfig())
np.ones((4, 4)) @ np.ones((4, 4))  # BLAS sets up before the baseline
before = high_water()
if what == "solve":
    classify._solve_subgradient(x, signs, np.ones((1, k)), 2)
elif what == "read":
    classify.score_stream(model, read_features(path))
else:
    classify.score_stream(model, stream)
print(high_water() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
class TestProductMemory:
    """With the frames on BLAS's column side (x @ w.T), OpenBLAS at 2 threads
    packed all of x.T into its buffer; as rows it packs a block at a time."""

    @staticmethod
    def growth(*argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(classify.__file__).parents[1]), *sys.path]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "2"
        out = subprocess.run([sys.executable, "-c", HIGH_WATER_GROWTH, *map(str, argv)], env=env,
                             capture_output=True, text=True, check=True).stdout
        return int(out)

    def test_solve_does_not_pack_the_whole_feature_matrix(self):
        # cv-auto's 20 columns at D=512 (MB = 2^20 B): x is 28.1 MB, and
        # packing it whole grew the mark by 16.5 MB; now 2.8 MB, of which
        # the work array is 1.1 MB
        growth = self.growth("solve", 7_200, 512, 20)
        assert growth < 6 * 2**20, growth / 2**20

    def test_scoring_holds_the_margins_and_a_block(self):
        # long-video's scoring: the margins are 7.3 MB, and the mark grows
        # by 7.1-7.4 MB; packing the 19.5 MB of frames whole made it 21.5 MB
        growth = self.growth("score", 40_000, 64, 24)
        assert growth < 1.5 * 40_000 * 24 * 8, growth / 2**20


    @staticmethod
    def feature_file(path, n, d):
        """Write an n x d feature file of random float32 values, 2,000 rows
        at a time: files written in writes of one size start alike in the
        page cache, so the pages a fault maps around a block match too."""
        write_features(FeatureStream("v", Camera.HEAD, 6.0, np.zeros((1, d))), path)
        header = path.read_bytes()[:-4 * d]
        with open(path, "wb") as f:
            f.write(header[:-8] + struct.pack("<II", n, d))
            for lo in range(0, n, 2_000):
                f.write(np.random.default_rng(lo).standard_normal((min(n - lo, 2_000), d),
                                                                  dtype=np.float32))
        return path

    def test_reading_and_scoring_hold_the_file_and_a_block(self, tmp_path):
        # a 20,000 x 512 feature file (41 MB of payload) read and scored by
        # a K=24 model. The mark grows by 1.21x the payload: the last block
        # (7,712 frames) upcast to float64 is 0.77x and its float32 pages
        # 0.39x. Reading the file's bytes whole grew it by 1.83x, and a
        # float64 copy of the payload by 3x
        n, d = 20_000, 512
        growth = self.growth("read", self.feature_file(tmp_path / "wide.feat", n, d), d, 24)
        assert growth < 1.4 * n * d * 4, growth / (n * d * 4)

    def test_reading_and_scoring_grow_with_the_margins_not_the_file(self, tmp_path):
        # two lengths whose largest block (the last, 5,096 frames) is the
        # same: between them the (N, K) margins grow by 27.5 MB and the file
        # by 36.7 MB. The file's pages are given back block by block, so
        # only the margins' growth shows (1.5% more on a 2-vCPU Xeon, Linux
        # 6.18). At D=256 and 20 blocks the two peaks differ more in their
        # make-up (the short one is at the first, largest block) and read
        # 8-9% over the margins' growth: too close to the bound
        d, k = 64, 24
        short, long = 4_096 * 5 + 1_000, 4_096 * 40 + 1_000
        growth = [self.growth("read", self.feature_file(tmp_path / f"{n}.feat", n, d), d, k)
                  for n in (short, long)]
        margins = (long - short) * k * 8
        assert growth[1] - growth[0] <= 1.1 * margins, (growth[1] - growth[0]) / margins


class TestNumpyColumnSums:
    """The solver sums each column's hinge terms as one contiguous row of a
    (k, n) array, which must give the bits of that row's own 1-D sum for
    any k. A numpy release that changes this order fails here, not by
    moving model bytes."""

    def test_row_sums_match_one_row_sum_bytes(self):
        rng = np.random.default_rng(10)
        for cols, rows in product((1, 2, 3, 20, 24, 121), (1, 7, 9, 128, 129, 8192, 8193, 12_000)):
            a = rng.standard_normal((cols, rows)) * 10.0 ** rng.uniform(-8.0, 8.0, (cols, rows))
            a[rng.random((cols, rows)) < 0.3] = 0.0
            for values in (a, np.maximum(0.0, a)):  # signed, and hinge-like
                expected = np.array([row.sum() for row in values])
                assert values.sum(axis=1).tobytes() == expected.tobytes()


def frames(values):
    return FeatureStream("v", Camera.HEAD, 6.0, np.atleast_2d(np.asarray(values, dtype=np.float64)))


# Prints the (N, K, D) shapes at which score_stream on a float32 stream,
# aligned or not, differs in any bit from the float64 product of the whole
# stream (the scoring before frames were upcast a block at a time).
BLOCKED_SCORES = """
from itertools import product
import numpy as np
from handcam.classify import LinearModel, TrainConfig, score_stream
from handcam.core import Camera, FeatureStream, LabelSpace, Task

rng = np.random.default_rng(0)
for n, d in product((4_095, 4_096, 8_191, 8_192, 8_193, 40_000), (7, 64, 512)):
    if n * d > 5_000_000:
        continue
    pad = b"\\0" if n % 2 else b""  # an odd N reads an unaligned payload
    values = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d)
    v32 = np.frombuffer(pad + values.astype("<f4").tobytes(), dtype="<f4", offset=len(pad))
    stream = FeatureStream("v", Camera.HEAD, 6.0, v32.reshape(n, d))
    for k in (2, 24):
        w, b = rng.standard_normal((k, d)), rng.standard_normal(k)
        space = LabelSpace(Task.GESTURE, tuple(f"s{i}" for i in range(k)), 0)
        got = score_stream(LinearModel(w, b, space, TrainConfig()), stream)
        want = w @ stream.values.astype(np.float64).T
        want += b[:, None]
        if got.tobytes() != want.T.tobytes():
            print(n, k, d)
"""


class TestScore:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_float32_blocks_match_the_whole_float64_product_bytes(self, threads):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(classify.__file__).parents[1]), *sys.path]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        out = subprocess.run([sys.executable, "-c", BLOCKED_SCORES], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "", out

    def test_bias_passthrough(self):
        model = LinearModel(np.zeros((2, 3)), np.array([1.0, -1.0]), free_active(), TrainConfig())
        assert score_stream(model, frames(np.zeros(3))).tolist() == [[1.0, -1.0]]

    def test_linearity(self):
        rng = np.random.default_rng(1)
        model = LinearModel(rng.standard_normal((2, 3)), np.zeros(2), free_active(), TrainConfig())
        f = rng.standard_normal(3)
        assert np.allclose(score_stream(model, frames(2.0 * f)), 2.0 * score_stream(model, frames(f)))

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros((2, 3)), np.zeros(2), free_active(), TrainConfig())
        with pytest.raises(ValueError, match="dim"):
            score_stream(model, frames(np.zeros(4)))

    def test_one_row_model_rejected(self):
        # a binary change model scores through detect_candidates, not here
        change_model = train_binary(*two_blobs(seed=7), 3, TrainConfig(epochs=5))
        for score in (score_stream, predict_frames):
            with pytest.raises(ValueError, match="multiclass state model"):
                score(change_model, frames(np.zeros(4)))

    def test_memory_holds_one_margin_matrix(self, traced_peak):
        # the bias is added in place into the product
        rng = np.random.default_rng(6)
        model = LinearModel(rng.standard_normal((24, 32)), rng.standard_normal(24), space_of(24),
                            TrainConfig())
        stream = frames(rng.standard_normal((20_000, 32)))
        peak, margins = traced_peak(score_stream, model, stream)
        assert np.array_equal(margins, stream.values @ model.weights.T + model.bias)
        assert peak < 1.5 * margins.nbytes

    def test_frames_as_rows_match_the_column_product_bytes(self):
        # long-video's 40,000 x 64 x 24 scoring and a 1,200-frame K=2 video
        rng = np.random.default_rng(12)
        for n, d, k in ((40_000, 64, 24), (1_200, 64, 2)):
            model = LinearModel(rng.standard_normal((k, d)), rng.standard_normal(k), space_of(k),
                                TrainConfig())
            stream = frames(rng.standard_normal((n, d)))
            margins = score_stream(model, stream)
            assert margins.shape == (n, k)
            assert margins.tobytes() == (stream.values @ model.weights.T + model.bias).tobytes()

    def test_trained_frame_argmax_is_label(self):
        x, y = two_blobs(seed=2)
        model = train_arrays(x, y, free_active())
        assert np.array_equal(np.argmax(score_stream(model, frames(x)), axis=1), y)


class TestPredictFrames:
    def test_all_equal_scores_pick_zero(self):
        model = LinearModel(np.zeros((3, 2)), np.zeros(3), space_of(3), TrainConfig())
        stream = FeatureStream("v", Camera.HEAD, 6.0, np.ones((4, 2)))
        assert predict_frames(model, stream).tolist() == [0, 0, 0, 0]

    def test_single_frame(self):
        model = LinearModel(np.eye(2), np.zeros(2), free_active(), TrainConfig())
        stream = FeatureStream("v", Camera.HEAD, 6.0, np.array([[0.0, 1.0]]))
        states = predict_frames(model, stream)
        assert states.dtype == np.int64 and states.tolist() == [1]

    def test_argmax_shift_invariance(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 4))
        stream = FeatureStream("v", Camera.HEAD, 6.0, rng.standard_normal((20, 4)))
        a = predict_frames(LinearModel(w, np.zeros(3), space_of(3), TrainConfig()), stream)
        b = predict_frames(LinearModel(w, np.full(3, 11.5), space_of(3), TrainConfig()), stream)
        assert np.array_equal(a, b)


class TestLinearModel:
    def test_weights_and_bias_shapes_checked(self):
        for w, b in ((np.ones(3), np.zeros(1)), (np.ones((2, 3)), np.zeros(3)),
                     (np.ones((2, 3)), np.zeros((2, 1))), (np.ones((1, 2, 3)), np.zeros(1))):
            with pytest.raises(ValueError,
                               match=re.escape("weights must be (K, D) with matching bias")):
                LinearModel(w, b, free_active(), TrainConfig())

    def test_non_finite_parameters_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            w, b = np.zeros((2, 3)), np.zeros(2)
            w[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                LinearModel(w, np.zeros(2), free_active(), TrainConfig())
            b[1] = bad
            with pytest.raises(ValueError, match="finite"):
                LinearModel(np.zeros((2, 3)), b, free_active(), TrainConfig())

    def test_binary_model_needs_a_d_and_other_kinds_take_none(self):
        w, b = np.ones((1, 3)), np.zeros(1)
        with pytest.raises(ValueError, match="only binary change models carry a d"):
            LinearModel(w, b, None, TrainConfig())
        for d in (0, -1):
            with pytest.raises(ValueError, match="d must be >= 1"):
                LinearModel(w, b, None, TrainConfig(), d)
        assert LinearModel(w, b, None, TrainConfig(), 2).d == 2
        with pytest.raises(ValueError, match="only binary change models carry a d"):
            LinearModel(np.ones((2, 3)), np.zeros(2), free_active(), TrainConfig(), 2)
        # without a label space, a model of two rows is no change model, with a d or without
        for d in (2, None):
            with pytest.raises(ValueError, match="without a label space is a change model"):
                LinearModel(np.ones((2, 3)), np.zeros(2), None, TrainConfig(), d)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        x, y = two_blobs(seed=4)
        model = train_arrays(x, y, free_active(), TrainConfig(c_reg=0.1, epochs=50))
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.label_space == model.label_space
        assert loaded.config == model.config
        assert model_bytes(loaded) == model_bytes(model)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 3))
        y = (x[:, 0] > 0).astype(int)
        model = train_binary(x, y, 3)
        path = tmp_path / "c.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.is_binary
        assert np.array_equal(loaded.weights, model.weights)

    def test_unknown_kind_rejected(self, tmp_path):
        # kind 2 was a multiclass model with no label space
        data = bytearray(model_bytes(train_binary(*two_blobs(seed=7), 3, TrainConfig(epochs=5))))
        path = tmp_path / "bad.bin"
        for kind in (2, 3):
            data[8] = kind  # kind byte: after the 4-byte magic and the u32 version
            path.write_bytes(bytes(data))
            with pytest.raises(ModelFileError, match=f"unknown model kind {kind}"):
                load_model(path)

    def test_impossible_shape_rejected(self, tmp_path):
        model = train_binary(*two_blobs(seed=7), 3, TrainConfig(epochs=5))
        data = bytearray(model_bytes(model))
        shape_at = len(data) - 8 * (model.weights.size + model.bias.size) - 8  # the (k, d) u32s
        assert struct.unpack_from("<II", data, shape_at) == model.weights.shape
        data[shape_at : shape_at + 8] = b"\xff" * 8
        path = tmp_path / "huge.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFileError, match="shape"):
            load_model(path)

    def test_change_model_records_d(self, tmp_path):
        pairs = synth_cv_videos(0, ramp=0, sigma=0.5, n_videos=2)
        model = train_change_model([s for s, _ in pairs], [t for _, t in pairs], 4,
                                   TrainConfig(epochs=20))
        assert model.d == 4
        path = tmp_path / "change.bin"
        save_model(model, path)
        assert load_model(path).d == 4
        state = train_arrays(*two_blobs(seed=8), free_active(), TrainConfig(epochs=5))
        save_model(state, path)
        assert load_model(path).d is None

    def test_version_1_file_is_rejected(self, tmp_path):
        # a version-1 file's u64 held an unused seed, so its change models record no d
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 3))
        model = train_binary(x, (x[:, 0] > 0).astype(int), 3, TrainConfig(epochs=10))
        data = bytearray(model_bytes(model))
        data[4:8] = (1).to_bytes(4, "little")  # version
        data[21:29] = (7).to_bytes(8, "little")  # the v1 seed slot, not a d
        path = tmp_path / "v1.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFileError, match="unsupported version 1"):
            load_model(path)

    def test_parameters_are_read_only_views_of_the_file(self, tmp_path):
        model = train_arrays(*two_blobs(seed=4), free_active(), TrainConfig(epochs=5))
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        for arr in (loaded.weights, loaded.bias):
            base = arr
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base, bytes) and not arr.flags.writeable
        assert model_bytes(loaded) == model_bytes(model)

def synth_cv_videos(seed, ramp, sigma, n_videos=5, k=3):
    centers = orthonormal_centers(k, 6, seed * 13 + 5)
    pairs = []
    for i in range(n_videos):
        pairs.append(synth.gen_feature_stream(
            centers, seed=seed * 100 + i, n_frames=240, min_dwell=24, noise_sigma=sigma,
            label_space=space_of(k), transition_ramp=ramp, video_id=f"v{i}"))
    return pairs


class TestCrossValidate:
    def test_singleton_grid(self):
        pairs = synth_cv_videos(0, ramp=0, sigma=0.5)
        plan = CrossValPlan(c_grid=(0.1,), d_grid=(3,), lambda_grid=(1.0,))
        res = cross_validate(pairs, plan, 60)
        assert res.chosen == {"C": 0.1, "d": 3, "lambda": 1.0}
        assert len(res.table) == 1

    def test_unusable_grid_rejected(self):
        nan, inf = float("nan"), float("inf")
        for grids, match in (
            ({"lambda_grid": (1.0, nan)}, "lambda"),
            ({"lambda_grid": (inf,)}, "lambda"),
            ({"lambda_grid": (-0.5,)}, "lambda"),
            ({"c_grid": (0.1, nan)}, "c_reg"),
            ({"c_grid": (1e-320,)}, "c_reg"),
            ({"d_grid": (0, 3)}, "d grid"),
            ({"folds": 1}, "^folds must be >= 2$"),
        ):
            with pytest.raises(ValueError, match=match):
                CrossValPlan(**grids)

    def test_too_few_videos(self):
        pairs = synth_cv_videos(0, ramp=0, sigma=0.5, n_videos=4)
        with pytest.raises(ValueError, match="explicit hyperparameters"):
            cross_validate(pairs, CrossValPlan())

    def test_tie_break_smallest_cell(self):
        # constant features everywhere: every cell scores identically
        space3 = space_of(3)
        pairs = []
        for i in range(5):
            vals = np.ones((60, 4))
            stream = FeatureStream(f"v{i}", Camera.HEAD, 6.0, vals)
            truth = StateSequence(space3, np.zeros(60, dtype=int))
            pairs.append((stream, truth))
        # constant labels would break training, so alternate one frame label
        fixed = []
        for stream, truth in pairs:
            states = truth.states.copy()
            states[:20] = 1
            fixed.append((stream, StateSequence(space3, states)))
        plan = CrossValPlan(c_grid=(0.01, 0.1), d_grid=(3, 6), lambda_grid=(0.1, 0.3))
        res = cross_validate(fixed, plan, 20)
        accs = {mean_accuracy for *_, mean_accuracy in res.table}
        assert len(accs) == 1  # identical scores everywhere
        assert res.chosen == {"C": 0.01, "d": 3, "lambda": 0.1}

    def test_planted_half_width_selected(self):
        # the feature ramp spans +-6 frames; CV should find d = 6 in most seeds
        plan = CrossValPlan(c_grid=(0.1,), d_grid=(3, 6, 9, 12), lambda_grid=(1.0,))
        hits = 0
        for seed in range(20):
            pairs = synth_cv_videos(seed, ramp=6, sigma=0.15)
            res = cross_validate(pairs, plan, 150)
            hits += res.chosen["d"] == 6
        assert hits >= 16  # >= 80% of 20 seeds

    def test_full_table_emitted(self):
        pairs = synth_cv_videos(1, ramp=0, sigma=0.5)
        plan = CrossValPlan(c_grid=(0.1, 1.0), d_grid=(3, 6), lambda_grid=(0.5, 1.0))
        res = cross_validate(pairs, plan, 40)
        assert [row[:3] for row in res.table] == list(
            product(plan.c_grid, plan.d_grid, plan.lambda_grid))
        assert all(0.0 <= mean_accuracy <= 1.0 for *_, mean_accuracy in res.table)

    def test_grid_solves_match_per_c_cross_validation(self):
        plan = CrossValPlan(c_grid=C_GRID, d_grid=(3, 6), lambda_grid=(0.1, 1.0, 10.0))
        for seed, ramp, sigma in ((3, 0, 0.6), (4, 4, 0.3), (5, 2, 0.9)):
            pairs = synth_cv_videos(seed, ramp=ramp, sigma=sigma)
            expected = per_c_cross_validate(pairs, plan, 40)
            assert cross_validate(pairs, plan, 40) == expected

    def test_k2_matches_reference_cross_validation(self, monkeypatch):
        # free/active: the state solve halves, and every cell must come out
        # as it did when both classes were solved
        space = free_active()
        plan = CrossValPlan(c_grid=C_GRID, d_grid=(3, 6), lambda_grid=(0.1, 1.0, 10.0))
        for seed, n_videos in ((0, 5), (1, 6), (2, 7), (3, 5)):
            pairs = list(synth.gen_feature_set(seed, 2, 6, 180, 15, 0.9,
                                               [f"v{i}" for i in range(n_videos)],
                                               transition_ramp=2, label_space=space))
            with monkeypatch.context() as m:
                m.setattr(classify, "_fit", lambda x, y, positives, *rest: parent_fit(
                    x, one_vs_rest(y, 2)[:, positives], *rest))
                expected = cross_validate(pairs, plan, 40)
            assert cross_validate(pairs, plan, 40) == expected

    def test_one_solver_run_per_d(self, monkeypatch):
        calls = []
        solve = classify._solve_subgradient

        def counted(x, signs, c_regs, epochs):
            columns = signs.shape[0] * c_regs.shape[0] * signs.shape[2]
            calls.append((sorted(set(c_regs.ravel())), x.shape[0], columns))
            return solve(x, signs, c_regs, epochs)

        monkeypatch.setattr(classify, "_solve_subgradient", counted)
        plan = CrossValPlan(c_grid=C_GRID, d_grid=(3, 6), lambda_grid=(1.0,))
        for k in (2, 3):
            calls.clear()
            pairs = synth_cv_videos(1, ramp=0, sigma=0.5, k=k)
            cross_validate(pairs, plan, 5)
            assert len(calls) == 1 + len(plan.d_grid)
            assert all(cs == list(C_GRID) for cs, _, _ in calls)
            # every video's rows, one column block per fold, C and class;
            # with two classes only class 0 is solved
            frames = sum(s.n_frames for s, _ in pairs)
            columns = plan.folds * len(C_GRID)
            state_columns = columns if k == 2 else columns * k
            assert [shape for _, *shape in calls] == [[frames, state_columns]] + [
                [frames - 2 * d * len(pairs), columns] for d in plan.d_grid
            ]


def per_c_cross_validate(videos, plan, epochs):
    """Cross-validation as it was, with a state solve and a change solve
    per C, kept verbatim as the reference for the grid solves."""
    videos = sorted(videos, key=lambda pair: pair[0].video_id)
    folds = [videos[i :: plan.folds] for i in range(plan.folds)]
    cells = {key: [] for key in product(plan.c_grid, plan.d_grid, plan.lambda_grid)}
    for fold in folds:
        val_ids = {s.video_id for s, _ in fold}
        train_streams = [s for s, _ in videos if s.video_id not in val_ids]
        train_truths = [t for s, t in videos if s.video_id not in val_ids]
        total = sum(len(t) for _, t in fold)
        for c in plan.c_grid:
            cfg = TrainConfig(c_reg=c, epochs=epochs)
            state_model = train(train_streams, train_truths, cfg)
            unaries = [score_stream(state_model, s) for s, _ in fold]
            for d in plan.d_grid:
                change_model = train_change_model(train_streams, train_truths, d, cfg)
                correct = np.zeros(len(plan.lambda_grid), dtype=np.int64)
                for (stream, truth), unary in zip(fold, unaries):
                    cands, _ = detect_candidates(stream, change_model)
                    decoded = decode_stream(stream, unary, cands, plan.lambda_grid)
                    correct += [int(np.sum(states == truth.states)) for states in decoded]
                for lam, n_correct in zip(plan.lambda_grid, correct):
                    cells[(c, d, lam)].append(int(n_correct) / total)
    table = []
    best_key = None
    best_acc = -1.0
    for key in product(plan.c_grid, plan.d_grid, plan.lambda_grid):
        accs = cells[key]
        mean_acc = float(np.mean(accs))
        table.append((*key, mean_acc))
        if mean_acc > best_acc:
            best_acc = mean_acc
            best_key = key
    return CVResult({"C": best_key[0], "d": best_key[1], "lambda": best_key[2]}, tuple(table))
