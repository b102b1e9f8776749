"""Cross-validation as fold-stacked solves: one state solve and one change
solve per d for every fold and C, checked against one solve per fold."""

import re
from itertools import product

import numpy as np
import pytest

from handcam import classify, synth
from handcam.change import change_training_set, check_d, detect_candidates
from handcam.classify import (
    TrainConfig,
    score_stream,
    train_binary,
    train_binary_grid,
    train_grid,
)
from handcam.cli import main
from handcam.core import Camera, FeatureStream, StateSequence
from handcam.crossval import CrossValPlan, CVCell, CVResult, cross_validate
from handcam.features import write_features
from handcam.inference import check_lam, decode_stream
from conftest import free_active, train_arrays
from test_core import save_label_space
from test_synth import orthonormal_centers

C_GRID = (0.01, 0.1, 1.0, 10.0)


def videos(seed, n_videos, k=3, dim=6, n_frames=120, ramp=2, sigma=0.6):
    centers = orthonormal_centers(k, dim, seed * 13 + 5)
    pairs = []
    for i in range(n_videos):
        cfg = synth.SynthConfig(
            seed=seed * 100 + i, num_states=k, dim=dim, n_frames=n_frames + 7 * i,
            min_dwell=12, centers=centers, noise_sigma=sigma, transition_ramp=ramp,
        )
        pairs.append(synth.gen_feature_stream(cfg, video_id=f"v{i}"))
    return pairs


def labeled(video_id, states, dim=4, seed=0):
    states = np.asarray(states, dtype=np.int64)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((states.size, dim)) + np.eye(dim)[states % dim]
    return (FeatureStream(video_id, Camera.HEAD, 6.0, values),
            StateSequence(None, states, num_states=3))


def per_fold_cross_validate(videos, plan, epochs):
    """Cross-validation with a state solve and a change solve per d in each
    fold, as it was before the folds shared a solve; verbatim apart from
    the [fold][C] results of the grid trainers."""
    videos = sorted(videos, key=lambda pair: pair[0].video_id)
    folds = [videos[i :: plan.folds] for i in range(plan.folds)]
    cells = {key: [] for key in product(plan.c_grid, plan.d_grid, plan.lambda_grid)}
    for fold in folds:
        val_ids = {s.video_id for s, _ in fold}
        train_streams = [s for s, _ in videos if s.video_id not in val_ids]
        train_truths = [t for s, t in videos if s.video_id not in val_ids]
        total = sum(len(t) for _, t in fold)
        (state_models,) = train_grid(train_streams, train_truths, None, 1, plan.c_grid, epochs)
        unaries = [[score_stream(m, s) for s, _ in fold] for m in state_models]
        for d in plan.d_grid:
            x, y, _ = change_training_set(train_streams, train_truths, d)
            (change_models,) = train_binary_grid(x, y, d, None, 1, plan.c_grid, epochs)
            for c, change_model, c_unaries in zip(plan.c_grid, change_models, unaries):
                correct = np.zeros(len(plan.lambda_grid), dtype=np.int64)
                for (stream, truth), unary in zip(fold, c_unaries):
                    cands = detect_candidates(stream, change_model).frame_indices
                    decoded = decode_stream(stream, unary, cands, plan.lambda_grid)
                    correct += [int(np.sum(seq.states == truth.states)) for seq in decoded]
                for lam, n_correct in zip(plan.lambda_grid, correct):
                    cells[(c, d, lam)].append(int(n_correct) / total)
    table = tuple(CVCell(*key, float(np.mean(accs))) for key, accs in cells.items())
    best = max(table, key=lambda cell: cell.mean_accuracy)
    return CVResult(best.c_reg, best.d, best.lam, table)


class TestFoldStackedSolve:
    def test_matches_per_fold_cross_validation(self):
        # 5 videos in 5 folds: one per fold; 7 in 5 or 6 in 4: 1- and 2-video folds
        plan5 = CrossValPlan(folds=5, c_grid=C_GRID, d_grid=(2, 5), lambda_grid=(0.1, 1.0, 10.0))
        plan4 = CrossValPlan(folds=4, c_grid=(0.1, 3.0), d_grid=(3,), lambda_grid=(0.3, 3.0))
        for seed, n_videos, k, plan in ((0, 5, 3, plan5), (1, 7, 3, plan5), (2, 6, 4, plan4),
                                        (3, 7, 5, plan5), (4, 6, 2, plan4)):
            pairs = videos(seed, n_videos, k=k)
            expected = per_fold_cross_validate(pairs, plan, 30)
            assert cross_validate(pairs, plan, 30) == expected

    def test_each_fold_block_matches_its_subset_solve(self):
        pairs = videos(5, 7, k=4)
        streams, truths = [s for s, _ in pairs], [t for _, t in pairs]
        video_folds = np.arange(7) % 3
        frame_folds = np.repeat(video_folds, [s.n_frames for s in streams])
        grid = train_grid(streams, truths, frame_folds, 3, C_GRID, 25)
        x, y, rows = change_training_set(streams, truths, 4)
        row_folds = np.repeat(video_folds, rows)
        change_grid = train_binary_grid(x, y, 4, row_folds, 3, C_GRID, 25)
        assert [len(models) for models in grid + change_grid] == [len(C_GRID)] * 6
        for f in range(3):
            train_idx = [i for i in range(7) if video_folds[i] != f]
            (alone,) = train_grid([streams[i] for i in train_idx], [truths[i] for i in train_idx],
                                  None, 1, C_GRID, 25)
            keep = row_folds != f
            (change_alone,) = train_binary_grid(x[keep], y[keep], 4, None, 1, C_GRID, 25)
            for stacked, single in zip(grid[f] + change_grid[f], alone + change_alone):
                assert stacked.config == single.config
                assert np.allclose(stacked.weights, single.weights, rtol=1e-12, atol=1e-13)
                assert np.allclose(stacked.bias, single.bias, rtol=1e-12, atol=1e-13)


    def test_zero_signs_solve_the_subset_problem(self):
        # the objective too: a left-out row adds no hinge term, and the mean
        # runs over the column's own rows
        rng = np.random.default_rng(9)
        x = rng.standard_normal((60, 5))
        signs = np.where(rng.random((60, 3)) < 0.5, 1.0, -1.0)
        keep = rng.random((60, 3)) < 0.7
        c_regs = np.array([0.1, 1.0, 10.0])
        w, b, obj = classify._solve_subgradient(
            x, np.where(keep, signs, 0.0).T[None, None].copy(), c_regs[None], 30
        )
        for j in range(3):
            rows = keep[:, j]
            wj, bj, objj = classify._solve_subgradient(
                x[rows], signs[None, None, None, rows, j], c_regs[None, j : j + 1], 30
            )
            assert np.allclose(w[j], wj[0], rtol=1e-12, atol=1e-13)
            assert np.allclose([b[j], obj[j]], [bj[0], objj[0]], rtol=1e-12, atol=1e-13)


class TestFoldValidity:
    """Degenerate folds fail with the errors a per-fold solve gives."""

    plan = CrossValPlan(folds=5, c_grid=(0.1, 1.0), d_grid=(3,), lambda_grid=(1.0,))

    def test_training_videos_with_one_state(self):
        pairs = [labeled("v0", [0] * 20 + [1] * 20)]
        pairs += [labeled(f"v{i}", [0] * 40, seed=i) for i in range(1, 5)]
        with np.errstate(all="raise"), pytest.raises(ValueError, match="two distinct labels"):
            cross_validate(pairs, self.plan, 5)

    def test_no_training_video_long_enough_for_d(self):
        # only v0 is longer than 2d+1 = 7 frames; the fold that holds it out has no change rows
        pairs = [labeled("v0", [0] * 20 + [1] * 20)]
        pairs += [labeled(f"v{i}", [0, 1, 2, 1, 0, 2], seed=i) for i in range(1, 5)]
        with np.errstate(all="raise"), pytest.raises(ValueError, match="long enough"):
            cross_validate(pairs, self.plan, 5)

    def test_no_training_rows(self):
        with np.errstate(all="raise"):
            for train_empty in (
                lambda: train_arrays(np.empty((0, 3)), np.empty(0), 2),
                lambda: train_binary(np.empty((0, 3)), np.empty(0), 3),
            ):
                with pytest.raises(ValueError, match="two distinct labels"):
                    train_empty()

    def test_column_with_no_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        signs = np.array([[1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
        with np.errstate(all="raise"), pytest.raises(ValueError, match="at least one"):
            classify._solve_subgradient(x, signs[None, None], np.ones((1, 2)), 5)
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="two distinct labels"):
            train_binary_grid(x, y, 1, np.zeros(4, dtype=int), 2, (1.0,), 5)  # fold 0 holds out all


class TestDuplicateVideoIds:
    def test_repeated_video_rejected(self):
        pairs = list(synth.gen_feature_set(3, 2, 4, 60, 10, 0.5, ["a", "b", "c", "d", "e"]))
        plan = CrossValPlan(folds=5, c_grid=(1.0,), d_grid=(3,), lambda_grid=(1.0,))
        with pytest.raises(ValueError, match="video id 'a'"):
            cross_validate([pairs[0], *pairs], plan, 5)

    def test_cv_command_exits_2(self, tmp_path, capsys):
        space = free_active()
        save_label_space(space, tmp_path / "fa.txt")
        pairs = synth.gen_feature_set(3, 2, 4, 60, 10, 0.5, ["a", "b", "c", "d", "e"],
                                      label_space=space)
        rows = []
        for stream, truth in pairs:
            write_features(stream, tmp_path / f"{stream.video_id}.feat")
            (tmp_path / f"{stream.video_id}.txt").write_text("\n".join(truth.label_names()))
            rows.append(f"{tmp_path / stream.video_id}.feat\t{tmp_path / stream.video_id}.txt")
        (tmp_path / "cv.txt").write_text("\n".join([rows[0], *rows]) + "\n")
        capsys.readouterr()
        assert main(["cv", "--manifest", str(tmp_path / "cv.txt"),
                     "--label-space", str(tmp_path / "fa.txt"), "--c-grid", "1", "--d-grid", "3",
                     "--lambda-grid", "1", "--epochs", "5", "--out", str(tmp_path / "out")]) == 2
        assert "video id 'a'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_peak_memory_follows_the_stacked_problem(traced_peak):
    """cross_validate's traced peak stays within 2.5x the stacked problem:
    the features of every video plus the (frames, folds x C x K) signs. The
    solver's one work array of the signs' shape brings it to about 2.2x;
    one more float array of that shape, or a copy of the features per
    fold, takes it near 3x."""
    pairs = videos(7, 6, k=3, dim=16, n_frames=600)
    plan = CrossValPlan(folds=5, c_grid=C_GRID, d_grid=(3,), lambda_grid=(1.0,))
    cross_validate(videos(8, 5, n_frames=40), plan, 1)  # warm lazy imports
    frames = sum(s.n_frames for s, _ in pairs)
    problem_bytes = 8 * frames * (16 + plan.folds * len(C_GRID) * 3)
    peak, _ = traced_peak(cross_validate, pairs, plan, 2)
    assert peak <= 2.5 * problem_bytes, peak / problem_bytes


def test_peak_memory_holds_one_change_set(traced_peak):
    """With several d, cross_validate holds one change set at a time. At one
    C the state solve is small, so the peak is one change set and its solve
    (1.27x the set). The parent built each d's set beside the previous one
    and its per-video parts (3.0x); two whole sets alive read 2.0x."""
    pairs = videos(7, 10, k=2, dim=64, n_frames=600)
    plan = CrossValPlan(folds=5, c_grid=(1.0,), d_grid=(3, 6, 9, 12), lambda_grid=(1.0,))
    warm = CrossValPlan(folds=5, c_grid=(1.0,), d_grid=(3,), lambda_grid=(1.0,))
    cross_validate(videos(8, 5, n_frames=40), warm, 1)  # warm lazy imports
    x, y, _ = change_training_set([s for s, _ in pairs], [t for _, t in pairs], min(plan.d_grid))
    set_bytes = x.nbytes + y.nbytes
    del x, y
    peak, _ = traced_peak(cross_validate, pairs, plan, 2)
    assert peak <= 1.6 * set_bytes, peak / set_bytes


class TestPlanChecks:
    @pytest.mark.parametrize("grid, value, check", [
        ("c_grid", -1.0, lambda c: TrainConfig(c_reg=c)),
        ("d_grid", 0, check_d),
        ("lambda_grid", -0.5, check_lam),
        ("lambda_grid", float("nan"), check_lam),
        ("lambda_grid", float("inf"), check_lam),
    ], ids=["C", "d", "lambda-negative", "lambda-nan", "lambda-inf"])
    def test_each_value_by_the_check_of_its_stage(self, grid, value, check):
        # the stage's own error, named by its grid, not a copy of the check
        with pytest.raises(ValueError) as stage_error:
            check(value)
        name = {"c_grid": "C", "d_grid": "d", "lambda_grid": "lambda"}[grid]
        with pytest.raises(ValueError, match=re.escape(f"{name} grid value {value!r}: "
                                                       f"{stage_error.value}")):
            CrossValPlan(**{grid: (1, value)})
