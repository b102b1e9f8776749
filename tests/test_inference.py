from itertools import product

import numpy as np
import pytest

from handcam.core import Camera, FeatureStream, StateSequence, run_starts
from handcam.inference import (
    InferenceProblem,
    check_lam,
    decode,
    decode_stream,
    segment_bounds,
    segment_features,
)
from test_features import float32_pair

NEG_INF = float("-inf")


def score_sequence(problem, seq, lam):
    """Score of one state sequence at boundary weight lam; -inf if it changes
    state off-candidate: the objective `decode` maximizes, for exhaustive
    checks."""
    check_lam(lam)
    states = seq.states if isinstance(seq, StateSequence) else np.asarray(seq, dtype=np.int64)
    n = problem.n_frames
    if states.shape != (n,):
        raise ValueError(f"sequence length {states.shape} does not match N={n}")
    if states.size and (states.min() < 0 or states.max() >= problem.num_states):
        raise ValueError("state index out of range")
    changes = run_starts(states)[1:]
    cand = problem.candidates
    if not np.isin(changes, cand).all():
        return NEG_INF
    unary_total = float(problem.unary[np.arange(n), states].sum())
    binary_total = 0.0
    for g, c in enumerate(cand):
        sim = float(problem.boundary_similarities[g])
        binary_total += sim if states[c - 1] == states[c] else -sim
    return unary_total + lam * binary_total


def make_problem(unary, cand, sims):
    """Build a problem whose adjacent-segment cosine similarities equal
    `sims` exactly, via 2-d unit features at accumulated angles."""
    sims = np.asarray(sims, dtype=np.float64)
    angles = np.concatenate([[0.0], np.cumsum(np.arccos(sims))])
    feats = [np.array([np.cos(a), np.sin(a)]) for a in angles]
    return InferenceProblem(np.asarray(unary, dtype=np.float64), cand, feats)


def random_problem(rng, max_n=10, max_k=4, max_c=4):
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    m = int(rng.integers(0, min(max_c, n - 1) + 1))
    cand = np.sort(rng.choice(np.arange(1, n), size=m, replace=False)).astype(int)
    unary = rng.uniform(-1.0, 1.0, (n, k))
    sims = rng.uniform(-1.0, 1.0, m)
    lam = [0.1, 1.0, 10.0][int(rng.integers(0, 3))]
    return make_problem(unary, cand, sims), lam


def enumerate_legal(problem):
    """All legal state sequences: one state per segment, expanded to frames."""
    bounds = segment_bounds(problem.n_frames, problem.candidates)
    lengths = np.diff(bounds)
    for combo in product(range(problem.num_states), repeat=len(lengths)):
        yield np.repeat(np.array(combo, dtype=np.int64), lengths)


def brute_force_best(problem, lam):
    best, best_seq = NEG_INF, None
    for states in enumerate_legal(problem):
        s = score_sequence(problem, states, lam)
        if s > best:
            best, best_seq = s, states
    return best, best_seq


def score_by_hand(problem, states, lam):
    """Independent scorer: direct loop over frames and boundaries."""
    cand = set(int(c) for c in problem.candidates)
    for i in range(1, problem.n_frames):
        if states[i] != states[i - 1] and i not in cand:
            return NEG_INF
    unary_total = 0.0
    for i in range(problem.n_frames):
        unary_total += float(problem.unary[i, states[i]])
    binary_total = 0.0
    for g, c in enumerate(sorted(cand)):
        sim = float(problem.boundary_similarities[g])
        binary_total += sim if states[c - 1] == states[c] else -sim
    return unary_total + lam * binary_total


def stream_of(values):
    return FeatureStream("v", Camera.HEAD, 6.0, np.asarray(values, dtype=np.float64))


class TestSegmentFeatures:
    def test_no_candidates_whole_mean(self):
        vals = np.arange(8.0).reshape(4, 2)
        feats = segment_features(stream_of(vals), np.array([], dtype=int))
        assert len(feats) == 1
        assert np.array_equal(feats[0], vals.mean(axis=0))

    def test_constant_stream(self):
        vals = np.tile([2.0, 3.0], (6, 1))
        feats = segment_features(stream_of(vals), np.array([2, 4]))
        for f in feats:
            assert np.array_equal(f, [2.0, 3.0])

    def test_hand_example(self):
        v, w = [1.0, 0.0], [0.0, 1.0]
        vals = np.array([v, v, w, w])
        feats = segment_features(stream_of(vals), np.array([2]))
        assert np.array_equal(feats[0], v)
        assert np.array_equal(feats[1], w)

    def test_works_on_streams(self):
        stream = FeatureStream("v", Camera.HEAD, 6.0, np.ones((5, 2)))
        assert len(segment_features(stream, np.array([1, 3]))) == 3

    def test_candidate_zero_rejected(self):
        with pytest.raises(ValueError, match=r"\[1, N-1\]"):
            segment_features(stream_of(np.ones((4, 2))), np.array([0]))

    def test_float32_stream_matches_its_float64_upcast_bytes(self):
        rng = np.random.default_rng(13)
        for (n, d), aligned in product(((60_000, 3), (30_000, 64), (6_000, 512)), (True, False)):
            s32, s64 = float32_pair(rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d),
                                    aligned)
            cand = np.flatnonzero(rng.random(n - 1) < 0.05) + 1  # about 300 to 3,000
            got = segment_features(s32, cand)
            assert got.tobytes() == segment_features(s64, cand).tobytes()


class TestInferenceProblem:
    def test_non_finite_rejected(self):
        unary, feats = np.zeros((6, 2)), np.ones((3, 4))
        InferenceProblem(unary, [2, 4], feats)
        for bad in (np.nan, np.inf, -np.inf):
            u, f = unary.copy(), feats.copy()
            u[3, 1] = f[1, 2] = bad
            with pytest.raises(ValueError, match="unary scores must be finite"):
                InferenceProblem(u, [2, 4], feats)
            with pytest.raises(ValueError, match="segment features must be finite"):
                InferenceProblem(unary, [2, 4], f)

    def test_memory_builds_no_finiteness_mask(self, traced_peak):
        # long-video's 40,000 x 24 unary with 399 candidates; a mask of one
        # byte per unary value was 0.125x its bytes
        rng = np.random.default_rng(14)
        unary = rng.standard_normal((40_000, 24))
        cand = np.sort(rng.choice(np.arange(1, 40_000), 399, replace=False))
        feats = rng.standard_normal((400, 8))
        peak, _ = traced_peak(InferenceProblem, unary, cand, feats)
        assert peak < 0.02 * unary.nbytes, peak / unary.nbytes


class TestScoreSequence:
    def test_constant_sequence_hand_expansion(self):
        # R = sum(u) + lam * sum(+sim at each candidate)
        unary = np.array([[1.0, 0.0], [0.5, 0.2], [0.0, 2.0], [1.0, 1.0]])
        sims = [0.25, -0.5]
        p = make_problem(unary, np.array([1, 3]), sims)
        got = score_sequence(p, np.zeros(4, dtype=int), 2.0)
        want = (1.0 + 0.5 + 0.0 + 1.0) + 2.0 * (0.25 + (-0.5))
        assert abs(got - want) < 1e-12

    def test_off_candidate_change_is_neg_inf(self):
        p = make_problem(np.zeros((4, 2)), np.array([2]), [0.5])
        assert score_sequence(p, np.array([0, 1, 1, 1]), 1.0) == NEG_INF

    def test_change_at_candidate_scores_minus_sim(self):
        p = make_problem(np.zeros((4, 2)), np.array([2]), [0.7])
        got = score_sequence(p, np.array([0, 0, 1, 1]), 3.0)
        assert abs(got - (-3.0 * 0.7)) < 1e-12

    def test_matches_independent_scorer(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p, lam = random_problem(rng, max_n=7, max_k=3, max_c=3)
            for states in enumerate_legal(p):
                assert abs(score_sequence(p, states, lam) - score_by_hand(p, states, lam)) < 1e-12


class TestDecode:
    def test_lambda_zero_all_candidates_is_frame_argmax(self):
        rng = np.random.default_rng(1)
        unary = rng.uniform(-1, 1, (12, 3))
        p = make_problem(unary, np.arange(1, 12), rng.uniform(-1, 1, 11))
        assert np.array_equal(decode(p, [0.0])[0].states, np.argmax(unary, axis=1))

    def test_no_candidates_best_constant(self):
        rng = np.random.default_rng(2)
        unary = rng.uniform(-1, 1, (9, 4))
        p = InferenceProblem(unary, np.array([], dtype=int), [np.ones(2)])
        dec = decode(p, [1.0])[0]
        assert len(set(dec.states.tolist())) == 1
        assert dec.states[0] == int(np.argmax(unary.sum(axis=0)))

    def test_oracle_equivalence_200_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p, lam = random_problem(rng)
            dec = decode(p, [lam])[0]
            dp_score = score_sequence(p, dec, lam)
            bf_score, _ = brute_force_best(p, lam)
            assert dp_score == bf_score

    def test_changes_only_at_candidates(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, lam = random_problem(rng)
            states = decode(p, [lam])[0].states
            changes = np.nonzero(states[1:] != states[:-1])[0] + 1
            assert np.isin(changes, p.candidates).all()

    def test_unary_shift_invariance(self):
        rng = np.random.default_rng(5)
        unary = rng.uniform(-1, 1, (15, 3))
        cand = np.array([4, 9])
        sims = rng.uniform(-1, 1, 2)
        a = decode(make_problem(unary, cand, sims), [1.0])[0]
        b = decode(make_problem(unary + 7.25, cand, sims), [1.0])[0]
        assert np.array_equal(a.states, b.states)

    def test_large_lambda_positive_sims_forces_constant(self):
        rng = np.random.default_rng(6)
        unary = rng.uniform(-1, 1, (20, 3))
        cand = np.array([5, 10, 15])
        p = make_problem(unary, cand, [0.9, 0.8, 0.95])
        assert len(set(decode(p, [1e6])[0].states.tolist())) == 1

    def test_decode_beats_random_legal_sequences(self):
        rng = np.random.default_rng(7)
        p, lam = random_problem(rng, max_n=10, max_k=4, max_c=4)
        best = score_sequence(p, decode(p, [lam])[0], lam)
        bounds = segment_bounds(p.n_frames, p.candidates)
        lengths = np.diff(bounds)
        for _ in range(1000):
            combo = rng.integers(0, p.num_states, len(lengths))
            states = np.repeat(combo, lengths)
            assert score_sequence(p, states, lam) <= best

    def test_negative_lambda_rejected(self):
        p = make_problem(np.zeros((3, 2)), np.array([1]), [0.5])
        with pytest.raises(ValueError, match="lam"):
            decode(p, [1.0, -1.0])
        with pytest.raises(ValueError, match="lam"):
            score_sequence(p, np.zeros(3, dtype=int), -1.0)

    def test_non_finite_lambda_rejected(self):
        # NaN compares false with everything, so a `lam < 0` test let it
        # through and every frame decoded to state 0
        p = make_problem(np.zeros((3, 2)), np.array([1]), [0.5])
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lam"):
                decode(p, [lam])
            with pytest.raises(ValueError, match="lam"):
                score_sequence(p, np.zeros(3, dtype=int), lam)

    def test_decoded_states_are_detached_with_k_states(self):
        # the DP decodes state indices; `infer` names them with its state model's space
        p = make_problem(np.zeros((4, 3)), np.array([2]), [0.5])
        for decoded in decode(p, [0.0, 1.0]):
            assert decoded.label_space is None
            assert decoded.num_states == 3

    def test_tie_prefers_lower_state_lexicographically(self):
        # all-zero unaries, zero similarity: every sequence ties; expect all-0
        p = make_problem(np.zeros((6, 3)), np.array([3]), [0.0])
        assert decode(p, [1.0])[0].states.tolist() == [0] * 6


def decode_rebuilding_boundaries(problem, lam):
    """The segment DP whose backtrack rebuilt each boundary row the forward
    pass had built (the reference for decode's back-pointers)."""
    n, k = problem.n_frames, problem.num_states
    bounds = segment_bounds(n, problem.candidates)
    useg = np.add.reduceat(problem.unary, bounds[:-1], axis=0)
    sims = problem.boundary_similarities
    m = problem.candidates.size
    value = np.empty((m + 1, k))
    value[m] = useg[m]
    for g in range(m - 1, -1, -1):
        boundary = np.full((k, k), -lam * sims[g])
        np.fill_diagonal(boundary, lam * sims[g])
        value[g] = useg[g] + np.max(boundary + value[g + 1][None, :], axis=1)
    seg_states = np.empty(m + 1, dtype=np.int64)
    seg_states[0] = int(np.argmax(value[0]))
    for g in range(m):
        row = np.full(k, -lam * sims[g])
        row[seg_states[g]] = lam * sims[g]
        seg_states[g + 1] = int(np.argmax(row + value[g + 1]))
    return np.repeat(seg_states, np.diff(bounds))


class TestDecodeBackPointers:
    def test_matches_rebuilt_boundary_backtrack_on_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            n = int(rng.integers(1, 16))
            k = int(rng.integers(1, 5))
            m = int(rng.integers(0, n))
            cand = np.sort(rng.choice(np.arange(1, n), size=m, replace=False))
            # few distinct unaries and feature directions: many equal-scoring optima
            unary = rng.integers(-1, 2, (n, k)).astype(np.float64)
            feats = rng.integers(-1, 2, (m + 1, 2)).astype(np.float64)
            problem = InferenceProblem(unary, cand, feats)
            lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            assert np.array_equal(
                decode(problem, [lam])[0].states, decode_rebuilding_boundaries(problem, lam)
            )


class TestDecodeStream:
    def test_equals_decode_for_each_lambda(self):
        rng = np.random.default_rng(8)
        stream = FeatureStream("v", Camera.HEAD, 6.0, rng.standard_normal((30, 3)))
        unary = rng.uniform(-1, 1, (30, 4))
        cand = np.array([5, 11, 20, 26])
        lams = [0.0, 0.3, 1.0, 10.0]
        problem = InferenceProblem(unary, cand, segment_features(stream, cand))
        decoded = decode_stream(stream, unary, cand, lams)
        assert len(decoded) == len(lams)
        for lam, seq in zip(lams, decoded):
            assert np.array_equal(seq.states, decode(problem, [lam])[0].states)


def decode_per_lambda(problem, lam):
    """The segment DP as it ran once per lambda before every lambda shared
    one pass (the reference for the batched decode, bit for bit)."""
    n, k = problem.n_frames, problem.num_states
    cand = problem.candidates
    bounds = segment_bounds(n, cand)
    useg = np.add.reduceat(problem.unary, bounds[:-1], axis=0)
    sims = problem.boundary_similarities
    m = cand.size
    value = np.empty((m + 1, k))
    nxt = np.empty((m, k), dtype=np.int64)
    value[m] = useg[m]
    for g in range(m - 1, -1, -1):
        boundary = np.full((k, k), -lam * sims[g])
        np.fill_diagonal(boundary, lam * sims[g])
        scores = boundary + value[g + 1][None, :]
        nxt[g] = np.argmax(scores, axis=1)
        value[g] = useg[g] + np.max(scores, axis=1)
    seg_states = np.empty(m + 1, dtype=np.int64)
    seg_states[0] = np.argmax(value[0])
    for g in range(m):
        seg_states[g + 1] = nxt[g, seg_states[g]]
    return np.repeat(seg_states, np.diff(bounds))


class TestDecodeAllLambdas:
    LAMS = [0.0, 0.5, 1.0, 2.0, 3.0]

    def test_equals_per_lambda_dp_on_ties(self):
        rng = np.random.default_rng(10)
        axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])  # similarities exactly -1, 0, 1
        for trial in range(400):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 25))
            m = 0 if trial % 5 == 0 else int(rng.integers(0, n))
            cand = np.sort(rng.choice(np.arange(1, n), size=m, replace=False))
            unary = rng.integers(-1, 2, (n, k)).astype(np.float64)
            if trial % 2:
                feats = axes[rng.integers(0, 3, m + 1)]
            else:
                feats = rng.integers(-1, 2, (m + 1, 2)).astype(np.float64)
            problem = InferenceProblem(unary, cand, feats)
            decoded = decode(problem, self.LAMS)
            assert len(decoded) == len(self.LAMS)
            for lam, seq in zip(self.LAMS, decoded):
                assert np.array_equal(seq.states, decode_per_lambda(problem, lam))

    def test_equals_per_lambda_dp_on_random_scores(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, k = int(rng.integers(2, 80)), int(rng.integers(1, 25))
            m = int(rng.integers(0, n))
            cand = np.sort(rng.choice(np.arange(1, n), size=m, replace=False))
            problem = InferenceProblem(
                rng.standard_normal((n, k)), cand, rng.standard_normal((m + 1, 3))
            )
            lams = [0.0, *rng.uniform(0.0, 5.0, 3)]
            for lam, seq in zip(lams, decode(problem, lams)):
                assert np.array_equal(seq.states, decode_per_lambda(problem, lam))

    def test_no_lambdas_no_sequences(self):
        p = make_problem(np.zeros((4, 2)), np.array([2]), [0.5])
        assert decode(p, []) == []
