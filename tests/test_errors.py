"""Error estimation, and the return-error bound arithmetic of the test oracles."""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    block_pair_scan,
    context_scans,
    estimate_lipschitz,
    return_error_bound,
    rollforward_state_error,
    state_error_closed_form,
)
from moesim import errors
from moesim.core import Dataset, Metric, Neighbors, Transition
from moesim.envs import make_windy2d
from moesim.envs.base import generate_trajectories
from moesim.envs.windy import windy_behavior_policy, windy_no_wind_model
from moesim.errors import (
    BoundParams,
    ErrorEstimate,
    LipschitzEstimates,
    _Rows,
    _scan,
    choose_radius,
    global_lipschitz,
    np_error_estimate,
    p_error_estimate,
    parametric_residuals,
)
from moesim.models import FunctionModel, NonparametricModel


def pair_scan(X, Y, R, metric):
    """The global scan's (max ratios, usable pairs) over one action's
    stacked arrays."""
    return _scan({0: _Rows.of(X, Y, R, metric)})[0]


def tr(x, a, r, y, tid=0, t=0):
    return Transition(np.atleast_1d(np.array(x, float)), a, r,
                      np.atleast_1d(np.array(y, float)), tid, t)


def brute_force_ratios(X, Y, A, R, metric):
    """Independent reference over all same-action pairs: each row against
    every later row of its action, one row at a time, from exact
    differences of the weighted coordinates."""
    Xw = X * metric.weights
    Yw = Y * metric.weights
    best_t = 0.0
    best_r = 0.0
    used = 0
    for i in range(len(X)):
        later = i + 1 + np.flatnonzero(A[i + 1 :] == A[i])
        d = np.sqrt(((Xw[later] - Xw[i]) ** 2).sum(axis=1))
        keep = later[d > 0.0]
        d = d[d > 0.0]
        used += len(keep)
        dy = np.sqrt(((Yw[keep] - Yw[i]) ** 2).sum(axis=1))
        best_t = max(best_t, (dy / d).max(initial=0.0))
        best_r = max(best_r, (np.abs(R[keep] - R[i]) / d).max(initial=0.0))
    return best_t, best_r, used


@st.composite
def ratio_inputs(draw, scales=(1.0, 1.0, 1.0, 1e151), subnormal=False):
    """One action's (starts, next states, rewards) and a weighted metric.

    Up to 700 rows, so up to six row tiles and three column tiles of the
    pair scan, in one to four dimensions.  Exact and near duplicates of
    drawn starts, often on either side of a 64-row block boundary of the
    old scan or a tile edge of the new one; if `subnormal`, a start at the
    origin and one 1e-160 or 5e-324 from it, whose squared distance is
    subnormal or 0 (a ratio over it may overflow); all starts scaled by
    one of `scales`: 1e151 leaves the plain range of the tiled scan, and
    1e160 overflows some squared start distances; and sometimes one reward
    for every row, as windy's -1 a step, or for all rows but one or two."""
    dim = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(2, 200), st.integers(201, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-10, 10, size=(n, dim))
    Y = rng.normal(size=(n, dim))
    constant = draw(st.sampled_from([None, -1.0, 0.0, -0.0, 2.5]))
    R = rng.normal(size=n) if constant is None else np.full(n, constant)
    row = st.integers(0, n - 1)
    edges = [b + k for b in (64, 128, 192, 256, 384, 512, 640) for k in (-1, 0) if b + k < n]
    if edges:
        row = st.one_of(row, st.sampled_from(edges))
    if constant is not None:
        for _ in range(draw(st.integers(0, 2))):
            R[draw(row)] = constant + 1.0
    for tiny in (False, True)[: 1 + subnormal]:
        for _ in range(draw(st.integers(0, 6 if not tiny else 2))):
            src = draw(row)
            dst = draw(row.filter(lambda r: r != src))
            if tiny:  # a start at the origin and one a subnormal distance from it
                X[src] = 0.0
            X[dst] = X[src]
            X[dst, draw(st.integers(0, dim - 1))] += draw(st.sampled_from(
                [1e-160, 5e-324] if tiny else [0.0, 1e-12, 1e-9, 1e-7, 3e-6]
            ))
    X *= draw(st.sampled_from(scales))
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim))
    return X, Y, R, Metric(np.array(weights))


@st.composite
def affine_inputs(draw):
    """One action's rows under a near-affine map, for the pruned scan.

    Drawn in weighted coordinates, then divided by the metric weights: in
    one to three dimensions, next states X M + c under a random M and c,
    with residual noise.  Either 257 to 1,200 starts fill a box, so that
    some column blocks lie off the diagonal tiles, under an M near the
    identity (like windy's map) or far from it; or 1,200 to 2,000 starts
    lie in three blobs along the direction a near-identity M stretches
    most, 8 wide along the direction it shrinks most, and the middle blob's
    next states are lifted along the image of that direction.  No affine
    map absorbs that lift.  The largest ratio is then that of a pair
    between blobs whose starts lie far apart along the shrinking direction,
    so in the sorted order: a far pair above every ratio of the first
    diagonals, which only the residual term of the bound keeps in the
    sweep.  In the box, sometimes coincident starts, a start a subnormal
    distance from another, three starts of equal projection whose outer two
    coincide, varying rewards, starts scaled by 1e160, outside the plain
    range, or starts and next states scaled by 1e-160."""
    dim = draw(st.integers(1, 3))
    blobs = dim > 1 and draw(st.booleans())
    trio = None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim)))
    if blobs:
        n = draw(st.integers(1200, 2000))
        M = np.eye(dim) + draw(st.sampled_from([0.03, 0.1])) * rng.normal(size=(dim, dim))
        lam, V = np.linalg.eigh(M @ M.T)  # V[:, 0] shrinks most, V[:, -1] stretches most
        blob = rng.integers(3, size=n)
        X = np.outer(8.0 * (blob - 1) + rng.uniform(-1, 1, size=n), V[:, -1])
        X += rng.uniform(-4, 4, size=(n, dim - 1)) @ V[:, :-1].T
        noise = draw(st.sampled_from([0.0, 1e-12, 1e-6]))
    else:
        n = draw(st.integers(257, 1200))
        M = np.eye(dim) + draw(st.sampled_from([0.03, 0.3, 1.0])) * rng.normal(size=(dim, dim))
        X = rng.uniform(-10, 10, size=(n, dim))
        noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
        for _ in range(draw(st.integers(0, 3))):
            src, dst = rng.integers(n, size=2)
            step = draw(st.sampled_from([0.0, 1e-9, 1e-160, 5e-324]))
            if 0.0 < step < 1e-100:  # a start at the origin and one a subnormal distance from it
                X[src] = 0.0
            X[dst] = X[src]
            X[dst, 0] += step
        if dim > 1 and draw(st.booleans()):
            # the middle start 1e-100 from the outer two, which coincide, in
            # a coordinate they have at 0: a projection loses the 1e-100
            # against the other coordinates, so the three project equally,
            # the stable sort keeps them in order, and the coincident pair
            # lies at offset 2
            trio = np.sort(rng.choice(n, size=3, replace=False))
            X[trio] = X[trio[0]]
            X[trio, 0] = [0.0, 1e-100, 0.0]
    Y = X @ M + rng.normal(size=dim) + noise * rng.normal(size=(n, dim))
    if trio is not None:
        Y[trio] = Y[trio[0]]
    if blobs:
        # a lift L makes the cross-blob ratio peak at a separation of
        # L sqrt(lam_0) / (lam_-1 - lam_0) along V[:, 0]: `reach` units
        reach = draw(st.sampled_from([5.0, 7.0]))
        up = V[:, 0] @ M
        Y[blob == 1] += up * (reach * (lam[-1] - lam[0]) / np.sqrt(lam[0]) / np.linalg.norm(up))
        return X / weights, Y / weights, np.full(n, -1.0), Metric(weights)
    R = rng.normal(size=n) if draw(st.booleans()) and draw(st.booleans()) else np.full(n, -1.0)
    scale = draw(st.sampled_from([1.0, 1.0, 1e160, 1e-160]))
    if scale < 1.0:  # squared differences deep in the subnormal range
        Y *= scale
    return X / weights * scale, Y / weights, R, Metric(weights)


class TestLipschitzEstimation:
    def test_doubling_map_is_exact(self):
        # f(x) = 2x: every pair ratio is exactly 2
        transitions = [tr([float(i)], 0, 0.0, [2.0 * i], t=i) for i in range(1, 8)]
        pairs = [(transitions[i], transitions[j])
                 for i in range(len(transitions)) for j in range(i + 1, len(transitions))]
        est = estimate_lipschitz(pairs, Metric.euclidean(1))
        assert est.l_t == 2.0
        assert est.n_pairs == len(pairs)

    def test_single_pair(self):
        a = tr([0.0], 0, 1.0, [0.0])
        b = tr([1.0], 0, 3.0, [3.0])
        est = estimate_lipschitz([(a, b)], Metric.euclidean(1))
        assert est.l_t == 3.0
        assert est.l_r == 2.0

    def test_zero_distance_pairs_skipped(self):
        a = tr([1.0], 0, 1.0, [5.0])
        b = tr([1.0], 0, 2.0, [7.0])
        c = tr([2.0], 0, 1.0, [6.0])
        est = estimate_lipschitz([(a, b), (a, c)], Metric.euclidean(1))
        assert est.n_pairs == 1
        # with no pair of distinct starts left, the ratios are 0 over 0 pairs
        zero = LipschitzEstimates(0.0, 0.0, 0)
        assert estimate_lipschitz([(a, b)], Metric.euclidean(1)) == zero
        assert global_lipschitz(Dataset([a, b], [], 1, 1), Metric.euclidean(1)) == zero

    @settings(max_examples=80, deadline=None)
    @given(ratio_inputs())
    def test_pair_scan_matches_brute_force(self, case):
        X, Y, R, m = case
        bt, br, used = pair_scan(X, Y, R, m)
        want_t, want_r, want_used = brute_force_ratios(X, Y, np.zeros(len(X)), R, m)
        assert used == want_used
        assert bt == pytest.approx(want_t, rel=1e-9)
        assert br == pytest.approx(want_r, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(ratio_inputs(scales=(1.0, 1.0, 1e151, 1e160), subnormal=True), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_tiled_scan_equals_the_block_scan(self, case, n_actions, seed):
        # the rows split among up to three actions: every max and count
        # equals the old 64-row block scan's, bit for bit
        X, Y, R, m = case
        A = np.random.default_rng(seed).integers(0, n_actions, size=len(X))
        want = {a: block_pair_scan(X[A == a], Y[A == a], R[A == a], m)
                for a in range(n_actions) if np.count_nonzero(A == a) >= 2}
        actions = {a: _Rows.of(X[A == a], Y[A == a], R[A == a], m) for a in want}
        assert _scan(actions) == want
        assert pair_scan(X, Y, R, m) == block_pair_scan(X, Y, R, m)

    def test_an_overflowing_next_state_difference_gives_inf(self):
        # the squared next-state difference of rows 0 and 1 overflows, so
        # their ratio is inf; the ratios of two infinite squares among the
        # j <= i pairs of the tile are no pairs and do not hide it (the
        # old block scan's NaN max dropped the whole block)
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([[-1e200], [1e200], [0.0]])
        assert pair_scan(X, Y, np.zeros(3), Metric.euclidean(1)) == (np.inf, 0.0, 3)
        with np.errstate(invalid="ignore"):
            assert block_pair_scan(X, Y, np.zeros(3), Metric.euclidean(1)) == (0.0, 0.0, 3)

    def test_global_matches_brute_force(self):
        rng = np.random.default_rng(17)
        transitions = [
            tr(rng.normal(size=2), int(rng.integers(2)), float(rng.normal()),
               rng.normal(size=2), 0, i)
            for i in range(80)
        ]
        ds = Dataset(transitions, [transitions[0].x], 2, 2)
        m = Metric(rng.uniform(0.5, 2.0, size=2))
        got = global_lipschitz(ds, m)
        bt, br, used = brute_force_ratios(ds.starts, ds.nexts, ds.actions, ds.rewards, m)
        assert got.l_t == pytest.approx(bt, rel=1e-9)
        assert got.l_r == pytest.approx(br, rel=1e-9)
        assert got.n_pairs == used

    def test_large_input_matches_brute_force(self):
        # more rows than one block of the pair scan
        rng = np.random.default_rng(23)
        n = 3500
        X = rng.uniform(-5, 5, size=(n, 2))
        transitions = [
            tr(X[i], 0, float(X[i, 0]), X[i] * 1.5 + 0.2, 0, i) for i in range(n)
        ]
        ds = Dataset(transitions, [transitions[0].x], 2, 1)
        m = Metric.euclidean(2)
        got = global_lipschitz(ds, m)
        # the map is linear with factor 1.5, so the true max ratio is exact
        assert got.l_t == pytest.approx(1.5, rel=1e-6)
        bt, br, used = brute_force_ratios(X, X * 1.5 + 0.2, np.zeros(n), X[:, 0], m)
        assert got.l_t == pytest.approx(bt, rel=1e-9)
        assert got.l_r == pytest.approx(br, rel=1e-9)
        assert got.n_pairs == used

    def test_linear_map_never_exceeds_operator_norm(self):
        rng = np.random.default_rng(31)
        A = rng.normal(size=(2, 2))
        true_l = float(np.linalg.svd(A, compute_uv=False)[0])
        means = []
        for n in (10, 100, 1000):
            vals = []
            for s in range(30):
                r2 = np.random.default_rng(1000 * n + s)
                X = r2.normal(size=(n, 2))
                transitions = [tr(X[i], 0, 0.0, A @ X[i], 0, i) for i in range(n)]
                ds = Dataset(transitions, [X[0]], 2, 1)
                got = global_lipschitz(ds, Metric.euclidean(2))
                assert got.l_t <= true_l * (1 + 1e-9)
                vals.append(got.l_t)
            means.append(np.mean(vals))
        assert means[0] <= means[1] <= means[2]

    def test_overflowing_ratio_names_the_action_without_a_warning(self):
        # two action-1 starts 1e-160 apart with distinct next states: their
        # squared distance is subnormal and the squared ratio overflows
        ds = Dataset([
            tr([0.0, 0.0], 0, -1.0, [1.0, 0.0]), tr([3.0, 0.0], 0, -1.0, [4.0, 0.0], 0, 1),
            tr([0.0, 0.0], 1, -1.0, [0.0, 1.0], 1, 0), tr([1e-160, 0.0], 1, -1.0, [0.0, 2.0], 2),
        ], [[0.0, 0.0]], 2, 2)
        m = Metric.euclidean(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lips = global_lipschitz(ds, m)
            assert lips == LipschitzEstimates(np.inf, 0.0, 2, inf_t=1)
            with pytest.raises(ValueError) as err:
                lips.with_given({})
            assert str(err.value) == (
                "the global transition Lipschitz ratio of action 1 overflows to inf: two of "
                "its starts nearly coincide; give bound.l_t in the config instead"
            )
            # a given l_t stands in for the inf ratio
            assert lips.with_given({"l_t": 1.5}) == LipschitzEstimates(1.5, 0.0, 2, inf_t=1)
            # the scans of a config that gives the bound keep the inf ratio
            assert context_scans(ds, windy_no_wind_model(), m)[0] == lips
            # and the local scan around those starts comes back unsupported
            near = ds.neighbor_rows(np.array([0.0, 0.0]), 1, 1.0, m)
            assert not np_error_estimate(ds, near, m, lips).supported

    def test_a_large_scan_starts_no_thread(self, monkeypatch):
        # 2,900 rows of one action, 4,203,550 pairs: the scan runs in the
        # calling thread, so no thread is alive when `--jobs` forks
        rng = np.random.default_rng(5)
        n = 2900
        X = rng.uniform(-5, 5, size=(n, 2))
        ds = Dataset([tr(X[i], 0, -1.0, 2.0 * X[i], 0, i) for i in range(n)], [X[0]], 2, 1)
        m = Metric.euclidean(2)

        def no_thread(self):
            raise AssertionError("global_lipschitz started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        got = global_lipschitz(ds, m)
        assert got == LipschitzEstimates(*block_pair_scan(X, 2.0 * X, np.full(n, -1.0), m))

    @settings(max_examples=50, deadline=None)
    @given(affine_inputs(), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_pruned_scan_equals_the_block_scan(self, case, n_actions, seed):
        # near-affine rows, split between one or two actions: each action's
        # pruned scan, and the global estimates over both, equal the old
        # 64-row block scan's, bit for bit
        X, Y, R, m = case
        A = np.random.default_rng(seed).integers(0, n_actions, size=len(X))
        want = {a: block_pair_scan(X[A == a], Y[A == a], R[A == a], m)
                for a in range(n_actions) if np.count_nonzero(A == a) >= 2}
        assert {a: pair_scan(X[A == a], Y[A == a], R[A == a], m)
                for a in want} == want
        ds = Dataset([tr(X[i], int(A[i]), R[i], Y[i], 0, i) for i in range(len(X))],
                     [X[0]], X.shape[1], n_actions)
        assert global_lipschitz(ds, m) == LipschitzEstimates(
            max((t for t, _, _ in want.values()), default=0.0),
            max((r for _, r, _ in want.values()), default=0.0),
            sum(u for _, _, u in want.values()),
            min((a for a, (t, _, _) in want.items() if t == np.inf), default=None),
            min((a for a, (_, r, _) in want.items() if r == np.inf), default=None),
        )

    def test_the_bound_skips_most_of_an_affine_action(self, monkeypatch):
        # 6,000 rows under windy's map, one reward: the banded scan visits
        # at most 2 % of the pairs, and sweeps no tile, so a prune that has
        # switched off fails here
        rng = np.random.default_rng(11)
        n = 6000
        X = rng.uniform([0.0, 0.0], [12.0, 14.0], size=(n, 2))
        Y = X @ np.array([[1.0, 0.0], [-0.03, 1.0]]) + np.array([0.0, 1.0])
        rows = _Rows.of(X, Y, np.full(n, -1.0), Metric.euclidean(2))
        visited = []
        scan_pairs = errors._scan_pairs

        def counted(rows, a, b, *rest):
            visited.append(a.shape[1])
            return scan_pairs(rows, a, b, *rest)

        def no_tile(*args):
            raise AssertionError("a fitted action swept a tile")

        monkeypatch.setattr(errors, "_scan_pairs", counted)
        monkeypatch.setattr(errors, "_scan_tile", no_tile)
        got = _scan({0: rows})[0]
        assert 0 < sum(visited) <= 0.02 * n * (n - 1) / 2
        assert got == block_pair_scan(X, Y, np.full(n, -1.0), Metric.euclidean(2))


class TestNonparametricErrorEstimate:
    @settings(max_examples=80, deadline=None)
    @given(ratio_inputs(subnormal=True), st.integers(0, 2**32 - 1), st.booleans())
    def test_local_scan_equals_the_block_scan(self, case, seed, wide):
        # a neighbourhood of 2 to 200 of a dataset's rows, in row order, in
        # a dataset whose other action sometimes holds a start far outside
        # the plain range: its ratios equal the block scan's over those
        # rows, and with no usable pair the estimate takes the fallback's
        X, Y, R, m = case
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(len(X), size=rng.integers(2, min(len(X), 200) + 1),
                                  replace=False))
        transitions = [tr(X[i], 0, R[i], Y[i], 0, i) for i in range(len(X))]
        if wide:
            transitions.append(tr(np.full(len(m.weights), 1e200), 1, 0.0, X[0], 1, 0))
        ds = Dataset(transitions, [X[0]], X.shape[1], 2)
        fallback = LipschitzEstimates(0.5, 0.25, 1)
        bt, br, used = block_pair_scan(X[rows], Y[rows], R[rows], m)
        want = ErrorEstimate(bt, br) if used else ErrorEstimate(0.5, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np_error_estimate(ds, Neighbors(int(rows[0]), 1.0, rows), m, fallback)
        assert got == want

    def _dataset(self):
        # 1-D doubling dynamics, reward = 3x: local ratios are exactly 2 and 3
        transitions = [tr([float(i)], 0, 3.0 * i, [2.0 * i], t=i) for i in range(8)]
        return Dataset(transitions, [transitions[0].x], 1, 1)

    def _estimate(self, ds, x, c):
        m = Metric.euclidean(1)
        near = ds.neighbor_rows(np.array([x]), 0, c, m)
        return np_error_estimate(ds, near, m, global_lipschitz(ds, m))

    def test_zero_at_observed_start(self):
        est = self._estimate(self._dataset(), 3.0, 2.5)
        assert est.supported and est.eps_t == 0.0 and est.eps_r == 0.0

    def test_product_of_ratio_and_distance(self):
        est = self._estimate(self._dataset(), 3.5, 2.0)
        assert est.eps_t == pytest.approx(2.0 * 0.5)
        assert est.eps_r == pytest.approx(3.0 * 0.5)

    def test_unsupported_when_radius_excludes_everything(self):
        est = self._estimate(self._dataset(), 100.0, 1.0)
        assert not est.supported
        assert np.isinf(est.eps_t)

    def test_unsupported_for_an_action_without_rows(self):
        transitions = [tr([0.0], 0, 0.0, [0.0], t=0), tr([1.0], 0, 1.0, [2.0], t=1)]
        ds = Dataset(transitions, [transitions[0].x], 1, 2)
        m = Metric.euclidean(1)
        near = ds.neighbor_rows(np.array([0.0]), 1, 1e9, m)
        assert near is None
        assert not np_error_estimate(ds, near, m, global_lipschitz(ds, m)).supported
        res = parametric_residuals(ds, FunctionModel(lambda x, a: x, lambda x, a: 0.0), m)
        assert not p_error_estimate(near, res).supported

    def test_single_neighbor_falls_back_to_global(self):
        transitions = [tr([0.0], 0, 0.0, [0.0], t=0),
                       tr([10.0], 0, 5.0, [40.0], t=1)]
        ds = Dataset(transitions, [transitions[0].x], 1, 1)
        m = Metric.euclidean(1)
        fallback = global_lipschitz(ds, m)  # l_t = 4, l_r = 0.5
        est = np_error_estimate(ds, ds.neighbor_rows(np.array([0.5]), 0, 1.0, m), m, fallback)
        assert est.eps_t == pytest.approx(4.0 * 0.5)
        assert est.eps_r == pytest.approx(0.5 * 0.5)

    def test_true_error_bounded_by_ratio_times_distance(self):
        # the estimate's defining inequality, on a known-Lipschitz map
        rng = np.random.default_rng(3)
        A = np.array([[0.9, 0.2], [-0.1, 0.8]])
        true_l = float(np.linalg.svd(A, compute_uv=False)[0])
        X = rng.uniform(-2, 2, size=(200, 2))
        transitions = [tr(X[i], 0, 0.0, A @ X[i], 0, i) for i in range(200)]
        ds = Dataset(transitions, [X[0]], 2, 1)
        m = Metric.euclidean(2)
        npm = NonparametricModel(ds, m, 0.0)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            nearest = ds.starts[ds.nearest_index(x, 0, m)]
            pred, _ = npm.predict(x, 0)
            true_err = m.distance(A @ x, pred)
            assert true_err <= true_l * m.distance(x, nearest) + 1e-12


class TestParametricErrorEstimate:
    def test_zero_for_exact_model(self):
        transitions = [tr([float(i)], 0, 1.0, [i + 1.0], t=i) for i in range(6)]
        ds = Dataset(transitions, [transitions[0].x], 1, 1)
        exact = FunctionModel(lambda x, a: x + 1.0, lambda x, a: 1.0)
        m = Metric.euclidean(1)
        res = parametric_residuals(ds, exact, m)
        est = p_error_estimate(ds.neighbor_rows(np.array([2.2]), 0, 3.0, m), res)
        assert est.eps_t == 0.0 and est.eps_r == 0.0

    def test_single_neighbor_residual(self):
        transitions = [tr([0.0], 0, 1.0, [1.3], t=0)]
        ds = Dataset(transitions, [transitions[0].x], 1, 1)
        model = FunctionModel(lambda x, a: x + 1.0, lambda x, a: 1.0)
        m = Metric.euclidean(1)
        res = parametric_residuals(ds, model, m)
        est = p_error_estimate(ds.neighbor_rows(np.array([0.1]), 0, 1.0, m), res)
        assert est.eps_t == pytest.approx(0.3)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(8)
        transitions = [
            tr(rng.normal(size=2), 0, float(rng.normal()), rng.normal(size=2), 0, i)
            for i in range(60)
        ]
        ds = Dataset(transitions, [transitions[0].x], 2, 1)
        m = Metric.euclidean(2)
        model = FunctionModel(lambda x, a: 0.8 * x, lambda x, a: float(x[0]))
        res = parametric_residuals(ds, model, m)
        for _ in range(30):
            x = rng.normal(size=2)
            c = float(rng.uniform(0.3, 2.0))
            neighbors = [t for t in transitions if m.distance(t.x, x) <= c]
            est = p_error_estimate(ds.neighbor_rows(x, 0, c, m), res)
            if not neighbors:
                assert not est.supported
                continue
            expect_t = max(m.distance(0.8 * t.x, t.x_next) for t in neighbors)
            expect_r = max(abs(t.x[0] - t.r) for t in neighbors)
            assert est.eps_t == pytest.approx(expect_t, rel=1e-12)
            assert est.eps_r == pytest.approx(expect_r, rel=1e-12)


def radius_of(ds, model, metric):
    """choose_radius over the scans the pipeline builder makes."""
    lips, residuals = context_scans(ds, model, metric)
    return choose_radius(residuals[0], lips.l_t)


class TestChooseRadius:
    def test_simple_ratio(self):
        # residuals are 2 everywhere; pair ratios are 4 exactly
        transitions = [tr([float(i)], 0, 0.0, [4.0 * i], t=i) for i in range(5)]
        ds = Dataset(transitions, [transitions[0].x], 1, 1)
        model = FunctionModel(lambda x, a: 4.0 * x + 2.0, lambda x, a: 0.0)
        c = radius_of(ds, model, Metric.euclidean(1))
        assert c == pytest.approx(2.0 / 4.0)

    def test_perfect_model_gives_zero(self):
        transitions = [tr([float(i)], 0, 0.0, [i + 1.0], t=i) for i in range(5)]
        ds = Dataset(transitions, [transitions[0].x], 1, 1)
        model = FunctionModel(lambda x, a: x + 1.0, lambda x, a: 0.0)
        assert radius_of(ds, model, Metric.euclidean(1)) == 0.0

    def test_zero_ratio_gives_infinity(self):
        # constant dynamics: all next states identical, ratios are 0
        transitions = [tr([float(i)], 0, 0.0, [7.0], t=i) for i in range(5)]
        ds = Dataset(transitions, [transitions[0].x], 1, 1)
        model = FunctionModel(lambda x, a: x, lambda x, a: 0.0)
        assert radius_of(ds, model, Metric.euclidean(1)) == np.inf

    def test_empty_dataset_gives_zero(self):
        ds = Dataset([], [np.zeros(1)], 1, 1)
        model = FunctionModel(lambda x, a: x, lambda x, a: 0.0)
        assert radius_of(ds, model, Metric.euclidean(1)) == 0.0

    @pytest.mark.parametrize(
        "residuals_t, l_t, expect",
        [
            (np.zeros(0), 2.0, 0.0),  # no residual at all
            (np.full(3, np.inf), 2.0, 0.0),  # no fitted action
            (np.array([1.0, np.inf, 3.0]), 0.0, np.inf),  # all data in range
            (np.zeros(4), 2.0, 0.0),  # perfect model
            (np.array([1.0, np.inf, 3.0]), 4.0, 0.5),  # mean of finite ones / l_t
        ],
    )
    def test_direct_cases(self, residuals_t, l_t, expect):
        assert choose_radius(residuals_t, l_t) == expect

    def test_windy_value_recomputed_from_serialized_dataset(self):
        env = make_windy2d(60)
        trajs, _ = generate_trajectories(env, windy_behavior_policy(), 6, seed=5)
        ds = Dataset.from_trajectories(trajs, 4)
        model = windy_no_wind_model()
        m = Metric.euclidean(2)
        c = radius_of(ds, model, m)

        # independent recomputation: plain loops over the transitions
        residuals = [
            m.distance(model.predict(t.x, t.a)[0], t.x_next)
            for t in ds.transitions
        ]
        bt, _, _ = brute_force_ratios(ds.starts, ds.nexts, ds.actions, ds.rewards, m)
        assert c == pytest.approx(np.mean(residuals) / bt, rel=1e-9)


class TestBoundArithmetic:
    def test_rollforward_examples(self):
        p1 = BoundParams(1.0, 1.0, 1.0)
        delta = 0.0
        for _ in range(5):
            delta = rollforward_state_error(delta, p1, 0.0)
        assert delta == 0.0
        delta = 0.0
        for _ in range(7):
            delta = rollforward_state_error(delta, p1, 0.25)
        assert delta == pytest.approx(7 * 0.25)
        p2 = BoundParams(2.0, 1.0, 1.0)
        d = rollforward_state_error(0.0, p2, 1.0)
        d = rollforward_state_error(d, p2, 1.0)
        assert d == 3.0

    def test_closed_form_equals_recursion(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            t_len = int(rng.integers(1, 12))
            eps = rng.uniform(0, 2, size=t_len)
            p = BoundParams(float(rng.uniform(0, 2)), 1.0, 1.0)
            delta = 0.0
            for k in range(t_len):
                delta = rollforward_state_error(delta, p, eps[k])
            assert delta == pytest.approx(
                state_error_closed_form(eps, p, t_len), abs=1e-12, rel=1e-12
            )

    def test_bound_zero_for_zero_errors(self):
        p = BoundParams(1.5, 2.0, 0.9)
        assert return_error_bound([0.0] * 6, [0.0] * 6, p) == 0.0

    def test_bound_hand_computed(self):
        p = BoundParams(1.0, 1.0, 1.0)
        got = return_error_bound([0.5, 0.0], [0.1, 0.2], p)
        assert got == pytest.approx(0.8)

    def test_bound_monotone_in_every_entry(self):
        rng = np.random.default_rng(21)
        p = BoundParams(1.3, 0.7, 0.95)
        eps_t = rng.uniform(0, 1, size=6)
        eps_r = rng.uniform(0, 1, size=6)
        base = return_error_bound(eps_t, eps_r, p)
        for i in range(6):
            bumped_t = eps_t.copy()
            bumped_t[i] += 0.5
            assert return_error_bound(bumped_t, eps_r, p) >= base
            bumped_r = eps_r.copy()
            bumped_r[i] += 0.5
            assert return_error_bound(eps_t, bumped_r, p) > base

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            return_error_bound([0.0], [0.0, 0.0], BoundParams(1.0, 1.0, 1.0))


from helpers import simulate_bound_instance


class TestBoundSoundness:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30))
    def test_gap_never_exceeds_bound(self, seed, horizon):
        # a random linear task and an imperfect model: the actual return gap
        # stays within the bound, up to the rounding slack of criterion 1
        gap, bound = simulate_bound_instance(np.random.default_rng(seed), horizon)
        assert gap <= bound + 1e-12 * max(1.0, bound)


class TestErrorEstimateType:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorEstimate(-1.0, 0.0)
        # a pair with any non-finite error is unsupported, and both errors are inf
        for eps_t, eps_r in [(np.inf, 0.0), (0.0, np.nan), (-np.inf, 1.0)]:
            assert ErrorEstimate(eps_t, eps_r) == ErrorEstimate.unsupported()
        est = ErrorEstimate.unsupported()
        assert not est.supported and np.isinf(est.eps_t) and np.isinf(est.eps_r)
        assert ErrorEstimate(0.0, 2.0).supported

    def test_bound_params_validation(self):
        with pytest.raises(ValueError):
            BoundParams(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            BoundParams(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            BoundParams(np.inf, 1.0, 1.0)
