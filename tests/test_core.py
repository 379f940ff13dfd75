"""Core types: metric, transitions, datasets, neighbor queries, policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import neighbors_within
from moesim.core import (
    Dataset,
    Metric,
    Policy,
    Trajectory,
    Transition,
    as_state,
    read_dataset_csv,
    trajectories_from_dataset,
    trajectory_return,
    write_dataset_csv,
)


def inverse_cdf(p, u):
    """Reference pick: the first action whose cumulative probability
    exceeds u (numpy's running sum), else the last action."""
    return int(np.searchsorted(np.cumsum(p)[:-1], u, side="right"))


@st.composite
def probability_vectors(draw):
    """Normalized random weights (zeros allowed) or a one-hot."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        p = np.zeros(n)
        p[draw(st.integers(0, n - 1))] = 1.0
        return p
    w = np.array(draw(st.lists(
        st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n,
    )))
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


def make_transition(x, a, r, y, traj_id=0, t=0):
    return Transition(np.array(x, float), a, r, np.array(y, float), traj_id, t)


def brute_force_nearest(transitions, x, a, metric):
    """Reference linear scan with (traj_id, t) tie-break."""
    best = None
    best_key = None
    for tr in transitions:
        if tr.a != a:
            continue
        key = (metric.distance(np.array(x), tr.x), tr.traj_id, tr.t)
        if best_key is None or key < best_key:
            best, best_key = tr, key
    return best


class TestMetric:
    def test_pythagorean(self):
        m = Metric.euclidean(2)
        assert m.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_identity(self):
        m = Metric.euclidean(3)
        x = np.array([1.7, -2.3, 0.4])
        assert m.distance(x, x) == 0.0

    def test_weighted_sixth_dimension(self):
        # weight w multiplies the coordinate difference inside the square,
        # so a unit offset in a weight-20 dimension costs exactly 20
        m = Metric(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 20.0]))
        x = np.zeros(6)
        y = np.zeros(6)
        y[5] = 1.0
        assert m.distance(x, y) == 20.0

    def test_dimension_mismatch(self):
        m = Metric.euclidean(2)
        with pytest.raises(ValueError):
            m.distance(np.zeros(2), np.zeros(3))

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            Metric(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            Metric(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            Metric(np.array([1.0, np.inf]))

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            m = Metric(rng.uniform(0.1, 5.0, size=d))
            x, y, z = rng.normal(size=(3, d))
            assert m.distance(x, y) == pytest.approx(m.distance(y, x), abs=1e-9)
            assert m.distance(x, z) <= m.distance(x, y) + m.distance(y, z) + 1e-9

    def test_batched_distances_match_scalar(self):
        rng = np.random.default_rng(1)
        m = Metric(rng.uniform(0.5, 2.0, size=3))
        pts = rng.normal(size=(40, 3))
        x = rng.normal(size=3)
        batched = m.distances_to(pts, x)
        for i in range(40):
            # vectorized path may differ from the scalar dot by one ulp
            assert batched[i] == pytest.approx(m.distance(pts[i], x), abs=1e-12)


class TestStatesAndTransitions:
    def test_as_state_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_state([1.0, np.nan])
        with pytest.raises(ValueError):
            as_state([[1.0, 2.0]])

    def test_transition_validation(self):
        with pytest.raises(ValueError):
            make_transition([0.0], 0, 1.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            make_transition([0.0], 0, np.inf, [1.0])

    def test_trajectory_chaining_enforced(self):
        a = make_transition([0.0], 0, -1.0, [1.0], t=0)
        b_bad = make_transition([2.0], 0, -1.0, [3.0], t=1)
        with pytest.raises(ValueError):
            Trajectory((a, b_bad))
        b_bad_t = make_transition([1.0], 0, -1.0, [2.0], t=5)
        with pytest.raises(ValueError):
            Trajectory((a, b_bad_t))

    def test_trajectory_states(self):
        a = make_transition([0.0], 0, -1.0, [1.0], t=0)
        b = make_transition([1.0], 0, -1.0, [2.0], t=1)
        traj = Trajectory((a, b))
        assert [float(s[0]) for s in traj.states] == [0.0, 1.0, 2.0]


class TestTrajectoryReturn:
    def _constant_reward_traj(self, rewards):
        trs = []
        for t, r in enumerate(rewards):
            trs.append(make_transition([float(t)], 0, r, [float(t + 1)], t=t))
        return Trajectory(tuple(trs))

    def test_undiscounted_negative_steps(self):
        traj = self._constant_reward_traj([-1.0] * 10)
        assert trajectory_return(traj, 1.0) == -10.0

    def test_discounted(self):
        traj = self._constant_reward_traj([1.0, 1.0])
        assert trajectory_return(traj, 0.5) == 1.5

    def test_empty(self):
        assert trajectory_return(Trajectory(()), 1.0) == 0.0

    def test_gamma_validation(self):
        traj = self._constant_reward_traj([1.0])
        with pytest.raises(ValueError):
            trajectory_return(traj, 0.0)
        with pytest.raises(ValueError):
            trajectory_return(traj, 1.5)


def random_dataset(rng, n, dim=2, n_actions=3):
    transitions = []
    for i in range(n):
        transitions.append(
            Transition(
                rng.normal(size=dim),
                int(rng.integers(n_actions)),
                float(rng.normal()),
                rng.normal(size=dim),
                traj_id=int(rng.integers(5)),
                t=i,
            )
        )
    return Dataset(transitions, [transitions[0].x], dim, n_actions)


class TestNeighborQueries:
    def test_nearest_basic(self):
        ds = Dataset(
            [
                make_transition([0.0, 0.0], 0, -1.0, [1.0, 0.0], traj_id=0, t=0),
                make_transition([5.0, 5.0], 0, -1.0, [6.0, 5.0], traj_id=0, t=1),
            ],
            [np.zeros(2)],
            2,
            2,
        )
        m = Metric.euclidean(2)
        got = ds.nearest(np.array([1.0, 1.0]), 0, m)
        assert np.array_equal(got.x, np.array([0.0, 0.0]))

    def test_nearest_absent_action(self):
        ds = Dataset(
            [make_transition([0.0, 0.0], 0, -1.0, [1.0, 0.0])], [np.zeros(2)], 2, 2
        )
        assert ds.nearest(np.zeros(2), 1, Metric.euclidean(2)) is None

    def test_nearest_tie_breaks_lexicographically(self):
        # both starts at distance 1 from the query; (traj 0, t 3) wins over (1, 0)
        ds = Dataset(
            [
                make_transition([0.0, 1.0], 0, -1.0, [9.0, 9.0], traj_id=1, t=0),
                make_transition([0.0, -1.0], 0, -2.0, [8.0, 8.0], traj_id=0, t=3),
            ],
            [np.zeros(2)],
            2,
            1,
        )
        got = ds.nearest(np.zeros(2), 0, Metric.euclidean(2))
        assert (got.traj_id, got.t) == (0, 3)

    def test_nearest_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            ds = random_dataset(rng, int(rng.integers(5, 500)))
            m = Metric(rng.uniform(0.2, 3.0, size=2))
            for _ in range(20):
                x = rng.normal(size=2)
                a = int(rng.integers(3))
                expect = brute_force_nearest(ds.transitions, x, a, m)
                got = ds.nearest(x, a, m)
                if expect is None:
                    assert got is None
                else:
                    assert (got.traj_id, got.t) == (expect.traj_id, expect.t)

    def test_neighbors_radius_zero_at_observed_start(self):
        ds = Dataset(
            [
                make_transition([1.0, 1.0], 0, -1.0, [2.0, 1.0], t=0),
                make_transition([1.0, 1.0], 0, -2.0, [0.0, 1.0], traj_id=1, t=0),
                make_transition([1.5, 1.0], 0, -3.0, [2.5, 1.0], traj_id=2, t=0),
            ],
            [np.ones(2)],
            2,
            1,
        )
        got = neighbors_within(ds, np.array([1.0, 1.0]), 0, 0.0, Metric.euclidean(2))
        assert len(got) == 2
        assert all(np.array_equal(tr.x, np.ones(2)) for tr in got)

    def test_neighbors_large_radius_returns_all(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 100)
        m = Metric.euclidean(2)
        got = neighbors_within(ds, np.zeros(2), 1, 1e9, m)
        assert len(got) == ds.n_for_action(1)

    def test_neighbors_shells_match_linear_scan(self):
        # points on two shells; a radius between them keeps the inner shell only
        rng = np.random.default_rng(11)
        transitions = []
        t = 0
        for radius in (1.0, 3.0):
            for _ in range(50):
                ang = rng.uniform(0, 2 * np.pi)
                x = radius * np.array([np.cos(ang), np.sin(ang)])
                transitions.append(Transition(x, 0, -1.0, x + 1.0, 0, t))
                t += 1
        ds = Dataset(transitions, [transitions[0].x], 2, 1)
        m = Metric.euclidean(2)
        got = neighbors_within(ds, np.zeros(2), 0, 2.0, m)
        scan = [tr for tr in transitions if m.distance(tr.x, np.zeros(2)) <= 2.0]
        assert len(got) == len(scan) == 50
        dists = [m.distance(tr.x, np.zeros(2)) for tr in got]
        assert np.all(np.diff(dists) >= -1e-12)

    def test_neighbors_within_kth_distance_holds_k_items(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, 200)
        m = Metric.euclidean(2)
        x = rng.normal(size=2)
        for a in range(3):
            X, _, _ = ds.action_arrays(a)
            if len(X) < 5:
                continue
            d = np.sort(m.distances_to(X, x))
            k = 5
            got = neighbors_within(ds, x, a, float(d[k - 1]), m)
            assert len(got) >= k

    def test_dataset_validation(self):
        tr = make_transition([0.0, 0.0], 5, -1.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            Dataset([tr], [np.zeros(2)], 2, 2)
        with pytest.raises(ValueError):
            Dataset([make_transition([0.0], 0, 1.0, [1.0])], [np.zeros(2)], 2, 2)


class TestSerialization:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 60)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds)
        loaded, probs = read_dataset_csv(path)
        assert probs is None
        assert loaded.dim == ds.dim and loaded.n_actions == ds.n_actions
        assert len(loaded) == len(ds)
        for a, b in zip(loaded.transitions, ds.transitions):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.x_next, b.x_next)
            assert a.r == b.r and a.a == b.a and (a.traj_id, a.t) == (b.traj_id, b.t)
        for a, b in zip(loaded.initial_states, ds.initial_states):
            assert np.array_equal(a, b)

    def test_csv_with_behavior_probs(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 20)
        pb = {(tr.traj_id, tr.t): float(rng.uniform(0.1, 1.0)) for tr in ds.transitions}
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ds, behavior_probs=pb)
        _, loaded_pb = read_dataset_csv(path)
        assert loaded_pb == pb

    def test_trajectory_regrouping(self):
        rows = []
        for tid in range(3):
            x = float(tid)
            for t in range(4):
                rows.append(make_transition([x + t], 0, -1.0, [x + t + 1], tid, t))
        ds = Dataset(rows, [np.array([0.0])], 1, 1)
        trajs = trajectories_from_dataset(ds)
        assert [len(t) for t in trajs] == [4, 4, 4]


class TestPolicy:
    def test_deterministic_one_hot(self):
        pol = Policy.deterministic(lambda x: 1 if x[0] > 0 else 0, 3)
        assert pol.probs(np.array([2.0])).tolist() == [0.0, 1.0, 0.0]
        assert pol.probs(np.array([-2.0]))[0] == 1.0

    def test_sampling_matches_distribution(self):
        pol = Policy(2, lambda x: np.array([0.25, 0.75]))
        rng = np.random.default_rng(0)
        draws = [pol.sample(np.zeros(1), rng) for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(0.75, abs=0.03)

    def test_sampling_deterministic_under_seed(self):
        pol = Policy.uniform(4)
        a = [pol.sample(np.zeros(1), np.random.default_rng(42)) for _ in range(5)]
        b = [pol.sample(np.zeros(1), np.random.default_rng(42)) for _ in range(5)]
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(probability_vectors(), st.floats(0.0, 1.0, exclude_max=True), st.data())
    def test_choose_is_the_inverse_cdf(self, p, u, data):
        assert Policy.choose(p, u) == inverse_cdf(p, u)
        assert Policy.choose(p.tolist(), u) == inverse_cdf(p, u)
        # u exactly on a cumulative boundary belongs to the next action
        cum = np.cumsum(p)
        k = data.draw(st.integers(0, len(p) - 1))
        if cum[k] < 1.0:
            assert Policy.choose(p, cum[k]) == inverse_cdf(p, cum[k])

    def test_choose_on_boundaries_and_one_hots(self):
        p = [0.25, 0.25, 0.5]
        assert [Policy.choose(p, u) for u in (0.0, 0.2499, 0.25, 0.5, 0.9999)] == [
            0, 0, 1, 2, 2,
        ]
        for a in range(4):
            one_hot = np.eye(4)[a]
            assert {Policy.choose(one_hot, u) for u in (0.0, 0.5, 1.0 - 2**-53)} == {a}

    def test_sample_is_probs_then_choose(self):
        pol = Policy(3, lambda x: np.array([0.2, 0.3, 0.5]))
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(50):
            assert pol.sample(np.zeros(1), rng) == Policy.choose(
                pol.probs(np.zeros(1)), ref.random()
            )
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_invalid_distribution_rejected(self):
        bad = Policy(2, lambda x: np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            bad.probs(np.zeros(1))
        negative = Policy(2, lambda x: np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            negative.probs(np.zeros(1))

    @pytest.mark.parametrize(
        "vector",
        [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [-np.inf, np.inf, 1.0],
         [np.nan, np.nan, np.nan]],
    )
    def test_non_finite_distribution_rejected(self, vector):
        # NaN compares false with everything, so a check written as
        # "reject if p < 0 or |sum - 1| > tol" would let it through
        pol = Policy(3, lambda x: np.array(vector))
        with pytest.raises(ValueError):
            pol.probs(np.zeros(1))
        with pytest.raises(ValueError):
            pol.sample(np.zeros(1), np.random.default_rng(0))
