"""Core types: metric, transitions, datasets, neighbor queries, policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    einsum_distances,
    general_path,
    neighbors_within,
    reference_choose_many,
    reference_generators,
    reference_probs_valid,
    two_lane_distance,
    uniform_policy,
)
from moesim.core import (
    Dataset,
    Metric,
    Policy,
    Trajectory,
    Transition,
    as_state,
    generators,
    trajectory_return,
)
from moesim.envs.acrobot import acrobot_heuristic_policy
from moesim.envs.windy import windy_behavior_policy, windy_eval_policy


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


def linear_scan(ds, x, a, metric):
    """Reference per-action scan: (distance, traj_id, t, row) of every row
    with action `a`, in ascending order, so ties go to the smallest
    (traj_id, t).  The distances are the row form of `Metric.distance`."""
    d = einsum_distances(metric, ds.starts, x).tolist()
    return sorted(
        (d[row], tr.traj_id, tr.t, row)
        for row, tr in enumerate(ds.transitions)
        if tr.a == a
    )


def trajectory(states, actions=None, rewards=None):
    n = len(states) - 1
    return Trajectory(
        np.array(states, float).reshape(n + 1, -1),
        [0] * n if actions is None else actions,
        [-1.0] * n if rewards is None else rewards,
    )


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

    def test_weighted_metric_for_six_dim_states(self):
        # one heavily weighted dimension dominates the distance
        m = Metric(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 20.0]))
        a = np.zeros(6)
        b = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        c = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        assert m.distance(a, c) == 20.0 * m.distance(a, b)

    def test_dimension_mismatch(self):
        m = Metric.euclidean(2)
        with pytest.raises(ValueError):
            m.distance(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="metric is 2-D, points are 3-D and 3-D$"):
            m.distance(np.zeros((4, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="points are 2-D and 2-D$"):
            m.distance(np.zeros((4, 2)), np.zeros((1, 2)))  # the rows must match too

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
        batched = m.distance(pts, x)
        for i in range(40):
            assert batched[i] == m.distance(pts[i], x)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 300), st.integers(0, 2**32 - 1), st.booleans())
    def test_distance_keeps_the_bits_of_the_row_form(self, dim, n, seed, columns):
        # on a dataset's contiguous (dim, n) block or on plain rows alike
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8, 8, size=dim)
        m = Metric(10.0 ** rng.uniform(-3, 3, size=dim))
        pts = rng.normal(size=(n, dim)) * scale
        x = rng.normal(size=dim) * scale
        points = np.ascontiguousarray(pts.T).T if columns else pts
        assert m.distance(points, x).tobytes() == einsum_distances(m, pts, x).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4), st.integers(0, 40), st.integers(0, 2**32 - 1),
        st.booleans(), st.booleans(),
    )
    def test_distance_is_the_two_lane_sum_in_every_shape(self, dim, n, seed, unit, fortran):
        # bit for bit, for a pair, for matching rows and for rows against
        # one state, on coordinates over sixteen decades
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8, 8, size=dim)
        m = Metric.euclidean(dim) if unit else Metric(10.0 ** rng.uniform(-3, 3, size=dim))
        X, Y = rng.normal(size=(2, n, dim)) * scale
        y = rng.normal(size=dim) * scale
        if fortran:
            X, Y = np.asfortranarray(X), np.asfortranarray(Y)
        w = m.weights.tolist()
        paired = np.array([two_lane_distance(w, a, b) for a, b in zip(X.tolist(), Y.tolist())])
        to_y = np.array([two_lane_distance(w, a, y.tolist()) for a in X.tolist()])
        assert m.distance(X, Y).tobytes() == paired.tobytes()
        assert m.distance(X, y).tobytes() == to_y.tobytes()
        assert [m.distance(a, b) for a, b in zip(X, Y)] == paired.tolist()
        assert m.distance(X, Y).shape == m.distance(X, y).shape == (n,)
        assert m.distance(X[:0], Y[:0]).shape == m.distance(X[:0], y).shape == (0,)
        for x, z in [(X, np.zeros((n, dim + 1))), (X, np.zeros(dim + 1)),
                     (np.zeros((n, dim + 1)), y), (y, np.zeros(dim + 1))]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                m.distance(x, z)


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

    def test_trajectory_shapes_must_agree(self):
        with pytest.raises(ValueError, match="needs 2 rewards and 3 states"):
            Trajectory(np.zeros((2, 1)), [0, 0], [-1.0, -1.0])
        with pytest.raises(ValueError, match="needs 2 rewards"):
            Trajectory(np.zeros((3, 1)), [0, 0], [-1.0])
        with pytest.raises(ValueError):
            Trajectory(np.zeros(3), [0, 0], [-1.0, -1.0])  # states are rows
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 1)), [], [])  # no start state

    @pytest.mark.parametrize(
        "where, step",
        [("start", 0), ("state", 0), ("state", 2), ("reward", 1), ("reward", 2)],
    )
    def test_trajectory_names_the_first_non_finite_step(self, where, step):
        states, rewards = np.zeros((4, 2)), np.zeros(3)
        if where == "start":
            states[0, 1] = np.nan
        elif where == "state":
            states[step + 1, 0] = np.inf  # the state step `step` leads to
        else:
            rewards[step] = np.nan
        states[3, 1] = np.nan  # a later fault is not the one named
        with pytest.raises(ValueError, match=f"at trajectory step {step}$"):
            Trajectory(states, [0, 1, 0], rewards)

    def test_trajectory_rejects_negative_actions(self):
        with pytest.raises(ValueError, match="nonnegative"):
            trajectory([[0.0], [1.0], [2.0]], actions=[0, -1])

    def test_trajectory_states(self):
        states = np.array([[0.0], [1.0], [2.0]])
        traj = Trajectory(states, [1, 0], [-1.0, -2.0], terminated=True)
        states[1, 0] = 9.0  # the trajectory holds its own copy
        assert traj.states[:, 0].tolist() == [0.0, 1.0, 2.0]
        for arr in (traj.states, traj.actions, traj.rewards):
            with pytest.raises(ValueError):
                arr[0] = 5
        assert [(tr.x[0], tr.a, tr.r, tr.x_next[0], tr.t) for tr in traj.transitions] == [
            (0.0, 1, -1.0, 1.0, 0), (1.0, 0, -2.0, 2.0, 1),
        ]
        assert traj.transitions is traj.transitions  # built once
        assert len(traj) == 2 and traj.terminated


class TestTrajectoryReturn:
    def _constant_reward_traj(self, rewards):
        return trajectory([[float(t)] for t in range(len(rewards) + 1)], rewards=rewards)

    def test_undiscounted_negative_steps(self):
        traj = self._constant_reward_traj([-1.0] * 10)
        assert trajectory_return(traj, 1.0) == -10.0

    def test_discounted(self):
        traj = self._constant_reward_traj([1.0, 1.0])
        assert trajectory_return(traj, 0.5) == 1.5

    def test_empty(self):
        assert trajectory_return(trajectory([[0.0]]), 1.0) == 0.0

    def test_gamma_validation(self):
        traj = self._constant_reward_traj([1.0])
        with pytest.raises(ValueError):
            trajectory_return(traj, 0.0)
        with pytest.raises(ValueError):
            trajectory_return(traj, 1.5)


# 2-D points on a small integer grid under power-of-two weights: every
# distance is exact, so equal distances are true ties
GRID = (st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=2, max_size=2))


@st.composite
def pooled_points(draw):
    """4-D float points, acrobot's dimension, where the lane order of
    `Metric.distance` matters, drawn from a small pool so that duplicate
    starts occur, or fresh; and float weights."""
    coordinate = st.floats(-20, 20, allow_subnormal=False)
    pool = draw(st.lists(st.lists(coordinate, min_size=4, max_size=4), min_size=1, max_size=6))
    point = st.sampled_from(pool) | st.lists(coordinate, min_size=4, max_size=4)
    return point, st.lists(st.floats(0.1, 8.0), min_size=4, max_size=4)


@st.composite
def indexed_dataset(draw):
    """A dataset of grid or pooled points (so ties and duplicate starts are
    common) whose rows arrive in a shuffled (traj_id, t) order, with a
    weighted metric, and the strategy of its points."""
    point, weights = draw(st.just(GRID) | pooled_points())
    n = draw(st.integers(0, 40))
    keys = draw(st.permutations(
        draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)),
                      min_size=n, max_size=n, unique=True))
    ))
    transitions = [
        Transition(np.array(draw(point), float), draw(st.integers(0, 2)), -1.0,
                   np.array(draw(point), float), traj_id=i, t=t)
        for i, t in keys
    ]
    w = np.array(draw(weights))
    return Dataset(transitions, [np.zeros(len(w))], len(w), 3), Metric(w), point


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
        got = ds.nearest_index(np.array([1.0, 1.0]), 0, m)
        assert np.array_equal(ds.starts[got], np.array([0.0, 0.0]))

    def test_nearest_absent_action(self):
        ds = Dataset(
            [make_transition([0.0, 0.0], 0, -1.0, [1.0, 0.0])], [np.zeros(2)], 2, 2
        )
        assert ds.nearest_index(np.zeros(2), 1, Metric.euclidean(2)) is None

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
        got = ds.nearest_index(np.zeros(2), 0, Metric.euclidean(2))
        assert (ds.traj_id[got], ds.t[got]) == (0, 3)

    @settings(max_examples=150, deadline=None)
    @given(indexed_dataset(), st.data())
    def test_index_equals_a_per_action_linear_scan(self, case, data):
        ds, m, point = case
        x = np.array(data.draw(point), float)
        for a in range(ds.n_actions):
            scan = linear_scan(ds, x, a, m)
            # a radius equal to a row's distance keeps that row
            c = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.5, 1e9, *(s[0] for s in scan)]))
            near = ds.neighbor_rows(x, a, c, m)
            assert ds.nearest_index(x, a, m) == (scan[0][3] if scan else None)
            if not scan:
                assert near is None
                continue
            assert (near.nearest, near.distance) == (scan[0][3], scan[0][0])
            within = sorted((tid, t, row) for d, tid, t, row in scan if d <= c)
            assert near.rows.tolist() == [row for _, _, row in within]

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
        assert [tr.t for tr in got] == [tr.t for tr in scan]

    def test_neighbors_within_kth_distance_holds_k_items(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, 200)
        m = Metric.euclidean(2)
        x = rng.normal(size=2)
        for a in range(3):
            X, _, _ = ds.action_arrays(a)
            if len(X) < 5:
                continue
            d = np.sort(m.distance(X, x))
            k = 5
            got = neighbors_within(ds, x, a, float(d[k - 1]), m)
            assert len(got) >= k

    def test_dataset_validation(self):
        tr = make_transition([0.0, 0.0], 5, -1.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            Dataset([tr], [np.zeros(2)], 2, 2)
        with pytest.raises(ValueError):
            Dataset([make_transition([0.0], 0, 1.0, [1.0])], [np.zeros(2)], 2, 2)

    @pytest.mark.parametrize(
        "starts, message",
        [
            ([[0.0, 0.0], [np.nan, 0.0], [0.0]], "state contains non-finite values"),
            ([[0.0, 0.0], [[0.0, 0.0]]], r"state must be a 1-D vector, got shape \(1, 2\)"),
            ([[0.0, 0.0], [0.0]], "initial state dimension differs from dataset dim"),
            ([[0.0], [1.0]], "initial state dimension differs from dataset dim"),
        ],
        ids=["non-finite", "2-D", "ragged", "short"],
    )
    def test_initial_states_name_the_first_bad_state(self, starts, message):
        tr = make_transition([0.0, 0.0], 0, -1.0, [1.0, 0.0])
        with pytest.raises(ValueError, match=message):
            Dataset([tr], starts, 2, 1)

    def test_initial_states_are_read_only_copies(self):
        start = np.array([1.0, 2.0])
        tr = make_transition([0.0, 0.0], 0, -1.0, [1.0, 0.0])
        ds = Dataset([tr], [start, [3.0, 4.0]], 2, 1)
        start[0] = 9.0
        assert [s.tolist() for s in ds.initial_states] == [[1.0, 2.0], [3.0, 4.0]]
        assert not any(s.flags.writeable for s in ds.initial_states)
        assert Dataset([tr], [], 2, 1).initial_states == ()


class TestPolicy:
    def test_deterministic_one_hot(self):
        pol = Policy.deterministic(lambda x: 1 if x[0] > 0 else 0, 3)
        assert pol.probs(np.array([2.0])).tolist() == [0.0, 1.0, 0.0]
        assert pol.probs(np.array([-2.0]))[0] == 1.0

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_an_out_of_range_action_is_rejected_naming_it(self, bad, batched):
        # -1 used to index the last action's column and pass as a valid one-hot
        def act(x):
            return bad if x[0] > 0 else 1

        def act_many(X):
            return np.where(X[:, 0] > 0, bad, 1)

        pol = Policy.deterministic(act, 3, act_many if batched else None)
        message = f"policy action {bad} is not one of the actions 0..2"
        X = np.array([[-1.0], [2.0], [-3.0]])
        assert pol.probs(X[0]).tolist() == [0.0, 1.0, 0.0]
        with pytest.raises(ValueError) as err:
            pol.probs(X[1])
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            pol.probs_many(X)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            pol.actions_fn(X)
        assert str(err.value) == message
        assert pol.actions_fn(X[[0, 2]]).tolist() == [1, 1]
        with pytest.raises(ValueError) as err:
            pol.sample(X[1], np.random.default_rng(0))
        assert str(err.value) == message
        assert pol.sample(X[0], np.random.default_rng(0)) == 1

    def test_a_wrongly_shaped_action_vector_is_rejected(self):
        pol = Policy.deterministic(lambda x: 0, 2, lambda X: np.zeros((len(X), 2), dtype=int))
        for call in (pol.actions_fn, pol.probs_many):
            with pytest.raises(ValueError, match="wrongly-shaped action vector"):
                call(np.zeros((3, 1)))

    def test_sampling_matches_distribution(self):
        pol = Policy(2, lambda x: np.array([0.25, 0.75]))
        rng = np.random.default_rng(0)
        draws = [pol.sample(np.zeros(1), rng) for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(0.75, abs=0.03)

    def test_sampling_deterministic_under_seed(self):
        pol = uniform_policy(4)
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

    @pytest.mark.parametrize("policy", [
        windy_eval_policy(), windy_behavior_policy(), acrobot_heuristic_policy(),
        Policy.deterministic(lambda x: int(x[0] > 0), 2),
        Policy.deterministic(lambda x: np.int64(2 if x[1] > 0 else 0), 3),
    ])
    def test_deterministic_sample_is_the_rule_after_one_draw(self, policy):
        # the rule's action, as a Python int, from the generator state that
        # probs-then-choose of the general path leaves
        states = np.random.default_rng(3).uniform(-12.0, 12.0, size=(200, 4))
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        oracle = general_path(policy)
        for x in states:
            a = policy.sample(x, rng)
            assert type(a) is int and a == oracle.sample(x, ref)
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


# ---------------------------------------------------------------------------
# Column-pass kernels against their references
# ---------------------------------------------------------------------------

EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64)
seeds = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**130 - 1)
rollout_ids = st.sampled_from((0, 2**32 - 1)) | st.integers(0, 2**32 - 1)


class TestGenerators:
    @settings(max_examples=200, deadline=None)
    @given(seeds, st.lists(rollout_ids, max_size=6) | st.integers(0, 6).map(range))
    def test_streams_equal_default_rng(self, seed, ids):
        got = generators(seed, ids)
        want = reference_generators(seed, ids)
        assert [g.bit_generator.state for g in got] == [g.bit_generator.state for g in want]
        assert [g.random() for g in got] == [g.random() for g in want]

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**64])
    def test_an_id_outside_32_bits_raises(self, bad):
        with pytest.raises(ValueError):
            generators(3, [0, bad])


ONE = 1.0 - 1e-9, 1.0, 1.0 + 1e-9


@st.composite
def probability_rows(draw):
    """Rows of 1 to 7 actions: normalized weights, some entries replaced by
    NaN, ±inf or negatives, and some rows shifted so that their left-to-right
    sum lands on or one ulp beside 1 ± 1e-9."""
    k = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
        p = w / w.sum() if w.sum() > 0 else np.eye(k)[0]
        kind = draw(st.sampled_from(["valid", "special", "edge"]))
        if kind == "special":
            j = draw(st.integers(0, k - 1))
            p[j] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -1e-300, -0.5, -0.0]))
        elif kind == "edge":
            target = draw(st.sampled_from(ONE))
            target = float(np.nextafter(target, draw(st.sampled_from([0.0, target, 2.0]))))
            p[-1] += target - sum(p.tolist())
        rows.append(p)
    return np.array(rows)


@st.composite
def choice_cases(draw):
    """Rows that need not sum to 1 and may hold negative entries, NaN or
    inf (not -inf, whose sum with inf warns), with each u a uniform draw or
    a finite running sum of its row."""
    k = draw(st.integers(1, 7))
    entry = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 0.5, np.nan, np.inf])
    P = np.array(draw(st.lists(
        st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=6,
    )))
    U = []
    for p in P:
        sums = [c for c in np.cumsum(p).tolist() if np.isfinite(c)]
        uniform = st.floats(0.0, 1.0, exclude_max=True)
        U.append(draw(uniform | st.sampled_from(sums) if sums else uniform))
    return P, np.array(U)


class TestColumnPasses:
    @settings(max_examples=300, deadline=None)
    @given(probability_rows())
    def test_probs_accepts_and_rejects_as_the_row_reductions(self, P):
        def accepts(check, arg):
            try:
                check(arg)
            except ValueError:
                return False
            return True

        k = P.shape[1]
        rows = iter(P)
        policy = Policy(k, lambda x: next(rows), lambda X: P)
        assert accepts(policy.probs_many, np.zeros((len(P), 1))) == reference_probs_valid(P)
        for p in P:
            assert accepts(policy.probs, np.zeros(1)) == reference_probs_valid(p[None])

    @settings(max_examples=300, deadline=None)
    @given(choice_cases())
    def test_choose_many_picks_as_cumsum_and_argmax(self, case):
        P, U = case
        picks = Policy.choose_many(P, U)
        assert picks.tolist() == reference_choose_many(P, U).tolist()
        assert picks.tolist() == [Policy.choose(p.tolist(), u) for p, u in zip(P, U)]
