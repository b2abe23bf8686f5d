import numpy as np
import pytest

from bandit_lab.environments import Environment, EnvSpec, RoundOutcome


def test_spec_defaults():
    assert EnvSpec("bump").context_dim == 5
    assert EnvSpec("chessboard").context_dim == 1
    assert EnvSpec("step_diagonal").context_dim == 1
    assert EnvSpec("linear_sanity").context_dim == 3
    assert EnvSpec("bump", context_dim=2).context_dim == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        EnvSpec("maze")
    with pytest.raises(ValueError):
        EnvSpec("chessboard", context_dim=2)
    with pytest.raises(ValueError):
        EnvSpec("bump", action_grid=1)
    with pytest.raises(ValueError):
        EnvSpec("bump", noise_sigma=-0.1)
    with pytest.raises(ValueError):
        EnvSpec("step_diagonal", band_width=0.0)
    with pytest.raises(ValueError):
        EnvSpec("chessboard", chessboard_cells=0)


def test_grid_shape_and_range():
    env = Environment(EnvSpec("bump", action_grid=50))
    grid = env.action_grid()
    assert grid.shape == (50, 1)
    assert grid[0, 0] == 0.0 and grid[-1, 0] == 1.0
    assert np.all(np.diff(grid[:, 0]) > 0)
    grid[0, 0] = 99.0  # a copy, not the env's own array
    assert env.action_grid()[0, 0] == 0.0


def test_bump_peak_and_shape():
    env = Environment(EnvSpec("bump", seed=3))
    x = env.context_star  # tilt term vanishes here
    assert env.reward_mean(x, np.array([env.action_star])) == pytest.approx([1.0])
    grid = env.action_grid()[:, 0]
    means = env.reward_mean(x, grid)
    want = np.maximum(0.0, 1.0 - np.abs(grid - env.action_star))
    assert np.allclose(means, want)
    assert np.all(means >= 0.0)


def test_bump_tilt_shifts_whole_curve():
    env = Environment(EnvSpec("bump", seed=4))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(size=5)
        tilt = float(env.tilt @ (x - env.context_star))
        grid = env.action_grid()[:, 0]
        want = np.maximum(0.0, 1.0 - np.abs(grid - env.action_star) - tilt)
        assert np.allclose(env.reward_mean(x, grid), want)


def test_chessboard_cell_values():
    env = Environment(EnvSpec("chessboard", chessboard_cells=2))
    # cell (i, j) carries value (1, 0.5, 0)[(2 i + j) % 3]
    actions = np.array([0.1, 0.6])
    assert env.reward_mean(np.array([0.1]), actions).tolist() == [1.0, 0.5]
    assert env.reward_mean(np.array([0.6]), actions).tolist() == [0.0, 1.0]


def test_chessboard_cycle_structure():
    # with 4 cells per side the row-major cycle reduces to (i + j) % 3, so
    # values shift one slot per row and every row contains all three levels
    env = Environment(EnvSpec("chessboard", chessboard_cells=4))
    centres = (np.arange(4) + 0.5) / 4
    values = np.array([env.reward_mean(np.array([x]), centres) for x in centres])
    want = np.array(
        [
            [1.0, 0.5, 0.0, 1.0],
            [0.5, 0.0, 1.0, 0.5],
            [0.0, 1.0, 0.5, 0.0],
            [1.0, 0.5, 0.0, 1.0],
        ]
    )
    assert np.array_equal(values, want)
    means = env.reward_mean(np.array([0.37]), env.action_grid())
    assert set(np.unique(means)) <= {0.0, 0.5, 1.0}


def test_chessboard_top_edge_belongs_to_last_cell():
    env = Environment(EnvSpec("chessboard", chessboard_cells=2))
    assert env.reward_mean(np.array([1.0]), np.array([1.0])) == env.reward_mean(
        np.array([0.9]), np.array([0.9])
    )


def test_step_diagonal_band_values():
    env = Environment(EnvSpec("step_diagonal", band_width=0.1))
    x = np.array([0.5])
    cases = [
        (0.50, 1.0),  # on the diagonal
        (0.55, 1.0),  # inside the main band
        (0.44, 1.0),
        (0.38, 0.5),  # half band below the diagonal
        (0.32, 0.5),
        (0.28, 0.0),  # past the half band
        (0.65, 0.0),  # above the main band
    ]
    actions, want = np.array(cases).T
    assert np.array_equal(env.reward_mean(x, actions), want)
    means = env.reward_mean(x, env.action_grid())
    assert set(np.unique(means)) <= {0.0, 0.5, 1.0}
    assert means.max() == 1.0


def test_step_diagonal_band_edges():
    # width 1/8 makes every edge exactly representable in binary floats
    env = Environment(EnvSpec("step_diagonal", band_width=0.125))
    x = np.array([0.5])
    # d = +w is exclusive, d = -w joins the half band, d = -2w is exclusive
    means = env.reward_mean(x, np.array([0.625, 0.375, 0.25]))
    assert means.tolist() == [0.0, 0.5, 0.0]


def test_linear_sanity_mean_is_a_dot_product():
    env = Environment(EnvSpec("linear_sanity", seed=5))
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(size=3)
        a = rng.uniform(size=1)
        want = float(env.theta_star[:3] @ x + env.theta_star[3] * a[0])
        assert env.reward_mean(x, a) == pytest.approx([want], abs=1e-12)


def test_same_spec_replays_identically():
    spec = EnvSpec("bump", seed=7, noise_sigma=0.2)
    a_env, b_env = Environment(spec), Environment(spec)
    assert a_env.action_star == b_env.action_star
    assert np.array_equal(a_env.context_star, b_env.context_star)
    for _ in range(10):
        xa, xb = a_env.sample_context(), b_env.sample_context()
        assert np.array_equal(xa, xb)
        assert a_env.step(xa, 3) == b_env.step(xb, 3)


def test_different_seeds_differ():
    a_env = Environment(EnvSpec("bump", seed=0))
    b_env = Environment(EnvSpec("bump", seed=1))
    assert a_env.action_star != b_env.action_star


def test_context_and_noise_streams_are_independent():
    spec = EnvSpec("bump", seed=9, noise_sigma=0.3)
    plain, busy = Environment(spec), Environment(spec)
    x = plain.sample_context()
    for _ in range(17):  # extra context draws must not shift the noise stream
        busy.sample_context()
    assert plain.step(x, 11).reward == busy.step(x, 11).reward


def test_step_outcome_accounting():
    env = Environment(EnvSpec("chessboard", seed=11, noise_sigma=0.0))
    x = env.sample_context()
    for idx in (0, 13, 49):
        out = env.step(x, idx)
        assert isinstance(out, RoundOutcome)
        assert out.reward == out.chosen_value  # noiseless
        assert out.chosen_value == env.reward_mean(x, env.action_grid()[idx])[0]
        assert out.best_value == env.reward_mean(x, env.action_grid()).max()
        assert out.best_value >= out.chosen_value


def test_noise_has_requested_scale():
    env = Environment(EnvSpec("bump", seed=13, noise_sigma=0.1))
    x = env.sample_context()
    residuals = [env.step(x, 25).reward - env.step(x, 25).chosen_value
                 for _ in range(2000)]
    assert abs(float(np.mean(residuals))) < 0.01
    assert float(np.std(residuals)) == pytest.approx(0.1, abs=0.01)


def test_step_rejects_off_grid_actions():
    # an index outside 0 <= idx < action_grid names no grid action; numpy
    # would read -1 as the last one, so the range is checked explicitly
    env = Environment(EnvSpec("bump", action_grid=20))
    x = env.sample_context()
    for idx in (-1, 20, 50):
        with pytest.raises(ValueError):
            env.step(x, idx)
    assert env.step(x, 19).chosen_value == env.reward_mean(x, env.action_grid())[19]


def test_reward_mean_handles_off_grid_actions():
    env = Environment(EnvSpec("bump", seed=15))
    x = env.sample_context()
    a = np.array([0.123456])
    tilt = float(env.tilt @ (x - env.context_star))
    want = max(0.0, 1.0 - abs(0.123456 - env.action_star) - tilt)
    assert env.reward_mean(x, a) == pytest.approx([want], abs=1e-12)


def test_unit_cube_validation():
    env = Environment(EnvSpec("bump"))
    grid = env.action_grid()
    with pytest.raises(ValueError):
        env.reward_mean(np.array([0.1, 0.2, 0.3, 0.4, 1.5]), grid)
    with pytest.raises(ValueError):
        env.reward_mean(np.array([0.1, 0.2]), grid)  # wrong dimension
    with pytest.raises(ValueError):
        env.reward_mean(np.full(5, 0.5), np.array([0.3, -0.2]))
    with pytest.raises(ValueError):
        env.reward_mean(np.full(5, 0.5), np.array([]))
