from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braincl.augment import (
    AugmentConfig,
    NoiseSpec,
    _add_noise,
    _dilate,
    make_view_pair,
)
from references import replay_alteration, replay_view

NO_NOISE = NoiseSpec(kind="none")


def random_connectome(rng: np.random.Generator, n: int, scale: float = 0.9) -> np.ndarray:
    m = rng.uniform(-scale, scale, (n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 1.0)
    return m


def dilate_chosen(m, nodes, cfg, seed):
    """``_dilate`` on one matrix and a chosen node set, with the
    direction and increment draws ``make_view_pair`` makes for it."""
    rng = np.random.default_rng(seed)
    n, k = m.shape[0], len(nodes)
    direction = np.zeros((1, n))
    direction[0, sorted(nodes)] = np.where(rng.random(k) < 0.5, 1.0, -1.0)
    deltas = rng.uniform(0.0, cfg.delta_max, k * (n - k) + k * (k - 1) // 2)
    return _dilate(m[None], direction, deltas)[0]


def replay_dilate_shrink(m, nodes, cfg, seed):
    """The per-edge reference of ``dilate_chosen``."""
    return replay_alteration(m, nodes, replace(cfg, noise=NO_NOISE), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# noise spec parsing


def test_noise_spec_parsing():
    assert NoiseSpec.parse("N(0,0.01)") == NoiseSpec(kind="gaussian", sigma=0.01)
    assert NoiseSpec.parse("N(0, 0.1)") == NoiseSpec(kind="gaussian", sigma=0.1)
    assert NoiseSpec.parse("uniform(-0.1,0.1)") == NoiseSpec(kind="uniform", low=-0.1, high=0.1)
    assert NoiseSpec.parse("none") == NoiseSpec(kind="none")
    assert str(NoiseSpec.parse("N(0,0.01)")) == "N(0,0.01)"
    with pytest.raises(ValueError):
        NoiseSpec.parse("lognormal(1,2)")
    with pytest.raises(ValueError):
        NoiseSpec.parse("N(0.5,0.01)")


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.one_of(
    st.builds(lambda sigma: NoiseSpec(kind="gaussian", sigma=sigma), FINITE.map(abs)),
    st.builds(lambda a, b: NoiseSpec(kind="uniform", low=min(a, b), high=max(a, b)),
              FINITE, FINITE)))
def test_noise_spec_text_parses_back_exactly(spec):
    # a resolved config writes its noise setting by str, and a rerun parses it back
    assert NoiseSpec.parse(str(spec)) == spec


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(k_min=5, k_max=3)
    with pytest.raises(ValueError):
        AugmentConfig(delta_max=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(delta_max=1.5)


def test_config_resolves_k_min_from_k_max():
    # the paper's 5-20 nodes; a range given only by its upper end stays valid
    assert AugmentConfig() == AugmentConfig(k_min=5, k_max=20)
    assert AugmentConfig(k_max=3).k_min == 3
    assert AugmentConfig(k_max=0).k_min == 0
    assert AugmentConfig(k_min=1, k_max=3).k_min == 1
    with pytest.raises(ValueError, match=r"need 0 <= k_min <= k_max, got \[4, 3\]"):
        AugmentConfig(k_min=4, k_max=3)


# ---------------------------------------------------------------------------
# node selection


def test_select_nodes_degenerate_and_range():
    m = random_connectome(np.random.default_rng(0), 10)
    cfg0 = AugmentConfig(k_min=0, k_max=0, noise=NO_NOISE)
    for view in make_view_pair(m, cfg0, np.random.default_rng(0)):
        assert np.array_equal(view, m)  # no node picked, nothing changed

    m = random_connectome(np.random.default_rng(1), 200)
    cfg = AugmentConfig(k_min=5, k_max=20, noise=NO_NOISE)
    for seed in range(50):
        replay = np.random.default_rng(seed)
        for view in make_view_pair(m, cfg, np.random.default_rng(seed)):
            want, direction = replay_view(m, cfg, replay)
            assert np.array_equal(view.view(np.uint64), want.view(np.uint64))
            assert 5 <= len(direction) <= 20
            assert all(0 <= i < 200 for i in direction)


def test_select_nodes_deterministic_and_bounded():
    m = random_connectome(np.random.default_rng(2), 30)
    cfg = AugmentConfig(k_min=2, k_max=6, noise=NO_NOISE)
    a = make_view_pair(m, cfg, np.random.default_rng(7))
    b = make_view_pair(m, cfg, np.random.default_rng(7))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    with pytest.raises(ValueError, match="k_max=20 exceeds node count 10"):
        make_view_pair(m[:10, :10], AugmentConfig(k_min=5, k_max=20), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# dilation/shrinkage of a chosen node set


def test_dilate_shrink_matches_reference_replay():
    rng = np.random.default_rng(1)
    for seed in range(25):
        n = int(rng.integers(4, 12))
        m = random_connectome(rng, n)
        k = int(rng.integers(1, n))
        nodes = set(int(i) for i in rng.choice(n, size=k, replace=False))
        cfg = AugmentConfig(k_min=0, k_max=n, delta_max=0.4)
        want, _ = replay_dilate_shrink(m, nodes, cfg, seed)
        assert np.array_equal(dilate_chosen(m, nodes, cfg, seed), want)


def _find_seed_with_direction(m, nodes, cfg, want_dir, node):
    for seed in range(200):
        _, direction = replay_dilate_shrink(m, nodes, cfg, seed)
        if direction[node] == want_dir:
            return seed
    raise AssertionError("no seed found")


def test_shrink_can_delete_a_node():
    # with tiny incident correlations, any shrink increment clamps the whole
    # row to zero, the node-deletion limit case
    n = 6
    m = np.full((n, n), 1e-12)
    m[np.diag_indices(n)] = 1.0
    m[1:, 1:] = np.eye(n - 1) * 1.0 + (1 - np.eye(n - 1)) * 0.5
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    cfg = AugmentConfig(k_min=1, k_max=1, delta_max=0.5)
    nodes = {0}
    seed = _find_seed_with_direction(m, nodes, cfg, -1.0, 0)
    out = dilate_chosen(m, nodes, cfg, seed)
    off = np.delete(out[0], 0)
    assert np.array_equal(off, np.zeros(n - 1))
    assert out[0, 0] == 1.0


def test_dilate_clamps_at_one_and_preserves_sign():
    n = 5
    m = np.full((n, n), 0.95)
    m[0, :] = [1.0, 0.95, -0.95, 0.95, -0.3]
    m[:, 0] = m[0, :]
    m = (m + m.T) / 2
    np.fill_diagonal(m, 1.0)
    cfg = AugmentConfig(k_min=1, k_max=1, delta_max=1.0)
    nodes = {0}
    seed = _find_seed_with_direction(m, nodes, cfg, +1.0, 0)
    out = dilate_chosen(m, nodes, cfg, seed)
    # |C| grew toward 1 with signs intact
    assert out[0, 2] <= -0.95
    assert out[0, 4] <= -0.3
    assert out[0, 1] >= 0.95
    assert np.abs(out[0, 1:]).max() <= 1.0
    # recover the per-edge increments from the replay oracle and pin the
    # forced arithmetic: clamp(|0.95| + delta, 0, 1) with sign carried over
    rng = np.random.default_rng(seed)
    rng.random()  # direction draw for node 0
    deltas = rng.uniform(0.0, cfg.delta_max, 4)  # edges (0,1) (0,2) (0,3) (0,4)
    for col, delta in zip((1, 2, 3, 4), deltas):
        expected = np.sign(m[0, col]) * min(abs(m[0, col]) + delta, 1.0)
        assert out[0, col] == expected
    clamped = [c for c, d in zip((1, 2, 3), deltas[:3]) if d > 0.05]
    assert clamped, "seed produced no clamping delta; pick another seed"
    for col in clamped:
        assert abs(out[0, col]) == 1.0


def test_dilate_shrink_locality_and_shape_invariants():
    rng = np.random.default_rng(2)
    for seed in range(20):
        m = random_connectome(rng, 10)
        nodes = {1, 4}
        cfg = AugmentConfig(k_min=2, k_max=2, delta_max=0.3)
        out = dilate_chosen(m, nodes, cfg, seed)
        untouched = [i for i in range(10) if i not in nodes]
        sub = np.ix_(untouched, untouched)
        assert np.array_equal(out[sub], m[sub])
        assert np.array_equal(out, out.T)
        assert np.array_equal(np.diagonal(out), np.ones(10))
        assert np.abs(out).max() <= 1.0


def test_dilate_shrink_monotone_per_owner():
    rng = np.random.default_rng(3)
    for seed in range(20):
        n = 8
        m = random_connectome(rng, n)
        nodes = {0, 3, 6}
        cfg = AugmentConfig(k_min=3, k_max=3, delta_max=0.5)
        out = dilate_chosen(m, nodes, cfg, seed)
        _, direction = replay_dilate_shrink(m, nodes, cfg, seed)
        for u in range(n):
            for v in range(u + 1, n):
                if u not in nodes and v not in nodes:
                    continue
                owner = u if u in nodes else v
                if u in nodes and v in nodes:
                    owner = min(u, v)
                before, after = abs(m[u, v]), abs(out[u, v])
                if direction[owner] > 0:
                    assert after >= before - 1e-15
                else:
                    assert after <= before + 1e-15


# ---------------------------------------------------------------------------
# background noise


def test_noise_none_and_zero_sigma_are_identity():
    m = random_connectome(np.random.default_rng(5), 8)
    rng = np.random.default_rng(0)
    none_cfg = AugmentConfig(noise=NO_NOISE, k_min=0, k_max=0)
    zero_cfg = AugmentConfig(noise=NoiseSpec(sigma=0.0), k_min=0, k_max=0)
    for cfg in (none_cfg, zero_cfg):
        for view in make_view_pair(m, cfg, rng):
            assert np.array_equal(view, m)


def test_noise_half_normal_mean():
    # E|N(0, sigma^2)| = sigma * sqrt(2/pi); clamping is negligible at 0.9 range
    sigma = 0.01
    m = random_connectome(np.random.default_rng(6), 200, scale=0.9)
    cfg = AugmentConfig(k_min=0, k_max=0, noise=NoiseSpec(sigma=sigma))
    iu = np.triu_indices(200, k=1)
    diffs = []
    for seed in range(10):
        for view in make_view_pair(m, cfg, np.random.default_rng(seed)):
            diffs.append(np.abs(view - m)[iu].mean())
    expected = sigma * np.sqrt(2.0 / np.pi)
    assert abs(np.mean(diffs) - expected) <= 0.1 * expected


def test_noise_respects_selected_nodes():
    m = random_connectome(np.random.default_rng(7), 12)
    selected = [2, 9]
    picked = np.zeros((1, 12), dtype=bool)
    picked[0, selected] = True
    eps = NoiseSpec(sigma=0.5).draw(np.random.default_rng(1), 10 * 9 // 2)
    out = _add_noise(m[None], picked, eps)[0]
    for i in selected:
        assert np.array_equal(out[i, :], m[i, :])
        assert np.array_equal(out[:, i], m[:, i])
    assert np.array_equal(np.diagonal(out), np.ones(12))
    untouched = [i for i in range(12) if i not in selected]
    assert not np.array_equal(out[np.ix_(untouched, untouched)],
                              m[np.ix_(untouched, untouched)])


# ---------------------------------------------------------------------------
# make_view_pair


def test_view_pair_noop_config_returns_input():
    m = random_connectome(np.random.default_rng(8), 9)
    cfg = AugmentConfig(k_min=0, k_max=0, noise=NO_NOISE)
    first, second = make_view_pair(m, cfg, np.random.default_rng(0))
    assert np.array_equal(first, m)
    assert np.array_equal(second, m)


def test_view_pair_views_differ_from_source_and_each_other():
    m = random_connectome(np.random.default_rng(9), 200)
    cfg = AugmentConfig()  # defaults: 5..20 nodes, N(0, 0.01)
    for seed in range(10):
        first, second = make_view_pair(m, cfg, np.random.default_rng(seed))
        assert not np.array_equal(first, m)
        assert not np.array_equal(second, m)
        assert not np.array_equal(first, second)


def test_view_pair_bit_deterministic():
    m = random_connectome(np.random.default_rng(10), 30)
    cfg = AugmentConfig(k_min=2, k_max=6)
    a = make_view_pair(m, cfg, np.random.default_rng(123))
    b = make_view_pair(m, cfg, np.random.default_rng(123))
    for x, y in zip(a, b):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_view_pair_invariants_random_trials():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(4, 16))
        m = random_connectome(rng, n)
        cfg = AugmentConfig(k_min=0, k_max=n, delta_max=0.5)
        for view in make_view_pair(m, cfg, np.random.default_rng(trial)):
            assert view.shape == (n, n)
            assert np.array_equal(view, view.T)
            assert np.array_equal(np.diagonal(view), np.ones(n))
            assert np.abs(view).max() <= 1.0


# ---------------------------------------------------------------------------
# batched make_view_pair


@pytest.mark.parametrize("n, batch, k_min, k_max, noise", [
    (20, 6, 2, 5, "N(0,0.01)"),
    (12, 5, 0, 3, "uniform(-0.1,0.1)"),
    (10, 4, 0, 10, "none"),
    (8, 3, 8, 8, "N(0,0.05)"),  # every node picked: no noise entries
    (200, 2, 5, 20, "N(0,0.01)"),
])
def test_batched_view_pairs_match_per_sample_replay(n, batch, k_min, k_max, noise):
    meta = np.random.default_rng(n + batch)
    stack = np.stack([random_connectome(meta, n) for _ in range(batch)])
    cfg = AugmentConfig(k_min=k_min, k_max=k_max, delta_max=0.4, noise=NoiseSpec.parse(noise))
    rngs = [np.random.default_rng(42) for _ in range(3)]

    firsts, seconds = make_view_pair(stack, cfg, rngs[0])
    singles = [make_view_pair(m, cfg, rngs[1]) for m in stack]
    replayed = [(replay_view(m, cfg, rngs[2])[0], replay_view(m, cfg, rngs[2])[0]) for m in stack]

    assert firsts.shape == seconds.shape == stack.shape
    for got, single, want in zip(zip(firsts, seconds), singles, replayed):
        for view, one, ref in zip(got, single, want):
            bits = view.view(np.uint64)  # bit for bit, signed zeros included
            assert one.shape == (n, n)
            assert np.array_equal(bits, one.view(np.uint64))
            assert np.array_equal(bits, ref.view(np.uint64))
    states = [rng.bit_generator.state for rng in rngs]
    assert states[0] == states[1] == states[2]


def test_batched_view_pair_errors():
    stack = np.stack([random_connectome(np.random.default_rng(i), 6) for i in range(3)])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="k_max=7 exceeds node count 6"):
        make_view_pair(stack, AugmentConfig(k_min=1, k_max=7), rng)
    assert rng.bit_generator.state == before  # nothing drawn

    # one check over the whole stack raises the check_connectomes errors
    cfg = AugmentConfig(k_min=0, k_max=0, noise=NoiseSpec(kind="none"))
    bad = stack.copy()
    bad[2, 3, 3] = 0.5
    with pytest.raises(ValueError, match="diagonal must be exactly 1"):
        make_view_pair(bad, cfg, rng)
    bad[2, 3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        make_view_pair(bad, cfg, rng)
