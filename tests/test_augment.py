import numpy as np
import pytest

from braincl.augment import (
    AugmentConfig,
    NoiseSpec,
    background_noise,
    dilate_shrink,
    make_view_pair,
    select_nodes,
)
from braincl.data import Connectome


def random_connectome(rng: np.random.Generator, n: int, scale: float = 0.9) -> Connectome:
    m = rng.uniform(-scale, scale, (n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 1.0)
    return Connectome(m)


def replay_dilate_shrink(conn, nodes, cfg, seed):
    """Independent per-edge reimplementation of the documented semantics."""
    rng = np.random.default_rng(seed)
    direction = {node: (1.0 if rng.random() < 0.5 else -1.0) for node in sorted(nodes)}
    n = conn.n_nodes
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if u in nodes or v in nodes]
    deltas = rng.uniform(0.0, cfg.delta_max, len(edges))
    m = conn.matrix.copy()
    for (u, v), d in zip(edges, deltas):
        owner = u if u in nodes else v
        if u in nodes and v in nodes:
            owner = min(u, v)
        val = m[u, v]
        new = np.sign(val) * np.clip(abs(val) + direction[owner] * d, 0.0, 1.0)
        m[u, v] = new
        m[v, u] = new
    return m, direction


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


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(k_min=5, k_max=3)
    with pytest.raises(ValueError):
        AugmentConfig(delta_max=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(delta_max=1.5)


# ---------------------------------------------------------------------------
# select_nodes


def test_select_nodes_degenerate_and_range():
    rng = np.random.default_rng(0)
    cfg0 = AugmentConfig(k_min=0, k_max=0)
    assert select_nodes(10, cfg0, rng) == frozenset()

    cfg = AugmentConfig(k_min=5, k_max=20)
    for _ in range(50):
        picked = select_nodes(200, cfg, rng)
        assert 5 <= len(picked) <= 20
        assert all(0 <= i < 200 for i in picked)


def test_select_nodes_deterministic_and_bounded():
    cfg = AugmentConfig(k_min=2, k_max=6)
    a = select_nodes(30, cfg, np.random.default_rng(7))
    b = select_nodes(30, cfg, np.random.default_rng(7))
    assert a == b
    with pytest.raises(ValueError):
        select_nodes(10, AugmentConfig(k_min=5, k_max=20), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# dilate_shrink


def test_dilate_shrink_matches_reference_replay():
    rng = np.random.default_rng(1)
    for seed in range(25):
        n = int(rng.integers(4, 12))
        conn = random_connectome(rng, n)
        k = int(rng.integers(1, n))
        nodes = frozenset(int(i) for i in rng.choice(n, size=k, replace=False))
        cfg = AugmentConfig(k_min=0, k_max=n, delta_max=0.4)
        got = dilate_shrink(conn, nodes, cfg, np.random.default_rng(seed)).matrix
        want, _ = replay_dilate_shrink(conn, nodes, cfg, seed)
        assert np.array_equal(got, want)


def _find_seed_with_direction(conn, nodes, cfg, want_dir, node):
    for seed in range(200):
        _, direction = replay_dilate_shrink(conn, nodes, cfg, seed)
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
    conn = Connectome(m)
    cfg = AugmentConfig(k_min=1, k_max=1, delta_max=0.5)
    nodes = frozenset({0})
    seed = _find_seed_with_direction(conn, nodes, cfg, -1.0, 0)
    out = dilate_shrink(conn, nodes, cfg, np.random.default_rng(seed)).matrix
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
    conn = Connectome(m)
    cfg = AugmentConfig(k_min=1, k_max=1, delta_max=1.0)
    nodes = frozenset({0})
    seed = _find_seed_with_direction(conn, nodes, cfg, +1.0, 0)
    out = dilate_shrink(conn, nodes, cfg, np.random.default_rng(seed)).matrix
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
        conn = random_connectome(rng, 10)
        nodes = frozenset({1, 4})
        cfg = AugmentConfig(k_min=2, k_max=2, delta_max=0.3)
        out = dilate_shrink(conn, nodes, cfg, np.random.default_rng(seed)).matrix
        base = conn.matrix
        untouched = [i for i in range(10) if i not in nodes]
        sub = np.ix_(untouched, untouched)
        assert np.array_equal(out[sub], base[sub])
        assert np.array_equal(out, out.T)
        assert np.array_equal(np.diagonal(out), np.ones(10))
        assert np.abs(out).max() <= 1.0


def test_dilate_shrink_monotone_per_owner():
    rng = np.random.default_rng(3)
    for seed in range(20):
        n = 8
        conn = random_connectome(rng, n)
        nodes = frozenset({0, 3, 6})
        cfg = AugmentConfig(k_min=3, k_max=3, delta_max=0.5)
        out = dilate_shrink(conn, nodes, cfg, np.random.default_rng(seed)).matrix
        _, direction = replay_dilate_shrink(conn, nodes, cfg, seed)
        for u in range(n):
            for v in range(u + 1, n):
                if u not in nodes and v not in nodes:
                    continue
                owner = u if u in nodes else v
                if u in nodes and v in nodes:
                    owner = min(u, v)
                before, after = abs(conn.matrix[u, v]), abs(out[u, v])
                if direction[owner] > 0:
                    assert after >= before - 1e-15
                else:
                    assert after <= before + 1e-15


def test_dilate_shrink_rejects_out_of_range_nodes():
    conn = random_connectome(np.random.default_rng(4), 5)
    cfg = AugmentConfig(k_min=0, k_max=5)
    with pytest.raises(ValueError):
        dilate_shrink(conn, frozenset({7}), cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# background_noise


def test_noise_none_and_zero_sigma_are_identity():
    conn = random_connectome(np.random.default_rng(5), 8)
    rng = np.random.default_rng(0)
    none_cfg = AugmentConfig(noise=NoiseSpec(kind="none"), k_min=0, k_max=0)
    assert np.array_equal(background_noise(conn, frozenset(), none_cfg, rng).matrix,
                          conn.matrix)
    zero_cfg = AugmentConfig(noise=NoiseSpec(sigma=0.0), k_min=0, k_max=0)
    assert np.array_equal(background_noise(conn, frozenset(), zero_cfg, rng).matrix,
                          conn.matrix)


def test_noise_half_normal_mean():
    # E|N(0, sigma^2)| = sigma * sqrt(2/pi); clamping is negligible at 0.9 range
    sigma = 0.01
    conn = random_connectome(np.random.default_rng(6), 200, scale=0.9)
    cfg = AugmentConfig(k_min=0, k_max=0, noise=NoiseSpec(sigma=sigma))
    diffs = []
    for seed in range(20):
        out = background_noise(conn, frozenset(), cfg, np.random.default_rng(seed)).matrix
        delta = np.abs(out - conn.matrix)
        iu = np.triu_indices(200, k=1)
        diffs.append(delta[iu].mean())
    expected = sigma * np.sqrt(2.0 / np.pi)
    assert abs(np.mean(diffs) - expected) <= 0.1 * expected


def test_noise_respects_selected_nodes():
    conn = random_connectome(np.random.default_rng(7), 12)
    cfg = AugmentConfig(k_min=0, k_max=0, noise=NoiseSpec(sigma=0.5))
    selected = frozenset({2, 9})
    out = background_noise(conn, selected, cfg, np.random.default_rng(1)).matrix
    base = conn.matrix
    for i in selected:
        assert np.array_equal(out[i, :], base[i, :])
        assert np.array_equal(out[:, i], base[:, i])
    assert np.array_equal(np.diagonal(out), np.ones(12))
    untouched = [i for i in range(12) if i not in selected]
    assert not np.array_equal(out[np.ix_(untouched, untouched)],
                              base[np.ix_(untouched, untouched)])


# ---------------------------------------------------------------------------
# make_view_pair


def test_view_pair_noop_config_returns_input():
    conn = random_connectome(np.random.default_rng(8), 9)
    cfg = AugmentConfig(k_min=0, k_max=0, noise=NoiseSpec(kind="none"))
    pair = make_view_pair(conn, cfg, np.random.default_rng(0))
    assert np.array_equal(pair.first.matrix, conn.matrix)
    assert np.array_equal(pair.second.matrix, conn.matrix)


def test_view_pair_views_differ_from_source_and_each_other():
    conn = random_connectome(np.random.default_rng(9), 200)
    cfg = AugmentConfig()  # defaults: 5..20 nodes, N(0, 0.01)
    for seed in range(10):
        pair = make_view_pair(conn, cfg, np.random.default_rng(seed))
        assert not np.array_equal(pair.first.matrix, conn.matrix)
        assert not np.array_equal(pair.second.matrix, conn.matrix)
        assert not np.array_equal(pair.first.matrix, pair.second.matrix)


def test_view_pair_bit_deterministic():
    conn = random_connectome(np.random.default_rng(10), 30)
    cfg = AugmentConfig(k_min=2, k_max=6)
    a = make_view_pair(conn, cfg, np.random.default_rng(123))
    b = make_view_pair(conn, cfg, np.random.default_rng(123))
    assert np.array_equal(a.first.matrix, b.first.matrix)
    assert np.array_equal(a.second.matrix, b.second.matrix)


def test_view_pair_invariants_random_trials():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(4, 16))
        conn = random_connectome(rng, n)
        cfg = AugmentConfig(k_min=0, k_max=n, delta_max=0.5)
        pair = make_view_pair(conn, cfg, np.random.default_rng(trial))
        for view in (pair.first, pair.second):
            m = view.matrix
            assert np.array_equal(m, m.T)
            assert np.array_equal(np.diagonal(m), np.ones(n))
            assert np.abs(m).max() <= 1.0


# ---------------------------------------------------------------------------
# batched make_view_pair


def replay_view(m, cfg, rng):
    """One view, edge by edge, with the draws the module docstring lists."""
    n = m.shape[0]
    k = int(rng.integers(cfg.k_min, cfg.k_max + 1))
    nodes = set(int(i) for i in rng.choice(n, size=k, replace=False)) if k else set()
    direction = {node: (1.0 if rng.random() < 0.5 else -1.0) for node in sorted(nodes)}
    out = m.copy()
    touched = [(u, v) for u in range(n) for v in range(u + 1, n) if u in nodes or v in nodes]
    for (u, v), d in zip(touched, rng.uniform(0.0, cfg.delta_max, len(touched))):
        owner = u if u in nodes else v  # u < v: the lower picked endpoint owns the edge
        new = np.sign(m[u, v]) * np.clip(abs(m[u, v]) + direction[owner] * d, 0.0, 1.0)
        out[u, v] = out[v, u] = new
    if cfg.noise.kind != "none":
        free = [(u, v) for u in range(n) for v in range(u + 1, n)
                if u not in nodes and v not in nodes]
        for (u, v), e in zip(free, cfg.noise.draw(rng, len(free))):
            out[u, v] = out[v, u] = np.clip(m[u, v] + e, -1.0, 1.0)
    return out


@pytest.mark.parametrize("n, batch, k_min, k_max, noise", [
    (20, 6, 2, 5, "N(0,0.01)"),
    (12, 5, 0, 3, "uniform(-0.1,0.1)"),
    (10, 4, 0, 10, "none"),
    (8, 3, 8, 8, "N(0,0.05)"),  # every node picked: no noise entries
    (200, 2, 5, 20, "N(0,0.01)"),
])
def test_batched_view_pairs_match_per_sample_replay(n, batch, k_min, k_max, noise):
    meta = np.random.default_rng(n + batch)
    stack = np.stack([random_connectome(meta, n).matrix for _ in range(batch)])
    cfg = AugmentConfig(k_min=k_min, k_max=k_max, delta_max=0.4, noise=NoiseSpec.parse(noise))
    rngs = [np.random.default_rng(42) for _ in range(3)]

    firsts, seconds = make_view_pair(stack, cfg, rngs[0])
    singles = [make_view_pair(Connectome(m), cfg, rngs[1]) for m in stack]
    replayed = [(replay_view(m, cfg, rngs[2]), replay_view(m, cfg, rngs[2])) for m in stack]

    assert firsts.shape == seconds.shape == stack.shape
    for got, pair, want in zip(zip(firsts, seconds), singles, replayed):
        for view, single, ref in zip(got, (pair.first, pair.second), want):
            bits = view.view(np.uint64)  # bit for bit, signed zeros included
            assert np.array_equal(bits, single.matrix.view(np.uint64))
            assert np.array_equal(bits, ref.view(np.uint64))
    states = [rng.bit_generator.state for rng in rngs]
    assert states[0] == states[1] == states[2]


def test_batched_view_pair_errors():
    stack = np.stack([random_connectome(np.random.default_rng(i), 6).matrix for i in range(3)])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="k_max=7 exceeds node count 6"):
        make_view_pair(stack, AugmentConfig(k_min=1, k_max=7), rng)
    assert rng.bit_generator.state == before  # nothing drawn

    # one check over the whole stack raises the Connectome errors
    cfg = AugmentConfig(k_min=0, k_max=0, noise=NoiseSpec(kind="none"))
    bad = stack.copy()
    bad[2, 3, 3] = 0.5
    with pytest.raises(ValueError, match="diagonal must be exactly 1"):
        make_view_pair(bad, cfg, rng)
    bad[2, 3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        make_view_pair(bad, cfg, rng)
