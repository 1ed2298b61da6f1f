import math

import numpy as np
import pytest

from braincl.contrastive import info_nce, momentum_update, queue_push
from braincl.numcore import NonFiniteError, Tensor, backward, gradcheck, unit_rows


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_units(rng, n, dim) -> np.ndarray:
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# info_nce


@pytest.mark.parametrize("n_keys", [0, 1, 64, 512])
def test_uniform_similarities_give_log_k_plus_one(n_keys):
    # positive and all negatives identical => uniform softmax over K+1 terms
    dim = 8
    q = unit(np.ones(dim))
    queue = np.tile(q, (n_keys, 1))
    loss = info_nce(Tensor(q), Tensor(q), queue, temperature=0.07)
    assert abs(loss.item() - math.log(n_keys + 1)) < 1e-9


def test_empty_queue_gives_zero_loss():
    q = unit([1.0, 2.0, 3.0])
    loss = info_nce(Tensor(q), Tensor(q), np.zeros((0, 3)), temperature=0.07)
    assert loss.item() == 0.0


def test_separated_pair_closed_form():
    # positive at +1, all 512 negatives at -1, tau = 0.07:
    # loss = ln(1 + 512 * e^(-2/0.07))
    dim = 4
    q = unit([1.0, 0.0, 0.0, 0.0])
    queue = np.tile(-q, (512, 1))
    loss = info_nce(Tensor(q), Tensor(q.copy()), queue, temperature=0.07)
    expected = math.log(1.0 + 512.0 * math.exp(-2.0 / 0.07))
    assert abs(loss.item() - expected) < 1e-12
    assert loss.item() < 3e-10  # essentially solved


def test_loss_positive_for_nonempty_queue():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dim = 6
        q = unit(rng.standard_normal(dim))
        k = unit(rng.standard_normal(dim))
        queue = random_units(rng, int(rng.integers(1, 40)), dim)
        loss = info_nce(Tensor(q), Tensor(k), queue, temperature=0.07)
        assert loss.item() > 0.0


def test_monotonicity_in_positive_and_negative_similarity():
    dim = 3
    base = unit([1.0, 0.0, 0.0])
    # rotating the positive key toward the query lowers the loss
    angles = np.linspace(0.0, np.pi / 2, 8)
    queue = random_units(np.random.default_rng(1), 16, dim)
    losses = []
    for a in angles:
        k = np.array([np.cos(a), np.sin(a), 0.0])
        losses.append(info_nce(Tensor(base), Tensor(k), queue, 0.07).item())
    assert all(x < y for x, y in zip(losses, losses[1:]))

    # raising any negative's similarity raises the loss
    k = unit([0.9, 0.1, 0.0])
    fixed = random_units(np.random.default_rng(2), 8, dim)
    low = np.vstack([fixed, [unit([-1.0, 0.0, 0.0])]])
    high = np.vstack([fixed, [unit([0.99, 0.1, 0.0])]])
    assert (info_nce(Tensor(base), Tensor(k), low, 0.07).item()
            < info_nce(Tensor(base), Tensor(k), high, 0.07).item())


def test_gradient_reaches_query_only_and_matches_finite_differences():
    rng = np.random.default_rng(3)
    dim = 10
    raw_q = rng.standard_normal(dim)
    k = Tensor(unit(rng.standard_normal(dim)))
    queue = random_units(rng, 32, dim)

    # wrapper normalizes so arbitrary perturbations stay on the sphere
    def fn(t: Tensor) -> Tensor:
        return info_nce(unit_rows(t), k, queue, temperature=0.07)

    assert gradcheck(fn, raw_q, eps=1e-5) < 1e-4

    leaf = Tensor(unit(raw_q))
    loss = info_nce(leaf, k, queue, 0.07)
    grads = backward(loss, wrt=[leaf, k])
    assert np.abs(grads[leaf]).max() > 0.0
    np.testing.assert_array_equal(grads[k], np.zeros(dim))  # keys detached


def test_batched_info_nce_is_mean_of_per_sample():
    rng = np.random.default_rng(40)
    queries, keys, queue = (random_units(rng, n, 6) for n in (4, 4, 9))
    per_sample = [info_nce(Tensor(q), Tensor(k), queue, 0.07).item()
                  for q, k in zip(queries, keys)]
    batched = info_nce(Tensor(queries), Tensor(keys), queue, 0.07)
    assert batched.item() == pytest.approx(np.mean(per_sample), rel=1e-12)
    empty = info_nce(Tensor(queries), Tensor(keys), np.zeros((0, 6)), 0.07)
    assert empty.item() == 0.0

    def loss(t: Tensor) -> Tensor:
        return info_nce(unit_rows(t), Tensor(keys), queue, temperature=0.07)

    assert gradcheck(loss, queries + 0.1) < 1e-6


def test_info_nce_input_validation():
    q = Tensor(unit([1.0, 1.0]))
    with pytest.raises(ValueError):
        info_nce(q, q, np.zeros((0, 2)), temperature=0.0)
    with pytest.raises(ValueError, match="non-unit"):
        info_nce(Tensor([2.0, 0.0]), q, np.zeros((0, 2)), 0.07)
    with pytest.raises(ValueError, match="non-unit"):
        info_nce(q, q, np.array([[3.0, 4.0]]), 0.07)
    # a similarity that overflows once scaled is one error from the logits node
    with pytest.raises(NonFiniteError, match="'contrastive_logits'"):
        info_nce(q, q, np.array([[0.6, 0.8]]), 1e-310)
    for temperature in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=f"temperature must be positive and finite, "
                                             f"got {temperature}"):
            info_nce(q, q, np.zeros((0, 2)), temperature)
    # a queue with non-unit rows is rejected where it is read
    with pytest.raises(ValueError, match="non-unit"):
        info_nce(q, q, np.full((2, 2), 3.0), 0.07)


def test_non_finite_rows_are_not_unit_vectors():
    # a NaN norm fails the unit check where keys enter and where the queue is read
    dim = 3
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^pushed keys contains non-unit vectors"):
            queue_push(np.zeros((0, dim)), np.full(dim, bad), 4)
    q = Tensor(unit([1.0, 2.0, 2.0]))
    with pytest.raises(ValueError, match="^queue contains non-unit vectors"):
        info_nce(q, q, np.full((2, dim), np.nan), 0.07)

# ---------------------------------------------------------------------------
# momentum_update


def test_momentum_boundary_values():
    key = {"w": np.array([1.0, 2.0])}
    query = {"w": np.array([-1.0, 0.5])}
    np.testing.assert_array_equal(momentum_update(key, query, 1.0)["w"], key["w"])
    np.testing.assert_array_equal(momentum_update(key, query, 0.0)["w"], query["w"])
    out = momentum_update({"w": np.array([1.0])}, {"w": np.array([0.0])}, 0.999)
    np.testing.assert_allclose(out["w"], [0.999], rtol=1e-15)


def test_momentum_contracts_geometrically():
    rng = np.random.default_rng(4)
    key = {"w": rng.standard_normal(6)}
    query = {"w": rng.standard_normal(6)}
    m = 0.999
    gap = np.linalg.norm(key["w"] - query["w"])
    for _ in range(50):
        expected = m * key["w"] + (1.0 - m) * query["w"]
        key = momentum_update(key, query, m)
        np.testing.assert_array_equal(key["w"], expected)
        new_gap = np.linalg.norm(key["w"] - query["w"])
        assert abs(new_gap - m * gap) < 1e-12 * max(1.0, gap)
        gap = new_gap


def test_momentum_update_validation():
    with pytest.raises(ValueError):
        momentum_update({"a": np.zeros(2)}, {"b": np.zeros(2)}, 0.5)
    with pytest.raises(ValueError):
        momentum_update({"a": np.zeros(2)}, {"a": np.zeros(3)}, 0.5)
    with pytest.raises(ValueError):
        momentum_update({"a": np.zeros(2)}, {"a": np.zeros(2)}, 1.5)
    with pytest.raises(ValueError):
        momentum_update({"a": np.zeros(2)}, {"a": np.zeros(2)}, 1.2)
    with pytest.raises(ValueError, match="momentum"):
        momentum_update({"a": np.zeros(2)}, {"a": np.zeros(2)}, float("nan"))


# ---------------------------------------------------------------------------
# queue


EMPTY_QUEUE = np.zeros((0, 4))


def test_queue_warmup_growth():
    keys = random_units(np.random.default_rng(5), 64, 4)
    queue = queue_push(EMPTY_QUEUE, keys, 512)
    assert queue.shape == (64, 4)
    np.testing.assert_array_equal(queue, keys)
    assert EMPTY_QUEUE.shape == (0, 4)  # the queue pushed onto is left as it is


def test_queue_fifo_eviction_at_capacity():
    rng = np.random.default_rng(6)
    filler = random_units(rng, 512, 4)
    queue = queue_push(EMPTY_QUEUE, filler, 512)
    fresh_batch = random_units(rng, 64, 4)
    queue = queue_push(queue, fresh_batch, 512)
    assert queue.shape == (512, 4)
    np.testing.assert_array_equal(queue[-64:], fresh_batch)
    np.testing.assert_array_equal(queue[:448], filler[64:])


def test_queue_replay_of_eight_batches():
    # after 8 pushes of 64 the queue holds exactly the last 512 keys in order
    queue = EMPTY_QUEUE
    rng = np.random.default_rng(7)
    all_keys = []
    for _ in range(8):
        batch = random_units(rng, 64, 4)
        all_keys.append(batch)
        queue = queue_push(queue, batch, 512)
    expected = np.vstack(all_keys)[-512:]
    np.testing.assert_array_equal(queue, expected)

    # two more pushes roll the window forward
    for _ in range(2):
        batch = random_units(rng, 64, 4)
        all_keys.append(batch)
        queue = queue_push(queue, batch, 512)
    expected = np.vstack(all_keys)[-512:]
    np.testing.assert_array_equal(queue, expected)


def test_queue_rejects_non_unit_keys_and_wrong_dim():
    with pytest.raises(ValueError, match="non-unit"):
        queue_push(EMPTY_QUEUE, np.array([[0.5, 0.0, 0.0, 0.0]]), 512)
    with pytest.raises(ValueError, match="dim"):
        queue_push(EMPTY_QUEUE, unit(np.ones(3)), 512)


def test_queue_push_validates_the_capacity():
    keys = random_units(np.random.default_rng(8), 1, 4)
    for capacity in (0, -1):
        with pytest.raises(ValueError, match=f"queue capacity must be positive, got {capacity}"):
            queue_push(EMPTY_QUEUE, keys, capacity)
    # a queue already longer than the capacity it is pushed under is an error
    with pytest.raises(ValueError, match="longer than its capacity"):
        queue_push(random_units(np.random.default_rng(8), 9, 4), keys, 8)
