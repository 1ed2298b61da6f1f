import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braincl.model import EncoderConfig, init_classifier_params, init_encoder_params
from braincl.numcore import (
    CheckpointError,
    GraphError,
    Tensor,
    adam,
    gradcheck,
    load_checkpoint,
    opt_step,
    save_checkpoint,
    sgd,
)
from references import adam_reference, mul, sqrt, total


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_quadratic_is_exact_to_roundoff():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8)
    err = gradcheck(lambda t: total(mul(t, t)), x, eps=1e-5)
    assert err < 1e-7


def test_gradcheck_rejects_non_scalar_and_bad_eps():
    with pytest.raises(GraphError):
        gradcheck(lambda t: mul(t, t), np.ones(3))
    with pytest.raises(ValueError):
        gradcheck(lambda t: total(mul(t, t)), np.ones(3), eps=0.0)


def test_gradcheck_flags_non_finite_fn():
    def fn(t: Tensor) -> Tensor:
        return total(sqrt(t))  # blows up once a perturbation crosses zero

    with pytest.raises((GraphError, FloatingPointError)):
        gradcheck(fn, np.array([1e-6, 1.0]), eps=1e-5)


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_single_step_examples():
    params = {"w": np.array([1.0])}
    out = opt_step(sgd(lr=0.1), params, {"w": np.array([1.0])})
    np.testing.assert_allclose(out["w"], [0.9])


def test_lr_zero_is_identity():
    rng = np.random.default_rng(1)
    params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
    grads = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
    for state in (sgd(lr=0.0), adam(lr=0.0, weight_decay=0.3)):
        out = opt_step(state, params, grads)
        for k in params:
            np.testing.assert_array_equal(out[k], params[k])


@pytest.mark.parametrize("make, message", [
    (lambda: sgd(float("nan")), "lr must be non-negative and finite, got nan"),
    (lambda: sgd(-0.1), "lr must be non-negative and finite, got -0.1"),
    (lambda: adam(float("inf")), "lr must be non-negative and finite, got inf"),
    (lambda: adam(1e-3, weight_decay=-1), "weight_decay must be non-negative and finite, got -1"),
    (lambda: adam(1e-3, weight_decay=float("nan")),
     "weight_decay must be non-negative and finite, got nan"),
])
def test_optimizer_rejects_a_negative_or_non_finite_setting(make, message):
    # lr = 0 stays valid: see test_lr_zero_is_identity
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_adam_constant_gradient_moves_monotonically():
    # scalar simulation: with a constant positive gradient the parameter
    # must decrease at every one of 100 steps
    state = adam(lr=0.01)
    p = {"x": np.array([1.0])}
    g = {"x": np.array([0.7])}
    trace = [p["x"][0]]
    for _ in range(100):
        p = opt_step(state, p, g)
        trace.append(p["x"][0])
    diffs = np.diff(trace)
    assert np.all(diffs < 0)


def test_adam_matches_scalar_reference_simulation():
    # independent re-simulation of the bias-corrected update rule
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    gs = [0.3, -1.2, 0.8, 0.05, 2.0]
    m = v = 0.0
    p_ref = 0.4
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    state = adam(lr=lr)
    p = {"x": np.array([0.4])}
    for g in gs:
        p = opt_step(state, p, {"x": np.array([g])})
    np.testing.assert_allclose(p["x"][0], p_ref, rtol=1e-12)


def test_opt_step_shape_and_key_mismatch():
    with pytest.raises(ValueError):
        opt_step(sgd(lr=0.1), {"w": np.zeros(2)}, {"w": np.zeros(3)})
    with pytest.raises(ValueError):
        opt_step(sgd(lr=0.1), {"w": np.zeros(2)}, {"v": np.zeros(2)})


@given(lr=st.floats(1e-6, 1.0))
@settings(max_examples=25, deadline=None)
def test_sgd_update_formula_property(lr):
    p = np.array([0.5, -2.0])
    g = np.array([1.5, 0.25])
    out = opt_step(sgd(lr=lr), {"w": p}, {"w": g})
    np.testing.assert_array_equal(out["w"], p - lr * g)


def model_params() -> dict[str, np.ndarray]:
    cfg = EncoderConfig(n_nodes=6, layers=1, heads=2, n_clusters=3, proj_dim=4)
    rng = np.random.default_rng(0)
    return {**init_encoder_params(cfg, rng), **init_classifier_params(cfg, rng)}


@pytest.mark.parametrize("lr, wd", [(1e-3, 0.0), (1e-3, 5e-5), (0.0, 5e-5)])
@pytest.mark.parametrize("subset", ["all", "classifier"])
def test_adam_matches_the_per_parameter_loop_bit_for_bit(lr, wd, subset):
    params = model_params()
    if subset == "classifier":  # what a frozen encoder trains
        params = {k: v for k, v in params.items() if k.startswith("classifier.")}
    assert len({p.shape for p in params.values()}) > 2
    rng = np.random.default_rng(7)
    state, ref_state = adam(lr=lr, weight_decay=wd), adam(lr=lr, weight_decay=wd)
    moments = {"m": {}, "v": {}}
    ours = ref = params
    for _ in range(5):
        grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        ours = opt_step(state, ours, grads)
        ref = adam_reference(ref_state, ref, grads, moments)
        assert list(ours) == sorted(params)
        for name in params:
            assert ours[name].shape == ref[name].shape
            assert ours[name].tobytes() == ref[name].tobytes(), name
    for key, flat in (("m", state.m), ("v", state.v)):
        joined = np.concatenate([moments[key][k].ravel() for k in sorted(params)])
        assert flat.tobytes() == joined.tobytes()
    assert state.step_count == ref_state.step_count == 5


def test_adam_moments_are_one_vector_fixed_to_the_first_names_and_shapes():
    params = model_params()
    grads = {k: np.ones_like(p) for k, p in params.items()}
    state = adam(lr=1e-3)
    stepped = opt_step(state, params, grads)
    total = sum(p.size for p in params.values())
    for moment in (state.m, state.v):
        assert isinstance(moment, np.ndarray) and moment.shape == (total,)
    # the new parameters are read-only views of one vector
    bases = {id(arr.base) for arr in stepped.values()}
    assert len(bases) == 1 and not next(iter(stepped.values())).base.flags.writeable
    fewer = {k: v for k, v in stepped.items() if k != "embed.b"}
    with pytest.raises(ValueError, match="embed.b"):
        opt_step(state, fewer, {k: grads[k] for k in fewer})
    reshaped = {**stepped, "embed.b": np.zeros((1,) + params["embed.b"].shape)}
    with pytest.raises(ValueError, match="embed.b"):
        opt_step(state, reshaped, {**grads, "embed.b": np.zeros_like(reshaped["embed.b"])})
    assert state.step_count == 1


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    params = {
        "encoder.layer0.wq": rng.standard_normal((4, 4)),
        "head.bias": rng.standard_normal(2),
        "scalars.step": np.array(3.0),
    }
    path = tmp_path / "model.bnck"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for k in params:
        np.testing.assert_array_equal(loaded[k], np.asarray(params[k], dtype=np.float64))


def test_checkpoint_bytes_are_deterministic(tmp_path):
    params = {"b": np.arange(6, dtype=np.float64).reshape(2, 3), "a": np.ones(1)}
    p1, p2 = tmp_path / "one", tmp_path / "two"
    save_checkpoint(p1, params)
    save_checkpoint(p2, dict(reversed(list(params.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    good = tmp_path / "good"
    save_checkpoint(good, {"w": np.ones(3)})
    blob = good.read_bytes()
    (tmp_path / "trunc").write_bytes(blob[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "trunc")
    (tmp_path / "trail").write_bytes(blob + b"\x01")
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "trail")
    # the one-byte name "w" follows magic, version, count and its length
    assert blob[14:15] == b"w"
    (tmp_path / "latin").write_bytes(blob[:14] + b"\xff" + blob[15:])
    with pytest.raises(CheckpointError, match=r"latin: entry name b'\\xff' is not UTF-8"):
        load_checkpoint(tmp_path / "latin")


def checkpoint_blob(entries) -> bytes:
    """A version-1 file holding 1-D ``(name, values)`` entries in the given order."""
    chunks = [b"BNCP", struct.pack("<II", 1, len(entries))]
    for name, values in entries:
        encoded = name.encode("utf-8")
        chunks += [struct.pack("<H", len(encoded)), encoded, struct.pack("<BI", 1, len(values)),
                   np.asarray(values, dtype="<f8").tobytes()]
    return b"".join(chunks)


def test_checkpoint_rejects_repeated_and_unsorted_entries(tmp_path):
    path = tmp_path / "hand.bnck"
    path.write_bytes(checkpoint_blob([("a", [0.5]), ("w", [1.0])]))
    assert load_checkpoint(path)["w"].tolist() == [1.0]
    save_checkpoint(tmp_path / "saved.bnck", {"w": np.array([1.0]), "a": np.array([0.5])})
    assert (tmp_path / "saved.bnck").read_bytes() == path.read_bytes()
    for entries, name in [([("w", [1.0]), ("w", [2.0])], "'w'"),
                          ([("w", [1.0]), ("a", [2.0])], "'a'")]:
        path.write_bytes(checkpoint_blob(entries))
        with pytest.raises(CheckpointError, match=f"entry {name} is repeated or out of"):
            load_checkpoint(path)
