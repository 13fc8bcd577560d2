import math

import numpy as np
import pytest

from mixtask.data import TaskKind
from mixtask.featurize import SourceSpec
from mixtask.model import (
    Checkpoint,
    ToyModel,
    grad_step,
    load_checkpoint,
    save_checkpoint,
    softmax,
)

from reference import batch_loss, cross_entropy_loss, mse_loss

CLS = TaskKind.parse("classification:3")
REG = TaskKind.parse("regression")


def random_model(rng, dim=6, hidden=4, heads=("cls", "reg"), n_classes=3):
    specs = {}
    if "cls" in heads:
        specs["cls"] = TaskKind.parse(f"classification:{n_classes}")
    if "reg" in heads:
        specs["reg"] = REG
    model = ToyModel.create(SourceSpec("fam", int(rng.integers(1e6)), dim), specs,
                            hidden=hidden, run_seed=int(rng.integers(1e6)))
    # spread the weights out so gradients are exercised away from init
    model.enc_weights[...] = rng.normal(0, 1.0, size=model.enc_weights.shape)
    model.enc_bias[...] = rng.normal(0, 0.5, size=model.enc_bias.shape)
    for head in model.heads.values():
        head.weights[...] = rng.normal(0, 0.8, size=head.weights.shape)
        head.bias[...] = rng.normal(0, 0.3, size=head.bias.shape)
    return model


def random_batch(rng, model, kind, batch_size=3):
    """A batch of the "cls" or "reg" head group: (features, gold, head_group)."""
    dim = model.enc_weights.shape[0]
    feats = rng.normal(0, 1, size=(batch_size, dim))
    if kind == "cls":
        n_classes = model.heads["cls"].weights.shape[1]
        return feats, rng.integers(0, n_classes, size=batch_size), "cls"
    return feats, rng.normal(0, 2, size=batch_size), "reg"


# -- losses ----------------------------------------------------------------------


def test_cross_entropy_spot_values():
    assert cross_entropy_loss(np.array([1.0, 0.0]), 0) == 0.0
    assert abs(cross_entropy_loss(np.array([0.5, 0.5]), 1) - math.log(2)) < 1e-12


def test_cross_entropy_matches_indicator_sum_oracle():
    # independent arithmetic: -sum_c 1(X,c) log p_c via math.fsum in plain python
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = int(rng.integers(2, 6))
        raw = rng.uniform(0.05, 1, size=c)
        probs = raw / raw.sum()
        label = int(rng.integers(0, c))
        oracle = -math.fsum(
            (1.0 if cls == label else 0.0) * math.log(p) for cls, p in enumerate(probs)
        )
        assert abs(cross_entropy_loss(probs, label) - oracle) <= 1e-12 * max(1.0, oracle)


def test_cross_entropy_clamps_zero_probability():
    loss = cross_entropy_loss(np.array([1.0, 0.0]), 1)
    assert math.isfinite(loss) and loss == -math.log(1e-12)


def test_cross_entropy_validates():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.array([0.7, 0.7]), 0)
    with pytest.raises(ValueError):
        cross_entropy_loss(np.array([0.5, 0.5]), 2)


def test_mse_spot_values_and_symmetry():
    assert mse_loss(1.04, 1.04) == 0.0
    assert mse_loss(0.0, 2.0) == 4.0
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = rng.normal(size=2)
        assert mse_loss(a, b) == mse_loss(b, a)


def test_step_loss_is_the_sum_of_the_per_sample_losses():
    """loss_and_grads and the reference batch loss both give the sum of the
    per-sample oracle losses over the batch."""
    rng = np.random.default_rng(12)
    for trial in range(20):
        model = random_model(rng)
        feats, gold, group = batch = random_batch(rng, model, "cls" if trial % 2 else "reg", 4)
        if group == "cls":
            losses = [cross_entropy_loss(p, int(y))
                      for p, y in zip(model.class_probs(feats, group), gold)]
        else:
            losses = [mse_loss(s, t) for s, t in zip(model.reg_scores(feats, group), gold)]
        assert batch_loss(model, *batch) == pytest.approx(math.fsum(losses), rel=1e-12)
        assert model.loss_and_grads(*batch)[0] == pytest.approx(math.fsum(losses), rel=1e-12)


def test_probability_head_sums_to_one_for_any_weights():
    rng = np.random.default_rng(7)
    for _ in range(50):
        model = random_model(rng, dim=5, hidden=3)
        model.enc_weights *= rng.uniform(0.1, 50)  # extreme scales included
        feats = rng.normal(0, 3, size=(4, 5))
        probs = model.class_probs(feats, "cls")
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


# -- gradients --------------------------------------------------------------------


def numeric_gradients(model, batch, eps=1e-6):
    """Central finite differences of the summed batch loss over every weight."""
    grads = []
    head = model.heads[batch[2]]
    for arr in (model.enc_weights, model.enc_bias, head.weights, head.bias):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + eps
            up = batch_loss(model, *batch)
            arr[idx] = original - eps
            down = batch_loss(model, *batch)
            arr[idx] = original
            g[idx] = (up - down) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def assert_close_to_numeric(analytic, numeric, tol=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
        assert np.max(np.abs(a - n) / denom) < tol


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    for trial in range(30):
        model = random_model(rng, dim=int(rng.integers(4, 9)), hidden=int(rng.integers(2, 6)),
                             n_classes=int(rng.integers(2, 5)))
        kind = "cls" if trial % 2 == 0 else "reg"
        batch = random_batch(rng, model, kind, batch_size=int(rng.integers(1, 5)))
        _, *analytic = model.loss_and_grads(*batch)
        assert_close_to_numeric(analytic, numeric_gradients(model, batch))


def test_zero_learning_rate_is_identity():
    rng = np.random.default_rng(9)
    model = random_model(rng)
    before = model.copy()
    batch = random_batch(rng, model, "cls")
    grad_step(model, *batch, 0.0)
    assert np.array_equal(model.enc_weights, before.enc_weights)
    assert np.array_equal(model.heads["cls"].weights, before.heads["cls"].weights)


def test_single_sample_step_decreases_loss():
    rng = np.random.default_rng(10)
    for _ in range(20):
        model = random_model(rng)
        kind = "cls" if rng.integers(2) else "reg"
        batch = random_batch(rng, model, kind, batch_size=1)
        before = batch_loss(model, *batch)
        grad_step(model, *batch, 1e-3)
        after = batch_loss(model, *batch)
        if before > 1e-12:  # already-minimal losses cannot strictly decrease
            assert after < before


def test_grad_step_touches_only_encoder_and_batch_head():
    rng = np.random.default_rng(11)
    model = random_model(rng)
    before = model.copy()
    batch = random_batch(rng, model, "cls")
    loss = grad_step(model, *batch, 0.05)
    assert loss >= 0
    assert not np.array_equal(model.enc_weights, before.enc_weights)
    assert not np.array_equal(model.heads["cls"].weights, before.heads["cls"].weights)
    assert np.array_equal(model.heads["reg"].weights, before.heads["reg"].weights)
    assert np.array_equal(model.heads["reg"].bias, before.heads["reg"].bias)


def params_of(model):
    """The model's own arrays: (enc_weights, enc_bias, {group: (weights, bias)})."""
    return (
        model.enc_weights,
        model.enc_bias,
        {g: (h.weights, h.bias) for g, h in model.heads.items()},
    )


def params_bytes(params):
    enc_w, enc_b, heads = params
    arrays = [enc_w, enc_b] + [a for _, pair in sorted(heads.items()) for a in pair]
    return [a.tobytes() for a in arrays]


def test_grad_step_aborts_on_nonfinite(monkeypatch):
    rng = np.random.default_rng(12)
    model = random_model(rng)
    before = params_bytes(params_of(model))
    feats, targets, group = random_batch(rng, model, "reg")
    with pytest.raises(FloatingPointError, match="non-finite loss inf on head 'reg'"):
        grad_step(model, feats, np.full(len(targets), np.inf), group, 0.01)
    assert params_bytes(params_of(model)) == before

    # one non-finite value confined to one gradient, the loss and the other
    # gradients finite: the head weights' (NaN), then the encoder bias' (inf)
    real_loss_and_grads = ToyModel.loss_and_grads
    for position, value in ((3, np.nan), (2, np.inf)):

        def poisoned(self, *batch, position=position, value=value):
            out = real_loss_and_grads(self, *batch)
            out[position].flat[0] = value
            return out

        monkeypatch.setattr(ToyModel, "loss_and_grads", poisoned)
        model = random_model(rng)
        before = params_bytes(params_of(model))
        with pytest.raises(FloatingPointError, match="non-finite gradient on head 'cls'"):
            grad_step(model, *random_batch(rng, model, "cls"), 0.01)
        assert params_bytes(params_of(model)) == before


def test_shared_head_group_is_one_parameter_set():
    model = ToyModel.create(SourceSpec("fam", 3, 8), {"nli": CLS}, hidden=4, run_seed=1)
    # two datasets pointing at "nli" read and update the same array object
    assert model.heads["nli"].weights is model.heads["nli"].weights
    before = model.heads["nli"].weights.copy()
    grad_step(model, np.ones((2, 8)), np.array([0, 1]), "nli", 0.1)
    assert not np.array_equal(model.heads["nli"].weights, before)


def test_softmax_rows_stochastic_under_extremes():
    logits = np.array([[1000.0, 0.0, -1000.0], [-5.0, -5.0, -5.0]])
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs[0, 0] > 0.999


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    model = random_model(rng)
    ckpt = Checkpoint(model=model, stage="multitask", epoch=4,
                      dev_metrics={"t": 0.75}, selection_value=0.75)
    entry = save_checkpoint(ckpt, tmp_path / "ck.npy")
    assert entry["provenance"] == {"stage": "multitask", "epoch": 4, "dev_metrics": {"t": 0.75},
                                   "selection_value": 0.75}
    loaded = load_checkpoint(tmp_path / "ck.npy", entry)
    assert loaded.epoch == 4 and loaded.stage == "multitask"
    assert loaded.dev_metrics == {"t": 0.75} and loaded.selection_value == 0.75
    assert np.array_equal(loaded.model.enc_weights, model.enc_weights)
    assert np.array_equal(loaded.model.heads["cls"].weights, model.heads["cls"].weights)
    assert loaded.model.source == model.source


THREE_HEADS = {
    "nli": TaskKind.parse("classification:3"),
    "rqe": TaskKind.parse("classification:2"),
    "qa": REG,
}


def test_checkpoint_is_one_npy_file_that_reloads_the_same_bytes(tmp_path):
    rng = np.random.default_rng(15)
    model = ToyModel.create(SourceSpec("fam", 3, 10), THREE_HEADS, hidden=5, run_seed=2)
    model.params[...] = rng.normal(0, 1, size=model.params.shape)
    path = tmp_path / "m__multitask.npy"
    entry = save_checkpoint(Checkpoint(model=model, stage="multitask", epoch=2), path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert entry["checkpoint"] == path.name
    assert entry["layout"]["heads"]["nli"] == {"kind": "classification", "weights": [5, 3],
                                               "bias": [3]}
    assert entry["provenance"]["epoch"] == 2
    loaded = load_checkpoint(path, entry).model
    assert loaded.params.tobytes() == model.params.tobytes()
    for group, head in model.heads.items():
        assert loaded.heads[group].kind == head.kind
        assert loaded.heads[group].weights.tobytes() == head.weights.tobytes()
        assert loaded.heads[group].bias.tobytes() == head.bias.tobytes()
    assert loaded.enc_weights.tobytes() == model.enc_weights.tobytes()
    assert loaded.enc_bias.tobytes() == model.enc_bias.tobytes()
    assert loaded.source == model.source and loaded.hidden == model.hidden


def test_parameters_are_views_of_one_vector_that_cannot_be_rebound():
    model = ToyModel.create(SourceSpec("fam", 3, 10), THREE_HEADS, hidden=5, run_seed=2)
    arrays = [model.enc_weights, model.enc_bias]
    arrays += [a for _, head in sorted(model.heads.items()) for a in (head.weights, head.bias)]
    assert all(a.base is model.params for a in arrays)
    assert np.concatenate([a.ravel() for a in arrays]).tobytes() == model.params.tobytes()
    head = model.heads["nli"]
    for owner, name in ((model, "params"), (model, "enc_weights"), (model, "enc_bias"),
                        (head, "weights"), (head, "bias")):
        with pytest.raises(AttributeError, match="update it in place"):
            setattr(owner, name, getattr(owner, name).copy())
    model.enc_weights *= 2.0  # in place: the view stays bound
    assert model.enc_weights.base is model.params


def test_copy_shares_no_memory_and_steps_independently():
    rng = np.random.default_rng(16)
    model = ToyModel.create(SourceSpec("fam", 3, 10), THREE_HEADS, hidden=5, run_seed=2)
    before = model.params.copy()
    twin = model.copy()
    assert not np.shares_memory(twin.params, model.params)
    assert twin.params.tobytes() == model.params.tobytes()
    for group in ("nli", "rqe", "qa"):
        assert not np.shares_memory(twin.heads[group].weights, model.heads[group].weights)
    grad_step(twin, rng.normal(0, 1, size=(4, 10)), rng.integers(0, 3, size=4), "nli", 0.5)
    assert not np.array_equal(twin.params, before)
    assert model.params.tobytes() == before.tobytes()


def test_copies_and_loaded_checkpoints_step_only_their_own_vector(tmp_path):
    """A step context holds views of its model's own vector: once the
    original has stepped, its copy and its reloaded checkpoint step theirs."""
    rng = np.random.default_rng(17)
    model = ToyModel.create(SourceSpec("fam", 3, 10), THREE_HEADS, hidden=5, run_seed=2)
    batch = rng.normal(0, 1, size=(4, 10)), rng.integers(0, 3, size=4), "nli"
    grad_step(model, *batch, 0.5)
    before = model.params.copy()
    entry = save_checkpoint(Checkpoint(model=model), tmp_path / "model.npy")
    for other in (model.copy(), load_checkpoint(tmp_path / "model.npy", entry).model):
        grad_step(other, *batch, 0.5)
        assert not np.array_equal(other.params, before)
        assert model.params.tobytes() == before.tobytes()


# -- bit-exactness against the per-array formulation -------------------------------


def reference_step(params, kind, batch, learning_rate):
    """The per-array SGD step that the flat gradient buffer replaced, kept as
    an oracle: a fresh array for every intermediate, one finiteness check and
    one scaled update per gradient. params is (enc_weights, enc_bias,
    {group: (weights, bias)}), updated in place; kind is the TaskKind of the
    batch's head group; returns the batch loss."""
    enc_w, enc_b, heads = params
    X, gold, group = batch
    head_w, head_b = heads[group]
    Z = X @ enc_w + enc_b
    A = np.tanh(Z)
    if kind.is_classification:
        U = A @ head_w + head_b
        shifted = U - U.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        P = exp / exp.sum(axis=-1, keepdims=True)
        picked = P[np.arange(len(gold)), gold]
        loss = float(-np.log(np.maximum(picked, 1e-12)).sum())
        dU = P.copy()
        dU[np.arange(len(gold)), gold] -= 1.0
    else:
        S = (A @ head_w + head_b)[:, 0]
        loss = float(((gold - S) ** 2).sum())
        dU = (2.0 * (S - gold))[:, None]
    d_head_w = A.T @ dU
    d_head_b = dU.sum(axis=0)
    dA = dU @ head_w.T
    dZ = dA * (1.0 - A * A)
    d_enc_w = X.T @ dZ
    d_enc_b = dZ.sum(axis=0)
    assert np.isfinite(loss)
    for grad in (d_enc_w, d_enc_b, d_head_w, d_head_b):
        assert np.all(np.isfinite(grad))
    enc_w -= learning_rate * d_enc_w
    enc_b -= learning_rate * d_enc_b
    head_w -= learning_rate * d_head_w
    head_b -= learning_rate * d_head_b
    return loss


def test_grad_step_is_bit_identical_to_the_per_array_step():
    """Mixed steps over a 3-class, a 2-class and a regression head group that
    share one encoder, batch sizes 16, 20 and 1: every loss and every
    parameter byte equals the per-array oracle, for the model and for a copy
    taken mid-run and stepped alongside it."""
    rng = np.random.default_rng(14)
    kinds = {
        "nli": TaskKind.parse("classification:3"),
        "rqe": TaskKind.parse("classification:2"),
        "qa": REG,
    }
    model = ToyModel.create(SourceSpec("fam", 3, 40), kinds, hidden=12, run_seed=5)
    dim = model.enc_weights.shape[0]

    def batch_for(group, size):
        feats = rng.normal(0, 1, size=(size, dim))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        kind = kinds[group]
        if kind.is_classification:
            return feats, rng.integers(0, kind.num_classes, size=size), group
        return feats, rng.uniform(-1, 1, size=size), group

    def snapshot(model):
        enc_w, enc_b, heads = params_of(model)
        return enc_w.copy(), enc_b.copy(), {g: (w.copy(), b.copy()) for g, (w, b) in heads.items()}

    runs = [(model, snapshot(model))]
    steps = 0
    for step in range(240):
        if step == 120:
            runs.append((model.copy(), snapshot(model)))
        for run_model, params in runs:
            group = ("nli", "rqe", "qa")[int(rng.integers(3))]
            size = (16, 20, 1)[step % 3]
            batch = batch_for(group, size)
            expected = reference_step(params, kinds[group], batch, 0.02)
            assert grad_step(run_model, *batch, 0.02) == expected
            assert params_bytes(params_of(run_model)) == params_bytes(params), f"step {step}"
            steps += 1
    assert steps >= 200
    # the runs stayed in tanh's active range and diverged after the copy
    assert np.abs(model.enc_weights).max() < 10
    assert not np.array_equal(runs[1][0].enc_weights, model.enc_weights)
