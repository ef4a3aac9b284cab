import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fitguide
from fitguide import write_dataset
from fitguide.mlp import (
    CommandModel,
    TrainConfig,
    TrainingDivergedError,
    Workspace,
    bind,
    forward,
    forward_batch,
    init_model,
    load_model,
    loss_and_gradients,
    save_model,
    train,
)


def _affine_dataset(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.uniform(0, 3, n), rng.uniform(0, math.pi, n), rng.uniform(0.1, 4, n),
    ])
    u = 0.7 * X[:, 0] - 0.4 * X[:, 1] + 0.2 * X[:, 2] + 0.05
    return np.column_stack([X, u])


def test_zero_network_collapses_to_output_mean():
    model = init_model(seed=0)
    for W in model.weights:
        W[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    assert forward(model, (1.0, 2.0, 3.0)) == 0.0
    assert forward(model, (-5.0, 0.4, 9.0)) == 0.0


def test_forward_deterministic_and_finite_checked():
    model = init_model(seed=1)
    x = (0.5, 1.0, 2.0)
    assert forward(model, x) == forward(model, x)
    with pytest.raises(ValueError):
        forward(model, (math.nan, 1.0, 2.0))


_INIT_MODEL = init_model(seed=2)


@settings(max_examples=300, deadline=None)
@given(
    r_frac=st.floats(0.0, 2.0),
    sigma=st.floats(0.0, math.pi),
    t_frac=st.floats(0.0, 1.0, exclude_min=True),
    scale=st.sampled_from((1.0, -1.0, 1e-6, 7.5, 1e4)),
)
def test_forward_equals_one_row_batch(model, r_frac, sigma, t_frac, scale):
    # r in [0, 2 t_bar], sigma in [0, pi], t_go in (0, t_bar], and the same
    # box scaled outside the training domain
    for m in (_INIT_MODEL, model):
        x = (scale * r_frac * m.t_bar, scale * sigma, scale * t_frac * m.t_bar)
        assert forward(m, x) == float(forward_batch(m, np.array([x]))[0])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, math.pi), st.floats(0.0, 1.0, exclude_min=True)),
                     min_size=1, max_size=6))
def test_bound_network_gives_the_same_bits_in_any_order(model, rows):
    # one evaluator reuses its buffers, so its answers must not depend on what
    # it evaluated before: they equal a fresh evaluator's and the one-row batch's
    for m in (_INIT_MODEL, model):
        xs = [(a * m.t_bar, sigma, c * m.t_bar) for a, sigma, c in rows]
        f = bind(m)
        got = [f(*x) for x in xs]
        want = [float(forward_batch(m, np.array([x]))[0]) for x in xs]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert np.array([bind(m)(*x) for x in xs]).tobytes() == np.array(want).tobytes()
        assert np.array([f(*x) for x in xs[::-1]]).tobytes() == np.array(want[::-1]).tobytes()


def test_bound_network_answers_to_the_bit_after_a_failed_call(model):
    # a call that raises between good ones leaves nothing in the evaluator's
    # input and output buffers that a later answer could read
    bad = [(math.nan, 1.0, 2.0), (1.0, math.inf, 2.0), (1.0, 1.0, -math.inf)]
    for m in (_INIT_MODEL, model):
        f = bind(m)
        xs = [(a * m.t_bar, sigma, c * m.t_bar) for a, sigma, c in ((0.3, 1.1, 0.6), (1.7, 0.2, 0.9), (0.05, 3.0, 0.1))]
        got = [f(*xs[0])]
        for x, b in zip(xs[1:] + xs[:1], bad):
            with pytest.raises(ValueError, match="non-finite network input"):
                f(*b)
            got.append(f(*x))
        want = [float(forward_batch(m, np.array([x]))[0]) for x in xs + xs[:1]]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_forward_accepts_any_three_value_sequence(model):
    x = (1.25, 0.8, 3.0)
    want = forward(model, x)
    assert isinstance(want, float)
    assert forward(model, list(x)) == want
    assert forward(model, np.array(x)) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_forward_rejects_non_finite_inputs(model, slot, bad):
    x = [1.25, 0.8, 3.0]
    x[slot] = bad
    with pytest.raises(ValueError, match="non-finite network input"):
        forward(model, x)


def test_affine_map_trains_to_target_stop():
    # deep-convergence sanity on an exactly realizable target; the optimizer
    # reaches the stop threshold well below the real-data noise floor
    config = TrainConfig(target_mse=1e-5, max_epochs=5000, batch_size=512,
                         learning_rate=3e-3, lr_patience=60, lr_min=1e-6, seed=1)
    _, report = train(_affine_dataset(), config)
    assert report.reached_target
    assert report.final_train_mse <= 1e-5


def test_gradients_match_finite_differences():
    model = init_model(seed=3)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 1))
    _, g_w, g_b = loss_and_gradients(model, X, Y)
    step = 1e-5
    worst = 0.0
    for layer in range(len(model.weights)):
        for arr, grad in ((model.weights[layer], g_w[layer]), (model.biases[layer], g_b[layer])):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                keep = flat[i]
                flat[i] = keep + step
                up = loss_and_gradients(model, X, Y)[0]
                flat[i] = keep - step
                down = loss_and_gradients(model, X, Y)[0]
                flat[i] = keep
                fd = (up - down) / (2 * step)
                worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))
    assert worst <= 1e-5


def _reference_forward(model, X):
    acts = [X]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.tanh(acts[-1] @ W + b))
    return acts[-1] @ model.weights[-1] + model.biases[-1], acts


def _reference_loss_and_gradients(model, X, Y):
    """Textbook backpropagation on fresh arrays, one product and sum per layer.

    The weight gradient sums its products over blocks of 1,024 rows in order,
    as ``train`` defines it, so that no thread count changes its bits.
    """
    out, acts = _reference_forward(model, X)
    diff = out - Y
    delta = 2.0 * diff / (len(X) * Y.shape[1])
    g_w, g_b = [None] * len(model.weights), [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        if layer < len(model.weights) - 1:
            delta = (delta @ model.weights[layer + 1].T) * (1.0 - acts[layer + 1] ** 2)
        g_w[layer] = acts[layer][:1024].T @ delta[:1024]
        for s in range(1024, len(X), 1024):
            g_w[layer] = g_w[layer] + acts[layer][s : s + 1024].T @ delta[s : s + 1024]
        g_b[layer] = delta.sum(axis=0)
    return float(np.mean(diff ** 2)), g_w, g_b


def _reference_train(dataset, config):
    """``train`` with separate X and Y copies and Adam stepped one array at a time.

    Covers runs that end on the epoch budget without a learning-rate halving.
    """
    rng = np.random.default_rng(config.seed)
    data = dataset[rng.permutation(len(dataset))]
    n_val = max(1, int(len(data) * config.validation_fraction))
    val, tr = data[:n_val], data[n_val:]
    in_mean, in_scale = tr[:, :3].mean(axis=0), tr[:, :3].std(axis=0)
    out_mean, out_scale = float(tr[:, 3].mean()), float(tr[:, 3].std())
    Xtr, Ytr = (tr[:, :3] - in_mean) / in_scale, (tr[:, 3:4] - out_mean) / out_scale
    Xv, Yv = (val[:, :3] - in_mean) / in_scale, (val[:, 3:4] - out_mean) / out_scale
    model = init_model(seed=config.seed)
    params = model.weights + model.biases
    m, v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    step, history = 0, []
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(Xtr))
        total, batches = 0.0, 0
        for s in range(0, len(Xtr), config.batch_size):
            idx = order[s : s + config.batch_size]
            loss, g_w, g_b = _reference_loss_and_gradients(model, Xtr[idx], Ytr[idx])
            total, batches, step = total + loss, batches + 1, step + 1
            c1, c2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
            for i, g in enumerate(g_w + g_b):
                m[i] = 0.9 * m[i] + (1 - 0.9) * g
                v[i] = 0.999 * v[i] + (1 - 0.999) * g ** 2
                params[i] -= config.learning_rate * (m[i] / c1) / (np.sqrt(v[i] / c2) + 1e-8)
        history.append((epoch, total / batches, float(np.mean((_reference_forward(model, Xv)[0] - Yv) ** 2))))
    model.input_mean, model.input_scale, model.output_mean, model.output_scale = in_mean, in_scale, out_mean, out_scale
    return model, history


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gradients_equal_the_reference_to_the_bit_on_a_reused_workspace():
    model = init_model(seed=3)
    rng = np.random.default_rng(6)
    ws = Workspace(model.layer_sizes, 1024)
    # shrinking batches on one workspace: rows left over from a larger batch must not leak
    for n in (1024, 37, 1):
        rows = rng.normal(size=(n, 4))
        X, Y = rows[:, :3], rows[:, 3:]
        want = _reference_loss_and_gradients(model, X, Y)
        for got in (loss_and_gradients(model, X, Y, ws), loss_and_gradients(model, X, Y)):
            assert got[0] == want[0]
            assert all(_same_bits(g, r) for g, r in zip(got[1] + got[2], want[1] + want[2]))


@pytest.mark.parametrize("batch_size", [512, 4096])  # a partial last batch; one batch over the training set
def test_training_equals_the_reference_to_the_bit(batch_size):
    data = _affine_dataset()
    config = TrainConfig(max_epochs=3, batch_size=batch_size, seed=5)
    got, report = train(data, config)
    want, history = _reference_train(data, config)
    assert report.epochs_run == 3
    assert report.history == history
    for name in ("weights", "biases"):
        assert all(_same_bits(g, w) for g, w in zip(getattr(got, name), getattr(want, name)))
    for name in ("input_mean", "input_scale", "output_mean", "output_scale"):
        assert _same_bits(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("batch", ["1024", "4096"])
def test_trained_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, batch):
    # a batch of 4,096 rows gave other bits under 2 threads than under 1 while its weight
    # gradients were single products; OpenBLAS reads its thread count at start-up, so each
    # count trains in its own process
    n = 12000
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.uniform(0, 3, n), rng.uniform(0, math.pi, n), rng.uniform(0.1, 4, n)])
    write_dataset(np.column_stack([X, np.sin(X[:, 0]) - 0.4 * X[:, 1] * X[:, 2]]), tmp_path / "d.csv")
    src = str(Path(fitguide.__file__).resolve().parents[1])
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"model{threads}.txt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "fitguide.cli", "train", "--data", str(tmp_path / "d.csv"), "--out", str(out),
                        "--epochs", "2", "--batch", batch, "--seed", "1"], env=env, check=True, capture_output=True, timeout=600)
        models.append(out.read_bytes())
    assert models[0] == models[1]


def test_trained_models_own_their_parameters(tmp_path):
    config = TrainConfig(max_epochs=1, batch_size=512, seed=2)
    m1, _ = train(_affine_dataset(), config)
    m2, _ = train(_affine_dataset(), config)
    arrays = lambda m: m.weights + m.biases + [m.input_mean, m.input_scale]
    flat = m1.weights[0].base  # every parameter array is a view of one flat vector
    assert flat is not None and all(a.base is flat for a in m1.weights + m1.biases)
    assert not any(np.shares_memory(a, b) for a in arrays(m1) for b in arrays(m2))
    before = [a.copy() for a in arrays(m2)]
    for a in arrays(m1):
        a += 1.0
    assert all(_same_bits(a, b) for a, b in zip(arrays(m2), before))

    path = tmp_path / "m.txt"
    save_model(m2, path)
    loaded = load_model(path)
    loaded.validate()
    assert all(_same_bits(a, b) for a, b in zip(arrays(loaded), arrays(m2)))
    probe = _affine_dataset(n=50, seed=3)[:, :3]
    assert _same_bits(forward_batch(loaded, probe), forward_batch(m2, probe))


def test_training_diverges_loudly():
    np_err = np.seterr(all="ignore")
    try:
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(_affine_dataset(), TrainConfig(max_epochs=3, learning_rate=1e160,
                                                 batch_size=512, seed=0))
        assert excinfo.value.epoch >= 1
    finally:
        np.seterr(**np_err)


def test_train_rejects_non_finite_rows():
    for bad in (math.inf, -math.inf, math.nan):
        data = _affine_dataset()
        data[11, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            train(data, TrainConfig(max_epochs=1))


@pytest.mark.parametrize("name", ["target_mse", "learning_rate", "lr_min"])
@pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
def test_train_config_rejects_non_finite_or_non_positive_rates(name, value):
    with pytest.raises(ValueError, match="finite and positive"):
        TrainConfig(**{name: value})


def test_training_determinism():
    config = TrainConfig(max_epochs=3, batch_size=512, seed=7)
    m1, r1 = train(_affine_dataset(), config)
    m2, r2 = train(_affine_dataset(), config)
    assert r1.final_train_mse == r2.final_train_mse
    probe = np.array([[1.0, 1.0, 1.0]])
    assert forward_batch(m1, probe)[0] == forward_batch(m2, probe)[0]


def test_best_validation_monotone(train_report):
    vals = [v for _, _, v in train_report.history]
    best = np.minimum.accumulate(vals)
    assert np.all(np.diff(best) <= 0)
    assert train_report.best_val_mse == pytest.approx(min(vals))


def test_report_both_scales(train_report, model):
    assert train_report.final_train_mse_raw == pytest.approx(
        train_report.final_train_mse * model.output_scale**2
    )


def test_trained_rows_predicted_within_bound(model, reduced_dataset, train_report):
    # Markov bound check: err > 10*sqrt(MSE) on at most 1% of rows
    rng = np.random.default_rng(12)
    idx = rng.choice(len(reduced_dataset), size=20000, replace=False)
    rows = reduced_dataset[idx]
    pred = forward_batch(model, rows[:, :3])
    err_norm = np.abs(pred - rows[:, 3]) / model.output_scale
    bound = 10.0 * math.sqrt(train_report.final_train_mse)
    assert np.mean(err_norm <= bound) >= 0.99


def test_forward_finite_on_domain(model):
    rng = np.random.default_rng(13)
    probe = np.column_stack([
        rng.uniform(0.0, 4.0, 500),
        rng.uniform(0.0, math.pi, 500),
        rng.uniform(1e-3, 4.0, 500),
    ])
    out = forward_batch(model, probe)
    assert np.all(np.isfinite(out))


def test_save_load_bitwise(model, tmp_path):
    path = tmp_path / "m.txt"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(14)
    probe = np.column_stack([
        rng.uniform(0, 4, 100), rng.uniform(0, math.pi, 100), rng.uniform(0.01, 4, 100),
    ])
    assert np.array_equal(forward_batch(model, probe), forward_batch(loaded, probe))
    assert loaded.t_bar == model.t_bar


def test_saved_model_writes_percent_17g(model, tmp_path):
    """Every float field of a model file is '%.17g' text, as before format_17g."""
    path = tmp_path / "m.txt"
    save_model(model, path)
    fields = dict(line.split(": ", 1) for line in path.read_text(encoding="utf-8").splitlines()[1:])

    def g17(a):
        return " ".join("%.17g" % v for v in np.ravel(a))

    assert fields["t_bar"] == g17(model.t_bar)
    assert fields["input_mean"] == g17(model.input_mean)
    assert fields["input_scale"] == g17(model.input_scale)
    assert fields["output_mean"] == g17(model.output_mean)
    assert fields["output_scale"] == g17(model.output_scale)
    for k, (W, b) in enumerate(zip(model.weights, model.biases), start=1):
        assert fields[f"W{k}"] == g17(W)
        assert fields[f"b{k}"] == g17(b)


def test_load_rejects_bad_files(tmp_path, model):
    path = tmp_path / "m.txt"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")

    wrong_version = text.replace("fitguide-model v1", "fitguide-model v9")
    p = tmp_path / "v.txt"
    p.write_text(wrong_version, encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported model version"):
        load_model(p)

    lines = text.splitlines()
    w2 = next(i for i, ln in enumerate(lines) if ln.startswith("W2:"))
    lines[w2] = "W2: " + " ".join(lines[w2].split()[1:-3])  # drop three values
    p = tmp_path / "dim.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="layer 2"):
        load_model(p)

    p = tmp_path / "junk.txt"
    p.write_text("not a model\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad header"):
        load_model(p)


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_bar", "nan"),
        ("t_bar", "-4"),
        ("t_bar", "0"),
        ("input_scale", "nan nan nan"),
        ("output_scale", "nan"),
        ("output_mean", "nan"),
        ("input_mean", "inf 0 0"),
        ("input_scale", "1.5"),  # one value would broadcast over three inputs
    ],
)
def test_load_rejects_normalization_that_spoils_every_command(tmp_path, model, field, value):
    path = tmp_path / "m.txt"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    lines = [f"{field}: {value}" if ln.startswith(f"{field}:") else ln for ln in text.splitlines()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=field):
        load_model(path)


def test_model_validate_catches_inconsistency(model):
    broken = CommandModel(
        layer_sizes=model.layer_sizes,
        weights=[w.copy() for w in model.weights],
        biases=[b.copy() for b in model.biases],
        input_mean=model.input_mean,
        input_scale=model.input_scale,
        output_mean=model.output_mean,
        output_scale=model.output_scale,
        t_bar=model.t_bar,
    )
    broken.weights[1] = broken.weights[1][:, :-1]
    with pytest.raises(ValueError, match="layer 2"):
        broken.validate()
