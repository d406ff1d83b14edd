"""Training loop determinism, the exact Adam update, and model persistence."""

import gc
import hashlib
import json
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from deckmotion import _kernels as K
from deckmotion import cli
from deckmotion import lstm as L
from deckmotion import seriesdata as sd
from deckmotion import training as tr
from deckmotion import wavegen as wg


def small_split(n=160, lookback=10, fraction=0.7, bad_target=None):
    series = sd.sample_series(wg.knox_training_model(), n, 0.25)
    norm = sd.fit_normalizer(series, int(round(fraction * n)))
    windows = sd.make_windows(sd.apply_normalizer(norm, series), lookback)
    if bad_target is not None:
        windows.targets[0, 0] = bad_target
    return sd.split_series(windows, fraction, n), norm


def small_config(**kw):
    defaults = dict(epochs=2, batch_size=16, hidden_dim=8, lookback=10, shuffle_seed=3)
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(epochs=0)
    with pytest.raises(ValueError):
        small_config(batch_size=0)
    with pytest.raises(ValueError):
        small_config(learning_rate=-1e-3)


def test_zero_learning_rate_leaves_init_untouched():
    split, _ = small_split()
    config = small_config(epochs=1, learning_rate=0.0)
    artifact, _ = tr.train(split, config, seed=5)
    init = L.init_params(L.LstmConfig(hidden_dim=8, lookback=10), 5)
    for a, b in zip(artifact.params.arrays(), init.arrays()):
        assert np.array_equal(a, b)


def test_training_deterministic():
    split, norm = small_split()
    config = small_config(epochs=3)
    a1, r1 = tr.train(split, config, seed=9, normalizer=norm)
    a2, r2 = tr.train(split, config, seed=9, normalizer=norm)
    for x, y in zip(a1.params.arrays(), a2.params.arrays()):
        assert np.array_equal(x, y)
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.final_test_loss == r2.final_test_loss


def test_adam_steps_are_exact():
    split, _ = small_split()
    lr = 0.01
    # two epochs of one batch covering the whole training set: step 1 pins
    # the bias correction, step 2 the moment recurrences
    config = small_config(epochs=2, batch_size=len(split.train), learning_rate=lr)
    params = [a.copy() for a in L.init_params(L.LstmConfig(hidden_dim=8, lookback=10), 4).arrays()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in (1, 2):
        # reproduce the exact batch the trainer sees (same shuffle, same order)
        order = np.random.default_rng([config.shuffle_seed, t - 1]).permutation(len(split.train))
        _, grads = L.loss_and_gradients(
            L.LstmParams(*params), split.train.inputs[order], split.train.targets[order]
        )
        bc1 = 1.0 - tr.BETA1**t
        bc2 = 1.0 - tr.BETA2**t
        for k, g in enumerate(grads):
            m[k] = tr.BETA1 * m[k] + (1.0 - tr.BETA1) * g
            v[k] = tr.BETA2 * v[k] + (1.0 - tr.BETA2) * g * g
            params[k] = params[k] - lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + tr.EPSILON)
    artifact, _ = tr.train(split, config, seed=4)
    for p_new, p_ref in zip(artifact.params.arrays(), params):
        assert np.array_equal(p_new, p_ref)


def test_losses_nonnegative_and_training_improves():
    split, _ = small_split(n=400, lookback=10)
    config = small_config(epochs=30, hidden_dim=16, batch_size=32)
    _, report = tr.train(split, config, seed=1)
    assert len(report.epoch_losses) == 30
    assert all(loss >= 0.0 for loss in report.epoch_losses)
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.final_test_loss >= 0.0


def test_nonfinite_loss_aborts_with_location():
    split, _ = small_split(bad_target=float("inf"))
    with pytest.raises(tr.TrainingDivergedError, match=r"epoch 0, batch \d+"):
        tr.train(split, small_config(), seed=0)


def test_huge_learning_rate_diverges():
    split, _ = small_split()
    # Adam's step is about lr per weight, so only an astronomical rate diverges
    config = small_config(epochs=50, learning_rate=1e200)
    with pytest.raises(tr.TrainingDivergedError):
        tr.train(split, config, seed=0)


def test_empty_sides_rejected():
    split, _ = small_split()
    empty = sd.SplitDataset(train=split.train, test=split.train, boundary_index=0)
    bad = sd.WindowedDataset(
        lookback=10,
        inputs=split.train.inputs[:0],
        targets=split.train.targets[:0],
        target_indices=split.train.target_indices[:0],
    )
    with pytest.raises(ValueError):
        tr.train(sd.SplitDataset(train=bad, test=split.test, boundary_index=1), small_config(), 0)
    with pytest.raises(ValueError):
        tr.train(sd.SplitDataset(train=split.train, test=bad, boundary_index=1), small_config(), 0)


def test_lookback_mismatch_rejected():
    split, _ = small_split(lookback=10)
    with pytest.raises(ValueError):
        tr.train(split, small_config(lookback=12), seed=0)


@pytest.fixture()
def artifact(tmp_path):
    split, norm = small_split()
    art, _ = tr.train(split, small_config(), seed=21, normalizer=norm)
    return replace(art, provenance="unit-test")


def test_save_load_round_trip_bitwise(artifact, tmp_path):
    path = tmp_path / "model.json"
    tr.save_model(artifact, path)
    loaded = tr.load_model(path)
    assert loaded.config == artifact.config
    assert loaded.provenance == "unit-test"
    assert np.array_equal(loaded.normalizer.offset, artifact.normalizer.offset)
    assert np.array_equal(loaded.normalizer.scale, artifact.normalizer.scale)

    rng = np.random.default_rng(0)
    windows = rng.normal(size=(100, 10, 3))
    before = L.predict_windows(artifact.params, windows)
    after = L.predict_windows(loaded.params, windows)
    assert np.array_equal(before, after)

    # a leading UTF-8 byte-order mark is skipped
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    loaded = tr.load_model(bom)
    assert loaded.config == artifact.config
    assert np.array_equal(L.predict_windows(loaded.params, windows), before)

    # an integral float in an integer field reads as that integer
    doc = tr.model_to_dict(artifact)
    doc["config"]["hidden_dim"] = float(artifact.config.hidden_dim)
    path.write_text(json.dumps(doc))
    loaded = tr.load_model(path)
    assert loaded.config == artifact.config
    assert np.array_equal(L.predict_windows(loaded.params, windows), before)


def test_loaded_parameters_are_read_only(artifact, tmp_path):
    # the kernels keep a loaded model's fused gate weights on the strength
    # of this; a copy is writable, as training's parameters are
    path = tmp_path / "model.json"
    tr.save_model(artifact, path)
    loaded = tr.load_model(path)
    for arr in loaded.params.arrays():
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    for arr in loaded.params.copy().arrays():
        arr[0] = 0.0


def test_fused_weights_live_as_long_as_the_model(artifact, tmp_path):
    path = tmp_path / "model.json"
    tr.save_model(artifact, path)
    loaded = tr.load_model(path)
    key, wh = id(loaded.params.wh), weakref.ref(loaded.params.wh)
    L.predict_windows(loaded.params, np.zeros((1, artifact.config.lookback, 3)))
    assert key in K._FUSED
    del loaded
    gc.collect()
    assert wh() is None
    assert key not in K._FUSED


def test_landing_step_rebuilds_no_weights(tmp_path):
    # a B=1 forecast from a loaded model (H=64, L=40) allocates no fused
    # gate weights once warm: the 128 KiB wh^T alone would break the bound
    config = L.LstmConfig(hidden_dim=64, lookback=40)
    artifact = tr.ModelArtifact(config=config, params=L.init_params(config, 3), normalizer=sd.Normalizer())
    path = tmp_path / "model.json"
    tr.save_model(artifact, path)
    params = tr.load_model(path).params
    window = np.random.default_rng(3).normal(size=(1, 40, 3))
    for _ in range(3):
        L.predict_windows(params, window)
    tracemalloc.start()
    try:
        L.predict_windows(params, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024, peak


def test_model_document_schema(artifact, tmp_path):
    path = tmp_path / "model.json"
    tr.save_model(artifact, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert set(doc["params"]) == {
        "w_i", "u_i", "b_i", "w_f", "u_f", "b_f",
        "w_g", "u_g", "b_g", "w_o", "u_o", "b_o",
        "w_out", "b_out",
    }
    assert len(doc["params"]["w_i"]) == artifact.config.hidden_dim
    assert doc["config"]["lookback"] == 10


# sha256 of the document below as the model codec has always written it:
# keys in file order, two-space indentation, repr floats, -0.0 and \u escapes
GOLDEN_MODEL_SHA256 = "c77932616cb1ffab7df92e2580b0539e6f85267a2ee9aa0dc11155645fdb58cb"


def golden_artifact():
    """A hidden-2 model built from fixed arithmetic, with no RNG."""
    H = 2
    params = L.LstmParams(
        wx=np.arange(4 * H * 3).reshape(4 * H, 3) / 7 - 1.5,
        wh=np.arange(4 * H * H).reshape(4 * H, H) / -7,
        b=np.arange(4 * H) / 7,
        w_out=np.arange(3 * H).reshape(3, H) / 7 + 0.1,
        b_out=np.array([1.0, -2.0, 3.0]) / 7,
    )
    return tr.ModelArtifact(
        config=L.LstmConfig(hidden_dim=H, lookback=3),
        params=params,
        normalizer=sd.Normalizer(offset=np.array([0.25, -1.0, 1.0]) / 3, scale=np.array([1.5, 0.1, 2.0]) / 7),
        provenance="simulate --model knox \u00b7 train --seed 1",
    )


def test_model_document_text_is_pinned(tmp_path):
    text = wg.json_text(tr.model_to_dict(golden_artifact()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_MODEL_SHA256
    path = tmp_path / "golden.json"
    path.write_text(text, encoding="utf-8")
    assert wg.json_text(tr.model_to_dict(tr.load_model(path))) == text


def test_load_unknown_version(artifact, tmp_path):
    doc = tr.model_to_dict(artifact)
    doc["format_version"] = 999
    path = tmp_path / "v999.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown format_version 999"):
        tr.load_model(path)


def test_load_version_that_is_no_integer(artifact, tmp_path, capsys):
    # format_version is read as every other integer field is: true is no 1
    series = sd.sample_series(wg.knox_training_model(), 40, 0.25)
    data = tmp_path / "series.csv"
    data.write_text(sd.series_to_csv(series.times, series.samples))
    doc = tr.model_to_dict(artifact)
    doc["format_version"] = True
    path = tmp_path / "vtrue.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version must be an integer, got True"):
        tr.load_model(path)
    argv = ["predict", "--model", str(path), "--data", str(data), "--out", str(tmp_path / "pred.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.endswith("format_version must be an integer, got True\n")
    assert not (tmp_path / "pred.csv").exists()


def test_hidden_dim_is_written_from_the_weights(tmp_path):
    # the file splits the weights by their own hidden size, so it declares
    # that one, whatever the artifact's config says
    params = L.init_params(L.LstmConfig(hidden_dim=16, lookback=10), 0)
    artifact = tr.ModelArtifact(L.LstmConfig(hidden_dim=8, lookback=10), params, sd.Normalizer())
    path = tmp_path / "model.json"
    tr.save_model(artifact, path)
    loaded = tr.load_model(path)
    assert loaded.config == L.LstmConfig(hidden_dim=16, lookback=10)
    for got, want in zip(loaded.params.arrays(), params.arrays(), strict=True):
        assert np.array_equal(got, want)


def test_load_truncated_file(artifact, tmp_path):
    path = tmp_path / "model.json"
    tr.save_model(artifact, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match="not valid JSON"):
        tr.load_model(path)


def test_load_shape_mismatch(artifact, tmp_path):
    wrong_head = tr.model_to_dict(artifact)
    wrong_head["params"]["w_out"] = [[0.0, 1.0]]
    # blocks sized for hidden 8 under a config declaring 10**6: a loader that
    # sized its arrays from the config first would need terabytes
    huge_config = tr.model_to_dict(artifact)
    huge_config["config"]["hidden_dim"] = 10**6
    for doc in (wrong_head, huge_config):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"malformed model document: \w+ has shape"):
            tr.load_model(path)


def test_load_missing_key(artifact, tmp_path):
    doc = tr.model_to_dict(artifact)
    del doc["params"]["u_f"]
    cases = [(doc, "'u_f'")]
    # an integer field that is not integral is malformed, not truncated
    for field, value in (("lookback", 10.9), ("hidden_dim", True)):
        cases.append((tr.model_to_dict(artifact), f"{field} must be an integer"))
        cases[-1][0]["config"][field] = value
    # np.array would read "0.5" as 0.5 and true as 1.0
    for section, name, values in (("params", "b_i", ["0.5"] + [0.0] * 7),
                                  ("normalizer", "scale", ["1.0", True, 1])):
        cases.append((tr.model_to_dict(artifact), f"{name} must hold only numbers"))
        cases[-1][0][section][name] = values
    for doc, message in cases:
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"malformed model document: {message}"):
            tr.load_model(path)


def test_load_other_channel_count(artifact, tmp_path):
    # the network is 3-in/3-out; a file declaring another width is refused
    for field, value in (("input_dim", 2), ("output_dim", 4)):
        doc = tr.model_to_dict(artifact)
        doc["config"][field] = value
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field):
            tr.load_model(path)


def test_load_nonfinite_weights(artifact, tmp_path):
    for section, name in (("params", "b_i"), ("normalizer", "offset")):
        doc = tr.model_to_dict(artifact)
        doc[section][name][0] = float("nan")  # python json emits a NaN literal
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed model document: .*finite"):
            tr.load_model(path)


def test_negative_shuffle_seed_rejected():
    with pytest.raises(ValueError):
        small_config(shuffle_seed=-1)


def test_report_dict_timing_toggle():
    split, _ = small_split()
    _, report = tr.train(split, small_config(), seed=2)
    doc = asdict(report)
    assert "wall_time_seconds" not in doc
    assert doc["config"]["epochs"] == 2
