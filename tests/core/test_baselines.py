"""Tests for the Table 1 baselines."""

import numpy as np
import pytest

from repro.core.baselines import (
    delay_mse,
    evaluate_baselines,
    ewma_predictions,
    last_observed_predictions,
    mct_log_mse,
)
from repro.datasets.windows import WindowDataset


def synthetic_dataset(n=20, window=8):
    """Hand-built windows with known values: ``n`` back-to-back packet
    segments of ``window`` packets, one window ending on each segment's
    last packet."""
    rng = np.random.default_rng(0)
    shape = (n, window)
    delay = rng.uniform(0.01, 0.1, size=shape)
    mct = np.full(shape, np.nan)
    is_message_end = np.zeros(shape, dtype=bool)
    # Message ends at positions 2 and 5 with known MCTs.
    mct[:, 2] = 0.5
    is_message_end[:, 2] = True
    mct[:, 5] = 0.8
    is_message_end[:, 5] = True
    mct[:, -1] = 0.7  # the last packet's message: the MCT target
    columns = {
        "send_time": np.zeros(n * window),
        "size": np.zeros(n * window, dtype=np.int64),
        "delay": delay.ravel(),
        "receiver": np.zeros(n * window, dtype=np.int64),
        "mct": mct.ravel(),
        "is_message_end": is_message_end.ravel(),
        "message_size": np.full(n * window, 3000, dtype=np.int64),
    }
    starts = np.arange(n) * window
    return WindowDataset(columns, starts + window - 1, window, segments=starts)


class TestLastObserved:
    def test_delay_uses_second_to_last(self):
        ds = synthetic_dataset()
        predictions = last_observed_predictions(ds, "delay")
        assert np.allclose(predictions, ds.features[:, -2, 2])

    def test_mct_uses_latest_completed(self):
        ds = synthetic_dataset()
        predictions = last_observed_predictions(ds, "mct")
        assert np.allclose(predictions, 0.8)  # position 5 is latest

    def test_mct_fallback_to_median(self):
        ds = synthetic_dataset()
        ds.end_seq[:] = False  # no completed messages in any window
        predictions = last_observed_predictions(ds, "mct")
        finite = ds.mct_seq[np.isfinite(ds.mct_seq)]
        assert np.allclose(predictions, np.median(finite))

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            last_observed_predictions(synthetic_dataset(), "nonsense")


class TestEwma:
    def test_delay_alpha_one_equals_last_observed(self):
        ds = synthetic_dataset()
        assert np.allclose(
            ewma_predictions(ds, "delay", alpha=1.0),
            last_observed_predictions(ds, "delay"),
        )

    def test_delay_small_alpha_approaches_history_mean(self):
        ds = synthetic_dataset()
        ds.features[:, :, 2] = 0.05  # constant history
        assert np.allclose(ewma_predictions(ds, "delay", alpha=0.01), 0.05)

    def test_mct_combines_completions(self):
        ds = synthetic_dataset()
        predictions = ewma_predictions(ds, "mct", alpha=0.5)
        # EWMA over [0.5, 0.8] with alpha .5 → 0.65.
        assert np.allclose(predictions, 0.65)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ewma_predictions(synthetic_dataset(), "delay", alpha=0.0)


class TestMetrics:
    def test_delay_mse_perfect(self):
        ds = synthetic_dataset()
        assert delay_mse(ds.delay_target, ds) == 0.0

    def test_delay_mse_value(self):
        ds = synthetic_dataset()
        predictions = ds.delay_target + 0.01
        assert delay_mse(predictions, ds) == pytest.approx(1e-4)

    def test_mct_log_mse_perfect(self):
        ds = synthetic_dataset()
        assert mct_log_mse(ds.mct_target, ds) == pytest.approx(0.0)

    def test_mct_log_mse_skips_invalid_targets(self):
        ds = synthetic_dataset()
        ds.mct_target[0] = np.nan
        value = mct_log_mse(np.full(len(ds), 0.7), ds)
        assert np.isfinite(value)

    def test_mct_log_mse_floors_nonpositive_predictions(self):
        ds = synthetic_dataset()
        value = mct_log_mse(np.full(len(ds), -1.0), ds)
        assert np.isfinite(value)

    def test_mct_log_mse_all_invalid_raises(self):
        ds = synthetic_dataset()
        ds.mct_target[:] = np.nan
        with pytest.raises(ValueError):
            mct_log_mse(np.zeros(len(ds)), ds)


class TestEvaluateBaselines:
    def test_structure(self, smoke_bundle):
        results = evaluate_baselines(smoke_bundle.test)
        assert set(results) == {"last_observed", "ewma"}
        for row in results.values():
            assert row["delay_mse"] >= 0
            assert row["mct_log_mse"] >= 0

    def test_on_real_trace_last_observed_beats_ewma_for_delay(self, smoke_bundle):
        """Queueing delays are highly autocorrelated, so the last
        observation is a better predictor than a long average."""
        results = evaluate_baselines(smoke_bundle.test)
        assert results["last_observed"]["delay_mse"] <= results["ewma"]["delay_mse"]
