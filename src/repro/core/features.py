"""Feature selection and normalisation for the NTT.

The proof-of-concept NTT uses minimal information per packet (§3):
timestamp, packet size, receiver ID and end-to-end delay.  The paper's
ablations drop individual features ("without packet size", "without
delay", and case 2's "without addressing information"); a
:class:`FeatureSpec` expresses those variants.

:class:`FeaturePipeline` owns the scalers.  Statistics come from the
pre-training split and are reused during fine-tuning — a fine-tuned
encoder expects inputs on the scale it was pre-trained with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.normalize import FeatureScaler
from repro.datasets.windows import RAW_FEATURES, WindowDataset

__all__ = ["FeatureSpec", "FeaturePipeline", "DELAY_COLUMN"]

#: Index of the delay column in the raw feature layout.
DELAY_COLUMN = RAW_FEATURES.index("delay")


@dataclass(frozen=True)
class FeatureSpec:
    """Which raw inputs the model sees.

    The full NTT uses everything; ablations switch individual inputs
    off.  ``use_time`` is kept for completeness (no paper ablation).
    """

    use_time: bool = True
    use_size: bool = True
    use_delay: bool = True
    use_receiver: bool = True

    @property
    def continuous_columns(self) -> tuple[int, ...]:
        """Indices into the raw feature columns this spec keeps."""
        columns = []
        if self.use_time:
            columns.append(RAW_FEATURES.index("rel_time"))
        if self.use_size:
            columns.append(RAW_FEATURES.index("size"))
        if self.use_delay:
            columns.append(RAW_FEATURES.index("delay"))
        if not columns:
            raise ValueError("FeatureSpec keeps no continuous features at all")
        return tuple(columns)

    @property
    def n_continuous(self) -> int:
        return len(self.continuous_columns)

    @property
    def delay_position(self) -> int | None:
        """Position of the delay column within the *selected* features,
        or None when delay is ablated."""
        if not self.use_delay:
            return None
        return self.continuous_columns.index(DELAY_COLUMN)

    @classmethod
    def full(cls) -> "FeatureSpec":
        return cls()

    @classmethod
    def without_size(cls) -> "FeatureSpec":
        """Table 1 ablation: "Without packet size"."""
        return cls(use_size=False)

    @classmethod
    def without_delay(cls) -> "FeatureSpec":
        """Table 1 ablation: "Without delay"."""
        return cls(use_delay=False)

    @classmethod
    def without_receiver(cls) -> "FeatureSpec":
        """Case 2 ablation: "Without addressing information"."""
        return cls(use_receiver=False)


class FeaturePipeline:
    """Normalises window datasets into model-ready arrays.

    Call :meth:`fit` once on the pre-training split, then
    :meth:`transform` on any dataset.  Targets:

    * delay — z-scored with the *feature* delay statistics, so the MSE
      converts back to seconds² by multiplying with ``delay_std ** 2``.
    * MCT — natural log, then z-scored with statistics fitted on the
      first fine-tuning dataset seen ("processed on a logarithmic scale
      to limit the impact of outliers", §4).
    """

    def __init__(self):
        self.feature_scaler = FeatureScaler()
        self.mct_scaler = FeatureScaler()
        self.message_size_scaler = FeatureScaler()

    # -- fitting -----------------------------------------------------------

    def fit(self, dataset: WindowDataset) -> "FeaturePipeline":
        """Fit feature statistics (pre-training data)."""
        self.feature_scaler.fit(dataset.features)
        sizes = dataset.message_size[dataset.message_size > 0]
        if sizes.size == 0:
            raise ValueError("dataset has no message sizes to fit on")
        self.message_size_scaler.fit(np.log(sizes)[:, None])
        return self

    def fit_mct(self, dataset: WindowDataset) -> "FeaturePipeline":
        """Fit the MCT target scaler (first fine-tuning dataset)."""
        valid = dataset.mct_target[np.isfinite(dataset.mct_target) & (dataset.mct_target > 0)]
        if valid.size == 0:
            raise ValueError("dataset has no completed messages to fit the MCT scaler")
        self.mct_scaler.fit(np.log(valid)[:, None])
        return self

    # -- conversions -----------------------------------------------------------

    @property
    def delay_std(self) -> float:
        """Std of raw delays (seconds); converts normalised MSE to s²."""
        return float(self.feature_scaler.std[DELAY_COLUMN])

    def transform_features(self, dataset: WindowDataset) -> np.ndarray:
        """Normalised continuous features, shape ``(n, window, 3)``.

        All three columns are produced; the model selects those its
        :class:`FeatureSpec` keeps.
        """
        return self.feature_scaler.transform(dataset.features)

    def transform_delay_target(self, dataset: WindowDataset) -> np.ndarray:
        """Normalised delay targets, shape ``(n,)``."""
        mean = self.feature_scaler.mean[DELAY_COLUMN]
        return (dataset.delay_target - mean) / self.delay_std

    def transform_mct_target(self, dataset: WindowDataset) -> np.ndarray:
        """Normalised log-MCT targets (requires completed messages)."""
        mct = dataset.mct_target
        if np.any(~np.isfinite(mct)) or np.any(mct <= 0):
            raise ValueError(
                "MCT targets contain incomplete messages; call "
                "dataset.with_completed_messages_only() first"
            )
        return self.mct_scaler.transform(np.log(mct)[:, None])[:, 0]

    def transform_message_size(self, dataset: WindowDataset) -> np.ndarray:
        """Normalised log message sizes, shape ``(n,)``."""
        sizes = np.maximum(dataset.message_size, 1.0)
        return self.message_size_scaler.transform(np.log(sizes)[:, None])[:, 0]

    # -- unit conversion for reporting ------------------------------------------

    def delay_mse_to_seconds2(self, normalised_mse: float) -> float:
        """Normalised-unit delay MSE → seconds²."""
        return float(normalised_mse) * self.delay_std**2
