"""End-to-end dataset generation: scenario → traces → windows → splits.

This is the paper's "Datasets" paragraph (§4) as code: one pre-training
dataset, fine-tuning datasets for case 1 / case 2, each with a full and
a "smaller" (~10%) variant, and a held-out test fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.splits import temporal_split
from repro.datasets.windows import WindowConfig, WindowDataset, windows_from_trace
from repro.netsim.scenarios import ScenarioConfig, generate_traces
from repro.netsim.trace import Trace
from repro.utils.rng import RngFactory

__all__ = ["DatasetBundle", "generate_dataset", "build_receiver_index"]


@dataclass
class DatasetBundle:
    """A windowed dataset with its splits and provenance.

    Each split holds only the packets its own windows read (see
    :meth:`WindowDataset.concatenate`), so the three splits together
    hold each simulated packet about once.
    """

    name: str
    train: WindowDataset
    val: WindowDataset
    test: WindowDataset
    receiver_index: dict[int, int]
    scenario: ScenarioConfig
    window_config: WindowConfig
    n_packets: int

    @property
    def n_windows(self) -> int:
        return len(self.train) + len(self.val) + len(self.test)

    def small_fraction(self, fraction: float = 0.1, seed: int = 0) -> "DatasetBundle":
        """The paper's "smaller dataset containing about 10% of the
        packets": subsample the train/val splits, keep the full test set
        so metrics stay comparable."""
        rng = RngFactory(seed).derive(f"{self.name}-fraction{fraction}")
        return DatasetBundle(
            name=f"{self.name}-{int(fraction * 100)}pct",
            train=self.train.sample_fraction(fraction, rng),
            val=self.val.sample_fraction(fraction, rng),
            test=self.test,
            receiver_index=self.receiver_index,
            scenario=self.scenario,
            window_config=self.window_config,
            n_packets=int(self.n_packets * fraction),
        )


def build_receiver_index(traces: list[Trace], existing: dict[int, int] | None = None) -> dict[int, int]:
    """Map raw receiver node ids to contiguous embedding indices.

    Pass the pre-training index as ``existing`` when indexing
    fine-tuning traces so shared receivers keep their ids and new
    receivers get fresh slots.
    """
    index = dict(existing) if existing else {}
    for trace in traces:
        # np.unique is both the sort and the dedup — no per-packet
        # Python loop over the receiver column.
        for receiver in np.unique(trace.receiver_id).tolist():
            if receiver not in index:
                index[receiver] = len(index)
    return index


def generate_dataset(
    scenario: ScenarioConfig,
    window_config: WindowConfig | None = None,
    n_runs: int = 2,
    name: str | None = None,
    receiver_index: dict[int, int] | None = None,
    train_fraction: float = 0.8,
    val_fraction: float = 0.1,
    traces: list[Trace] | None = None,
) -> DatasetBundle:
    """Simulate ``n_runs`` runs of ``scenario`` and window the traces.

    Each run is windowed independently (windows never cross runs) and
    split temporally; the per-run splits are then concatenated so every
    run contributes to train, val and test alike.  No window is
    materialized here: the splits hold packet columns plus window ends.

    ``traces`` short-circuits the simulation with pre-generated runs
    (e.g. served from the artifact store); they must come from the same
    scenario config, which stays the bundle's recorded provenance.
    """
    window_config = window_config if window_config is not None else WindowConfig()
    if traces is None:
        traces = generate_traces(scenario, n_runs=n_runs)
    elif len(traces) != n_runs:
        raise ValueError(f"expected {n_runs} traces, got {len(traces)}")
    index = build_receiver_index(traces, existing=receiver_index)
    trains, vals, tests = [], [], []
    n_packets = 0
    for trace in traces:
        n_packets += len(trace)
        windows = windows_from_trace(trace, window_config, index)
        if len(windows) < 3:
            continue
        train, val, test = temporal_split(windows, train_fraction, val_fraction)
        trains.append(train)
        vals.append(val)
        tests.append(test)
    if not trains:
        raise ValueError(
            "scenario produced too few packets for even one window; "
            "increase duration or lower window_len"
        )
    return DatasetBundle(
        name=name if name is not None else scenario.kind,
        train=WindowDataset.concatenate(trains),
        val=WindowDataset.concatenate(vals),
        test=WindowDataset.concatenate(tests),
        receiver_index=index,
        scenario=scenario,
        window_config=window_config,
        n_packets=n_packets,
    )
