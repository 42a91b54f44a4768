"""Sliding windows over packet traces.

Every training example is a window of ``window_len`` consecutive packets
ending at a "current" packet whose delay the model predicts (the paper's
pre-training task masks exactly that delay).  Windows never straddle
simulation runs.

Raw (unnormalised) feature columns, one row per packet:

0. ``rel_time`` — send time of the packet minus the send time of the
   window's last packet (non-positive; 0 for the last packet).  Using
   relative time keeps features stationary across a run.
1. ``size`` — packet size in bytes.
2. ``delay`` — end-to-end delay in seconds (the masked feature).

Receiver IDs ride in a parallel integer array; labels and message
metadata are per-window scalars about the *last* packet.  Two auxiliary
per-packet arrays (``mct_seq``, ``end_seq``) carry message-completion
information for the in-window baselines of Table 1.

With the default stride of 8 and windows of 512 packets, every packet
sits in 64 windows.  A :class:`WindowDataset` therefore holds each
packet once — per-packet columns plus the index of every window's last
packet — and gathers the per-window arrays above only when they are
first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.netsim.trace import Trace

__all__ = [
    "WindowConfig",
    "WindowDataset",
    "windows_from_trace",
    "RAW_FEATURES",
    "PACKET_COLUMNS",
]

#: Order of the continuous feature columns.
RAW_FEATURES = ("rel_time", "size", "delay")

#: The per-packet columns a :class:`WindowDataset` holds, with their
#: (trace) dtypes.  ``receiver`` is the trace's receiver id mapped to a
#: contiguous embedding index.
PACKET_COLUMNS = {
    "send_time": np.dtype(np.float64),
    "size": np.dtype(np.int64),
    "delay": np.dtype(np.float64),
    "receiver": np.dtype(np.int64),
    "mct": np.dtype(np.float64),
    "is_message_end": np.dtype(bool),
    "message_size": np.dtype(np.int64),
}


@dataclass(frozen=True)
class WindowConfig:
    """Windowing parameters.

    Args:
        window_len: packets per window (the paper uses 1024; the scaled
            default is 512).
        stride: spacing between consecutive window ends.  A stride above
            1 decorrelates examples and shrinks datasets to trainable
            sizes.
    """

    window_len: int = 512
    stride: int = 8

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError(f"window_len must be at least 2, got {self.window_len}")
        if self.stride < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")


class WindowDataset:
    """Windows over packet columns.

    The dataset holds one row per packet and one index per window: no
    packet is stored once per window it appears in.

    Args:
        columns: the :data:`PACKET_COLUMNS`, 1-D and of equal length.
            They may hold several segments (simulation runs, or splits of
            runs) back to back.
        ends: int64 index, into the columns, of each window's last
            packet.  Window ``i`` covers packets
            ``ends[i] - window_len + 1 .. ends[i]``.
        window_len: packets per window.
        segments: sorted start index of every segment (default: one
            segment starting at 0).  A window never reaches before the
            start of the segment holding its last packet.

    The per-window arrays are derived from the columns on first access,
    once per object:

    * ``features``: float64 ``(n, window_len, 3)`` raw feature columns.
    * ``receiver``: int64 ``(n, window_len)`` receiver ids (contiguous
      indices into the model's embedding table).
    * ``delay_target``: float64 ``(n,)`` true delay of each window's last
      packet, seconds.
    * ``mct_target``: float64 ``(n,)`` completion time of the last
      packet's message, seconds (``nan`` when unknown).
    * ``message_size``: float64 ``(n,)`` size of that message, bytes.
    * ``mct_seq``: float64 ``(n, window_len)`` per-packet message
      completion times (``nan`` when unknown).
    * ``end_seq``: bool ``(n, window_len)`` True where a packet ends its
      message.
    """

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        ends: np.ndarray,
        window_len: int,
        segments: np.ndarray | None = None,
    ):
        missing = set(PACKET_COLUMNS) - set(columns)
        if missing:
            raise ValueError(f"missing packet columns {sorted(missing)}")
        self.columns = {
            name: np.asarray(columns[name], dtype=dtype)
            for name, dtype in PACKET_COLUMNS.items()
        }
        lengths = {column.shape for column in self.columns.values()}
        if len(lengths) != 1 or len(next(iter(lengths))) != 1:
            raise ValueError(f"packet columns must be 1-D of one length, got {lengths}")
        if int(window_len) < 1:
            raise ValueError(f"window_len must be positive, got {window_len}")
        self.window_len = int(window_len)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.segments = np.asarray(
            [0] if segments is None else segments, dtype=np.int64
        )
        self._validate()

    def _validate(self) -> None:
        n_packets = len(self.columns["send_time"])
        segments, ends = self.segments, self.ends
        if (
            segments.ndim != 1
            or not len(segments)
            or segments[0] != 0
            or np.any(np.diff(segments) <= 0)
            or segments[-1] >= max(n_packets, 1)
        ):
            raise ValueError(f"segments must rise from 0 within {n_packets} packets")
        if ends.ndim != 1:
            raise ValueError(f"ends must be 1-D, got shape {ends.shape}")
        if not len(ends):
            return
        if ends.min() < 0 or ends.max() >= n_packets:
            raise ValueError(f"window end out of range for {n_packets} packets")
        starts = segments[np.searchsorted(segments, ends, side="right") - 1]
        if np.any(ends - (self.window_len - 1) < starts):
            raise ValueError("a window reaches before the start of its segment")

    def __len__(self) -> int:
        return len(self.ends)

    # -- derived per-window arrays ------------------------------------------------

    def _windows(self, name: str) -> np.ndarray:
        """``(n, window_len)`` copy of one packet column, one row per
        window."""
        column = self.columns[name]
        if not len(self.ends):
            return np.empty((0, self.window_len), dtype=column.dtype)
        sliding = np.lib.stride_tricks.sliding_window_view(column, self.window_len)
        return sliding[self.ends - (self.window_len - 1)]

    def _at_ends(self, name: str) -> np.ndarray:
        """float64 ``(n,)`` value of one packet column at each window end."""
        return self.columns[name][self.ends].astype(np.float64)

    @cached_property
    def features(self) -> np.ndarray:
        features = np.empty((len(self), self.window_len, len(RAW_FEATURES)), dtype=np.float64)
        send = self._windows("send_time")
        features[:, :, 0] = send
        features[:, :, 0] -= send[:, -1:]
        features[:, :, 1] = self._windows("size")
        features[:, :, 2] = self._windows("delay")
        return features

    @cached_property
    def receiver(self) -> np.ndarray:
        return self._windows("receiver")

    @cached_property
    def mct_seq(self) -> np.ndarray:
        return self._windows("mct")

    @cached_property
    def end_seq(self) -> np.ndarray:
        return self._windows("is_message_end")

    @cached_property
    def delay_target(self) -> np.ndarray:
        return self._at_ends("delay")

    @cached_property
    def mct_target(self) -> np.ndarray:
        return self._at_ends("mct")

    @cached_property
    def message_size(self) -> np.ndarray:
        return self._at_ends("message_size")

    # -- window selection ---------------------------------------------------------

    def subset(self, indices) -> "WindowDataset":
        """Select windows by integer index array, boolean mask or slice;
        the packet columns are shared, not copied."""
        return WindowDataset(self.columns, self.ends[indices], self.window_len, self.segments)

    def sample_fraction(self, fraction: float, rng: np.random.Generator) -> "WindowDataset":
        """Uniformly subsample a fraction of windows (the paper's "10%"
        fine-tuning datasets)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        count = max(1, int(round(len(self) * fraction)))
        indices = rng.choice(len(self), size=count, replace=False)
        indices.sort()
        return self.subset(indices)

    def with_completed_messages_only(self) -> "WindowDataset":
        """Drop windows whose MCT label is unknown (message truncated by
        the end of the simulation)."""
        mask = np.isfinite(self.mct_target) & (self.mct_target > 0)
        return self.subset(mask)

    def _spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The packet spans the windows read: per segment holding a
        window, its first and one-past-last packet read, plus the span
        index of every window."""
        segment = np.searchsorted(self.segments, self.ends, side="right") - 1
        used, span = np.unique(segment, return_inverse=True)
        lo = np.full(len(used), np.iinfo(np.int64).max, dtype=np.int64)
        hi = np.zeros(len(used), dtype=np.int64)
        np.minimum.at(lo, span, self.ends - (self.window_len - 1))
        np.maximum.at(hi, span, self.ends + 1)
        return lo, hi, span

    @staticmethod
    def concatenate(datasets: list["WindowDataset"]) -> "WindowDataset":
        """Concatenate windows from several datasets (runs or splits).

        Each input contributes only the packet spans its windows read,
        each as a segment of its own, so windows never straddle inputs
        and no window is copied.  ``concatenate([dataset])`` is
        ``dataset`` holding just the packets its windows read.
        """
        if not datasets:
            raise ValueError("need at least one dataset to concatenate")
        window_len = datasets[0].window_len
        if any(dataset.window_len != window_len for dataset in datasets):
            raise ValueError("cannot concatenate windows of different lengths")
        packets, ends, segments = [], [], []
        offset = 0
        for dataset in datasets:
            lo, hi, span = dataset._spans()
            starts = offset + np.cumsum(hi - lo) - (hi - lo)
            packets.append((dataset, lo, hi))
            ends.append(dataset.ends + (starts - lo)[span])
            segments.append(starts)
            offset += int((hi - lo).sum())
        columns = {}
        for name, dtype in PACKET_COLUMNS.items():
            pieces = [
                dataset.columns[name][a:b]
                for dataset, lo, hi in packets
                for a, b in zip(lo.tolist(), hi.tolist())
            ]
            columns[name] = np.concatenate(pieces) if pieces else np.empty(0, dtype=dtype)
        segments = np.concatenate(segments)
        return WindowDataset(
            columns,
            np.concatenate(ends),
            window_len,
            segments if len(segments) else None,
        )


def windows_from_trace(
    trace: Trace,
    config: WindowConfig,
    receiver_index: dict[int, int],
) -> WindowDataset:
    """Window one trace: its packet columns plus every ``stride``-th
    window end, starting with the first full window.

    ``receiver_index`` maps raw receiver node ids to contiguous embedding
    indices; it must be shared across *all* traces of an experiment so a
    given receiver keeps its identity between pre-training and
    fine-tuning.
    """
    n_packets = len(trace)
    window_len = config.window_len
    if n_packets < window_len:
        empty = {name: np.empty(0, dtype=dtype) for name, dtype in PACKET_COLUMNS.items()}
        return WindowDataset(empty, np.empty(0, dtype=np.int64), window_len)
    # Vectorised receiver-id remapping: look raw ids up in the sorted
    # key table (every id is guaranteed present in ``receiver_index``).
    keys = np.fromiter(receiver_index.keys(), dtype=np.int64, count=len(receiver_index))
    values = np.fromiter(
        receiver_index.values(), dtype=np.int64, count=len(receiver_index)
    )
    key_order = np.argsort(keys)
    sorted_keys = keys[key_order]
    raw_ids = trace.receiver_id.astype(np.int64)
    if not len(sorted_keys):
        raise KeyError(int(raw_ids[0]))
    positions = np.searchsorted(sorted_keys, raw_ids).clip(0, len(sorted_keys) - 1)
    unknown = sorted_keys[positions] != raw_ids
    if unknown.any():
        raise KeyError(int(raw_ids[unknown][0]))
    columns = {
        "send_time": trace.send_time,
        "size": trace.size,
        "delay": trace.delay,
        "receiver": values[key_order][positions],
        "mct": trace.mct,
        "is_message_end": trace.is_message_end,
        "message_size": trace.message_size,
    }
    ends = np.arange(window_len - 1, n_packets, config.stride, dtype=np.int64)
    return WindowDataset(columns, ends, window_len)
