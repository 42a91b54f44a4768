"""Packet traces: what the simulator produces and the NTT consumes.

A trace is the list of *delivered, traced* packets with the four raw
features the paper uses (§3): timestamp, packet size, receiver ID and
end-to-end delay — plus the message bookkeeping needed for the MCT
fine-tuning task.

Collection is columnar: :class:`TraceCollector` writes each delivered
packet straight into preallocated, geometrically-grown numpy column
buffers, so finalizing a trace is a trim + one stable ``lexsort``
instead of materialising (and later re-walking) a Python object per
packet.  The pre-columnar collector survives as
:class:`repro.netsim.reference.ReferenceTraceCollector` for golden
equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netsim.packet import Packet

__all__ = ["PacketRecord", "TraceCollector", "Trace"]

#: Initial per-column capacity of a collector (doubles when full).
_INITIAL_CAPACITY = 1024


@dataclass(slots=True)
class PacketRecord:
    """One delivered packet, as seen by the dataset pipeline."""

    send_time: float
    recv_time: float
    size: int
    receiver_id: int
    flow_id: int
    message_id: int
    message_size: int
    is_message_end: bool

    @property
    def delay(self) -> float:
        """End-to-end delay in seconds."""
        return self.recv_time - self.send_time


class TraceCollector:
    """Accumulates delivered packets into columnar numpy buffers."""

    __slots__ = (
        "_n",
        "_capacity",
        "_send_time",
        "_recv_time",
        "_size",
        "_receiver_id",
        "_flow_id",
        "_message_id",
        "_message_size",
        "_is_message_end",
    )

    def __init__(self):
        self._n = 0
        self._capacity = _INITIAL_CAPACITY
        self._send_time = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._recv_time = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._size = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._receiver_id = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._flow_id = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._message_id = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._message_size = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._is_message_end = np.empty(_INITIAL_CAPACITY, dtype=bool)

    def __len__(self) -> int:
        return self._n

    def _grow(self) -> None:
        capacity = self._capacity * 2
        for name in (
            "_send_time",
            "_recv_time",
            "_size",
            "_receiver_id",
            "_flow_id",
            "_message_id",
            "_message_size",
            "_is_message_end",
        ):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._n] = old
            setattr(self, name, grown)
        self._capacity = capacity

    def record(self, packet: Packet, recv_time: float) -> None:
        """Record a delivered packet (ignores packets marked untraced)."""
        if not packet.traced:
            return
        index = self._n
        if index == self._capacity:
            self._grow()
        self._send_time[index] = packet.send_time
        self._recv_time[index] = recv_time
        self._size[index] = packet.size
        self._receiver_id[index] = packet.dst
        self._flow_id[index] = packet.flow_id
        self._message_id[index] = packet.message_id
        self._message_size[index] = packet.message_size
        self._is_message_end[index] = packet.is_message_end
        self._n = index + 1

    def finalize(self) -> "Trace":
        """Sort by ``(send_time, message_id)`` and build the
        array-backed :class:`Trace` from trimmed column views.

        ``np.lexsort`` is stable, so ties beyond the sort key keep
        arrival order — the same total order the reference collector's
        ``sorted(records, key=...)`` produces.
        """
        n = self._n
        send_time = self._send_time[:n]
        message_id = self._message_id[:n]
        order = np.lexsort((message_id, send_time))
        return Trace(
            send_time=send_time[order],
            recv_time=self._recv_time[:n][order],
            size=self._size[:n][order],
            receiver_id=self._receiver_id[:n][order],
            flow_id=self._flow_id[:n][order],
            message_id=message_id[order],
            message_size=self._message_size[:n][order],
            is_message_end=self._is_message_end[:n][order],
        )


class Trace:
    """Array-backed packet trace.

    Columns (aligned numpy arrays of equal length):

    * ``send_time`` / ``recv_time`` — seconds.
    * ``size`` — bytes.
    * ``receiver_id`` — destination node id (the paper's "receiver ID",
      an IP-address proxy).
    * ``flow_id`` / ``message_id`` / ``message_size`` / ``is_message_end``.
    * ``mct`` — completion time of the packet's message (seconds),
      ``nan`` for packets whose message never completed (tail drop).
    """

    def __init__(self, **columns: np.ndarray):
        required = [
            "send_time",
            "recv_time",
            "size",
            "receiver_id",
            "flow_id",
            "message_id",
            "message_size",
            "is_message_end",
        ]
        lengths = set()
        for name in required:
            if name not in columns:
                raise ValueError(f"missing trace column {name!r}")
            lengths.add(len(columns[name]))
        if len(lengths) > 1:
            raise ValueError(f"trace columns have inconsistent lengths: {lengths}")
        self.send_time = np.asarray(columns["send_time"], dtype=np.float64)
        self.recv_time = np.asarray(columns["recv_time"], dtype=np.float64)
        self.size = np.asarray(columns["size"], dtype=np.int64)
        self.receiver_id = np.asarray(columns["receiver_id"], dtype=np.int64)
        self.flow_id = np.asarray(columns["flow_id"], dtype=np.int64)
        self.message_id = np.asarray(columns["message_id"], dtype=np.int64)
        self.message_size = np.asarray(columns["message_size"], dtype=np.int64)
        self.is_message_end = np.asarray(columns["is_message_end"], dtype=bool)
        self.mct = columns.get("mct")
        if self.mct is None:
            self.mct = self._compute_mct()
        else:
            self.mct = np.asarray(self.mct, dtype=np.float64)

    @classmethod
    def from_records(cls, records: list[PacketRecord]) -> "Trace":
        """Build a trace from a list of records (assumed pre-sorted)."""
        return cls(
            send_time=np.array([r.send_time for r in records], dtype=np.float64),
            recv_time=np.array([r.recv_time for r in records], dtype=np.float64),
            size=np.array([r.size for r in records], dtype=np.int64),
            receiver_id=np.array([r.receiver_id for r in records], dtype=np.int64),
            flow_id=np.array([r.flow_id for r in records], dtype=np.int64),
            message_id=np.array([r.message_id for r in records], dtype=np.int64),
            message_size=np.array([r.message_size for r in records], dtype=np.int64),
            is_message_end=np.array([r.is_message_end for r in records], dtype=bool),
        )

    def __len__(self) -> int:
        return int(self.send_time.size)

    @property
    def delay(self) -> np.ndarray:
        """Per-packet end-to-end delay in seconds."""
        return self.recv_time - self.send_time

    def _compute_mct(self) -> np.ndarray:
        """Message completion time per packet.

        The MCT of a message is the time from its first packet's send to
        its *last delivered* packet's receive — "the time until the final
        packet of a message is delivered" (§4).  Messages whose final
        packet was dropped get the completion time of their last
        delivered packet; this mirrors measuring MCT on the receiver-side
        trace.

        Vectorised: group by message id, reduce with exact float
        min/max, broadcast back — identical results to the per-packet
        loop it replaced (min/max introduce no rounding).
        """
        if len(self) == 0:
            return np.zeros(0, dtype=np.float64)
        _, inverse = np.unique(self.message_id, return_inverse=True)
        n_messages = int(inverse.max()) + 1
        starts = np.full(n_messages, np.inf, dtype=np.float64)
        ends = np.full(n_messages, -np.inf, dtype=np.float64)
        np.minimum.at(starts, inverse, self.send_time)
        np.maximum.at(ends, inverse, self.recv_time)
        return ends[inverse] - starts[inverse]

    def subset(self, mask: np.ndarray) -> "Trace":
        """Return a trace restricted to packets where ``mask`` is True."""
        return Trace(
            send_time=self.send_time[mask],
            recv_time=self.recv_time[mask],
            size=self.size[mask],
            receiver_id=self.receiver_id[mask],
            flow_id=self.flow_id[mask],
            message_id=self.message_id[mask],
            message_size=self.message_size[mask],
            is_message_end=self.is_message_end[mask],
            mct=self.mct[mask],
        )

    def save(self, path) -> None:
        """Serialize to an ``.npz`` file (a path or an open binary handle)."""
        np.savez_compressed(
            path,
            send_time=self.send_time,
            recv_time=self.recv_time,
            size=self.size,
            receiver_id=self.receiver_id,
            flow_id=self.flow_id,
            message_id=self.message_id,
            message_size=self.message_size,
            is_message_end=self.is_message_end,
            mct=self.mct,
        )

    @classmethod
    def load(cls, path) -> "Trace":
        """Load a trace previously stored with :meth:`save`."""
        with np.load(path) as data:
            return cls(**{key: data[key] for key in data.files})
