"""Applications: message senders and packet sinks.

The paper's senders "generate 1 Mbps of messages each, following
real-world traffic distributions" (§4).  :class:`MessageSource` draws
message sizes from a workload distribution, arrivals from a Poisson
process matched to the offered load, splits each message into MTU-sized
packets, and paces them onto the access link.  :class:`PacketSink`
records delivered packets into a :class:`~repro.netsim.trace.TraceCollector`.

Message ids are drawn from the *simulation* (``sim.next_message_id()``),
not from a process-global counter: a trace's ``message_id`` column must
depend only on the scenario being simulated, never on what else ran
earlier in the same process (a global counter leaked in-process run
order into cached traces).
"""

from __future__ import annotations

import numpy as np

from repro.netsim.core import Simulator
from repro.netsim.node import Node
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.trace import TraceCollector
from repro.netsim.units import MTU_BYTES
from repro.netsim.workloads import MessageSizeDistribution, PoissonArrivals

__all__ = ["MessageSource", "PacketSink"]


class PacketSink:
    """Receives packets on a host and records traced ones.

    One sink can serve many flows as the node's default handler
    (:meth:`install_default`).
    """

    __slots__ = ("sim", "node", "collector", "packets_received", "bytes_received", "messages_completed")

    def __init__(self, sim: Simulator, node: Node, collector: TraceCollector | None = None):
        self.sim = sim
        self.node = node
        self.collector = collector
        self.packets_received = 0
        self.bytes_received = 0
        self.messages_completed = 0

    def install_default(self) -> None:
        """Make this sink the node's fallback handler for all flows."""
        self.node.default_handler = self.on_packet

    def on_packet(self, packet: Packet) -> None:
        """Deliver callback invoked by the owning node."""
        self.packets_received += 1
        self.bytes_received += packet.size
        if packet.is_message_end:
            self.messages_completed += 1
        if self.collector is not None:
            self.collector.record(packet, self.sim._now)


class MessageSource:
    """Poisson message generator over a UDP-like transport.

    Each message is split into MTU-sized packets injected back-to-back;
    the sender's access link then paces them at its line rate, so bursts
    arrive at the bottleneck shaped exactly like ns-3's OnOff/bulk
    applications over a point-to-point access.

    Args:
        sim: the event loop.
        node: sending host.
        destinations: candidate receiver nodes.  Each message picks one
            uniformly at random (a single-element list reproduces the
            paper's case-1 setup; several elements reproduce case 2).
        flow_id: flow identifier stamped on every packet.
        offered_load_bps: long-run average sending rate.
        size_distribution: message-size workload.
        rng: random stream for arrivals, sizes and destination choice.
        start_time: when the application starts (the paper randomises
            application start times across runs).
        stop_time: last instant at which new messages may be generated.
        mtu_bytes: maximum packet payload size.
    """

    __slots__ = (
        "sim",
        "node",
        "destinations",
        "flow_id",
        "arrivals",
        "size_distribution",
        "rng",
        "start_time",
        "stop_time",
        "mtu_bytes",
        "messages_sent",
        "packets_sent",
        "bytes_sent",
        "_started",
    )

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        destinations: list[Node],
        flow_id: int,
        offered_load_bps: float,
        size_distribution: MessageSizeDistribution,
        rng: np.random.Generator,
        start_time: float = 0.0,
        stop_time: float | None = None,
        mtu_bytes: int = MTU_BYTES,
    ):
        if not destinations:
            raise ValueError("MessageSource needs at least one destination")
        if mtu_bytes < 64:
            raise ValueError(f"mtu must be at least 64 bytes, got {mtu_bytes}")
        self.sim = sim
        self.node = node
        self.destinations = list(destinations)
        self.flow_id = flow_id
        self.arrivals = PoissonArrivals(offered_load_bps, size_distribution)
        self.size_distribution = size_distribution
        self.rng = rng
        self.start_time = float(start_time)
        self.stop_time = stop_time
        self.mtu_bytes = int(mtu_bytes)
        self.messages_sent = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        self._started = False

    def start(self) -> None:
        """Arm the first message arrival."""
        if self._started:
            raise RuntimeError("MessageSource.start() called twice")
        self._started = True
        first_delay = self.start_time + self.arrivals.next_interarrival(self.rng)
        self.sim.schedule_at(max(first_delay, self.sim.now), self._on_arrival)

    def _on_arrival(self) -> None:
        if self.stop_time is not None and self.sim.now > self.stop_time:
            return
        self._send_message()
        self.sim.post(self.arrivals.next_interarrival(self.rng), self._on_arrival)

    def _send_message(self) -> None:
        message_size = self.size_distribution.sample(self.rng)
        destination = self.destinations[int(self.rng.integers(len(self.destinations)))]
        message_id = self.sim.next_message_id()
        self.messages_sent += 1
        remaining = message_size
        seq = 0
        node = self.node
        src_id = node.node_id
        dst_id = destination.node_id
        flow_id = self.flow_id
        mtu = self.mtu_bytes
        # Hoist the first-hop resolution out of the packet loop: every
        # packet of a message leaves through the same egress channel.
        channel = node.forwarding.get(dst_id)
        now = self.sim._now
        if message_size <= mtu and channel is not None:
            # Single-packet message (the workload's common case): skip
            # the burst machinery entirely.
            channel.send(
                Packet(
                    src=src_id,
                    dst=dst_id,
                    size=message_size,
                    flow_id=flow_id,
                    message_id=message_id,
                    kind=PacketKind.DATA,
                    send_time=now,
                    message_size=message_size,
                    is_message_end=True,
                    traced=True,
                )
            )
            node.packets_forwarded += 1
            self.packets_sent += 1
            self.bytes_sent += message_size
            return
        burst = []
        append = burst.append
        while remaining > 0:
            payload = min(remaining, mtu)
            remaining -= payload
            packet = Packet(
                src=src_id,
                dst=dst_id,
                size=payload,
                flow_id=flow_id,
                message_id=message_id,
                seq=seq,
                kind=PacketKind.DATA,
                send_time=now,
                message_size=message_size,
                is_message_end=(remaining == 0),
                traced=True,
            )
            append(packet)
            seq += 1
        if channel is not None:
            channel.send_burst(burst)
            node.packets_forwarded += seq
        else:
            for packet in burst:
                node.send(packet)
        self.packets_sent += seq
        self.bytes_sent += message_size
