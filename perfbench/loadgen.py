"""Open-loop HTTP load generator for ``repro serve``.

Requests arrive on a seeded Poisson schedule that steps through a fixed
ladder of rates.  The schedule does not wait for answers (open loop):
a request that finds both keep-alive connections busy queues in the
client, and its latency is timed from when it was *due*, so a stall in
the server shows as latency of every request behind it.  ``lag`` is how
late the generator itself dispatched a request after its due time; when
it is large the run measured the generator, not the server.

The ladder is followed by closed-loop bursts of a fixed number of
requests, whose duration is the server's throughput on fixed work.

Request bodies are serialized before the schedule starts.  A request
fails when it gets a non-200 answer, no answer within ``TIMEOUT_S`` of
its due time, a connection error, or (checked afterwards by the caller)
a wrong prediction.  A failed request counts as over any latency limit.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import statistics
import time
from dataclasses import dataclass

from perfbench.spans import percentile

#: p99 latency limit of the serving workload.
LATENCY_LIMIT_MS = 25.0

#: Keep-alive connections the generator spreads requests over.
CONNECTIONS = 2

#: A request unanswered this long after its due time has failed.
TIMEOUT_S = 2.0

#: After the ladder, ``BURSTS`` closed-loop bursts of ``BURST_REQUESTS``
#: requests each: every connection sends its next request as soon as
#: the previous one is answered, so a burst's duration is the server's
#: time to drain fixed work (about 2 s at the two-connection capacity).
BURSTS = 3
BURST_REQUESTS = 600


@dataclass(frozen=True)
class Rung:
    """One step of the ladder: Poisson arrivals at ``rate`` per second
    for ``share`` of the run's seconds."""

    name: str
    rate: float
    share: float


#: From light load (nothing to batch) to past the two-connection
#: capacity (about 250 requests/s on a 2-core x86 host).  ``heavy`` sits
#: below the knee; it runs as three segments between the other rungs,
#: each about 800 requests at 25 s runs (so a segment's p99 has about
#: eight samples beyond it), and is reported as the median segment,
#: which a burst of outside load during one segment does not move.
LADDER = (
    Rung("light", 20.0, 0.15),
    Rung("heavy", 150.0, 0.22),
    Rung("r200", 200.0, 0.07),
    Rung("heavy", 150.0, 0.22),
    Rung("r250", 250.0, 0.06),
    Rung("heavy", 150.0, 0.22),
    Rung("r300", 300.0, 0.06),
)


def arrival_schedule(seed: int, seconds: float, n_windows: int):
    """Per ladder step, the ``(due offset s, window index)`` of every
    request.

    Offsets are relative to the step's start; the same seed gives the
    same schedule.
    """
    rng = random.Random(seed)
    schedule = []
    for rung in LADDER:
        span = rung.share * seconds
        requests = []
        offset = rng.expovariate(rung.rate)
        while offset < span:
            requests.append((offset, rng.randrange(n_windows)))
            offset += rng.expovariate(rung.rate)
        schedule.append(requests)
    return schedule


@dataclass
class Request:
    step: int  # index into the ladder; len(LADDER) + b for burst b
    window: int
    due: float = 0.0
    dispatched: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    status: int = 0  # 0: no HTTP answer (timeout or connection error)
    served_ms: float = 0.0
    prediction: float | None = None
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return (
            self.status == 200 and not self.wrong
            and self.received - self.due <= TIMEOUT_S
        )

    @property
    def latency_ms(self) -> float:
        """Due → answer; a failed request reads as the timeout."""
        return (self.received - self.due) * 1e3 if self.ok else TIMEOUT_S * 1e3


def request_bytes(host: str, body: bytes) -> bytes:
    return (
        f"POST /predict HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


async def _read_response(reader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length) if length else b""


class _Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.reader = self.writer = None


async def _sender(connection: _Connection, queue: asyncio.Queue, payloads, closed_loop) -> None:
    """Send queued requests one at a time; in a closed loop a request is
    due when the connection is free for it."""
    while True:
        request = await queue.get()
        if request is None:
            return
        request.sent = time.perf_counter()
        if closed_loop:
            request.due = request.dispatched = request.sent
        remaining = request.due + TIMEOUT_S - request.sent
        if remaining <= 0:
            request.received = request.sent  # timed out waiting for a connection
            continue
        try:
            if connection.writer is None:
                await connection.open()
            connection.writer.write(payloads[request.window])
            await connection.writer.drain()
            status, body = await asyncio.wait_for(
                _read_response(connection.reader), remaining
            )
        except (asyncio.TimeoutError, ConnectionError, OSError, asyncio.IncompleteReadError):
            request.received = time.perf_counter()
            await connection.close()  # a late answer must not reach the next request
            continue
        request.received = time.perf_counter()
        request.status = status
        if status == 200:
            document = json.loads(body)
            request.prediction = document["predictions"][0]
            request.served_ms = document["served_ms"]


async def _drive(host, port, payloads, schedule) -> list[Request]:
    connections = [_Connection(host, port) for _ in range(CONNECTIONS)]
    for connection in connections:
        await connection.open()

    def start(queue, closed_loop):
        return [
            asyncio.create_task(_sender(connection, queue, payloads, closed_loop))
            for connection in connections
        ]

    async def drain(queue, senders):
        for _ in senders:
            queue.put_nowait(None)
        await asyncio.gather(*senders)

    requests = []
    try:
        for step, step_requests in enumerate(schedule):
            queue: asyncio.Queue = asyncio.Queue()
            senders = start(queue, closed_loop=False)
            begin = time.perf_counter() + 0.005
            for offset, window in step_requests:
                request = Request(step, window, due=begin + offset)
                delay = request.due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                request.dispatched = time.perf_counter()
                queue.put_nowait(request)
                requests.append(request)
            await drain(queue, senders)  # drain before the next step
        for burst in range(BURSTS):
            queue = asyncio.Queue()
            for index in range(BURST_REQUESTS):
                request = Request(len(schedule) + burst, index % len(payloads))
                queue.put_nowait(request)
                requests.append(request)
            await drain(queue, start(queue, closed_loop=True))
    finally:
        for connection in connections:
            await connection.close()
    return requests


def run_load(host: str, port: int, payloads: list[bytes], schedule) -> list[Request]:
    """Drive the open-loop schedule, then the closed-loop bursts;
    ``payloads[i]`` is the full HTTP request for window i.

    The collector is frozen and paused meanwhile, so a collection in the
    generator cannot delay sends or reads.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        return asyncio.run(_drive(host, port, payloads, schedule))
    finally:
        gc.enable()
        gc.unfreeze()


def in_ladder(request: Request) -> bool:
    return request.step < len(LADDER)


def burst_seconds(requests: list[Request]) -> list[float]:
    """First send → last answer of each closed-loop burst."""
    walls = []
    for burst in range(BURSTS):
        mine = [request for request in requests if request.step == len(LADDER) + burst]
        walls.append(max(r.received for r in mine) - min(r.sent for r in mine))
    return walls


def summarise(requests: list[Request]) -> dict:
    """Counts, latency percentiles and whether one ladder step met the
    limit.

    The backlog grows when the last tenth of the step (by due time)
    has a median latency above the limit.
    """
    latencies = [request.latency_ms for request in requests]
    ordered = sorted(requests, key=lambda request: request.due)
    tail = [request.latency_ms for request in ordered[-max(1, len(ordered) // 10):]]
    failed = sum(not request.ok for request in requests)
    p99 = percentile(latencies, 99)
    growing = percentile(tail, 50) > LATENCY_LIMIT_MS
    return {
        "sent": len(requests),
        "succeeded": len(requests) - failed,
        "failed": failed,
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "p99_ms": p99,
        "lag_ms_p99": percentile(
            [(request.dispatched - request.due) * 1e3 for request in requests], 99
        ),
        "backlog_growing": growing,
        "within_limit": bool(requests) and failed == 0 and p99 <= LATENCY_LIMIT_MS and not growing,
    }


def ladder_report(requests: list[Request]) -> tuple[list[dict], dict]:
    """Per-step summaries, and per rung name the medians over its steps.

    A rate counts towards goodput only when every step at it met the
    limit.
    """
    steps = [
        {"rung": rung.name, "rate_rps": rung.rate,
         **summarise([request for request in requests if request.step == index])}
        for index, rung in enumerate(LADDER)
    ]
    rungs = {}
    for name in dict.fromkeys(rung.name for rung in LADDER):
        mine = [step for step in steps if step["rung"] == name]
        rungs[name] = {
            key: statistics.median(step[key] for step in mine)
            for key in ("p50_ms", "p90_ms", "p99_ms")
        }
        rungs[name]["within_limit"] = all(step["within_limit"] for step in mine)
        rungs[name]["rate_rps"] = mine[0]["rate_rps"]
    return steps, rungs
