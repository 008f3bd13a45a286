#!/usr/bin/env python3
"""Two-process live benchmark of the summary broker overlay.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ticker_small --seed 1 --seconds 24 --trace 0

**Processes.**  The cluster process (``cluster_proc.py``) runs
``LocalCluster`` over ``Topology.line(4)`` with the stock schema and the
runtime's default options.  This process is the load generator: one
thread, one asyncio loop, its own ``MessageCodec``, two publishing
``ProducerSession``s (at brokers 0 and 3) and one ``SubscriberSession``
per broker, all over loopback TCP.  On a host with two or more CPUs each
process is pinned to its own core.

**An untraced run** (``--trace 0``) sets the cluster up several times
(boot, subscription load, first coordinated period; the last set-up is
kept), warms it up, then measures:

* an open loop: bursts leave at the workload's fixed rate, and every
  notification's latency runs from its burst's due time to its arrival
  here; subscription operations run between bursts and their
  request-to-SUB_ACK latency is recorded;
* a closed loop (capacity): each producer keeps ``CLOSED_LOOP_WINDOW``
  bursts in flight behind a ``flush()`` barrier; throughput counts
  publishes whose every notification has arrived, per second.

It prints all ten end-to-end metrics and reports the tracked ones
(``TRACKED_END_TO_END``) in its result line:

* ``throughput_evps``: closed-loop publishes per second;
* ``latency_p50_ms`` / ``latency_p99_ms``: open-loop publish-to-notify;
* ``sub_ack_p50_ms`` / ``sub_ack_p99_ms``: open-loop subscribe and
  unsubscribe request-to-SUB_ACK;
* ``peer_bytes_per_publish``: broker-to-broker bytes (size x path length,
  the paper's Fig 10 accounting) per publish over both loops, periods
  excluded;
* ``summary_bytes_per_period``: SUMMARY/SUMMARY_DELTA bytes per
  coordinated period (the measured periods of a churning workload, the
  set-up period of a static one; the paper's Fig 8);
* ``error_rate``: (missing + unexpected + duplicate deliveries + rejected
  sub ops + dropped frames) / (expected deliveries + sub ops);
* ``setup_s``: median set-up time;
* ``rss_peak_mb``: the cluster process's peak RSS (``VmHWM``).

**A traced run** (``--trace 1``) traces the set-up, runs the open loop
with the cluster's loop-lag and GC monitor on, an untraced capacity phase,
then a traced closed loop over a fixed number of events with per-layer
wrappers installed in the cluster process (``layers.py``).  It prints the
per-layer self-time table (listed self times plus ``other`` add up to the
traced wall time), the tracing overhead, and reports the per-layer
metrics.  Spans are written to ``.bench_out/``.

Every delivery is checked against a brute-force oracle (``oracle.py``).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any check failed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the repro sources are not under {SRC}; run it from the "
             f"root of a checkout of the repository")
sys.path.insert(0, str(SRC))

from oracle import Oracle, pack_sid  # noqa: E402
from repro.model.ids import IdCodec  # noqa: E402
from repro.runtime.client import (  # noqa: E402
    ProducerSession,
    SubscribeError,
    SubscriberSession,
)
from repro.runtime.server import DEFAULT_MAX_SUBSCRIPTIONS  # noqa: E402
from repro.wire.codec import WireCodec  # noqa: E402
from repro.wire.messages import MessageCodec  # noqa: E402
from repro.workload.stocks import DEFAULT_EXCHANGES, DEFAULT_SYMBOLS  # noqa: E402
from stats import median, percentile, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    BROKERS,
    PRODUCER_BROKERS,
    STREAMS,
    WORKLOADS,
    WorkloadInputs,
)

#: Cluster set-ups per ``--trace 0`` run (``setup_s`` is their median):
#: at least the minimum, and more while they add up to under
#: ``SETUP_MIN_TOTAL_S``, up to the maximum.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_TOTAL_S = 1.5
#: Pause between closing the client sessions and tearing a cluster down.
TEARDOWN_GRACE_S = 0.1
#: Shares of ``--seconds`` given to the untraced open loop and capacity
#: phase of a traced run (an untraced run splits by the workload's
#: ``open_share``).
TRACE_RUN_OPEN_SHARE = 0.45
TRACE_RUN_CAPACITY_SHARE = 0.2
#: The end-to-end metrics an untraced run reports in its result line (in
#: ``BENCHMARK.json``).  The p99s and ``error_rate`` are printed too, but
#: not tracked: on a shared host the p99s move by more than any bound from
#: run to run (a traced run reports them as ``tail.*``), and a correct run's
#: ``error_rate`` is 0, which gates the exit code instead.
TRACKED_END_TO_END = (
    "throughput_evps",
    "latency_p50_ms",
    "sub_ack_p50_ms",
    "peer_bytes_per_publish",
    "summary_bytes_per_period",
    "setup_s",
    "rss_peak_mb",
)
#: Bursts each producer has in flight before a ``flush()`` barrier in the
#: closed loop.
CLOSED_LOOP_WINDOW = 2
#: Fewest samples a p99 is reported from (ten beyond it).
MIN_TIMING_SAMPLES = 1000
#: Bound on a whole run, clean-up included (a wedged run fails instead of
#: hanging).
RUN_DEADLINE_S = 140.0
#: Bound on one control request (a period or a quiesce).
CONTROL_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# Control channel
# ---------------------------------------------------------------------------


class Control:
    """JSON-lines request/reply client of the cluster process."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def call(self, cmd: str, **fields) -> dict:
        self.writer.write((json.dumps({"cmd": cmd, **fields}) + "\n").encode())
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), CONTROL_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"cluster process closed the control channel ({cmd})")
        reply = json.loads(line)
        if not reply.pop("ok"):
            raise RuntimeError(f"cluster {cmd} failed: {reply['error']}")
        return reply

    def close(self) -> None:
        self.writer.close()


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------


class Generator:
    """Client sessions, schedules, churn and the delivery log of one
    cluster incarnation."""

    def __init__(self, spec, inputs, control):
        self.spec = spec
        self.inputs = inputs
        self.control = control
        self.oracle = Oracle(DEFAULT_SYMBOLS, DEFAULT_EXCHANGES)
        self.subscribers = {}
        self.producers = []
        # Delivery log: flat arrays, not tracked by the collector.
        self.d_when = array("d")
        self.d_sid = array("q")
        self.d_arrival = array("d")
        #: every burst published, in order: its stream, size and step
        #: (the events themselves are regenerated for the oracle).
        self.burst_stream = array("b")
        self.burst_size = array("H")
        self.burst_step = array("l")
        self.step = -1
        self.ops = []
        #: whether coordinated periods count towards the metrics.
        self.measuring = False
        #: whether sub-op ack latencies are recorded (open loop only: a
        #: closed loop's ack latency only measures its own window depth).
        self.timing_acks = False
        self.op_latency = array("d")
        self.op_count = 0
        self.op_rejected = 0
        self.period_bytes = []
        self.stable = {}
        self.fresh = {}
        #: open-loop due time per event, keyed by the event's ``when``.
        self.due = {}
        self.gen_lag = array("d")
        self.client_decode_s = 0.0
        self._codec = None
        self._published = 0
        self._ops_launched = 0
        self._next_period = spec.period_every
        #: one continuing event stream per phase name.
        self._streams = {}

    # -- sessions ----------------------------------------------------------------

    async def connect(self, addresses) -> None:
        schema = self.inputs.schema
        self._codec = codec = MessageCodec(WireCodec(
            schema, IdCodec(len(BROKERS), DEFAULT_MAX_SUBSCRIPTIONS, len(schema))
        ))
        when_log, sid_log, arrival_log = (
            self.d_when.append, self.d_sid.append, self.d_arrival.append
        )
        clock = time.perf_counter

        def on_notify(sid, event):
            arrival_log(clock())
            when_log(event.value("when"))
            sid_log(pack_sid(sid))

        for broker in BROKERS:
            host, port = addresses[str(broker)]
            session = await SubscriberSession.connect(host, port, codec)
            session.on_notify = on_notify
            self.subscribers[broker] = session
            self.stable[broker] = []
            self.fresh[broker] = []
        for broker in PRODUCER_BROKERS:
            host, port = addresses[str(broker)]
            self.producers.append(await ProducerSession.connect(host, port, codec))

    async def close(self) -> None:
        for session in [*self.producers, *self.subscribers.values()]:
            await session.close()

    def trim_session_logs(self) -> None:
        """The sessions' own delivery lists are redundant with the flat
        log; drop them so they do not grow for the whole run."""
        for session in self.subscribers.values():
            session.deliveries.clear()

    def time_client_decode(self, enabled: bool) -> None:
        """Time the generator's own frame decoding (consumer-side cost)."""
        codec = self._codec
        if not enabled:
            codec.__dict__.pop("decode", None)
            return
        decode, clock = type(codec).decode.__get__(codec), time.perf_counter

        def timed_decode(data):
            started = clock()
            try:
                return decode(data)
            finally:
                self.client_decode_s += clock() - started

        codec.decode = timed_decode

    # -- subscriptions -----------------------------------------------------------

    async def load_initial(self) -> None:
        async def load(broker):
            session = self.subscribers[broker]
            subscriptions = self.inputs.initial[broker]
            sids = await asyncio.gather(*(session.subscribe(s) for s in subscriptions))
            for sid, subscription in zip(sids, subscriptions):
                self.oracle.add(sid, subscription, self.step)
                self.stable[broker].append(sid)

        await asyncio.gather(*(load(broker) for broker in self.subscribers))

    async def _timed_op(self, request):
        started = time.perf_counter()
        try:
            result = await request
        except SubscribeError:
            self.op_rejected += 1
            return None
        if self.timing_acks:
            self.op_latency.append(time.perf_counter() - started)
        return result

    async def _replace(self, broker, victim, subscription, step) -> None:
        session = self.subscribers[broker]
        self.oracle.remove(victim, step)
        _, sid = await asyncio.gather(
            self._timed_op(session.unsubscribe(victim)),
            self._timed_op(session.subscribe(subscription)),
        )
        if sid is not None:
            self.oracle.add(sid, subscription, step)
            self.fresh[broker].append(sid)

    async def _probe(self, broker, subscription, step) -> None:
        session = self.subscribers[broker]
        sid = await self._timed_op(session.subscribe(subscription))
        if sid is None:
            return
        self.oracle.add(sid, subscription, step)
        self.oracle.remove(sid, step)
        await self._timed_op(session.unsubscribe(sid))

    def launch_ops(self) -> None:
        """The subscription operations due so far: one every ``ops_every``
        publishes."""
        inputs, spec = self.inputs, self.spec
        due = self._published // spec.ops_every - self._ops_launched
        for _ in range(due):
            self._ops_launched += 1
            self.op_count += 2
            if spec.churn:
                broker = inputs.victims.choice(BROKERS)
                pool = self.stable[broker]
                victim = pool.pop(inputs.victims.randrange(len(pool)))
                coro = self._replace(broker, victim, inputs.fresh_subscription(), self.step)
            else:
                broker = BROKERS[inputs.victims.randrange(len(BROKERS))]
                coro = self._probe(broker, inputs.probe_subscription(), self.step)
            self.ops.append(asyncio.get_running_loop().create_task(coro))

    async def drain_ops(self) -> None:
        while self.ops:
            tasks, self.ops = self.ops, []
            await asyncio.gather(*tasks)

    # -- barriers ----------------------------------------------------------------

    async def barrier(self) -> int:
        """Close the step: finish sub ops, let every publish be ingested,
        run one coordinated period, collect every queued notification.
        Returns the period's SUMMARY/SUMMARY_DELTA bytes."""
        await self.drain_ops()
        await asyncio.gather(*(p.flush() for p in self.producers))
        reply = await self.control.call("settle_period")
        await asyncio.gather(*(s.flush() for s in self.subscribers.values()))
        self.oracle.settle(self.step, time.perf_counter())
        self.step += 1
        for broker, fresh in self.fresh.items():
            self.stable[broker].extend(sorted(fresh, key=pack_sid))
            fresh.clear()
        if self.measuring:
            self.period_bytes.append(reply["summary_bytes"])
        return reply["summary_bytes"]

    async def settle(self) -> None:
        """Every publish routed, every notification received."""
        await self.drain_ops()
        await asyncio.gather(*(p.flush() for p in self.producers))
        await self.control.call("quiesce")
        await asyncio.gather(*(s.flush() for s in self.subscribers.values()))
        self.oracle.settle(self.step, time.perf_counter())
        self.trim_session_logs()

    # -- load shapes -----------------------------------------------------------

    def _stream(self, name: str):
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = self.inputs.stream(name)
        return stream

    async def period_if_due(self) -> bool:
        """Run the coordinated period due every ``period_every`` publishes."""
        period_every = self.spec.period_every
        if not period_every or self._published < self._next_period:
            return False
        await self.barrier()
        self._next_period += period_every
        return True

    def _record_burst(self, stream: str, size: int) -> None:
        self.burst_stream.append(STREAMS.index(stream))
        self.burst_size.append(size)
        self.burst_step.append(self.step)
        self._published += size

    async def closed_loop(self, stream: str, seconds=None, limit=None,
                          mid_period=False):
        """Each producer keeps ``CLOSED_LOOP_WINDOW`` bursts in flight
        behind a ``flush()`` barrier.  Publishes from event stream
        ``stream`` for ``seconds``, or ``limit`` events; ``mid_period``
        runs one coordinated period half way through ``limit``.  Returns
        ``(published, elapsed)``, elapsed ending once every notification
        has been received."""
        spec = self.spec
        events = self._stream(stream)
        published, rounds = 0, 0
        started = time.perf_counter()
        while True:
            if seconds is not None and time.perf_counter() - started >= seconds:
                break
            if limit is not None and published >= limit:
                break
            for producer in self.producers:
                size = spec.closed_burst
                if limit is not None:
                    size = min(size, limit - published)
                if size <= 0:
                    break
                self._record_burst(stream, size)
                await producer.publish_many(events.burst(size))
                published += size
                self.launch_ops()
            rounds += 1
            if rounds % CLOSED_LOOP_WINDOW == 0:
                await asyncio.gather(*(p.flush() for p in self.producers))
                self.trim_session_logs()
            await self.period_if_due()
            if mid_period and published * 2 >= limit:
                await self.barrier()
                mid_period = False
        await self.settle()
        return published, time.perf_counter() - started

    async def open_loop(self, bursts: int) -> int:
        """``bursts`` bursts leave on a fixed schedule at the workload's
        rate; the schedule pauses while a coordinated period runs.  Each
        event's due time is kept (keyed by its ``when``) for latency."""
        spec = self.spec
        size = spec.open_burst
        interval = size / spec.open_rate
        events = self._stream("open")
        producers = self.producers
        clock = time.perf_counter
        published, paused = 0, 0.0
        started = clock()
        for index in range(bursts):
            due = started + paused + index * interval
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.gen_lag.append(clock() - due)
            burst = events.burst(size)
            for event in burst:
                self.due[event.value("when")] = due
            self._record_burst("open", size)
            await producers[index % len(producers)].publish_many(burst)
            published += size
            self.launch_ops()
            if index % 16 == 15:
                self.trim_session_logs()
            pause_started = clock()
            if await self.period_if_due():
                paused += clock() - pause_started
        await self.settle()
        return published

    def published(self, streams=STREAMS):
        """Every published ``(event, step)`` of ``streams``, regenerated
        from the seed in publish order (the run keeps only burst sizes)."""
        regenerated = {name: self.inputs.stream(name) for name in STREAMS}
        for index in range(len(self.burst_size)):
            name = STREAMS[self.burst_stream[index]]
            burst = regenerated[name].burst(self.burst_size[index])
            if name in streams:
                step = self.burst_step[index]
                for event in burst:
                    yield event, step

    def latencies(self):
        """Publish->notify latencies (seconds) of the open-loop events."""
        due = self.due
        out = array("d")
        when, arrival = self.d_when, self.d_arrival
        for index in range(len(when)):
            start = due.get(when[index])
            if start is not None:
                out.append(arrival[index] - start)
        return out


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance(seed: int, workload: str, loop_impl: str, cpus_usable: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned": cpus_usable >= 2,
        "python": platform.python_version(),
        "uvloop": "on" if "uvloop" in loop_impl else "off",
        "event_loop": loop_impl,
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def spans_out(spec, seed: int, window: str) -> Path:
    return OUT_DIR / f"spans-{spec.name}-seed{seed}-{window}.jsonl"


def _cpu_plan():
    """(generator cpu, cluster cpu), or (None, None) on a one-CPU host."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


async def run_benchmark(spec, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        open_seconds = seconds * TRACE_RUN_OPEN_SHARE
        capacity_seconds = seconds * TRACE_RUN_CAPACITY_SHARE
    else:
        open_seconds = seconds * spec.open_share
        capacity_seconds = seconds - open_seconds
    bursts = max(1, round(spec.open_rate * open_seconds / spec.open_burst))
    inputs = WorkloadInputs(spec, seed)

    gen_cpu, cluster_cpu = _cpu_plan()
    command = [sys.executable, str(BENCH_DIR / "cluster_proc.py")]
    if cluster_cpu is not None:
        command += ["--cpu", str(cluster_cpu)]
        os.sched_setaffinity(0, {gen_cpu})
    proc = await asyncio.create_subprocess_exec(
        *command, stdout=asyncio.subprocess.PIPE, cwd=str(ROOT)
    )
    control = None
    generator = None
    try:
        line = await asyncio.wait_for(proc.stdout.readline(), 60.0)
        if not line.startswith(b"CONTROL "):
            raise RuntimeError(f"cluster process did not start: {line!r}")
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", int(line.split()[1])
        )
        control = Control(reader, writer)
        result = {"setup_s": []}
        while True:
            generator = Generator(spec, inputs, control)
            started = time.perf_counter()
            boot = await control.call("boot")
            if trace:
                await control.call("trace_on")
            await generator.connect(boot["addresses"])
            await generator.load_initial()
            result["setup_summary_bytes"] = await generator.barrier()
            result["setup_s"].append(time.perf_counter() - started)
            result["event_loop"] = boot["event_loop"]
            if trace:
                result["setup_trace"] = await control.call(
                    "trace_off", spans_out=str(spans_out(spec, seed, "setup"))
                )
                break
            setups = result["setup_s"]
            if len(setups) >= SETUP_MIN_REPEATS and (
                sum(setups) >= SETUP_MIN_TOTAL_S or len(setups) >= SETUP_MAX_REPEATS
            ):
                break
            await generator.close()
            # Let the brokers see the sessions close before tearing down.
            await asyncio.sleep(TEARDOWN_GRACE_S)
            await control.call("teardown")

        # Warm-up: lazy compiles and codec memos fill before timing.
        await generator.closed_loop(
            "warmup", limit=CLOSED_LOOP_WINDOW * len(generator.producers) * spec.closed_burst
        )
        result["counters_before"] = await control.call("counters")
        generator.measuring = True
        # The open loop runs first, so the cluster state it sees does not
        # depend on how far the capacity phase got.
        if trace:
            await control.call("monitor_start")
        generator.timing_acks = True
        open_published = await generator.open_loop(bursts)
        generator.timing_acks = False
        if trace:
            result["monitor"] = await control.call("monitor_stop")
        cpu_before = (await control.call("counters"))["cpu_s"]
        result["capacity"] = await generator.closed_loop(
            "capacity", seconds=capacity_seconds
        )
        generator.measuring = False
        result["counters_after"] = await control.call("counters")
        result["measured_publishes"] = open_published + result["capacity"][0]
        result["capacity_cpu_share"] = (
            (result["counters_after"]["cpu_s"] - cpu_before) / result["capacity"][1]
        )

        if trace:
            await control.call("trace_on")
            generator.time_client_decode(True)
            result["traced"] = await generator.closed_loop(
                "trace", limit=spec.trace_events, mid_period=not spec.period_every
            )
            generator.time_client_decode(False)
            result["trace"] = await control.call(
                "trace_off", spans_out=str(spans_out(spec, seed, "publish"))
            )
        await generator.close()
        await asyncio.sleep(TEARDOWN_GRACE_S)
        await control.call("exit")
        result["generator"] = generator
        return result
    finally:
        if control is not None:
            control.close()
        try:
            await asyncio.wait_for(proc.wait(), 30.0)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _verdict(generator):
    return generator.oracle.check(
        generator.published(), generator.d_when, generator.d_sid, generator.d_arrival
    )


def failures(result, verdict):
    """``(errors, attempted)``: missing, unexpected and duplicate
    deliveries, rejected sub ops and dropped frames, against expected
    deliveries plus sub ops."""
    generator = result["generator"]
    errors = (verdict.failures + generator.op_rejected
              + result["counters_after"]["frames_dropped"])
    return errors, verdict.expected + generator.op_count


def capacity_evps(result) -> float:
    published, elapsed = result["capacity"]
    return published / elapsed


def timing(samples) -> dict:
    """p50 and p99 (ms), the sample count, and the highest percentile the
    samples resolve (at least ten of them beyond it)."""
    ordered = sorted(samples) or [0.0]
    resolved = tail_percentile(ordered)
    tail = f"p{resolved[0]:g}={resolved[1] * 1e3:.3f}ms" if resolved else "none"
    if len(samples) < MIN_TIMING_SAMPLES:
        tail += " (too few samples to resolve the p99)"
    return {"p50": percentile(ordered, 50.0) * 1e3, "p99": percentile(ordered, 99.0) * 1e3,
            "n": len(samples), "tail": tail}


def end_to_end_metrics(spec, result):
    """``(metrics, notes)`` of an untraced run: all ten end-to-end metrics
    but ``error_rate`` (reported by the caller)."""
    generator = result["generator"]
    latency, acks = timing(generator.latencies()), timing(generator.op_latency)
    before, after = result["counters_before"], result["counters_after"]
    period_bytes = generator.period_bytes
    peer_bytes = after["bytes_sent"] - before["bytes_sent"] - sum(period_bytes)
    if spec.period_every:
        summary_per_period = sum(period_bytes) / len(period_bytes)
    else:
        summary_per_period = result["setup_summary_bytes"]
    metrics = {
        "throughput_evps": (capacity_evps(result), "ev/s"),
        "latency_p50_ms": (latency["p50"], "ms"),
        "latency_p99_ms": (latency["p99"], "ms"),
        "sub_ack_p50_ms": (acks["p50"], "ms"),
        "sub_ack_p99_ms": (acks["p99"], "ms"),
        "peer_bytes_per_publish": (peer_bytes / result["measured_publishes"], "B"),
        "summary_bytes_per_period": (summary_per_period, "B"),
        "setup_s": (median(result["setup_s"]), "s"),
        "rss_peak_mb": (after["vmhwm_kb"] / 1024.0, "MB"),
    }
    notes = [
        f"open-loop latency: n={latency['n']} notifications, highest resolved "
        f"tail {latency['tail']}",
        f"sub-op ack: n={acks['n']}, highest resolved tail {acks['tail']}",
        f"capacity phase: cluster busy {100.0 * result['capacity_cpu_share']:.0f}% "
        f"of it",
        f"set-ups: {len(result['setup_s'])}, measured periods: {len(period_bytes)}",
    ]
    return metrics, notes


def per_layer_metrics(spec, result) -> dict:
    generator = result["generator"]
    report = result["trace"]
    layers, counts = report["layers"], report["counts"]
    traced, traced_elapsed = result["traced"]

    def layer(name, field="self_s"):
        return layers.get(name, {}).get(field, 0.0)

    def setup_layer(name, field="self_s"):
        return result["setup_trace"]["layers"].get(name, {}).get(field, 0.0)

    def per(value, base):
        return value / base if base else 0.0

    periods = layer("server.period_act", "calls") / len(BROKERS)

    events_matched = counts.get("summary.match_many.events", 0)
    candidates = counts.get("summary.recheck.candidates", 0)
    confirmed = counts.get("broker.deliver.confirmed", 0)
    recompiles = counts.get("summary.recompiles", 0)
    expected = sum(len(generator.oracle.expected_for(event, step)[0])
                   for event, step in generator.published(("trace",)))
    latency, acks = timing(generator.latencies()), timing(generator.op_latency)
    lags = sorted(generator.gen_lag)
    monitor = result["monitor"]
    before, after = result["counters_before"], result["counters_after"]
    send_many = layers.get("framing.send_many", {})
    metrics = {
        "wire.encode.calls_per_publish": (per(layer("wire.encode", "calls"), traced), "count"),
        "wire.encode.self_us_per_publish": (per(layer("wire.encode") * 1e6, traced), "us"),
        "wire.decode.calls_per_publish": (per(layer("wire.decode", "calls"), traced), "count"),
        "wire.decode.self_us_per_publish": (per(layer("wire.decode") * 1e6, traced), "us"),
        "wire.encode_event.calls_per_publish": (
            per(layer("wire.encode_event", "calls"), traced), "count"),
        "wire.summary_encode.self_ms_per_period": (
            per(layer("wire.summary_encode") * 1e3, periods), "ms"),
        "wire.bytes_per_publish.event": (per(counts.get("wire.bytes.event", 0), traced), "B"),
        "wire.bytes_per_publish.notify": (per(counts.get("wire.bytes.notify", 0), traced), "B"),
        "framing.send_many.frames_per_call": (
            per(counts.get("framing.send_many.frames", 0), send_many.get("calls", 0)), "count"),
        "framing.send_many.wait_us_per_publish": (
            per((send_many.get("wall_s", 0.0) - send_many.get("child_s", 0.0)) * 1e6, traced),
            "us"),
        "framing.recv_burst.frames_per_call": (
            per(counts.get("framing.recv_burst.frames", 0),
                layer("framing.recv_burst", "calls")), "count"),
        "server.loop_lag_p99_ms": (monitor["loop_lag_p99_ms"], "ms"),
        "server.gc_pause_max_ms": (monitor["gc_pause_max_ms"], "ms"),
        "server.gc_gen2_count": (monitor["gc_gen2_count"], "count"),
        "server.match_batch_events": (
            per(report["batched_events"], report["match_batches"]), "count"),
        "server.backpressure_stalls": (
            after["backpressure_stalls"] - before["backpressure_stalls"], "count"),
        "server.frames_dropped": (after["frames_dropped"], "count"),
        "server.period_act.self_ms": (per(layer("server.period_act") * 1e3, periods), "ms"),
        "summary.match_many.self_us_per_event": (
            per(layer("summary.match_many") * 1e6, events_matched), "us"),
        "summary.match_many.events_per_call": (
            per(events_matched, layer("summary.match_many", "calls")), "count"),
        "summary.candidates_per_event": (
            per(counts.get("summary.candidates", 0), events_matched), "count"),
        "summary.recompiles_per_1k_publishes": (per(recompiles * 1000.0, traced), "count"),
        "summary.recompile.self_ms": (per(layer("summary.recompile") * 1e3, recompiles), "ms"),
        "summary.match_cache_hit_ratio": (
            per(report["cache_hits"], report["cache_hits"] + report["cache_misses"]), "ratio"),
        "summary.recheck.self_us_per_candidate": (
            per(layer("summary.recheck") * 1e6, candidates), "us"),
        "summary.recheck.confirm_ratio": (
            per(counts.get("summary.recheck.confirmed", 0), candidates), "ratio"),
        "summary.compiled_slots": (report["compiled_slots"], "count"),
        "broker.route_matched.self_us_per_event": (
            per(layer("broker.route_matched") * 1e6,
                counts.get("broker.route_matched.events", 0)), "us"),
        "broker.event_frames_per_publish": (per(counts.get("wire.frames.event", 0), traced),
                                            "count"),
        "broker.deliver.self_us_per_notification": (
            per(layer("broker.deliver") * 1e6, confirmed), "us"),
        "broker.notifications_per_publish": (per(expected, traced), "count"),
        "broker.subscribe.self_us_p99": (
            layers.get("broker.subscribe", {}).get("self_p99_s", 0.0) * 1e6, "us"),
        "broker.unsubscribe.self_us_p99": (
            layers.get("broker.unsubscribe", {}).get("self_p99_s", 0.0) * 1e6, "us"),
        "broker.absorb_delta.self_ms_per_period": (
            per(layer("broker.absorb_delta") * 1e3, periods), "ms"),
        "setup.broker.subscribe.self_s": (setup_layer("broker.subscribe"), "s"),
        "setup.broker.subscribe.self_us_p99": (
            setup_layer("broker.subscribe", "self_p99_s") * 1e6, "us"),
        "tail.latency_p99_ms": (latency["p99"], "ms"),
        "tail.sub_ack_p99_ms": (acks["p99"], "ms"),
        "gen.lag_p99_ms": (percentile(lags, 99.0) * 1e3 if lags else 0.0, "ms"),
        "client.decode.self_us_per_publish": (per(generator.client_decode_s * 1e6, traced),
                                              "us"),
        "trace.other_share": (per(report["other_s"], report["wall_s"]), "ratio"),
        "trace.overhead_ratio": (per(capacity_evps(result), traced / traced_elapsed),
                                 "ratio"),
    }
    return metrics


def layer_table(report, traced: int) -> str:
    wall = report["wall_s"]
    rows = sorted(report["layers"].items(), key=lambda item: -item[1]["self_s"])
    lines = [f"{'layer':<28}{'calls':>10}{'self ms':>11}{'self %':>8}{'us/publish':>12}"]
    listed = 0.0
    for name, entry in rows:
        listed += entry["self_s"]
        lines.append(
            f"{name:<28}{entry['calls']:>10}{entry['self_s'] * 1e3:>11.1f}"
            f"{100.0 * entry['self_s'] / wall:>8.1f}"
            f"{entry['self_s'] * 1e6 / max(1, traced):>12.2f}"
        )
    other = wall - listed
    lines.append(f"{'other':<28}{'':>10}{other * 1e3:>11.1f}{100.0 * other / wall:>8.1f}"
                 f"{other * 1e6 / max(1, traced):>12.2f}")
    lines.append(f"{'total (traced wall)':<28}{'':>10}{wall * 1e3:>11.1f}{100.0:>8.1f}"
                 f"{wall * 1e6 / max(1, traced):>12.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"run.py: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    cpus_usable = len(os.sched_getaffinity(0))
    result = asyncio.run(asyncio.wait_for(
        run_benchmark(spec, args.seed, args.seconds, bool(args.trace)), RUN_DEADLINE_S
    ))
    generator = result["generator"]
    verdict = _verdict(generator)
    errors, attempted = failures(result, verdict)
    info = provenance(args.seed, spec.name, result["event_loop"], cpus_usable)
    print(json.dumps({"provenance": info}))
    print(f"oracle: {verdict.events} events, {verdict.expected} expected deliveries, "
          f"{verdict.delivered} delivered, {verdict.missing} missing, "
          f"{verdict.unexpected} unexpected ({verdict.late} late), "
          f"{verdict.duplicates} duplicate, {verdict.exempt_delivered} exempt; "
          f"{generator.op_count} sub ops, {generator.op_rejected} rejected")
    for example in verdict.examples:
        print(f"oracle failure: {example}", file=sys.stderr)
    error_rate = (errors / max(1, attempted), "ratio")
    if args.trace:
        report = result["trace"]
        traced, traced_elapsed = result["traced"]
        print(f"\nper-layer self time, traced window of {traced} publishes "
              f"({report['spans_written']} spans written, "
              f"{report['spans_dropped']} over the in-memory cap)")
        print(layer_table(report, traced))
        print(f"tracing overhead: untraced {capacity_evps(result):.1f} ev/s, "
              f"traced {traced / traced_elapsed:.1f} ev/s")
        metrics = per_layer_metrics(spec, result)
        metrics["error_rate"] = error_rate
        for name, (value, unit) in metrics.items():
            print(f"{name:<44} {value:>14.6g} {unit}")
    else:
        printed, notes = end_to_end_metrics(spec, result)
        printed["error_rate"] = error_rate
        for note in notes:
            print(note)
        for name, (value, unit) in printed.items():
            print(f"{name:<26} {value:>14.6g} {unit}")
        metrics = {name: printed[name] for name in TRACKED_END_TO_END}

    OUT_DIR.mkdir(exist_ok=True)
    out = {
        "correct": errors == 0,
        "attempted": attempted,
        "failed": errors,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"result-{spec.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**out, "provenance": info}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(out))
    return 0 if errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
