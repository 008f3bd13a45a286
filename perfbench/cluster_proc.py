"""The cluster process: a live ``LocalCluster`` plus a control channel.

Started by ``run.py`` as its own OS process.  It boots
``LocalCluster(Topology.line(4), stock_schema())`` with the runtime's
default options, prints ``CONTROL <port>`` on stdout, and then serves one
control connection of JSON lines (one request, one reply).  Clients
(producers and subscribers) connect to the brokers' own ports from the
load-generator process; this process never sees anything but their
frames, and holds no per-event benchmark state.

Commands: ``boot``, ``teardown``, ``settle_period``, ``quiesce``,
``counters``, ``monitor_start``/``monitor_stop`` (event-loop lag and GC
pauses), ``trace_on``/``trace_off`` (per-layer spans, see
:mod:`layers`), ``exit``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.model.schema import stock_schema  # noqa: E402
from repro.network import Topology  # noqa: E402
from repro.runtime.cluster import LocalCluster  # noqa: E402

from layers import LayerProbe  # noqa: E402
from spans import SpanTracer  # noqa: E402
from stats import percentile  # noqa: E402

#: Heartbeat period of the loop-lag monitor.
HEARTBEAT_S = 0.005


def proc_status_kb(field: str) -> int:
    """One ``kB`` field of ``/proc/self/status`` (0 where unavailable)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class LoopMonitor:
    """Event-loop lag (a heartbeat task) and GC pauses (``gc.callbacks``)
    over one window."""

    def __init__(self) -> None:
        self.lags = array("d")
        self.gc_pause_max = 0.0
        self.gc_gen2 = 0
        self._gc_started = 0.0
        self._task = None

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_pause_max = max(self.gc_pause_max, time.perf_counter() - self._gc_started)
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    async def _heartbeat(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + HEARTBEAT_S
            await asyncio.sleep(HEARTBEAT_S)
            self.lags.append(max(0.0, loop.time() - due))

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._task = asyncio.get_running_loop().create_task(self._heartbeat())

    async def stop(self) -> dict:
        gc.callbacks.remove(self._on_gc)
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        lags = sorted(self.lags)
        return {
            "loop_lag_p99_ms": percentile(lags, 99.0) * 1e3 if lags else 0.0,
            "gc_pause_max_ms": self.gc_pause_max * 1e3,
            "gc_gen2_count": self.gc_gen2,
        }


class ClusterHost:
    """Owns the cluster and answers control requests."""

    def __init__(self) -> None:
        self.cluster = None
        self.monitor = None
        self.probe = None
        self.trace_started = 0.0
        self.trace_base = None
        self.done = asyncio.Event()

    # -- helpers -----------------------------------------------------------------

    def _cache_counts(self):
        hits = misses = 0
        for runtime in self.cluster.runtimes.values():
            gauges = runtime.collect_metrics().snapshot()
            hits += gauges.get("runtime.match_cache_hits", 0)
            misses += gauges.get("runtime.match_cache_misses", 0)
        return hits, misses

    def counters(self) -> dict:
        metrics = self.cluster.metrics()
        runtimes = self.cluster.runtimes.values()
        return {
            "bytes_sent": metrics.bytes_sent,
            "backpressure_stalls": metrics.backpressure_stalls,
            "match_batches": metrics.match_batches,
            "batched_events": metrics.batched_events,
            "frames_dropped": sum(r.frames_dropped for r in runtimes),
            "cpu_s": sum(os.times()[:2]),
            "vmhwm_kb": proc_status_kb("VmHWM"),
        }

    # -- commands ----------------------------------------------------------------

    async def cmd_boot(self, request):
        if self.cluster is not None:
            raise RuntimeError("cluster already booted")
        self.cluster = LocalCluster(Topology.line(4), stock_schema())
        addresses = await self.cluster.start()
        loop = type(asyncio.get_running_loop())
        return {"addresses": {str(b): list(a) for b, a in addresses.items()},
                "event_loop": f"{loop.__module__}.{loop.__qualname__}"}

    async def cmd_teardown(self, request):
        if self.cluster is not None:
            await self.cluster.stop(drain=False)
            self.cluster = None
        return {}

    async def cmd_settle_period(self, request):
        """Quiesce, run one coordinated period, and report the summary
        bytes it moved (nothing else is in flight between the barriers)."""
        cluster = self.cluster
        await cluster.quiesce()
        before = cluster.metrics().bytes_sent
        await cluster.run_propagation_period()
        return {"summary_bytes": cluster.metrics().bytes_sent - before}

    async def cmd_quiesce(self, request):
        await self.cluster.quiesce()
        return {}

    async def cmd_counters(self, request):
        return self.counters()

    async def cmd_monitor_start(self, request):
        self.monitor = LoopMonitor()
        self.monitor.start()
        return {}

    async def cmd_monitor_stop(self, request):
        stats = await self.monitor.stop()
        self.monitor = None
        return stats

    async def cmd_trace_on(self, request):
        self.probe = LayerProbe(SpanTracer())
        self.trace_base = (self.counters(), self._cache_counts())
        self.probe.install()
        self.trace_started = time.perf_counter()
        return {}

    async def cmd_trace_off(self, request):
        wall = time.perf_counter() - self.trace_started
        probe, self.probe = self.probe, None
        probe.uninstall()
        tracer = probe.tracer
        counters, (hits, misses) = self.counters(), self._cache_counts()
        base_counters, (base_hits, base_misses) = self.trace_base
        layers = {}
        for name, totals in tracer.totals.items():
            entry = {
                "calls": totals.calls,
                "self_s": totals.self_time,
                "wall_s": totals.wall_time,
                "child_s": totals.child_time,
            }
            if totals.samples is not None and len(totals.samples):
                ordered = sorted(totals.samples)
                entry["self_p99_s"] = percentile(ordered, 99.0)
                entry["samples"] = len(ordered)
            layers[name] = entry
        written = 0
        spans_out = request.get("spans_out")
        if spans_out:
            Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
            written = tracer.write_jsonl(spans_out)
        slots = sum(m.stats().slots for m in probe.matchers.values())
        return {
            "wall_s": wall,
            "other_s": tracer.idle_time(wall),
            "layers": layers,
            "counts": dict(probe.counts),
            "compiled_slots": slots,
            "cache_hits": hits - base_hits,
            "cache_misses": misses - base_misses,
            "match_batches": counters["match_batches"] - base_counters["match_batches"],
            "batched_events": counters["batched_events"] - base_counters["batched_events"],
            "spans_written": written,
            "spans_dropped": tracer.dropped_records,
        }

    async def cmd_exit(self, request):
        await self.cmd_teardown(request)
        self.done.set()
        return {}

    # -- control channel -------------------------------------------------------

    async def serve(self, reader, writer) -> None:
        try:
            while not self.done.is_set():
                line = await reader.readline()
                if not line:
                    break
                request = json.loads(line)
                handler = getattr(self, "cmd_" + request["cmd"], None)
                try:
                    if handler is None:
                        raise ValueError(f"unknown command {request['cmd']!r}")
                    reply = {"ok": True, **(await handler(request))}
                except Exception as exc:  # reported to the generator, which aborts
                    reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        finally:
            self.done.set()
            writer.close()


async def amain() -> None:
    host = ClusterHost()
    server = await asyncio.start_server(host.serve, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"CONTROL {port}", flush=True)
    try:
        await host.done.wait()
    finally:
        server.close()
        await server.wait_closed()
        await host.cmd_teardown({})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    asyncio.run(amain())
    return 0


if __name__ == "__main__":
    sys.exit(main())
