"""Timing wrappers around the public functions of each layer.

:class:`LayerProbe` patches the classes of ``repro.wire``,
``repro.runtime.framing``, ``repro.runtime.server``, ``repro.summary`` and
``repro.broker`` in the cluster process for one traced window, then puts
the originals back.  Every wrapper opens a span on a
:class:`~spans.SpanTracer`; a few also count the work the call did
(frames per write, candidates per event, confirmed re-checks) so ratios
are measured where the work happens.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.broker.broker import SummaryBroker
from repro.broker.routing import EventRouter
from repro.runtime.framing import FrameConnection
from repro.runtime.server import BrokerRuntime, RuntimeNetwork
from repro.summary.compiled import CompiledMatcher
from repro.summary.maintenance import SubscriptionStore
from repro.wire.codec import WireCodec
from repro.wire.messages import EventMessage, MessageCodec, NotifyMessage

from spans import SpanTracer, TracedAwaitable

__all__ = ["LayerProbe"]


class LayerProbe:
    """Installs (and removes) the per-layer wrappers around one tracer."""

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self.counts: Dict[str, float] = defaultdict(float)
        #: matchers seen during the window, by id (for ``stats().slots``).
        self.matchers: Dict[int, CompiledMatcher] = {}
        self._saved: List[Tuple[type, str, Callable]] = []

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probe already installed")
        sync = self._wrap_sync
        # repro.wire
        sync(MessageCodec, "encode", "wire.encode",
             trace_of=lambda args, kw: getattr(args[1], "publish_id", 0))
        sync(MessageCodec, "decode", "wire.decode")
        sync(WireCodec, "encode_event", "wire.encode_event")
        sync(WireCodec, "decode_event", "wire.decode_event")
        sync(WireCodec, "encode_summary", "wire.summary_encode")
        sync(WireCodec, "encode_summary_compact", "wire.summary_encode")
        sync(WireCodec, "decode_summary", "wire.summary_decode")
        sync(WireCodec, "decode_summary_compact", "wire.summary_decode")
        # repro.runtime.framing
        self._wrap_send_many()
        self._wrap_recv_burst()
        # repro.runtime.server
        self._wrap_network_send()
        self._wrap_async(BrokerRuntime, "period_act", "server.period_act")
        # repro.summary
        self._wrap_match_many()
        self._wrap_recheck()
        # repro.broker
        sync(EventRouter, "publish_batch", "broker.publish_batch")
        sync(EventRouter, "process_batch", "broker.process_batch")
        self._wrap_route_matched()
        self._wrap_deliver()
        sync(SummaryBroker, "subscribe", "broker.subscribe", distribution=True)
        sync(SummaryBroker, "unsubscribe", "broker.unsubscribe", distribution=True)
        sync(SummaryBroker, "absorb_delta", "broker.absorb_delta")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner: type, attr: str, wrapper: Callable) -> Callable:
        original = owner.__dict__[attr]
        functools.update_wrapper(wrapper, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return original

    # -- generic wrappers ------------------------------------------------------

    def _wrap_sync(self, owner, attr, name, trace_of=None, distribution=False):
        tracer = self.tracer
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            trace_id = trace_of(args, kwargs) if trace_of is not None else 0
            span = tracer.open(name, trace_id, distribution)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        self._patch(owner, attr, wrapper)

    def _wrap_async(self, owner, attr, name):
        tracer = self.tracer
        original = owner.__dict__[attr]

        async def wrapper(*args, **kwargs):
            return await TracedAwaitable(tracer, name, original(*args, **kwargs))

        self._patch(owner, attr, wrapper)

    # -- wrappers that also count work ----------------------------------------

    def _wrap_send_many(self):
        tracer, counts = self.tracer, self.counts
        original = FrameConnection.__dict__["send_many"]

        async def send_many(conn, messages):
            counts["framing.send_many.frames"] += len(messages)
            return await TracedAwaitable(
                tracer, "framing.send_many", original(conn, messages)
            )

        self._patch(FrameConnection, "send_many", send_many)

    def _wrap_recv_burst(self):
        tracer, counts = self.tracer, self.counts
        original = FrameConnection.__dict__["recv_burst"]

        async def recv_burst(conn, max_messages):
            burst = await TracedAwaitable(
                tracer, "framing.recv_burst", original(conn, max_messages)
            )
            counts["framing.recv_burst.frames"] += len(burst)
            return burst

        self._patch(FrameConnection, "recv_burst", recv_burst)

    def _wrap_network_send(self):
        """Broker-to-broker sends: time them and tally EVENT/NOTIFY frames
        and bytes (the size the runtime charges is read back off its own
        ledger, so no extra encode runs)."""
        tracer, counts = self.tracer, self.counts
        original = RuntimeNetwork.__dict__["send"]

        def send(network, src, dst, message):
            before = network.metrics.payload_bytes
            span = tracer.open("server.network_send",
                               getattr(message, "publish_id", 0))
            try:
                original(network, src, dst, message)
            finally:
                tracer.close(span)
            size = network.metrics.payload_bytes - before
            if isinstance(message, EventMessage):
                counts["wire.frames.event"] += 1
                counts["wire.bytes.event"] += size
            elif isinstance(message, NotifyMessage):
                counts["wire.bytes.notify"] += size

        self._patch(RuntimeNetwork, "send", send)

    def _wrap_match_many(self):
        """``match_many`` with its lazy recompile split out: a call made
        while the snapshot is stale first runs the public ``refresh()`` in
        a ``summary.recompile`` span, so the compile is not charged to the
        match."""
        tracer, counts, matchers = self.tracer, self.counts, self.matchers
        original = CompiledMatcher.__dict__["match_many"]

        def match_many(matcher, events):
            matchers[id(matcher)] = matcher
            if matcher.is_stale:
                counts["summary.recompiles"] += 1
                span = tracer.open("summary.recompile", 0, True)
                try:
                    matcher.refresh()
                finally:
                    tracer.close(span)
            span = tracer.open("summary.match_many")
            try:
                results = original(matcher, events)
            finally:
                tracer.close(span)
            counts["summary.match_many.events"] += len(events)
            counts["summary.candidates"] += sum(len(r) for r in results)
            return results

        self._patch(CompiledMatcher, "match_many", match_many)

    def _wrap_recheck(self):
        tracer, counts = self.tracer, self.counts
        original = SubscriptionStore.__dict__["recheck"]

        def recheck(store, event, candidates):
            span = tracer.open("summary.recheck")
            try:
                confirmed = original(store, event, candidates)
            finally:
                tracer.close(span)
            counts["summary.recheck.candidates"] += len(candidates)
            counts["summary.recheck.confirmed"] += len(confirmed)
            return confirmed

        self._patch(SubscriptionStore, "recheck", recheck)

    def _wrap_route_matched(self):
        tracer, counts = self.tracer, self.counts
        original = EventRouter.__dict__["route_matched"]

        def route_matched(router, broker, items, matched_sets):
            span = tracer.open("broker.route_matched",
                               items[0][2] if items else 0)
            try:
                return original(router, broker, items, matched_sets)
            finally:
                tracer.close(span)
                counts["broker.route_matched.events"] += len(items)

        self._patch(EventRouter, "route_matched", route_matched)

    def _wrap_deliver(self):
        tracer, counts = self.tracer, self.counts
        original = SummaryBroker.__dict__["deliver"]

        def deliver(broker, sids, event, publish_id=0):
            span = tracer.open("broker.deliver", publish_id)
            try:
                confirmed = original(broker, sids, event, publish_id=publish_id)
            finally:
                tracer.close(span)
            counts["broker.deliver.confirmed"] += len(confirmed)
            return confirmed

        self._patch(SummaryBroker, "deliver", deliver)
