"""Brute-force delivery oracle.

Every delivered ``(event, subscription)`` pair is checked against
``Subscription.matches`` over the subscriptions live when the event was
published.  Time is divided into *steps*, separated by the coordinated
propagation periods; the generator publishes no event while a period
runs.  For a subscription ``S`` and an event published in step ``k``:

* ``S`` added in step ``k`` or removed in step ``k``: the pair may go
  either way (a new subscription reaches remote summaries only at the
  next period; a removal races the events already in flight);
* ``S`` added before step ``k`` and not removed by it: the pair is
  delivered exactly when ``S`` matches the event;
* otherwise (``S`` not yet requested, or removed in an earlier step):
  the pair must not be delivered.

Independently of steps, no delivery for ``S`` may arrive after the
barrier that closed the step of its unsubscribe (the settle after the
unsubscribe ack), and a pair delivered twice is always a failure.

Deliveries are logged by the generator in flat arrays (event ``when``,
packed subscription id, arrival time); the check runs after the timed
phases.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.subscriptions import Subscription

__all__ = ["Oracle", "SubRecord", "Verdict", "pack_sid"]


def pack_sid(sid: SubscriptionId) -> int:
    """A subscription id as one integer (fits a signed 64-bit array)."""
    return (sid.broker << 40) | (sid.local_id << 8) | sid.attr_mask


class SubRecord:
    __slots__ = ("packed", "subscription", "add_step", "remove_step", "settled_at")

    def __init__(self, packed: int, subscription: Subscription, add_step: int):
        self.packed = packed
        self.subscription = subscription
        self.add_step = add_step
        self.remove_step: Optional[int] = None
        #: when the barrier closing ``remove_step`` finished.
        self.settled_at: Optional[float] = None

    def status(self, step: int) -> str:
        """``"exempt"``, ``"live"`` or ``"dead"`` for an event of ``step``."""
        if step == self.add_step or step == self.remove_step:
            return "exempt"
        if self.add_step < step and (self.remove_step is None or step < self.remove_step):
            return "live"
        return "dead"


@dataclass
class Verdict:
    events: int = 0
    expected: int = 0
    delivered: int = 0
    missing: int = 0
    unexpected: int = 0
    duplicates: int = 0
    late: int = 0
    exempt_delivered: int = 0
    #: a few failing pairs, for the report.
    examples: list = field(default_factory=list)

    def note(self, kind: str, when: float, record: Optional[SubRecord], step=None) -> None:
        if len(self.examples) < 8:
            detail = (f"sid={record.packed:#x} added@{record.add_step} "
                      f"removed@{record.remove_step}" if record is not None else "unknown sid")
            self.examples.append(f"{kind}: event when={when!r} step={step} {detail}")

    @property
    def failures(self) -> int:
        return self.missing + self.unexpected + self.duplicates


class Oracle:
    """Subscription history plus the post-run delivery check."""

    def __init__(self, symbols: Sequence[str], exchanges: Sequence[str]):
        self.symbols = tuple(symbols)
        self.exchanges = tuple(exchanges)
        self.records: Dict[int, SubRecord] = {}
        self._index: Dict[Tuple[str, str], List[SubRecord]] = defaultdict(list)
        self._removed_in: Dict[int, List[SubRecord]] = defaultdict(list)

    # -- history -----------------------------------------------------------------

    def add(self, sid: SubscriptionId, subscription: Subscription, step: int) -> None:
        packed = pack_sid(sid)
        if packed in self.records:
            raise ValueError(f"subscription id {sid} minted twice")
        record = self.records[packed] = SubRecord(packed, subscription, step)
        # Candidate index over the (symbol, exchange) universe, using the
        # subscription's own constraints — a necessary condition, so the
        # final ``matches`` call keeps the check exact.
        symbols = [s for s in self.symbols
                   if all(c.matches(s) for c in subscription.constraints_on("symbol"))]
        exchanges = [x for x in self.exchanges
                     if all(c.matches(x) for c in subscription.constraints_on("exchange"))]
        for symbol in symbols:
            for exchange in exchanges:
                self._index[(symbol, exchange)].append(record)

    def remove(self, sid: SubscriptionId, step: int) -> None:
        record = self.records[pack_sid(sid)]
        record.remove_step = step
        self._removed_in[step].append(record)

    def settle(self, step: int, now: float) -> None:
        """The barrier closing ``step`` finished at ``now``."""
        for record in self._removed_in.pop(step, ()):
            record.settled_at = now

    # -- check -----------------------------------------------------------------

    def expected_for(self, event: Event, step: int) -> Tuple[set, set]:
        """``(must, may)``: packed ids that must / may receive ``event``."""
        must, may = set(), set()
        key = (event.value("symbol"), event.value("exchange"))
        for record in self._index.get(key, ()):
            status = record.status(step)
            if status == "dead" or not record.subscription.matches(event):
                continue
            (must if status == "live" else may).add(record.packed)
        return must, may

    def check(
        self,
        published: Iterable[Tuple[Event, int]],
        when: Sequence[float],
        packed: Sequence[int],
        arrival: Sequence[float],
    ) -> Verdict:
        """Check the delivery log against every ``(event, step)`` published."""
        verdict = Verdict(delivered=len(when))
        delivered: Dict[float, set] = defaultdict(set)
        for index in range(len(when)):
            key, sid = when[index], packed[index]
            seen = delivered[key]
            if sid in seen:
                verdict.duplicates += 1
                continue
            record = self.records.get(sid)
            if (record is not None and record.settled_at is not None
                    and arrival[index] > record.settled_at):
                verdict.late += 1
                verdict.unexpected += 1
                continue
            seen.add(sid)
        for event, step in published:
            verdict.events += 1
            must, may = self.expected_for(event, step)
            got = delivered.pop(event.value("when"), set())
            verdict.expected += len(must)
            missing = must - got
            verdict.missing += len(missing)
            extra = got - must
            allowed = extra & may
            verdict.exempt_delivered += len(allowed)
            verdict.unexpected += len(extra) - len(allowed)
            key = event.value("when")
            for sid in missing:
                verdict.note("missing", key, self.records[sid], step)
            for sid in extra - allowed:
                verdict.note("unexpected", key, self.records.get(sid), step)
        # Deliveries for events nobody published.
        for key, sids in delivered.items():
            verdict.unexpected += len(sids)
            for sid in sids:
                verdict.note("unpublished", key, self.records.get(sid))
        return verdict
