"""The oracle's exemption rules on a hand-built churn trace."""

from array import array

from oracle import Oracle, pack_sid
from repro.model.constraints import Constraint, Operator
from repro.model.events import Event
from repro.model.ids import SubscriptionId
from repro.model.subscriptions import Subscription
from repro.model.types import AttributeType

SYMBOLS = ("IBM", "HPQ")
EXCHANGES = ("NYSE",)


def sub(symbol):
    return Subscription([Constraint.string("symbol", Operator.EQ, symbol)])


def event(when, symbol="IBM"):
    return Event.from_pairs([
        ("exchange", AttributeType.STRING, "NYSE"),
        ("symbol", AttributeType.STRING, symbol),
        ("when", AttributeType.DATE, when),
        ("price", AttributeType.FLOAT, 10.0),
    ])


def sid(local):
    return SubscriptionId(0, local, 0b10)


def build():
    """Steps 0..2; one event per step; settle barriers end each step.

    * s_live:    subscribed at set-up, never removed
    * s_removed: subscribed at set-up, unsubscribed in step 1
    * s_added:   subscribed in step 1
    * s_other:   subscribed at set-up, matches HPQ only
    """
    oracle = Oracle(SYMBOLS, EXCHANGES)
    oracle.add(sid(1), sub("IBM"), -1)          # s_live
    oracle.add(sid(2), sub("IBM"), -1)          # s_removed
    oracle.add(sid(4), sub("HPQ"), -1)          # s_other
    oracle.settle(-1, 0.0)
    oracle.settle(0, 10.0)
    oracle.add(sid(3), sub("IBM"), 1)           # s_added
    oracle.remove(sid(2), 1)
    oracle.settle(1, 20.0)
    oracle.settle(2, 30.0)
    published = [(event(100.0), 0), (event(101.0), 1), (event(102.0), 2)]
    return oracle, published


def check(deliveries):
    oracle, published = build()
    when, packed, arrival = array("d"), array("q"), array("d")
    for key, local, at in deliveries:
        when.append(key)
        packed.append(pack_sid(sid(local)))
        arrival.append(at)
    return oracle.check(published, when, packed, arrival)


# The exact deliveries: live and removed before removal, added after adding.
EXACT = [
    (100.0, 1, 5.0), (100.0, 2, 5.0),
    (101.0, 1, 15.0),
    (102.0, 1, 25.0), (102.0, 3, 25.0),
]


def test_exact_deliveries_pass():
    verdict = check(EXACT)
    assert verdict.failures == 0
    assert verdict.expected == 5
    assert verdict.events == 3


def test_pairs_replaced_in_the_step_may_go_either_way():
    # The removed and the added subscription, for the event of step 1.
    verdict = check(EXACT + [(101.0, 2, 15.0), (101.0, 3, 15.0)])
    assert verdict.failures == 0
    assert verdict.exempt_delivered == 2


def test_missing_delivery_to_an_untouched_subscription_fails():
    verdict = check([d for d in EXACT if d[:2] != (101.0, 1)])
    assert verdict.missing == 1 and verdict.failures == 1


def test_delivery_after_removal_step_fails():
    verdict = check(EXACT + [(102.0, 2, 25.0)])
    assert verdict.unexpected == 1


def test_delivery_before_the_subscription_existed_fails():
    verdict = check(EXACT + [(100.0, 3, 5.0)])
    assert verdict.unexpected == 1


def test_exempt_pair_arriving_after_the_settle_fails():
    # Step 1's barrier finished at t=20: a delivery of s_removed arriving
    # later is late even for the exempt step-1 event.
    verdict = check(EXACT + [(101.0, 2, 20.5)])
    assert verdict.late == 1 and verdict.unexpected == 1


def test_duplicates_always_fail():
    verdict = check(EXACT + [(100.0, 1, 6.0)])
    assert verdict.duplicates == 1
    exempt_twice = check(EXACT + [(101.0, 3, 15.0), (101.0, 3, 16.0)])
    assert exempt_twice.duplicates == 1


def test_non_matching_and_unknown_deliveries_fail():
    assert check(EXACT + [(101.0, 4, 15.0)]).unexpected == 1   # HPQ-only sub
    assert check(EXACT + [(999.0, 1, 15.0)]).unexpected == 1   # never published
