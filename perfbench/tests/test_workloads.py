import pytest

from oracle import Oracle
from repro.model.ids import SubscriptionId
from repro.workload.stocks import DEFAULT_EXCHANGES, DEFAULT_SYMBOLS
from workloads import BROKERS, PROBE_SYMBOL, STREAMS, WORKLOADS, WorkloadInputs


def traffic(inputs):
    """Everything ``--seed`` drives: every event stream and the churn
    victim choices."""
    return (
        {name: [tuple(e.items()) for e in inputs.stream(name).burst(32)]
         for name in STREAMS},
        [inputs.victims.random() for _ in range(8)],
    )


def population(inputs):
    return (
        {b: list(subs) for b, subs in inputs.initial.items()},
        [inputs.fresh_subscription() for _ in range(8)],
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_traffic(name):
    spec = WORKLOADS[name]
    first, again, other = (WorkloadInputs(spec, s) for s in (7, 7, 8))
    mine, theirs = traffic(first), traffic(other)
    assert mine == traffic(again)
    for stream in STREAMS:
        assert mine[0][stream] != theirs[0][stream]
    assert mine[1] != theirs[1]
    # The population is part of the workload, not of the traffic seed.
    assert population(first) == population(again) == population(other)


def test_streams_restart_identically():
    inputs = WorkloadInputs(WORKLOADS["fanout_churn"], 5)
    a, b = inputs.stream("capacity"), inputs.stream("capacity")
    assert [tuple(e.items()) for e in a.burst(10)] == [tuple(e.items()) for e in b.burst(10)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_population_and_unique_event_keys(name):
    spec = WORKLOADS[name]
    inputs = WorkloadInputs(spec, 3)
    assert all(len(inputs.initial[b]) == spec.subs_per_broker for b in BROKERS)
    events = [e for stream in STREAMS for e in inputs.stream(stream).burst(200)]
    keys = [e.value("when") for e in events]
    assert len(set(keys)) == len(keys)  # latency and oracle key on ``when``
    for event in events:
        inputs.schema.validate_event(event)
        assert event.value("symbol") in DEFAULT_SYMBOLS
        assert event.value("exchange") in DEFAULT_EXCHANGES


def test_probe_subscriptions_match_nothing():
    inputs = WorkloadInputs(WORKLOADS["ticker_small"], 1)
    probe = inputs.probe_subscription()
    assert probe.constraints_on("symbol")[0].value.startswith(PROBE_SYMBOL)
    assert probe != inputs.probe_subscription()
    assert not any(probe.matches(e) for e in inputs.stream("open").burst(256))


def notifications_per_publish(name, seed, events=3000):
    inputs = WorkloadInputs(WORKLOADS[name], seed)
    oracle = Oracle(DEFAULT_SYMBOLS, DEFAULT_EXCHANGES)
    local = 0
    for broker, subscriptions in inputs.initial.items():
        for subscription in subscriptions:
            local += 1
            oracle.add(SubscriptionId(broker, local, 1), subscription, -1)
    burst = inputs.stream("open").burst(events)
    return sum(len(oracle.expected_for(e, 0)[0]) for e in burst) / events


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_selective_large_lands_in_its_band(seed):
    """About 0.13 confirmed notifications per publish: the selective
    regime the workload exists for (band 0.08-0.20)."""
    assert 0.08 <= notifications_per_publish("selective_large", seed) <= 0.20


def test_fanout_churn_fans_out():
    """Tens of notifications per publish (band 30-70 around ~48)."""
    assert 30.0 <= notifications_per_publish("fanout_churn", 1, events=400) <= 70.0
