"""Program defects behind :data:`workloads.KNOWN_FAILING`, reproduced in
the simulator.

Each test is a strict xfail: it passes (and so fails the suite) once the
defect is fixed, which is the cue to put the workload back in
``BENCHMARK.json`` and drop it from ``KNOWN_FAILING``.
"""

import pytest

from repro import Event, SummaryPubSub, parse_subscription, stock_schema
from repro.network import Topology


@pytest.mark.xfail(strict=True, reason="a removed coverer's dependents are re-homed "
                   "under a coverer still pending until the next period")
def test_fanout_churn_rehome_under_pending_coverer_delivers():
    system = SummaryPubSub(topology=Topology.line(4), schema=stock_schema())

    def sub(text):
        return system.subscribe(0, parse_subscription(system.schema, text))

    coverer = sub("symbol >* 'HP' AND volume > 150000")
    covered = sub("symbol >* 'HP' AND volume > 260000")
    system.run_propagation_period()
    sub("symbol >* 'HP' AND volume > 100000")  # pending: covers both
    assert system.unsubscribe(0, coverer)
    result = system.publish(0, Event.of(symbol="HPQ", volume=789251))
    # ``covered`` has not been touched since the last period.
    assert covered in {delivery.sid for delivery in result.deliveries}
