import asyncio

import pytest

from spans import SpanTracer, TracedAwaitable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_tree():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    a = tracer.open("a")          # t=0
    clock.now = 1.0
    b = tracer.open("b")          # a runs 0..1
    clock.now = 3.0
    c = tracer.open("c")          # b runs 1..3
    clock.now = 4.0
    tracer.close(c)               # c runs 3..4
    clock.now = 6.0
    b2 = tracer.open("b")         # b runs 4..6; a second "b" nested in b
    clock.now = 6.5
    tracer.close(b2)
    tracer.close(b)
    clock.now = 7.0
    tracer.close(a)               # a runs 6.5..7
    clock.now = 10.0              # idle 7..10

    totals = tracer.totals
    assert totals["a"].self_time == pytest.approx(1.5)
    assert totals["b"].self_time == pytest.approx(4.5)
    assert totals["c"].self_time == pytest.approx(1.0)
    assert totals["b"].calls == 2
    assert totals["a"].wall_time == pytest.approx(7.0)
    # a's descendants executed for 5.5 of its 7 seconds.
    assert totals["a"].child_time == pytest.approx(5.5)
    assert tracer.idle_time(10.0) == pytest.approx(3.0)
    listed = sum(t.self_time for t in totals.values())
    assert listed + tracer.idle_time(10.0) == pytest.approx(10.0)


def test_records_keep_parent_and_trace_id(tmp_path):
    clock = FakeClock()
    tracer = SpanTracer(clock)
    outer = tracer.open("outer", trace_id=42)
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    path = tmp_path / "spans.jsonl"
    assert tracer.write_jsonl(path) == 2
    import json

    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["name"] == "outer" and rows[0]["parent"] == -1
    assert rows[1]["name"] == "inner" and rows[1]["parent"] == 0
    assert rows[1]["trace_id"] == 42  # inherited from the parent


def test_record_cap_keeps_aggregates_exact():
    clock = FakeClock()
    tracer = SpanTracer(clock, max_records=1)
    for _ in range(3):
        span = tracer.open("x")
        clock.now += 1.0
        tracer.close(span)
    assert tracer.record_count() == 1
    assert tracer.dropped_records == 2
    assert tracer.totals["x"].calls == 3
    assert tracer.totals["x"].self_time == pytest.approx(3.0)


def test_async_spans_crossing_awaits_charge_only_executing_segments():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    async def body(name, gate, before, child, after):
        clock.now += before
        span = tracer.open(name + ".child")
        clock.now += child
        tracer.close(span)
        await gate                     # suspends: the other task runs
        clock.now += after
        return name

    async def drive(awaitable):
        return await awaitable

    async def explicit():
        loop = asyncio.get_running_loop()
        gate_a, gate_b = loop.create_future(), loop.create_future()
        task_a = loop.create_task(drive(TracedAwaitable(tracer, "A", body("A", gate_a, 1, 2, 3))))
        task_b = loop.create_task(drive(TracedAwaitable(tracer, "B", body("B", gate_b, 4, 5, 6))))
        await asyncio.sleep(0)         # A runs to its await (t=3), then B (t=12)
        await asyncio.sleep(0)
        clock.now += 10.0              # idle: nothing traced runs
        gate_a.set_result(None)
        assert await task_a == "A"     # A resumes: 3 more
        clock.now += 1.0               # idle
        gate_b.set_result(None)
        assert await task_b == "B"     # B resumes: 6 more

    asyncio.run(explicit())
    totals = tracer.totals
    assert totals["A"].self_time == pytest.approx(1 + 3)
    assert totals["A.child"].self_time == pytest.approx(2)
    assert totals["B"].self_time == pytest.approx(4 + 6)
    assert totals["B.child"].self_time == pytest.approx(5)
    # A's wall time includes B's segments and the idle gap.
    assert totals["A"].wall_time == pytest.approx(3 + 9 + 10 + 3)
    wall = clock.now
    listed = sum(t.self_time for t in totals.values())
    assert listed == pytest.approx(21.0)
    assert tracer.idle_time(wall) == pytest.approx(11.0)
    assert listed + tracer.idle_time(wall) == pytest.approx(wall)


def test_async_span_closes_on_error_and_cancellation():
    clock = FakeClock()
    tracer = SpanTracer(clock)

    async def failing():
        await asyncio.sleep(0)
        clock.now += 1.0
        raise KeyError("boom")

    async def blocked():
        await asyncio.Event().wait()

    async def scenario():
        with pytest.raises(KeyError):
            await TracedAwaitable(tracer, "fail", failing())

        async def wrap():
            return await TracedAwaitable(tracer, "cancelled", blocked())

        task = asyncio.get_running_loop().create_task(wrap())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(scenario())
    assert tracer.totals["fail"].calls == 1
    assert tracer.totals["fail"].self_time == pytest.approx(1.0)
    assert tracer.totals["cancelled"].calls == 1
    # Nothing left on the executing stack.
    span = tracer.open("after")
    tracer.close(span)
    assert tracer.totals["after"].calls == 1
