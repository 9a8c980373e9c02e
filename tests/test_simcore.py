import pytest

from backfillsim import CausalityError, Simulation, stream_rng


def test_event_at_current_time_fires_first():
    sim = Simulation()
    fired = []
    sim.schedule(0, "a", lambda: fired.append("a"))
    sim.schedule(5, "b", lambda: fired.append("b"))
    sim.run_until(10)
    assert fired == ["a", "b"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulation()
    fired = []
    sim.schedule(100, "first", lambda: fired.append(1))
    sim.schedule(100, "second", lambda: fired.append(2))
    sim.run_until(100)
    assert fired == [1, 2]


def test_scheduling_in_the_past_is_an_error():
    sim = Simulation()
    sim.schedule(60, "tick", lambda: None)
    sim.run_until(60)
    with pytest.raises(CausalityError):
        sim.schedule(50, "late", lambda: None)


def test_run_until_empty_queue_returns_immediately():
    sim = Simulation()
    assert sim.run_until(100) == 0
    assert sim.now == 0


def test_run_until_stops_at_last_fired_event():
    sim = Simulation()
    fired = []
    for t in (10, 20, 30):
        sim.schedule(t, "tick", lambda t=t: fired.append(t))
    assert sim.run_until(25) == 20
    assert fired == [10, 20]
    sim.run()  # the one event left still fires
    assert fired == [10, 20, 30]


def test_handlers_may_schedule_at_current_time():
    sim = Simulation()
    seen = []

    def chain():
        seen.append(sim.now)
        if len(seen) < 3:
            sim.schedule(sim.now, "chain", chain)

    sim.schedule(7, "chain", chain)
    sim.run_until(7)
    assert seen == [7, 7, 7]


def test_cancelled_events_do_not_fire():
    sim = Simulation()
    fired = []
    ev = sim.schedule(5, "a", lambda: fired.append("a"))
    sim.cancel(ev)
    sim.run_until(10)
    assert fired == []


def test_trace_identical_across_replays():
    def build(seed):
        sim = Simulation(seed=seed)
        rng = sim.rng("entity")
        fired = []

        def tick():
            fired.append((sim.now, "tick"))
            delay = int(rng.integers(1, 10))
            if sim.now < 200:
                sim.schedule_in(delay, "tick", tick)

        sim.schedule(0, "tick", tick)
        sim.run_until(500)
        return fired

    assert build(42) == build(42)
    assert build(42) != build(43)


def test_rng_streams_reproducible_and_independent():
    a1 = Simulation(seed=9).rng("alpha").random(5).tolist()
    # creating other streams first must not perturb "alpha"
    sim = Simulation(seed=9)
    sim.rng("zeta")
    sim.rng("beta")
    a2 = sim.rng("alpha").random(5).tolist()
    assert a1 == a2
    assert stream_rng(9, "alpha").random(5).tolist() == a1
    assert stream_rng(9, "beta").random(5).tolist() != a1
    assert stream_rng(10, "alpha").random(5).tolist() != a1


def test_rng_stream_is_cached_per_simulation():
    sim = Simulation(seed=1)
    r1 = sim.rng("x")
    r1.random(3)
    assert sim.rng("x") is r1


def test_fed_arrivals_fire_before_events_at_the_same_second():
    sim = Simulation()
    fired = []
    sim.schedule(10, "event", lambda: fired.append("event"))

    def first():
        fired.append("a1")
        sim.schedule(sim.now, "during", lambda: fired.append("during"))

    sim.feed([(10, "arrival", first), (10, "arrival", lambda: fired.append("a2")),
              (11, "arrival", lambda: fired.append("a3"))])
    assert sim.run_until(10) == 10
    # an event scheduled at t=10, before or during it, waits for every arrival at 10
    assert fired == ["a1", "a2", "event", "during"]
    sim.run()
    assert fired[-1] == "a3"


def test_feed_that_goes_backwards_or_behind_the_clock_raises():
    sim = Simulation()
    sim.feed([(5, "arrival", lambda: None), (3, "arrival", lambda: None)])
    with pytest.raises(CausalityError, match="fed at t=3 but clock is 5"):
        sim.run()

    sim = Simulation()
    sim.schedule(60, "tick", lambda: None)
    sim.run_until(60)
    with pytest.raises(CausalityError, match="fed at t=50 but clock is 60"):
        sim.feed([(50, "late", lambda: None)])


def test_second_feed_while_arrivals_pend_is_an_error():
    sim = Simulation()
    sim.feed([(5, "arrival", lambda: None)])
    with pytest.raises(ValueError, match="pending"):
        sim.feed([(6, "arrival", lambda: None)])
    sim.run()
    sim.feed([(6, "arrival", lambda: None)])  # the first feed is used up


def test_feed_is_pulled_one_arrival_at_a_time():
    sim = Simulation()
    pulled = []  # (fire_at, clock when pulled)

    def arrivals():
        for t in range(0, 200, 7):
            pulled.append((t, sim.now))
            yield t, "arrival", lambda: None

    def tick():
        if sim.now < 150:
            sim.schedule_in(5, "tick", tick)

    sim.schedule(0, "tick", tick)
    sim.feed(arrivals())
    sim.run_until(100)
    # arrivals up to t=98 fired; only the one at t=105 was pulled past the clock
    assert [t for t, _ in pulled] == list(range(0, 106, 7))
    for i, (_, clock) in enumerate(pulled):
        assert sum(t > clock for t, _ in pulled[:i + 1]) <= 1


def test_trace_records_fed_arrivals_in_firing_order():
    sim = Simulation()
    fired = []

    def record(kind):
        return lambda: fired.append((sim.now, kind))

    sim.schedule(5, "event", record("event"))
    sim.feed([(0, "arrival", record("arrival")), (5, "arrival", record("arrival"))])
    sim.run()
    # at an equal time the fed arrival fires before the event scheduled first
    assert fired == [(0, "arrival"), (5, "arrival"), (5, "event")]
