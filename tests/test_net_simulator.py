"""Discrete-event engine: ordering, cancellation, determinism."""

import random

import pytest

from repro.net.simulator import SimulationError, Simulator
from repro.obs import Observability


def plain():
    return Simulator()


def observed():
    """The obs-enabled engine: ``run_until`` takes the observed loop and
    every event pays the counter and trace bookkeeping."""
    return Simulator(obs=Observability.enabled())


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run_all()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_run_fifo(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, log.append, tag)
        sim.run_all()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [5.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.schedule_at(150.0, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [150.0]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run_all()
        assert log == [("first", 1.0), ("second", 3.0)]


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "in")
        sim.schedule(10.0, log.append, "out")
        sim.run_until(5.0)
        assert log == ["in"]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_boundary_event_included(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "edge")
        sim.run_until(5.0)
        assert log == ["edge"]

    def test_event_storm_guard(self):
        sim = Simulator()

        def rebound():
            sim.schedule(0.001, rebound)

        sim.schedule(0.0, rebound)
        with pytest.raises(SimulationError):
            sim.run_until(100.0, max_events=50)

    def test_exactly_max_events_is_allowed(self):
        # Regression for the off-by-one: a run needing exactly
        # max_events events must complete, not raise.
        sim = Simulator()
        log = []
        for index in range(5):
            sim.schedule(float(index), log.append, index)
        assert sim.run_until(10.0, max_events=5) == 5
        assert log == [0, 1, 2, 3, 4]

    def test_one_past_max_events_raises(self):
        sim = Simulator()
        for index in range(6):
            sim.schedule(float(index), lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(10.0, max_events=5)

    def test_cancelled_events_do_not_consume_budget(self):
        sim = Simulator()
        log = []
        for _ in range(5):
            sim.schedule(1.0, log.append, "dead").cancel()
        sim.schedule(2.0, log.append, "live")
        assert sim.run_until(10.0, max_events=1) == 1
        assert log == ["live"]

    def test_run_all_exact_budget(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        assert sim.run_all(max_events=4) == 4
        sim2 = Simulator()
        for _ in range(5):
            sim2.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim2.run_all(max_events=4)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        sim.run_all()
        assert log == []

    def test_cancel_mid_run(self):
        sim = Simulator()
        log = []
        later = sim.schedule(2.0, log.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run_all()
        assert log == []

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run_all()
        assert sim.events_processed == 5


class TestEdgeCases:
    def test_schedule_at_in_past_clamps_to_now(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.schedule_at(50.0, lambda: seen.append(sim.now))
        sim.run_all()
        assert seen == [100.0]

    def test_pending_counts_cancelled_until_drained(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        handles[1].cancel()
        assert sim.pending == 3
        sim.run_all()
        assert sim.pending == 0

    def test_fifo_order_survives_cancellation(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        doomed = sim.schedule(1.0, log.append, "b")
        sim.schedule(1.0, log.append, "c")
        doomed.cancel()
        sim.run_all()
        assert log == ["a", "c"]

    def test_cancelled_events_not_counted_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.run_until(5.0) == 1
        assert sim.events_processed == 1


class TestScheduleValidation:
    """NaN/infinity rejection (regression tests).

    NaN is the insidious one: it loses every comparison, so a NaN-timed
    heap entry silently breaks the heap invariant and events start
    firing out of order — and ``max(0.0, nan)`` in ``schedule_at``'s
    clamp would convert a poisoned timestamp into an immediate event.
    Both must be loud errors instead.
    """

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), -1.0, -0.001]
    )
    def test_schedule_rejects_nonfinite_and_negative_delays(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        assert sim.pending == 0

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_schedule_at_rejects_nonfinite_times(self, time):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(time, lambda: None)
        assert sim.pending == 0

    def test_rejected_delay_leaves_trajectory_intact(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), fired.append, "poison")
        sim.schedule(2.0, fired.append, "b")
        sim.run_all()
        assert fired == ["a", "b"]


def run_storm(factory, seed, cap=2500):
    """A deterministic, self-scheduling storm with ties and cancels.

    The RNG is consumed only inside callbacks, in firing order — so two
    engines stay in lockstep exactly as long as they fire identically,
    and any ordering divergence snowballs into a different log.
    """
    sim = factory()
    rng = random.Random(seed)
    log = []
    cancellable = []

    def spawn(label):
        def callback():
            log.append((sim.now, label))
            if len(log) >= cap:
                return
            u = rng.random()
            if u < 0.30:
                # Same-timestamp burst: three FIFO ties.
                delay = rng.random() * 2.0
                for i in range(3):
                    cancellable.append(
                        sim.schedule(delay, spawn(label * 7 + i + 1))
                    )
            elif u < 0.62:
                sim.schedule(rng.random() * 5.0, spawn(label + 101))
            elif u < 0.72 and cancellable:
                cancellable.pop(rng.randrange(len(cancellable))).cancel()
            elif u < 0.76:
                # Rejected delays must not consume queue state.
                with pytest.raises(SimulationError):
                    sim.schedule(float("nan"), callback)
            elif u < 0.80:
                sim.schedule(25.0 + rng.random() * 100.0, spawn(label + 977))
        return callback

    for i in range(40):
        cancellable.append(sim.schedule(rng.random() * 10.0, spawn(i)))
    processed = [sim.run_until(horizon)
                 for horizon in (6.0, 6.0, 21.5, 80.0, 400.0)]
    processed.append(sim.run_all())
    return log, processed, sim.events_processed, sim.now, sim.pending


class TestObservedEngineEquivalence:
    """The hot loop against the obs-enabled engine: same firing order,
    same counts, for any legal schedule/cancel/run sequence."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 1016])
    def test_plain_and_observed_engines_agree(self, seed):
        assert run_storm(plain, seed) == run_storm(observed, seed)

    def test_fifo_among_equal_timestamps_with_nested_schedule(self):
        """Ties fire in schedule order, and an event a tie schedules at
        the running timestamp fires after the whole tie run."""
        def run(factory):
            sim = factory()
            log = []

            def tick(tag):
                log.append((sim.now, tag))
                if tag == "a0":
                    sim.schedule(0.0, lambda: log.append((sim.now, "nested")))
            for i in range(6):
                sim.schedule(1.0, lambda i=i: tick(f"a{i}"))
                sim.schedule(1.0 + 1e-12, lambda i=i: tick(f"b{i}"))
            sim.run_until(5.0)
            return log

        log = run(plain)
        assert [tag for _, tag in log[:7]] == [
            "a0", "a1", "a2", "a3", "a4", "a5", "nested"
        ]
        assert log == run(observed)

    def test_horizon_pause_then_earlier_schedule(self):
        """After a horizon pause, a schedule targeting a time before the
        pending event still fires first."""
        def run(factory):
            sim = factory()
            log = []
            sim.schedule(10.0, lambda: log.append("late"))
            sim.run_until(2.0)  # fires nothing, but establishes now=2.0
            sim.schedule(1.0, lambda: log.append("early"))  # t=3.0 < 10.0
            sim.run_until(20.0)
            return log

        assert run(plain) == run(observed) == ["early", "late"]

    def test_max_events_raises_identically(self):
        def run(factory):
            sim = factory()
            fired = []
            for i in range(10):
                sim.schedule(float(i), lambda i=i: fired.append(i))
            with pytest.raises(SimulationError):
                sim.run_until(100.0, max_events=4)
            # The budgeted entries fired; the rest are still queued.
            resumed = sim.run_until(100.0)
            return fired, resumed, sim.events_processed

        assert run(plain) == run(observed)

    def test_step_drains_cancelled_and_dispatches(self):
        def run(factory):
            sim = factory()
            fired = []
            sim.schedule(1.0, lambda: fired.append("keep"))
            for _ in range(3):
                sim.schedule(0.5, lambda: fired.append("dead")).cancel()
            steps = []
            while sim.step():
                steps.append(sim.now)
            return fired, steps, sim.events_processed, sim.pending

        assert run(plain) == run(observed) == (["keep"], [1.0], 1, 0)

    def test_run_all_budget_ignores_cancelled_tail(self):
        def run(factory):
            sim = factory()
            for i in range(5):
                sim.schedule(float(i), lambda: None)
            sim.schedule(9.0, lambda: None).cancel()
            return sim.run_all(max_events=5), sim.pending

        assert run(plain) == run(observed) == (5, 0)
