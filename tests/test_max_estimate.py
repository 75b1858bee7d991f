"""Unit tests for the global-skew estimate M_v (Lemma C.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks import ConstantRate, HardwareClock
from repro.core.max_estimate import MaxEstimate, _ClusterTally
from repro.errors import ConfigError
from repro.sim import Simulator

#: Two clusters: 0 owns nodes 1..4, 1 owns nodes 5..8; node 0 is us.
CLUSTER_OF = {n: 0 for n in range(1, 5)}
CLUSTER_OF.update({n: 1 for n in range(5, 9)})


def make_max(rho=0.1, unit=1.0, f=1, initial=0.0, hw_rate=None,
             transit_bonus=1.0):
    """Paper configuration: unit == transit_bonus == d - U."""
    sim = Simulator()
    rate = hw_rate if hw_rate is not None else 1.0 + rho
    hw = HardwareClock(sim, ConstantRate(rate), rho=rho)
    sent = []
    est = MaxEstimate(sim, hw, rho, unit, f, CLUSTER_OF, initial,
                      send_pulse=lambda: sent.append(sim.now),
                      transit_bonus=transit_bonus)
    return sim, est, sent


class TestLocalProgress:
    def test_rate_is_scaled_down(self):
        sim, est, _ = make_max(rho=0.1, hw_rate=1.1)
        est.start()
        sim.run(until=11.0)
        # h/(1+rho) = 1.1/1.1 = 1.0
        assert est.value() == pytest.approx(11.0)

    def test_never_exceeds_true_time_budget(self):
        # With h <= 1+rho, M advances at <= 1: can never overtake a
        # correct clock that advances at >= 1.
        sim, est, _ = make_max(rho=0.1, hw_rate=1.05)
        est.start()
        sim.run(until=100.0)
        assert est.value() <= 100.0 + 1e-9

    def test_pulses_sent_at_unit_multiples(self):
        sim, est, sent = make_max(rho=0.0, unit=2.0, hw_rate=1.0)
        est.start()
        sim.run(until=7.0)
        # Crossings at M = 2, 4, 6 -> times 2, 4, 6.
        assert [pytest.approx(t) for t in (2.0, 4.0, 6.0)] == sent

    def test_initial_value_counts_toward_levels(self):
        sim, est, sent = make_max(rho=0.0, unit=2.0, initial=5.0,
                                  hw_rate=1.0)
        est.start()
        sim.run(until=2.0)
        # M starts at 5 (level 2 announced implicitly); next crossing
        # is M=6 at t=1.
        assert len(sent) == 1
        assert sent[0] == pytest.approx(1.0)


class TestFloodRule:
    def test_f_plus_one_witnesses_trigger_jump(self):
        sim, est, sent = make_max(rho=0.1, unit=1.0, f=1, hw_rate=1.0)
        est.start()
        # Two members (f+1 = 2) of cluster 0 each announce 3 levels.
        for _ in range(3):
            est.on_pulse(1, sim.now)
            est.on_pulse(2, sim.now)
        # Confirmed level 3 -> jump to (3+1)*unit = 4.
        assert est.value() == pytest.approx(4.0)
        assert est.jumps >= 1
        # Our own announcements must cover the jumped levels 1..4.
        assert est.pulses_sent >= 4

    def test_single_witness_is_ignored(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1, hw_rate=1.0)
        est.start()
        for _ in range(5):
            est.on_pulse(1, sim.now)  # one Byzantine flooder
        assert est.value() == pytest.approx(0.0)

    def test_witnesses_split_across_clusters_ignored(self):
        """One sender per cluster is not f+1 in any *single* cluster."""
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1, hw_rate=1.0)
        est.start()
        for _ in range(4):
            est.on_pulse(1, sim.now)  # cluster 0
            est.on_pulse(5, sim.now)  # cluster 1
        assert est.value() == pytest.approx(0.0)

    def test_unknown_sender_ignored(self):
        sim, est, _ = make_max()
        est.start()
        est.on_pulse(999, 0.0)
        assert est.value() == pytest.approx(0.0)

    def test_jump_is_monotone(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1, initial=10.0,
                               hw_rate=1.0)
        est.start()
        est.on_pulse(1, sim.now)
        est.on_pulse(2, sim.now)
        # Confirmed level 1 -> target 2 < current 10: no jump.
        assert est.value() == pytest.approx(10.0)
        assert est.jumps == 0


class TestValidation:
    def test_bad_unit(self):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.0), rho=0.1)
        with pytest.raises(ConfigError):
            MaxEstimate(sim, hw, 0.1, 0.0, 1, {}, 0.0, lambda: None)

    def test_double_start_rejected(self):
        sim, est, _ = make_max()
        est.start()
        with pytest.raises(ConfigError):
            est.start()

    def test_stopped_estimate_ignores_pulses(self):
        sim, est, _ = make_max(f=0)
        est.start()
        est.stop()
        est.on_pulse(1, 0.0)
        assert est.value() == pytest.approx(0.0)


class TestFirstContactReset:
    def test_announced_level_exposed(self):
        sim, est, sent = make_max(rho=0.0, unit=2.0, hw_rate=1.0)
        est.start()
        sim.run(until=6.5)
        assert est.announced_level == 3
        assert len(sent) == 3

    def test_reset_sender_restarts_decode_from_zero(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1)
        est.start()
        # Two witnesses from cluster 0 at level 2 -> jump.
        for sender in (1, 2):
            for _ in range(2):
                est.on_pulse(sender, sim.now)
        assert est.jumps >= 1  # levels 1 and 2 both confirm
        value_after_jump = est.value()
        est.reset_sender(1)
        est.reset_sender(2)
        assert est.sender_resets == 2
        # The estimate itself is untouched (M never moves backwards)...
        assert est.value() >= value_after_jump
        # ...and a re-announced stream decodes from level 1 again:
        # one pulse each re-attests only level 1, which cannot raise
        # the already-higher estimate (undercount = sound direction).
        jumps_before = est.jumps
        for sender in (1, 2):
            est.on_pulse(sender, sim.now)
        assert est.jumps == jumps_before

    def test_reset_then_full_reannounce_restores_decode(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1)
        est.start()
        for sender in (1, 2):
            for _ in range(3):
                est.on_pulse(sender, sim.now)
        level_settled = est.value()
        est.reset_sender(1)
        est.reset_sender(2)
        # The paired protocol: senders re-announce their full level
        # over the fresh link; the decode then reads it exactly.
        for sender in (1, 2):
            for _ in range(5):
                est.on_pulse(sender, sim.now)
        assert est.value() >= level_settled

    def test_quarantine_drops_pre_outage_in_flight_pulses(self):
        """The over-count hole: a pulse in flight from before the
        outage must not stack on top of the re-announced stream."""
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1)
        est.start()
        est.reset_sender(1, quarantine_until=sim.now + 1.0)  # d = 1
        # Arrivals inside the window (possibly pre-outage) are dropped.
        est.on_pulse(1, sim.now + 0.5)
        assert est.quarantined_pulses == 1
        assert est._sender_levels.get(1) is None
        # Arrivals at or after the deadline (the delayed
        # re-announcement's earliest possible arrival) count normally.
        est.on_pulse(1, sim.now + 1.0)
        assert est._sender_levels[1] == 1
        # The quarantine clears after the first post-deadline pulse.
        est.on_pulse(1, sim.now + 1.1)
        assert est._sender_levels[1] == 2


class TestStopStart:
    def test_stop_cancels_level_alarm(self):
        """Regression: stop() left its next-level alarm armed, so each
        stop/start (a crash -> rejoin) added one more level chain."""
        sim, est, sent = make_max(rho=0.0, unit=1.0, hw_rate=1.0)
        est.start()
        assert est._clock.pending_alarms() == 1
        for _ in range(4):
            sim.run(until=sim.now + 0.25)
            est.stop()
            assert est._clock.pending_alarms() == 0
            est.start()
            assert est._clock.pending_alarms() == 1
        sim.run(until=10.0)
        assert est._clock.pending_alarms() == 1
        # One pulse per level crossed, none duplicated.
        assert est.announced_level == 10
        assert est.pulses_sent == len(sent) == 10

    def test_stopped_estimate_announces_nothing(self):
        sim, est, sent = make_max(rho=0.0, unit=1.0, hw_rate=1.0)
        est.start()
        sim.run(until=2.5)
        est.stop()
        sim.run(until=5.5)
        assert len(sent) == 2
        # Restarting announces the levels crossed while stopped.
        est.start()
        sim.run(until=5.6)
        assert len(sent) == 5


class TestClusterTally:
    def test_matches_order_statistic(self):
        tally = _ClusterTally(f=1)
        levels = {}
        for member in (1, 2, 3, 1, 1, 2, 3, 3, 3):
            old = levels.get(member, 0)
            levels[member] = old + 1
            tally.raise_member(old, old + 1)
            ranked = sorted(levels.values(), reverse=True)
            assert tally.confirmed == (ranked[1] if len(ranked) > 1 else 0)

    def test_counts_stay_bounded(self):
        """Only levels above the confirmed one are kept: at most f."""
        tally = _ClusterTally(f=2)
        levels = [0, 0, 0, 0]
        # Member 0 floods three pulses per turn and races ahead.
        for member in [0, 0, 0, 1, 2, 3] * 100:
            levels[member] += 1
            tally.raise_member(levels[member] - 1, levels[member])
            assert len(tally.counts) <= 2
            assert tally.above == sum(tally.counts.values()) <= 2
        assert tally.confirmed == 100

    def test_raise_by_many_levels(self):
        tally = _ClusterTally(f=1)
        tally.raise_member(0, 7)
        assert tally.confirmed == 0
        tally.raise_member(0, 4)
        assert tally.confirmed == 4
        tally.raise_member(4, 9)
        assert tally.confirmed == 7


class TestJumpSkip:
    def test_jump_to_called_only_for_new_confirmed_levels(self):
        sim, est, _ = make_max(rho=0.1, unit=1.0, f=1, hw_rate=1.0)
        est.start()
        calls = []
        jump_to = est._clock.jump_to
        est._clock.jump_to = lambda value: (calls.append(value),
                                            jump_to(value))[1]
        for _ in range(3):
            for sender in (1, 2, 3, 4):
                est.on_pulse(sender, sim.now)
        # Levels 1, 2, 3 each confirm once (at the second witness);
        # the other pulses cannot raise M and skip the clock.
        assert calls == [2.0, 3.0, 4.0]
        assert est.jumps == 3


class _SortDecodeMaxEstimate(MaxEstimate):
    """Test reference: the sort-based decode the tally replaced.

    Re-sorts every sender's level per pulse and calls ``jump_to`` on
    every confirmed level; ``reset_sender`` only forgets the sender.
    """

    def reset_sender(self, sender, quarantine_until=None):
        self._sender_levels.pop(sender, None)
        if quarantine_until is not None:
            self._quarantine[sender] = quarantine_until
        self.sender_resets += 1

    def on_pulse(self, sender, receive_time):
        if not self._running:
            return
        self.pulses_received += 1
        if self._quarantine:
            until = self._quarantine.get(sender)
            if until is not None:
                if receive_time < until:
                    self.quarantined_pulses += 1
                    return
                del self._quarantine[sender]
        level = self._sender_levels.get(sender, 0) + 1
        self._sender_levels[sender] = level
        confirmed = self._confirmed_level(self._cluster_of.get(sender))
        if confirmed <= 0:
            return
        target = confirmed * self._unit + self._transit_bonus
        if self._clock.jump_to(target):
            self.jumps += 1
            self._announce_up_to(self._level_of(self.value()))

    def _confirmed_level(self, cluster):
        if cluster is None:
            return 0
        levels = sorted(
            (lvl for sender, lvl in self._sender_levels.items()
             if self._cluster_of.get(sender) == cluster),
            reverse=True)
        if len(levels) <= self._f:
            return 0
        return levels[self._f]


def _build_pair(cluster_sizes, f):
    """The incremental decode and the sort reference, each on its own
    kernel with identical clocks; senders 100+ belong to no cluster."""
    cluster_of = {}
    for cluster, size in enumerate(cluster_sizes):
        for i in range(size):
            cluster_of[10 * cluster + i + 1] = cluster
    pair = []
    for cls in (MaxEstimate, _SortDecodeMaxEstimate):
        sim = Simulator()
        hw = HardwareClock(sim, ConstantRate(1.05), rho=0.1)
        est = cls(sim, hw, 0.1, 1.0, f, cluster_of, 0.0,
                  send_pulse=lambda: None, transit_bonus=0.5)
        est.start()
        pair.append((sim, est))
    return cluster_of, pair


_STEP = st.one_of(
    st.tuples(st.just("pulse"), st.integers(0, 40),
              st.sampled_from([0.0, 0.0, 0.05, 0.3]),
              st.sampled_from([0.0, 0.0, 0.4, 1.5])),
    st.tuples(st.just("reset"), st.integers(0, 40),
              st.sampled_from([None, 0.5, 2.0]), st.just(0.0)),
)


class TestIncrementalDecodeMatchesSort:
    @given(cluster_sizes=st.lists(st.integers(1, 5), min_size=2,
                                  max_size=3),
           f=st.integers(0, 2),
           steps=st.lists(_STEP, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_differential(self, cluster_sizes, f, steps):
        cluster_of, pair = _build_pair(cluster_sizes, f)
        senders = sorted(cluster_of) + [100, 101]
        clusters = range(len(cluster_sizes))
        (sim_a, fast), (sim_b, ref) = pair
        for kind, pick, arg, advance in steps:
            sender = senders[pick % len(senders)]
            if advance:
                sim_a.run(until=sim_a.now + advance)
                sim_b.run(until=sim_b.now + advance)
            if kind == "pulse":
                fast.on_pulse(sender, sim_a.now + arg)
                ref.on_pulse(sender, sim_b.now + arg)
            else:
                until = None if arg is None else sim_a.now + arg
                fast.reset_sender(sender, quarantine_until=until)
                ref.reset_sender(sender, quarantine_until=until)
            for cluster in clusters:
                assert (fast._confirmed_level(cluster)
                        == ref._confirmed_level(cluster))
            assert fast._confirmed_level(None) == 0
            assert fast.value() == ref.value()
            assert fast.jumps == ref.jumps
            assert fast.pulses_sent == ref.pulses_sent
            assert fast.quarantined_pulses == ref.quarantined_pulses
