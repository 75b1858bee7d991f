"""Unit tests for delay models and the network."""

import random

import pytest

from repro.errors import NetworkError, SimulationError
from repro.harness.serialize import content_hash
from repro.net import (
    BiasedDelay,
    DelayModel,
    ExtremalDelay,
    FixedDelay,
    Network,
    PolicyDelay,
    Pulse,
    PulseKind,
    UniformDelay,
)
from repro.sim import Simulator


def make_net(d=1.0, u=0.2, model=None):
    sim = Simulator()
    net = Network(sim, d=d, u=u, default_delay_model=model or FixedDelay(d))
    return sim, net


class TestDelayModels:
    def test_fixed(self):
        assert FixedDelay(0.7).draw(0, 1, 0.0) == pytest.approx(0.7)

    def test_uniform_within_envelope(self):
        rng = random.Random(0)
        model = UniformDelay(1.0, 0.3, rng)
        draws = [model.draw(0, 1, 0.0) for _ in range(200)]
        assert all(0.7 <= x <= 1.0 for x in draws)
        assert max(draws) - min(draws) > 0.1  # actually random

    def test_extremal(self):
        assert ExtremalDelay(1.0, 0.3, "max").draw(0, 1, 0.0) == 1.0
        assert ExtremalDelay(1.0, 0.3, "min").draw(0, 1, 0.0) == 0.7
        with pytest.raises(NetworkError):
            ExtremalDelay(1.0, 0.3, "mid")

    def test_biased_by_direction(self):
        model = BiasedDelay(forward=1.0, backward=0.7)
        assert model.draw(0, 1, 0.0) == 1.0
        assert model.draw(1, 0, 0.0) == 0.7

    def test_policy(self):
        model = PolicyDelay(lambda s, r, now: 0.8 if s == 0 else 0.9)
        assert model.draw(0, 5, 0.0) == 0.8
        assert model.draw(5, 0, 0.0) == 0.9

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(NetworkError):
            UniformDelay(0.0, 0.0, rng)
        with pytest.raises(NetworkError):
            UniformDelay(1.0, 1.5, rng)
        with pytest.raises(NetworkError):
            FixedDelay(-1.0)


class TestTopologyConstruction:
    def test_add_nodes_and_links(self):
        _, net = make_net()
        for i in range(3):
            net.add_node(i)
        net.add_link(0, 1)
        net.add_link(1, 2)
        assert net.neighbors(1) == (0, 2)
        assert net.has_link(0, 1)
        assert not net.has_link(0, 2)

    def test_duplicate_node_rejected(self):
        _, net = make_net()
        net.add_node(0)
        with pytest.raises(NetworkError):
            net.add_node(0)

    def test_self_link_rejected(self):
        _, net = make_net()
        net.add_node(0)
        with pytest.raises(NetworkError):
            net.add_link(0, 0)

    def test_duplicate_link_rejected(self):
        _, net = make_net()
        net.add_node(0)
        net.add_node(1)
        net.add_link(0, 1)
        with pytest.raises(NetworkError):
            net.add_link(1, 0)

    def test_unknown_node_rejected(self):
        _, net = make_net()
        net.add_node(0)
        with pytest.raises(NetworkError):
            net.add_link(0, 99)
        with pytest.raises(NetworkError):
            net.neighbors(99)


class TestMessaging:
    def test_unicast_delivery(self):
        sim, net = make_net(d=1.0, u=0.0)
        received = []
        net.add_node(0)
        net.add_node(1, lambda msg, t: received.append((msg, t)))
        net.add_link(0, 1)
        net.send(0, 1, "hello")
        sim.run(until=2.0)
        assert received == [("hello", pytest.approx(1.0))]

    def test_broadcast_reaches_all_neighbors(self):
        sim, net = make_net(d=0.5, u=0.0, model=FixedDelay(0.5))
        inboxes = {i: [] for i in range(4)}
        for i in range(4):
            net.add_node(i, lambda msg, t, i=i: inboxes[i].append(msg))
        net.add_link(0, 1)
        net.add_link(0, 2)
        net.add_link(0, 3)
        count = net.broadcast(0, Pulse(sender=0))
        sim.run(until=1.0)
        assert count == 3
        for i in (1, 2, 3):
            assert len(inboxes[i]) == 1
            assert inboxes[i][0].sender == 0
            assert inboxes[i][0].kind is PulseKind.SYNC
        assert inboxes[0] == []

    def test_send_to_non_neighbor_rejected(self):
        _, net = make_net()
        net.add_node(0)
        net.add_node(1)
        with pytest.raises(NetworkError):
            net.send(0, 1, "x")

    def test_send_with_delay_envelope_enforced(self):
        sim, net = make_net(d=1.0, u=0.2)
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        net.send_with_delay(0, 1, "ok", 0.8)
        with pytest.raises(NetworkError):
            net.send_with_delay(0, 1, "early", 0.5)
        with pytest.raises(NetworkError):
            net.send_with_delay(0, 1, "late", 1.5)

    def test_delay_model_violating_envelope_rejected(self):
        sim, net = make_net(d=1.0, u=0.1, model=FixedDelay(0.2))
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        with pytest.raises(NetworkError):
            net.send(0, 1, "x")

    def test_per_link_model_override(self):
        sim, net = make_net(d=1.0, u=0.5, model=FixedDelay(1.0))
        times = []
        net.add_node(0)
        net.add_node(1, lambda m, t: times.append(t))
        net.add_link(0, 1)
        net.set_link_delay_model(0, 1, FixedDelay(0.5), direction="ab")
        net.send(0, 1, "fast")
        sim.run(until=2.0)
        assert times == [pytest.approx(0.5)]

    def test_directional_override_leaves_reverse(self):
        sim, net = make_net(d=1.0, u=0.5, model=FixedDelay(1.0))
        times = []
        net.add_node(0, lambda m, t: times.append(("to0", t)))
        net.add_node(1, lambda m, t: times.append(("to1", t)))
        net.add_link(0, 1)
        net.set_link_delay_model(0, 1, FixedDelay(0.5), direction="ab")
        net.send(1, 0, "slow")
        sim.run(until=2.0)
        assert times == [("to0", pytest.approx(1.0))]

    def test_message_counters(self):
        sim, net = make_net(d=1.0, u=0.0)
        net.add_node(0)
        net.add_node(1, lambda m, t: None)
        net.add_link(0, 1)
        net.send(0, 1, "x")
        assert net.messages_sent == 1
        sim.run(until=2.0)
        assert net.messages_delivered == 1

    def test_missing_handler_is_dropped_silently(self):
        sim, net = make_net(d=1.0, u=0.0)
        net.add_node(0)
        net.add_node(1)  # no handler: models a crashed receiver
        net.add_link(0, 1)
        net.send(0, 1, "x")
        sim.run(until=2.0)
        assert net.messages_delivered == 1


class _OutOfModelDelay(DelayModel):
    """Fault-injection model: a fixed draw the envelope does not bind."""

    in_model = False

    def __init__(self, delay):
        self._delay = delay

    def draw(self, sender, receiver, now):
        return self._delay


class TestBroadcastFastPath:
    """``broadcast`` resolves models and bounds once per call; every
    per-link and out-of-envelope rule of ``send`` still applies."""

    def _star(self, net, times):
        for i in range(3):
            net.add_node(i, lambda m, t, i=i: times.append((i, t)))
        net.add_link(0, 1)
        net.add_link(0, 2)

    def test_directional_override_used_by_broadcast(self):
        sim, net = make_net(d=1.0, u=0.5, model=FixedDelay(1.0))
        times = []
        self._star(net, times)
        net.set_link_delay_model(0, 1, FixedDelay(0.5), direction="ab")
        assert net.broadcast(0, "out") == 2
        sim.run(until=2.0)
        assert times == [(1, pytest.approx(0.5)), (2, pytest.approx(1.0))]
        times.clear()
        net.broadcast(1, "back")  # the reverse direction keeps d
        sim.run(until=4.0)
        assert times == [(0, pytest.approx(3.0))]

    @pytest.mark.parametrize("delay", [0.2, 1.5])
    def test_in_model_draw_outside_envelope_rejected(self, delay):
        sim, net = make_net(d=1.0, u=0.1, model=FixedDelay(delay))
        self._star(net, [])
        with pytest.raises(NetworkError, match="outside envelope"):
            net.broadcast(0, "x")

    @pytest.mark.parametrize("u, delay", [(0.1, -0.1), (1.0, -5e-10)])
    def test_out_of_model_negative_draw_rejected(self, u, delay):
        # With U = d the envelope tolerance reaches below zero; an
        # out-of-model draw there must still fail the sign check.
        sim, net = make_net(d=1.0, u=u, model=_OutOfModelDelay(delay))
        self._star(net, [])
        with pytest.raises(NetworkError, match="non-negative"):
            net.broadcast(0, "x")

    def test_out_of_model_draw_above_d_delivered(self):
        sim, net = make_net(d=1.0, u=0.1, model=_OutOfModelDelay(3.0))
        times = []
        self._star(net, times)
        assert net.broadcast(0, "late") == 2
        assert net.messages_sent == 2
        sim.run(until=5.0)
        assert times == [(1, pytest.approx(3.0)), (2, pytest.approx(3.0))]

    def test_negative_draw_inside_tolerance_clamped(self):
        sim, net = make_net(d=1.0, u=1.0,
                            model=PolicyDelay(lambda s, r, now: -5e-10))
        times = []
        self._star(net, times)
        sim.run(until=0.5)
        net.broadcast(0, "now")
        sim.run(until=1.0)
        assert times == [(1, 0.5), (2, 0.5)]

    def test_missing_model_rejected(self):
        sim = Simulator()
        net = Network(sim, d=1.0, u=0.1)
        self._star(net, [])
        net.set_link_delay_model(0, 1, FixedDelay(1.0))
        with pytest.raises(NetworkError, match="no delay model"):
            net.broadcast(0, "x")


class TestBatchedDelivery:
    """Deliveries drain from the network's heap in exactly the order
    one kernel event per message would give.  The expected values were
    recorded when a per-message delivery path still existed and both
    paths agreed on them."""

    def build_flood(self, n=8, seed=3):
        sim = Simulator()
        rng = random.Random(seed)
        net = Network(sim, d=1.0, u=0.5,
                      default_delay_model=UniformDelay(1.0, 0.5, rng))
        log = []
        for i in range(n):
            def handler(msg, t, i=i):
                log.append(("recv", i, msg[0], t))
                if msg[1] > 0:
                    net.broadcast(i, (i, msg[1] - 1))
            net.add_node(i, handler)
        for i in range(n - 1):
            net.add_link(i, i + 1)
        return sim, net, log

    def test_flood_matches_legacy_stream(self):
        # Seeded delays + interleaved alarms: the full (receiver,
        # sender, time) delivery log of the one-event-per-message
        # stream, pinned by digest.
        sim, net, log = self.build_flood()
        for t in (0.5, 1.25, 2.0, 3.75):
            sim.call_at(t, log.append, ("alarm", t))
        for i in range(8):
            net.broadcast(i, (i, 4))
        sim.run_until_idle()
        assert len(log) == 350
        assert log[:3] == [("alarm", 0.5),
                           ("recv", 6, 5, 0.5021775822447686),
                           ("recv", 3, 4, 0.5812654589517701)]
        assert content_hash(log) == \
            "37edb89fedbfb911a5b5b3c4372088794216c741"
        assert net.messages_delivered == 346
        assert sim.events_processed == 8

    def test_same_time_ties_keep_send_order(self):
        # FixedDelay makes every delivery time coincide exactly;
        # deliveries come in send (seq) order, interleaved correctly
        # with kernel events at the same timestamp.
        sim, net = make_net(d=1.0, u=0.0, model=FixedDelay(1.0))
        log = []
        for i in range(4):
            net.add_node(i, lambda m, t, i=i: log.append((i, m, t)))
        for i in range(3):
            net.add_link(i, i + 1)
        net.send(0, 1, "a")
        sim.call_at(1.0, log.append, "tied alarm")
        net.send(1, 2, "b")
        net.send(2, 3, "c")
        sim.run(until=2.0)
        # The alarm was scheduled between the sends and lands between
        # their deliveries at the shared timestamp.
        assert log == [(1, "a", 1.0), "tied alarm", (2, "b", 1.0),
                       (3, "c", 1.0)]

    def test_run_horizon_defers_pending(self):
        sim, net = make_net(d=1.0, u=0.0)
        received = []
        net.add_node(0)
        net.add_node(1, lambda m, t: received.append((m, t)))
        net.add_link(0, 1)
        net.send(0, 1, "later")
        assert net.pending_deliveries == 1
        sim.run(until=0.5)
        assert received == []
        assert net.pending_deliveries == 1
        sim.run(until=2.0)
        assert received == [("later", pytest.approx(1.0))]
        assert net.pending_deliveries == 0

    def test_inflight_survives_link_down(self):
        sim, net = make_net(d=1.0, u=0.0)
        received = []
        net.add_node(0)
        net.add_node(1, lambda m, t: received.append(m))
        net.add_link(0, 1)
        net.send(0, 1, "in flight")
        net.set_link_active(0, 1, False)
        sim.run(until=2.0)
        assert received == ["in flight"]
        net.send(0, 1, "dropped")
        assert net.messages_dropped == 1
        sim.run(until=4.0)
        assert received == ["in flight"]

    def test_fewer_kernel_events_per_message(self):
        sim, net, _log = self.build_flood()
        for i in range(8):
            net.broadcast(i, (i, 4))
        sim.run_until_idle()
        assert net.messages_delivered > 0
        assert sim.events_processed < net.messages_delivered

    def test_runaway_send_loop_hits_max_events(self):
        # A send-on-delivery cascade must trip run_until_idle's
        # runaway guard in batched mode too (deliveries count as work
        # units), not spin forever inside one flush drain.
        sim, net = make_net(d=1.0, u=0.0)
        net.add_node(0, lambda m, t: net.send(0, 1, m))
        net.add_node(1, lambda m, t: net.send(1, 0, m))
        net.add_link(0, 1)
        net.send(0, 1, "ping")
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=500)
        assert net.messages_delivered <= 500

    def test_nested_run_until_idle_drains_past_outer_horizon(self):
        # A callback inside run(until=1.0) sends a message due later
        # and then calls run_until_idle(): the nested call must drain
        # it (legacy semantics) instead of spinning on a wake-up that
        # can never deliver under the outer horizon.
        sim, net = make_net(d=1.0, u=0.0)
        received = []
        net.add_node(0)
        net.add_node(1, lambda m, t: received.append((m, t)))
        net.add_link(0, 1)

        def send_then_drain():
            net.send(0, 1, "late")
            sim.run_until_idle(max_events=100)

        sim.call_at(0.5, send_then_drain)
        sim.run(until=1.0)
        assert received == [("late", pytest.approx(1.5))]

    def test_step_delivers_one_message_per_call(self):
        # step()'s single-event contract survives batching: each call
        # hands over exactly one pending delivery.
        sim, net = make_net(d=1.0, u=0.5, model=None)
        log = []
        for i in range(4):
            net.add_node(i, lambda m, t, i=i: log.append((i, m, t)))
        for i in range(3):
            net.add_link(i, i + 1)
        net.set_link_delay_model(0, 1, FixedDelay(0.6))
        net.set_link_delay_model(1, 2, FixedDelay(0.8))
        net.set_link_delay_model(2, 3, FixedDelay(1.0))
        net.send(0, 1, "a")
        net.send(1, 2, "b")
        net.send(2, 3, "c")
        assert sim.step() is True
        assert log == [(1, "a", 0.6)]  # one delivery only
        assert sim.now == 0.6
        sim.run_until_idle()
        assert log == [(1, "a", 0.6), (2, "b", 0.8), (3, "c", 1.0)]

    def test_counter_visible_to_handlers_mid_batch(self):
        # A handler reading messages_delivered mid-run sees its own
        # message counted.
        sim, net = make_net(d=1.0, u=0.0)
        observed = []
        net.add_node(0)
        net.add_node(1, lambda m, t: observed.append(
            net.messages_delivered))
        net.add_link(0, 1)
        net.send(0, 1, "x")
        net.send(0, 1, "y")
        sim.run_until_idle()
        assert observed == [1, 2]
