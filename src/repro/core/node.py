"""The full FTGCS node: ClusterSync + estimators + InterclusterSync.

An :class:`FtgcsNode` composes, for one correct node ``v`` in cluster
``C``:

* a logical clock ``L_v`` (Eq. (2)) on the node's hardware clock;
* an *active* ClusterSync engine synchronizing ``L_v`` within ``C``;
* one passive :class:`~repro.core.estimates.ClusterEstimator` per
  adjacent cluster ``B``, providing ``L~_vB``;
* an :class:`~repro.core.intercluster.InterclusterSync` controller that
  sets ``gamma_v`` at every round start from the FT/ST triggers;
* optionally a :class:`~repro.core.max_estimate.MaxEstimate` for the
  Theorem C.3 global-skew rule.

Message routing: a SYNC pulse from a same-cluster peer feeds the active
engine; one from an adjacent cluster feeds that cluster's estimator;
MAX pulses feed the max-estimate.  Senders are identified at link level
(the paper assumes each node knows which neighbor, and hence which
cluster, a pulse came from).

Dynamic topologies (``dynamic_estimators=True``): estimator state
follows the *live* edge set instead of the build-time union graph.  An
adjacent cluster whose edge is down at time zero leaves its estimator
dormant; the edge appearing later — reported via
:meth:`FtgcsNode.set_cluster_link`, or evidenced by a first pulse —
triggers first-contact bring-up (:meth:`ClusterEstimator.bring_up`),
an edge re-appearing after an outage re-aligns pulse attribution
(:meth:`ClusterEstimator.resync`), and only *ready* estimates (the
warm-up rule: one completed exchange since (re)initialization) enter
the trigger min/max aggregation.  On link-up the max-estimate performs
its paired bring-up too: the receiver side resets the per-sender level
decode (quarantining arrivals for ``d`` so pre-outage in-flight pulses
cannot inflate the fresh count) and the sender side re-announces its
current level unicast over the fresh links ``U`` later (capped at
``max_reannounce_levels``, default :data:`MAX_REANNOUNCE_LEVELS`,
configurable via ``SystemConfig.max_reannounce_levels``; capping and
quarantining only under-estimate, which is the sound direction, and
every capped re-announcement is counted in
``stats.reannounce_cap_hits``).  With the flag off
(the default) behavior is bit-identical to the static implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.clocks.hardware import HardwareClock
from repro.clocks.logical import LogicalClock
from repro.core.cluster_sync import ClusterSyncCore
from repro.core.estimates import ClusterEstimator
from repro.core.intercluster import InterclusterSync
from repro.core.max_estimate import MaxEstimate
from repro.core.params import Parameters
from repro.core.rounds import RoundSchedule
from repro.errors import ConfigError
from repro.net.message import Pulse, PulseKind
from repro.net.network import Network
from repro.sim.kernel import Simulator


#: Default cap on MAX pulses re-sent per neighbor at link bring-up.  A
#: capped re-announcement makes the receiver's level decode an
#: underestimate, which is the sound direction for the ``M <= true
#: maximum`` invariant — but it *undercounts* silently on long outages,
#: so the cap is configurable (``SystemConfig.max_reannounce_levels``)
#: and every capped re-announcement is counted in
#: ``NodeStats.reannounce_cap_hits`` / ``RunResult.reannounce_cap_hits``.
MAX_REANNOUNCE_LEVELS = 64

# Bound once: ``on_message`` tests the kind of every delivered pulse,
# and an ``Enum`` member lookup costs a class-attribute access each.
_MAX = PulseKind.MAX
_SYNC = PulseKind.SYNC


@dataclass
class MaxEstimateConfig:
    """Settings for the optional global-skew estimate component."""

    unit: float
    enabled: bool = True


@dataclass
class NodeStats:
    """Counters not covered by the engines' own stats."""

    unknown_sender_pulses: int = 0
    dropped_after_crash: int = 0
    #: First-contact estimator (re)initializations (dynamic mode).
    estimator_bring_ups: int = 0
    #: Estimator pulse-attribution re-alignments after link outages.
    estimator_resyncs: int = 0
    #: MAX pulses re-sent at link bring-up (dynamic mode).
    max_reannounce_pulses: int = 0
    #: Re-announcements truncated by the level cap (each one means the
    #: receiving side decodes an *under*-estimate — sound, but worth
    #: surfacing so long-outage runs can size the cap).
    reannounce_cap_hits: int = 0
    #: per-round gamma choices as ``(round, gamma)`` pairs.
    mode_by_round: list[tuple[int, int]] = field(default_factory=list)


class FtgcsNode:
    """One correct node of the fault-tolerant GCS system."""

    def __init__(self, node_id: int, cluster_id: int, *,
                 sim: Simulator, network: Network, params: Parameters,
                 schedule: RoundSchedule, hardware: HardwareClock,
                 cluster_members: tuple[int, ...],
                 adjacent_members: dict[int, tuple[int, ...]],
                 bases: dict[int, float], initial_logical: float,
                 estimator_initials: dict[int, float],
                 rng: random.Random, policy: str = "slow_default",
                 max_estimate: MaxEstimateConfig | None = None,
                 record_rounds: bool = False,
                 dynamic_estimators: bool = False,
                 max_reannounce_levels: int = MAX_REANNOUNCE_LEVELS,
                 on_pulse_sent: Callable[[int, int, int, float], None]
                 | None = None) -> None:
        """Build and wire a node (see :class:`~repro.core.system.
        FtgcsSystem` for the usual entry point).

        ``cluster_members`` must include ``node_id`` itself;
        ``adjacent_members`` maps each adjacent cluster to all its
        member ids; ``bases`` must cover the own and all adjacent
        clusters.  ``dynamic_estimators`` opts into first-contact
        estimator bring-up (module docstring).  ``on_pulse_sent(
        cluster, round, node, time)`` is the system's pulse-log hook.
        """
        if node_id not in cluster_members:
            raise ConfigError(
                f"node {node_id} missing from its own cluster list")
        self.node_id = node_id
        self.cluster_id = cluster_id
        self._sim = sim
        self._network = network
        self._params = params
        self._schedule = schedule
        self._bases = dict(bases)
        self._adjacent_members = {b: tuple(members) for b, members
                                  in adjacent_members.items()}
        self._rng = rng
        self._crashed = False
        self._dynamic = dynamic_estimators
        if max_reannounce_levels < 1:
            raise ConfigError(
                f"max_reannounce_levels must be >= 1: "
                f"{max_reannounce_levels!r}")
        self._max_reannounce_levels = int(max_reannounce_levels)
        #: Cluster-level link state (dynamic mode); missing means up.
        self._link_active: dict[int, bool] = {}
        self._started = False
        self.stats = NodeStats()
        self._record_rounds = record_rounds

        d, u = params.d, params.u
        self._self_delay = lambda: d - u * rng.random()

        self.hardware = hardware
        self.logical = LogicalClock(
            sim, hardware, phi=params.phi, mu=params.mu, delta=1.0,
            gamma=0, initial_value=initial_logical, name=f"L[{node_id}]")

        peers = tuple(m for m in cluster_members if m != node_id)
        self._cluster_of: dict[int, int] = {
            m: cluster_id for m in cluster_members}
        pulse_hook = None
        if on_pulse_sent is not None:
            pulse_hook = (lambda r, t:
                          on_pulse_sent(cluster_id, r, node_id, t))
        self.core = ClusterSyncCore(
            self.logical, schedule, bases[cluster_id], peers, params.f,
            self_delay=self._self_delay, broadcast=self._broadcast_pulse,
            on_round_start=self._on_round_start,
            on_pulse_sent=pulse_hook,
            record_rounds=record_rounds, name=f"core[{node_id}]")

        self.estimators: dict[int, ClusterEstimator] = {}
        for b_cluster, members in adjacent_members.items():
            for m in members:
                self._cluster_of[m] = b_cluster
            self.estimators[b_cluster] = ClusterEstimator(
                sim, hardware, params, schedule, b_cluster, members,
                bases[b_cluster], estimator_initials[b_cluster],
                self_delay=self._self_delay,
                auto_resync=dynamic_estimators,
                name=f"est[{node_id}->{b_cluster}]")

        self.max_estimate: MaxEstimate | None = None
        #: MAX pulses are contentless and immutable: one object serves
        #: every broadcast and re-announcement.
        self._max_pulse = Pulse(sender=node_id, kind=_MAX)
        if max_estimate is not None and max_estimate.enabled:
            self.max_estimate = MaxEstimate(
                sim, hardware, params.rho, max_estimate.unit, params.f,
                self._cluster_of, initial_logical,
                send_pulse=self._broadcast_max_pulse,
                transit_bonus=params.d - params.u,
                name=f"max[{node_id}]")

        self.intercluster = InterclusterSync(
            params, policy, own_value=self.logical.value,
            estimate_values=self._estimate_snapshot,
            max_estimate=self.max_estimate,
            record_history=record_rounds)

        network.set_handler(node_id, self.on_message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start all engines; call once after construction.

        In dynamic-estimator mode, estimators whose cluster link is
        down at start stay *dormant* — they are brought up on first
        contact instead of coasting on build-time state.
        """
        self._started = True
        for b_cluster, estimator in self.estimators.items():
            if self._dynamic and not self._link_active.get(b_cluster,
                                                           True):
                continue
            estimator.start()
        if self.max_estimate is not None:
            self.max_estimate.start()
        self.core.start()

    def crash(self) -> None:
        """Stop everything (benign crash-fault support)."""
        self._crashed = True
        self.core.stop()
        for estimator in self.estimators.values():
            estimator.stop()
        if self.max_estimate is not None:
            self.max_estimate.stop()

    def rejoin(self) -> None:
        """Come back from :meth:`crash` *with amnesia*.

        The hardware oscillator kept counting through the outage (and
        with it the uncorrected logical clock, which drifted), but all
        protocol state is gone: round bookkeeping, estimator values,
        warm-up status, and max-estimate levels.  Everything restarts
        through the same first-contact machinery a freshly appearing
        link uses — the round engine resumes at the round the node's
        own progress implies (the :meth:`_bring_up` computation),
        estimators re-seed via ``bring_up`` and must complete a
        warm-up exchange before re-entering the trigger aggregation
        (dynamic mode), and gamma resets to the neutral mode.  No-op
        when not crashed.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.logical.set_gamma(0)
        progress = self.logical.value() - self._bases[self.cluster_id]
        at_round = 1 if progress <= 0 else (
            self._schedule.rounds_until(progress) + 1)
        self.core.start(at_round=at_round)
        for b_cluster in self.estimators:
            if self._dynamic and not self._link_active.get(b_cluster,
                                                           True):
                continue  # stays dormant until first contact
            self._bring_up(b_cluster)
        if self.max_estimate is not None:
            self.max_estimate.start()

    @property
    def crashed(self) -> bool:
        return self._crashed

    # ------------------------------------------------------------------
    # Dynamic topology (first-contact estimator bring-up)
    # ------------------------------------------------------------------

    def set_cluster_link(self, b_cluster: int, active: bool) -> None:
        """Report a cluster-edge activation change to this node.

        Called by the system when a topology-schedule event touches the
        edge to ``b_cluster``.  Before :meth:`start` this only records
        the state (so initially-down links leave their estimators
        dormant); after start, a down→up transition triggers estimator
        bring-up (dormant) or pulse-attribution resync (re-contact),
        plus the max-estimate's paired reset/re-announce.  Down events
        need no action: the estimator simply coasts on extrapolation.
        No-op unless the node was built with ``dynamic_estimators``.
        """
        if not self._dynamic or b_cluster not in self.estimators:
            return
        was = self._link_active.get(b_cluster, True)
        self._link_active[b_cluster] = active
        if (not self._started or self._crashed or not active or was):
            return
        # Down -> up after start: first contact or re-contact.
        estimator = self.estimators[b_cluster]
        if not estimator.running:
            self._bring_up(b_cluster)
        else:
            self.stats.estimator_resyncs += estimator.resync()
        if self.max_estimate is not None:
            members = self._adjacent_members[b_cluster]
            # Quarantine window: any pre-outage in-flight pulse from
            # these senders delivers strictly before now + d; dropping
            # arrivals in that window makes over-counting impossible.
            quarantine_until = self._sim.now + self._params.d
            for member in members:
                self.max_estimate.reset_sender(
                    member, quarantine_until=quarantine_until)
            # Delay our own re-announcement by U so its copies (delays
            # in [d - U, d]) arrive at or after the peers' symmetric
            # quarantine deadline instead of inside it.
            self._sim.call_in(self._params.u, self._reannounce_max,
                              members)

    def _bring_up(self, b_cluster: int) -> None:
        """First-contact (re)initialization of one dormant estimator.

        The estimate clock is seeded from the owner's own logical
        *progress* re-based onto the tracked cluster
        (``base_B + (L_own - base_own)``): bases are build-time
        configuration the estimators already receive, and progress is
        within the global skew bound of the tracked cluster's true
        progress, so the seed starts inside a skew-bounded envelope of
        the cluster clock.  The passive engine starts one round
        boundary ahead of the round that progress implies, so its
        alarms lie in the future and pulse attribution is aligned.
        """
        progress = self.logical.value() - self._bases[self.cluster_id]
        value = self._bases[b_cluster] + progress
        at_round = 1 if progress <= 0 else (
            self._schedule.rounds_until(progress) + 1)
        estimator = self.estimators[b_cluster]
        estimator.bring_up(value, at_round)
        estimator.set_gamma(self.logical.gamma)
        self.stats.estimator_bring_ups += 1

    def _reannounce_max(self, members: tuple[int, ...]) -> None:
        """Unicast our announced MAX level over freshly-up links (the
        sender half of the max-estimate bring-up pact; fired ``U``
        after the link event, see :meth:`set_cluster_link`)."""
        if self._crashed:
            return
        announced = self.max_estimate.announced_level
        level = min(announced, self._max_reannounce_levels)
        if announced > level:
            # The decode on the other side will under-estimate by
            # (announced - level) levels — sound, but counted so runs
            # with long outages can tell the cap was binding.
            self.stats.reannounce_cap_hits += 1
        pulse = self._max_pulse
        for member in members:
            for _ in range(level):
                self._network.send(self.node_id, member, pulse)
                self.stats.max_reannounce_pulses += 1

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def _broadcast_pulse(self) -> None:
        self._network.broadcast(self.node_id, Pulse(
            sender=self.node_id, kind=PulseKind.SYNC,
            debug_round=self.core.current_round))

    def _broadcast_max_pulse(self) -> None:
        self._network.broadcast(self.node_id, self._max_pulse)

    def on_message(self, message, receive_time: float) -> None:
        """Network handler: route pulses to the right engine."""
        if self._crashed:
            self.stats.dropped_after_crash += 1
            return
        if not isinstance(message, Pulse):
            self.stats.unknown_sender_pulses += 1
            return
        kind = message.kind
        if kind is _MAX:
            if self.max_estimate is not None:
                self.max_estimate.on_pulse(message.sender, receive_time)
            return
        if kind is not _SYNC:
            return  # other channels (e.g. PROPOSE) are not ours
        sender_cluster = self._cluster_of.get(message.sender)
        if sender_cluster is None:
            self.stats.unknown_sender_pulses += 1
            return
        if sender_cluster == self.cluster_id:
            if message.sender != self.node_id:
                self.core.on_pulse(message.sender, receive_time)
            return
        estimator = self.estimators.get(sender_cluster)
        if estimator is not None:
            if self._dynamic and not estimator.running:
                # A delivered pulse is itself first-contact evidence
                # (covers links activated without a schedule event
                # notification reaching us).
                self._link_active[sender_cluster] = True
                self._bring_up(sender_cluster)
            estimator.on_pulse(message.sender, receive_time)

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------

    def _estimate_snapshot(self) -> dict[int, float]:
        if self._dynamic:
            # Warm-up rule: only estimates with a completed exchange
            # since their last (re)initialization enter the trigger
            # min/max aggregation.
            return {b: est.value() for b, est in self.estimators.items()
                    if est.running and est.ready}
        return {b: est.value() for b, est in self.estimators.items()}

    def _on_round_start(self, round_index: int) -> None:
        if self.max_estimate is not None:
            self.max_estimate.observe_own(self.logical.value())
        gamma = self.intercluster.decide(round_index)
        self.logical.set_gamma(gamma)
        for estimator in self.estimators.values():
            estimator.set_gamma(gamma)
        self.stats.mode_by_round.append((round_index, gamma))
        if self._record_rounds and self.core.records:
            # The engine recorded the round before we chose gamma.
            self.core.records[-1].gamma = gamma
