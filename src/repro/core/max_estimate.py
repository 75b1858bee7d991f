"""The global-skew estimate ``M_v`` (Lemma C.2).

Every node maintains a conservative estimate of the maximum logical
clock in the system:

* ``M_v`` increases at rate ``h_v / (1 + rho) <= 1``, so it can never
  overtake the true maximum (which increases at rate ``>= 1``);
* whenever ``M_v`` crosses a multiple of the *level unit*, the node
  broadcasts a MAX pulse (a channel distinguishable from sync pulses);
* a node that has registered level-``k`` pulses from ``f + 1`` distinct
  members of any single cluster knows at least one *correct* node had
  ``M >= k * unit`` at send time; messages travel ``>= d - U``, so it
  may raise its own estimate to ``(k + 1) * unit`` — Lemma C.2's rule —
  and then emits its own pulses for all levels it has now reached,
  producing a fault-tolerant flood.

The paper uses ``unit = d - U`` and notes it makes "no attempt to keep
the message complexity low"; with round lengths of order ``c1 * E``
that is millions of pulses per round in simulation.  The unit is
therefore configurable (default ``delta_trigger``): a coarser unit
only adds ``O(unit)`` to the estimate lag, leaving the ``O(delta * D)``
global bound intact while keeping message counts sane.  Setting
``unit = d - U`` reproduces the letter of the paper.

Decode cost
-----------
Every received pulse raises one sender's level by exactly 1, so the
"``f + 1`` members attest level ``k``" decode is kept incrementally:
per cluster, a :class:`_ClusterTally` holds the confirmed level and a
count of members at each level *above* it (at most ``f``
entries).  Receiving a pulse is O(1) for fixed ``f`` and
:meth:`MaxEstimate._confirmed_level` is a lookup.  Only
:meth:`MaxEstimate.reset_sender` pays more: it rebuilds the sender's
cluster tally in one pass over the known senders.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.clocks.hardware import HardwareClock
from repro.clocks.logical import ScaledClock
from repro.errors import ConfigError
from repro.sim.kernel import Simulator


class _ClusterTally:
    """Incremental "``f + 1`` members attest level k" decode for one
    cluster.

    ``confirmed`` is the highest level ``k`` that at least ``f + 1``
    members have reached (0 if none); ``counts`` maps each level above
    it to the number of members there and ``above`` is their sum.
    ``above <= f`` holds between calls (one more member above
    ``confirmed`` would confirm the next level), so ``counts`` never
    holds more than ``f`` levels.
    """

    __slots__ = ("f", "confirmed", "above", "counts")

    def __init__(self, f: int) -> None:
        self.f = f
        self.confirmed = 0
        self.above = 0
        self.counts: dict[int, int] = {}

    def raise_member(self, old: int, new: int) -> None:
        """One member's level went from ``old`` to ``new > old``
        (``old = 0``: the member was not counted yet)."""
        confirmed = self.confirmed
        if new <= confirmed:
            return
        counts = self.counts
        counts[new] = counts.get(new, 0) + 1
        if old > confirmed:
            # Already counted above ``confirmed``: only its level moves.
            left = counts[old] - 1
            if left:
                counts[old] = left
            else:
                del counts[old]
            return
        above = self.above + 1
        # Every level up to the lowest one in ``counts`` has ``above``
        # members at or over it; confirm levels while that is > f.
        while above > self.f:
            confirmed = min(counts)
            above -= counts.pop(confirmed)
        self.confirmed = confirmed
        self.above = above


class MaxEstimate:
    """One node's ``M_v`` state machine.

    Parameters
    ----------
    sim, hardware:
        Kernel and the owner's hardware clock.
    rho:
        Drift bound; the estimate advances at ``h_v / (1 + rho)``.
    unit:
        Level granularity (see module docstring).
    f:
        Per-cluster fault bound; ``f + 1`` same-cluster witnesses are
        needed to accept a level.
    cluster_of:
        Maps a sender node id to its cluster id.
    initial_value:
        ``M_v(0)``; a node's own initial logical clock is always a
        safe choice.
    send_pulse:
        Callback broadcasting one MAX pulse to all neighbors.
    """

    def __init__(self, sim: Simulator, hardware: HardwareClock,
                 rho: float, unit: float, f: int,
                 cluster_of: dict[int, int], initial_value: float,
                 send_pulse: Callable[[], None],
                 transit_bonus: float = 0.0,
                 name: str = "") -> None:
        if unit <= 0:
            raise ConfigError(f"max-estimate unit must be positive: {unit!r}")
        if transit_bonus < 0:
            raise ConfigError(
                f"transit_bonus must be non-negative: {transit_bonus!r}")
        self._sim = sim
        self._unit = unit
        self._transit_bonus = transit_bonus
        self._f = f
        self._cluster_of = dict(cluster_of)
        self._send_pulse = send_pulse
        self.name = name
        self._clock = ScaledClock(sim, hardware, scale=1.0 / (1.0 + rho),
                                  initial_value=initial_value,
                                  name=name or "max-estimate")
        # Levels already announced by us; we announce every level we
        # reach, whether by local progress or by a flood-induced jump.
        # Receivers decode "k-th pulse from sender" as "sender reached
        # level k", so announcements must start at level 1 even when a
        # node's clock starts negative (a lagging initial offset) —
        # otherwise receivers would overestimate M and break its
        # "never exceeds the true maximum" invariant.
        self._announced_level = max(0, self._level_of(initial_value))
        #: per-sender highest pulse count == highest announced level.
        self._sender_levels: dict[int, int] = {}
        #: per-cluster incremental decode of ``_sender_levels``.
        self._tallies = {cluster: _ClusterTally(f)
                         for cluster in set(self._cluster_of.values())}
        #: Highest confirmed level already applied to the clock.  ``M``
        #: never decreases, so a confirmed level at or below it cannot
        #: move the estimate and needs no ``jump_to``.
        self._applied_level = 0
        #: per-sender quarantine deadline after a decode reset: pulses
        #: *arriving* before it may have been in flight from before
        #: the link outage and are dropped (see :meth:`reset_sender`).
        self._quarantine: dict[int, float] = {}
        self.pulses_sent = 0
        self.pulses_received = 0
        self.jumps = 0
        self.sender_resets = 0
        self.quarantined_pulses = 0
        self._running = False
        #: The armed next-level alarm, cancelled by :meth:`stop`.
        self._level_alarm = None

    # ------------------------------------------------------------------

    def _level_of(self, value: float) -> int:
        return int(math.floor(value / self._unit + 1e-12))

    def value(self, t: float | None = None) -> float:
        """Current estimate ``M_v(t)``."""
        return self._clock.value(t)

    def observe_own(self, logical_value: float) -> None:
        """Fold the owner's logical clock into the estimate.

        ``L_v <= L_max`` always, so the own clock is sound evidence;
        Lemma C.2's proof uses ``M_w >= L_w`` implicitly.  Without this
        the estimate falls behind by ``(phi + mu) * t`` because logical
        clocks advance at ``(1+phi)``-ish rates while the conservative
        internal clock advances at ``h/(1+rho) <= 1``.
        """
        if self._clock.jump_to(logical_value):
            self._announce_up_to(self._level_of(self.value()))

    @property
    def announced_level(self) -> int:
        """Highest level this node has announced so far (the number of
        MAX pulses a fully-connected receiver has seen from it)."""
        return self._announced_level

    def reset_sender(self, sender: int,
                     quarantine_until: float | None = None) -> None:
        """First-contact (re)initialization of one sender's decode.

        The count-based decode ("k-th pulse from ``sender`` means
        ``sender`` reached level k") only holds if every pulse since
        the sender's level 1 was received.  When a link (re)appears
        under a dynamic topology, that premise is re-established by a
        *paired* protocol: the receiver resets the sender's count here,
        and the sender re-announces its current level over the fresh
        link (see :class:`~repro.core.node.FtgcsNode`); the decode then
        reads exactly the re-announced level.  If the re-announcement
        is capped (or lost), the decode *under*-estimates — which keeps
        the ``M <= true maximum`` invariant intact.

        ``quarantine_until`` closes the one over-count hole: a pulse
        still in flight from *before* the outage would add to the
        fresh count on top of the re-announcement.  Pulses from
        ``sender`` **arriving** before the deadline are dropped
        (counted in ``quarantined_pulses``); the caller sets the
        deadline to ``now + d`` — every pre-outage pulse left the
        sender before the link came back up, so it delivers strictly
        before ``now + d``, while the re-announcement is delayed by
        ``U`` so its copies arrive at or after it.  Dropping can only
        under-count, the sound direction.
        """
        if self._sender_levels.pop(sender, None) is not None:
            cluster = self._cluster_of.get(sender)
            if cluster is not None:
                self._rebuild_tally(cluster)
        if quarantine_until is not None:
            self._quarantine[sender] = quarantine_until
        self.sender_resets += 1

    def _rebuild_tally(self, cluster: int) -> None:
        """Recount ``cluster``'s tally from its members' levels (the
        reset path; pulses update the tally incrementally)."""
        tally = _ClusterTally(self._f)
        cluster_of = self._cluster_of
        for sender, level in self._sender_levels.items():
            if cluster_of.get(sender) == cluster:
                tally.raise_member(0, level)
        self._tallies[cluster] = tally

    def start(self) -> None:
        if self._running:
            raise ConfigError(f"{self.name}: already started")
        self._running = True
        self._arm_next_level()

    def stop(self) -> None:
        self._running = False
        # A stale alarm would survive into the next start() and run a
        # second level chain next to the fresh one.
        if self._level_alarm is not None:
            self._clock.cancel_alarm(self._level_alarm)
            self._level_alarm = None

    def _arm_next_level(self) -> None:
        next_level = self._announced_level + 1
        self._level_alarm = self._clock.at_value(
            next_level * self._unit, self._on_level_reached, next_level)

    def _on_level_reached(self, level: int) -> None:
        if not self._running:
            return
        # A jump may have carried us past several levels; announce all.
        self._announce_up_to(max(level, self._level_of(self.value())))
        self._arm_next_level()

    def _announce_up_to(self, level: int) -> None:
        while self._announced_level < level:
            self._announced_level += 1
            self.pulses_sent += 1
            self._send_pulse()

    # ------------------------------------------------------------------

    def on_pulse(self, sender: int, receive_time: float) -> None:
        """Process one received MAX pulse."""
        if not self._running:
            return
        self.pulses_received += 1
        if self._quarantine:
            until = self._quarantine.get(sender)
            if until is not None:
                if receive_time < until:
                    # Possibly in flight from before the outage; the
                    # decode must not count it (see reset_sender).
                    self.quarantined_pulses += 1
                    return
                del self._quarantine[sender]
        level = self._sender_levels.get(sender, 0) + 1
        self._sender_levels[sender] = level
        cluster = self._cluster_of.get(sender)
        if cluster is not None:
            tally = self._tallies[cluster]
            if level > tally.confirmed:
                tally.raise_member(level - 1, level)
        confirmed = self._confirmed_level(cluster)
        if confirmed <= self._applied_level:
            return
        self._applied_level = confirmed
        # A correct witness had M >= confirmed * unit at send time, and
        # the message spent at least d - U in flight (the paper's "+1"
        # with unit = d - U is exactly this transit bonus).
        target = confirmed * self._unit + self._transit_bonus
        if self._clock.jump_to(target):
            self.jumps += 1
            self._announce_up_to(self._level_of(self.value()))

    def _confirmed_level(self, cluster: int | None) -> int:
        """Highest level attested by ``f + 1`` members of ``cluster``."""
        if cluster is None:
            return 0
        return self._tallies[cluster].confirmed
