"""Closed-loop adaptive serving: feedback control and graceful degradation.

The static serving stack runs one :class:`~repro.core.retry.RetryPolicy`,
one cache size, and no scrub no matter what the environment does.  This
module closes the loop the ROADMAP calls for: an
:class:`AdaptiveController`, whose control tick and scrub pass are
timers on the same deterministic calendar as the traffic, watches
windowed signals (rolling p99 read latency, per-interval retry /
failure / corruption rates from the backend's counters), and actuates the serving policy — bounded, hysteretic, and
fully replayable:

* **margin first** — raise the retry policy's sense-current escalation
  (larger differential swing against a drifted sense-amp offset), then
  the attempt budget, both capped;
* **repair** — engage a background scrub cadence that rewrites
  known-good payloads, clearing accumulated disturb/drift flips;
* **capacity** — grow (and later shrink) the :class:`ReadCache`;
* **degrade last** — engage the token-bucket :class:`AdmissionGate` and
  shed load, lowest priority first, with per-bank backpressure, so an
  unrecoverable drift episode costs the background tier instead of
  collapsing p99 for everyone.

Every decision is a pure function of simulated state: the controller
consumes no RNG, so ``repro serve --adaptive --check`` replays
bit-exactly, and a run with zero drift and a slack SLO never actuates —
its :class:`~repro.service.report.ServiceReport` is identical to the
static policy's (the determinism guard in ``tests/test_adaptive.py``).
A run attaches the loop by setting ``slo`` on its
:class:`~repro.service.topology.ServeSpec`; :func:`~repro.service.topology.serve`
runs one loop per channel, each acting at its channel's share of the
line rate (see ``docs/TOPOLOGY.md``).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import runtime as _obs
from repro.obs.window import DeltaTracker, RollingWindow
from repro.service.controller import ArrayBackend, MemoryController
from repro.service.workload import Request

__all__ = [
    "SLOTarget",
    "AdaptiveConfig",
    "AdmissionGate",
    "AdaptiveController",
]


@dataclasses.dataclass(frozen=True)
class SLOTarget:
    """The latency objective the controller defends.

    ``p99_read_latency`` is the hard target [s]; the controller starts
    acting at ``guardband × target`` so actuation leads the violation
    instead of chasing it.
    """

    p99_read_latency: float
    guardband: float = 0.75

    def __post_init__(self) -> None:
        if not self.p99_read_latency > 0.0:
            raise ConfigurationError(
                f"SLO p99 target must be positive, got {self.p99_read_latency}"
            )
        if not 0.0 < self.guardband <= 1.0:
            raise ConfigurationError(
                f"guardband must be within (0, 1], got {self.guardband}"
            )

    @property
    def act_threshold(self) -> float:
        """Rolling p99 [s] above which the controller escalates."""
        return self.guardband * self.p99_read_latency


@dataclasses.dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning of the control loop: cadence, signals, bounds, hysteresis.

    All actuation is bounded — one step per actuator per control tick,
    each actuator capped — and hysteretic: escalation triggers at the
    ``*_alarm`` thresholds / the SLO guardband, relaxation only once the
    signals fall below the stricter ``*_clear`` / ``clear_fraction``
    levels, so the controller cannot chatter between states.
    """

    control_interval: float = 2.5e-7  #: time between control ticks [s]
    window: int = 96                  #: completed reads in the latency window
    min_samples: int = 16             #: ignore the window's p99 before this
    retry_rate_alarm: float = 0.05    #: retried/reads fraction that alarms
    retry_rate_clear: float = 0.01    #: fraction below which margin relaxes
    clear_fraction: float = 0.7       #: p99 must drop below this × guardband
    escalation_step: float = 0.1      #: current-escalation increment
    escalation_bound: float = 0.5     #: current-escalation cap
    attempts_bound: int = 5           #: max_attempts cap
    cache_step: int = 64              #: cache lines added/removed per step
    cache_bound: int = 512            #: cache capacity cap
    scrub_interval: float = 2.0e-6    #: background scrub cadence [s]
    scrub_chunk: int = 64             #: words rewritten per scrub pass
    burst: float = 32.0               #: admission token-bucket depth
    low_priority_reserve: float = 4.0  #: tokens held back from priority > 0
    backpressure_depth: int = 256     #: per-bank queue depth that sheds
    shed_step: float = 0.15           #: multiplicative token-rate step
    shed_floor: float = 0.25          #: min token rate as a line-rate fraction

    def __post_init__(self) -> None:
        # Each float check is written so that NaN fails it.
        if not self.control_interval > 0.0:
            raise ConfigurationError(
                f"control_interval must be positive, got {self.control_interval}"
            )
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if not 0.0 <= self.retry_rate_clear < self.retry_rate_alarm <= 1.0:
            raise ConfigurationError(
                "contradictory retry thresholds: need 0 <= clear < alarm <= 1, "
                f"got clear={self.retry_rate_clear}, alarm={self.retry_rate_alarm}"
            )
        if not 0.0 < self.clear_fraction <= 1.0:
            raise ConfigurationError(
                f"clear_fraction must be within (0, 1], got {self.clear_fraction}"
            )
        if not (self.escalation_step > 0.0 and self.escalation_bound >= 0.0):
            raise ConfigurationError(
                "escalation_step must be positive and escalation_bound >= 0"
            )
        if self.attempts_bound < 1:
            raise ConfigurationError(
                f"attempts_bound must be >= 1, got {self.attempts_bound}"
            )
        if self.cache_step < 1 or self.cache_bound < 0:
            raise ConfigurationError(
                "cache_step must be >= 1 and cache_bound >= 0"
            )
        if not self.scrub_interval > 0.0 or self.scrub_chunk < 1:
            raise ConfigurationError(
                "scrub_interval must be positive and scrub_chunk >= 1"
            )
        if not self.burst >= 1.0:
            raise ConfigurationError(f"burst must be >= 1, got {self.burst}")
        if not 0.0 <= self.low_priority_reserve < self.burst:
            raise ConfigurationError(
                "contradictory shed thresholds: low_priority_reserve must be "
                f">= 0 and below burst, got reserve={self.low_priority_reserve}, "
                f"burst={self.burst}"
            )
        if self.backpressure_depth < 1:
            raise ConfigurationError(
                f"backpressure_depth must be >= 1, got {self.backpressure_depth}"
            )
        if not 0.0 < self.shed_step < 1.0:
            raise ConfigurationError(
                f"shed_step must be within (0, 1), got {self.shed_step}"
            )
        if not 0.0 < self.shed_floor <= 1.0:
            raise ConfigurationError(
                f"shed_floor must be within (0, 1], got {self.shed_floor}"
            )


class AdmissionGate:
    """Token-bucket admission with priority shedding and backpressure.

    Disengaged (the default) the gate is invisible: every request is
    admitted, no token accounting runs, no metrics move — which is what
    keeps a zero-drift adaptive run bit-exact with the static policy.
    Once :meth:`engage` sets a token rate, each admitted request spends
    one token (refilled at ``rate`` tokens/s of *simulated* time, capped
    at ``burst``); requests with ``priority > 0`` additionally need
    ``low_priority_reserve`` tokens of headroom, so as the bucket drains
    the background tier sheds first and the foreground tier last.
    Independently, an arrival to a bank whose queue has reached
    ``backpressure_depth`` is shed regardless of tokens — a saturated
    bank must drain, not deepen.
    """

    def __init__(
        self,
        burst: float = 32.0,
        low_priority_reserve: float = 4.0,
        backpressure_depth: int = 256,
    ):
        if not burst >= 1.0:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        if not 0.0 <= low_priority_reserve < burst:
            raise ConfigurationError(
                "contradictory shed thresholds: low_priority_reserve must be "
                f">= 0 and below burst, got reserve={low_priority_reserve}, "
                f"burst={burst}"
            )
        if backpressure_depth < 1:
            raise ConfigurationError(
                f"backpressure_depth must be >= 1, got {backpressure_depth}"
            )
        self.burst = float(burst)
        self.low_priority_reserve = float(low_priority_reserve)
        self.backpressure_depth = int(backpressure_depth)
        self.engaged = False
        self.rate = 0.0           #: tokens/s while engaged
        self._tokens = float(burst)
        self._refilled_at = 0.0
        self.admitted = 0         #: admissions while engaged
        self.shed = 0
        self.shed_low_priority = 0
        self.shed_backpressure = 0

    def _refill(self, now: float) -> None:
        if now > self._refilled_at:
            self._tokens = min(
                self.burst, self._tokens + (now - self._refilled_at) * self.rate
            )
        self._refilled_at = now

    def engage(self, rate: float, now: float) -> None:
        """Start (or re-tune) shedding at ``rate`` admitted requests/s."""
        if not rate > 0.0:
            raise ConfigurationError(f"token rate must be positive, got {rate}")
        if self.engaged:
            self._refill(now)  # the old rate applies up to now, not beyond
        else:
            self.engaged = True
            self._tokens = self.burst
            self._refilled_at = now
            if _obs.active():
                _obs.get_registry().inc("service.admission.engaged")
        self.rate = float(rate)

    def disengage(self) -> None:
        """Stop shedding; the gate goes invisible again."""
        self.engaged = False
        self.rate = 0.0

    def admit(self, request: Request, depth: int, now: float) -> bool:
        """Decide one arrival given its bank's queue depth."""
        if not self.engaged:
            return True
        low = request.priority > 0
        if depth >= self.backpressure_depth:
            self.shed += 1
            self.shed_backpressure += 1
            if low:
                self.shed_low_priority += 1
            return False
        self._refill(now)
        need = 1.0 + (self.low_priority_reserve if low else 0.0)
        if self._tokens >= need:
            self._tokens -= 1.0
            self.admitted += 1
            if _obs.active():
                _obs.get_registry().inc("service.admission.admitted")
            return True
        self.shed += 1
        if low:
            self.shed_low_priority += 1
        return False

    def statistics(self) -> dict:
        """Gate counters as a plain dict."""
        return {
            "engaged": self.engaged,
            "rate": self.rate,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_low_priority": self.shed_low_priority,
            "shed_backpressure": self.shed_backpressure,
        }


class AdaptiveController:
    """The feedback loop: windowed signals in, bounded actuation out.

    The control tick (:meth:`tick`, a loop timer) fires every
    ``config.control_interval`` of simulated time, reads the signals,
    and applies at most one step per actuator.  Escalation order (most
    targeted, least costly first): sense-current escalation → attempt
    budget → background scrub → cache growth → admission shedding.
    Relaxation unwinds in the reverse order, one step per tick, restoring
    the base policy once conditions clear.  The controller consumes no
    RNG and stops re-arming itself once every submitted request is
    accounted, so the calendar drains exactly as a static run's would.
    """

    def __init__(
        self,
        controller: MemoryController,
        slo: SLOTarget,
        config: Optional[AdaptiveConfig] = None,
        line_rate: float = 0.0,
    ):
        if controller.backend is None:
            raise ConfigurationError(
                "adaptive serving requires a backed controller (ArrayBackend)"
            )
        if controller.retry_policy is None:
            raise ConfigurationError(
                "adaptive serving requires a retry policy to actuate"
            )
        if not line_rate > 0.0:
            raise ConfigurationError(
                f"line_rate must be positive, got {line_rate}"
            )
        self.controller = controller
        self.backend: ArrayBackend = controller.backend
        self.slo = slo
        self.config = config if config is not None else AdaptiveConfig()
        self.line_rate = float(line_rate)
        self._base_policy = controller.retry_policy
        self._base_cache = (
            controller.cache.capacity if controller.cache is not None else None
        )
        self.gate = AdmissionGate(
            burst=self.config.burst,
            low_priority_reserve=self.config.low_priority_reserve,
            backpressure_depth=self.config.backpressure_depth,
        )
        controller.admission = self.gate
        self._latency = RollingWindow(self.config.window)
        self._deltas = DeltaTracker()
        self._baseline()
        self._seen = 0          # completions consumed into the window
        self._alarm = False
        self._scrub_active = False
        self._scrub_cursor = 0
        self.ticks = 0
        self.actions = 0        #: actuator steps applied (any direction)
        self.alarms = 0         #: healthy → breached transitions

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _baseline(self) -> dict:
        return self._deltas.update(
            reads=self.backend.reads,
            retried=self.backend.retried_words,
            failed=self.backend.failed_words,
            corrupted=self.backend.corrupted_words,
        )

    def _consume_completions(self) -> None:
        """Push the read latency of every unshed row recorded since the
        last tick, in recording order."""
        log = self.controller.log
        for position in range(self._seen, len(log.rows)):
            request = log.requests[log.rows[position]]
            if not log.shed[position] and request.is_read:
                self._latency.push(log.finish[position] - request.time)
        self._seen = len(log.rows)

    def _done(self) -> bool:
        return self.controller.completed >= self.controller.submitted

    @property
    def policy(self):
        """The retry policy currently in force."""
        return self.controller.retry_policy

    def _apply_policy(self, policy) -> None:
        # The controller charges backoff from its copy; the ladder reads
        # its own — keep the two views of the policy in lockstep.
        self.controller.retry_policy = policy
        self.backend.memory.policy = policy

    def _act(self, actuator: str, direction: str) -> None:
        self.actions += 1
        if _obs.active():
            _obs.get_registry().inc(
                "service.adaptive.actions", actuator=actuator, direction=direction
            )

    # ------------------------------------------------------------------
    # The control tick
    # ------------------------------------------------------------------
    def tick(self, now: float) -> List[Tuple[float, object]]:
        """One control tick at ``now``; returns the timers it arms, in
        arming order: a scrub pass if it engaged scrubbing, then the next
        tick unless every submitted request is accounted."""
        self.ticks += 1
        self._consume_completions()
        delta = self._baseline()
        reads = delta["reads"]
        retry_rate = delta["retried"] / reads if reads else 0.0
        fail_rate = delta["failed"] / reads if reads else 0.0
        corrupted = delta["corrupted"]
        p99 = (
            self._latency.percentile(99.0)
            if len(self._latency) >= self.config.min_samples
            else 0.0
        )
        threshold = self.slo.act_threshold
        armed = []
        breached = (
            p99 > threshold
            or retry_rate > self.config.retry_rate_alarm
            or fail_rate > 0.0
            or corrupted > 0
        )
        healthy = (
            p99 <= self.config.clear_fraction * threshold
            and retry_rate <= self.config.retry_rate_clear
            and fail_rate == 0.0
            and corrupted == 0
        )
        if breached:
            if not self._alarm:
                self._alarm = True
                self.alarms += 1
                if _obs.active():
                    _obs.get_registry().inc("service.adaptive.alarms")
            armed = self._escalate(p99, retry_rate, fail_rate, corrupted, now)
        elif healthy:
            self._alarm = False
            self._relax(now)
        if _obs.active():
            registry = _obs.get_registry()
            registry.inc("service.adaptive.ticks")
            registry.set_gauge("service.adaptive.window_p99_ns", p99 * 1e9)
            registry.set_gauge("service.adaptive.retry_rate", retry_rate)
            registry.set_gauge(
                "service.adaptive.escalation", self.policy.current_escalation
            )
            registry.set_gauge(
                "service.adaptive.token_rate_rps",
                self.gate.rate if self.gate.engaged else 0.0,
            )
        if not self._done():
            armed.append((now + self.config.control_interval, self.tick))
        return armed

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def _escalate(self, p99, retry_rate, fail_rate, corrupted, now) -> list:
        """One escalation step; returns the scrub timer if it armed one."""
        config = self.config
        policy = self.policy
        armed = []
        if retry_rate > config.retry_rate_alarm or fail_rate > 0.0:
            if policy.current_escalation < config.escalation_bound - 1e-12:
                self._apply_policy(dataclasses.replace(
                    policy,
                    current_escalation=min(
                        config.escalation_bound,
                        policy.current_escalation + config.escalation_step,
                    ),
                ))
                self._act("escalation", "up")
            elif fail_rate > 0.0 and policy.max_attempts < config.attempts_bound:
                self._apply_policy(dataclasses.replace(
                    policy, max_attempts=policy.max_attempts + 1
                ))
                self._act("attempts", "up")
        if (fail_rate > 0.0 or corrupted > 0) and not self._scrub_active:
            self._scrub_active = True
            self._act("scrub", "on")
            armed.append((now + config.scrub_interval, self._scrub_pass))
        cache = self.controller.cache
        if (
            p99 > self.slo.act_threshold
            and cache is not None
            and 0 < cache.capacity < config.cache_bound
        ):
            cache.resize(min(config.cache_bound, cache.capacity + config.cache_step))
            self._act("cache", "up")
        if p99 > self.slo.act_threshold:
            self._shed_harder(now)
        return armed

    def _shed_harder(self, now: float) -> None:
        floor = self.config.shed_floor * self.line_rate
        if not self.gate.engaged:
            self.gate.engage(
                max(floor, self.line_rate * (1.0 - self.config.shed_step)), now
            )
            self._act("admission", "on")
        elif self.gate.rate > floor:
            self.gate.engage(
                max(floor, self.gate.rate * (1.0 - self.config.shed_step)), now
            )
            self._act("admission", "down")

    def _relax(self, now: float) -> None:
        """Unwind one actuator step (reverse escalation order)."""
        config = self.config
        if self.gate.engaged:
            raised = self.gate.rate * (1.0 + config.shed_step)
            if raised >= self.line_rate:
                self.gate.disengage()
                self._act("admission", "off")
            else:
                self.gate.engage(raised, now)
                self._act("admission", "up")
            return
        cache = self.controller.cache
        if (
            cache is not None
            and self._base_cache is not None
            and cache.capacity > self._base_cache
        ):
            cache.resize(max(self._base_cache, cache.capacity - config.cache_step))
            self._act("cache", "down")
            return
        if self._scrub_active:
            self._scrub_active = False
            self._act("scrub", "off")
            return
        policy = self.policy
        if policy.max_attempts > self._base_policy.max_attempts:
            self._apply_policy(dataclasses.replace(
                policy, max_attempts=policy.max_attempts - 1
            ))
            self._act("attempts", "down")
            return
        if policy.current_escalation > self._base_policy.current_escalation + 1e-12:
            self._apply_policy(dataclasses.replace(
                policy,
                current_escalation=max(
                    self._base_policy.current_escalation,
                    policy.current_escalation - config.escalation_step,
                ),
            ))
            self._act("escalation", "down")

    def _scrub_pass(self, now: float) -> List[Tuple[float, object]]:
        """One background scrub chunk at ``now``; re-arms itself while
        active.

        Scrub rewrites ride a dedicated maintenance port in this model —
        they restore ground truth (clearing drift flips) without
        occupying a bank or consuming sensing RNG, so the traffic stream
        is untouched and replays stay bit-exact.
        """
        if not self._scrub_active or self._done():
            return []
        size = self.backend.size_words
        chunk = min(self.config.scrub_chunk, size)
        addresses = [(self._scrub_cursor + i) % size for i in range(chunk)]
        self._scrub_cursor = (self._scrub_cursor + chunk) % size
        count = self.backend.rewrite_words(addresses)
        if _obs.active() and count:
            _obs.get_registry().inc("service.adaptive.scrubbed_words", count)
        return [(now + self.config.scrub_interval, self._scrub_pass)]
