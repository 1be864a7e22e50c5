"""Transfer-path circuit breaker: graceful inline→PRP degradation.

ByteExpress and BandSlim depend on queue-protocol invariants that a
faulty link can keep violating (corrupted inline lengths, garbled chunk
TLPs).  Retrying each command helps with isolated glitches, but under a
persistently bad link the inline path burns its whole retry budget per
command.  The breaker converts that into a policy decision: after
``threshold`` *consecutive* inline failures the inline path opens and
submissions fall back to the stock PRP baseline — always correct, merely
slower — for ``cooldown_ops`` operations, after which a single inline
probe decides whether to close again.
"""

from __future__ import annotations

from dataclasses import dataclass


STATE_CLOSED = "closed"        # inline allowed (normal operation)
STATE_OPEN = "open"            # inline disabled, PRP fallback
STATE_HALF_OPEN = "half_open"  # one inline probe in flight


@dataclass
class BreakerConfig:
    #: Consecutive inline failures before the breaker opens.
    threshold: int = 3
    #: Operations served by the fallback path before an inline probe.
    cooldown_ops: int = 16

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be at least 1")
        if self.cooldown_ops < 1:
            raise ValueError("cooldown_ops must be at least 1")


class CircuitBreaker:
    """Consecutive-failure breaker for the inline transfer path."""

    def __init__(self, config: BreakerConfig = None) -> None:
        self.config = config or BreakerConfig()
        self.state = STATE_CLOSED
        self.consecutive_failures = 0
        self._cooldown_left = 0
        # stats
        self.trips = 0
        self.fallbacks = 0
        self.probes = 0

    def allow_inline(self) -> bool:
        """May the next submission use the inline path?

        In the open state each call consumes one cooldown slot; when the
        cooldown is exhausted the breaker half-opens and the next caller
        gets a single inline probe.
        """
        if self.state == STATE_CLOSED:
            return True
        if self.state == STATE_OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = STATE_HALF_OPEN
            self.fallbacks += 1
            return False
        # half-open: let exactly this caller probe the inline path
        self.probes += 1
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state == STATE_HALF_OPEN:
            self.state = STATE_CLOSED

    def record_failure(self) -> bool:
        """Count one inline failure; returns True when it tripped the
        breaker open."""
        self.consecutive_failures += 1
        if (self.state == STATE_HALF_OPEN
                or (self.state == STATE_CLOSED
                    and self.consecutive_failures >= self.config.threshold)):
            self._trip()
            return True
        return False

    def _trip(self) -> None:
        self.state = STATE_OPEN
        self._cooldown_left = self.config.cooldown_ops
        self.consecutive_failures = 0
        self.trips += 1
