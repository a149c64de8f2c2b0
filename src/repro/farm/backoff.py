"""Retry pacing for the farm scheduler: exponential backoff with
deterministic jitter, and *interruptible* waits.

One policy object answers two questions every retry loop asks:

- **how long** — :meth:`BackoffPolicy.delay` grows the pause
  exponentially from ``base_s`` by ``factor`` per attempt, caps it at
  ``max_s``, and subtracts a jittered fraction so a fleet of clients
  retrying the same hiccup does not re-collide in lockstep.  The jitter
  stream is seeded, so a given policy instance produces a reproducible
  delay sequence — campaign runs and tests stay deterministic;
- **how to wait** — :meth:`BackoffPolicy.wait` sleeps on a
  :class:`threading.Event` when the caller provides one, so a pending
  backoff is *interruptible*: shutdown sets the event and the sleeper
  returns immediately instead of blocking the exit on a retry that no
  longer matters.

The scheduler's serial and parallel retry loops share one policy, so
"retry with backoff" means the same thing on both paths.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Optional

#: First-retry pause; matches the farm's historical fixed backoff.
DEFAULT_BASE_S = 0.05

#: Exponential growth per attempt.
DEFAULT_FACTOR = 2.0

#: Ceiling on any single pause.
DEFAULT_MAX_S = 2.0

#: Fraction of the delay eligible to be jittered away (0 disables).
DEFAULT_JITTER = 0.5


class BackoffPolicy:
    """Exponential backoff with seeded jitter and event-interruptible waits."""

    def __init__(
        self,
        base_s: float = DEFAULT_BASE_S,
        factor: float = DEFAULT_FACTOR,
        max_s: float = DEFAULT_MAX_S,
        jitter: float = DEFAULT_JITTER,
        seed: int = 0,
    ) -> None:
        if base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {base_s}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.base_s = base_s
        self.factor = factor
        self.max_s = max_s
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """The pause before retry number *attempt* (0-based).

        ``base * factor^attempt`` capped at ``max_s``, minus a jittered
        fraction in ``[0, jitter]`` of itself — full delay at jitter 0,
        anywhere down to ``(1 - jitter) * delay`` otherwise.
        """
        raw = min(self.base_s * (self.factor ** max(attempt, 0)), self.max_s)
        if self.jitter:
            raw *= 1.0 - self.jitter * self._rng.random()
        return raw

    def wait(
        self,
        attempt: int,
        wake: Optional[threading.Event] = None,
    ) -> bool:
        """Pause for :meth:`delay`; True when *wake* cut the pause short.

        With no event the wait is a plain sleep (the serial paths);
        with one, ``wake.set()`` (shutdown) ends it at once.
        """
        pause = self.delay(attempt)
        if wake is None:
            time.sleep(pause)
            return False
        return wake.wait(pause)
