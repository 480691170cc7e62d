"""In-memory transports connecting protocol endpoints.

The substitution for a radio link: a :class:`DuplexChannel` is a pair
of FIFO queues with optional adversarial hooks — an attacker callback
may observe, modify, drop, or inject frames in flight, which is how
the eavesdropping/tampering threat model of §2 ("the physical signal
is easily accessible to eavesdroppers") is exercised against the
protocol stacks.

The channel distinguishes two read failures that a perfect FIFO never
had to: an *empty* read (:class:`ChannelEmpty` — the link is up but no
frame has arrived, the normal case on a lossy bearer) and a *closed*
read (:class:`ChannelClosed` — the writer half-closed or the link was
reset).  The ARQ layer (:mod:`repro.protocols.reliable`) reacts very
differently to the two: empty means wait/retransmit, closed means the
link is gone.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

Interceptor = Callable[[bytes, str], Optional[bytes]]


class ChannelClosed(Exception):
    """The channel (or this direction of it) has been closed or reset."""


class ChannelEmpty(ChannelClosed):
    """Read from an open channel with no frame pending.

    Subclasses :class:`ChannelClosed` so pre-existing callers that
    treated "nothing to read" and "closed" uniformly keep working, but
    recovery code can catch :class:`ChannelEmpty` first and react to a
    merely-quiet link (wait, retransmit) instead of reconnecting.
    """


class DuplexChannel:
    """A bidirectional in-memory link with an optional interceptor.

    The interceptor receives ``(frame, direction)`` where direction is
    ``"a->b"`` or ``"b->a"`` and returns the frame to deliver (possibly
    modified) or ``None`` to drop it.  All frames are also logged for
    passive eavesdropping analyses.

    Each direction can be half-closed independently (TCP-style): the
    writer calls :meth:`Endpoint.close`, the reader drains whatever is
    already queued and then sees :class:`ChannelClosed`.  A full
    :meth:`close` closes both directions gracefully; :meth:`reset`
    models an abortive link reset (queued frames are lost).
    """

    def __init__(self, interceptor: Optional[Interceptor] = None) -> None:
        self._a_to_b: Deque[bytes] = deque()
        self._b_to_a: Deque[bytes] = deque()
        self.interceptor = interceptor
        self.log: List[tuple] = []
        self.dropped = 0
        self.resets = 0
        self._closed = {"a->b": False, "b->a": False}

    def endpoint_a(self) -> "Endpoint":
        """Endpoint that writes a->b and reads b->a."""
        return Endpoint(self, self._a_to_b, self._b_to_a, "a->b")

    def endpoint_b(self) -> "Endpoint":
        """Endpoint that writes b->a and reads a->b."""
        return Endpoint(self, self._b_to_a, self._a_to_b, "b->a")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Gracefully close both directions; queued frames remain readable."""
        self._closed["a->b"] = True
        self._closed["b->a"] = True

    def reset(self) -> None:
        """Abortive link reset: both directions close, in-flight frames die."""
        self._a_to_b.clear()
        self._b_to_a.clear()
        self.close()
        self.resets += 1

    def direction_closed(self, direction: str) -> bool:
        """Whether the writer of ``direction`` has closed it."""
        return self._closed[direction]

    # -- delivery ----------------------------------------------------------

    def _deliver(self, queue: Deque[bytes], frame: bytes, direction: str) -> None:
        if self._closed[direction]:
            raise ChannelClosed(f"send on closed direction {direction}")
        self.log.append((direction, frame))
        if self.interceptor is not None:
            modified = self.interceptor(frame, direction)
            if modified is None:
                self.dropped += 1
                return
            frame = modified
        self._enqueue(queue, frame, direction)

    def _enqueue(self, queue: Deque[bytes], frame: bytes, direction: str) -> None:
        """Final delivery into the reader's queue (fault models override)."""
        queue.append(frame)


class Endpoint:
    """One side's read/write handle on a duplex channel."""

    def __init__(self, channel: DuplexChannel, out_queue: Deque[bytes],
                 in_queue: Deque[bytes], direction: str) -> None:
        self._channel = channel
        self._out = out_queue
        self._in = in_queue
        self._direction = direction
        # The direction this endpoint reads from is the opposite one.
        self._in_direction = "b->a" if direction == "a->b" else "a->b"

    def send(self, frame: bytes) -> None:
        """Transmit one frame; raises :class:`ChannelClosed` after close."""
        self._channel._deliver(self._out, frame, self._direction)

    def receive(self) -> bytes:
        """Pop the next inbound frame.

        Raises :class:`ChannelEmpty` when the link is open but quiet and
        :class:`ChannelClosed` once the peer's write side is closed and
        the queue has drained.
        """
        if self._in:
            return self._in.popleft()
        if self._channel.direction_closed(self._in_direction):
            raise ChannelClosed(
                f"direction {self._in_direction} closed and drained")
        raise ChannelEmpty("no frame pending")

    def close(self) -> None:
        """Half-close: no further sends from this endpoint; the peer may
        drain frames already in flight."""
        self._channel._closed[self._direction] = True

    @property
    def closed(self) -> bool:
        """Whether this endpoint's write direction is closed."""
        return self._channel.direction_closed(self._direction)

    def pending(self) -> int:
        """Number of frames waiting to be read."""
        return len(self._in)
