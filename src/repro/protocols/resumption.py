"""Session resumption — the protocol-level answer to the handshake gap.

Section 3.2 shows RSA connection setup dominating the security
processing budget (the SA-1100 cannot meet a 0.1 s latency target).
The period's standard mitigation, which SSL/WTLS both specified, is
*session resumption*: client and server cache the master secret under
a session id and later run an **abbreviated handshake** — fresh nonces
and Finished messages only, no certificates and no public-key
operations.  The cost model in :mod:`repro.hardware.cycles` prices the
abbreviated handshake at the protocol-overhead term alone, collapsing
the Figure 3 handshake plane by ~50x.

The wire flow here reuses the mini-TLS message grammar: the client
sends its cached session id inside ClientHello's suite list slot
prefix (``resume:<id>`` pseudo-suite), the server answers with an
empty-certificate ServerHello carrying the same id in its key-exchange
field, and both sides go straight to Finished under keys derived from
the cached master and the new nonces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..crypto.bitops import constant_time_compare
from ..crypto.rng import DeterministicDRBG
from .alerts import HandshakeFailure
from .ciphersuites import SUITES_BY_NAME, CipherSuite
from .handshake import ClientConfig, ServerConfig, Session
from .kdf import derive_key_block, finished_verify_data, prf
from .messages import ClientHello, Finished, ServerHello
from .records import CONTENT_HANDSHAKE, make_record_pair
from .transport import DuplexChannel, Endpoint


@dataclass
class CachedSession:
    """What both peers retain for later resumption."""

    session_id: bytes
    suite_name: str
    master: bytes


@dataclass
class SessionCache:
    """A bounded cache of resumable sessions.

    Two defences keep fleet-shared resumption state from growing (or
    aging) without limit — the same discipline the DoS responder
    applies to its pending-handshake table:

    * **bounded capacity with seeded eviction** — beyond ``capacity``
      a victim is evicted; with an ``eviction_rng`` the victim is
      *seeded-random* (deterministic per run, unpredictable to an
      adversary trying to pin a chosen entry for eviction), otherwise
      the historical FIFO order applies.  Every eviction counts.
    * **rotation GC** — :meth:`rotate` advances a generation counter;
      with ``generation_limit`` set, entries not re-stored within the
      last ``generation_limit`` generations are expired.  Tickets
      therefore have a bounded lifetime measured in rotation epochs.
    """

    capacity: int = 32
    _entries: Dict[bytes, CachedSession] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rotations: int = 0
    expired: int = 0
    eviction_rng: Optional[DeterministicDRBG] = None
    generation_limit: int = 0
    _generation: int = 0
    _generations: Dict[bytes, int] = field(default_factory=dict)

    def store(self, entry: CachedSession) -> None:
        """Insert, evicting one victim beyond capacity."""
        if len(self._entries) >= self.capacity and \
                entry.session_id not in self._entries:
            if self.eviction_rng is not None:
                victims = sorted(self._entries)
                victim = victims[
                    self.eviction_rng.randrange(len(victims))]
            else:
                victim = next(iter(self._entries))
            del self._entries[victim]
            self._generations.pop(victim, None)
            self.evictions += 1
        self._entries[entry.session_id] = entry
        self._generations[entry.session_id] = self._generation

    def lookup(self, session_id: bytes) -> Optional[CachedSession]:
        """Fetch a cached session, counting hit/miss."""
        entry = self._entries.get(session_id)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def invalidate(self, session_id: bytes) -> None:
        """Drop one session (e.g. after a Finished failure)."""
        self._entries.pop(session_id, None)
        self._generations.pop(session_id, None)

    def touch(self, session_id: bytes) -> None:
        """Refresh an entry's generation (it was used recently)."""
        if session_id in self._entries:
            self._generations[session_id] = self._generation

    def rotate(self) -> int:
        """Advance one GC epoch; expire entries older than the limit.

        Returns how many entries expired.  With ``generation_limit``
        of zero, rotation only advances the epoch (GC disabled).
        """
        self._generation += 1
        self.rotations += 1
        if self.generation_limit <= 0:
            return 0
        cutoff = self._generation - self.generation_limit
        stale = [session_id for session_id, born
                 in self._generations.items() if born < cutoff]
        for session_id in stale:
            del self._entries[session_id]
            del self._generations[session_id]
        self.expired += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)


def cache_session(cache: SessionCache, session: Session,
                  rng: DeterministicDRBG) -> bytes:
    """Assign a session id to a full-handshake session and cache it.

    Returns the id; call on both peers (with the same id — the server
    allocates it in real TLS; here the caller distributes it).
    """
    session_id = rng.random_bytes(16)
    cache.store(CachedSession(
        session_id=session_id, suite_name=session.suite.name,
        master=session.master))
    return session_id


def resume(client: ClientConfig, server: ServerConfig,
           client_cache: SessionCache, server_cache: SessionCache,
           session_id: bytes,
           channel: Optional[DuplexChannel] = None,
           endpoints: Optional[Tuple[Endpoint, Endpoint]] = None
           ) -> Tuple[Session, Session]:
    """Run the abbreviated handshake for a cached session.

    Raises :class:`HandshakeFailure` when either side has lost the
    session or the Finished exchange does not verify (in which case
    callers fall back to a full handshake, as the real protocol does).
    Pass ``endpoints=(client_ep, server_ep)`` to resume over pre-built
    endpoints, e.g. a fresh (possibly lossy, ARQ-protected) link after
    a reset.
    """
    if endpoints is not None:
        client_ep, server_ep = endpoints
    else:
        channel = channel or DuplexChannel()
        client_ep = channel.endpoint_a()
        server_ep = channel.endpoint_b()

    client_entry = client_cache.lookup(session_id)
    if client_entry is None:
        raise HandshakeFailure("client no longer holds the session")
    suite = SUITES_BY_NAME[client_entry.suite_name]

    # Abbreviated ClientHello: the pseudo-suite marks the resume offer.
    client_random = client.rng.random_bytes(32)
    hello = ClientHello(
        client_random, ["resume:" + session_id.hex()])
    client_ep.send(hello.to_bytes())

    raw = server_ep.receive()
    hello_seen = ClientHello.from_bytes(raw)
    offered_id = _extract_session_id(hello_seen)
    server_entry = server_cache.lookup(offered_id) if offered_id else None
    if server_entry is None:
        raise HandshakeFailure("server no longer holds the session")

    server_random = server.rng.random_bytes(32)
    server_hello = ServerHello(
        server_random=server_random, suite_name=server_entry.suite_name,
        certificate=b"", key_exchange=offered_id,
        request_client_auth=False)
    server_ep.send(server_hello.to_bytes())
    raw = client_ep.receive()
    reply = ServerHello.from_bytes(raw)
    if reply.key_exchange != session_id:
        raise HandshakeFailure("server resumed a different session")

    # Both sides refresh the key block from the cached master + nonces.
    client_session = _build_side(
        suite, client_entry.master, client_random, reply.server_random,
        is_client=True)
    server_session = _build_side(
        suite, server_entry.master, hello_seen.client_random,
        server_random, is_client=False)

    # Finished exchange under the new keys, bound to the new nonces.
    seed = client_random + reply.server_random
    client_verify = finished_verify_data(
        client_entry.master, seed, b"resume client")
    client_ep.send(client_session.encoder.encode(
        CONTENT_HANDSHAKE, Finished(client_verify).to_bytes()))
    _, payload = server_session.decoder.decode(server_ep.receive())
    seen = Finished.from_bytes(payload)
    expected = finished_verify_data(
        server_entry.master, hello_seen.client_random + server_random,
        b"resume client")
    if not constant_time_compare(expected, seen.verify_data):
        server_cache.invalidate(session_id)
        raise HandshakeFailure("resume client Finished mismatch")

    server_verify = finished_verify_data(
        server_entry.master, hello_seen.client_random + server_random,
        b"resume server")
    server_ep.send(server_session.encoder.encode(
        CONTENT_HANDSHAKE, Finished(server_verify).to_bytes()))
    _, payload = client_session.decoder.decode(client_ep.receive())
    seen = Finished.from_bytes(payload)
    expected = finished_verify_data(
        client_entry.master, seed, b"resume server")
    if not constant_time_compare(expected, seen.verify_data):
        client_cache.invalidate(session_id)
        raise HandshakeFailure("resume server Finished mismatch")

    # A successful resumption refreshes both entries' GC generation:
    # live sessions survive rotation, abandoned ones age out.
    client_cache.touch(session_id)
    server_cache.touch(offered_id)
    return client_session, server_session


def _extract_session_id(hello: ClientHello) -> Optional[bytes]:
    for name in hello.suite_names:
        if name.startswith("resume:"):
            try:
                return bytes.fromhex(name.split(":", 1)[1])
            except ValueError:
                return None
    return None


def _build_side(suite: CipherSuite, master: bytes, client_random: bytes,
                server_random: bytes, is_client: bool) -> Session:
    keys = derive_key_block(
        prf(master, b"resumed master", client_random + server_random, 48),
        client_random, server_random, suite)
    encoder, decoder = make_record_pair(suite, keys, is_client=is_client)
    return Session(
        suite=suite, master=master, encoder=encoder, decoder=decoder,
        peer_certificate=None,
        transcript_digest=prf(master, b"resume transcript",
                              client_random + server_random, 20),
        handshake_messages=4,
    )
