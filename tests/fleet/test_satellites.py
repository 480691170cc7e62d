"""The bounded resumption cache behind the fleet's ticket store:
seeded eviction and rotation GC."""

from repro.crypto.rng import DeterministicDRBG
from repro.protocols.resumption import CachedSession, SessionCache


def entry(tag: int) -> CachedSession:
    return CachedSession(session_id=bytes([tag]) * 16,
                         suite_name="RSA_WITH_AES_128_CBC_SHA",
                         master=bytes(48))


class TestBoundedSessionCache:
    def test_fifo_eviction_without_rng(self):
        cache = SessionCache(capacity=2)
        for tag in range(4):
            cache.store(entry(tag))
        assert len(cache) == 2
        assert cache.evictions == 2
        assert cache.lookup(entry(0).session_id) is None
        assert cache.lookup(entry(3).session_id) is not None

    def test_seeded_eviction_is_deterministic(self):
        def survivors(seed):
            cache = SessionCache(
                capacity=3,
                eviction_rng=DeterministicDRBG(f"evict-{seed}"))
            for tag in range(8):
                cache.store(entry(tag))
            return sorted(cache._entries)

        assert survivors(5) == survivors(5)
        assert SessionCache(capacity=3).evictions == 0

    def test_restoring_an_existing_id_never_evicts(self):
        cache = SessionCache(capacity=2)
        cache.store(entry(0))
        cache.store(entry(1))
        cache.store(entry(0))
        assert cache.evictions == 0
        assert len(cache) == 2

    def test_rotation_expires_untouched_entries(self):
        cache = SessionCache(capacity=8, generation_limit=2)
        cache.store(entry(0))
        cache.rotate()
        cache.store(entry(1))
        cache.rotate()
        # entry(0) was born 2 epochs ago; the third rotation passes the
        # limit and expires it, while entry(1) survives one more.
        expired = cache.rotate()
        assert expired == 1
        assert cache.expired == 1
        assert cache.rotations == 3
        assert cache.lookup(entry(0).session_id) is None
        assert cache.lookup(entry(1).session_id) is not None

    def test_touch_refreshes_the_generation(self):
        cache = SessionCache(capacity=8, generation_limit=1)
        cache.store(entry(0))
        cache.rotate()
        cache.touch(entry(0).session_id)
        assert cache.rotate() == 0
        assert len(cache) == 1

    def test_rotation_without_limit_only_advances_the_epoch(self):
        cache = SessionCache(capacity=8)
        cache.store(entry(0))
        for _ in range(5):
            assert cache.rotate() == 0
        assert len(cache) == 1

