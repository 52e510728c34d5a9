"""A small thread-safe bounded LRU cache with hit/miss accounting.

The explanation stack is pure over frozen inputs, which makes caching
safe.  This module provides the bounded memo the runtime and service
layers share across bindings (a service's sessions, and each session's
successors after an update): an ordinary ``OrderedDict``-based LRU
guarded by a lock, with counters that feed the service metrics.  It
holds the answers that are not kept per binding — ``why()`` sentences,
violation reports and why-not answers.  Top-level explanations are not
stored here: each binding keeps one composition per explained fact
(:class:`~repro.core.explain.Explainer`), and the LRU's ``explain``
region only counts that memo's lookups (:meth:`CacheRegion.count`).

Two additions serve the memoized paths:

* :meth:`LRUCache.get_or_create` installs a **per-key in-flight latch**,
  so two threads racing on the same key never both run the factory —
  the second waits for the first's value instead of duplicating the
  work (and instead of the old compute-twice/first-store-wins
  behaviour);
* :class:`CacheRegion` carves named, separately counted regions out of
  one shared LRU (``why()`` sentences, violation reports, why-not
  answers, and the counts of the ``explain`` memo), keeping the bound
  global while the telemetry stays per-region (see
  :meth:`LRUCache.snapshot`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from .. import obs

#: Default number of entries kept per shared cache: why() sentences,
#: violation reports and why-not answers (explanations are kept per
#: binding, outside it).  Each is one text or one small report.
DEFAULT_EXPLANATION_CACHE_SIZE = 4096

_SENTINEL = object()


@dataclass
class CacheStats:
    """Monotonic counters describing a cache's lifetime behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class _InFlight:
    """The latch other threads wait on while one runs the factory."""

    __slots__ = ("event", "value", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.failed = False


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    All operations are O(1) and thread-safe; ``get`` refreshes recency.
    ``capacity <= 0`` disables storage entirely (every lookup misses),
    which gives benchmarks a switch to measure uncached latency.
    """

    def __init__(self, capacity: int = DEFAULT_EXPLANATION_CACHE_SIZE):
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._pending: dict[Hashable, _InFlight] = {}
        self._regions: dict[str, "CacheRegion"] = {}
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Mapping operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value, creating (and storing) it on a miss.

        The factory runs outside the lock: explanation generation can
        take milliseconds and must not serialize unrelated lookups.  A
        per-key in-flight latch guarantees the factory runs **at most
        once per concurrent miss**: the first thread to miss becomes the
        owner and computes, racing threads park on the latch and are
        served the owner's value (counted as hits — they never ran the
        factory).  If the owner's factory raises, the error propagates
        to the owner, the latch is torn down, and waiters retry from the
        top (one of them becomes the next owner).

        Hit/miss accounting happens under the same lock as the lookup it
        describes — one logical lookup, one counted outcome — so a
        concurrent :meth:`snapshot` always sees counters consistent with
        the entries.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return self._entries[key]
                latch = self._pending.get(key)
                if latch is None:
                    latch = _InFlight()
                    self._pending[key] = latch
                    self.stats.misses += 1
                    owner = True
                else:
                    owner = False
            if not owner:
                latch.event.wait()
                if latch.failed:
                    continue  # the owner's factory raised: retry
                with self._lock:
                    self.stats.hits += 1
                    if key in self._entries:
                        self._entries.move_to_end(key)
                return latch.value
            try:
                created = factory()
            except BaseException:
                with self._lock:
                    if self._pending.get(key) is latch:
                        del self._pending[key]
                latch.failed = True
                latch.event.set()
                raise
            with self._lock:
                if self._pending.get(key) is latch:
                    del self._pending[key]
                existing = self._entries.get(key, _SENTINEL)
                if existing is not _SENTINEL:
                    # A direct put() raced in; the stored value wins.
                    self._entries.move_to_end(key)
                    created = existing
                elif self.capacity > 0:
                    self._entries[key] = created
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.stats.evictions += 1
            latch.value = created
            latch.event.set()
            return created

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def region(self, name: str) -> "CacheRegion":
        """The named region view of this cache (created on first use).

        Regions share the LRU's storage and global bound but namespace
        their keys and keep their own hit/miss counters, so one shared
        cache can back several memoization layers without collisions.
        """
        with self._lock:
            found = self._regions.get(name)
            if found is None:
                found = CacheRegion(self, name)
                self._regions[name] = found
            return found

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Stats plus occupancy, read atomically under the cache lock
        (the view the obs registry exports for each attached cache).
        Carries a per-region breakdown when regions are in use."""
        with self._lock:
            data = self.stats.snapshot()
            data["size"] = len(self._entries)
            data["capacity"] = self.capacity
            if self._regions:
                data["regions"] = {
                    name: region.stats.snapshot()
                    for name, region in sorted(self._regions.items())
                }
            return data

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class CacheRegion:
    """A named, separately counted view of a shared :class:`LRUCache`.

    Keys are namespaced with the region name, so regions never collide;
    storage, eviction and the in-flight latch all belong to the parent.
    Obtain regions via :meth:`LRUCache.region` — constructing one
    directly would bypass the parent's registry (and the snapshot).
    """

    def __init__(self, cache: LRUCache, name: str):
        self.cache = cache
        self.name = name
        self.stats = CacheStats()

    def _scoped(self, key: Hashable) -> Hashable:
        return (self.name, key)

    def get(self, key: Hashable, default: Any = None) -> Any:
        found = self.cache.get(self._scoped(key), _SENTINEL)
        with self.cache._lock:
            if found is _SENTINEL:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        self._record_flight(found is not _SENTINEL)
        return default if found is _SENTINEL else found

    def _record_flight(self, hit: bool) -> None:
        """Attribute this lookup to the open flight record, if any."""
        record = obs.current_flight()
        if record is not None:
            record.count(
                f"cache.{self.name}.{'hit' if hit else 'miss'}"
            )

    def put(self, key: Hashable, value: Any) -> None:
        self.cache.put(self._scoped(key), value)

    def count(self, hit: bool) -> None:
        """Count one lookup of a memo kept outside the LRU's storage, as
        this region's and the cache's own lookups are counted."""
        with self.cache._lock:
            for stats in (self.stats, self.cache.stats):
                if hit:
                    stats.hits += 1
                else:
                    stats.misses += 1
        self._record_flight(hit)

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        ran = False

        def wrapped() -> Any:
            nonlocal ran
            ran = True
            return factory()

        try:
            value = self.cache.get_or_create(self._scoped(key), wrapped)
        except BaseException:
            # The factory raised (ours, or we were a waiter whose retry
            # ran it): the lookup still happened and was a miss — count
            # it, or the region's hit rate overstates itself under load.
            if ran:
                with self.cache._lock:
                    self.stats.misses += 1
                self._record_flight(False)
            raise
        with self.cache._lock:
            if ran:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        self._record_flight(not ran)
        return value

    def __contains__(self, key: Hashable) -> bool:
        return self._scoped(key) in self.cache
