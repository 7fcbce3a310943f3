"""The randomized trace oracle: one seeded operation stream, against a shadow.

The machine drives a heap with seeded operations, holding guards across
steps, persists and power cycles, and keeps a plain dict of what every
object must contain. Every read and power cycle compares bytes with it; a
read of a swapped-out object goes through ``VnvHeap.read``, which must not
refuse it and, when it serves it from NVM, must move its load words alone;
a whole-object ``replace`` is never refused for cache pressure and, when it
writes a swapped-out object around the cache, must move its payload words
alone; every persist is armed at exactly ``persist_bound`` and must write
exactly the dry run of :func:`persist_cost`. A power cut runs one drawn op
with the device armed at a random word count; after a cut, restore, itself
cut once, must return exactly the ids of the last commit, and byte for
byte every committed payload not written since it. Every access, sync,
unload and dealloc is refused for a guard exactly when the machine's own
guards say so, any use of a released guard or a deallocated handle is
refused; ``refusals`` counts the guard refusals. :meth:`TraceMachine.check`
re-derives the invariants from scratch: each handle is its object's record,
the dirty total is 4 bytes per word of the next persist plus 3 words and
within the limit, the cost is within the bound, modified and pinned objects
are resident, each object's pin count is the number of read guards the
machine holds on it, or -1 under its write guard, a guarded object stays
where its guard found it, each object's block and charge are its size
aligned with and without the meta charge, cache blocks are disjoint and
end inside the cache, and the heap's indexes and totals agree with the
per-object state. The test suite and the ``check``/``crash``
commands drive this one machine, each deciding how often to run the full
check. The checks are ``assert`` statements: they vanish under ``python -O``.
"""

import random
from collections import Counter

from .errors import (
    CachePressureUnresolvableError,
    DirtyBudgetUnsatisfiableError,
    GuardActiveError,
    GuardReleasedError,
    OutOfNvmError,
    PowerFailureInjected,
    PreconditionError,
    StaleHandleError,
    StillPinnedError,
    WriteGuardActiveError,
)
from .freelist import align_up
from .heap import HEADER_CHARGE_BYTES, META_CHARGE_BYTES, VnvHeap, persist, persist_bound, restore
from .layout import SUPERBLOCK_BYTES
from .storage import WORD_BYTES, SimulatedNvm, words_for

EXPECTED_PRESSURE_ERRORS = (
    CachePressureUnresolvableError,
    DirtyBudgetUnsatisfiableError,
    OutOfNvmError,
)


def check_indexes(heap):
    """The residents are the objects ``_by_offset`` names, each at its
    block's start, and exactly those with a cache offset; ``_by_end`` names
    each at its block's end; every object in ``_modified``, whose members
    are the modified objects, is resident; arrival stamps are distinct, so
    the dirty rule's sort by them is one order; the cache tiers partition
    the residents, each in tier ``hits.bit_length()``; and that tier exists
    for every live object, so a swapped-out one's next load can file it."""
    metas = heap._metas
    by_offset, by_end = heap._by_offset, heap._by_end
    residents = {m.id: m for m in by_offset.values()}
    assert len(residents) == len(by_offset) == len(by_end)
    assert residents.keys() == {h for h, m in metas.items() if m.cache_offset >= 0}
    for h, m in residents.items():
        assert m is metas[h], f"object {h} is resident but not live"
        assert by_offset[m.cache_offset] is m, f"object {h}'s start is mapped elsewhere"
        assert by_end.get(m.cache_offset + m.block_bytes) is m, f"object {h}'s end is unmapped"
    assert heap._modified.keys() <= residents.keys(), "a modified object is not resident"
    assert all(m is metas[h] for h, m in heap._modified.items())
    assert len({m.arrival for m in residents.values()}) == len(residents), \
        "two residents share an arrival stamp"

    tiered = [(t, h, m) for t, tier in enumerate(heap._tiers) for h, m in tier.items()]
    assert len(tiered) == len(residents), "a resident is in no tier or in two"
    for t, h, m in tiered:
        assert residents.get(h) is m, f"tier {t} holds object {h}, which is not resident"
        assert t == m.hits.bit_length(), f"object {h} with {m.hits} hits is in tier {t}"
    top = max((m.hits.bit_length() for m in metas.values()), default=0)
    assert top < len(heap._tiers), f"an object with {top}-bit hits has no tier"


def persist_cost(heap):
    """Words the next ``persist(heap)`` writes, as a dry run: the payload
    words of every modified object and the epoch word. Derived from each
    live object's membership in the modified index and its size, not from
    the dirty counter."""
    modified = heap._modified
    return sum(words_for(m.size_bytes) for h, m in heap._metas.items() if h in modified) + 1


class TraceMachine:
    """A heap, a seeded operation stream over it, and the shadow it must match."""

    def __init__(self, seed, cache=1024, dirty=512, max_objects=32,
                 capacity=64 * 1024):
        self.rng = random.Random(seed)
        self.cache = cache
        self.dirty = dirty
        self.dev = SimulatedNvm(capacity)
        self.heap = VnvHeap(self.dev, cache_size_bytes=cache,
                            max_modified_state_bytes=dirty,
                            max_objects=max_objects)
        self.shadow = {}        # handle id -> bytearray, in allocation order
        self.handles = {}       # handle id -> ObjectHandle
        self.guards = []        # (handle id, guard, writable, cache offset at grant)
        self.refusals = Counter()  # guard refusals by operation
        self.committed = None   # handle id -> bytes at the last commit
        self.written = set()    # ids written since the last commit
        self._ops = [n for n, w in self.OPS for _ in range(w)]
        self._cut_ops = [n for n in self._ops if n != "op_power_cut"]

    # -- invariants ----------------------------------------------------------

    def check(self):
        heap = self.heap
        metas = heap._metas
        assert metas.keys() == self.shadow.keys() == self.handles.keys(), \
            "the live objects differ from the shadow's"

        # A write guard is pin count -1; read guards count up from 0.
        pins = Counter()
        for hid, _, writable, _ in self.guards:
            pins[hid] = -1 if writable else pins[hid] + 1
        blocks = []
        pinned = resident_bytes = 0
        for hid, m in metas.items():
            assert self.handles[hid] is m, f"object {hid}'s handle is not its record"
            assert m.pin_count == pins[hid], \
                f"object {hid} has pin count {m.pin_count}, the machine's guards say {pins[hid]}"
            assert (m.block_bytes, m.charge) == (
                align_up(m.size_bytes + META_CHARGE_BYTES), align_up(m.size_bytes)), \
                f"object {hid} of {m.size_bytes} B has block {m.block_bytes}, charge {m.charge}"
            if m.cache_offset < 0:
                assert hid not in heap._modified, f"object {hid} modified but not resident"
                assert not m.pin_count, f"object {hid} pinned but not resident"
                continue
            assert m.cache_offset + m.block_bytes <= self.cache, \
                f"object {hid}'s cache block ends past the cache"
            blocks.append((m.cache_offset, m.block_bytes))
            pinned += m.pin_count != 0
            resident_bytes += m.size_bytes
        cost = persist_cost(heap)
        assert heap.dirty_bytes == WORD_BYTES * (cost + 3) <= self.dirty, \
            f"dirty {heap.dirty_bytes} B, the next persist writes {cost} words"
        assert cost <= persist_bound(heap.config), f"the next persist writes {cost} words"

        blocks.sort()
        for (o1, n1), (o2, _) in zip(blocks, blocks[1:]):
            assert o1 + n1 <= o2, "resident cache blocks overlap"

        stats = heap.stats()
        assert stats.resident_count == len(blocks)
        assert stats.pinned_count == pinned
        assert stats.resident_bytes == resident_bytes
        check_indexes(heap)
        for hid, _, _, offset in self.guards:
            assert metas[hid].cache_offset == offset, f"guarded object {hid} moved"

    def verify_content(self, hid):
        with self.heap.get_ref(self.handles[hid]) as guard:
            assert guard.read() == self.shadow[hid], f"object {hid} content diverged"

    # -- operations ------------------------------------------------------------

    def alloc_size(self):
        """Half the draws take one of four sizes, so that live objects often
        share one and a restore that swaps two of their extents shows."""
        top = self.dirty - HEADER_CHARGE_BYTES
        if self.rng.random() < 0.5:
            return self.rng.choice((1, 24, top // 8, top // 2))
        return self.rng.randint(1, top)

    def op_alloc(self):
        payload = self.rng.randbytes(self.alloc_size())
        try:
            h = self.heap.alloc(payload)
        except EXPECTED_PRESSURE_ERRORS:
            return
        self.shadow[h.id] = bytearray(payload)
        self.handles[h.id] = h

    def op_dealloc(self):
        hid = self.pick()
        if hid is None:
            return
        handle = self.handles[hid]
        try:
            self.heap.dealloc(handle)
        except StillPinnedError:
            assert self.guarded(hid), f"dealloc of object {hid} refused without a guard"
            self.refusals["dealloc"] += 1
            return
        assert not self.guarded(hid), f"dealloc of guarded object {hid} granted"
        del self.shadow[hid], self.handles[hid]
        try:
            self.heap.read(handle)
        except StaleHandleError:
            return
        raise AssertionError(f"a read of deallocated object {hid} was granted")

    def op_read(self):
        hid = self.pick()
        if hid is None:
            return
        if self.handles[hid].cache_offset < 0:
            self.read_swapped_out(hid)
            return
        # A resident needs no room, so only a write guard can refuse it.
        write_held = self.guarded(hid, writable=True)
        try:
            self.verify_content(hid)
        except WriteGuardActiveError:
            assert write_held, f"read of object {hid} refused without a write guard"
            self.refusals["get_ref"] += 1
        else:
            assert not write_held, f"read of object {hid} granted beside a write guard"

    def read_swapped_out(self, hid):
        """A copy-out ``read`` of a swapped-out, so unguarded, object. It is
        never refused and returns the shadow's bytes; when the object was
        not admitted, it moved only its load words and changed nothing."""
        heap, handle, meter = self.heap, self.handles[hid], self.dev.cost_meter
        stats, (read, written) = heap.stats(), meter.snapshot()
        assert heap.read(handle) == self.shadow[hid], f"object {hid} content diverged"
        if handle.cache_offset < 0:
            assert meter.snapshot() == (read + words_for(handle.size_bytes), written), \
                f"a read of object {hid} served from NVM moved more than its load"
            assert heap.stats() == stats, f"a read of object {hid} served from NVM changed the heap"

    def op_write(self):
        hid = self.pick()
        if hid is None:
            return
        if self.guarded(hid):
            try:
                self.heap.get_mut(self.handles[hid])
            except GuardActiveError:
                self.refusals["get_mut"] += 1
                return
            raise AssertionError(f"write guard on object {hid} granted beside a guard")
        size = len(self.shadow[hid])
        at = self.rng.randrange(size)
        data = self.rng.randbytes(self.rng.randint(1, size - at))
        try:
            with self.heap.get_mut(self.handles[hid]) as w:
                w.write(data, at)
        except EXPECTED_PRESSURE_ERRORS:
            return
        self.shadow[hid][at : at + len(data)] = data
        self.written.add(hid)

    def op_replace(self):
        """A whole-object ``replace`` with a random payload. A guard the
        machine holds refuses it, and so may the dirty budget while the
        machine holds any guard; cache pressure never does. A miss written
        around the cache moves the payload's words alone and changes
        nothing else."""
        hid = self.pick()
        if hid is None:
            return
        heap, handle, meter = self.heap, self.handles[hid], self.dev.cost_meter
        payload = self.rng.randbytes(len(self.shadow[hid]))
        if self.guarded(hid):
            try:
                heap.replace(handle, payload)
            except GuardActiveError:
                self.refusals["replace"] += 1
                return
            raise AssertionError(f"replace of guarded object {hid} granted")
        swapped_out = handle.cache_offset < 0
        stats, (read, written) = heap.stats(), meter.snapshot()
        # Before the call, so that a cut write-around, which goes over the
        # committed extent in place as a cut sync does, is exempt.
        fresh = hid not in self.written
        self.written.add(hid)
        try:
            heap.replace(handle, payload)
        except DirtyBudgetUnsatisfiableError:
            # Only a pinned modified object can keep the dirty rule from
            # making room.
            assert self.guards, f"replace of object {hid} refused with no guard held"
            if fresh:
                self.written.discard(hid)  # a refusal moves no word
            return
        self.shadow[hid][:] = payload
        if swapped_out and handle.cache_offset < 0:
            assert meter.snapshot() == (read, written + words_for(len(payload))), \
                f"a replace of object {hid} written around moved more than its payload"
            assert heap.stats() == stats, \
                f"a replace of object {hid} written around changed the heap"

    def op_hold_guard(self):
        if len(self.guards) >= 4:
            return
        hid = self.pick()
        if hid is None or self.guarded(hid):
            return
        writable = self.rng.random() < 0.4
        try:
            g = (self.heap.get_mut if writable else self.heap.get_ref)(self.handles[hid])
        except EXPECTED_PRESSURE_ERRORS:
            return
        self.guards.append((hid, g, writable, self.heap._metas[hid].cache_offset))

    def op_release_guard(self):
        if not self.guards:
            return
        hid, g, writable, _ = self.guards.pop(self.rng.randrange(len(self.guards)))
        if writable:
            # make held-guard writes visible to the shadow before releasing
            data = self.rng.randbytes(1)
            g.write(data, 0)
            self.shadow[hid][0:1] = data
            self.written.add(hid)
        g.release()
        for use in (g.read, lambda: g.data, g.release):
            try:
                use()
            except GuardReleasedError:
                continue
            raise AssertionError(f"a released guard on object {hid} is still usable")
        self.refusals["released"] += 1

    def op_sync(self):
        hid = self.pick()
        if hid is None:
            return
        write_held = self.guarded(hid, writable=True)
        modified = hid in self.heap._modified
        try:
            self.heap.sync_object(self.handles[hid])
        except GuardActiveError:
            assert write_held, f"sync of object {hid} refused without a write guard"
            self.refusals["sync"] += 1
        except PreconditionError:
            assert not modified, f"sync of modified object {hid} refused"
        else:
            assert modified and not write_held, f"sync of object {hid} granted"

    def op_unload(self):
        hid = self.pick()
        if hid is None:
            return
        resident, modified = self.handles[hid].cache_offset >= 0, hid in self.heap._modified
        guarded = self.guarded(hid)
        try:
            self.heap.unload(self.handles[hid])
        except StillPinnedError:
            assert guarded, f"unload of object {hid} refused without a guard"
            self.refusals["unload"] += 1
        except PreconditionError:
            assert modified or not resident, f"unload of clean resident object {hid} refused"
        else:
            assert resident and not modified and not guarded, f"unload of object {hid} granted"

    def op_persist(self):
        """Persist with the device armed at exactly ``persist_bound``: the
        commit must fit, and it must write exactly the dry run's words."""
        expected = persist_cost(self.heap)
        self.dev.arm_power_failure(persist_bound(self.heap.config))
        try:
            words = self.persist()
        finally:
            self.dev.disarm_power_failure()
        assert words == expected, f"persist wrote {words} words, the dry run {expected}"

    def persist(self):
        """Persist, note the shadow as the last commit and return the words
        written."""
        words = persist(self.heap).words_transferred
        self.committed = {hid: bytes(data) for hid, data in self.shadow.items()}
        self.written.clear()
        return words

    def op_power_cut(self):
        """Run one drawn op with the device armed at a random word count. If
        the power fails, reboot and restore with the device armed again, at
        a budget that may cut restore's own writes, then reboot and restore
        once more: the ids must be exactly the last commit's, and so must
        every payload not written since it. Before the first commit there is
        no checkpoint to fall back to, so no op is cut.

        A payload written since the commit is exempt: a write-back goes over
        its object's committed extent in place, so a cut sync or persist can
        leave it torn. The restored bytes then become the commit the next
        cut is judged against, since they are what the image holds."""
        if self.committed is None:
            return
        name = self.rng.choice(self._cut_ops)
        op = self.persist if name == "op_persist" else getattr(self, name)
        self.dev.arm_power_failure(self.rng.randrange(1 << self.rng.randrange(10)))
        try:
            op()
        except PowerFailureInjected:
            pass
        else:
            self.dev.disarm_power_failure()
            return
        self.guards.clear()
        self.dev = self.reboot()
        reads = words_for(SUPERBLOCK_BYTES + self.heap.tables.table_bytes)
        self.dev.arm_power_failure(reads + self.rng.randrange(4))
        try:
            restore(self.dev)
        except PowerFailureInjected:
            pass
        self.dev = self.reboot()
        self.heap, self.handles = restore(self.dev)
        assert self.handles.keys() == self.committed.keys(), \
            f"restored ids {sorted(self.handles)}, committed {sorted(self.committed)}"
        restored = {hid: self.heap.read(self.handles[hid]) for hid in sorted(self.handles)}
        for hid, data in restored.items():
            assert hid in self.written or data == self.committed[hid], \
                f"object {hid} restored other bytes than its commit"
        self.shadow = {hid: bytearray(data) for hid, data in restored.items()}
        self.committed = restored
        self.written.clear()

    def guarded(self, hid, writable=False):
        """Whether the machine holds a guard on ``hid`` (a write guard, with
        ``writable``)."""
        return any(g[0] == hid and (g[2] or not writable) for g in self.guards)

    def pick(self):
        # Ids only grow and the shadow keeps allocation order, so this draws
        # from the ids in ascending order without sorting them.
        return self.rng.choice(list(self.shadow)) if self.shadow else None

    # -- driving -----------------------------------------------------------------

    OPS = [
        ("op_alloc", 5),
        ("op_dealloc", 2),
        ("op_read", 6),
        ("op_write", 5),
        ("op_replace", 3),
        ("op_hold_guard", 2),
        ("op_release_guard", 2),
        ("op_sync", 1),
        ("op_unload", 1),
        ("op_persist", 1),
        ("op_power_cut", 1),
    ]

    def step(self):
        """Run one operation, drawn from ``OPS`` by weight."""
        getattr(self, self.rng.choice(self._ops))()

    def run(self, steps):
        """``steps`` operations with the full check after each, then release
        every guard still held."""
        for _ in range(steps):
            self.step()
            self.check()
        for g in self.guards:
            g[1].release()
        self.guards.clear()

    def reboot(self):
        """The device as the next boot finds it."""
        return self.dev.reopen()

    def power_cycle(self):
        """Check, persist as :meth:`op_persist` does, reboot and restore. The
        held guards died with the old heap; every id and byte must come
        back, and no object pinned."""
        self.check()
        self.op_persist()
        self.guards.clear()
        self.dev = self.reboot()
        self.heap, self.handles = restore(self.dev, cache_size_bytes=self.cache,
                                          max_modified_state_bytes=self.dirty)
        assert self.heap.stats().pinned_count == 0, "an object came back pinned"
        self.check()
        for hid in self.shadow:
            self.verify_content(hid)
            self.check()
