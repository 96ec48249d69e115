"""Deterministic in-process multi-rank transport.

Each simulated rank runs its program in its own thread and talks to the
others only through the five collectives the algorithm needs. Collective
calls rendezvous on a global slot counter: every live rank must arrive at
slot k with the same collective kind before any of them proceeds, which
makes mismatched schedules and stalled ranks detectable instead of
hanging. Each send buffer is snapshotted once, when its rank calls the
collective, into a private read-only array, and every receiver of that
buffer is handed the snapshot itself: a sender may reuse its buffer
right after the call, and a receiver that needs to write copies first.
Results are assembled in rank order from the snapshots, so received
buffers (and all count/byte statistics) are a pure function of the
inputs: two runs with the same seed and programs are bit-identical
regardless of thread scheduling. Wall times are the only nondeterministic
output and are reported separately from the deterministic statistics.

One rule counts every collective's traffic: a message is a nonempty
buffer sent to another rank (a rank's own part never travels), counted
in the sender's ``msgs_sent`` and ``bytes_sent`` and the receiver's
``bytes_recv``. ``payload_bytes`` is a rank's own buffer for allgatherv
and gatherv, its own segment for scatterv (the root's included in both),
and the bytes it sends other ranks for alltoallv and neighbor_alltoallv.

A real message-passing backend can replace :class:`RankComm` by providing
the same five methods; the algorithm modules only ever see this interface.
This simulator, named "sim" in run manifests, is the only backend shipped.
"""

from __future__ import annotations

import numbers
import operator
import threading
import time
from dataclasses import dataclass

import numpy as np

COLLECTIVE_KINDS = ("allgatherv", "alltoallv", "gatherv", "scatterv", "neighbor_alltoallv")

# The one backstop deadline: seconds a rank waits in a collective that some
# other rank never enters. A rank that finishes or fails ends the wait at once.
_WAIT_TIMEOUT = 300.0


class TransportError(RuntimeError):
    """Base class for simulated transport failures."""


class CollectiveMismatchError(TransportError):
    """Ranks disagreed on which collective the current slot is."""


class StalledCollectiveError(TransportError):
    """A collective can never complete because some rank left the program."""


def transport_backend():
    return "sim"


@dataclass
class CollectiveStats:
    calls: int = 0
    msgs_sent: int = 0
    bytes_sent: int = 0
    bytes_recv: int = 0
    payload_bytes: int = 0
    seconds: float = 0.0

    def deterministic_fields(self):
        return {
            "calls": self.calls,
            "msgs_sent": self.msgs_sent,
            "bytes_sent": self.bytes_sent,
            "bytes_recv": self.bytes_recv,
            "payload_bytes": self.payload_bytes,
        }


class RankStats:
    """Per-rank, per-collective instrumentation."""

    def __init__(self):
        self.by_kind = {kind: CollectiveStats() for kind in COLLECTIVE_KINDS}

    def snapshot(self):
        """Deterministic counters only (no wall times)."""
        return {k: s.deterministic_fields() for k, s in self.by_kind.items()}

    def seconds_by_kind(self):
        return {k: s.seconds for k, s in self.by_kind.items()}


def stats_delta(before, after):
    """Field-wise difference of two :meth:`RankStats.snapshot` results."""
    return {
        kind: {f: after[kind][f] - before[kind][f] for f in after[kind]}
        for kind in after
    }


class _Slot:
    __slots__ = ("kind", "payloads", "results", "done", "picked")

    def __init__(self, kind):
        self.kind = kind
        self.payloads = {}
        self.results = None
        self.done = False
        self.picked = 0


def _snapshot(arr):
    """Private read-only copy of a send buffer: what goes on the wire."""
    snap = np.array(arr, copy=True)
    snap.setflags(write=False)
    return snap


class SimWorld:
    """Shared state of one simulated communicator."""

    def __init__(self, size, seed=0):
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.seed = seed
        self._cond = threading.Condition()
        self._slots = {}
        self._finished = set()
        self._failure = None
        self.stats = [RankStats() for _ in range(size)]

    def comm(self, rank):
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for world of size {self.size}")
        return RankComm(self, rank)

    def abort(self, exc):
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    def mark_finished(self, rank):
        with self._cond:
            self._finished.add(rank)
            for slot in self._slots.values():
                if not slot.done and slot.payloads and rank not in slot.payloads:
                    self._failure = self._failure or StalledCollectiveError(
                        f"{slot.kind} stalled: rank {rank} finished without joining "
                        f"(arrived: {sorted(slot.payloads)})"
                    )
            self._cond.notify_all()

    def deterministic_stats(self):
        return [s.snapshot() for s in self.stats]

    def check_conservation(self):
        """Global bytes sent must equal global bytes received, per kind."""
        for kind in COLLECTIVE_KINDS:
            sent = sum(s.by_kind[kind].bytes_sent for s in self.stats)
            recv = sum(s.by_kind[kind].bytes_recv for s in self.stats)
            if sent != recv:
                raise AssertionError(f"stats conservation violated for {kind}: {sent} != {recv}")
        return True

    # -- rendezvous core ----------------------------------------------------

    def _fail(self, exc):
        self._failure = self._failure or exc
        self._cond.notify_all()
        raise self._failure

    def _raise_failure(self, kind):
        if isinstance(self._failure, TransportError):
            raise type(self._failure)(str(self._failure)) from self._failure
        raise TransportError(f"{kind} aborted by rank failure") from self._failure

    def _rendezvous(self, rank, slot_idx, kind, payload):
        t0 = time.perf_counter()
        with self._cond:
            if self._failure is not None:
                self._raise_failure(kind)
            slot = self._slots.get(slot_idx)
            if slot is None:
                slot = self._slots[slot_idx] = _Slot(kind)
            if slot.kind != kind:
                self._fail(CollectiveMismatchError(
                    f"collective mismatch at slot {slot_idx}: rank {rank} called "
                    f"{kind} while others called {slot.kind}"
                ))
            if self._finished:
                missing = self._finished - set(slot.payloads) - {rank}
                if missing:
                    self._fail(StalledCollectiveError(
                        f"{kind} stalled: ranks {sorted(missing)} already finished"
                    ))
            slot.payloads[rank] = payload
            if len(slot.payloads) == self.size:
                try:
                    slot.results = getattr(self, f"_complete_{kind}")(slot.payloads)
                except TransportError as exc:
                    self._fail(exc)
                except Exception as exc:
                    self._fail(TransportError(f"{kind} failed: {exc}"))
                slot.done = True
                self._cond.notify_all()
            elif not self._cond.wait_for(
                lambda: slot.done or self._failure is not None, timeout=_WAIT_TIMEOUT
            ):
                self._fail(StalledCollectiveError(
                    f"{kind} timed out at slot {slot_idx}: arrived "
                    f"{sorted(slot.payloads)} of {self.size}"
                ))
            if self._failure is not None:
                self._raise_failure(kind)
            result = slot.results[rank]
            slot.picked += 1
            if slot.picked == self.size:
                slot.payloads.clear()
                slot.results = None
                del self._slots[slot_idx]
            self.stats[rank].by_kind[kind].seconds += time.perf_counter() - t0
            return result

    # -- completion rules (run once per slot, under the lock) ---------------

    def _tally(self, kind, nbytes, payload):
        """The one counting rule. ``nbytes[i, j]`` is what rank i sends rank
        j; the diagonal never travels and an empty buffer is no message."""
        np.fill_diagonal(nbytes, 0)
        msgs = np.count_nonzero(nbytes, axis=1).tolist()
        sent = nbytes.sum(axis=1).tolist()
        recv = nbytes.sum(axis=0).tolist()
        payload = np.asarray(payload).tolist()
        for r, st in enumerate(rank_stats.by_kind[kind] for rank_stats in self.stats):
            st.calls += 1
            st.msgs_sent += msgs[r]
            st.bytes_sent += sent[r]
            st.bytes_recv += recv[r]
            st.payload_bytes += payload[r]

    def _root(self, kind, payloads):
        """The root all ranks named; it must be a rank of this world."""
        roots = {payloads[r][0] for r in payloads}
        if len(roots) != 1:
            raise TransportError(f"{kind}: ranks disagree on root ({sorted(roots)})")
        root = roots.pop()
        if (isinstance(root, bool) or not isinstance(root, numbers.Integral)
                or not 0 <= root < self.size):
            raise TransportError(
                f"{kind}: root {root!r} is not a rank of a world of size {self.size}"
            )
        return int(root)

    def _complete_allgatherv(self, payloads):
        arrays = [payloads[r] for r in range(self.size)]
        sizes = np.array([a.nbytes for a in arrays], dtype=np.int64)
        self._tally("allgatherv", np.repeat(sizes[:, None], self.size, axis=1), sizes)
        return {r: list(arrays) for r in range(self.size)}

    def _complete_alltoallv(self, payloads):
        for r, send in payloads.items():
            if len(send) != self.size:
                raise TransportError(
                    f"alltoallv: rank {r} passed {len(send)} buffers for world size {self.size}"
                )
        nbytes = np.array(
            [[b.nbytes for b in payloads[r]] for r in range(self.size)], dtype=np.int64
        )
        self._tally("alltoallv", nbytes, nbytes.sum(axis=1) - nbytes.diagonal())
        return {r: [payloads[i][r] for i in range(self.size)] for r in range(self.size)}

    def _complete_gatherv(self, payloads):
        root = self._root("gatherv", payloads)
        arrays = [payloads[r][1] for r in range(self.size)]
        sizes = np.array([a.nbytes for a in arrays], dtype=np.int64)
        nbytes = np.zeros((self.size, self.size), dtype=np.int64)
        nbytes[:, root] = sizes
        self._tally("gatherv", nbytes, sizes)
        return {r: arrays if r == root else None for r in range(self.size)}

    def _complete_scatterv(self, payloads):
        root = self._root("scatterv", payloads)
        segments = payloads[root][1]
        if segments is None or len(segments) != self.size:
            raise TransportError(f"scatterv: root must pass exactly {self.size} segments")
        sizes = np.array([s.nbytes for s in segments], dtype=np.int64)
        nbytes = np.zeros((self.size, self.size), dtype=np.int64)
        nbytes[root] = sizes
        self._tally("scatterv", nbytes, sizes)
        return {r: segments[r] for r in range(self.size)}

    def _complete_neighbor_alltoallv(self, payloads):
        graphs = {r: payloads[r][0] for r in payloads}
        sends = {r: payloads[r][1] for r in payloads}
        # Every listed edge (r, j) at once, rank by rank in list order:
        # ``at`` is j's position in r's list, and an edge is good when j is
        # a rank that lists r back.
        n, degree = self.size, [len(g) for g in graphs.values()]
        src = np.repeat(np.array(list(graphs), dtype=np.int64), degree)
        at = np.arange(len(src)) - np.repeat(np.cumsum(degree) - degree, degree)
        try:
            dst = np.fromiter((j for g in graphs.values() for j in g), np.int64, len(src))
        except OverflowError:  # a rank beyond int64 is unknown, as n is
            dst = np.array([min(max(j, -1), n) for g in graphs.values() for j in g], dtype=np.int64)
        known = (dst >= 0) & (dst < n)
        listed = np.zeros((n, n), dtype=bool)
        listed[src[known], dst[known]] = True
        good = known.copy()
        good[known] = listed[dst[known], src[known]]
        first_bad = {}    # rank -> its first neighbor on a bad edge
        for r, k in zip(src[~good][::-1].tolist(), at[~good][::-1].tolist()):
            first_bad[r] = graphs[r][k]
        for r, nbrs in graphs.items():
            if len(sends[r]) != len(nbrs):
                raise TransportError(
                    f"neighbor_alltoallv: rank {r} passed {len(sends[r])} buffers "
                    f"for {len(nbrs)} neighbors"
                )
            if any(map(operator.ge, nbrs, nbrs[1:])):
                raise TransportError(
                    f"neighbor_alltoallv: rank {r} lists {nbrs}, not strictly increasing"
                )
            if r in nbrs:
                raise TransportError(f"neighbor_alltoallv: rank {r} lists itself")
            j = first_bad.get(r)
            if j is not None and not 0 <= j < n:
                raise TransportError(f"neighbor_alltoallv: rank {r} lists unknown rank {j}")
            if j is not None:
                raise TransportError(
                    f"neighbor_alltoallv: asymmetric graph, {r} lists {j} "
                    f"but {j} does not list {r}"
                )
        nbytes = np.zeros((n, n), dtype=np.int64)
        nbytes[src, dst] = [buf.nbytes for r in graphs for buf in sends[r]]
        self._tally("neighbor_alltoallv", nbytes, nbytes.sum(axis=1))
        # What j addressed to r travels the (j, r) edge only.
        place = np.zeros((n, n), dtype=np.int64)
        place[src, dst] = at
        place = place.tolist()
        return {r: [sends[j][place[j][r]] for j in nbrs] for r, nbrs in graphs.items()}


class RankComm:
    """One rank's handle on the world; confined to a single thread."""

    def __init__(self, world, rank):
        self.world = world
        self.rank = rank
        self.size = world.size
        self._calls = 0

    def _next_slot(self):
        idx = self._calls
        self._calls += 1
        return idx

    def allgatherv(self, array):
        """Every rank receives the rank-ordered list of all contributions."""
        return self.world._rendezvous(
            self.rank, self._next_slot(), "allgatherv", _snapshot(array)
        )

    def alltoallv(self, send_list):
        """Full exchange: ``send_list[j]`` goes to rank j; returns buffers
        received from every rank, in rank order."""
        payload = [_snapshot(b) for b in send_list]
        return self.world._rendezvous(self.rank, self._next_slot(), "alltoallv", payload)

    def gatherv(self, array, root=0):
        """Root receives the rank-ordered list of contributions; others None."""
        return self.world._rendezvous(
            self.rank, self._next_slot(), "gatherv", (root, _snapshot(array))
        )

    def scatterv(self, segments=None, root=0):
        """Root distributes ``segments[j]`` to rank j; returns own segment."""
        payload = (root, None if segments is None else [_snapshot(s) for s in segments])
        return self.world._rendezvous(self.rank, self._next_slot(), "scatterv", payload)

    def neighbor_alltoallv(self, neighbors, send_list):
        """Sparse exchange along a symmetric rank graph.

        ``neighbors`` is this rank's sorted neighbor list; ``send_list`` is
        aligned with it. Returns received buffers in the same alignment.
        Zero bytes ever move between ranks that do not list each other.
        """
        nbrs = tuple(int(n) for n in neighbors)
        payload = (nbrs, [_snapshot(b) for b in send_list])
        return self.world._rendezvous(
            self.rank, self._next_slot(), "neighbor_alltoallv", payload
        )

    def stats(self):
        return self.world.stats[self.rank]


def create_world(size, seed=0):
    """P simulated rank handles sharing one deterministic world."""
    return SimWorld(size, seed)


def run_spmd(world, fn):
    """Run ``fn(comm)`` on every rank in its own thread.

    Returns the per-rank results in rank order; the first rank failure
    aborts all collectives and is re-raised here.
    """
    results = [None] * world.size

    def runner(rank):
        comm = world.comm(rank)
        try:
            results[rank] = fn(comm)
        except BaseException as exc:  # noqa: BLE001 - must abort peers
            world.abort(exc)
        finally:
            world.mark_finished(rank)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"fmm-rank-{r}")
        for r in range(world.size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if world._failure is not None:
        raise world._failure
    return results
