"""Deterministic in-process multi-rank transport.

Each simulated rank runs its program in its own thread and talks to the
others only through the five collectives the algorithm needs, in the
shape of MPI's v-collectives. A rank sends one buffer, flattened, with
a count per destination in elements (``alltoallv``,
``neighbor_alltoallv``, and ``scatterv`` at the root): destination k
gets the next ``counts[k]`` elements. A rank receives one buffer with a
count per source (``allgatherv``, ``alltoallv``, ``neighbor_alltoallv``,
and ``gatherv`` at the root), the sources' parts in rank order (in the
receiver's neighbor order for ``neighbor_alltoallv``). The interface
maps one to one onto mpi4py's ``Allgatherv``, ``Alltoallv``,
``Gatherv``, ``Scatterv`` and ``Neighbor_alltoallv``. Counts that are
not one per destination, are negative, or do not sum to the buffer's
length raise :class:`TransportError` naming the rank, at the call.

Collective calls rendezvous on a global slot counter: every live rank
must arrive at slot k with the same collective kind before any of them
proceeds, which makes mismatched schedules and stalled ranks detectable
instead of hanging. A slot leaves the world as soon as it completes:
every rank has arrived, and each waiter holds the slot itself. Each call
snapshots its rank's one send buffer, at the call, into a private
read-only array (a ``scatterv`` rank other than the root sends nothing
and snapshots nothing), so a sender may reuse its buffer right after
the call. The last rank to arrive checks the slot and counts its traffic
under the world lock; each receiver then assembles its own result after
it leaves the lock, so that work is charged to the receiver's thread. A
result of one part is a view of the snapshot, one of several parts a
new array; ``allgatherv``'s is joined once and shared.
Received buffers and counts are read-only (a receiver that needs to
write copies first) and are a pure function of the inputs: two runs
with the same seed and programs are bit-identical regardless of thread
scheduling. Wall times are the only nondeterministic output and are
reported separately from the deterministic statistics.

A neighbor list must be strictly increasing, must not hold its own rank
and must name ranks of the world, and the graph must be symmetric. As an
MPI graph communicator fixes its neighbors once, at creation, the lists
are checked once per distinct graph: only when some rank's list differs
from the lists last validated. A graph fixed at setup is checked once,
not on every exchange; a list that changes is checked again.

One rule counts every collective's traffic: a message is a nonempty
part sent to another rank (a rank's own part never travels), counted in
the sender's ``msgs_sent`` and ``bytes_sent`` and the receiver's
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
    __slots__ = ("kind", "payloads", "deliver", "done")

    def __init__(self, kind):
        self.kind = kind
        self.payloads = {}
        self.deliver = None
        self.done = False


def _snapshot(send):
    """Private read-only flat copy of a send buffer: what goes on the wire."""
    snap = np.array(send, order="C").ravel()
    snap.setflags(write=False)
    return snap


def _read_only(array):
    array.setflags(write=False)
    return array


def _joined(parts, empty):
    """One read-only buffer of ``parts`` in order: a lone part as it is (a
    view of a snapshot), several joined into a new array, ``empty`` if none."""
    if len(parts) == 1:
        return parts[0]
    return _read_only(np.concatenate(parts)) if parts else empty


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
        self._graph = None     # the neighbor lists last validated, by rank,
        self._edges = None     # and their edge arrays (see _check_graph)
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
                if slot.payloads and rank not in slot.payloads:
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
                    slot.deliver = getattr(self, f"_complete_{kind}")(slot.payloads)
                except TransportError as exc:
                    self._fail(exc)
                except Exception as exc:
                    self._fail(TransportError(f"{kind} failed: {exc}"))
                slot.done = True
                del self._slots[slot_idx]   # every rank has arrived
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
        result = slot.deliver(rank)
        self.stats[rank].by_kind[kind].seconds += time.perf_counter() - t0
        return result

    # -- completion rules (run once per slot, under the lock) ---------------
    #
    # Each checks the slot, counts its traffic and returns ``deliver(rank)``,
    # which every rank calls for its own result after leaving the lock.

    def _tally(self, kind, src, dst, nbytes, payload=None):
        """The one counting rule. Rank ``src[k]`` addresses ``nbytes[k]``
        bytes to rank ``dst[k]``; a rank's own part never travels and an
        empty part is no message. ``payload`` defaults to the bytes sent."""
        n = self.size
        travels = (src != dst) & (nbytes > 0)
        src, dst, nbytes = src[travels], dst[travels], nbytes[travels]
        msgs = np.bincount(src, minlength=n).tolist()
        sent = np.bincount(src, nbytes, minlength=n).astype(np.int64)
        recv = np.bincount(dst, nbytes, minlength=n).astype(np.int64).tolist()
        payload = (sent if payload is None else payload).tolist()
        sent = sent.tolist()
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
        n = self.size
        snaps = [payloads[r] for r in range(n)]
        sizes = _read_only(np.array([s.size for s in snaps], dtype=np.int64))
        nbytes = sizes * [s.itemsize for s in snaps]
        senders = np.flatnonzero(nbytes)
        self._tally("allgatherv", np.repeat(senders, n), np.tile(np.arange(n), len(senders)),
                    np.repeat(nbytes[senders], n), nbytes)
        joined = _joined(snaps, None)
        return lambda rank: (joined, sizes)

    def _complete_alltoallv(self, payloads):
        n = self.size
        snaps = [payloads[r][0] for r in range(n)]
        counts = _read_only(np.stack([payloads[r][1] for r in range(n)]))  # [from, to]
        displ = np.cumsum(counts, axis=1) - counts
        src, dst = np.nonzero(counts)
        self._tally("alltoallv", src, dst,
                    counts[src, dst] * np.array([s.itemsize for s in snaps])[src])

        def deliver(rank):
            got = counts[:, rank]
            senders = np.flatnonzero(got)
            parts = [snaps[i][at : at + c] for i, at, c in zip(
                senders.tolist(), displ[senders, rank].tolist(), got[senders].tolist())]
            return _joined(parts, snaps[rank][:0]), got
        return deliver

    def _complete_gatherv(self, payloads):
        n = self.size
        root = self._root("gatherv", payloads)
        snaps = [payloads[r][1] for r in range(n)]
        sizes = _read_only(np.array([s.size for s in snaps], dtype=np.int64))
        nbytes = sizes * [s.itemsize for s in snaps]
        self._tally("gatherv", np.arange(n), np.full(n, root), nbytes, nbytes)

        def deliver(rank):
            if rank != root:
                return None
            return _joined([s for s in snaps if s.size], snaps[root][:0]), sizes
        return deliver

    def _complete_scatterv(self, payloads):
        n = self.size
        root = self._root("scatterv", payloads)
        _, snap, counts = payloads[root]
        nbytes = counts * snap.itemsize
        self._tally("scatterv", np.full(n, root), np.arange(n), nbytes, nbytes)
        ends = np.cumsum(counts).tolist()
        counts = counts.tolist()
        return lambda rank: snap[ends[rank] - counts[rank] : ends[rank]]

    def _check_graph(self, graph):
        """Raise :class:`TransportError` for the first bad list, rank by
        rank; else return the graph's edges, ``(src, dst, degree, inc,
        inc_start)``: every listed edge, rank by rank in list order; each
        rank's list length; and the edges into each rank, by sender, at
        ``inc[inc_start[r] : inc_start[r + 1]]``."""
        n = self.size
        listed = [set(nbrs) for nbrs in graph]
        for r, nbrs in enumerate(graph):
            if any(map(operator.ge, nbrs, nbrs[1:])):
                raise TransportError(
                    f"neighbor_alltoallv: rank {r} lists {nbrs}, not strictly increasing"
                )
            if r in listed[r]:
                raise TransportError(f"neighbor_alltoallv: rank {r} lists itself")
            for j in nbrs:
                if not 0 <= j < n:
                    raise TransportError(f"neighbor_alltoallv: rank {r} lists unknown rank {j}")
                if r not in listed[j]:
                    raise TransportError(
                        f"neighbor_alltoallv: asymmetric graph, {r} lists {j} "
                        f"but {j} does not list {r}"
                    )
        # The graph is symmetric, so a rank receives on as many edges as it
        # sends on; with the lists sorted, its senders come in list order.
        degree = [len(nbrs) for nbrs in graph]
        src = np.repeat(np.arange(n), degree)
        dst = np.fromiter((j for nbrs in graph for j in nbrs), np.int64, len(src))
        inc_start = np.concatenate([[0], np.cumsum(degree)]).tolist()
        return src, dst, np.array(degree), np.lexsort((src, dst)), inc_start

    def _complete_neighbor_alltoallv(self, payloads):
        n = self.size
        graph = tuple(payloads[r][0] for r in range(n))
        if graph != self._graph:
            self._edges = self._check_graph(graph)
            self._graph = graph
        src, dst, degree, inc, inc_start = self._edges
        snaps = [payloads[r][1] for r in range(n)]
        counts = np.concatenate([payloads[r][2] for r in range(n)])
        sizes = np.array([s.size for s in snaps], dtype=np.int64)
        # Each edge's offset in its sender's buffer.
        displ = np.cumsum(counts) - counts - np.repeat(np.cumsum(sizes) - sizes, degree)
        self._tally("neighbor_alltoallv", src, dst,
                    counts * np.repeat([s.itemsize for s in snaps], degree))

        def deliver(rank):
            edges = inc[inc_start[rank] : inc_start[rank + 1]]
            got = _read_only(counts[edges])
            parts = [snaps[i][at : at + c] for i, at, c in
                     zip(src[edges].tolist(), displ[edges].tolist(), got.tolist()) if c]
            return _joined(parts, snaps[rank][:0]), got
        return deliver


class RankComm:
    """One rank's handle on the world; confined to a single thread."""

    def __init__(self, world, rank):
        self.world = world
        self.rank = rank
        self.size = world.size
        self._calls = 0

    def _call(self, kind, payload):
        slot = self._calls
        self._calls += 1
        return self.world._rendezvous(self.rank, slot, kind, payload)

    def _counts(self, kind, counts, n_dest, dest, size):
        """``counts`` as int64, one per destination, splitting ``size``."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (n_dest,):
            raise TransportError(
                f"{kind}: rank {self.rank} passed {counts.size} counts for {n_dest} {dest}"
            )
        if (counts < 0).any() or counts.sum() != size:
            raise TransportError(
                f"{kind}: rank {self.rank} passed counts {counts.tolist()} "
                f"for a buffer of {size} elements"
            )
        return counts

    def allgatherv(self, send):
        """Every rank receives ``(recv, counts)``: all ranks' buffers joined
        in rank order, and each rank's element count."""
        return self._call("allgatherv", _snapshot(send))

    def alltoallv(self, send, counts):
        """Full exchange: rank k gets the next ``counts[k]`` elements of
        ``send``. Returns ``(recv, counts)``: what every rank sent this
        one, in rank order, and the element count from each rank."""
        snap = _snapshot(send)
        counts = self._counts("alltoallv", counts, self.size, "ranks", snap.size)
        return self._call("alltoallv", (snap, counts))

    def gatherv(self, send, root=0):
        """The root receives ``(recv, counts)``: all ranks' buffers joined
        in rank order, and each rank's element count. Others get None."""
        return self._call("gatherv", (root, _snapshot(send)))

    def scatterv(self, send=None, counts=None, root=0):
        """The root sends rank k the next ``counts[k]`` elements of
        ``send``; every rank returns its own segment. Only the root passes
        ``send`` and ``counts``."""
        if root != self.rank:
            return self._call("scatterv", (root, None, None))
        if send is None or counts is None:
            raise TransportError(f"scatterv: root rank {self.rank} passed no buffer or counts")
        snap = _snapshot(send)
        counts = self._counts("scatterv", counts, self.size, "ranks", snap.size)
        return self._call("scatterv", (root, snap, counts))

    def neighbor_alltoallv(self, neighbors, send, counts):
        """Sparse exchange along a symmetric rank graph.

        ``neighbors`` is this rank's sorted neighbor list; its k-th
        neighbor gets the next ``counts[k]`` elements of ``send``. Returns
        ``(recv, counts)``: what the neighbors sent this rank, in list
        order, and the element count from each. Zero bytes ever move
        between ranks that do not list each other.
        """
        nbrs = tuple(map(int, neighbors))
        snap = _snapshot(send)
        counts = self._counts("neighbor_alltoallv", counts, len(nbrs), "neighbors", snap.size)
        return self._call("neighbor_alltoallv", (nbrs, snap, counts))

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
