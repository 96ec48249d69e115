"""Simulated multi-rank transport: collectives, stats, determinism."""

import threading
from collections import Counter

import numpy as np
import pytest

from unifmm import transport
from unifmm.transport import (
    CollectiveMismatchError,
    StalledCollectiveError,
    TransportError,
    create_world,
    run_spmd,
    stats_delta,
    transport_backend,
)


def test_backend_identifier():
    assert transport_backend() == "sim"


def test_world_size_validation():
    with pytest.raises(ValueError, match=">= 1"):
        create_world(0)


def test_p1_collectives_are_local_copies():
    world = create_world(1)
    comm = world.comm(0)
    x = np.arange(4.0)
    got, got_counts = comm.allgatherv(x)
    assert np.array_equal(got, x)
    assert got is not x
    back, back_counts = comm.alltoallv(x, [4])
    assert np.array_equal(back, x)
    g, g_counts = comm.gatherv(x, root=0)
    assert np.array_equal(g, x)
    s = comm.scatterv(x, [4], root=0)
    assert np.array_equal(s, x)
    for counts in (got_counts, back_counts, g_counts):
        assert counts.tolist() == [4]
        assert not counts.flags.writeable
    # Each buffer was snapshotted at its call: later writes to x stay local.
    x[:] = -1.0
    for received in (got, back, g, s):
        assert np.array_equal(received, np.arange(4.0))
        assert not received.flags.writeable
        with pytest.raises(ValueError):
            received[0] = 7.0
    world.check_conservation()

    # Every receiver of one allgatherv sees the same, read-only contributions.
    def program(comm):
        mine = np.full(comm.rank + 1, float(comm.rank))
        recv = comm.allgatherv(mine)
        mine[:] = -1.0
        return recv

    results = run_spmd(create_world(3), program)
    for recv, counts in results:
        assert counts.tolist() == [1, 2, 3]
        assert not recv.flags.writeable
        assert np.array_equal(recv, results[0][0])
        parts = np.split(recv, np.cumsum(counts)[:-1])
        for rank, part in enumerate(parts):
            assert np.array_equal(part, np.full(rank + 1, float(rank)))


def test_allgatherv_sizes_and_agreement():
    world = create_world(3)

    def program(comm):
        payload = np.arange(comm.rank + 1, dtype=np.float64)
        recv, _ = comm.allgatherv(payload)
        return recv

    results = run_spmd(world, program)
    assert all(len(r) == 6 for r in results)
    for r in results[1:]:
        assert np.array_equal(r, results[0])
    world.check_conservation()


def test_gatherv_scatterv_round_trip_and_message_counts():
    world = create_world(4)

    def program(comm):
        mine = np.full(3, float(comm.rank))
        gathered = comm.gatherv(mine, root=0)
        if comm.rank == 0:
            back = comm.scatterv(*gathered, root=0)
        else:
            assert gathered is None
            back = comm.scatterv(root=0)
        return back

    results = run_spmd(world, program)
    for rank, r in enumerate(results):
        assert np.array_equal(r, np.full(3, float(rank)))
    # P-1 messages per gatherv and per scatterv.
    stats = world.deterministic_stats()
    assert sum(s["gatherv"]["msgs_sent"] for s in stats) == 3
    assert sum(s["scatterv"]["msgs_sent"] for s in stats) == 3
    world.check_conservation()


def test_scatterv_segment_count_mismatch():
    world = create_world(2)

    def program(comm):
        if comm.rank == 0:
            return comm.scatterv(np.zeros(1), [1], root=0)  # one count short
        return comm.scatterv(root=0)

    with pytest.raises(TransportError, match="rank 0 passed 1 counts for 2 ranks"):
        run_spmd(world, program)
    # A root that passes no buffer is named too.
    with pytest.raises(TransportError, match="root rank 0 passed no buffer or counts"):
        run_spmd(create_world(2), lambda comm: comm.scatterv(root=0))


def test_three_rank_ring_hand_count():
    world = create_world(3)
    ring = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

    def program(comm):
        nbrs = ring[comm.rank]
        send = np.array([10.0 * comm.rank + n for n in nbrs])
        recv, counts = comm.neighbor_alltoallv(nbrs, send, [1] * len(nbrs))
        assert counts.tolist() == [1] * len(nbrs)
        return recv

    results = run_spmd(world, program)
    assert np.array_equal(results[0], [10.0 * 1 + 0, 10.0 * 2 + 0])
    assert len(results[1]) == 2 and len(results[2]) == 2
    stats = world.deterministic_stats()
    assert sum(s["neighbor_alltoallv"]["msgs_sent"] for s in stats) == 6
    world.check_conservation()


def test_neighbor_alltoallv_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    P = 8
    edges = {(i, j) for i in range(P) for j in range(i + 1, P) if rng.random() < 0.4}
    nbrs = {r: tuple(sorted({j for i, j in edges if i == r} | {i for i, j in edges if j == r}))
            for r in range(P)}
    payloads = {
        (i, j): rng.random(int(rng.integers(0, 5)))
        for i in range(P)
        for j in nbrs[i]
    }

    def program(comm):
        send = [payloads[(comm.rank, j)] for j in nbrs[comm.rank]]
        return comm.neighbor_alltoallv(
            nbrs[comm.rank], np.concatenate([np.empty(0), *send]), [len(b) for b in send]
        )

    world = create_world(P)
    results = run_spmd(world, program)
    # Oracle: enumerate point-to-point deliveries directly.
    for r in range(P):
        recv, counts = results[r]
        assert counts.tolist() == [len(payloads[(j, r)]) for j in nbrs[r]]
        parts = np.split(recv, np.cumsum(counts)[:-1]) if len(counts) else []
        for pos, j in enumerate(nbrs[r]):
            assert np.array_equal(parts[pos], payloads[(j, r)])
    world.check_conservation()


def test_neighbor_alltoallv_rejects_asymmetric_graph():
    world = create_world(2)

    def program(comm):
        if comm.rank == 0:
            return comm.neighbor_alltoallv((1,), np.zeros(1), [1])
        return comm.neighbor_alltoallv((), np.empty(0), [])

    with pytest.raises(TransportError, match="asymmetric"):
        run_spmd(world, program)


@pytest.mark.parametrize("nbrs, unknown", [((1, 2), 2), ((-1, 1), -1), ((1, 10**30), 10**30)])
def test_neighbor_alltoallv_rejects_unknown_rank(nbrs, unknown):
    # Out of range, negative, or beyond any fixed-width integer alike.
    world = create_world(2)

    def program(comm):
        if comm.rank == 0:
            return comm.neighbor_alltoallv(nbrs, np.zeros(2), [1, 1])
        return comm.neighbor_alltoallv((0,), np.zeros(1), [1])

    with pytest.raises(TransportError, match=f"rank 0 lists unknown rank {unknown}$"):
        run_spmd(world, program)


def test_neighbor_alltoallv_buffer_count_mismatch():
    world = create_world(2)

    def program(comm):
        other = 1 - comm.rank
        counts = [1] * (2 if comm.rank == 0 else 1)
        return comm.neighbor_alltoallv((other,), np.zeros(len(counts)), counts)

    with pytest.raises(TransportError, match="rank 0 passed 2 counts for 1 neighbors"):
        run_spmd(world, program)


@pytest.mark.parametrize("kind, counts, fault", [
    ("alltoallv", [2], "passed 1 counts for 2 ranks"),
    ("alltoallv", [1, 2], r"passed counts \[1, 2\] for a buffer of 2 elements"),
    ("alltoallv", [3, -1], r"passed counts \[3, -1\] for a buffer of 2 elements"),
    ("neighbor_alltoallv", [3], r"passed counts \[3\] for a buffer of 2 elements"),
    ("scatterv", [1, 0], r"passed counts \[1, 0\] for a buffer of 2 elements"),
])
def test_counts_must_split_the_send_buffer(kind, counts, fault):
    # Rank 1 passes a 2-element buffer with bad counts; rank 0's are good.
    def program(comm):
        bad = comm.rank == 1
        if kind == "alltoallv":
            return comm.alltoallv(np.zeros(2), counts if bad else [1, 1])
        if kind == "scatterv":
            return comm.scatterv(np.zeros(2), counts, root=1) if bad else comm.scatterv(root=1)
        return comm.neighbor_alltoallv((1 - comm.rank,), np.zeros(2), counts if bad else [2])

    world = create_world(2)
    with pytest.raises(TransportError, match=f"^{kind}: rank 1 {fault}$"):
        run_spmd(world, program)
    assert world.stats[0].by_kind[kind].calls == 0


def test_graph_is_checked_once_per_distinct_graph(monkeypatch):
    # A repeated graph is validated once; a list that turns asymmetric
    # after validated exchanges is checked again and still rejected.
    checks = []
    check_graph = transport.SimWorld._check_graph

    def counting(self, graph):
        checks.append(graph)
        return check_graph(self, graph)

    monkeypatch.setattr(transport.SimWorld, "_check_graph", counting)
    full = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

    def program(comm):
        for _ in range(3):
            nbrs = full[comm.rank]
            recv, _ = comm.neighbor_alltoallv(nbrs, np.full(2, float(comm.rank)), [1, 1])
            assert recv.tolist() == [float(j) for j in nbrs]
        nbrs = (1,) if comm.rank == 2 else full[comm.rank]   # 0 lists 2, 2 drops 0
        return comm.neighbor_alltoallv(nbrs, np.zeros(len(nbrs)), [1] * len(nbrs))

    world = create_world(3)
    with pytest.raises(TransportError, match="asymmetric graph, 0 lists 2 but 2 does not list 0"):
        run_spmd(world, program)
    assert checks == [((1, 2), (0, 2), (0, 1)), ((1, 2), (0, 2), (1,))]
    assert all(s.by_kind["neighbor_alltoallv"].calls == 3 for s in world.stats)


def test_zero_counts_are_not_messages_at_p64():
    # Stats of sparse alltoallv and neighbor traffic at P=64 match a
    # pairwise count in which only nonzero counts to other ranks travel.
    P = 64
    rng = np.random.default_rng(3)
    sizes = rng.integers(0, 3, size=(P, P)) * (rng.random((P, P)) < 0.1)
    adjacent = np.triu(rng.random((P, P)) < 0.3, 1)
    adjacent |= adjacent.T
    nbrs = [tuple(np.flatnonzero(adjacent[r]).tolist()) for r in range(P)]

    def program(comm):
        r = comm.rank
        comm.alltoallv(np.zeros(sizes[r].sum()), sizes[r])
        counts = sizes[r, list(nbrs[r])]
        comm.neighbor_alltoallv(nbrs[r], np.zeros(counts.sum(), dtype=np.int32), counts)

    world = create_world(P)
    run_spmd(world, program)
    stats = world.deterministic_stats()
    off_diagonal = sizes * ~np.eye(P, dtype=bool)
    on_graph = sizes * adjacent
    for r in range(P):
        for kind, sent, itemsize in (("alltoallv", off_diagonal, 8),
                                     ("neighbor_alltoallv", on_graph, 4)):
            st = stats[r][kind]
            assert st["msgs_sent"] == np.count_nonzero(sent[r])
            assert st["bytes_sent"] == itemsize * sent[r].sum()
            assert st["bytes_recv"] == itemsize * sent[:, r].sum()
    assert world.check_conservation()


def test_each_call_snapshots_one_buffer_per_sending_rank(monkeypatch):
    # Every rank sends one buffer per call, snapshotted once; in scatterv
    # only the root sends.
    snapshots = []
    snapshot = transport._snapshot

    def counting(send):
        snapshots.append(threading.current_thread().name)
        return snapshot(send)

    monkeypatch.setattr(transport, "_snapshot", counting)
    P = 4
    calls = {
        "allgatherv": lambda comm: comm.allgatherv(np.zeros(3)),
        "alltoallv": lambda comm: comm.alltoallv(np.zeros(2 * P), [2] * P),
        "gatherv": lambda comm: comm.gatherv(np.zeros(3), root=1),
        "scatterv": lambda comm: (comm.scatterv(np.zeros(P), [1] * P, root=2)
                                  if comm.rank == 2 else comm.scatterv(root=2)),
        "neighbor_alltoallv": lambda comm: comm.neighbor_alltoallv(
            sorted([(comm.rank - 1) % P, (comm.rank + 1) % P]),
            np.zeros(4), [2, 2]),
    }
    counts = {}
    for kind, call in calls.items():
        snapshots.clear()
        run_spmd(create_world(P), call)
        counts[kind] = Counter(snapshots)
    every_rank = Counter(f"fmm-rank-{r}" for r in range(P))
    assert counts == {
        "allgatherv": every_rank,
        "alltoallv": every_rank,
        "gatherv": every_rank,
        "scatterv": Counter(["fmm-rank-2"]),
        "neighbor_alltoallv": every_rank,
    }


def test_alltoallv_permutation_reassembles():
    P = 4
    rng = np.random.default_rng(1)
    data = rng.random((P, P, 3))

    def program(comm):
        return comm.alltoallv(data[comm.rank], [3] * P)

    world = create_world(P)
    results = run_spmd(world, program)
    for r in range(P):
        recv, counts = results[r]
        assert counts.tolist() == [3] * P
        for i in range(P):
            assert np.array_equal(recv.reshape(P, 3)[i], data[i, r])
    world.check_conservation()


def test_alltoallv_allgatherv_stats_match_pairwise_count():
    P = 5
    rng = np.random.default_rng(7)
    sizes = rng.integers(0, 4, size=(P, P))         # float64 elements i sends j
    sizes[0, 3] = sizes[2, :] = 0                  # some empty buffers
    np.fill_diagonal(sizes, rng.integers(1, 4, size=P))  # nonzero self-sends
    gather_sizes = np.array([3, 0, 1, 0, 2])       # int32 elements per rank

    def program(comm):
        r = comm.rank
        send = np.concatenate([np.full(sizes[r, j], 10.0 * r + j) for j in range(P)])
        recv, recv_counts = comm.alltoallv(send, sizes[r])
        parts, part_counts = comm.allgatherv(np.full(gather_sizes[r], r, dtype=np.int32))
        assert recv_counts.tolist() == sizes[:, r].tolist()
        assert part_counts.tolist() == gather_sizes.tolist()
        return (np.split(recv, np.cumsum(recv_counts)[:-1]),
                np.split(parts, np.cumsum(part_counts)[:-1]))

    world = create_world(P)
    results = run_spmd(world, program)
    stats = world.deterministic_stats()
    for r in range(P):
        recv, parts = results[r]
        for i in range(P):
            assert np.array_equal(recv[i], np.full(sizes[i, r], 10.0 * i + r))
            assert np.array_equal(parts[i], np.full(gather_sizes[i], i, dtype=np.int32))
        # Hand count: only buffers between distinct ranks travel.
        others = [j for j in range(P) if j != r]
        a2a = stats[r]["alltoallv"]
        assert a2a["calls"] == 1
        assert a2a["msgs_sent"] == sum(1 for j in others if sizes[r, j])
        assert a2a["bytes_sent"] == sum(8 * sizes[r, j] for j in others)
        assert a2a["payload_bytes"] == a2a["bytes_sent"]
        assert a2a["bytes_recv"] == sum(8 * sizes[i, r] for i in others)
        agv = stats[r]["allgatherv"]
        assert agv["calls"] == 1
        assert agv["msgs_sent"] == (P - 1 if gather_sizes[r] else 0)
        assert agv["bytes_sent"] == 4 * gather_sizes[r] * (P - 1)
        assert agv["payload_bytes"] == 4 * gather_sizes[r]
        assert agv["bytes_recv"] == sum(4 * gather_sizes[i] for i in others)
    assert world.check_conservation()


def test_rooted_and_neighbor_stats_match_pairwise_count():
    P = 4
    gather_sizes = [3, 0, 2, 1]                   # float64 elements per rank; root 2
    scatter_sizes = [2, 3, 0, 1]                  # float64 elements per segment; root 1
    nbrs = {0: (1, 3), 1: (0, 2, 3), 2: (1,), 3: (0, 1)}
    sizes = {(0, 1): 2, (0, 3): 0, (1, 0): 1, (1, 2): 0, (1, 3): 4,
             (2, 1): 3, (3, 0): 0, (3, 1): 2}     # int32 elements i sends j

    def program(comm):
        r = comm.rank
        gathered = comm.gatherv(np.full(gather_sizes[r], float(r)), root=2)
        if gathered is not None:
            gathered = np.split(gathered[0], np.cumsum(gathered[1])[:-1])
        segments = np.concatenate([np.full(n, 10.0 + j) for j, n in enumerate(scatter_sizes)])
        mine = (comm.scatterv(segments, scatter_sizes, root=1) if r == 1
                else comm.scatterv(root=1))
        recv, counts = comm.neighbor_alltoallv(
            nbrs[r],
            np.concatenate([np.full(sizes[r, j], 10 * r + j, dtype=np.int32) for j in nbrs[r]]),
            [sizes[r, j] for j in nbrs[r]],
        )
        return gathered, mine, np.split(recv, np.cumsum(counts)[:-1])

    world = create_world(P)
    results = run_spmd(world, program)
    stats = world.deterministic_stats()
    for r in range(P):
        gathered, mine, recv = results[r]
        if r == 2:
            for i in range(P):
                assert np.array_equal(gathered[i], np.full(gather_sizes[i], float(i)))
        else:
            assert gathered is None
        assert np.array_equal(mine, np.full(scatter_sizes[r], 10.0 + r))
        for j, buf in zip(nbrs[r], recv):
            assert np.array_equal(buf, np.full(sizes[j, r], 10 * j + r, dtype=np.int32))
        # Hand count: only nonempty buffers between distinct ranks are messages;
        # the root's own buffer or segment still counts as its payload.
        gv = stats[r]["gatherv"]
        assert gv["calls"] == 1
        assert gv["msgs_sent"] == (1 if r != 2 and gather_sizes[r] else 0)
        assert gv["bytes_sent"] == (0 if r == 2 else 8 * gather_sizes[r])
        assert gv["payload_bytes"] == 8 * gather_sizes[r]
        assert gv["bytes_recv"] == (8 * (3 + 0 + 1) if r == 2 else 0)
        sv = stats[r]["scatterv"]
        assert sv["calls"] == 1
        assert sv["msgs_sent"] == (2 if r == 1 else 0)          # rank 2's segment is empty
        assert sv["bytes_sent"] == (8 * (2 + 0 + 1) if r == 1 else 0)
        assert sv["payload_bytes"] == 8 * scatter_sizes[r]
        assert sv["bytes_recv"] == (0 if r == 1 else 8 * scatter_sizes[r])
        na = stats[r]["neighbor_alltoallv"]
        assert na["calls"] == 1
        assert na["msgs_sent"] == sum(1 for j in nbrs[r] if sizes[r, j])
        assert na["bytes_sent"] == sum(4 * sizes[r, j] for j in nbrs[r])
        assert na["payload_bytes"] == na["bytes_sent"]
        assert na["bytes_recv"] == sum(4 * sizes[j, r] for j in nbrs[r])
    assert [s["neighbor_alltoallv"]["bytes_recv"] for s in stats] == [4, 28, 0, 16]
    assert world.check_conservation()


def test_rooted_collectives_reject_out_of_range_root():
    for kind in ("gatherv", "scatterv"):
        for root in (-1, 3):
            def program(comm, _kind=kind, _root=root):
                if _kind == "gatherv":
                    return comm.gatherv(np.zeros(2), root=_root)
                return comm.scatterv(np.zeros(6), [2, 2, 2], root=_root)

            world = create_world(3)
            with pytest.raises(TransportError, match=rf"{kind}: root {root} .* size 3"):
                run_spmd(world, program)
            assert world.stats[0].by_kind[kind].calls == 0


def test_neighbor_alltoallv_rejects_unsorted_or_repeated_neighbors():
    # Rank 0's list repeats, is unsorted, or names rank 0 itself.
    for graphs, fault in (({0: (1, 1), 1: (0,)}, r"lists \(1, 1\)"),
                          ({0: (2, 1), 1: (0,), 2: (0,)}, r"lists \(2, 1\)"),
                          ({0: (0, 1), 1: (0,)}, "lists itself$")):
        world = create_world(len(graphs))

        def program(comm, _graphs=graphs):
            nbrs = _graphs[comm.rank]
            return comm.neighbor_alltoallv(nbrs, np.zeros(2 * len(nbrs)), [2] * len(nbrs))

        with pytest.raises(TransportError, match=f"rank 0 {fault}"):
            run_spmd(world, program)
        assert world.stats[1].by_kind["neighbor_alltoallv"].calls == 0


def test_graph_check_reports_the_first_bad_list_by_rank():
    # Rank 0 lists 2, which does not list it back; rank 1's list is
    # unsorted. The check walks the ranks in order, so rank 0 is named.
    graphs = {0: (1, 2), 1: (2, 0), 2: (1,)}
    world = create_world(3)

    def program(comm):
        nbrs = graphs[comm.rank]
        return comm.neighbor_alltoallv(nbrs, np.zeros(len(nbrs)), [1] * len(nbrs))

    with pytest.raises(TransportError,
                       match="^neighbor_alltoallv: asymmetric graph, 0 lists 2 but 2 does not list 0$"):
        run_spmd(world, program)


def test_alltoallv_empty_sends_allowed():
    world = create_world(2)

    def program(comm):
        return comm.alltoallv(np.empty(0), [0, 0])

    results = run_spmd(world, program)
    assert all(recv.size == 0 and counts.tolist() == [0, 0] for recv, counts in results)
    stats = world.deterministic_stats()
    assert sum(s["alltoallv"]["msgs_sent"] for s in stats) == 0


def test_collective_mismatch_detected():
    world = create_world(2)

    def program(comm):
        if comm.rank == 0:
            return comm.gatherv(np.zeros(1), root=0)
        return comm.allgatherv(np.zeros(1))

    with pytest.raises((CollectiveMismatchError, TransportError)):
        run_spmd(world, program)


def test_stalled_collective_detected():
    world = create_world(2)

    def program(comm):
        if comm.rank == 0:
            return comm.allgatherv(np.zeros(1))
        return None  # rank 1 exits without joining

    with pytest.raises(StalledCollectiveError, match="stalled"):
        run_spmd(world, program)


def test_stalled_rank_hits_the_backstop_deadline(monkeypatch):
    # Rank 1 neither enters the collective nor finishes, so only the
    # deadline ends rank 0's wait; the error names the ranks that arrived.
    monkeypatch.setattr(transport, "_WAIT_TIMEOUT", 0.3)
    world = create_world(2)
    release = threading.Event()
    late = []

    def stuck_rank():
        release.wait(timeout=60)
        try:
            world.comm(1).allgatherv(np.zeros(1))
        except TransportError as exc:
            late.append(exc)

    thread = threading.Thread(target=stuck_rank)
    thread.start()
    try:
        with pytest.raises(StalledCollectiveError, match=r"slot 0: arrived \[0\] of 2"):
            world.comm(0).allgatherv(np.zeros(1))
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # The late rank gets the same failure instead of waiting on its own.
    assert [type(exc) for exc in late] == [StalledCollectiveError]


def test_rank_exception_aborts_world():
    world = create_world(3)

    def program(comm):
        if comm.rank == 2:
            raise RuntimeError("boom")
        return comm.allgatherv(np.zeros(1))

    with pytest.raises(RuntimeError, match="boom"):
        run_spmd(world, program)


def test_replay_determinism():
    def program(comm):
        rng = np.random.default_rng([comm.world.seed, comm.rank])
        mine = rng.random(comm.rank + 1)
        parts, _ = comm.allgatherv(mine)
        total = comm.gatherv(np.array([parts.sum()]), root=0)
        if comm.rank == 0:
            out = comm.scatterv(np.arange(comm.size, dtype=float), [1] * comm.size)
        else:
            out = comm.scatterv(root=0)
        del total
        return np.concatenate([out, parts])

    runs = []
    for _ in range(2):
        world = create_world(5, seed=99)
        results = run_spmd(world, program)
        runs.append((results, world.deterministic_stats()))
    for a, b in zip(runs[0][0], runs[1][0]):
        assert np.array_equal(a, b)
    assert runs[0][1] == runs[1][1]


def test_p64_smoke_barrier_equivalent():
    world = create_world(64)

    def program(comm):
        parts, _ = comm.allgatherv(np.array([comm.rank], dtype=np.int64))
        return int(parts.sum())

    results = run_spmd(world, program)
    assert all(r == 64 * 63 // 2 for r in results)


def test_stats_delta_helper():
    world = create_world(2)

    def program(comm):
        before = comm.stats().snapshot()
        comm.allgatherv(np.zeros(8))
        return stats_delta(before, comm.stats().snapshot())

    results = run_spmd(world, program)
    for d in results:
        assert d["allgatherv"]["calls"] == 1
        assert d["allgatherv"]["payload_bytes"] == 64
        assert d["gatherv"]["calls"] == 0
