"""Simulated multi-rank transport: collectives, stats, determinism."""

import threading

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
    (got,) = comm.allgatherv(x)
    assert np.array_equal(got, x)
    assert got is not x
    [back] = comm.alltoallv([x])
    assert np.array_equal(back, x)
    [g] = comm.gatherv(x, root=0)
    assert np.array_equal(g, x)
    s = comm.scatterv([x], root=0)
    assert np.array_equal(s, x)
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
        parts = comm.allgatherv(mine)
        mine[:] = -1.0
        return parts

    results = run_spmd(create_world(3), program)
    for parts in results:
        assert len(parts) == 3
        for rank, part in enumerate(parts):
            assert np.array_equal(part, np.full(rank + 1, float(rank)))
            assert np.array_equal(part, results[0][rank])
            assert not part.flags.writeable


def test_allgatherv_sizes_and_agreement():
    world = create_world(3)

    def program(comm):
        payload = np.arange(comm.rank + 1, dtype=np.float64)
        parts = comm.allgatherv(payload)
        return np.concatenate(parts)

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
            back = comm.scatterv(gathered, root=0)
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
            return comm.scatterv([np.zeros(1)], root=0)  # one segment short
        return comm.scatterv(root=0)

    with pytest.raises(TransportError, match="segments"):
        run_spmd(world, program)


def test_three_rank_ring_hand_count():
    world = create_world(3)
    ring = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

    def program(comm):
        nbrs = ring[comm.rank]
        send = [np.array([10.0 * comm.rank + n]) for n in nbrs]
        recv = comm.neighbor_alltoallv(nbrs, send)
        return np.concatenate(recv)

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
        return comm.neighbor_alltoallv(nbrs[comm.rank], send)

    world = create_world(P)
    results = run_spmd(world, program)
    # Oracle: enumerate point-to-point deliveries directly.
    for r in range(P):
        for pos, j in enumerate(nbrs[r]):
            assert np.array_equal(results[r][pos], payloads[(j, r)])
    world.check_conservation()


def test_neighbor_alltoallv_rejects_asymmetric_graph():
    world = create_world(2)

    def program(comm):
        if comm.rank == 0:
            return comm.neighbor_alltoallv((1,), [np.zeros(1)])
        return comm.neighbor_alltoallv((), [])

    with pytest.raises(TransportError, match="asymmetric"):
        run_spmd(world, program)


@pytest.mark.parametrize("nbrs, unknown", [((1, 2), 2), ((-1, 1), -1), ((1, 10**30), 10**30)])
def test_neighbor_alltoallv_rejects_unknown_rank(nbrs, unknown):
    # Out of range, negative, or beyond any fixed-width integer alike.
    world = create_world(2)

    def program(comm):
        if comm.rank == 0:
            return comm.neighbor_alltoallv(nbrs, [np.zeros(1), np.zeros(1)])
        return comm.neighbor_alltoallv((0,), [np.zeros(1)])

    with pytest.raises(TransportError, match=f"rank 0 lists unknown rank {unknown}$"):
        run_spmd(world, program)


def test_neighbor_alltoallv_buffer_count_mismatch():
    world = create_world(2)

    def program(comm):
        other = 1 - comm.rank
        bufs = [np.zeros(1)] * (2 if comm.rank == 0 else 1)
        return comm.neighbor_alltoallv((other,), bufs)

    with pytest.raises(TransportError, match="buffers"):
        run_spmd(world, program)


def test_alltoallv_permutation_reassembles():
    P = 4
    rng = np.random.default_rng(1)
    data = rng.random((P, P, 3))

    def program(comm):
        send = [data[comm.rank, j] for j in range(P)]
        return comm.alltoallv(send)

    world = create_world(P)
    results = run_spmd(world, program)
    for r in range(P):
        for i in range(P):
            assert np.array_equal(results[r][i], data[i, r])
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
        recv = comm.alltoallv([np.full(sizes[r, j], 10.0 * r + j) for j in range(P)])
        parts = comm.allgatherv(np.full(gather_sizes[r], r, dtype=np.int32))
        return recv, parts

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
        segments = [np.full(n, 10.0 + j) for j, n in enumerate(scatter_sizes)]
        mine = comm.scatterv(segments if r == 1 else None, root=1)
        recv = comm.neighbor_alltoallv(
            nbrs[r], [np.full(sizes[r, j], 10 * r + j, dtype=np.int32) for j in nbrs[r]]
        )
        return gathered, mine, recv

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
                return comm.scatterv([np.zeros(2)] * 3, root=_root)

            world = create_world(3)
            with pytest.raises(TransportError, match=rf"{kind}: root {root} .* size 3"):
                run_spmd(world, program)
            assert world.stats[0].by_kind[kind].calls == 0


def test_neighbor_alltoallv_rejects_unsorted_or_repeated_neighbors():
    for graphs in ({0: (1, 1), 1: (0,)}, {0: (2, 1), 1: (0,), 2: (0,)}):
        world = create_world(len(graphs))

        def program(comm, _graphs=graphs):
            nbrs = _graphs[comm.rank]
            return comm.neighbor_alltoallv(nbrs, [np.zeros(2)] * len(nbrs))

        listed = ", ".join(map(str, graphs[0]))
        with pytest.raises(TransportError, match=rf"rank 0 lists \({listed}\)"):
            run_spmd(world, program)
        assert world.stats[1].by_kind["neighbor_alltoallv"].calls == 0


def test_alltoallv_empty_sends_allowed():
    world = create_world(2)

    def program(comm):
        send = [np.empty(0), np.empty(0)]
        return comm.alltoallv(send)

    results = run_spmd(world, program)
    assert all(part.size == 0 for r in results for part in r)
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
        parts = comm.allgatherv(mine)
        total = comm.gatherv(np.array([float(sum(p.sum() for p in parts))]), root=0)
        if comm.rank == 0:
            out = comm.scatterv([np.array([v]) for v in np.arange(comm.size, dtype=float)])
        else:
            out = comm.scatterv(root=0)
        del total
        return np.concatenate([out] + parts)

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
        parts = comm.allgatherv(np.array([comm.rank], dtype=np.int64))
        return int(np.concatenate(parts).sum())

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
