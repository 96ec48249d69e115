"""The paper's communication claim as a closed form, checked to the byte.

On a lattice input every leaf holds a point, so every box exists and is
occupied, and each rank's ghosts are exactly the clipped shells around
its block of roots: per level ``d_g + k`` the boxes within 2 of the block
(the children of its parent-level neighborhood) and, at the leaf level,
the leaves within 1 of it, less the rank's own boxes. The shells grow as
the block's surface, 12 * 4^d_l boxes to leading order, not its volume.
The root expansions' gather and scatter carry each rank's share once.
"""

import numpy as np
import pytest
from conftest import distributed_run

from unifmm.distributed import FmmConfig, global_message_size
from unifmm.morton import anchor_lattice
from unifmm.operators import expansion_length

ORDER = 2

# Interior ranks at P=64 (V ghost boxes, U ghost leaves), per local depth.
INTERIOR_P64 = {1: (208, 56), 2: (656, 152)}


def lattice_points(leaf_level, seed):
    """One point per leaf, within 0.2 leaf sides of its center on each
    axis, plus the unit cube's corners, which fix the fitted cube."""
    n = 1 << leaf_level
    cells = np.indices((n, n, n)).reshape(3, -1).T
    jitter = np.random.default_rng(seed).uniform(-0.2, 0.2, cells.shape)
    points = np.concatenate([(cells + 0.5 + jitter) / n, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])
    return points, np.random.default_rng(seed + 1).random(len(points))


def clipped_shell(lo, hi, width, top):
    """Boxes within ``width`` of the block ``[lo, hi)`` per axis, cut to
    the lattice ``[0, top)``, less the block itself."""
    lengths = np.minimum(hi + width, top) - np.maximum(lo - width, 0)
    return int(np.prod(lengths)) - int(np.prod(hi - lo))


@pytest.mark.parametrize("global_depth, local_depth", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_ghosts_and_bytes_match_the_clipped_shells(global_depth, local_depth):
    leaf_level = global_depth + local_depth
    points, charges = lattice_points(leaf_level, seed=leaf_level)
    P = 8 ** global_depth
    config = FmmConfig(global_depth=global_depth, local_depth=local_depth, order=ORDER, seed=0)
    _, states, evals = distributed_run(points, charges, P, config)
    # Root expansions go to rank 0 and back, each rank's share once.
    own = [global_message_size(state.n_local_roots, ORDER, 64) for state in states]
    interior = []
    for state, runs in zip(states, evals):
        # The rank's roots fill one aligned block of the root level.
        roots = anchor_lattice(state.tree.local_roots)
        lo, hi = roots.min(axis=0), roots.max(axis=0) + 1
        assert np.prod(hi - lo) == len(roots)
        v_boxes = sum(
            clipped_shell(lo << k, hi << k, 2, 1 << (global_depth + k))
            for k in range(1, local_depth + 1)
        )
        u_leaves = clipped_shell(lo << local_depth, hi << local_depth, 1, 1 << leaf_level)
        assert state.v_ghost_count() == v_boxes, state.rank
        assert len(np.unique(state.near_ghosts.keys)) == u_leaves, state.rank
        assert len(state.near_ghosts.confirmed_absent) == 0
        got = runs[0].stats["neighbor_alltoallv"]["bytes_recv"]
        assert got == 8 * expansion_length(ORDER) * v_boxes, state.rank
        gather, scatter = runs[0].stats["gatherv"], runs[0].stats["scatterv"]
        assert gather["payload_bytes"] == scatter["payload_bytes"] == own[state.rank]
        if state.rank == 0:
            assert gather["bytes_recv"] == scatter["bytes_sent"] == sum(own) - own[0]
        else:
            assert gather["bytes_sent"] == scatter["bytes_recv"] == own[state.rank]
        if np.all(lo > 0) and np.all(hi < 1 << global_depth):
            interior.append((v_boxes, u_leaves))
    if P == 64:
        assert interior == [INTERIOR_P64[local_depth]] * 8
