"""Shared helpers: pipeline drivers for single-rank and multi-rank runs."""

import numpy as np

from unifmm import morton
from unifmm.distributed import evaluate, setup
from unifmm.transport import create_world, run_spmd


def rel_l2(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def sorted_instance(n, seed, cube_side=1.0, leaf_level=3, sphere=False):
    """Seeded points/charges sorted by leaf-level Morton key."""
    rng = np.random.default_rng(seed)
    if sphere:
        raw = rng.normal(size=(n, 3))
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        pts = (pts + 1.0) / 2.0 * cube_side  # map onto [0, side]
    else:
        pts = rng.random((n, 3)) * cube_side
    charges = rng.random(n)
    cube = morton.fit_domain(pts)
    keys = morton.encode_points(pts, leaf_level, cube)
    order = np.argsort(keys, kind="stable")
    return pts[order], charges[order], cube


def raw_instance(n, seed, sphere=False):
    """Seeded unsorted points and charges, as a distributed run receives."""
    rng = np.random.default_rng(seed)
    if sphere:
        raw = rng.normal(size=(n, 3))
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    else:
        pts = rng.random((n, 3))
    return pts, rng.random(n)


def distributed_run(points, charges, n_ranks, config, evaluate_runs=1):
    """Scatter the inputs in contiguous chunks, run setup plus
    ``evaluate_runs`` evaluations on every rank; returns (world, states,
    list-of-eval-results per rank)."""
    chunks = np.array_split(np.arange(len(points)), n_ranks)
    world = create_world(n_ranks, seed=config.seed)

    def program(comm):
        mine = chunks[comm.rank]
        state = setup(comm, points[mine], charges[mine], config)
        evals = [evaluate(state) for _ in range(evaluate_runs)]
        return state, evals

    results = run_spmd(world, program)
    states = [r[0] for r in results]
    evals = [r[1] for r in results]
    return world, states, evals


def subtraction_inverse_distances(targets, sources):
    """Reference for ``kernels.inverse_distances``: each axis's differences
    from a plain broadcast subtraction, then the kernel's own order of
    operations (dx*dx + dy*dy + dz*dz, sqrt, inf at zero, reciprocal)."""
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    r = None
    for axis in range(3):
        d = targets[:, axis, None] - sources[None, :, axis]
        d = d * d
        r = d if r is None else r + d
    r = np.sqrt(r)
    r[r == 0.0] = np.inf
    return 1.0 / r


def concat_potentials(evals, run=0):
    return np.concatenate([e[run].potentials for e in evals])

