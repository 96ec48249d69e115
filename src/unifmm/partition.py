"""Distributed sample sort of Morton-keyed points and the global layout.

Points enter in arbitrary order, roughly N/P per rank. Splitters chosen
from a gathered random key sample define half-open rank buckets; for
uniform trees the splitters are snapped down to coarse-box boundaries so
bucket edges coincide with whole local roots. The layout maps every
level-``global_depth`` box to its owning rank and is replicated on all
ranks by an allgather.

Sampling uses numpy's PCG64 generator seeded per rank with
``SeedSequence([seed, rank])``; the identifier recorded in run metadata
is ``numpy-pcg64-seedseq``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import morton

SAMPLER_ID = "numpy-pcg64-seedseq"


class LayoutError(ValueError):
    """Root claims do not tile the level-``global_depth`` lattice."""


def rank_rng(seed, rank):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(rank)]))


def sample_splitters(comm, keys, samples_per_rank, seed, snap_level=None):
    """P-1 bucket splitters from ``samples_per_rank`` random keys per rank.

    Samples are gathered at rank 0, sorted, and every ``samples_per_rank``-th
    entry becomes a splitter, broadcast back to all ranks. With
    ``snap_level`` set, each splitter is snapped down to the first
    deepest-level key of its level-``snap_level`` ancestor box.
    """
    b = int(samples_per_rank)
    if b < 1:
        raise ValueError("samples_per_rank must be >= 1")
    keys = np.asarray(keys, dtype=np.uint64)
    counts = np.concatenate(comm.allgatherv(np.array([len(keys)], dtype=np.int64)))
    if counts.min() < 1 or counts.sum() < b * comm.size:
        raise ValueError(
            f"too few points to sample: need >= {b} * {comm.size} total and >= 1 per rank"
        )
    rng = rank_rng(seed, comm.rank)
    local = rng.choice(keys, size=b, replace=True)
    gathered = comm.gatherv(local, root=0)
    if comm.rank == 0:
        pool = np.sort(np.concatenate(gathered).astype(np.uint64))
        splitters = pool[b * np.arange(1, comm.size)]
        if snap_level is not None:
            splitters = snap_to_boxes(splitters, snap_level)
    else:
        splitters = np.empty(0, dtype=np.uint64)
    # Broadcast via allgatherv: only rank 0 contributes.
    parts = comm.allgatherv(splitters)
    return np.concatenate(parts).astype(np.uint64)


def snap_to_boxes(splitters, snap_level):
    """Snap deepest-level splitter keys down to level-``snap_level`` box starts."""
    splitters = np.asarray(splitters, dtype=np.uint64)
    if splitters.size == 0:
        return splitters
    level = int(morton.key_level(splitters)[0])
    coarse = morton.ancestor_at(splitters, snap_level)
    # Same anchor, re-labelled at the original depth: the box's first leaf.
    keep = np.uint64(morton.LEVEL_BITS)
    return ((coarse >> keep) << keep) | np.uint64(level)


def bucket_of(keys, splitters):
    """Bucket index per key: bucket i holds [splitter_{i-1}, splitter_i)."""
    return np.searchsorted(np.asarray(splitters, dtype=np.uint64), keys, side="right")


def redistribute(comm, keys, points, charges, splitters, orig_index=None):
    """Move each point to the rank owning its splitter bucket.

    Returns (points, charges, orig_index) of the points this rank owns,
    grouped by source rank and in input order within each source; they are
    not key-sorted, :func:`sort_local` does that. The buckets are
    contiguous key ranges in rank order, so the rank-order concatenation of
    the sorted outputs is globally sorted.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    charges = np.asarray(charges, dtype=np.float64).reshape(-1)
    if len(charges) != len(points) or len(keys) != len(points):
        raise ValueError("keys, points, and charges must have equal length")
    if orig_index is None:
        orig_index = np.arange(len(points), dtype=np.uint64)
    orig_index = np.asarray(orig_index, dtype=np.uint64)

    dest = bucket_of(keys, splitters)
    # A stable sort keeps each destination's points in input order.
    order = np.argsort(dest, kind="stable")
    ends = np.cumsum(np.bincount(dest, minlength=comm.size)).tolist()
    starts = [0] + ends[:-1]
    rows = np.concatenate([points[order], charges[order, None]], axis=1)
    idx = orig_index[order]
    send_rows = [rows[a:b].ravel() for a, b in zip(starts, ends)]
    send_idx = [idx[a:b] for a, b in zip(starts, ends)]
    recv_rows = comm.alltoallv(send_rows)
    recv_idx = comm.alltoallv(send_idx)

    rows = np.concatenate(recv_rows).reshape(-1, 4)
    idx = np.concatenate(recv_idx).astype(np.uint64)
    new_points, new_charges = rows[:, :3].copy(), rows[:, 3].copy()
    return new_points, new_charges, idx


def sort_local(points, charges, orig_index, leaf_level, cube):
    """Stable local sort by deepest-level Morton key."""
    keys = (
        morton.encode_points(points, leaf_level, cube)
        if len(points)
        else np.empty(0, np.uint64)
    )
    order = np.argsort(keys, kind="stable")
    return points[order], charges[order], orig_index[order], keys[order]


@dataclass(frozen=True)
class Layout:
    """Global map from level-``global_depth`` local roots to owner ranks."""

    global_depth: int
    root_keys: np.ndarray    # all 8^global_depth keys, sorted
    run_starts: np.ndarray   # (P + 1,) root-index boundaries per rank

    @property
    def size(self):
        return len(self.run_starts) - 1

    def roots_of(self, rank):
        return self.root_keys[self.run_starts[rank] : self.run_starts[rank + 1]]

    def n_roots(self, rank):
        return int(self.run_starts[rank + 1] - self.run_starts[rank])

    def owner_of_roots(self, keys):
        """Owning rank of each level-``global_depth`` key."""
        pos = np.searchsorted(self.root_keys, np.asarray(keys, dtype=np.uint64))
        if np.any(pos >= len(self.root_keys)) or np.any(
            self.root_keys[np.minimum(pos, len(self.root_keys) - 1)]
            != np.asarray(keys, dtype=np.uint64)
        ):
            raise LayoutError("invalid layout lookup: key is not a local root")
        return (np.searchsorted(self.run_starts, pos, side="right") - 1).astype(np.int64)

    def owner_of_boxes(self, keys):
        """Owning rank of boxes at any level >= ``global_depth``."""
        return self.owner_of_roots(morton.ancestor_at(np.asarray(keys, dtype=np.uint64),
                                                      self.global_depth))

    def digest(self):
        h = hashlib.sha256()
        h.update(self.root_keys.tobytes())
        h.update(self.run_starts.astype(np.int64).tobytes())
        return h.hexdigest()


def equal_root_runs(global_depth, size):
    """Deterministic balanced split of the 8^global_depth roots into
    contiguous Morton runs (run sizes differ by at most one)."""
    n_roots = 8**global_depth
    if size > n_roots:
        raise ValueError(f"{size} ranks cannot each own a root at depth {global_depth}")
    return (np.arange(size + 1, dtype=np.int64) * n_roots) // size


def root_split_splitters(global_depth, size, leaf_level):
    """Deepest-level splitter keys at the equal-run root boundaries."""
    runs = equal_root_runs(global_depth, size)
    all_roots = morton.descendants(morton.make_key(0, 0, 0, 0), global_depth)
    boundary = all_roots[runs[1:-1]]
    keep = np.uint64(morton.LEVEL_BITS)
    return ((boundary >> keep) << keep) | np.uint64(leaf_level)


def runs_from_splitters(global_depth, splitters):
    """Root-index run boundaries implied by box-snapped splitters."""
    all_roots = morton.descendants(morton.make_key(0, 0, 0, 0), global_depth)
    anchors = np.asarray(splitters, dtype=np.uint64) >> np.uint64(morton.LEVEL_BITS)
    pos = np.searchsorted(all_roots >> np.uint64(morton.LEVEL_BITS), anchors)
    return np.concatenate([[0], pos, [len(all_roots)]]).astype(np.int64)


def build_layout(comm, global_depth, my_root_keys):
    """Allgather root claims and assemble the (identical) global layout.

    Raises :class:`LayoutError` when claims overlap, miss boxes, or are
    not contiguous rank-ordered Morton runs.
    """
    my_root_keys = np.sort(np.asarray(my_root_keys, dtype=np.uint64))
    parts = comm.allgatherv(my_root_keys)
    counts = np.array([len(p) for p in parts], dtype=np.int64)
    claimed = np.concatenate(parts) if parts else np.empty(0, np.uint64)
    expected = morton.descendants(morton.make_key(0, 0, 0, 0), global_depth)
    if len(claimed) != len(expected) or np.any(np.sort(claimed) != expected):
        raise LayoutError(
            "invalid layout: root claims do not cover every level-%d box exactly once"
            % global_depth
        )
    if np.any(claimed[1:] <= claimed[:-1]):
        raise LayoutError("invalid layout: rank root runs are not contiguous in Morton order")
    run_starts = np.concatenate([[0], np.cumsum(counts)])
    return Layout(global_depth=global_depth, root_keys=claimed, run_starts=run_starts)
