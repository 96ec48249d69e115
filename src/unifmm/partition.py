"""Distributed sample sort of Morton-keyed points and the global layout.

Points enter in arbitrary order, roughly N/P per rank. Splitters chosen
from a gathered random key sample define half-open rank buckets; for
uniform trees the splitters are snapped down to coarse-box boundaries so
bucket edges coincide with whole local roots. The layout maps every
level-``global_depth`` box to its owning rank. Every rank holds the same
root runs (equal runs, or runs cut at the sampled splitters), so each
builds the same layout without communicating and reads the splitters of
the sort from it.

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
    """Root runs do not tile the level-``global_depth`` lattice."""


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
    counts, _ = comm.allgatherv(np.array([len(keys)], dtype=np.int64))
    if counts.min() < 1 or counts.sum() < b * comm.size:
        raise ValueError(
            f"too few points to sample: need >= {b} * {comm.size} total and >= 1 per rank"
        )
    rng = rank_rng(seed, comm.rank)
    local = rng.choice(keys, size=b, replace=True)
    gathered = comm.gatherv(local, root=0)
    if comm.rank == 0:
        pool = np.sort(gathered[0].astype(np.uint64))
        splitters = pool[b * np.arange(1, comm.size)]
        if snap_level is not None:
            splitters = snap_to_boxes(splitters, snap_level)
    else:
        splitters = np.empty(0, dtype=np.uint64)
    # Broadcast via allgatherv: only rank 0 contributes.
    splitters, _ = comm.allgatherv(splitters)
    return splitters.astype(np.uint64)


def snap_to_boxes(splitters, snap_level):
    """Snap deepest-level splitter keys down to level-``snap_level`` box starts."""
    return morton.first_descendant(morton.ancestor_at(splitters, snap_level),
                                   morton.key_level(splitters))


def bucket_of(keys, splitters):
    """Bucket index per key: bucket i holds [splitter_{i-1}, splitter_i)."""
    return np.searchsorted(np.asarray(splitters, dtype=np.uint64), keys, side="right")


def redistribute(comm, keys, points, charges, splitters):
    """Move each point, with its charge and its Morton key, to the rank
    owning its splitter bucket, in one ``alltoallv``.

    A row travels as 5 words: the point, the charge and the key's 64 bits.
    Returns (points, charges, keys) of the points this rank owns, grouped
    by source rank and in input order within each source; they are not
    key-sorted, :func:`sort_local` does that by the keys that came with
    them, so no rank encodes a received point again. The buckets are
    contiguous key ranges in rank order, so the rank-order concatenation
    of the sorted outputs is globally sorted.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    charges = np.asarray(charges, dtype=np.float64).reshape(-1)
    if len(charges) != len(points) or len(keys) != len(points):
        raise ValueError("keys, points, and charges must have equal length")

    dest = bucket_of(keys, splitters)
    # A stable sort keeps each destination's points in input order.
    order = np.argsort(dest, kind="stable")
    rows = np.empty((len(points), 5))
    rows[:, :3] = points[order]
    rows[:, 3] = charges[order]
    rows[:, 4] = keys[order].view(np.float64)
    rows, _ = comm.alltoallv(rows, 5 * np.bincount(dest, minlength=comm.size))
    rows = rows.reshape(-1, 5)
    return rows[:, :3].copy(), rows[:, 3].copy(), rows[:, 4].copy().view(np.uint64)


def sort_local(points, charges, keys):
    """Stable local sort by the points' deepest-level Morton ``keys``, as
    :func:`redistribute` delivers them; returns the sorted points, charges
    and keys. :func:`tree.build_tree` checks each key against its point."""
    order = np.argsort(keys, kind="stable")
    return points[order], charges[order], keys[order]


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

    def splitters(self, leaf_level):
        """Deepest-level bucket splitters of ranks 1 .. P-1: the first
        level-``leaf_level`` key of each rank's first root."""
        return morton.first_descendant(self.root_keys[self.run_starts[1:-1]], leaf_level)

    def owner_of_roots(self, keys):
        """Owning rank of each level-``global_depth`` key."""
        pos, found = morton.find_keys(self.root_keys, keys)
        if not np.all(found):
            raise LayoutError("invalid layout lookup: key is not a local root")
        return (np.searchsorted(self.run_starts, pos, side="right") - 1).astype(np.int64)

    def owner_of_boxes(self, keys):
        """Owning rank of boxes at any level >= ``global_depth``."""
        return self.owner_of_roots(morton.ancestor_at(keys, self.global_depth))

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


def runs_from_splitters(global_depth, splitters):
    """Root-index run boundaries implied by box-snapped splitters."""
    roots = morton.ancestor_at(splitters, global_depth)
    pos = np.searchsorted(morton.all_keys(global_depth), roots)
    return np.concatenate([[0], pos, [8**global_depth]]).astype(np.int64)


def build_layout(global_depth, run_starts):
    """The global layout of the rank root runs ``run_starts``.

    ``run_starts[r]`` is the index of rank ``r``'s first root among the
    Morton-sorted level-``global_depth`` boxes. Raises
    :class:`LayoutError` unless the runs start at 0, never decrease, and
    end at ``8**global_depth``.
    """
    run_starts = np.asarray(run_starts, dtype=np.int64)
    n_roots = 8**global_depth
    if (len(run_starts) < 2 or run_starts[0] != 0 or run_starts[-1] != n_roots
            or np.any(np.diff(run_starts) < 0)):
        raise LayoutError(
            f"invalid layout: root runs do not tile the {n_roots} "
            f"level-{global_depth} boxes in Morton order"
        )
    return Layout(global_depth=global_depth, root_keys=morton.all_keys(global_depth),
                  run_starts=run_starts)
