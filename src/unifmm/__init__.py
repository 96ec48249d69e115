"""Distributed kernel-independent FMM on uniform octrees.

The library evaluates 3D Laplace N-body potentials with a kernel
independent FMM over Morton-keyed uniform octrees, partitioned across
simulated ranks that communicate through a deterministic in-process
transport. A CLI (``fmm``) drives verification against direct summation
and communication/computation statistics sweeps.
"""

__version__ = "0.1.0"

from .morton import MAX_DEPTH, BoundingCube, encode_points, fit_domain
from .tree import UniformTree, build_tree
from .kernels import direct_sum, kernel_backend, near_field_plan, p2p_uli
from .operators import (
    expansion_length,
    frozen_eps,
    precompute_operators,
    surface_grid,
)
from .partition import Layout, build_layout, redistribute, sample_splitters
from .transport import TransportError, create_world, run_spmd
from .distributed import (
    DistributedFmm,
    FmmConfig,
    evaluate,
    global_message_size,
    setup,
    update_charges,
)

__all__ = [
    "MAX_DEPTH",
    "BoundingCube",
    "encode_points",
    "fit_domain",
    "UniformTree",
    "build_tree",
    "direct_sum",
    "kernel_backend",
    "near_field_plan",
    "p2p_uli",
    "expansion_length",
    "frozen_eps",
    "precompute_operators",
    "surface_grid",
    "Layout",
    "build_layout",
    "redistribute",
    "sample_splitters",
    "TransportError",
    "create_world",
    "run_spmd",
    "DistributedFmm",
    "FmmConfig",
    "evaluate",
    "global_message_size",
    "setup",
    "update_charges",
]
