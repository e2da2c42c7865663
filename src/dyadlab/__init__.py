"""Numerical laboratory for dyadic multilinear harmonic analysis on finite lattices."""

from .lattice import (
    GridFunction,
    HaarPyramid,
    Lattice,
    average,
    build_lattice,
    expect,
    grid_function_from_json,
    grid_function_to_json,
    haar,
    integral,
    level_blocks,
    martingale_diff,
    pairing,
    random_grid_function,
)
from .ncspaces import lp_norm

__all__ = [
    "GridFunction",
    "HaarPyramid",
    "Lattice",
    "average",
    "build_lattice",
    "expect",
    "grid_function_from_json",
    "grid_function_to_json",
    "haar",
    "integral",
    "level_blocks",
    "lp_norm",
    "martingale_diff",
    "pairing",
    "random_grid_function",
]

__version__ = "0.1.0"
