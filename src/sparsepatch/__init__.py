"""Patch-sparse video feature pipeline.

Submodules:

* ``numcore``   - tape autodiff, MAC counting, seeded RNG, gradient check
* ``videoio``   - raw clip container, synthetic clips
* ``gopcodec``  - group-of-pictures codec (motion + exact residuals)
* ``spectral``  - graph-Laplacian patch saliency, zero where a frame has no split
* ``selector``  - differentiable patch selection
* ``psformer``  - sparse transformer over selected patches
* ``training``  - losses, optimizer, two-stage schedule
* ``costmodel`` - analytic and counted multiply-accumulate reports
* ``cli``       - command-line entry points
"""

__version__ = "0.1.0"

from .errors import (
    NumericalError,
    ParseError,
    ShapeError,
    SparsepatchError,
    UsageError,
    ValidationError,
)

__all__ = [
    "NumericalError",
    "ParseError",
    "ShapeError",
    "SparsepatchError",
    "UsageError",
    "ValidationError",
    "__version__",
]
