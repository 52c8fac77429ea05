"""Kernel functions and bandwidth selection for kernel density estimation.

Kernels in this package are *radial profiles over bandwidth-scaled space*:
once the data is rescaled by a diagonal bandwidth ``h`` (i.e. ``u = x / h``),
the kernel value depends only on the squared Euclidean distance in the
scaled space. For the Gaussian product kernel this is exactly the paper's
Equation 2 with ``H = diag(h_1^2, ..., h_d^2)``; working in scaled space is
what lets the k-d tree derive density bounds from plain Euclidean distances
to bounding boxes.
"""

from repro.kernels.bandwidth import scotts_rule, silverman_rule
from repro.kernels.base import Kernel
from repro.kernels.epanechnikov import EpanechnikovKernel
from repro.kernels.factory import KERNELS, kernel_for_data
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.polynomial import (
    BiweightKernel,
    PolynomialKernel,
    TriweightKernel,
    UniformKernel,
)

__all__ = [
    "Kernel",
    "GaussianKernel",
    "EpanechnikovKernel",
    "PolynomialKernel",
    "UniformKernel",
    "BiweightKernel",
    "TriweightKernel",
    "KERNELS",
    "kernel_for_data",
    "scotts_rule",
    "silverman_rule",
]
