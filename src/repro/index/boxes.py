"""Distance computations between query points and axis-aligned boxes.

These implement the paper's Section 3.1 distance bounds: for a node with
bounding box ``[lo, hi]`` the smallest and largest distance vectors
``d_min, d_max`` from a query to any point in the box give, via kernel
monotonicity, upper and lower bounds on the node's density contribution
(Equation 6). All computations operate in bandwidth-scaled space where
the kernel is a radial profile, so only squared Euclidean distances are
needed.
"""

from __future__ import annotations

import numpy as np


def min_sq_dist(query: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Squared distance from ``query`` to the closest point of box [lo, hi].

    Zero when the query lies inside the box.
    """
    below = lo - query
    above = query - hi
    gaps = np.maximum(0.0, np.maximum(below, above))
    return float(gaps @ gaps)


def max_sq_dist(query: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Squared distance from ``query`` to the farthest point of box [lo, hi].

    Per dimension, the farthest coordinate is whichever box edge is
    farther from the query; the farthest box point is their combination
    (always a corner).
    """
    spans = np.maximum(np.abs(query - lo), np.abs(query - hi))
    return float(spans @ spans)


def min_sq_dists(queries: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized :func:`min_sq_dist` for an ``(m, d)`` batch of queries."""
    gaps = np.maximum(0.0, np.maximum(lo - queries, queries - hi))
    return np.einsum("ij,ij->i", gaps, gaps)


def max_sq_dists(queries: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized :func:`max_sq_dist` for an ``(m, d)`` batch of queries."""
    spans = np.maximum(np.abs(queries - lo), np.abs(queries - hi))
    return np.einsum("ij,ij->i", spans, spans)


def box_kernel_bounds(
    lo: np.ndarray,
    hi: np.ndarray,
    count: int,
    query: np.ndarray,
    kernel,
    inv_n: float,
) -> tuple[float, float]:
    """(lower, upper) kernel-density contribution of a box of points.

    The fused single-pass form of Equation 6 used by every traversal hot
    path: one numpy sweep computes both the min- and max-distance
    vectors, then two scalar kernel evaluations bound the contribution
    of ``count`` points.

    The squared distances are summed with ``einsum``, in the order the
    batch engine's :func:`repro.index.flat.signed_box_bounds` sums each
    row (a BLAS ``gaps @ gaps`` may fuse or reorder the products), so
    both engines see the same bits. That matters where a decision rests
    on roundoff: with a compact-support kernel an isolated query's exact
    density is 0, and a one-ulp residue left in the running upper bound
    would otherwise label it HIGH against a zero threshold in one engine
    and LOW in the other.
    """
    below = lo - query
    above = query - hi
    gaps = np.maximum(np.maximum(below, above), 0.0)
    spans = np.maximum(np.abs(below), np.abs(above))
    weight = count * inv_n
    upper = weight * kernel.value_scalar(float(np.einsum("i,i->", gaps, gaps)))
    lower = weight * kernel.value_scalar(float(np.einsum("i,i->", spans, spans)))
    return lower, upper


def tight_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact (tight) bounding box of a non-empty point set."""
    if points.shape[0] == 0:
        raise ValueError("cannot compute the bounding box of an empty point set")
    return points.min(axis=0), points.max(axis=0)
