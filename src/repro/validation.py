"""Shared input validation for estimators and classifiers.

Kernel density machinery silently misbehaves on non-finite inputs (NaN
coordinates poison every distance they touch; infinities collapse
bounding boxes), so every ``fit``/``density``/``classify`` entry point
funnels its arrays through these checks and fails loudly instead.
"""

from __future__ import annotations

import numpy as np

#: Policies for invalid *query* rows (training data always raises):
#: "raise" rejects the whole batch, "flag" masks the offending rows and
#: lets the caller answer them as degraded/UNCERTAIN.
QUERY_POLICIES = ("raise", "flag")


def as_finite_matrix(data: np.ndarray, name: str = "data") -> np.ndarray:
    """Coerce to a float64 ``(n, d)`` matrix, rejecting non-finite values.

    Raises ``ValueError`` naming the offending argument when the input
    contains NaN or infinity, is empty, or cannot be shaped into a
    2-d matrix.
    """
    matrix = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be a 2-d point matrix, got shape {matrix.shape}")
    if matrix.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(matrix)):
        bad = int(np.count_nonzero(~np.isfinite(matrix)))
        raise ValueError(
            f"{name} contains {bad} non-finite value(s) (NaN or inf); "
            "clean or impute them before fitting/querying"
        )
    return matrix


def as_insert_rows(points: np.ndarray, dim: int, name: str) -> np.ndarray:
    """Float64 rows to add to a fitted ``dim``-d model, all finite.

    Raises ``ValueError`` otherwise, naming the first non-finite row: one
    stored NaN poisons every later density it contributes to.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(
            f"{name} dimensionality {points.shape[-1]} does not match "
            f"the model dimensionality {dim}"
        )
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{name} row {row} is not finite: {points[row].tolist()}")
    return points


def as_query_matrix(
    queries: np.ndarray,
    dim: int,
    policy: str = "raise",
    name: str = "queries",
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a query batch under the shared input-hardening policy.

    Returns ``(matrix, invalid_rows)`` where ``matrix`` is a float64
    ``(q, dim)`` array safe to hand to either traversal engine and
    ``invalid_rows`` is a boolean mask of rows that contained non-finite
    values. Under ``policy="raise"`` (the default) any such row raises
    ``ValueError`` instead, so the mask is all-False on return; under
    ``policy="flag"`` the offending rows are zero-filled (they are never
    actually traversed — callers must answer them from the mask) and
    flagged. Wrong dtype and wrong shape always raise: they are
    batch-level errors with no per-row interpretation.
    """
    if policy not in QUERY_POLICIES:
        raise ValueError(f"unknown query policy {policy!r}; choose from {QUERY_POLICIES}")
    try:
        matrix = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"{name} must be numeric and coercible to float64: {error}"
        ) from None
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be a 2-d point matrix, got shape {matrix.shape}")
    if matrix.size == 0:
        # An empty batch is a valid no-op query.
        return matrix.reshape(0, dim), np.zeros(0, dtype=bool)
    if matrix.shape[1] != dim:
        raise ValueError(
            f"{name} dimensionality {matrix.shape[1]} does not match the "
            f"training dimensionality {dim}"
        )
    invalid = ~np.all(np.isfinite(matrix), axis=1)
    if not invalid.any():
        return matrix, invalid
    if policy == "raise":
        bad = int(np.count_nonzero(~np.isfinite(matrix)))
        raise ValueError(
            f"{name} contains {bad} non-finite value(s) (NaN or inf) in "
            f"{int(np.count_nonzero(invalid))} row(s); clean or impute them, "
            "or classify with query_policy='flag' to have them marked "
            "UNCERTAIN instead"
        )
    matrix = matrix.copy()
    matrix[invalid] = 0.0
    return matrix, invalid
