"""Deterministic fault injection for the tKDC serving path.

Production failure modes — corrupted node bounds from a bad float op,
kernel underflow on extreme-scale data, a crashed or stalled pool
worker — are rare and timing-dependent, which makes the guards that
handle them untestable without help. A :class:`FaultPlan` makes every
one of them reproducible: it names, by deterministic ordinal (the k-th
child-bound computation, the k-th leaf evaluation, chunk index c of a
parallel batch), exactly where a fault fires. Tests inject a plan
through ``TKDCConfig(fault_plan=...)`` and assert on the recovery
behaviour; no sleeps, no flaky probabilities unless a seeded rate is
explicitly requested.

The plan is a frozen, picklable value object so it crosses process
boundaries unchanged: pool workers consult the *same* plan the parent
holds, keyed purely on ``(chunk_index, attempt)``, so worker faults are
deterministic regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Supported corruption shapes for injected bound faults.
BOUND_MODES = ("nan", "invert", "inf")

#: Worker fault kinds returned by :meth:`FaultPlan.worker_fault`.
WORKER_CRASH = "crash"
WORKER_STALL = "stall"

#: Refit fault kinds returned by :meth:`DriftPlan.refit_fault`.
REFIT_CRASH = "crash"  #: refit subprocess dies mid-fit (os._exit)
REFIT_RAISE = "raise"  #: fit raises (poisoned snapshot / bad hyperparams)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Traversal faults fire by global ordinal within one
    :class:`FaultInjector` lifetime (the classifier creates a fresh
    injector per public query call, so ordinals are stable per call).
    Worker faults fire by ``(chunk_index, attempt)`` and are evaluated
    inside the worker process.

    Attributes
    ----------
    corrupt_bound_nodes:
        Child-bound computation ordinals whose (lower, upper) result is
        corrupted according to ``corrupt_bound_mode``.
    corrupt_bound_mode:
        ``"nan"`` (lower becomes NaN), ``"invert"`` (bounds swapped and
        strictly inverted), or ``"inf"`` (upper becomes +inf).
    underflow_leaves:
        Leaf-evaluation ordinals whose exact kernel sum is replaced by
        ``underflow_value`` (default 0.0, modelling silent underflow).
    crash_chunks / stall_chunks:
        Parallel-classify chunk indices whose worker dies
        (``os._exit``) or blocks forever while processing the chunk.
    fail_attempts:
        Worker faults fire while ``attempt < fail_attempts``; retries
        beyond that succeed (models transient failures). Use a large
        value for a permanently poisoned chunk.
    bound_rate / leaf_rate:
        Optional seeded Bernoulli corruption rates for property tests;
        deterministic given the injector's draw order.
    seed:
        Seed for the rate-based draws.
    """

    corrupt_bound_nodes: tuple[int, ...] = ()
    corrupt_bound_mode: str = "nan"
    underflow_leaves: tuple[int, ...] = ()
    underflow_value: float = 0.0
    crash_chunks: tuple[int, ...] = ()
    stall_chunks: tuple[int, ...] = ()
    fail_attempts: int = 1
    bound_rate: float = 0.0
    leaf_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.corrupt_bound_mode not in BOUND_MODES:
            raise ValueError(
                f"unknown corrupt_bound_mode {self.corrupt_bound_mode!r}; "
                f"choose from {BOUND_MODES}"
            )
        if self.fail_attempts < 0:
            raise ValueError(f"fail_attempts must be >= 0, got {self.fail_attempts}")
        for name in ("bound_rate", "leaf_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        overlap = set(self.crash_chunks) & set(self.stall_chunks)
        if overlap:
            raise ValueError(f"chunks {sorted(overlap)} are in both crash and stall lists")

    @property
    def targets_traversal(self) -> bool:
        """Whether any traversal-level fault can ever fire."""
        return bool(
            self.corrupt_bound_nodes or self.underflow_leaves
            or self.bound_rate > 0.0 or self.leaf_rate > 0.0
        )

    @property
    def targets_workers(self) -> bool:
        """Whether any pool-worker fault can ever fire."""
        return bool(self.crash_chunks or self.stall_chunks)

    def worker_fault(self, chunk_index: int, attempt: int) -> str | None:
        """The fault (if any) a worker must enact for this dispatch.

        Pure function of the plan so parent and workers agree without
        shared state: returns :data:`WORKER_CRASH`, :data:`WORKER_STALL`
        or ``None``.
        """
        if attempt >= self.fail_attempts:
            return None
        if chunk_index in self.crash_chunks:
            return WORKER_CRASH
        if chunk_index in self.stall_chunks:
            return WORKER_STALL
        return None


@dataclass(frozen=True)
class DriftPlan:
    """A deterministic mid-stream distribution shift plus refit faults.

    The streaming soak test's script: where the data distribution moves,
    and which background refit attempts fail, crash, or produce a
    corrupted artifact. Frozen and picklable so the refit subprocess
    consults the *same* plan the pipeline holds, keyed purely on
    ``(generation, attempt)``.

    Attributes
    ----------
    shift_after:
        Stream position (points ingested since the initial fit) after
        which arriving points are shifted: position ``shift_after`` is
        the first drifted point.
    mean_shift:
        Per-dimension offset added to drifted points (empty = no shift).
    scale:
        Multiplier applied to drifted points *before* the offset.
    refit_crash / refit_raise:
        Refit generations (1-based, in trigger order) whose fit attempt
        crashes the refit subprocess (``os._exit``) or raises. Fires
        while ``attempt < fail_attempts``, so a retry can clear a
        transient fault; use a large ``fail_attempts`` for a permanently
        poisoned refit.
    corrupt_artifacts:
        Refit generations whose *saved* model artifact gets a byte
        flipped after writing — the sha256-verified reload path must
        refuse it and roll back.
    fail_attempts:
        Refit faults fire while ``attempt < fail_attempts`` (same
        transient-fault contract as :class:`FaultPlan`).
    """

    shift_after: int = 0
    mean_shift: tuple[float, ...] = ()
    scale: float = 1.0
    refit_crash: tuple[int, ...] = ()
    refit_raise: tuple[int, ...] = ()
    corrupt_artifacts: tuple[int, ...] = ()
    fail_attempts: int = 1

    def __post_init__(self) -> None:
        if self.shift_after < 0:
            raise ValueError(f"shift_after must be >= 0, got {self.shift_after}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.fail_attempts < 0:
            raise ValueError(f"fail_attempts must be >= 0, got {self.fail_attempts}")
        overlap = set(self.refit_crash) & set(self.refit_raise)
        if overlap:
            raise ValueError(
                f"refit generations {sorted(overlap)} are in both crash and raise lists"
            )

    def refit_fault(self, generation: int, attempt: int) -> str | None:
        """The fault (if any) a refit attempt must enact.

        Pure function of the plan so the pipeline and the refit
        subprocess agree without shared state: returns
        :data:`REFIT_CRASH`, :data:`REFIT_RAISE`, or ``None``.
        """
        if attempt >= self.fail_attempts:
            return None
        if generation in self.refit_crash:
            return REFIT_CRASH
        if generation in self.refit_raise:
            return REFIT_RAISE
        return None

    def corrupts_artifact(self, generation: int) -> bool:
        """Whether this generation's saved artifact gets a byte flipped."""
        return generation in self.corrupt_artifacts

    def apply_shift(self, points: np.ndarray, stream_position: int) -> np.ndarray:
        """Shift the rows of ``points`` that land past ``shift_after``.

        ``stream_position`` is the stream index of ``points[0]``; rows
        whose index reaches ``shift_after`` get ``scale * x +
        mean_shift``. Returns a new array (input is never mutated).
        """
        points = np.asarray(points, dtype=np.float64)
        out = points.copy()
        first = max(self.shift_after - stream_position, 0)
        if first >= out.shape[0]:
            return out
        drifted = out[first:]
        if self.scale != 1.0:
            drifted *= self.scale
        if self.mean_shift:
            drifted += np.asarray(self.mean_shift, dtype=np.float64)
        return out


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`'s traversal faults.

    Counts child-bound computations and leaf evaluations as the engines
    perform them and corrupts exactly the planned ordinals. One injector
    per query call keeps ordinals reproducible; the injector is cheap to
    construct.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._bound_ordinal = 0
        self._leaf_ordinal = 0
        self._rng = np.random.default_rng(plan.seed)
        self._bound_targets = frozenset(plan.corrupt_bound_nodes)
        self._leaf_targets = frozenset(plan.underflow_leaves)
        #: Count of faults actually fired (tests assert on coverage).
        self.fired = 0

    # -- child-bound corruption -----------------------------------------

    def corrupt_bounds(self, lower: float, upper: float) -> tuple[float, float]:
        """Scalar hook: maybe corrupt one (lower, upper) node bound."""
        ordinal = self._bound_ordinal
        self._bound_ordinal += 1
        hit = ordinal in self._bound_targets or (
            self.plan.bound_rate > 0.0 and self._rng.random() < self.plan.bound_rate
        )
        if not hit:
            return lower, upper
        self.fired += 1
        return self._corrupt_pair(lower, upper)

    def corrupt_bounds_array(
        self, lower: np.ndarray, upper: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vector hook: consume one ordinal per pair, corrupt the planned ones."""
        n = lower.shape[0]
        start = self._bound_ordinal
        self._bound_ordinal += n
        hits = np.zeros(n, dtype=bool)
        for target in self._bound_targets:
            if start <= target < start + n:
                hits[target - start] = True
        if self.plan.bound_rate > 0.0:
            hits |= self._rng.random(n) < self.plan.bound_rate
        if not hits.any():
            return lower, upper
        lower = lower.copy()
        upper = upper.copy()
        for i in np.flatnonzero(hits):
            self.fired += 1
            lower[i], upper[i] = self._corrupt_pair(float(lower[i]), float(upper[i]))
        return lower, upper

    def _corrupt_pair(self, lower: float, upper: float) -> tuple[float, float]:
        mode = self.plan.corrupt_bound_mode
        if mode == "nan":
            return float("nan"), upper
        if mode == "inf":
            return lower, float("inf")
        # "invert": strictly flip the interval so f_l > f_u downstream.
        bump = abs(upper) * 0.5 + 1e-3
        return upper + bump, lower

    # -- leaf underflow ---------------------------------------------------

    def corrupt_leaf(self, exact: float) -> float:
        """Scalar hook: maybe replace one exact leaf sum (underflow)."""
        ordinal = self._leaf_ordinal
        self._leaf_ordinal += 1
        hit = ordinal in self._leaf_targets or (
            self.plan.leaf_rate > 0.0 and self._rng.random() < self.plan.leaf_rate
        )
        if not hit:
            return exact
        self.fired += 1
        return self.plan.underflow_value

    def corrupt_leaves_array(self, exact: np.ndarray) -> np.ndarray:
        """Vector hook: one ordinal per leaf evaluation in the sweep."""
        n = exact.shape[0]
        start = self._leaf_ordinal
        self._leaf_ordinal += n
        hits = np.zeros(n, dtype=bool)
        for target in self._leaf_targets:
            if start <= target < start + n:
                hits[target - start] = True
        if self.plan.leaf_rate > 0.0:
            hits |= self._rng.random(n) < self.plan.leaf_rate
        if not hits.any():
            return exact
        exact = exact.copy()
        exact[hits] = self.plan.underflow_value
        self.fired += int(np.count_nonzero(hits))
        return exact
