"""Projected gradient ascent for polytope-constrained LD-mutual-information
maximization.

The iteration is ``S <- P(S + mu_k * grad)`` where ``P`` projects every
column onto the polytope, ``grad`` is the gradient of the regularized
LD-mutual information between the fixed mixtures and the current source
estimate, and ``mu_k`` follows a diminishing schedule. Because the last
iterate of a projected gradient method with diminishing steps keeps
oscillating, the solver also maintains a polynomial-decay running average of
the iterates (feasible by convexity) and reports it as the source estimate;
the raw iterate and its objective remain available on the state.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve

from . import evaluation
from .ica import whiten
from .polytopes import NONNEG, contains, project_columns
from .stats import (
    _center,
    _cholesky,
    _covariance,
    _cross,
    _error_covariance,
    _half_logdet,
)

__all__ = [
    "DivergenceError",
    "SolverConfig",
    "SolverState",
    "TrajectoryPoint",
    "canonical_orientation",
    "gradient",
    "initialize",
    "run",
    "run_best_of",
    "step_size",
]

SCHEDULES = ("inverse_sqrt",)
INIT_STRATEGIES = ("projected_random_map", "random")
# iterate j of the running average is weighted proportionally to j**AVERAGING_POWER
AVERAGING_POWER = 6


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the projected gradient solver.

    The step rule is ``mu0 / sqrt(k + 1)``; ``schedule`` names it and accepts
    only ``"inverse_sqrt"``. ``init`` picks the starting point (see
    :func:`initialize`).
    """

    epsilon: float = 1e-5
    mu0: float = 200.0
    iterations: int = 10000
    schedule: str = "inverse_sqrt"
    record_every: int = 100
    init: str = "projected_random_map"
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.mu0 <= 0:
            raise ValueError("mu0 must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.init not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {self.init!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class TrajectoryPoint:
    iteration: int
    objective: float
    sinr_db: float | None = None


@dataclass
class SolverState:
    """Iterate, averaged estimate, and recorded trajectory of one run."""

    s: np.ndarray
    k: int
    objective: float
    estimate: np.ndarray
    trajectory: list = field(default_factory=list)


class DivergenceError(RuntimeError):
    """Objective became non-finite; carries the diagnostic state."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


def step_size(cfg, k):
    """Scheduled step size at iteration ``k`` (0-based)."""
    return cfg.mu0 / math.sqrt(k + 1)


# ---------------------------------------------------------------------------
# per-run cached quantities and the gradient


class _RunContext:
    """Mixture-side quantities that stay constant across iterations."""

    def __init__(self, y, epsilon):
        y = np.asarray(y, dtype=float)
        if y.ndim != 2 or y.shape[1] < 2:
            raise ValueError("mixtures must be an (M, N) matrix with N >= 2")
        self.n = y.shape[1]
        self.epsilon = float(epsilon)
        self.yc = _center(y)
        self.cho_y = _cholesky(_covariance(self.yc), self.epsilon, "R_y")
        # (R_y + eps I)^{-1} Yc, reused by every gradient evaluation
        self.g_yc = cho_solve(self.cho_y, self.yc)


class _Stats:
    """Source-side factorizations shared by the objective and the gradient.

    ``objective`` is :func:`ldinfomax.stats.ld_mutual_information` of the
    iterate, computed by the same kernel without input validation.
    """

    def __init__(self, s, ctx):
        self.sc = _center(s)
        r_s = _covariance(self.sc)
        self.r_sy = _cross(self.sc, ctx.yc)
        r_e = _error_covariance(r_s, self.r_sy, ctx.cho_y)
        self.cho_s = _cholesky(r_s, ctx.epsilon, "R_s")
        self.cho_e = _cholesky(r_e, ctx.epsilon, "R_e")
        self.objective = _half_logdet(self.cho_s) - _half_logdet(self.cho_e)

    def gradient(self, ctx):
        resid = self.sc - self.r_sy @ ctx.g_yc
        return (cho_solve(self.cho_s, self.sc) - cho_solve(self.cho_e, resid)) / ctx.n


def gradient(s, y, epsilon):
    """Gradient of the LD-mutual information with respect to the sources.

    ``(1/N)(R_s+eps I)^{-1} S C - (1/N)(R_e+eps I)^{-1}(S - R_sy (R_y+eps I)^{-1} Y) C``
    with ``C`` the centering matrix, applied by subtracting row means rather
    than being materialized.
    """
    s = np.asarray(s, dtype=float)
    ctx = _RunContext(y, epsilon)
    if s.shape[1] != ctx.n:
        raise ValueError("sources and mixtures must share the sample count")
    return _Stats(s, ctx).gradient(ctx)


# ---------------------------------------------------------------------------
# initialization


def initialize(y, p, cfg):
    """Build a feasible starting point from the mixtures.

    Returns ``(s0, strategy_used)``. The default "projected_random_map"
    whitens the mixtures to ``p.dim`` principal components, applies a random
    orthonormal map, rescales by the largest column norm, shifts nonnegative
    coordinates by +0.5, and projects every column into the polytope. When
    the mixtures have rank below ``p.dim`` it falls back to "random" (uniform
    draws in the bounding box, projected) and emits a warning.

    Raises
    ------
    ValueError
        If the polytope has more coordinates than there are mixtures.
    """
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if p.dim > m:
        raise ValueError(f"cannot estimate r={p.dim} sources from M={m} mixtures")
    rng = np.random.default_rng(cfg.seed)
    if cfg.init == "projected_random_map":
        try:
            z, _ = whiten(y, p.dim)
        except np.linalg.LinAlgError:
            warnings.warn(
                "mixture rank below the source count; falling back to random init",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            x = _random_orthonormal(p.dim, rng) @ z
            x = x / max(np.linalg.norm(x, axis=0).max(), np.finfo(float).tiny)
            shift = np.array([0.5 if t == NONNEG else 0.0 for t in p.domains])
            return project_columns(p, x + shift[:, None]), cfg.init

    lo = p.lower[:, None]
    s0 = lo + (p.upper[:, None] - lo) * rng.random((p.dim, y.shape[1]))
    return project_columns(p, s0), "random"


def _random_orthonormal(r, rng):
    q, rr = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rr))


# ---------------------------------------------------------------------------
# iteration


def canonical_orientation(s, y, p):
    """Resolve the box-reflection ambiguity of nonnegative coordinates.

    For a nonnegative box domain the map ``s_i -> 1 - s_i`` sends the
    polytope to itself and leaves every covariance unchanged, so the
    objective cannot tell a row from its reflection (the +-1 sign ambiguity
    of signed coordinates is handled by evaluation alignment instead). The
    mixture mean is the tie-breaker the covariances discard: reflecting row
    ``i`` flips its implied mixing column while moving the predicted mixture
    mean by that full column. This picks the flip combination whose implied
    mixing best reproduces the observed mixture mean, and returns the input
    unchanged when no flip is feasible or no nonnegative coordinates exist.
    """
    nn = [i for i, tag in enumerate(p.domains) if tag == NONNEG]
    if not nn:
        return s
    y = np.asarray(y, dtype=float)
    sc = _center(s)
    gram = _cross(sc, sc)
    try:
        # least-squares mixing from Yc ~ H Sc
        h_hat = np.linalg.solve(gram + 1e-12 * np.eye(p.dim), _cross(sc, _center(y))).T
    except np.linalg.LinAlgError:
        return s
    mu_y = y.mean(axis=1)
    mu_s = s.mean(axis=1)
    best_bits, best_resid = 0, math.inf
    for bits in range(1 << len(nn)):
        signs = np.ones(p.dim)
        mu = mu_s.copy()
        for b, i in enumerate(nn):
            if bits >> b & 1:
                signs[i] = -1.0
                mu[i] = 1.0 - mu_s[i]
        resid = float(np.linalg.norm(mu_y - (h_hat * signs) @ mu))
        if resid < best_resid - 1e-15:
            best_bits, best_resid = bits, resid
    if best_bits == 0:
        return s
    out = s.copy()
    for b, i in enumerate(nn):
        if best_bits >> b & 1:
            out[i] = 1.0 - out[i]
    if not contains(p, out, tol=1e-8):
        return s
    return out


def _record(state, ground_truth, y=None, p=None):
    sinr = None
    if ground_truth is not None:
        estimate = state.estimate
        if y is not None and p is not None:
            estimate = canonical_orientation(estimate, y, p)
        sinr = evaluation.sinr_db(estimate, ground_truth)
    state.trajectory.append(TrajectoryPoint(state.k, state.objective, sinr))


def run(y, p, cfg, ground_truth=None):
    """Run the solver for ``cfg.iterations`` steps and return the final state.

    The trajectory records the raw-iterate objective (and, when
    ``ground_truth`` is given, the SINR of the averaged estimate) at
    iteration 0, every ``cfg.record_every`` iterations, and at the end. The
    returned estimate is reflection-canonicalized against the mixture mean
    (see :func:`canonical_orientation`); the raw iterate ``state.s`` is left
    untouched. Deterministic given the config seed.
    """
    ctx = _RunContext(y, cfg.epsilon)
    s0, _ = initialize(y, p, cfg)
    stats = _Stats(s0, ctx)
    state = SolverState(s=s0, k=0, objective=stats.objective, estimate=s0.copy())
    _record(state, ground_truth, y, p)
    for k in range(1, cfg.iterations + 1):
        state.s = project_columns(p, state.s + step_size(cfg, k - 1) * stats.gradient(ctx))
        stats = _Stats(state.s, ctx)
        state.k, state.objective = k, stats.objective
        beta = (AVERAGING_POWER + 1.0) / (k + AVERAGING_POWER)
        state.estimate = (1.0 - beta) * state.estimate + beta * state.s
        if not math.isfinite(state.objective):
            raise DivergenceError(f"objective became non-finite at iteration {k}", state)
        if k % cfg.record_every == 0 or k == cfg.iterations:
            _record(state, ground_truth, y, p)
    state.estimate = canonical_orientation(state.estimate, y, p)
    return state


def run_best_of(y, p, cfg, starts, ground_truth=None):
    """Run several seeded starts and keep the highest final objective.

    Start ``i`` uses seed ``cfg.seed + 1000003 * i``, so one start is
    :func:`run`. Selection uses the objective of the averaged estimate, which
    needs no ground truth.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    best_state, best_obj = None, -math.inf
    ctx = _RunContext(y, cfg.epsilon)
    for i in range(starts):
        state = run(y, p, replace(cfg, seed=cfg.seed + 1000003 * i), ground_truth)
        obj = _Stats(state.estimate, ctx).objective
        if best_state is None or obj > best_obj:
            best_state, best_obj = state, obj
    return best_state
