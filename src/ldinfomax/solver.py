"""Projected gradient ascent for polytope-constrained LD-mutual-information
maximization.

The iteration is ``S <- P(S + mu_k * grad)`` where ``P`` projects every
column onto the polytope, ``grad`` is the gradient of the regularized
LD-mutual information between the fixed mixtures and the current source
estimate, and ``mu_k = mu0 / sqrt(k)`` for ``k >= 1``. Because the last
iterate of a projected gradient method with diminishing steps keeps
oscillating, the solver also maintains a polynomial-decay running average of
the iterates (feasible by convexity) and reports it as the source estimate;
the raw iterate and its objective remain available on the state.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation
from .datagen import _map_box
from .ica import _whiten
from .polytopes import NONNEG, project_columns
from .stats import _center, _cross, _Kernel, _measure_inputs

__all__ = [
    "DivergenceError",
    "SolverConfig",
    "SolverState",
    "TrajectoryPoint",
    "canonical_orientation",
    "gradient",
    "initialize",
    "run",
]

# iterate j >= 1 of the running average is weighted proportionally to
# j (j+1) ... (j+AVERAGING_POWER-1), about j**AVERAGING_POWER
AVERAGING_POWER = 6


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the projected gradient solver.

    There is one step rule, ``mu0 / sqrt(k)`` at step ``k >= 1``, and
    one start, the projected random map of :func:`initialize` (uniform in the
    box when the mixtures are rank deficient). ``seed`` draws that start.
    """

    epsilon: float = 1e-5
    mu0: float = 200.0
    iterations: int = 10000
    record_every: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("epsilon", "mu0"):
            value = getattr(self, name)
            if not (0 < value < math.inf):  # NaN fails it too
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
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
    """Objective became non-finite; carries the diagnostic state (optional, so it unpickles)."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


# ---------------------------------------------------------------------------
# the gradient


def gradient(s, y, epsilon):
    """Gradient of the LD-mutual information with respect to the sources.

    ``(1/N)(R_s+eps I)^{-1} S C - (1/N)(R_e+eps I)^{-1}(S - R_sy (R_y+eps I)^{-1} Y) C``
    with ``C`` the centering matrix, computed by linearity as one r x (r+M+1) map
    ``[A - B | B R_sy L⁻ᵀ | -(A - B) m] / N`` of ``[S ; L⁻¹Y C ; 1]`` (A, B the two
    inverses, L the Cholesky factor of ``R_y+eps I``, m the row means of S, which
    the ones row subtracts). ``s`` is centered once first, so an offset costs no
    accuracy. The inputs are checked as :func:`ld_mutual_information` checks them.
    """
    s, kernel = _measure_inputs(s, y, epsilon)
    kernel.load(s)
    return kernel.gradient(1.0)[0]


# ---------------------------------------------------------------------------
# initialization


def initialize(y, p, cfg):
    """Build a feasible starting point from the mixtures.

    Returns the feasible ``(p.dim, N)`` start: the mixtures whitened to
    ``p.dim`` principal components, under a random orthonormal map, rescaled
    by the largest column norm, shifted to the center of the box, with every
    column projected into the polytope. When the mixtures have rank below
    ``p.dim`` it warns and falls back to uniform draws in the bounding box,
    projected. ``cfg.seed`` draws either start.

    Raises
    ------
    ValueError
        If the mixtures are not a finite (M, N) matrix with N >= 2, or the
        polytope has more coordinates than there are mixtures.
    """
    rng = np.random.default_rng(cfg.seed)
    try:
        z, _ = _whiten(y, p.dim)
    except np.linalg.LinAlgError:
        warnings.warn(
            "mixture rank below the source count; falling back to random init",
            RuntimeWarning,
            stacklevel=2,
        )
        return project_columns(p, _map_box(rng.random((p.dim, np.shape(y)[1])), p))
    x = _random_orthonormal(p.dim, rng) @ z
    x = x / max(np.linalg.norm(x, axis=0).max(), np.finfo(float).tiny)
    shift = (p.lower + p.upper) / 2
    return project_columns(p, x + shift[:, None])


def _random_orthonormal(r, rng):
    q, rr = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rr))


# ---------------------------------------------------------------------------
# iteration


def canonical_orientation(s, y, p):
    """Resolve the box-reflection ambiguity of nonnegative coordinates.

    For a nonnegative coordinate in no l1 group the map ``s_i -> 1 - s_i``
    sends the polytope to itself and leaves every covariance unchanged, so
    the objective cannot tell a row from its reflection (the +-1 sign
    ambiguity of signed coordinates is handled by evaluation alignment
    instead). The mixture mean is the tie-breaker the covariances discard:
    with ``h`` the least-squares mixing of the centered samples, reflecting
    row ``i`` subtracts column ``h_i`` from the predicted mixture mean. So the
    flip set ``b`` in {0,1}^k over those k rows minimizes
    ``||h_nn b - d||`` with ``d = h mean(s) - mean(y)``, a binary
    least-squares problem solved exactly by :func:`_closest_binary`. Returns
    ``s`` itself when nothing flips.
    """
    grouped = {i for g in p.l1_groups for i in g}
    nn = [i for i, tag in enumerate(p.domains) if tag == NONNEG and i not in grouped]
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
    q, tri = np.linalg.qr(h_hat[:, nn])
    flips = _closest_binary(tri, q.T @ (h_hat @ s.mean(axis=1) - y.mean(axis=1)))
    rows = [i for i, flip in zip(nn, flips) if flip]
    if not rows:
        return s
    out = s.copy()
    out[rows] = 1.0 - out[rows]
    return out


def _closest_binary(tri, z):
    """Exact ``argmin ||tri b - z||`` over ``b`` in {0,1}^k, ``tri`` upper triangular.

    Depth-first branch and bound from the last row up (closest-point search,
    Agrell et al., IEEE Trans. Inf. Theory 2002): each level tries the value
    with the smaller row cost first (Schnorr-Euchner order) and prunes a
    branch once its partial cost reaches the best leaf so far. The first leaf
    reached is the rounded successive-cancellation point, so no incumbent is
    seeded; among leaves of exactly equal cost the first reached is kept.
    """
    tri, z = tri.tolist(), z.tolist()
    k = len(z)
    b = [0] * k
    best = [math.inf, None]

    def descend(j, cost):
        if j < 0:
            best[:] = cost, b[:]
            return
        row = tri[j]
        c = z[j] - sum(row[l] * b[l] for l in range(j + 1, k))
        costs = (c * c, (row[j] - c) ** 2)
        for v in sorted((0, 1), key=costs.__getitem__):
            if cost + costs[v] >= best[0]:
                break
            b[j] = v
            descend(j - 1, cost + costs[v])
        b[j] = 0

    descend(k - 1, 0.0)
    return best[1]


def _record(state, estimate, ground_truth, y, p):
    """Append a trajectory point; with ground truth, return the canonical estimate it scored."""
    canonical = sinr = None
    if ground_truth is not None:
        canonical = canonical_orientation(estimate, y, p)
        sinr = evaluation.sinr_db(canonical, ground_truth)
    state.trajectory.append(TrajectoryPoint(state.k, state.objective, sinr))
    return canonical


class _Trials(list):
    """The outcome of each trial of a stacked :func:`run`, in input order: its
    :class:`SolverState`, or the exception that ended it."""

    @property
    def k(self):
        """Iterations run by the trials that finished, summed."""
        return sum(state.k for state in self if isinstance(state, SolverState))


def run(y, p, cfg, ground_truth=None):
    """Run the solver for ``cfg.iterations`` steps and return the final state.

    The trajectory records the raw-iterate objective (and, when
    ``ground_truth`` is given, the SINR of the averaged estimate) at
    iteration 0, every ``cfg.record_every`` iterations, and at the end, where
    it scores the returned estimate. That estimate is reflection-canonicalized
    against the mixture mean (see :func:`canonical_orientation`); the raw
    iterate ``state.s`` is left untouched. Deterministic given the config seed.

    Several trials run as one stack through the same loop when ``cfg`` is a
    sequence of configs that differ only in ``seed``: ``y`` is then a
    sequence of mixtures of one shape and ``ground_truth`` None or a
    sequence of truths, one per trial (unequal lengths raise ``ValueError``).
    Every statistic is computed per trial and every projection per column, so
    each trial ends exactly where its single solve ends. The result lists,
    per trial, its state or the exception its single solve raises: when any
    trial fails, the stack is solved again trial by trial. Its ``k`` sums the
    iterations of the finished trials.
    """
    if isinstance(cfg, SolverConfig):
        return _solve([y], p, [cfg], [ground_truth])[0]
    if len({replace(c, seed=0) for c in cfg}) > 1:
        raise ValueError("stacked trials may differ only in their seed")
    truths = [None] * len(cfg) if ground_truth is None else ground_truth
    if not len(y) == len(cfg) == len(truths):
        raise ValueError(
            f"stacked trials need one mixture, config and truth each: got {len(y)} "
            f"mixtures, {len(cfg)} configs and {len(truths)} truths"
        )
    out = _Trials()
    if not cfg:
        return out
    try:
        out.extend(_solve(y, p, cfg, truths))
    except Exception:  # find the failing trials, each as its single solve fails
        for y_t, c, truth in zip(y, cfg, truths):
            try:
                out.extend(_solve([y_t], p, [c], [truth]))
            except Exception as exc:
                out.append(exc)
    return out


def _solve(ys, p, cfgs, truths):
    """The solver loop over a stack of trials; raises the first failure of any.

    The iterate ``s`` is an (r, T, N) array, so ``project_columns`` takes every
    column of every trial as one (r, T·N) view. Each iteration is two products
    over the kernel's buffer ``[S ; W ; 1]``: the statistics, and the step's
    point ``s + mu_k * grad`` written into one (r, T, N) buffer, which then
    takes the weighted iterate. The running average is kept as its weighted
    sum and divided by the total weight where it is read. A
    :class:`DivergenceError` carries its trial's state.
    """
    cfg = cfgs[0]
    kernel = _Kernel(ys, cfg.epsilon, p.dim)
    s = np.stack([initialize(y, p, c) for y, c in zip(ys, cfgs)], axis=1)
    step, weighted, total = np.empty_like(s), np.zeros_like(s), 0.0
    objective = kernel.load(s.swapaxes(0, 1))
    states = [SolverState(s=None, k=0, objective=math.nan, estimate=None) for _ in ys]
    finals = [None] * len(ys)

    def estimate(i):
        """Trial ``i``'s running average, a new array; the start before the first step."""
        return weighted[:, i] / total if total else s[:, i].copy()

    def record(k):
        for i, state in enumerate(states):
            state.k, state.objective = k, float(objective[i])
            finals[i] = _record(state, estimate(i), truths[i], ys[i], p)

    record(0)
    for k in range(1, cfg.iterations + 1):
        kernel.gradient(cfg.mu0 / math.sqrt(k), out=step.swapaxes(0, 1), step=True)
        s = project_columns(p, step.reshape(p.dim, -1)).reshape(step.shape)
        objective = kernel.load(s.swapaxes(0, 1))
        # the sum's weight on iterate k over its total is (P+1)/(k+P), P = AVERAGING_POWER
        weight = float(math.prod(range(k, k + AVERAGING_POWER)))
        weighted += np.multiply(s, weight, out=step)
        total += weight
        if not math.isfinite(np.add.reduce(objective)):
            i = np.argmin(np.isfinite(objective))  # the first trial that diverged
            state = SolverState(
                s=s[:, i].copy(), k=k, objective=float(objective[i]),
                estimate=estimate(i), trajectory=states[i].trajectory,
            )
            raise DivergenceError(f"objective became non-finite at iteration {k}", state)
        if k % cfg.record_every == 0 or k == cfg.iterations:
            record(k)
    for i, (y, state, final) in enumerate(zip(ys, states, finals)):
        # the last point is recorded at the final estimate: reuse its canonical form
        if final is None:
            final = canonical_orientation(estimate(i), y, p)
        state.s, state.estimate = s[:, i].copy(), final
    return states
