"""Finite-rank transfer operators and their Gibbs data.

The operator acts on functions that are constant on depth-``k`` cylinders.
A state is an admissible depth-``k`` word ``w``; prepending a symbol ``e``
gives the refinement step.  ``build_operator`` fixes everything that does
not depend on the exponent, as arrays over the lexicographic level: the
states' symbols, the rows of their head ``w[:-1]`` and tail ``w[1:]`` among
the depth-``(k-1)`` words, the index arrays of the one-step transitions and
of the two-step paths, and each state's log-derivative midpoint ``m``, the
midpoint of the log-derivative bracket of map ``e`` over the exact image
interval of the context ``w[1:]``, read off ``level_geometry`` at depth
``k - 1`` (the whole domain of ``e`` when ``k == 1``).  The solves form no
states x states array: a state has at most one transition per symbol, and
the operator is applied by ``np.bincount`` over the index arrays.
``eigenmeasure`` applies the exponent ``t``, weighting each transition out
of a state by ``exp(t * m)``.  Power iteration of the squared operator, two
steps per pass, gives the eigenmeasure (left) and the density (right); one
more single step gives the eigenvalue and the residuals.  The product of
the two vectors is the invariant (shift-stationary) measure, realised here
as a stationary Markov chain on the states.  The invariant measure's
Lyapunov exponent is minus the slope of ``log eigenvalue`` in ``t``, which
lets ``operator_bowen_solve`` find the Bowen root by Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pressure import BowenSolution, ConvergenceFailure, _find_root, _power_iterate
from .symbolic import admissible_level, finitely_primitive_witness
from .systems import SystemSpec, level_geometry

__all__ = [
    "DegenerateSystemError",
    "GibbsState",
    "OperatorMatrix",
    "ReducibilityError",
    "build_operator",
    "eigenmeasure",
    "entropy_lyapunov",
    "EntropyLyapunov",
    "operator_bowen_solve",
]


class ReducibilityError(ValueError):
    """The incidence structure has no finite primitivity witness."""


class DegenerateSystemError(RuntimeError):
    """The invariant measure has a non-positive contraction rate."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Exponent-free transfer data on depth-``depth`` cylinder functions.

    The states are the rows of ``symbols``, the admissible depth-``depth``
    words in lexicographic order; ``head[j]`` and ``tail[j]`` are the rows
    of ``w[:-1]`` and ``w[1:]`` among the depth-``(depth-1)`` words (all 0
    at depth 1, the empty word).  State ``j`` carries weight into state
    ``i`` when prepending ``symbols[j, 0]`` to state ``i`` reproduces state
    ``j`` up to depth, that is ``head[i] == tail[j]`` (at depth 1, when the
    incidence lets symbol ``i`` follow symbol ``j``); ``rows[e]`` and
    ``cols[e]`` are the ``i`` and ``j`` of these one-step transitions,
    sorted by ``j``.  ``rows2``, ``via2`` and ``cols2`` list the two-step
    paths ``i <- j <- k``, one per admissible word of length ``depth + 2``.
    ``state_log_mid[j]`` is the midpoint of the log-derivative bracket of
    the first symbol of state ``j`` over the image of its tail;
    ``log_width`` is the largest bracket width.
    """

    depth: int
    symbols: np.ndarray = field(repr=False)
    head: np.ndarray = field(repr=False)
    tail: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    rows2: np.ndarray = field(repr=False)
    via2: np.ndarray = field(repr=False)
    cols2: np.ndarray = field(repr=False)
    state_log_mid: np.ndarray = field(repr=False)
    log_width: float

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def matrix(self) -> np.ndarray:
        """The dense 0/1 transition pattern, ``matrix[rows, cols] == 1``,
        rebuilt on every read for callers that inspect it (the benchmark's
        tracer, the tests); the solves never form it."""
        matrix = np.zeros((len(self), len(self)))
        matrix[self.rows, self.cols] = 1.0
        return matrix


def build_operator(system: SystemSpec, depth: int = 2) -> OperatorMatrix:
    """Assemble the transition pattern on admissible depth-``depth`` words.

    Raises :class:`ReducibilityError` when the incidence matrix admits no
    finite primitivity witness (power iteration would not converge to a
    simple positive eigenpair).
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if finitely_primitive_witness(system.incidence) is None:
        raise ReducibilityError(
            "incidence matrix is not finitely primitive; the transfer "
            "operator has no unique positive eigenpair"
        )

    symbols, tail = admissible_level(system.incidence, depth)
    # A primitive incidence gives every word a child, so the heads w[:-1]
    # of the lexicographic level run through the depth-(k-1) words in order.
    head = np.concatenate(([0], np.cumsum((symbols[1:, :-1] != symbols[:-1, :-1]).any(axis=1))))
    first = symbols[:, 0]
    n = len(symbols)
    if depth == 1:
        lo, hi = system.domains[first].T
        # one-symbol states: j feeds i when symbol i may follow symbol j
        cols, rows = np.nonzero(system.incidence.allowed)
    else:
        context = level_geometry(system, depth - 1)
        lo, hi = context.image_lo[tail], context.image_hi[tail]
        # j feeds i where head(i) == tail(j).  The children of a word are
        # contiguous rows, so column j holds one run, from the first child
        # of tail(j) on; laid end to end the runs count up by one, and each
        # is offset by its first child less its own start.
        children = np.bincount(head)
        runs = children[tail]
        cols = np.repeat(np.arange(n), runs)
        rows = np.repeat(np.cumsum(children)[tail] - np.cumsum(runs), runs) + np.arange(cols.size)
    # two-step paths i <- j <- k: each transition (j, k) followed by each of
    # the fan[e] transitions (i, j), which the column-sorted lists hold as
    # one run
    in_col = np.bincount(cols, minlength=n)
    fan = in_col[rows]
    ends = np.cumsum(fan)
    rows2 = rows[np.repeat(np.cumsum(in_col)[rows] - ends, fan) + np.arange(ends[-1])]

    # |s_e'| = |det| / (c x + d)^2 is monotone, so its bracket over the
    # context image is the pair of endpoint values
    a, b, c, d = system.coefficients[first].T
    det = np.abs(a * d - b * c)
    v0, v1 = det / (c * lo + d) ** 2, det / (c * hi + d) ** 2
    lo_log, hi_log = np.log(np.minimum(v0, v1)), np.log(np.maximum(v0, v1))
    return OperatorMatrix(
        depth=depth,
        symbols=symbols,
        head=head,
        tail=tail,
        rows=rows,
        cols=cols,
        rows2=rows2,
        via2=np.repeat(rows, fan),
        cols2=np.repeat(cols, fan),
        state_log_mid=0.5 * (lo_log + hi_log),
        log_width=float((hi_log - lo_log).max()),
    )


@dataclass(frozen=True, eq=False)
class GibbsState:
    """Eigen-data of one finite transfer matrix at one exponent.

    ``eigenmeasure`` is the left (transpose) eigenvector normalised to total
    mass one — the conformal-measure analogue on depth-``depth`` cylinders.
    ``density`` is the right eigenvector scaled so that
    ``sum(eigenmeasure * density) == 1``; ``invariant`` is their product,
    the stationary law of the Markov chain whose move from state ``w``
    prepends one admissible symbol.
    """

    operator: OperatorMatrix = field(repr=False)
    exponent: float
    eigenvalue: float
    eigenmeasure: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    invariant: np.ndarray = field(repr=False)
    residual: float
    density_residual: float
    iterations: int

    @property
    def log_eigenvalue(self) -> float:
        return math.log(self.eigenvalue)

    @property
    def lyapunov(self) -> float:
        """``-sum_j invariant[j] * state_log_mid[j]``: the Lyapunov exponent
        of the invariant measure, and minus the slope of ``log_eigenvalue``
        in the exponent."""
        return float(-(self.invariant * self.operator.state_log_mid).sum())

    @property
    def variation_bound(self) -> float:
        """Largest log-derivative bracket width times ``|exponent|``: the
        resolution of this finite-rank truncation."""
        return abs(self.exponent) * self.operator.log_width

    def shift_invariance_defect(self) -> float:
        """max over depth-(k-1) words of |head marginal - tail marginal|
        (0 at depth 1, where both marginals are the total mass)."""
        # every depth-(k-1) word is a head and a tail, so both have its length
        head = np.bincount(self.operator.head, weights=self.invariant)
        tail = np.bincount(self.operator.tail, weights=self.invariant)
        return float(np.abs(head - tail).max())


def eigenmeasure(
    operator: OperatorMatrix, exponent: float, tol: float = 1e-13, max_iters: int = 5000
) -> GibbsState:
    """Extract the positive eigenpair at ``exponent`` and the induced
    stationary chain.

    The geometric potential ``exponent * log|derivative|`` weights every
    transition out of state ``j`` by ``w[j] = exp(exponent *
    state_log_mid[j])``; a non-finite exponent raises ``ValueError``.  The
    left and the right vector each run through their own power iteration of
    the squared operator, whose path ``i <- j <- k`` weighs ``w[j] * w[k]``;
    ``max_iters`` and the reported ``iterations`` count single operator
    steps, two per pass.  The left vector is the eigenmeasure (total mass
    one) and the right one the density.  One single step then gives the
    eigenvalue and both residuals, ``max |Mv - eig v|``, which must come out
    below 1e-8 or a :class:`ConvergenceFailure` is raised.
    """
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent}")
    op, n = operator, len(operator)
    w = np.exp(exponent * op.state_log_mid)
    w1, w2 = w[op.cols], w[op.via2] * w[op.cols2]
    passes = max_iters // 2
    mu, it_mu = _power_iterate(
        lambda u: np.bincount(op.cols2, w2 * u[op.rows2], minlength=n), n, tol, passes
    )
    g, it_g = _power_iterate(
        lambda v: np.bincount(op.rows2, w2 * v[op.cols2], minlength=n), n, tol, passes
    )
    mu_step = np.bincount(op.cols, w1 * mu[op.rows], minlength=n)
    g_step = np.bincount(op.rows, w1 * g[op.cols], minlength=n)
    lam = float(mu_step.sum()) / float(mu.sum())
    lam_g = float(g_step.sum()) / float(g.sum())
    res_mu = float(np.abs(mu_step - lam * mu).max())
    res_g = float(np.abs(g_step - lam_g * g).max())
    worst = max(res_mu, res_g)
    if worst > 1e-8:
        raise ConvergenceFailure(
            f"eigenpair residual {worst:.3e} exceeds 1e-8 "
            f"(eigenvalues {lam:.12g} / {lam_g:.12g})"
        )

    # normalise the density against the eigenmeasure so the product is a
    # probability vector.
    scale = float(np.dot(mu, g))
    g = g / scale
    invariant = mu * g

    return GibbsState(
        operator=operator,
        exponent=exponent,
        eigenvalue=lam,
        eigenmeasure=mu,
        density=g,
        invariant=invariant,
        residual=res_mu,
        density_residual=res_g,
        iterations=2 * max(it_mu, it_g),
    )


@dataclass(frozen=True)
class EntropyLyapunov:
    """Entropy, Lyapunov exponent, and their ratio for one Gibbs state."""

    entropy: float
    lyapunov: float

    @property
    def ratio(self) -> float:
        return self.entropy / self.lyapunov


def entropy_lyapunov(state: GibbsState) -> EntropyLyapunov:
    """Markov-chain entropy rate and cylinder-bracket Lyapunov exponent.

    Entropy is ``-sum_w pi_w sum_v P[w, v] log P[w, v]`` over the stationary
    chain, ``P[w, v] = M[w, v] g[v] / (eigenvalue g[w])`` with ``M`` the
    weighted matrix and ``g`` the density, rows renormalised, summed over
    the non-zeros of ``M`` only; the Lyapunov exponent integrates the
    (negated) first-symbol log-derivative midpoints against the invariant
    masses.  A non-positive exponent means the system
    does not contract along typical orbits and the dimension ratio is
    undefined: :class:`DegenerateSystemError`.
    """
    op, g = state.operator, state.density
    rows, cols = op.rows, op.cols
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.exp(state.exponent * op.state_log_mid[cols])
        p = weight * g[cols] / (state.eigenvalue * g[rows])
        p /= np.bincount(rows, weights=p)[rows]
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = float(-(state.invariant[rows] * plogp).sum())
    lyapunov = state.lyapunov
    if lyapunov <= 1e-12:
        raise DegenerateSystemError(
            f"Lyapunov exponent {lyapunov:.3e} is not positive; "
            "the invariant measure sees no contraction"
        )
    return EntropyLyapunov(entropy=entropy, lyapunov=lyapunov)


def operator_bowen_solve(
    operator: OperatorMatrix,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> BowenSolution:
    """Exponent where the operator's leading eigenvalue crosses one.

    Finds the zero of ``t -> log eigenvalue(t)``, which is convex and, for
    uniformly contracting systems, strictly decreasing, on the given
    operator.  Each evaluation is one :func:`eigenmeasure`, whose invariant
    measure gives the slope ``-lyapunov``, so ``_find_root`` takes
    safeguarded Newton steps, about five evaluations at ``tol = 1e-10``.
    ``h`` is the evaluated exponent with the smallest ``|log eigenvalue|``,
    ``state`` its :class:`GibbsState` and ``residual`` its log-eigenvalue.
    ``bracket`` holds two evaluated exponents,
    ``log eigenvalue(lo) > 0 >= log eigenvalue(hi)``, at most ``tol`` apart,
    or on an exact hit the hit widened by its rounding (see ``_find_root``).
    """
    states: dict[float, GibbsState] = {}

    def logeig(t: float) -> tuple[float, float]:
        state = states[t] = eigenmeasure(operator, t)
        return state.log_eigenvalue, -state.lyapunov

    h, bracket, iterations = _find_root(
        logeig, tol=tol, max_iter=max_iter, label="operator eigenvalue"
    )
    return BowenSolution(
        h=h,
        bracket=bracket,
        residual=states[h].log_eigenvalue,
        regular=True,
        depth=operator.depth,
        iterations=iterations,
        method="operator",
        state=states[h],
    )
