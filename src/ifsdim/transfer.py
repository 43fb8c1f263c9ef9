"""Gibbs data at one exponent, read off the collocation of the transfer
operator (``pressure.Collocation``) and its ``Eigenpair``.

The equilibrium state of the potential -s log|s_e'| has Lyapunov exponent
chi = -d log lambda(s) / ds, the eigenpair's slope negated, and entropy
log lambda(s) + s chi, the variational identity for that state
(``gibbs_state``).  At the Bowen root h, where lambda(h) = 1, their ratio is
h itself.  ``SystemSpec`` admits only irreducible incidences, so the
positive eigenpair is unique; a periodic incidence needs no primitivity,
since the collocation's power iteration shifts by the identity on every
system.

The cylinder masses come from the same eigenpair (``cylinder_masses``).  The
left eigenvector l is a quadrature for the eigenmeasure nu and the right
one r holds the eigenfunction rho at the nodes, so a depth-n word w has

    nu[w] ~ sum_k l_k |s_w'(x_k)|^s,    mu[w] ~ sum_k l_k |s_w'(x_k)|^s rho(s_w(x_k)),

up to the factor lambda^-n that every depth-n word shares, the sum running
over the nodes of the grids that the last symbol of w feeds; mu = rho nu is
the invariant (shift-stationary) measure.  Both come from one prepend
recursion over the branch blocks B_e[k, l] = |s_e'(x_k)|^s
interpolation[k, e, l]: the row a_e = sum_{g fed by e} l_g B_e, then
a_(e w) = a_w B_e, with every row in the last step contracted against the
columns 1 and rho of its first symbol's grid instead.  Each step pairs
every new word e w with the row of its tail w, so the words come out in
the lexicographic order of the levels of ``systems.level_images`` and
``systems.level_log_derivatives`` and each mass lines up with its word's
image; the last symbol of e w is that of w.  Of the words the recursion
keeps each level's last symbols and the deepest level's tails, and hands
them with the masses to the one cylinder table, ``measures.CylinderMeasure``.
At the Bowen root its eigenmeasure masses are the package's one
h-conformal mass: ``gibbs`` reports the table and ``dimension`` samples it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import CylinderMeasure
from .pressure import Collocation, ConvergenceFailure, Eigenpair
from .symbolic import count_admissible
from .systems import SystemSpec

__all__ = [
    "DegenerateSystemError",
    "GibbsState",
    "cylinder_masses",
    "gibbs_state",
    "masses_entries",
]

RESIDUAL_LIMIT = 1e-8  # eigenpair residuals past this are not an eigenpair


class DegenerateSystemError(RuntimeError):
    """The invariant measure has a non-positive contraction rate."""


@dataclass(frozen=True)
class GibbsState:
    """Entropy and Lyapunov exponent of the equilibrium state of
    -s log|s_e'| at one exponent s."""

    entropy: float
    lyapunov: float

    @property
    def ratio(self) -> float:
        return self.entropy / self.lyapunov


def gibbs_state(pair: Eigenpair) -> GibbsState:
    """Entropy and Lyapunov exponent from one eigenpair: chi = -slope and
    entropy log lambda + s chi.  Residuals past RESIDUAL_LIMIT raise
    :class:`ConvergenceFailure`; chi <= 1e-12 means the system does not
    contract along typical orbits and the dimension ratio is undefined:
    :class:`DegenerateSystemError`."""
    worst = max(pair.residual, pair.density_residual)
    if worst > RESIDUAL_LIMIT:
        raise ConvergenceFailure(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_LIMIT} at s = {pair.s!r}"
        )
    lyapunov = -pair.slope
    if lyapunov <= 1e-12:
        raise DegenerateSystemError(
            f"Lyapunov exponent {lyapunov:.3e} is not positive; "
            "the invariant measure sees no contraction"
        )
    return GibbsState(entropy=math.log(pair.eigenvalue) + pair.s * lyapunov, lyapunov=lyapunov)


def masses_entries(incidence: np.ndarray, depth: int, grids: int, nodes: int) -> int:
    """The most entries one array of the masses recursion holds at
    ``depth``: a step's product of the depth-(j-1) rows with the blocks of
    all m branches, rows x m x nodes, in the last step (j = depth) with
    their two columns, rows x m x 2.  At depth 0 the rows are the
    ``grids``.  The digit matrix that ``words`` expands is not counted."""
    m = len(incidence)
    rows = [grids] + [count_admissible(incidence, j) for j in range(1, depth)]
    return max(rows[j - 1] * m * (2 if j == depth else nodes) for j in range(1, depth + 1))


def cylinder_masses(
    collocation: Collocation, pair: Eigenpair, system: SystemSpec, depth: int
) -> CylinderMeasure:
    """The eigenmeasure and invariant masses of the admissible depth-``depth``
    words at ``pair``'s exponent, by the prepend recursion of the module
    docstring: the words come out in lexicographic order, with one
    (words, nodes) @ (nodes, m nodes) product per depth, and the deepest
    rows are never formed.  Each step keeps its words' last symbols, those
    of their tails; only the deepest step keeps its tails.  A non-positive
    mass raises :class:`ConvergenceFailure`."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    nodes, grids = collocation.factors.shape[0], len(collocation.bounds) - 1
    branch = np.argsort(collocation.order)  # each symbol's branch
    grid = np.searchsorted(collocation.bounds, branch, side="right") - 1  # each symbol's grid
    weight = np.exp(pair.s * collocation.factors[:, 1, 0, branch])  # |s_e'(x_k)|^s: [k, e]
    blocks = collocation.interpolation[:, branch] * weight[:, :, None]  # B_e[k, l]: [k, e, l]
    rho = pair.right.reshape(grids, nodes)[grid]
    ends = np.stack((blocks.sum(axis=2), np.einsum("kel,el->ke", blocks, rho)), axis=2)
    m = branch.size
    rows, last = pair.left.reshape(grids, nodes), []  # depth 0: one row per grid
    for level in range(1, depth + 1):
        columns = ends if level == depth else blocks
        rows = (rows @ columns.reshape(nodes, -1)).reshape(len(rows), m, -1)  # the step's product
        if level == 1:  # branch e sums the grids it feeds
            rows = np.einsum("ge,gec->ec", collocation.feeds[:, branch], rows)
            first, tail = np.arange(m), np.zeros(m, dtype=np.intp)
            last.append(first)
        else:  # e goes before the words whose first symbol may follow it
            first, tail = np.nonzero(system.incidence[:, first])
            rows = rows[tail, first]
            last.append(last[-1][tail])
    # nonzero's two index rows are views of one array: the tails' copy frees the first symbols
    tail = tail.copy()
    del first
    total = rows.sum(axis=0)
    eigenmeasure, invariant = rows[:, 0] / total[0], rows[:, 1] / total[1]
    del rows  # before the measure sums the shallower levels
    if not ((eigenmeasure > 0.0).all() and (invariant > 0.0).all()):
        raise ConvergenceFailure(f"a cylinder mass at s = {pair.s!r} is not positive")
    return CylinderMeasure(system, last, tail, eigenmeasure, invariant)
