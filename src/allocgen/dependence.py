"""Dependent portfolios: shock tree, gamma-mixed counts, frailty-coupled indicators.

The shock tree and the gamma-mixed pair are sums of independent pieces (15
Poisson shocks; three NB counts), each a c row of a Poisson pool
(``models.canonical_row``), whose f_S is the log-derivative recursion on
their sum C and whose rows are a certified banded product of
non-negative terms; its table is regrouped onto the risks by a fixed
loading matrix (``allocation.regroup``), so they inherit its accuracy, its
factored storage and its truncation reports.  The frailty pool is a mixture
over the mixing level of independent portfolios of its own
``BernoulliRisk``s (its spec is the mixing law alone), summed and inverted
once by ``allocation.mixture_rows``.  Like the independent engines, every table here
carries the default validity mask; ``allocation.mask_validity`` re-derives it
at another tolerance or floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import gf
from .allocation import (
    AllocationTable,
    allocate_compound_poisson_pool,
    assemble_table,
    mixture_rows,
    regroup,
)
from .errors import (
    InvalidFrailty,
    InvalidMarginal,
    InvalidMixture,
    UnknownNode,
)
from .models import bernoulli_margins, compound_poisson_risk, negative_binomial_risk
from .pmf import TruncationReport

# ---------------------------------------------------------------------------
# Poisson shocks on a three-level binary tree
# ---------------------------------------------------------------------------

SHOCK_ROOT = "0"
SHOCK_BRANCHES = ("1", "2")
SHOCK_SUBBRANCHES = ("11", "12", "21", "22")
SHOCK_LEAVES = ("111", "112", "121", "122", "211", "212", "221", "222")
SHOCK_NODES = (SHOCK_ROOT,) + SHOCK_BRANCHES + SHOCK_SUBBRANCHES + SHOCK_LEAVES

# every leaf feels its own shock once, the shared ones across 2/4/8 leaves
_DEPTH_WEIGHT = {3: 1, 2: 2, 1: 4, 0: 8}


def _node_weight(node: str) -> int:
    return _DEPTH_WEIGHT[0 if node == SHOCK_ROOT else len(node)]


@dataclass(frozen=True)
class HierarchicalShockSpec:
    """Rates for the 15 independent shocks; a leaf loss is the sum down its path."""

    lambda_by_node: Mapping[str, float]

    def __post_init__(self):
        lam = dict(self.lambda_by_node)
        for node in lam:
            if node not in SHOCK_NODES:
                raise UnknownNode(f"unknown shock node {node!r}")
        for node, value in lam.items():
            if not 0.0 <= value < math.inf:
                raise UnknownNode(f"rate {value} at node {node!r} is not finite and >= 0")
        full = {node: float(lam.get(node, 0.0)) for node in SHOCK_NODES}
        object.__setattr__(self, "lambda_by_node", full)

    def path(self, leaf: str) -> tuple[tuple[float, int], ...]:
        """(rate, lattice weight) felt by a leaf: itself, sub-branch, branch, root."""
        if leaf not in SHOCK_LEAVES:
            raise UnknownNode(f"{leaf!r} is not a leaf of the shock tree")
        lam = self.lambda_by_node
        return (
            (lam[leaf], 1),
            (lam[leaf[:2]], 2),
            (lam[leaf[:1]], 4),
            (lam[SHOCK_ROOT], 8),
        )

    def leaf_mean(self, leaf: str) -> float:
        return sum(rate for rate, _ in self.path(leaf))


def shock_allocation_table(spec: HierarchicalShockSpec, kmax: int) -> AllocationTable:
    """Full table over the eight leaves (ordered as SHOCK_LEAVES).

    The total is a Poisson pool of the 15 shocks, node n adding a unit mass at
    its weight w_n, so the pool's row n has generating function
    w_n lam_n t^w_n P_S(t).  A leaf takes 1/w_n of the row of every node on
    its path, which leaves it lam_n t^w_n P_S(t) from each.
    """
    shocks = [
        compound_poisson_risk(spec.lambda_by_node[node], np.eye(_node_weight(node) + 1)[-1])
        for node in SHOCK_NODES
    ]
    table = allocate_compound_poisson_pool(shocks, kmax)
    loading = np.array([
        [1.0 / _node_weight(node) if node == SHOCK_ROOT or leaf.startswith(node) else 0.0
         for node in SHOCK_NODES]
        for leaf in SHOCK_LEAVES
    ])
    return regroup(table, loading, [spec.leaf_mean(leaf) for leaf in SHOCK_LEAVES])


# ---------------------------------------------------------------------------
# Two mixed-Poisson risks with a shared gamma component
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaMixtureSpec:
    """Conditionally Poisson pair whose gamma mixers share a common piece.

    The total decomposes into three independent negative binomials with
    dampenings zeta1 = lambda1/r1, zeta2 = lambda2/r2 and zeta12 = zeta1+zeta2;
    ``gamma0`` is the shared-weight parameter, 0 <= gamma0 <= min(r1, r2).
    """

    gamma0: float
    r1: float
    r2: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (0.0 < self.r1 < math.inf and 0.0 < self.r2 < math.inf):
            raise InvalidMixture(f"r1 and r2 must be finite and positive, got {self.r1}, {self.r2}")
        if not (0.0 < self.lambda1 < math.inf and 0.0 < self.lambda2 < math.inf):
            raise InvalidMixture(
                f"lambda1 and lambda2 must be finite and positive, got {self.lambda1}, {self.lambda2}"
            )
        if not 0.0 <= self.gamma0 <= min(self.r1, self.r2):
            raise InvalidMixture(
                f"gamma0={self.gamma0} outside [0, min(r1, r2)={min(self.r1, self.r2)}]"
            )

    @property
    def zeta1(self) -> float:
        return self.lambda1 / self.r1

    @property
    def zeta2(self) -> float:
        return self.lambda2 / self.r2

    @property
    def zeta12(self) -> float:
        return self.zeta1 + self.zeta2

    def nb_components(self) -> tuple[tuple[float, float], ...]:
        """(shape, success probability) of the three independent NB pieces of S."""
        return (
            (self.r1 - self.gamma0, 1.0 / (1.0 + self.zeta1)),
            (self.r2 - self.gamma0, 1.0 / (1.0 + self.zeta2)),
            (self.gamma0, 1.0 / (1.0 + self.zeta12)),
        )


def gamma_mixture_allocation(spec: GammaMixtureSpec, kmax: int) -> AllocationTable:
    """Allocation table for the pair from the three independent NB pieces of S.

    The pieces are NB counts, so they form a Poisson pool of c rows
    (``allocate_compound_poisson_pool``), as the shock tree's do.
    Risk i's count is its own piece plus the share zeta_i / zeta12 of the
    shared piece; pieces of shape 0 are left out.
    """
    components = spec.nb_components()
    keep = [i for i, (rho, _) in enumerate(components) if rho > 0.0]
    table = allocate_compound_poisson_pool([negative_binomial_risk(*components[i]) for i in keep], kmax)
    loading = np.array([
        [1.0, 0.0, spec.zeta1 / spec.zeta12],
        [0.0, 1.0, spec.zeta2 / spec.zeta12],
    ])[:, keep]
    return regroup(table, loading, [spec.lambda1, spec.lambda2])


def gamma_mixture_allocation_convolution(
    spec: GammaMixtureSpec, fs: np.ndarray, risk: int
) -> np.ndarray:
    """Transform-free route: geometric-weight convolution against the pmf of S.

    Retained as the cross-check of :func:`gamma_mixture_allocation`.
    """
    lam, r, zeta = (
        (spec.lambda1, spec.r1, spec.zeta1),
        (spec.lambda2, spec.r2, spec.zeta2),
    )[risk]
    n = len(fs)
    j = np.arange(n, dtype=float)
    w_shared = spec.gamma0 / r
    weights = lam * (
        (1.0 - w_shared) * (1.0 / (1.0 + zeta)) * (zeta / (1.0 + zeta)) ** j
        + w_shared * (1.0 / (1.0 + spec.zeta12)) * (spec.zeta12 / (1.0 + spec.zeta12)) ** j
    )
    out = np.zeros(n)
    out[1:] = np.convolve(weights, fs)[: n - 1]
    return out


def gamma_mixture_fs_direct(spec: GammaMixtureSpec, kmax: int) -> np.ndarray:
    """pmf of the total by direct convolution of the three NB pieces (oracle)."""
    out = np.zeros(kmax)
    out[0] = 1.0
    for rho, q in spec.nb_components():
        if rho > 0.0:
            out = np.convolve(out, negative_binomial_risk(rho, q).pmf_vector(kmax))[:kmax]
    return out


# ---------------------------------------------------------------------------
# Indicator payments coupled by a shared discrete frailty
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrailtyBernoulliSpec:
    """The mixing level Theta shared by the indicators of ``BernoulliRisk``s (b_i, q_i).

    Conditionally on Theta = theta the claims are independent with probability
    r_i ** theta, where r_i is calibrated so the unconditional claim probability
    is q_i.  Theta is shifted-geometric with parameter ``alpha`` in [0, 1); its
    support is cut at the smallest theta* holding all but ``epsilon`` of the
    mixing mass, and the residual is reported rather than renormalized.
    """

    alpha: float
    epsilon: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidFrailty(f"alpha (the mixing parameter) must lie in [0,1), got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidFrailty(f"epsilon (the tail cutoff) must lie in (0,1), got {self.epsilon}")

    @property
    def theta_star(self) -> int:
        if self.alpha == 0.0:
            return 1
        return max(2, math.floor(math.log(self.epsilon) / math.log(self.alpha)) + 1)

    def theta_pmf(self) -> np.ndarray:
        """Mixing masses for theta = 1..theta*; the residual tail is not folded in."""
        theta = np.arange(1, self.theta_star + 1)
        return (1.0 - self.alpha) * self.alpha ** (theta - 1.0)

    @property
    def residual_mass(self) -> float:
        return self.alpha**self.theta_star

    def claim_calibrations(self, q: np.ndarray) -> np.ndarray:
        """r_i solving E[r_i**Theta] = q_i for the shifted-geometric mixer."""
        q = np.asarray(q, dtype=float)
        return q / (1.0 - self.alpha + self.alpha * q)

    def conditional_claim_probs(self, q: np.ndarray) -> np.ndarray:
        """r_i**theta, shape (theta_star, n)."""
        r = self.claim_calibrations(q)
        theta = np.arange(1, self.theta_star + 1, dtype=float)
        return r[None, :] ** theta[:, None]


def frailty_allocation(spec: FrailtyBernoulliSpec, risks: Iterable, kmax: int) -> AllocationTable:
    """Allocation table for Bernoulli ``risks`` coupled by ``spec``: theta* levels of ``mixture_rows``.

    At level theta, of weight w, risk i claims with probability r = r_i**theta:
    its pgf is 1 - r + r z^b_i and its weighted allocation spectrum w b_i r z^b_i,
    where z^b, the transform of a unit mass at b, is formed once for each
    distinct payment.
    """
    b, q = bernoulli_margins(risks)
    top = int(b.sum())
    if kmax < 1 + top:
        raise InvalidMarginal(f"kmax={kmax} below the exact-support requirement {1 + top}")
    payments, at = np.unique(b, return_inverse=True)
    zpow = np.zeros((len(payments), kmax), dtype=complex)  # one row of z^b per distinct payment
    zpow[np.arange(len(payments)), payments] = 1.0
    gf.dft(zpow, out=zpow)
    weights, r_pows = spec.theta_pmf(), spec.conditional_claim_probs(q)

    def pgfs(level):
        # in place, so a level's pgfs are the one n x kmax array that mixture_rows' estimate allows them
        r = r_pows[level][:, None]
        out = zpow[at]
        out *= r
        out += 1.0 - r
        return out

    def spectra(level, rows):
        out = zpow[at[rows]]
        out *= (weights[level] * b * r_pows[level])[rows, None]
        return out

    fs, mu = mixture_rows(weights, pgfs, spectra, len(b), kmax)
    note = f"mixing levels truncated at {spec.theta_star}; residual mass {spec.residual_mass:.3e}"
    truncation = TruncationReport(kmax=kmax, lost_mass=spec.residual_mass, notes=(note,))
    return assemble_table(fs, mu, b * q, truncation=truncation, support_bound=top)
