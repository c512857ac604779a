"""Dependent portfolios: shock tree, gamma-mixed counts, frailty-coupled indicators.

The shock tree and the gamma-mixed pair are sums of independent pieces (15
Poisson shocks; three negative binomials).  Their tables are the tables of
those pieces from the independent engines, regrouped onto the risks by a fixed
loading matrix (``allocation.regroup``), so they inherit the engines'
accuracy, blocking and truncation reports: the shock tree's pieces form a
Poisson pool, whose f_S is a Panjer recursion and whose rows are a certified
banded product of non-negative terms.  The frailty pool is a
mixture over the mixing level rather than a sum, so it supplies its own
allocation spectra on the roots of unity and inverts them itself.  Like the
independent engines, every table here carries the default validity mask;
``allocation.mask_validity`` re-derives it at another tolerance or floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import gf
from .allocation import (
    AllocationTable,
    allocate_compound_poisson_pool,
    allocate_independent,
    assemble_table,
    regroup,
)
from .errors import (
    InvalidFrailty,
    InvalidMarginal,
    InvalidMixture,
    UnknownNode,
)
from .models import compound_poisson_risk, negative_binomial_risk, negbin_pmf
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
            if value < 0.0:
                raise UnknownNode(f"negative rate {value} at node {node!r}")
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
        if not (self.r1 > 0.0 and self.r2 > 0.0):
            raise InvalidMixture(f"need positive shape parameters, got {self.r1}, {self.r2}")
        if not (self.lambda1 > 0.0 and self.lambda2 > 0.0):
            raise InvalidMixture("need positive rates")
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

    Risk i's count is its own piece plus the share zeta_i / zeta12 of the
    shared piece; pieces of shape 0 are left out.
    """
    pieces = spec.nb_components()
    keep = [j for j, (rho, _) in enumerate(pieces) if rho > 0.0]
    table = allocate_independent([negative_binomial_risk(*pieces[j]) for j in keep], kmax)
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
            out = np.convolve(out, negbin_pmf(rho, q, kmax))[:kmax]
    return out


# ---------------------------------------------------------------------------
# Indicator payments coupled by a shared discrete frailty
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrailtyBernoulliSpec:
    """All-or-nothing payments b_i whose indicators share a mixing level Theta.

    Conditionally on Theta = theta the claims are independent with probability
    r_i ** theta, where r_i is calibrated so the unconditional claim probability
    is q_i.  Theta is shifted-geometric with parameter ``alpha`` in [0, 1); its
    support is cut at the smallest theta* holding all but ``epsilon`` of the
    mixing mass, and the residual is reported rather than renormalized.
    """

    b: tuple
    q: tuple
    alpha: float
    epsilon: float = 1e-10

    def __post_init__(self):
        b = tuple(int(v) for v in self.b)
        q = tuple(float(v) for v in self.q)
        if len(b) != len(q) or not b:
            raise InvalidMarginal("need matching, non-empty payment and probability lists")
        if any(v < 1 for v in b):
            raise InvalidMarginal("payments must be positive integers")
        if any(not 0.0 < v < 1.0 for v in q):
            raise InvalidMarginal(f"claim probabilities must lie in (0,1), got {q}")
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidFrailty(f"mixing parameter must lie in [0,1), got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidFrailty(f"tail cutoff must lie in (0,1), got {self.epsilon}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)

    @property
    def n_risks(self) -> int:
        return len(self.b)

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

    def claim_calibrations(self) -> np.ndarray:
        """r_i solving E[r_i**Theta] = q_i for the shifted-geometric mixer."""
        q = np.asarray(self.q)
        return q / (1.0 - self.alpha + self.alpha * q)

    def conditional_claim_probs(self) -> np.ndarray:
        """r_i**theta, shape (theta_star, n)."""
        r = self.claim_calibrations()
        theta = np.arange(1, self.theta_star + 1, dtype=float)
        return r[None, :] ** theta[:, None]

    def min_kmax(self) -> int:
        """Exact support needs 1 + sum(b) points before rounding up to a power of two."""
        return 1 + sum(self.b)


def frailty_bernoulli_pgfs(
    spec: FrailtyBernoulliSpec, kmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """pgf buffer of the total and the allocation spectra of every risk (one row each).

    Each mixing level contributes a product of indicator pgfs; per-risk spectra
    replace the own factor with b_i r_i**theta t**b_i.  Products over the other
    risks come from ``gf.leave_one_out`` (no division, which would be unstable
    at near-zeros of an indicator pgf on the circle).
    """
    if kmax < spec.min_kmax():
        raise InvalidMarginal(
            f"kmax={kmax} below the exact-support requirement {spec.min_kmax()}"
        )
    z = gf.roots_of_unity(kmax)
    zpow = np.array([z ** int(bi) for bi in spec.b])
    b = np.asarray(spec.b, dtype=float)
    r_pows = spec.conditional_claim_probs()

    fs_hat = np.zeros(kmax, dtype=complex)
    alloc_hats = np.zeros((spec.n_risks, kmax), dtype=complex)
    for w, r in zip(spec.theta_pmf(), r_pows):
        total, others = gf.leave_one_out(1.0 - r[:, None] + r[:, None] * zpow)
        fs_hat += w * total
        alloc_hats += (w * b * r)[:, None] * zpow * others
    return fs_hat, alloc_hats


def frailty_allocation(spec: FrailtyBernoulliSpec, kmax: int) -> AllocationTable:
    """Allocation table for the frailty-coupled pool."""
    fs_hat, alloc_hats = frailty_bernoulli_pgfs(spec, kmax)
    fs_raw = gf.idft(fs_hat)
    mu = gf.idft(alloc_hats)
    means = np.asarray(spec.b, dtype=float) * np.asarray(spec.q, dtype=float)
    note = f"mixing levels truncated at {spec.theta_star}; residual mass {spec.residual_mass:.3e}"
    truncation = TruncationReport(kmax=kmax, lost_mass=spec.residual_mass, notes=(note,))
    return assemble_table(fs_raw, mu, means, truncation=truncation, support_bound=sum(spec.b))
