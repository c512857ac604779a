"""Canonical study cases with pinned reference values and structural checks.

Each case builds its portfolio, runs the pipeline, and reports named checks.
Checks marked ``reference`` compare against pinned numbers; ``cross`` checks
compare two independent computation routes; ``structural`` checks assert
qualitative behaviour (masks, monotonicity, band coverage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import (
    PortfolioModel,
    allocate_independent,
    oracle_enumerate,
    allocate_compound_poisson_pool,
)
from .dependence import (
    SHOCK_LEAVES,
    FrailtyBernoulliSpec,
    GammaMixtureSpec,
    HierarchicalShockSpec,
    frailty_allocation,
    gamma_mixture_allocation,
    gamma_mixture_allocation_convolution,
    gamma_mixture_fs_direct,
    shock_allocation_table,
)
from .errors import UnknownCase
from .models import (
    BernoulliRisk,
    ExplicitRisk,
    compound_poisson_risk,
    negative_binomial_risk,
    poisson_risk,
)
from .pmf import arithmetize, next_pow2
from .scenario import (
    compound_poisson_negbin_risk,
    conditional_mean_distribution,
    count_cdf_crossings,
    sample_risks,
)
from .tails import pareto_cdf, pareto_lev

# four-participant pool: rates and severity masses on {1,2,3,4}
SMALL_POOL_LAMBDAS = (0.08, 0.08, 0.1, 0.1)
SMALL_POOL_SEVERITIES = (
    (0.0, 0.1, 0.2, 0.4, 0.3),
    (0.0, 0.15, 0.25, 0.3, 0.3),
    (0.0, 0.1, 0.2, 0.3, 0.4),
    (0.0, 0.15, 0.25, 0.3, 0.3),
)

# heterogeneous all-or-nothing pool
BERNOULLI_POOL_B = (1, 3, 10, 4, 5, 10)
BERNOULLI_POOL_Q = (0.8, 0.2, 0.3, 0.05, 0.15, 0.25)

# first eight contracts of the large-pool study: lambda, q, r, mean
LARGE_POOL_FIRST8 = (
    (0.161152, 0.489756, 2, 0.335788),
    (0.031859, 0.423367, 6, 0.260354),
    (0.027368, 0.455898, 1, 0.032662),
    (0.238748, 0.451500, 4, 1.160162),
    (0.115137, 0.486834, 6, 0.728190),
    (0.470203, 0.440405, 5, 2.987289),
    (0.146247, 0.440082, 3, 0.558214),
    (0.011747, 0.481335, 1, 0.012658),
)

# heavy-tail triplet: (alpha, lam, arithmetized mean on a 2^15 grid)
HEAVY_TAIL_RISKS = (
    (1.3, 3.0, 9.201219),
    (1.6, 6.0, 9.908447),
    (1.9, 9.0, 9.988156),
)

CASES = (
    "small_pool",
    "large_pool",
    "heavy_tail",
    "bernoulli_pool",
    "shock",
    "gamma_mixture",
    "frailty",
)


@dataclass
class Check:
    name: str
    kind: str  # reference | cross | structural
    passed: bool
    detail: str


@dataclass
class ReproductionReport:
    case: str
    checks: list = field(default_factory=list)

    def add(self, name: str, kind: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name, kind, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        out = [f"case: {self.case}"]
        for c in self.checks:
            out.append(f"[{'PASS' if c.passed else 'FAIL'}] ({c.kind}) {c.name}: {c.detail}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out


def small_pool_risks():
    return [
        compound_poisson_risk(lam, sev)
        for lam, sev in zip(SMALL_POOL_LAMBDAS, SMALL_POOL_SEVERITIES)
    ]


def bernoulli_pool_risks():
    return [BernoulliRisk(b, q) for b, q in zip(BERNOULLI_POOL_B, BERNOULLI_POOL_Q)]


def _identity_check(report, table, bound=1e-10, name="full_allocation_identity"):
    worst = table.identity_deviation()
    report.add(
        name,
        "structural",
        table.valid_mask.any() and worst <= bound,
        f"max relative deviation on valid points {worst:.3e} (bound {bound:g})",
    )
    return worst


def _reproduce_small_pool() -> ReproductionReport:
    rep = ReproductionReport("small_pool")
    table = allocate_compound_poisson_pool(small_pool_risks(), 64)
    _identity_check(rep, table)

    total = table.validation_curve
    for k in (43, 63):
        rep.add(
            f"underflow_flag_k{k}",
            "structural",
            not table.valid_mask[k] and abs(table.fs.masses[k]) < table.underflow_floor,
            f"f_S({k})={table.fs.masses[k]:.3e} below floor, masked invalid",
        )

    vidx = np.flatnonzero(table.valid_mask)
    prefix = 0
    while prefix < len(table.valid_mask) and table.valid_mask[prefix]:
        prefix += 1
    rep.add(
        "validation_curve_prefix",
        "structural",
        vidx.size > 0 and vidx[0] == 0 and prefix >= 15,
        f"curve matches k within {table.tolerance_used:g} for k=0..{prefix - 1}",
    )
    dev38 = abs(total[38] - 38.0)
    rep.add(
        "valid_curve_at_38",
        "structural",
        bool(table.valid_mask[38]) and dev38 <= table.tolerance_used,
        f"k=38 valid: {bool(table.valid_mask[38])}; total conditional mean at 38 is "
        f"{total[38]:.15g}, |curve - 38| = {dev38:.3e} (tolerance {table.tolerance_used:g})",
    )
    return rep


def _reproduce_large_pool(n_sampled: int = 10_000, seed: int = 20260810) -> ReproductionReport:
    rep = ReproductionReport("large_pool")
    # pinned parameter rows: mean identity lam * r * (1-q)/q
    worst = 0.0
    for lam, q, r, mean in LARGE_POOL_FIRST8:
        worst = max(worst, abs(lam * r * (1.0 - q) / q - mean))
    rep.add(
        "first8_mean_identity",
        "reference",
        worst <= 5e-6,
        f"max |lam r (1-q)/q - pinned mean| = {worst:.2e} (bound 5e-6, printed to 6dp)",
    )

    kmax = 2**13
    first8 = [compound_poisson_negbin_risk(lam, r, q, kmax) for lam, q, r, _ in LARGE_POOL_FIRST8]
    table8 = allocate_compound_poisson_pool(first8, kmax)
    total_alloc_1 = float(table8.rows(0).sum())
    rep.add(
        "first_contract_total_allocation",
        "reference",
        abs(total_alloc_1 - LARGE_POOL_FIRST8[0][3]) <= 1e-5,
        f"sum_k of allocations = {total_alloc_1:.6f} vs pinned mean {LARGE_POOL_FIRST8[0][3]}",
    )

    risks = sample_risks({"kind": "compound_poisson_negbin", "count": n_sampled}, seed, kmax)
    table = allocate_compound_poisson_pool(risks, kmax)
    _identity_check(rep, table)
    # f_S is the merged pool's Panjer recursion and every row a sum of
    # non-negative terms, so the band is valid wherever the mass is above the
    # underflow floor; the structural claim is a wide contiguous valid band
    # around the mean
    band = np.flatnonzero(table.fs.masses >= 1e-5)
    band_valid = bool(band.size) and bool(table.valid_mask[band].all())
    vidx = np.flatnonzero(table.valid_mask)
    rep.add(
        "validation_curve_on_mass_band",
        "structural",
        band_valid and band.size >= 500,
        f"band with mass >= 1e-5 is [{band[0] if band.size else '-'}, "
        f"{band[-1] if band.size else '-'}] ({band.size} points), all valid: {band_valid}; "
        f"full valid range [{vidx[0] if vidx.size else '-'}, {vidx[-1] if vidx.size else '-'}]",
    )
    return rep


def _reproduce_heavy_tail(seed: int = 20260810, n_extra: int = 97) -> ReproductionReport:
    rep = ReproductionReport("heavy_tail")
    xmax, kmax = 2**15, 2**17
    risks = []
    worst = 0.0
    for alpha, lam, ref_mean in HEAVY_TAIL_RISKS:
        pmf, _ = arithmetize(pareto_cdf(alpha, lam), pareto_lev(alpha, lam), xmax)
        worst = max(worst, abs(pmf.mean() - ref_mean))
        risks.append(pmf)
    rep.add(
        "arithmetized_means",
        "reference",
        worst <= 5e-3,
        f"max |grid mean - pinned| = {worst:.2e} (bound 5e-3, truncation dependent)",
    )

    table = allocate_independent([ExplicitRisk(p) for p in risks], kmax)
    _identity_check(rep, table)

    dists = [conditional_mean_distribution(table, i) for i in range(3)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    counts = {p: count_cdf_crossings(dists[p[0]], dists[p[1]]) for p in pairs}
    rep.add(
        "single_crossing_of_conditional_mean_cdfs",
        "structural",
        all(c == 1 for c in counts.values()),
        f"pairwise crossing counts {sorted(counts.values())} (want all 1)",
    )

    # seeded wider pool: identity suite only
    extra = sample_risks({"kind": "pareto_extras", "count": n_extra, "xmax": xmax}, seed, kmax)
    table100 = allocate_independent([ExplicitRisk(p) for p in risks] + extra, kmax)
    worst100 = _identity_check(rep, table100, name="full_allocation_identity_n100")
    rep.add(
        "n100_band_nonempty",
        "structural",
        bool(table100.valid_mask.sum() >= 100),
        f"{int(table100.valid_mask.sum())} valid points, worst identity dev {worst100:.2e}",
    )
    return rep


def _reproduce_bernoulli_pool() -> ReproductionReport:
    rep = ReproductionReport("bernoulli_pool")
    risks = bernoulli_pool_risks()
    kmax = next_pow2(1 + sum(BERNOULLI_POOL_B))
    table = allocate_independent(risks, kmax)
    oracle = oracle_enumerate(PortfolioModel(risks=risks), kmax)
    gap = float(np.max(np.abs(table.expected_allocation - oracle.expected_allocation)))
    rep.add(
        "transform_vs_enumeration",
        "cross",
        gap <= 1e-10,
        f"max |mu difference| = {gap:.2e} over all risks and lattice points (bound 1e-10)",
    )
    _identity_check(rep, table)

    # outcome counts per total; singleton totals deny any diversification
    outcome_sums = _bernoulli_outcome_counts(BERNOULLI_POOL_B)
    singles = [k for k, c in enumerate(outcome_sums) if c == 1]
    ok = True
    for k in singles:
        for v, b in zip(oracle.conditional_mean_at(k), BERNOULLI_POOL_B):
            ok = ok and (abs(v) <= 1e-12 or abs(v - b) <= 1e-12)
    rep.add(
        "singleton_totals_pay_all_or_nothing",
        "structural",
        bool(singles) and ok,
        f"{len(singles)} totals with a unique outcome; conditional means all in {{0, b_i}}",
    )

    impossible = [k for k in range(int(sum(BERNOULLI_POOL_B)) + 1) if outcome_sums[k] == 0]
    flagged = all(not table.valid_mask[k] for k in impossible)
    rep.add(
        "impossible_totals_masked",
        "structural",
        flagged and 2 in impossible and 31 in impossible,
        f"impossible totals {impossible} all masked invalid",
    )
    return rep


def _bernoulli_outcome_counts(bs):
    import itertools

    counts = np.zeros(int(sum(bs)) + 1, dtype=int)
    for combo in itertools.product((0, 1), repeat=len(bs)):
        counts[int(np.dot(combo, bs))] += 1
    return counts


SHOCK_CASE_LAMBDAS = {
    "0": 0.01,
    "1": 0.02, "2": 0.025,
    "11": 0.03, "12": 0.02, "21": 0.025, "22": 0.035,
    "111": 0.05, "112": 0.06, "121": 0.04, "122": 0.07,
    "211": 0.05, "212": 0.08, "221": 0.06, "222": 0.045,
}


def _reproduce_shock() -> ReproductionReport:
    rep = ReproductionReport("shock")
    spec = HierarchicalShockSpec(SHOCK_CASE_LAMBDAS)
    kmax = 256
    table = shock_allocation_table(spec, kmax)
    _identity_check(rep, table)

    # shifted-sum route: lam_leaf f_S(m-1) + lam_ij f_S(m-2) + lam_i f_S(m-4) + lam_0 f_S(m-8)
    fs = table.fs.masses
    worst = 0.0
    for i, leaf in enumerate(SHOCK_LEAVES):
        direct = np.zeros(kmax)
        for rate, w in spec.path(leaf):
            direct[w:] += rate * fs[:-w]
        worst = max(worst, float(np.max(np.abs(direct - table.rows(i)))))
    rep.add(
        "spectrum_vs_shifted_sums",
        "cross",
        worst <= 1e-12,
        f"max |difference| = {worst:.2e} across the eight leaves (bound 1e-12)",
    )

    leaves_only = {leaf: SHOCK_CASE_LAMBDAS[leaf] for leaf in SHOCK_LEAVES}
    spec0 = HierarchicalShockSpec(leaves_only)
    table0 = shock_allocation_table(spec0, kmax)
    indep = allocate_independent([poisson_risk(leaves_only[l]) for l in SHOCK_LEAVES], kmax)
    gap = float(np.max(np.abs(table0.expected_allocation - indep.expected_allocation)))
    rep.add(
        "leaf_only_degeneration",
        "cross",
        gap <= 1e-11,
        f"zeroing shared shocks reproduces the independent pipeline, max gap {gap:.2e}",
    )
    return rep


GAMMA_CASE = dict(gamma0=1.0, r1=2.0, r2=2.0, lambda1=1.0, lambda2=1.0)


def _reproduce_gamma_mixture() -> ReproductionReport:
    rep = ReproductionReport("gamma_mixture")
    spec = GammaMixtureSpec(**GAMMA_CASE)
    kmax = 2**10
    table = gamma_mixture_allocation(spec, kmax)
    _identity_check(rep, table)

    worst = 0.0
    for i in range(2):
        conv = gamma_mixture_allocation_convolution(spec, table.fs.masses, i)
        worst = max(worst, float(np.max(np.abs(conv - table.rows(i)))))
    rep.add(
        "transform_vs_geometric_convolution",
        "cross",
        worst <= 1e-11,
        f"max |mu difference| = {worst:.2e} (bound 1e-11)",
    )

    direct = gamma_mixture_fs_direct(spec, kmax)
    gap = float(np.max(np.abs(direct - table.fs.masses)))
    rep.add(
        "three_factor_pmf",
        "cross",
        gap <= 1e-11,
        f"Panjer pmf vs direct triple convolution, max gap {gap:.2e}",
    )

    total1 = float(table.rows(0).sum())
    rep.add(
        "total_allocation_equals_rate",
        "structural",
        abs(total1 - spec.lambda1) <= 1e-9,
        f"sum_k allocations of risk 1 = {total1:.12f} vs rate {spec.lambda1}",
    )

    spec0 = GammaMixtureSpec(gamma0=0.0, r1=2.0, r2=2.0, lambda1=1.0, lambda2=1.0)
    table0 = gamma_mixture_allocation(spec0, kmax)
    indep = allocate_independent(
        [
            negative_binomial_risk(2.0, 1.0 / (1.0 + 0.5)),
            negative_binomial_risk(2.0, 1.0 / (1.0 + 0.5)),
        ],
        kmax,
    )
    gap0 = float(np.max(np.abs(table0.expected_allocation - indep.expected_allocation)))
    rep.add(
        "no_shared_component_degeneration",
        "cross",
        gap0 <= 1e-11,
        f"gamma0=0 reproduces independent margins, max gap {gap0:.2e}",
    )
    return rep


def _reproduce_frailty(seed: int = 20260810) -> ReproductionReport:
    rep = ReproductionReport("frailty")
    spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.5, epsilon=1e-10)
    rep.add(
        "mixing_truncation_level",
        "reference",
        spec.theta_star == 34,
        f"theta_star = {spec.theta_star} at alpha=0.5, epsilon=1e-10 (pinned 34)",
    )
    kmax = next_pow2(spec.min_kmax())
    table = frailty_allocation(spec, kmax)
    _identity_check(rep, table)

    recon = spec.theta_pmf() @ spec.conditional_claim_probs()
    worst = float(np.max(np.abs(recon - np.asarray(BERNOULLI_POOL_Q))))
    rep.add(
        "marginal_reconstruction",
        "structural",
        worst <= 1e-9,
        f"max |sum_theta f(theta) r_i^theta - q_i| = {worst:.2e} (bound 1e-9)",
    )

    tiny = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=1e-12, epsilon=1e-10)
    indep = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.0, epsilon=1e-10)
    gap = float(
        np.max(
            np.abs(
                frailty_allocation(tiny, kmax).expected_allocation
                - frailty_allocation(indep, kmax).expected_allocation
            )
        )
    )
    rep.add(
        "vanishing_mixing_matches_independent",
        "cross",
        gap <= 1e-9,
        f"alpha=1e-12 vs alpha=0 tables differ by {gap:.2e} (bound 1e-9)",
    )

    # mass of risk 3's conditional mean at 0 and at full payment grows with coupling
    mass0, massb = [], []
    for alpha in (0.0, 0.1, 0.5, 0.8, 0.95):
        sp = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=alpha)
        t = frailty_allocation(sp, kmax)
        dist = conditional_mean_distribution(t, 2)
        mass0.append(float(dist.masses[np.abs(dist.support - 0.0) <= 1e-6].sum()))
        massb.append(float(dist.masses[np.abs(dist.support - BERNOULLI_POOL_B[2]) <= 1e-6].sum()))
    inc0 = all(b > a for a, b in zip(mass0, mass0[1:]))
    incb = all(b > a for a, b in zip(massb, massb[1:]))
    rep.add(
        "coupling_concentrates_all_or_nothing",
        "structural",
        inc0 and incb,
        f"mass at 0: {[round(v, 4) for v in mass0]}; at b_3: {[round(v, 4) for v in massb]}",
    )

    # widened pool with sampled extras
    extra = sample_risks({"kind": "bernoulli_extras", "count": 69}, seed, kmax)
    wide = FrailtyBernoulliSpec(
        BERNOULLI_POOL_B + tuple(r.b for r in extra),
        BERNOULLI_POOL_Q + tuple(r.q for r in extra),
        alpha=0.5,
    )
    wide_kmax = next_pow2(wide.min_kmax())
    wide_table = frailty_allocation(wide, wide_kmax)
    _identity_check(rep, wide_table, bound=1e-9, name="full_allocation_identity_n75")
    rep.add(
        "wide_pool_runs",
        "structural",
        wide_table.n_risks == 75 and wide_table.valid_mask.any(),
        f"75 participants at kmax={wide_kmax}, {int(wide_table.valid_mask.sum())} valid points",
    )
    return rep


_RUNNERS = {
    "small_pool": _reproduce_small_pool,
    "large_pool": _reproduce_large_pool,
    "heavy_tail": _reproduce_heavy_tail,
    "bernoulli_pool": _reproduce_bernoulli_pool,
    "shock": _reproduce_shock,
    "gamma_mixture": _reproduce_gamma_mixture,
    "frailty": _reproduce_frailty,
}


def reproduce(case: str) -> ReproductionReport:
    """Run one named case and return its check report."""
    if case not in _RUNNERS:
        raise UnknownCase(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    return _RUNNERS[case]()
