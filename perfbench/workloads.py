"""The benchmark's workloads: the `allocgen run` jobs each one makes from a seed.

The program receives only the shipped scenario files and, for the sampled
pool, ``--seed``; nothing under ``scenarios/`` changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SHIPPED_SEED = 20260810

SMALL_SCENARIOS = ("small_pool", "bernoulli_pool", "shock", "gamma_mixture", "frailty")

# Transform-free enumeration cross-checks run once per benchmark run.
ORACLE_SCENARIOS = {"small_batch": ("bernoulli_pool", "frailty")}

# Spans every traced run of a workload must record at least once.
_COMMON_SPANS = (
    "scenario.load_scenario",
    "scenario.build_portfolio",
    "scenario.allocate_portfolio",
    "scenario.run_scenario",
    "allocation.assemble_table",
    "gf.idft",
    "scenario.write_allocations_csv",
    "scenario.conditional_mean_distribution",
    "scenario.write_cond_mean_dist_csv",
    "risk_measures.rvar",
    "risk_measures.euler_rvar_contributions",
)
EXPECTED_SPANS = {
    "pool10k": _COMMON_SPANS + ("allocation.allocate_compound_poisson_pool", "gf.dft"),
    "small_batch": _COMMON_SPANS + (
        "allocation.allocate_compound_poisson_pool",
        "allocation.allocate_independent",
        "dependence.shock_allocation_table",
        "dependence.gamma_mixture_allocation",
        "dependence.frailty_allocation",
        "gf.dft",
    ),
}

NAMES = tuple(EXPECTED_SPANS)


@dataclass(frozen=True)
class Job:
    """One `allocgen run` process of a workload."""

    scenario: Path
    seed_arg: int | None = None  # passed to the CLI as --seed

    def cli_args(self, out: Path) -> list[str]:
        args = ["run", str(self.scenario), "--out", str(out)]
        if self.seed_arg is not None:
            args += ["--seed", str(self.seed_arg)]
        return args


def jobs(name: str, root: Path, seed: int) -> list[Job]:
    """The jobs of workload ``name``."""
    shipped = root / "scenarios"
    if name == "pool10k":
        return [Job(shipped / "large_pool.yaml", seed_arg=seed)]
    if name == "small_batch":
        return [Job(shipped / f"{s}.yaml") for s in SMALL_SCENARIOS]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
