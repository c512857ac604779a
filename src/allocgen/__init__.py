"""Expected-allocation engine for portfolios of lattice-valued risks.

Computes E[X_i 1{S=k}] and derived quantities (conditional-mean risk-sharing
contributions, cumulative/layer allocations, Euler splits of quantile-based
capital) from the generating functions of the margins' mass vectors on the
roots of unity, with closed forms for the (a, b) count family and
transform-free oracles for verification.
"""

from .allocation import (
    AllocationTable,
    PortfolioModel,
    allocate_independent,
    allocate_katz_closed_form,
    allocate_negbin_convolution,
    cumulative_and_layers,
    mask_validity,
    oracle_enumerate,
    oracle_size_biased,
    oracle_size_biased_rows,
    allocate_compound_poisson_pool,
)
from .dependence import (
    FrailtyBernoulliSpec,
    GammaMixtureSpec,
    HierarchicalShockSpec,
    frailty_allocation,
    gamma_mixture_allocation,
    shock_allocation_table,
)
from .gf import dft, idft
from .models import (
    UNIT_CLAIM,
    BernoulliRisk,
    CompoundKatzRisk,
    ExplicitRisk,
    KatzParams,
    binomial_risk,
    compound_poisson_risk,
    explicit_risk,
    negative_binomial_risk,
    poisson_risk,
)
from .pmf import DiscretePMF, TruncationReport, arithmetize, next_pow2, pmf_from_values
from .risk_measures import RVaRLevels, euler_rvar_contributions, rvar, tvar, var_level
from .scenario import (
    ConditionalMeanDistribution,
    ScenarioConfig,
    allocate_portfolio,
    build_portfolio,
    conditional_mean_distribution,
    count_cdf_crossings,
    load_scenario,
    run_scenario,
)

__version__ = "0.1.0"
