"""Scenario-driven pipeline: YAML config -> portfolio -> allocation table -> CSV/report.

Scenario schema (YAML, keys and nesting)::

    kmax: 64                  # rounded up to the next power of two
    tolerance: 1.0e-8         # validity tolerance on the validation curve
    underflow_floor: 1.0e-15
    seed: 123                 # required when model.sampled is present
    model:
      dependence: independent # | hierarchical_shock | gamma_mixture | frailty_bernoulli
      risks:                  # omitted for gamma_mixture / hierarchical_shock
        - {type: poisson, lam: 0.7}
        - {type: negative_binomial, r: 3, q: 0.6}
        - {type: binomial, m: 5, q: 0.3}
        - {type: bernoulli, b: 10, q: 0.3}
        - {type: pmf, masses: [0.5, 0.5], step_h: 1.0}
        - {type: compound_poisson, lam: 0.08, severity: [0, 0.1, 0.2, 0.4, 0.3]}
        - {type: compound_poisson_negbin, lam: 0.1, r: 3, q: 0.45}  # NB(r, q) severity
        - {type: compound, frequency: {family: negative_binomial, r: 2, q: 0.5},
           severity: [0, 1.0]}
        - {type: pareto, alpha: 1.3, lam: 3.0, xmax: 32768}   # moment-matched grid
      sampled:                # optional sampled extras, appended after risks
        kind: compound_poisson_negbin   # | pareto_extras | bernoulli_extras
        count: 10000
        ...                   # kind-specific fields, see _SAMPLED_FIELDS
      alpha: 0.5              # frailty only: the mixing law of the bernoulli risks
      epsilon: 1.0e-10        # frailty only
      gamma0: 1.0             # gamma_mixture only (plus r1, r2, lambda1, lambda2)
      shock_lambdas: {"0": 0.01, "1": 0.02, ..., "222": 0.05}
    outputs:
      allocations: true
      pmf_of_conditional_means: [1, 2, 3]    # 1-based risk indices
      rvar_levels: [[0.90, 0.99], [0.95, 0.95]]
      layers: [10, 20]
      risk_columns: [1, 2, 3]  # per-risk CSV columns; defaults to all when n <= 64

Every mapping is read by ``_read`` through the field table of its kind (``_ROOT_FIELDS``,
``_MODEL_FIELDS``, ``_OUTPUT_FIELDS``, ``_RISK_FIELDS``, ``_COUNT_FIELDS``, ``_SAMPLED_FIELDS``;
the shock rates by node).  An undeclared key, a value that does not convert (integer fields
take no fractions) and a value out of range raise ConfigError naming the field.

Outputs: ``allocations.csv`` (k, f_S, F_S, per-risk mu_i/cum_i/cond_i, valid),
``cond_mean_dist_<i>.csv`` (value, mass, cum_mass), ``report.txt``.  Floats are
written with shortest round-trip formatting so reruns diff exactly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from . import risk_measures
from .allocation import (
    DEFAULT_TOLERANCE,
    DEFAULT_UNDERFLOW_FLOOR,
    AllocationTable,
    PortfolioModel,
    cumulative_and_layers,
    allocate_compound_poisson_pool,
    mask_validity,
    per_mass,
)
from .dependence import (
    FrailtyBernoulliSpec,
    GammaMixtureSpec,
    HierarchicalShockSpec,
    frailty_allocation,
    gamma_mixture_allocation,
    shock_allocation_table,
)
from .errors import (
    ConfigError,
    EmptyDistribution,
    InvalidFrailty,
    InvalidMarginal,
    InvalidMixture,
    InvalidPMF,
    KatzDomain,
    TruncatedQuantile,
    UnknownNode,
)
from .models import (
    UNIT_CLAIM,
    BernoulliRisk,
    CompoundKatzRisk,
    ExplicitRisk,
    KatzParams,
    PoissonNegbinPool,
    RiskChain,
    bernoulli_margins,
    common_step,
)
from .pmf import arithmetize, next_pow2, pmf_from_values
from .tails import pareto_cdf, pareto_lev

GENERATOR_NAME = "numpy PCG64 (default_rng)"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    """A parsed scenario; ``model`` holds the fields that ``_MODEL_FIELDS[dependence]`` reads."""

    kmax: int
    tolerance: float = DEFAULT_TOLERANCE
    underflow_floor: float = DEFAULT_UNDERFLOW_FLOOR
    seed: Optional[int] = None
    dependence: str = "independent"
    model: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    name: str = "scenario"


def _field(mapping: dict, path: str, key, conv=float, default=...):
    """``conv(mapping[key])``, or ``conv(default)`` when absent; ConfigError names ``path.key``.

    An optional key (default None) that is absent or null reads as None, unconverted.
    """
    if key not in mapping and default is ...:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = mapping.get(key, default)
    if value is None and default is None:
        return None
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None


def _read(mapping: dict, path: str, fields: dict, owner: str, kmax: int = 0) -> dict:
    """Every key of ``fields`` read from ``mapping``; a key ``fields`` does not declare is a ConfigError.

    ``fields[key]`` is (conversion, default, range): ``...`` marks a required key, a callable
    default is a function of ``kmax``, and a range (what a value needs, its test) applies to
    each value of a list, which must not be empty; None leaves it to the model constructor.
    """
    unread = [key for key in mapping if key not in fields]
    if unread:
        raise ConfigError(f"{path}.{unread[0]}: not a field of {owner}")
    values = {}
    for key, (conv, default, need) in fields.items():
        value = values[key] = _field(mapping, path, key, conv, default(kmax) if callable(default) else default)
        if need is not None:
            each = value if isinstance(value, list) else [value]
            if not each:
                raise ConfigError(f"{path}.{key}: need at least one choice")
            bad = [v for v in each if not need[1](v)]
            if bad:
                raise ConfigError(f"{path}.{key}: need {need[0]}, got {bad[0]}")
    return values


def _read_kind(mapping: dict, path: str, tag: str, tables: dict, kmax: int = 0, default=...) -> tuple[str, dict]:
    """The kind that ``mapping[tag]`` names, and the rest of ``mapping`` read by that kind's table."""
    kind = _field(mapping, path, tag, str, default)
    if kind not in tables:
        raise ConfigError(f"{path}.{tag}: unknown {tag} {kind!r}")
    rest = {key: value for key, value in mapping.items() if key != tag}
    return kind, _read(rest, path, tables[kind], f"{tag} {kind!r}", kmax)


def _int(value) -> int:
    """``value`` as an int: an integer, an integral float or an integer string, never rounded."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"need an integer, got {value}")
    return int(value)


def _ints(values) -> list[int]:
    """Each of ``values`` as an integer; None (a YAML key with no value) gives []."""
    return [_int(v) for v in values or []]


def _indices(values) -> list[int]:
    """Risk indices, each at most once."""
    indices = _ints(values)
    if len(set(indices)) < len(indices):
        raise ValueError(f"need distinct indices, got {indices}")
    return indices


def _pair(values) -> list[int]:
    """Two lattice points [l1, l2], or [] for none."""
    pair = _ints(values)
    if pair and len(pair) != 2:
        raise ValueError("need two lattice points [l1, l2]")
    return pair


def _range(values) -> list[float]:
    """A pair of floats [lo, hi] with lo < hi."""
    lo, hi = map(float, values)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {[lo, hi]}")
    return [lo, hi]


def _rvar_levels(pairs) -> list:
    """Each [alpha1, alpha2] pair as RVaRLevels, so that a bad pair stops the run before the allocation."""
    levels = []
    for i, pair in enumerate(pairs or []):
        try:
            levels.append(risk_measures.RVaRLevels(*map(float, pair)))
        except (TypeError, ValueError, TruncatedQuantile) as exc:
            raise ConfigError(f"outputs.rvar_levels[{i}]: {exc}") from None
    return levels


# (what a value needs, its test)
_AT_LEAST_0 = ("a finite value >= 0", lambda v: 0.0 <= v < math.inf)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_AT_LEAST_2 = (">= 2", lambda v: v >= 2)
_POSITIVE = ("a finite value > 0", lambda v: 0.0 < v < math.inf)
_OPEN_UNIT = ("in (0, 1)", lambda v: 0.0 < v < 1.0)

# the field tables: key -> (conversion, default, range), as _read takes them
_REAL = (float, ..., None)
_INT = (_int, ..., None)
_ROOT_FIELDS = {
    "kmax": _INT,
    "tolerance": (float, DEFAULT_TOLERANCE, None),
    "underflow_floor": (float, DEFAULT_UNDERFLOW_FLOOR, None),
    "seed": (_int, None, None),
    "model": (dict, ..., None),
    "outputs": (lambda v: dict(v or {}), {}, None),  # None: a YAML key with no value
}
_PORTFOLIO = {"risks": (lambda v: list(v or []), [], None), "sampled": (dict, None, None)}
_MODEL_FIELDS = {
    "independent": _PORTFOLIO,
    "hierarchical_shock": {"shock_lambdas": (dict, ..., None)},
    "gamma_mixture": dict.fromkeys(("gamma0", "r1", "r2", "lambda1", "lambda2"), _REAL),
    "frailty_bernoulli": {**_PORTFOLIO, "alpha": (float, 0.0, None), "epsilon": (float, 1e-10, None)},
}
_OUTPUT_FIELDS = {
    "allocations": (bool, True, None),
    "pmf_of_conditional_means": (_indices, [], None),
    "rvar_levels": (_rvar_levels, [], None),
    "layers": (_pair, [], None),
    "risk_columns": (_indices, [], None),
}


def check_settings(
    kmax: int,
    tolerance: float,
    underflow_floor: float,
    names: tuple[str, str, str] = ("kmax", "tolerance", "underflow_floor"),
) -> int:
    """The transform length next_pow2(kmax), once the three run settings are in range.

    kmax must be at least 2, the validity tolerance finite and above 0, and
    the underflow floor finite and at least 0.  A value out of range raises
    ConfigError naming it by its entry in ``names``: the scenario fields, or
    the command-line flags that override them.
    """
    if not kmax >= 2:
        raise ConfigError(f"{names[0]}: must be >= 2, got {kmax}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ConfigError(f"{names[1]}: must be finite and > 0, got {tolerance}")
    if not (math.isfinite(underflow_floor) and underflow_floor >= 0.0):
        raise ConfigError(f"{names[2]}: must be finite and >= 0, got {underflow_floor}")
    return next_pow2(kmax)


def parse_scenario(raw: dict, name: str = "scenario") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("scenario root must be a mapping")
    root = _read(raw, "(root)", _ROOT_FIELDS, "the scenario")
    kmax = check_settings(root["kmax"], root["tolerance"], root["underflow_floor"])
    dependence, model = _read_kind(root["model"], "model", "dependence", _MODEL_FIELDS, default="independent")
    if dependence == "hierarchical_shock":
        lams = model["shock_lambdas"]
        rates = _read(lams, "model.shock_lambdas", dict.fromkeys(lams, _REAL), "the shock tree")
        model["shock_lambdas"] = {str(node): lam for node, lam in rates.items()}
    elif "risks" in model:
        # the risks are read when the portfolio is built, on the final kmax
        if not model["risks"] and not model["sampled"]:
            raise ConfigError("model.risks: empty portfolio")
        if model["sampled"] is not None and root["seed"] is None:
            raise ConfigError("seed: required when model.sampled is present")
        for i, spec in enumerate(model["risks"]):
            if not isinstance(spec, dict) or "type" not in spec:
                raise ConfigError(f"model.risks[{i}]: must be a mapping with a 'type' field")
    outputs = _read(root["outputs"], "outputs", _OUTPUT_FIELDS, "the outputs")
    return ScenarioConfig(kmax=kmax, tolerance=root["tolerance"], underflow_floor=root["underflow_floor"],
                          seed=root["seed"], dependence=dependence, model=model, outputs=outputs, name=name)


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not parseable YAML: {exc}") from None
    if raw is None:
        raise ConfigError(f"{path}: empty scenario file")
    return parse_scenario(raw, name=path.stem)


# ---------------------------------------------------------------------------
# portfolio construction
# ---------------------------------------------------------------------------


@contextmanager
def _in_range(path: str):
    """Turn a model value outside its range into a ConfigError naming ``path``."""
    try:
        yield
    except (KatzDomain, InvalidPMF, InvalidMixture, InvalidFrailty, InvalidMarginal, UnknownNode) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# the fields of each count family, keyed by the name of its KatzParams constructor, whose
# arguments they are; the count risk types and a compound frequency read these
_COUNT_FIELDS = {
    "poisson": {"lam": _REAL},
    "negative_binomial": {"r": _REAL, "q": _REAL},
    "binomial": {"m": _INT, "q": _REAL},
}
_SEVERITY_LENGTH = (_int, lambda kmax: min(kmax, 4096), _AT_LEAST_1)
_RISK_FIELDS = {
    **_COUNT_FIELDS,
    "compound_poisson_negbin": {"lam": (float, ..., _AT_LEAST_0), "r": (float, ..., _POSITIVE),
                                "q": (float, ..., _OPEN_UNIT), "severity_length": _SEVERITY_LENGTH},
    "bernoulli": {"b": _INT, "q": _REAL},
    "pmf": {"masses": (lambda v: np.asarray(v, dtype=float), ..., None), "step_h": (float, 1.0, None)},
    "compound_poisson": {"lam": _REAL, "severity": (pmf_from_values, ..., None)},
    "compound": {"frequency": (dict, ..., None), "severity": (pmf_from_values, ..., None)},
    "pareto": {"alpha": (float, ..., _POSITIVE), "lam": (float, ..., _POSITIVE),
               "xmax": (_int, lambda kmax: kmax, _AT_LEAST_2)},
}
_COUNT = (_int, ..., _AT_LEAST_0)
_SAMPLED_FIELDS = {
    "compound_poisson_negbin": {
        "count": _COUNT,
        "lam_exp_mean": (float, 0.1, _AT_LEAST_0),
        "r_choices": (_ints, [1, 2, 3, 4, 5, 6], _POSITIVE),
        "q_range": (_range, [0.4, 0.5], _OPEN_UNIT),
        "severity_length": _SEVERITY_LENGTH,
    },
    "pareto_extras": {
        "count": _COUNT,
        "alpha_range": (_range, [1.3, 1.9], _POSITIVE),
        "lam_range": (_range, [5.0, 15.0], _POSITIVE),
        "xmax": (_int, lambda kmax: min(kmax, 2**15), _AT_LEAST_2),
    },
    "bernoulli_extras": {
        "count": _COUNT,
        "b_choices": (_ints, list(range(1, 11)), _AT_LEAST_1),
        "q_range": (_range, [0.0, 1.0], ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)),
    },
}


def _build_risk(spec: dict, path: str, kmax: int):
    with _in_range(path):
        kind, f = _read_kind(spec, path, "type", _RISK_FIELDS, kmax)
        if kind in _COUNT_FIELDS:
            return CompoundKatzRisk(getattr(KatzParams, kind)(**f), UNIT_CLAIM)
        if kind == "bernoulli":
            return BernoulliRisk(f["b"], f["q"])
        if kind == "pmf":
            return ExplicitRisk(pmf_from_values(f["masses"], f["step_h"]))
        if kind == "compound_poisson":
            return CompoundKatzRisk(KatzParams.poisson(f["lam"]), f["severity"])
        if kind == "compound":
            family, params = _read_kind(f["frequency"], f"{path}.frequency", "family", _COUNT_FIELDS)
            return CompoundKatzRisk(getattr(KatzParams, family)(**params), f["severity"])
        if kind == "pareto":
            alpha, lam = f["alpha"], f["lam"]
            pmf, report = arithmetize(pareto_cdf(alpha, lam), pareto_lev(alpha, lam), f["xmax"])
            return ExplicitRisk(pmf), report
    # the one type left; a severity the NB recursion cannot represent is a numerical
    # failure, not a config error
    return compound_poisson_negbin_risk(f["lam"], f["r"], f["q"], f["severity_length"])


def compound_poisson_negbin_risk(lam, r, q, severity_length: int) -> CompoundKatzRisk:
    """Poisson(lam) count over the first ``severity_length`` NB(r, q) masses, cut after the last positive one."""
    return PoissonNegbinPool([lam], [r], [q], severity_length)[0]


def sample_risks(sampled: dict, seed: int, kmax: int) -> Sequence:
    """Draw ``sampled['count']`` risks of kind ``sampled['kind']`` from ``seed``.

    The one seeded pool sampler: scenarios, reproduction cases, tests and
    scripts all draw here, so a given (sampled, seed, kmax) always yields the
    same risks.  Its fields are read through ``_SAMPLED_FIELDS``, so values
    may come as strings as well as numbers, and a bad one raises ConfigError
    naming it before any draw.

    A ``compound_poisson_negbin`` pool comes back as a
    ``models.PoissonNegbinPool``: it holds only the draws (rates, NB shapes
    and probabilities, severity length), builds its risks from the row
    recursion of ``models.negbin_rows`` when indexed or iterated, each
    bit-identical to ``compound_poisson_negbin_risk`` on its own draw, and is
    read a block of rows at a time by ``allocate_compound_poisson_pool``
    without them, also after explicit risks.  The other kinds come back as
    lists of risks.
    """
    kind, f = _read_kind(sampled, "model.sampled", "kind", _SAMPLED_FIELDS, kmax)
    count, rng = f["count"], np.random.default_rng(seed)
    if kind == "compound_poisson_negbin":
        lams = rng.exponential(f["lam_exp_mean"], size=count)
        rs = rng.choice(f["r_choices"], size=count)
        qs = rng.uniform(*f["q_range"], size=count)
        return PoissonNegbinPool(lams, rs, qs, f["severity_length"])
    if kind == "pareto_extras":
        alphas = rng.uniform(*f["alpha_range"], size=count)
        lams = rng.uniform(*f["lam_range"], size=count)
        return [
            ExplicitRisk(arithmetize(pareto_cdf(a, l), pareto_lev(a, l), f["xmax"])[0])
            for a, l in zip(alphas, lams)
        ]
    bs = rng.choice(f["b_choices"], size=count)
    qs = np.clip(rng.uniform(*f["q_range"], size=count), 1e-6, 1.0 - 1e-6)
    return [BernoulliRisk(int(b), float(q)) for b, q in zip(bs, qs)]


@dataclass
class BuiltScenario:
    config: ScenarioConfig
    portfolio: PortfolioModel
    kmax: int
    truncation_notes: list = field(default_factory=list)


def build_portfolio(config: ScenarioConfig) -> BuiltScenario:
    """Build the portfolio from a config; ConfigError when it has no risk or its risks' lattice steps differ.

    The explicit risks come first and the sampled extras after them, chained
    in a ``models.RiskChain`` when there are both, so a sampled pool stays
    its draws.
    """
    notes: list[str] = []
    kmax, model = config.kmax, config.model
    if config.dependence == "gamma_mixture":
        with _in_range("model"):
            spec = GammaMixtureSpec(**model)
        return BuiltScenario(config, PortfolioModel(dependence=spec), kmax, notes)
    if config.dependence == "hierarchical_shock":
        with _in_range("model.shock_lambdas"):
            spec = HierarchicalShockSpec(model["shock_lambdas"])
        return BuiltScenario(config, PortfolioModel(dependence=spec), kmax, notes)

    risks = []
    for i, rspec in enumerate(model["risks"]):
        built = _build_risk(rspec, f"model.risks[{i}]", kmax)
        if isinstance(built, tuple):
            risk, report = built
            notes.append(
                f"risk {i + 1}: arithmetized on {report.kmax} points, "
                f"lost mass {report.lost_mass:.3e}, lost mean {report.lost_mean:.6f}"
            )
            risks.append(risk)
        else:
            risks.append(built)
    # every sampled kind is on the unit lattice, so a sampled pool is checked without reading it
    steps = {common_step([r]) for r in risks} | ({1.0} if model["sampled"] is not None else set())
    if len(steps) > 1:
        raise ConfigError(f"model.risks: risks use different lattice steps: {sorted(steps)}")
    if model["sampled"] is not None:
        sampled = sample_risks(model["sampled"], config.seed, kmax)
        # the sampled risks stay as they came, alone or after the explicit ones
        risks = RiskChain(risks, sampled) if risks else sampled
        notes.append(
            f"sampled {len(sampled)} extra risks ({model['sampled']['kind']}) with "
            f"{GENERATOR_NAME}, seed={config.seed}"
        )
    if not risks:
        raise ConfigError("model.sampled.count: empty portfolio")

    if config.dependence == "frailty_bernoulli":
        with _in_range("model.risks"):
            b, _ = bernoulli_margins(risks)
        with _in_range("model"):
            spec = FrailtyBernoulliSpec(model["alpha"], model["epsilon"])
        return BuiltScenario(config, PortfolioModel(risks, spec), max(kmax, next_pow2(1 + b.sum())), notes)
    return BuiltScenario(config, PortfolioModel(risks=risks), kmax, notes)


def allocate_portfolio(
    portfolio: PortfolioModel,
    kmax: int,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    underflow_floor: float = DEFAULT_UNDERFLOW_FLOOR,
) -> AllocationTable:
    """Dispatch to the right allocation pipeline for the dependence regime.

    Independent margins all go to ``allocate_compound_poisson_pool``, which
    routes each margin itself.  The engines compute at fixed accuracy
    targets; this is the one place that applies the caller's ``tolerance``
    and ``underflow_floor``, through ``mask_validity``.
    """
    dep = portfolio.dependence
    if dep is None:
        table = allocate_compound_poisson_pool(portfolio.risks, kmax)
    elif isinstance(dep, HierarchicalShockSpec):
        table = shock_allocation_table(dep, kmax)
    elif isinstance(dep, GammaMixtureSpec):
        table = gamma_mixture_allocation(dep, kmax)
    elif isinstance(dep, FrailtyBernoulliSpec):
        table = frailty_allocation(dep, portfolio.risks, kmax)
    else:
        raise ConfigError(f"unknown dependence spec {type(dep).__name__}")
    return mask_validity(table, tolerance, underflow_floor)


# ---------------------------------------------------------------------------
# conditional-mean distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalMeanDistribution:
    """Push-forward of Pr(S = k) onto the distinct conditional-mean values."""

    support: np.ndarray
    masses: np.ndarray

    def cum_masses(self) -> np.ndarray:
        return np.cumsum(self.masses)

    def cdf_at(self, x) -> np.ndarray:
        """P(value <= x) for scalar or vector x."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        cum = self.cum_masses()
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return out


MERGE_TOL = 1e-12
# count_cdf_crossings' value and mass tolerances
CROSSING_VALUE_TOL = 1e-9
CROSSING_MASS_TOL = 1e-12


def conditional_mean_distribution(table: AllocationTable, risk: int) -> ConditionalMeanDistribution:
    """Distribution of the conditional mean of one risk over the valid lattice points.

    Masses are Pr(S = k); values equal within MERGE_TOL are merged onto one
    support point.
    """
    valid = table.valid_mask
    if not valid.any():
        raise EmptyDistribution("no valid lattice points to aggregate")
    values = per_mass(table.rows(risk), table.fs.masses)[valid]
    masses = table.fs.masses[valid]
    order = np.argsort(values, kind="stable")
    values = values[order]
    masses = masses[order]
    # group values whose gaps stay within the merge tolerance
    new_group = np.empty(len(values), dtype=bool)
    new_group[0] = True
    new_group[1:] = np.diff(values) > MERGE_TOL
    group_ids = np.cumsum(new_group) - 1
    support = values[new_group]
    agg = np.zeros(len(support))
    np.add.at(agg, group_ids, masses)
    return ConditionalMeanDistribution(support=support, masses=agg)


def count_cdf_crossings(a: ConditionalMeanDistribution, b: ConditionalMeanDistribution) -> int:
    """Sign changes of (cdf_a - cdf_b) across the union of the two supports.

    Support values within ``CROSSING_VALUE_TOL * (1 + |x|)`` of each other
    are treated as the same evaluation point (transform noise makes 'equal'
    conditional means differ in the last digits); differences below
    ``CROSSING_MASS_TOL`` are treated as ties and skipped.
    """
    grid = np.sort(np.concatenate([a.support, b.support]))
    if grid.size == 0:
        return 0
    keep = np.empty(len(grid), dtype=bool)
    keep[-1] = True
    keep[:-1] = np.diff(grid) > CROSSING_VALUE_TOL * (1.0 + np.abs(grid[:-1]))
    reps = grid[keep]  # cluster representative = the largest member
    d = a.cdf_at(reps) - b.cdf_at(reps)
    d = d[np.abs(d) > CROSSING_MASS_TOL]
    if d.size < 2:
        return 0
    signs = np.sign(d)
    return int(np.sum(signs[1:] != signs[:-1]))


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """Shortest round-trip decimal for a float (ints stay bare)."""
    return repr(float(x))


def _resolve_outputs(outputs: dict, n_risks: int, kmax: int) -> tuple[list[int], list[int], list[int]]:
    """The shown risk columns and conditional-mean risks (0-based) and the layer pair, checked.

    Every request is checked against the table's ``n_risks`` and ``kmax``
    before any writer runs, so a bad one stops the run with nothing written.
    Without ``risk_columns``, all risks are shown up to 64 and the first 8
    beyond that.
    """

    def risks(key: str) -> list[int]:
        chosen = outputs.get(key) or []
        bad = [i for i in chosen if not 1 <= i <= n_risks]
        if bad:
            raise ConfigError(f"outputs.{key}: indices {bad} outside 1..{n_risks}")
        return [i - 1 for i in chosen]

    layers = outputs.get("layers") or []
    if layers and not 0 < layers[0] < layers[1] < kmax:
        raise ConfigError(f"outputs.layers: need 0 < l1 < l2 < {kmax}, got {layers}")
    columns = risks("risk_columns") or list(range(n_risks if n_risks <= 64 else 8))
    return columns, risks("pmf_of_conditional_means"), layers


def write_allocations_csv(
    path: Path, table: AllocationTable, columns: Sequence[int], header_notes: Sequence[str] = ()
) -> None:
    # one row of floats per lattice point: f_S, F_S, (mu, cum, cond) per column, cond_total;
    # the shown rows are read once, and the rest is derived in place from them
    fs = table.fs.masses
    values = np.empty((3 + 3 * len(columns), table.kmax))
    values[0], values[1], values[-1] = fs, table.fs.cdf(), table.validation_curve
    mu = values[2:-1:3]
    mu[:] = table.rows(columns)
    np.cumsum(mu, axis=-1, out=values[3:-1:3])
    values[4:-1:3] = per_mass(mu, fs)
    names = ["k", "f_S", "F_S"]
    for c in columns:
        names += [f"mu_{c + 1}", f"cum_{c + 1}", f"cond_{c + 1}"]
    names += ["cond_total", "valid"]
    with path.open("w") as fh:
        for note in header_notes:
            fh.write(f"# {note}\n")
        fh.write(",".join(names) + "\n")
        # repr of a Python float is the shortest round-trip decimal, as _fmt writes it;
        # one row at a time, so no Python float outlives its line
        fh.writelines(
            f"{k},{','.join(map(repr, row.tolist()))},{'1' if valid else '0'}\n"
            for k, (row, valid) in enumerate(zip(values.T, table.valid_mask.tolist()))
        )


def write_cond_mean_dist_csv(path: Path, dist: ConditionalMeanDistribution,
                             header_notes: Sequence[str] = ()) -> None:
    values = np.vstack([dist.support, dist.masses, dist.cum_masses()])
    with path.open("w") as fh:
        for note in header_notes:
            fh.write(f"# {note}\n")
        fh.write("value,mass,cum_mass\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in values.T.tolist())


@dataclass
class ScenarioResult:
    table: AllocationTable
    built: BuiltScenario
    paths: list = field(default_factory=list)
    report_lines: list = field(default_factory=list)


def run_scenario(config: ScenarioConfig, out_dir) -> ScenarioResult:
    """Run the full pipeline and write the configured outputs under ``out_dir``."""
    built = build_portfolio(config)
    table = allocate_portfolio(
        built.portfolio,
        built.kmax,
        tolerance=config.tolerance,
        underflow_floor=config.underflow_floor,
    )
    # every output request, the RVaR figures and the conditional-mean distributions, which can
    # fail, are settled before any file is written
    outputs = config.outputs
    levels = outputs.get("rvar_levels", [])
    values = [risk_measures.rvar(table.fs, level) for level in levels]
    # every level's split from one pass over the table's rows
    rvars = list(zip(levels, values, risk_measures.euler_rvar_contributions(table, levels)))
    columns, cond_means, layers = _resolve_outputs(outputs, table.n_risks, table.kmax)
    dists = [(i, conditional_mean_distribution(table, i)) for i in cond_means]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = ScenarioResult(table=table, built=built)
    lines = result.report_lines
    lines.append(f"scenario: {config.name}")
    lines.append(f"dependence: {config.dependence}")
    lines.append(f"kmax: {built.kmax}")
    lines.append(f"risks: {table.n_risks}")
    lines.append(f"tolerance: {_fmt(config.tolerance)}")
    lines.append(f"underflow_floor: {_fmt(config.underflow_floor)}")
    if config.seed is not None:
        lines.append(f"rng: {GENERATOR_NAME}, seed={config.seed}")
    for note in built.truncation_notes:
        lines.append(f"note: {note}")

    header_notes = [f"scenario {config.name}"]
    if config.seed is not None:
        header_notes.append(f"rng {GENERATOR_NAME} seed={config.seed}")

    dep = built.portfolio.dependence
    if isinstance(dep, FrailtyBernoulliSpec):
        lines.append(
            f"frailty: alpha={_fmt(dep.alpha)} epsilon={_fmt(dep.epsilon)} "
            f"theta_star={dep.theta_star} residual_mass={_fmt(dep.residual_mass)}"
        )

    # identity diagnostics on the valid range
    valid = table.valid_mask
    lines.append(f"valid_points: {int(valid.sum())} of {table.kmax}")
    if valid.any():
        vidx = np.flatnonzero(valid)
        lines.append(f"valid_range: [{vidx[0]}, {vidx[-1]}]")
        lines.append(f"full_allocation_max_rel_dev_on_valid: {_fmt(table.identity_deviation())}")
    trunc = table.truncation
    lines.append(
        f"truncation: lost_mass={_fmt(trunc.lost_mass)} lost_mean={_fmt(trunc.lost_mean)} "
        f"aliasing_risk={trunc.aliasing_risk}"
    )
    for note in trunc.notes:
        lines.append(f"truncation_note: {note}")

    if outputs.get("allocations", True):
        p = out / "allocations.csv"
        write_allocations_csv(p, table, columns, header_notes)
        result.paths.append(p)

    for i, dist in dists:
        p = out / f"cond_mean_dist_{i + 1}.csv"
        write_cond_mean_dist_csv(p, dist, header_notes)
        result.paths.append(p)
        lines.append(
            f"cond_mean_dist_{i + 1}: {len(dist.support)} support points, "
            f"mass {_fmt(float(dist.masses.sum()))}"
        )

    for levels, value, contribs in rvars:
        lines.append(
            f"rvar({_fmt(levels.alpha1)},{_fmt(levels.alpha2)}): total={_fmt(value)} "
            f"sum_contributions={_fmt(float(contribs.sum()))}"
        )
        shown = ", ".join(f"{c + 1}:{_fmt(contribs[c])}" for c in columns[:16])
        lines.append(f"  contributions: {shown}")

    if layers:
        l1, l2 = layers
        for c in columns[:16]:
            retained, layer, excess = cumulative_and_layers(table, l1, l2, c)
            lines.append(
                f"layers risk {c + 1} (l1={l1}, l2={l2}): retained={_fmt(retained)} "
                f"layer={_fmt(layer)} excess={_fmt(excess)}"
            )

    p = out / "report.txt"
    p.write_text("\n".join(lines) + "\n")
    result.paths.append(p)
    return result
