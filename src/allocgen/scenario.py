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
      alpha: 0.5              # frailty only
      epsilon: 1.0e-10        # frailty only
      gamma0: 1.0             # gamma_mixture only (plus r1, r2, lambda1, lambda2)
      shock_lambdas: {"0": 0.01, "1": 0.02, ..., "222": 0.05}
    outputs:
      allocations: true
      pmf_of_conditional_means: [1, 2, 3]    # 1-based risk indices
      rvar_levels: [[0.90, 0.99], [0.95, 0.95]]
      layers: [10, 20]
      risk_columns: [1, 2, 3]  # per-risk CSV columns; defaults to all when n <= 64

Outputs: ``allocations.csv`` (k, f_S, F_S, per-risk mu_i/cum_i/cond_i, valid),
``cond_mean_dist_<i>.csv`` (value, mass, cum_mass), ``report.txt``.  Floats are
written with shortest round-trip formatting so reruns diff exactly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
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
    allocate_independent,
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
    BernoulliRisk,
    CompoundKatzRisk,
    ExplicitRisk,
    KatzParams,
    KatzRisk,
    PoissonNegbinPool,
    RiskChain,
    poisson_pool,
)
from .pmf import arithmetize, next_pow2, pmf_from_values
from .tails import pareto_cdf, pareto_lev

GENERATOR_NAME = "numpy PCG64 (default_rng)"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    kmax: int
    tolerance: float = DEFAULT_TOLERANCE
    underflow_floor: float = DEFAULT_UNDERFLOW_FLOOR
    seed: Optional[int] = None
    dependence: str = "independent"
    risk_specs: list = field(default_factory=list)
    sampled: Optional[dict] = None
    alpha: float = 0.0
    epsilon: float = 1e-10
    gamma_params: Optional[dict] = None
    shock_lambdas: Optional[dict] = None
    outputs: dict = field(default_factory=dict)
    name: str = "scenario"


_DEPENDENCE_KINDS = ("independent", "hierarchical_shock", "gamma_mixture", "frailty_bernoulli")


def _field(mapping: dict, path: str, key, conv=float, default=...):
    """``conv(mapping[key])``, or ``conv(default)`` when absent; ConfigError names ``path.key``."""
    if key not in mapping and default is ...:
        raise ConfigError(f"{path}.{key}: missing required field")
    try:
        return conv(mapping.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None


def _ints(values) -> list[int]:
    """Each of ``values`` as an integer; None (a YAML key with no value) gives []."""
    return [int(v) for v in values or []]


def _range(values) -> list[float]:
    """A pair of floats [lo, hi] with lo < hi."""
    lo, hi = map(float, values)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {[lo, hi]}")
    return [lo, hi]


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
    kmax = _field(raw, "(root)", "kmax", int)
    tolerance = _field(raw, "(root)", "tolerance", float, DEFAULT_TOLERANCE)
    underflow_floor = _field(raw, "(root)", "underflow_floor", float, DEFAULT_UNDERFLOW_FLOOR)
    kmax = check_settings(kmax, tolerance, underflow_floor)
    model = _field(raw, "(root)", "model", dict)
    dependence = model.get("dependence", "independent")
    if dependence not in _DEPENDENCE_KINDS:
        raise ConfigError(f"model.dependence: unknown kind {dependence!r}")

    cfg = ScenarioConfig(
        kmax=kmax,
        tolerance=tolerance,
        underflow_floor=underflow_floor,
        seed=(_field(raw, "(root)", "seed", int) if raw.get("seed") is not None else None),
        dependence=dependence,
        risk_specs=list(model.get("risks", []) or []),
        sampled=model.get("sampled"),
        alpha=_field(model, "model", "alpha", float, 0.0),
        epsilon=_field(model, "model", "epsilon", float, 1e-10),
        outputs=dict(raw.get("outputs", {}) or {}),
        name=name,
    )

    if dependence == "gamma_mixture":
        cfg.gamma_params = {
            key: _field(model, "model", key)
            for key in ("gamma0", "r1", "r2", "lambda1", "lambda2")
        }
    elif dependence == "hierarchical_shock":
        lams = _field(model, "model", "shock_lambdas", dict)
        cfg.shock_lambdas = {str(k): _field(lams, "model.shock_lambdas", k) for k in lams}
    else:
        if not cfg.risk_specs and not cfg.sampled:
            raise ConfigError("model.risks: empty portfolio")
    if cfg.sampled is not None:
        if not isinstance(cfg.sampled, dict) or "kind" not in cfg.sampled:
            raise ConfigError("model.sampled: must be a mapping with a 'kind' field")
        if cfg.seed is None:
            raise ConfigError("seed: required when model.sampled is present")
    for i, spec in enumerate(cfg.risk_specs):
        if not isinstance(spec, dict) or "type" not in spec:
            raise ConfigError(f"model.risks[{i}]: must be a mapping with a 'type' field")
    levels = []  # parsed here so that a bad pair stops the run before the allocation
    for i, pair in enumerate(cfg.outputs.get("rvar_levels") or []):
        try:
            levels.append(risk_measures.RVaRLevels(*map(float, pair)))
        except (TypeError, ValueError, TruncatedQuantile) as exc:
            raise ConfigError(f"outputs.rvar_levels[{i}]: {exc}") from None
    cfg.outputs["rvar_levels"] = levels
    for key in ("pmf_of_conditional_means", "risk_columns", "layers"):
        cfg.outputs[key] = _field(cfg.outputs, "outputs", key, _ints, [])
    if cfg.outputs["layers"] and len(cfg.outputs["layers"]) != 2:
        raise ConfigError("outputs.layers: need two lattice points [l1, l2]")
    return cfg


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


# the fields of each count family, keyed by the name of its KatzParams constructor and in
# the order it takes them; the count risk types and a compound frequency read these
_COUNT_FIELDS = {
    "poisson": {"lam": float},
    "negative_binomial": {"r": float, "q": float},
    "binomial": {"m": int, "q": float},
}
# every field each risk type reads besides 'type'
_RISK_FIELDS = {
    **_COUNT_FIELDS,
    "compound_poisson_negbin": ("lam", "r", "q", "severity_length"),
    "bernoulli": ("b", "q"),
    "pmf": ("masses", "step_h"),
    "compound_poisson": ("lam", "severity"),
    "compound": ("frequency", "severity"),
    "pareto": ("alpha", "lam", "xmax"),
}


def _require_read(mapping: dict, path: str, fields, owner: str) -> None:
    """ConfigError naming ``path.key`` for the first key of ``mapping`` not in ``fields``."""
    unread = [key for key in mapping if key not in fields]
    if unread:
        raise ConfigError(f"{path}.{unread[0]}: not a field of {owner}")


def _count_params(spec: dict, path: str, family: str) -> KatzParams:
    """The count family ``family``'s parameters, read from its fields in ``spec``."""
    fields = _COUNT_FIELDS[family]
    return getattr(KatzParams, family)(*(_field(spec, path, key, conv) for key, conv in fields.items()))


def _build_risk(spec: dict, path: str, kmax: int):
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _RISK_FIELDS:
        raise ConfigError(f"{path}.type: unknown risk type {kind!r}")
    _require_read(spec, path, ("type", *_RISK_FIELDS[kind]), f"type {kind!r}")
    get = partial(_field, spec, path)
    if kind == "compound_poisson_negbin":
        lam, r, q = get("lam"), get("r"), get("q")
        _require_domain(path, ("lam", "r", "q"), ([lam], [r], [q]), _NEGBIN_DOMAIN)
        sev_len = _table_field(spec, path, "severity_length", kmax, _SAMPLED_FIELDS[kind])  # the pool's entry
        # a severity the NB recursion cannot represent is a numerical failure, not a config error
        return compound_poisson_negbin_risk(lam, r, q, sev_len)
    with _in_range(path):
        if kind in _COUNT_FIELDS:
            return KatzRisk(_count_params(spec, path, kind))
        if kind == "bernoulli":
            return BernoulliRisk(get("b", int), get("q"))
        if kind == "pmf":
            step_h = get("step_h", float, 1.0)
            return ExplicitRisk(get("masses", partial(pmf_from_values, step_h=step_h)))
        if kind == "compound_poisson":
            return CompoundKatzRisk(KatzParams.poisson(get("lam")), get("severity", pmf_from_values))
        if kind == "compound":
            freq, freq_path = get("frequency", dict), f"{path}.frequency"
            family = _field(freq, freq_path, "family", str)
            if family not in _COUNT_FIELDS:
                raise ConfigError(f"{freq_path}.family: unknown family {family!r}")
            _require_read(freq, freq_path, ("family", *_COUNT_FIELDS[family]), f"family {family!r}")
            return CompoundKatzRisk(_count_params(freq, freq_path, family), get("severity", pmf_from_values))
        # the one type left is pareto
        alpha, lam, xmax = get("alpha"), get("lam"), get("xmax", int, kmax)
        _require_domain(path, ("alpha", "lam", "xmax"), ([alpha], [lam], [xmax]), _PARETO_DOMAIN)
        pmf, report = arithmetize(pareto_cdf(alpha, lam), pareto_lev(alpha, lam), xmax)
        return ExplicitRisk(pmf), report


# (what a value needs, its test) for each parameter list of a family, in order
_AT_LEAST_0 = (">= 0", lambda v: v >= 0.0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_POSITIVE = ("> 0", lambda v: v > 0.0)
_NEGBIN_DOMAIN = (_AT_LEAST_0, _POSITIVE, ("in (0, 1)", lambda v: 0.0 < v < 1.0))
_PARETO_DOMAIN = (_POSITIVE, _POSITIVE, (">= 2", lambda v: v >= 2))

# every field of each sampled kind: (conversion, default, range that each value must pass);
# a callable default is a function of kmax, and ... marks a required field
_COUNT = (int, ..., _AT_LEAST_0)
_SAMPLED_FIELDS = {
    "compound_poisson_negbin": {
        "count": _COUNT,
        "lam_exp_mean": (float, 0.1, _NEGBIN_DOMAIN[0]),
        "r_choices": (_ints, [1, 2, 3, 4, 5, 6], _NEGBIN_DOMAIN[1]),
        "q_range": (_range, [0.4, 0.5], _NEGBIN_DOMAIN[2]),
        "severity_length": (int, lambda kmax: min(kmax, 4096), _AT_LEAST_1),
    },
    "pareto_extras": {
        "count": _COUNT,
        "alpha_range": (_range, [1.3, 1.9], _PARETO_DOMAIN[0]),
        "lam_range": (_range, [5.0, 15.0], _PARETO_DOMAIN[1]),
        "xmax": (int, lambda kmax: min(kmax, 2**15), _PARETO_DOMAIN[2]),
    },
    "bernoulli_extras": {
        "count": _COUNT,
        "b_choices": (_ints, list(range(1, 11)), _AT_LEAST_1),
        "q_range": (_range, [0.0, 1.0], ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)),
    },
}


def _require_domain(path: str, fields, values, domain) -> None:
    """ConfigError naming ``path.field`` unless every value passes its family's test in ``domain``.

    ``fields`` names the lists in ``values``, one per entry of ``domain``,
    and the error gives the first value out of range.
    """
    for field, vals, (need, ok) in zip(fields, values, domain):
        bad = [v for v in vals if not ok(v)]
        if bad:
            raise ConfigError(f"{path}.{field}: need {need}, got {bad[0]}")


def _table_field(mapping: dict, path: str, key: str, kmax: int, fields: dict):
    """``mapping[key]`` converted, defaulted and range-checked by its entry in ``fields``."""
    conv, default, need = fields[key]
    value = _field(mapping, path, key, conv, default(kmax) if callable(default) else default)
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ConfigError(f"{path}.{key}: need at least one choice")
    _require_domain(path, (key,), (values,), (need,))
    return value


def compound_poisson_negbin_risk(lam, r, q, severity_length: int) -> CompoundKatzRisk:
    """Poisson(lam) count over the first ``severity_length`` NB(r, q) masses, cut after the last positive one."""
    return PoissonNegbinPool([lam], [r], [q], severity_length)[0]


def sample_risks(sampled: dict, seed: int, kmax: int) -> Sequence:
    """Draw ``sampled['count']`` risks of kind ``sampled['kind']`` from ``seed``.

    The one seeded pool sampler: scenarios, reproduction cases, tests and
    scripts all draw here, so a given (sampled, seed, kmax) always yields the
    same risks.  Every field is read through ``_SAMPLED_FIELDS``, which
    gives its conversion, its default and its range, so values may come as
    strings as well as numbers.  A value that does not convert, an empty
    choice list, a range that is not lo < hi, a value out of range and a
    field its kind does not read each raise ConfigError naming the field,
    before any draw.

    A ``compound_poisson_negbin`` pool comes back as a
    ``models.PoissonNegbinPool``: it holds only the draws (rates, NB shapes
    and probabilities, severity length), builds its risks from the block
    recursion of ``models.negbin_blocks`` when indexed or iterated, each
    bit-identical to ``compound_poisson_negbin_risk`` on its own draw, and is
    streamed block by block through ``allocate_compound_poisson_pool``
    without them, also after explicit risks.  The other kinds come back as
    lists of risks.
    """
    path, kind = "model.sampled", sampled["kind"]
    fields = _SAMPLED_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    _require_read(sampled, path, ("kind", *fields), f"kind {kind!r}")
    f = {key: _table_field(sampled, path, key, kmax, fields) for key in fields}
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
    """Build the portfolio from a config; ConfigError when it has no risk.

    The explicit risks come first and the sampled extras after them, chained
    in a ``models.RiskChain`` when there are both, so a sampled pool stays
    its draws.
    """
    notes: list[str] = []
    kmax = config.kmax
    if config.dependence == "gamma_mixture":
        with _in_range("model"):
            spec = GammaMixtureSpec(**config.gamma_params)
        return BuiltScenario(config, PortfolioModel(dependence=spec), kmax, notes)
    if config.dependence == "hierarchical_shock":
        with _in_range("model.shock_lambdas"):
            spec = HierarchicalShockSpec(config.shock_lambdas or {})
        return BuiltScenario(config, PortfolioModel(dependence=spec), kmax, notes)

    risks = []
    for i, rspec in enumerate(config.risk_specs):
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
    if config.sampled is not None:
        sampled = sample_risks(config.sampled, config.seed, kmax)
        # the sampled risks stay as they came, alone or after the explicit ones
        risks = RiskChain(risks, sampled) if risks else sampled
        notes.append(
            f"sampled {len(sampled)} extra risks ({config.sampled['kind']}) with "
            f"{GENERATOR_NAME}, seed={config.seed}"
        )
    if not risks:
        raise ConfigError("model.sampled.count: empty portfolio")

    if config.dependence == "frailty_bernoulli":
        if not all(isinstance(r, BernoulliRisk) for r in risks):
            raise ConfigError("model.risks: frailty coupling needs bernoulli risks only")
        with _in_range("model"):
            spec = FrailtyBernoulliSpec(
                b=tuple(r.b for r in risks),
                q=tuple(r.q for r in risks),
                alpha=config.alpha,
                epsilon=config.epsilon,
            )
        kmax = max(kmax, next_pow2(spec.min_kmax()))
        return BuiltScenario(config, PortfolioModel(dependence=spec), kmax, notes)
    return BuiltScenario(config, PortfolioModel(risks=risks), kmax, notes)


def allocate_portfolio(
    portfolio: PortfolioModel,
    kmax: int,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    underflow_floor: float = DEFAULT_UNDERFLOW_FLOOR,
) -> AllocationTable:
    """Dispatch to the right allocation pipeline for the dependence regime.

    The engines compute at fixed accuracy targets; this is the one place that
    applies the caller's ``tolerance`` and ``underflow_floor``, through
    ``mask_validity``.
    """
    dep = portfolio.dependence
    if dep is None:
        # the pool reader recognises a sampled pool without building its risks
        if portfolio.risks and poisson_pool(portfolio.risks) is not None:
            table = allocate_compound_poisson_pool(portfolio.risks, kmax)
        else:
            table = allocate_independent(portfolio.risks, kmax)
    elif isinstance(dep, HierarchicalShockSpec):
        table = shock_allocation_table(dep, kmax)
    elif isinstance(dep, GammaMixtureSpec):
        table = gamma_mixture_allocation(dep, kmax)
    elif isinstance(dep, FrailtyBernoulliSpec):
        table = frailty_allocation(dep, kmax)
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
    rvars = [
        (levels, risk_measures.rvar(table.fs, levels), risk_measures.euler_rvar_contributions(table, levels))
        for levels in outputs.get("rvar_levels", [])
    ]
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
