"""Each reproduction case runs the numbers of its shipped scenario.

The cases hold their inputs as module constants or as arguments of their
first call into the engine; a call is read by replacing that name in
``allocgen.reproduce`` with one that records its arguments and stops the case.
"""

import pytest
import yaml

from allocgen import reproduce
from allocgen.reproduce import (
    BERNOULLI_POOL_B,
    BERNOULLI_POOL_Q,
    GAMMA_CASE,
    HEAVY_TAIL_RISKS,
    SEED,
    SHOCK_CASE_LAMBDAS,
    SMALL_POOL_LAMBDAS,
    SMALL_POOL_SEVERITIES,
)


class _Called(Exception):
    pass


def first_call(monkeypatch, case: str, name: str):
    """The positional and keyword arguments of ``case``'s first call to ``reproduce.<name>``."""

    def stop(*args, **kwargs):
        raise _Called(args, kwargs)

    monkeypatch.setattr(reproduce, name, stop)
    with pytest.raises(_Called) as called:
        reproduce.reproduce(case)
    return called.value.args


def model(scenario_dir, name: str) -> dict:
    with open(scenario_dir / f"{name}.yaml") as fh:
        return yaml.safe_load(fh)


def test_small_pool(scenario_dir):
    risks = model(scenario_dir, "small_pool")["model"]["risks"]
    assert [r["lam"] for r in risks] == list(SMALL_POOL_LAMBDAS)
    assert [tuple(r["severity"]) for r in risks] == list(SMALL_POOL_SEVERITIES)


@pytest.mark.parametrize("name", ["bernoulli_pool", "frailty"])
def test_bernoulli_payments_and_probabilities(scenario_dir, name):
    risks = model(scenario_dir, name)["model"]["risks"]
    assert tuple(r["b"] for r in risks) == BERNOULLI_POOL_B
    assert tuple(r["q"] for r in risks) == BERNOULLI_POOL_Q


def test_frailty_coupling(scenario_dir, monkeypatch):
    spec = model(scenario_dir, "frailty")["model"]
    (coupling, risks, _), _ = first_call(monkeypatch, "frailty", "frailty_allocation")
    assert [(r.b, r.q) for r in risks] == list(zip(BERNOULLI_POOL_B, BERNOULLI_POOL_Q))
    assert (coupling.alpha, coupling.epsilon) == (spec["alpha"], spec["epsilon"])


def test_shock(scenario_dir):
    assert model(scenario_dir, "shock")["model"]["shock_lambdas"] == SHOCK_CASE_LAMBDAS


def test_gamma_mixture(scenario_dir):
    spec = model(scenario_dir, "gamma_mixture")["model"]
    assert {key: spec[key] for key in GAMMA_CASE} == GAMMA_CASE


def test_heavy_tail(scenario_dir, monkeypatch):
    risks = model(scenario_dir, "heavy_tail")["model"]["risks"]
    assert [(r["alpha"], r["lam"]) for r in risks] == [(a, lam) for a, lam, _ in HEAVY_TAIL_RISKS]
    (_, _, xmax), _ = first_call(monkeypatch, "heavy_tail", "arithmetize")
    assert {r["xmax"] for r in risks} == {xmax}


def test_large_pool(scenario_dir, monkeypatch):
    config = model(scenario_dir, "large_pool")
    (sampled, seed, kmax), _ = first_call(monkeypatch, "large_pool", "sample_risks")
    assert seed == SEED == config["seed"]
    assert kmax == config["kmax"]
    assert sampled["kind"] == config["model"]["sampled"]["kind"]
    assert sampled["count"] == config["model"]["sampled"]["count"]
