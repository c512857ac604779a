import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allocgen
from allocgen.errors import InvalidPMF
from allocgen.pmf import arithmetize, degenerate_pmf, next_pow2, pmf_from_values
from allocgen.tails import pareto_cdf, pareto_lev

from reference import exponential_cdf, exponential_lev


class TestPmfFromValues:
    def test_two_point_split_sums_to_one(self):
        p = pmf_from_values([0.5, 0.5])
        assert p.total_mass == 1.0

    def test_small_pool_severity_padded(self):
        p = pmf_from_values(np.pad([0, 0.1, 0.2, 0.4, 0.3], (0, 59)))
        assert len(p) == 64
        assert p.total_mass == pytest.approx(1.0, abs=1e-12)
        assert p.mean() == pytest.approx(2.9, abs=1e-12)

    def test_degenerate_at_zero(self):
        p = pmf_from_values([1.0])
        assert p.mean() == 0.0

    def test_negative_beyond_tolerance_raises(self):
        with pytest.raises(InvalidPMF):
            pmf_from_values([0.5, 0.5, -1e-9])

    def test_negative_roundoff_clamped(self):
        p = pmf_from_values([0.6, 0.4, -1e-13])
        assert p.masses[2] == 0.0

    def test_empty_raises(self):
        with pytest.raises(InvalidPMF):
            pmf_from_values([])

    def test_over_unit_mass_raises(self):
        with pytest.raises(InvalidPMF):
            pmf_from_values([0.9, 0.8])

    def test_over_unit_mass_message_prints_a_plain_float(self):
        with pytest.raises(InvalidPMF) as info:
            pmf_from_values([0.5, 0.500001])
        # a plain float, not numpy's np.float64(...) repr
        assert str(info.value) == "total mass 1.0000010000000001 exceeds 1"

    def test_truncated_mass_recorded_not_renormalized(self):
        p = pmf_from_values([0.5, 0.25])
        assert p.total_mass == pytest.approx(0.75)

    def test_bad_step_raises(self):
        with pytest.raises(InvalidPMF):
            pmf_from_values([1.0], step_h=0.0)


class TestMoments:
    def test_cdf_of_degenerate(self):
        assert np.allclose(pmf_from_values([1, 0, 0]).cdf(), [1, 1, 1])

    def test_cdf_running_sum(self):
        assert np.allclose(pmf_from_values([0.25, 0.25, 0.5]).cdf(), [0.25, 0.5, 1.0])

    def test_mean_respects_step(self):
        p = pmf_from_values([0.5, 0.5], step_h=0.25)
        assert p.mean() == pytest.approx(0.125)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32))
    def test_cdf_nondecreasing_and_matches_partial_sums(self, raw):
        total = sum(raw)
        if total == 0.0:
            raw = [*raw, 1.0]
            total = 1.0
        masses = np.asarray(raw) / total
        p = pmf_from_values(masses)
        cdf = p.cdf()
        assert np.all(np.diff(cdf) >= -1e-15)
        # same summation order as construction
        assert cdf[-1] == pytest.approx(p.total_mass, abs=1e-12)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a host with at least 2 CPUs")
    def test_mean_and_rvar_do_not_depend_on_the_blas_thread_count(self):
        # a threaded BLAS splits a dot product over 10^4 entries across threads;
        # the mean and the RVaR of a 2^15-point pmf must not move with that split
        script = (
            "import numpy as np\n"
            "from allocgen.pmf import DiscretePMF\n"
            "from allocgen.risk_measures import RVaRLevels, rvar\n"
            "m = np.random.default_rng(1).pareto(1.5, 2**15 + 1)\n"
            "fs = DiscretePMF(m / m.sum(), 0.5)\n"
            "print(repr(fs.mean()), repr(rvar(fs, RVaRLevels(0.0, 1.0))))\n"
        )
        src = str(Path(allocgen.__file__).resolve().parent.parent)
        printed = {
            threads: subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        }
        assert printed["1"] == printed["2"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a host with at least 2 CPUs")
    def test_panjer_recursion_does_not_depend_on_the_blas_thread_count(self):
        # each step of the recursion sums a window as long as the severity; a
        # window over 10^4 entries must be summed the same way at any thread count
        script = (
            "import hashlib\n"
            "from allocgen.models import KatzParams, compound_pmf_panjer, negbin_rows\n"
            "sev = negbin_rows([2.0], [0.0005], 16384)[0][0]\n"
            "for freq in (KatzParams.poisson(3.0), KatzParams.negative_binomial(2.0, 0.4)):\n"
            "    g = compound_pmf_panjer(freq, sev, 20000)\n"
            "    print(hashlib.sha256(g.tobytes()).hexdigest())\n"
        )
        src = str(Path(allocgen.__file__).resolve().parent.parent)
        printed = {
            threads: subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        }
        assert printed["1"] == printed["2"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a host with at least 2 CPUs")
    def test_factored_rows_do_not_depend_on_the_blas_thread_count(self):
        # a pool whose band J is 16384 convolves rows over 10^4 entries long;
        # its rows, column sum and a band over every lattice point must be
        # summed the same way at any thread count
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from allocgen.allocation import allocate_compound_poisson_pool\n"
            "from allocgen.models import compound_poisson_risk\n"
            "from allocgen.scenario import compound_poisson_negbin_risk\n"
            "risks = [compound_poisson_negbin_risk(0.5, 2, 0.002, 16384),\n"
            "         compound_poisson_risk(0.3, [0.0, 0.5, 0.5])]\n"
            "table = allocate_compound_poisson_pool(risks, 32768)\n"
            "assert table.seq is not None and table.weights.shape[1] == 16384\n"
            "band = table.band(0, np.linspace(1.0, 2.0, table.kmax))\n"
            "for a in (table.rows(slice(None)), table.column_sum, table.fs.masses, band):\n"
            "    print(hashlib.sha256(a.tobytes()).hexdigest())\n"
        )
        src = str(Path(allocgen.__file__).resolve().parent.parent)
        printed = {
            threads: subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        }
        assert printed["1"] == printed["2"]


class TestArithmetize:
    @pytest.mark.parametrize(
        "alpha, lam, expected",
        [(1.3, 3.0, 9.201219), (1.9, 9.0, 9.988156)],
    )
    def test_power_law_reference_means(self, alpha, lam, expected):
        pmf, report = arithmetize(pareto_cdf(alpha, lam), pareto_lev(alpha, lam), 2**15)
        assert pmf.mean() == pytest.approx(expected, abs=5e-6)
        assert report.lost_mass > 0.0
        assert report.lost_mean > 0.0

    def test_power_law_limited_mean_at_alpha_one_is_the_limit(self):
        d = np.array([0.0, 1.0, 10.0, 1000.0])
        at_one = pareto_lev(1.0, 3.0)(d)
        assert np.array_equal(at_one, 3.0 * np.log1p(d / 3.0))
        for alpha in (1.0 - 1e-7, 1.0 + 1e-7):
            assert np.allclose(pareto_lev(alpha, 3.0)(d), at_one, rtol=1e-5, atol=0.0)

    def test_moment_matching_preserves_interior_limited_mean(self):
        # grid mean equals the integral of x dF up to the grid top for the exponential
        rate = 0.5
        kmax = 128
        pmf, _ = arithmetize(exponential_cdf(rate), exponential_lev(rate), kmax)
        top = kmax - 1
        exact = (1.0 - np.exp(-rate * top)) / rate - top * np.exp(-rate * top)
        assert pmf.mean() == pytest.approx(exact, abs=1e-9)

    @given(st.floats(0.2, 3.0))
    @settings(max_examples=25)
    def test_masses_nonnegative_and_account_for_tail(self, rate):
        pmf, report = arithmetize(exponential_cdf(rate), exponential_lev(rate), 64)
        assert np.all(pmf.masses >= 0.0)
        assert pmf.total_mass + report.lost_mass == pytest.approx(1.0, abs=1e-9)


class TestHelpers:
    def test_next_pow2(self):
        assert next_pow2(1) == 1
        assert next_pow2(33) == 64
        assert next_pow2(64) == 64

    def test_degenerate_helper(self):
        p = degenerate_pmf(5, 16)
        assert p.masses[5] == 1.0 and p.total_mass == 1.0

    def test_support_top(self):
        p = pmf_from_values([0.5, 0.5, 0.0, 0.0])
        assert p.support_top() == 1

    def test_masses_read_only(self):
        p = pmf_from_values([1.0])
        with pytest.raises(ValueError):
            p.masses[0] = 0.5
