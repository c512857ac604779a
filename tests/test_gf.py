import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from allocgen import gf
from allocgen.errors import InvalidSize
from allocgen.models import KatzParams, compound_pmf_panjer
from reference import direct_convolution, naive_dft, naive_idft, radix2_transform

real_vectors = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False), min_size=16, max_size=16
).map(np.asarray)


class TestTransformConvention:
    def test_delta_maps_to_ones(self):
        assert np.allclose(gf.dft([1, 0, 0, 0]), np.ones(4))

    def test_entry_zero_is_total_mass(self):
        assert gf.dft([0.5, 0.5, 0, 0])[0] == pytest.approx(1.0)

    def test_positive_exponent_sign(self):
        # [0,1,0,0] generates z itself: entry 1 must be exp(+2 pi i / 4) = +i
        out = gf.dft([0.0, 1.0, 0.0, 0.0])
        assert out[1] == pytest.approx(1j, abs=1e-15)

    def test_matches_direct_sum(self, rng):
        x = rng.normal(size=32)
        assert np.allclose(gf.dft(x), naive_dft(x), atol=1e-10)

    def test_matches_radix2_butterflies(self, rng):
        x = rng.normal(size=64)
        assert np.allclose(gf.dft(x), radix2_transform(x, sign=+1), atol=1e-9)

    def test_inverse_matches_direct_inverse(self, rng):
        x = rng.normal(size=32)
        buf = gf.dft(x)
        assert np.allclose(gf.idft(buf), naive_idft(buf), atol=1e-10)

    def test_all_ones_inverts_to_delta(self):
        out = gf.idft(np.ones(8, dtype=complex))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(out, expected, atol=1e-15)

    @given(real_vectors)
    @settings(max_examples=50)
    def test_round_trip(self, x):
        scale = max(1.0, np.max(np.abs(x)))
        assert np.max(np.abs(gf.idft(gf.dft(x)) - x)) <= 1e-12 * scale
        assert np.max(np.abs(gf.idft(gf.dft(x, half=True), half=True) - x)) <= 1e-12 * scale

    def test_round_trip_large(self, rng):
        x = rng.uniform(size=2**16)
        assert np.max(np.abs(gf.idft(gf.dft(x)) - x)) <= 1e-12

    def test_imaginary_residue_small(self, rng):
        x = rng.uniform(size=64)
        x /= x.sum()
        resid = np.max(np.abs(np.fft.fft(gf.dft(x)).imag / 64))
        assert resid <= 1e-10

    @given(real_vectors, real_vectors)
    @settings(max_examples=25)
    def test_linearity(self, x, y):
        lhs = gf.dft(2.5 * x - 0.5 * y)
        rhs = 2.5 * gf.dft(x) - 0.5 * gf.dft(y)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_right_shift_is_rootwise_multiplication(self, rng):
        # shifting coefficients right multiplies the transform by the root vector
        x = rng.uniform(size=16)
        x[-1] = 0.0
        shifted = np.roll(x, 1)
        z = np.exp(2j * np.pi * np.arange(16) / 16)
        assert np.allclose(gf.dft(shifted), z * gf.dft(x), atol=1e-12)


class TestHalfAndBlockForms:
    def test_half_matches_direct_sum(self, rng):
        x = rng.normal(size=32)
        assert np.allclose(gf.dft(x, half=True), naive_dft(x)[:17], atol=1e-10)

    def test_half_is_leading_part_of_full_spectrum(self, rng):
        x = rng.normal(size=(3, 64))
        half = gf.dft(x, half=True)
        assert half.shape == (3, 33)
        assert np.allclose(half, gf.dft(x)[..., :33], atol=1e-12)

    def test_half_positive_exponent_sign(self):
        assert gf.dft([0.0, 1.0, 0.0, 0.0], half=True)[1] == pytest.approx(1j, abs=1e-15)

    def test_half_inverse_matches_direct_inverse(self, rng):
        x = rng.normal(size=32)
        full = naive_dft(x)
        assert np.allclose(gf.idft(full[:17], half=True), naive_idft(full), atol=1e-10)

    def test_block_rows_match_single_rows(self, rng):
        x = rng.normal(size=(4, 16))
        full = gf.dft(x)
        half = gf.dft(x, half=True)
        for row, f, h in zip(x, full, half):
            assert np.allclose(f, naive_dft(row), atol=1e-10)
            assert np.allclose(h, naive_dft(row)[:9], atol=1e-10)
        assert np.allclose(gf.idft(full), [naive_idft(f) for f in full], atol=1e-10)
        assert np.allclose(gf.idft(half, half=True), x, atol=1e-12)

    def test_half_inverse_writes_into_out(self, rng):
        x = rng.normal(size=(2, 16))
        out = np.empty((2, 16))
        got = gf.idft(gf.dft(x, half=True), half=True, out=out)
        assert got is out
        assert np.allclose(out, x, atol=1e-12)

    def test_half_product_is_circular_convolution(self, rng):
        a = rng.uniform(size=16)
        b = rng.uniform(size=16)
        got = gf.idft(gf.dft(a, half=True) * gf.dft(b, half=True), half=True)
        want = gf.idft(gf.dft(a) * gf.dft(b))
        assert np.allclose(got, want, atol=1e-12)

    def test_non_power_of_two(self):
        with pytest.raises(InvalidSize):
            gf.dft(np.ones((2, 12)), half=True)
        with pytest.raises(InvalidSize):
            gf.idft(np.ones(6, dtype=complex), half=True)


class TestPointwiseProduct:
    def test_delta_is_identity(self, rng):
        b = gf.dft(rng.uniform(size=8))
        a = gf.dft([1, 0, 0, 0, 0, 0, 0, 0])
        assert np.allclose(a * b, b)

    def test_shift_composition(self):
        a = gf.dft([0, 1, 0, 0])
        out = gf.idft(a * a)
        assert np.allclose(out, [0, 0, 1, 0], atol=1e-15)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    )
    @settings(max_examples=25)
    def test_product_is_convolution_without_wrap(self, a_raw, b_raw):
        # supports confined to the first half: circular result equals the linear one
        a = np.zeros(16)
        b = np.zeros(16)
        a[:8] = a_raw
        b[:8] = b_raw
        got = gf.idft(gf.dft(a) * gf.dft(b))
        want = direct_convolution(a[:8], b[:8])[:16]
        want = np.pad(want, (0, 16 - len(want)))
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, want.max())


class TestLeaveOneOut:
    def test_matches_explicit_products_with_a_zero_row(self, rng):
        rows = rng.normal(size=(6, 16)) + 1j * rng.normal(size=(6, 16))
        total, _ = gf.leave_one_out(rows)
        assert np.allclose(total, np.prod(rows, axis=0), rtol=1e-13, atol=0.0)
        rows[2] = 0.0
        total, others = gf.leave_one_out(rows)
        assert np.all(total == 0.0)
        for i in range(6):
            want = np.prod(np.delete(rows, i, axis=0), axis=0)
            assert np.allclose(others[i], want, rtol=1e-13, atol=0.0)
        assert np.all(np.abs(others[2]) > 0.0)

    def test_single_row(self, rng):
        rows = rng.normal(size=(1, 8)) + 0j
        total, others = gf.leave_one_out(rows)
        assert np.array_equal(total, rows[0]) and np.array_equal(others, np.ones((1, 8)))


def random_sum_series(dist, severity, n):
    """The first n masses of sum_m P(N = m) f_B^{*m}, the powers by direct convolution."""
    out, power = np.zeros(n), np.eye(1)[0]
    for m in range(n):  # f_B^{*m} starts at m or later: a severity here has no mass at 0
        out[: min(len(power), n)] += dist.pmf(m) * power[:n]
        power = direct_convolution(power, severity)[:n]
    return out


class TestCompoundPgf:
    def test_inversion_matches_count_recursion(self):
        # the counting recursion against the series of convolution powers, two different algorithms
        sev = np.array([0.0, 0.1, 0.2, 0.4, 0.3])
        via_recursion = compound_pmf_panjer(KatzParams.poisson(0.08), sev, 64)
        assert np.max(np.abs(random_sum_series(stats.poisson(0.08), sev, 64) - via_recursion)) <= 1e-12

    def test_negative_binomial_count_matches_recursion(self):
        sev = np.array([0.0, 0.55, 0.3, 0.15])
        via_recursion = compound_pmf_panjer(KatzParams.negative_binomial(2.0, 0.45), sev, 512)
        assert np.max(np.abs(random_sum_series(stats.nbinom(2.0, 0.45), sev, 512) - via_recursion)) <= 1e-12
