"""Reference implementations used as test oracles.

These deliberately avoid the package's own fast paths: the direct O(n^2)
transform pins the sign/scale convention, the radix-2 butterfly pins it again
through a different algorithm, and the quadratic convolution checks the
product rule.  All but one avoid numpy's FFT as well; the exception is the f_S
of a Poisson pool by per-risk transforms, which checks the package's
transform-free route (the Panjer recursion) from the other side.  The
exponential cdf and limited mean are closed-form severities for the
arithmetization tests.
"""

import cmath
import math

import numpy as np


def exponential_cdf(rate: float):
    """cdf of the exponential severity with the given rate."""

    def cdf(x):
        return 1.0 - np.exp(-rate * np.asarray(x, dtype=float))

    return cdf


def exponential_lev(rate: float):
    """E[min(X, d)] for the exponential severity: (1 - e^(-rate d)) / rate."""

    def lev(d):
        return (1.0 - np.exp(-rate * np.asarray(d, dtype=float))) / rate

    return lev


def naive_dft(x):
    """Direct O(n^2) sum with the positive exponent."""
    n = len(x)
    out = np.empty(n, dtype=complex)
    for k in range(n):
        acc = 0j
        for j in range(n):
            acc += x[j] * cmath.exp(2j * math.pi * j * k / n)
        out[k] = acc
    return out


def naive_idft(buf):
    """Direct O(n^2) inverse with the negative exponent and real projection."""
    n = len(buf)
    out = np.empty(n)
    for k in range(n):
        acc = 0j
        for j in range(n):
            acc += buf[j] * cmath.exp(-2j * math.pi * j * k / n)
        out[k] = acc.real / n
    return out


def radix2_transform(x, sign=+1):
    """Iterative radix-2 butterfly transform, exponent sign selectable."""
    a = [complex(v) for v in x]
    n = len(a)
    assert n & (n - 1) == 0
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]
    length = 2
    while length <= n:
        ang = sign * 2.0 * math.pi / length
        wl = complex(math.cos(ang), math.sin(ang))
        for i in range(0, n, length):
            w = 1.0 + 0j
            for k in range(i, i + length // 2):
                u = a[k]
                v = a[k + length // 2] * w
                a[k] = u + v
                a[k + length // 2] = u - v
                w *= wl
        length <<= 1
    return np.array(a)


def direct_convolution(a, b):
    """Quadratic-time linear convolution sum_j a_j b_{k-j}."""
    out = np.zeros(len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    return out


def poisson_pmf_direct(lam, n):
    """Poisson masses by the series definition (log-space for stability)."""
    k = np.arange(n, dtype=float)
    logs = -lam + k * (math.log(lam) if lam > 0 else 0.0) - np.array(
        [math.lgamma(v + 1.0) for v in k]
    )
    out = np.exp(logs)
    if lam == 0.0:
        out = np.zeros(n)
        out[0] = 1.0
    return out


def negbin_pmf_per_risk(r, q, n):
    """NB(r, q) masses by the one-row recursion, stopped below the smallest normal float.

    The running product of the ratios (1-q)(r+k-1)/k is cumulated 512 at a
    time and carried from chunk to chunk; the row stops after the first
    chunk that ends below the smallest normal float with a ratio below 1, and
    masses below that float are zeros.  The row-wise recursion must match it
    bit for bit wherever q^r is a normal float.
    """
    tiny = np.finfo(float).tiny
    f = np.zeros(n)
    f[0] = q**r
    prod = 1.0
    for start in range(1, n, 512):
        k = np.arange(start, min(start + 512, n), dtype=float)
        ratios = (1.0 - q) * (r + k - 1.0) / k
        ratios[0] *= prod
        np.cumprod(ratios, out=ratios)
        f[start : start + len(k)] = f[0] * ratios
        prod = ratios[-1]
        if f[start + len(k) - 1] < tiny and (1.0 - q) * (r + k[-1] - 1.0) < k[-1]:
            break
    f[f < tiny] = 0.0
    return f


def compound_poisson_pool_fs(risks, kmax, block=256):
    """f_S of independent Poisson random sums, exp(sum_i lam_i (P_Bi - 1)) on the roots of unity.

    Each severity (cut at kmax) is transformed on its own with numpy's real
    FFT, ``block`` risks at a time; the rate-weighted log-spectra are summed
    and exponentiated once, and one inverse transform gives f_S.
    """
    log_hat = np.zeros(kmax // 2 + 1, dtype=complex)
    for start in range(0, len(risks), block):
        part = risks[start : start + block]
        rows = np.zeros((len(part), kmax))
        for row, r in zip(rows, part):
            m = min(kmax, len(r.severity.masses))
            row[:m] = r.severity.masses[:m]
        rows[:, 0] -= 1.0
        log_hat += np.array([r.frequency.b for r in part]) @ np.fft.rfft(rows, axis=1)
    return np.fft.irfft(np.exp(log_hat), n=kmax)


def euler_rvar_cumulative(table, a1, a2):
    """Euler split of RVaR from boundary terms and a difference of cumulative allocations.

    Each quantile atom i1 < i2 of the band (a1, a2] contributes mu_i(k) times
    the fraction of its mass the band takes; the atoms in between contribute
    cum_i(i2 - 1) - cum_i(i1), or the decumulative total_i - cum_i(i1) when
    a2 = 1, where the band runs to the top of the buffer.  Equal levels, or
    levels inside one atom, give the conditional mean at i1.
    """
    cdf = table.fs.cdf()
    mu = table.expected_allocation
    cum = np.cumsum(mu, axis=1)
    i1 = int(np.searchsorted(cdf, a1, side="left"))
    i2 = len(cdf) if a2 == 1.0 else int(np.searchsorted(cdf, a2, side="left"))
    if a1 == a2 or i1 == i2:
        return mu[:, i1] / table.fs.masses[i1]
    lower = mu[:, i1] * ((cdf[i1] - a1) / table.fs.masses[i1])
    if a2 == 1.0:
        return (lower + (mu.sum(axis=1) - cum[:, i1])) / (1.0 - a1)
    upper = mu[:, i2] * ((a2 - cdf[i2 - 1]) / table.fs.masses[i2])
    return (lower + (cum[:, i2 - 1] - cum[:, i1]) + upper) / (a2 - a1)


def compound_pmf_panjer_loop(frequency, severity, kmax):
    """pmf of a random sum by the counting recursion, one coefficient vector per lattice point.

    The loop ``models.compound_pmf_panjer`` ran before it stored its
    coefficients reversed: each step forms a + b j / k over the window and
    dots it with a reversed view of the masses so far.  The scaled start, the
    rescaling and the support cut are the same.
    """
    from allocgen.models import _PANJER_RESCALE_AT, _PANJER_SHIFT, _TINY

    a, b = frequency.a, frequency.b
    fb = np.zeros(kmax)
    m = min(kmax, len(severity))
    fb[:m] = severity[:m]
    if a == 0.0:
        g0 = np.exp(b * (fb[0] - 1.0))
    else:
        g0 = ((1.0 - a) / (1.0 - a * fb[0])) ** (b / a + 1.0)
    e = 0
    scaled = not g0 >= _TINY
    if scaled:
        if a == 0.0:
            log_g0 = b * (fb[0] - 1.0)
        else:
            log_g0 = (b / a + 1.0) * math.log((1.0 - a) / (1.0 - a * fb[0]))
        e = math.floor(log_g0 / math.log(2.0))
        g0 = math.exp(log_g0 - e * math.log(2.0))
    denom = 1.0 - a * fb[0]
    g = np.zeros(kmax)
    g[0] = g0
    top = int(np.flatnonzero(fb)[-1]) if fb.any() else 0
    j = np.arange(1, kmax, dtype=float)
    afb = a * fb[1:]
    bjfb = b * j * fb[1:]
    for k in range(1, kmax):
        mm = min(k, top)
        if mm == 0:
            g[k] = 0.0
            continue
        window = g[k - mm : k][::-1]
        g[k] = ((afb[:mm] + bjfb[:mm] / k) @ window) / denom
        if scaled and g[k] > _PANJER_RESCALE_AT:
            g[: k + 1] *= 2.0**-_PANJER_SHIFT
            e += _PANJER_SHIFT
    if scaled:
        g = np.ldexp(g, e)
    ftop = frequency.support_top()
    if ftop is not None and ftop * top + 1 < kmax:
        g[ftop * top + 1 :] = 0.0
    return g


def banded_product_blocked(weights, fs):
    """W T with T[j, k] = fs(k - j), zero for j > k, as one matrix product per block of columns.

    The dense route a Poisson pool's whole table was once formed by: row k of
    the sliding windows of the padded f_S, reversed, is column k of T, and each
    block of columns of T and of the product takes about ``BLOCK_BYTES``.
    The product keeps the precision of its factors.
    """
    from allocgen.allocation import row_blocks

    n, band = weights.shape
    kmax = len(fs)
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(fs, (band - 1, 0)), band)
    mu = np.empty((n, kmax), dtype=np.result_type(weights, fs))
    for cols in row_blocks(kmax, max(n, band)):
        np.matmul(weights, windows[cols, ::-1].T, out=mu[:, cols])
    return mu


def materialised_weights(table):
    """A table's terms with each W as one array: read a row block at a time, as the queries read it."""
    from allocgen.models import ROW_BLOCK

    return tuple(
        (rows, np.concatenate([w[lo : lo + ROW_BLOCK] for lo in range(0, w.shape[0], ROW_BLOCK)]), seq)
        for rows, w, seq in table.terms
    )


def same_weights(a, b):
    """Whether tables ``a`` and ``b`` have terms over the same rows with the same W, bit for bit.

    Their sequences may differ: a sampled pool and its list sum the same masses in different orders.
    """
    return all(
        np.array_equal(rows_a, rows_b) and np.array_equal(w_a, w_b)
        for (rows_a, w_a, _), (rows_b, w_b, _) in zip(materialised_weights(a), materialised_weights(b), strict=True)
    )


def factored_product(table):
    """Every row of a table, the sum of its terms' W T in long double: the dense form it stands for."""
    mu = np.zeros((table.n_risks, table.kmax), dtype=np.longdouble)
    for rows, w, seq in materialised_weights(table):
        mu[rows] += w if seq is None else banded_product_blocked(w.astype(np.longdouble), seq.astype(np.longdouble))
    return mu
