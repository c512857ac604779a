"""Output checks, run untimed after each `allocgen run`.

Every check returns a list of error messages; an empty list means the output
passed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Euler splits add up to the total up to round-off in the summation.
EULER_RTOL = 1e-9
# Direct convolution against the CSV's own f_S agrees with the transform route
# to about 3e-13 relative on the 10k pool; these leave two orders of margin
# and still catch a 1e-9 relative change of one entry.
POOL_RTOL = 1e-11
POOL_ATOL = 1e-15  # relative to the column's largest entry
MASS_TOL = 1e-9

_RVAR = re.compile(r"^rvar\((\S+)\): total=(\S+) sum_contributions=(\S+)$")


@dataclass
class Report:
    valid_points: int
    identity_dev: float
    rvar: list[tuple[str, float, float]]  # (levels, total, sum of contributions)


def parse_report(text: str) -> Report:
    """The gate values and Euler splits of a ``report.txt``; raises ValueError if absent."""
    valid = dev = None
    rvar = []
    for line in text.splitlines():
        if line.startswith("valid_points: "):
            valid = int(line.split()[1])
        elif line.startswith("full_allocation_max_rel_dev_on_valid: "):
            dev = float(line.split()[1])
        elif m := _RVAR.match(line):
            rvar.append((m[1], float(m[2]), float(m[3])))
    if valid is None or dev is None:
        raise ValueError("report.txt lacks valid_points or full_allocation_max_rel_dev_on_valid")
    return Report(valid, dev, rvar)


def report_errors(text: str) -> list[str]:
    """Every ``rvar(...)`` line must have ``sum_contributions`` equal to ``total``."""
    try:
        report = parse_report(text)
    except ValueError as exc:
        return [str(exc)]
    if not report.rvar:
        return ["report.txt has no rvar lines"]
    return [
        f"rvar({levels}): contributions sum to {summed!r}, total is {total!r}"
        for levels, total, summed in report.rvar
        if not abs(summed - total) <= EULER_RTOL * max(1.0, abs(total))
    ]


def read_allocations(path: Path) -> dict[str, np.ndarray]:
    """Columns of an ``allocations.csv`` by header name."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {name: data[:, j] for j, name in enumerate(names)}


def pool_errors(columns: dict[str, np.ndarray], risks) -> list[str]:
    """Check a Poisson random-sum pool's CSV against transform-free references.

    ``risks`` is the pool rebuilt with ``scenario.build_portfolio``.  On valid
    rows each ``mu_i`` must equal ``lam_i sum_j j f_Bi(j) f_S(k - j)``, a direct
    convolution against the CSV's own ``f_S``.  Panjer recursion cannot serve
    here: ``exp(-Lambda)`` underflows for a pool of this size.
    """
    fs = columns["f_S"]
    valid = columns["valid"] == 1.0
    step = risks[0].severity.step_h
    errors = []
    if not valid.any():
        errors.append("no valid rows")
    mass = float(fs.sum())
    if not abs(mass - 1.0) <= MASS_TOL:
        errors.append(f"f_S sums to {mass!r}")
    mean = float(np.dot(step * columns["k"], fs))
    want = float(sum(r.mean() for r in risks))
    if not abs(mean - want) <= MASS_TOL * want:
        errors.append(f"mean of f_S is {mean!r}, the risks' means sum to {want!r}")
    for name in (n for n in columns if n.startswith("mu_")):
        risk = risks[int(name[3:]) - 1]
        fb = risk.severity.masses
        weights = risk.frequency.b * step * np.arange(len(fb)) * fb
        ref = np.convolve(weights, fs)[: len(fs)]
        diff = np.abs(columns[name] - ref)
        tol = POOL_RTOL * np.abs(ref) + POOL_ATOL * np.abs(ref).max()
        bad = np.flatnonzero(valid & ~(diff <= tol))
        if bad.size:
            k = int(bad[np.argmax(diff[bad] / tol[bad])])
            errors.append(
                f"{name}: {bad.size} valid rows differ from the direct convolution, "
                f"worst at k={k}: {float(columns[name][k])!r} vs {float(ref[k])!r}"
            )
    return errors
