"""Correctness gate applied to every job of every pass.

Two kinds of check:

* invariants, for every seed: properties the output must have whatever
  the inputs (finite deltas, a PMF that is a probability table with the
  right mean, cumulant means equal to r (x_j - x_0)/pi, converge deltas
  equal to r (numeric - asymptotic), ...);
* the frozen table, for the default seed only: every stored row compared
  with the values `make_reference.py` wrote from the seed code.

Tolerances are chosen so that a more accurate determinant route (ROADMAP
items 2-4) still passes; each carries its reason.
"""

from __future__ import annotations

import math

from workloads import Job, Outcome, table

# Closed-form values (the converge table's expansion column).  A
# re-derivation of the same formulas may reorder sums (ROADMAP item 5
# allows changes up to 1e-14 in ExpansionBreakdown values); 1e-12
# relative leaves a margin of 100x over that and is still far below any
# formula error.
CLOSED_FORM_RTOL = 1e-12

# All-positive weights, log F at n = 64/128 and r <= 40: the LU route is
# converged there (acceptance criterion 06 holds |F(128) - F(64)| below
# 1e-10 at those points) and the dual-route prototype agreed to 1e-12.
# 1e-9 is ten times the criterion-06 bound, so any route that meets
# criterion 06 passes and a wrong digit at 1e-8 does not.
POSITIVE_LOGF_ATOL = 1e-9

# One zero weight (hard gap), log F: the LU route's true error reaches
# 2.9e-6 at r = 40 (m = 4) against a 40-digit reference.  A route that is
# more accurate than the frozen values may differ from them by that much,
# so the tolerance is ten times it.
HARD_GAP_LOGF_ATOL = 3e-5

# PMF cells: joint_pmf itself resolves cells only to 1e-9 (it clamps
# (-1e-9, 0) to 0 and raises below that), and the determinants behind
# them (r <= 1.5) are converged far beyond that.
PMF_CELL_ATOL = 1e-9

# Cells plus residual sum to 1 by construction (residual = 1 - sum);
# what is left is rounding of a 28-term sum of 17-digit values.
PMF_TOTAL_ATOL = 1e-12

# Mean count of interval j from the table, sum_k k P(k), against the
# exact mean r (x_j - x_{j-1}) / pi.  The table stops at K = 2, so it
# misses sum_{k > 2} k P(N_j = k): 1.2e-7 at r = 1.5, the top of the
# drawn range (residual mass 9e-8 there), and 3e-9 at r = 1.  Each of the
# 27 cells may also be off by PMF_CELL_ATOL, weighted by k <= 2, which
# adds at most 5.4e-8.  1e-6 is about six times the sum of both.
PMF_MEAN_ATOL = 1e-6

# Numerical cumulants are difference quotients of log F at h = 1e-3:
# a change of 1e-12 in log F (a different determinant route) moves the
# first derivative by about 1e-9 and the second by about 1e-6.  The
# tolerances are 100 and 10 times those moves.
CUMULANT_MEAN_ATOL = 1e-7
CUMULANT_SECOND_ATOL = 1e-5

# The CLI makes its r values with numpy.geomspace(lo, hi, count); the
# gate recomputes them in plain floats, which agree to a few ulps.
R_RTOL = 1e-13


def _close(a, b, atol: float, rtol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _geomspace(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def _logf_atol(job: Job) -> float:
    return POSITIVE_LOGF_ATOL if job.p is None else HARD_GAP_LOGF_ATOL


def _invariants(job: Job, header: list[str], rows: list[list]) -> list[str]:
    bad: list[str] = []
    x = job.x
    m = len(x) - 1
    if job.r_range is not None:
        lo, hi, count = job.r_range
        rs = _geomspace(lo, hi, count)
        if len({row[0] for row in rows}) != count:
            bad.append(f"expected {count} distinct r values")
    if job.command == "converge":
        if header != ["r", "log_f_numeric", "log_f_asym", "delta"] or len(rows) != count:
            return [f"unexpected converge table shape {header} x {len(rows)}"]
        for want_r, (r, num, asym, delta) in zip(rs, rows):
            if not all(isinstance(v, float) and math.isfinite(v) for v in (r, num, asym, delta)):
                bad.append(f"non-finite converge row at r={r}")
                continue
            if not _close(r, want_r, 0.0, R_RTOL):
                bad.append(f"converge r {r} is not the scan point {want_r}")
            if not _close(delta, r * (num - asym), 1e-12 * r * max(abs(num), abs(asym)), 1e-12):
                bad.append(f"converge delta {delta} != r (numeric - asym) at r={r}")
    elif job.command == "pmf":
        k = job.k
        cells = [row for row in rows if row[0] is not None]
        residual = [row[-1] for row in rows if row[0] is None]
        if len(cells) != (k + 1) ** m or len(residual) != 1:
            return [f"unexpected pmf table shape: {len(cells)} cells, {len(residual)} residual rows"]
        probs = [row[-1] for row in cells]
        if any(not math.isfinite(v) or v < 0.0 for v in probs):
            bad.append("pmf cell negative or not finite")
        if residual[0] < -PMF_CELL_ATOL:
            bad.append(f"pmf mass outside the table is negative: {residual[0]!r}")
        if abs(math.fsum(probs) + residual[0] - 1.0) > PMF_TOTAL_ATOL:
            bad.append(f"pmf cells + residual = {math.fsum(probs) + residual[0]!r}, not 1")
        for j in range(m):
            mean = math.fsum(row[j] * row[-1] for row in cells)
            want = job.r * (x[j + 1] - x[j]) / math.pi
            if not _close(mean, want, PMF_MEAN_ATOL):
                bad.append(f"pmf mean of N_{j + 1} is {mean!r}, expected r len / pi = {want!r}")
    elif job.command == "cumulants":
        for stat, j, _, value in rows:
            if not math.isfinite(value):
                bad.append(f"cumulant {stat}_{j} not finite")
            elif stat == "mu":
                # counting_stats' mean of the nested count N_(r x_0, r x_j).
                want = job.r * (x[j] - x[0]) / math.pi
                if not _close(value, want, CUMULANT_MEAN_ATOL):
                    bad.append(f"cumulant mean mu_{j} = {value!r}, counting_stats gives {want!r}")
            elif stat == "sigma2" and value <= 0.0:
                bad.append(f"cumulant variance sigma2_{j} = {value!r} is not positive")
    return bad


def _column_tol(job: Job, column: str, value: float) -> float:
    """Absolute tolerance of one frozen cell."""
    if job.command == "converge":
        if column == "log_f_numeric":
            return _logf_atol(job)
        if column == "delta":
            # delta = r (numeric - asym) with r <= 40: the numeric tolerance times 40.
            return _logf_atol(job) * 40.0 + CLOSED_FORM_RTOL * max(1.0, abs(value))
    if job.command == "pmf":
        return PMF_CELL_ATOL
    if job.command == "cumulants":
        return CUMULANT_MEAN_ATOL if column == "mu" else CUMULANT_SECOND_ATOL
    return CLOSED_FORM_RTOL * max(1.0, abs(value))


def _against_frozen(job: Job, header: list[str], rows: list[list], frozen: dict) -> list[str]:
    if frozen["argv"] != list(job.argv):
        return [f"job arguments differ from the frozen table's: {frozen['argv']}"]
    stride = frozen["stride"]
    mine = rows[::stride]
    if frozen["header"] != header or len(mine) != len(frozen["rows"]):
        return [f"output shape differs from the frozen table ({len(mine)} vs {len(frozen['rows'])} rows)"]
    bad = []
    for i, (got, want) in enumerate(zip(mine, frozen["rows"])):
        for col, (a, b) in enumerate(zip(got, want)):
            if isinstance(b, str) or b is None:
                if a != b:
                    bad.append(f"row {i * stride} column {header[col]}: {a!r} != frozen {b!r}")
                continue
            column = got[0] if job.command == "cumulants" and col == 3 else header[col]
            if not (isinstance(a, (int, float)) and _close(a, b, _column_tol(job, column, b))):
                bad.append(f"row {i * stride} column {header[col]}: {a!r} != frozen {b!r}")
    return bad


def check(job: Job, outcome: Outcome, frozen: dict | None = None) -> list[str]:
    """Problems with one job's outcome; an empty list means it passed."""
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}: {outcome.error.strip()[-500:]}"]
    try:
        header, rows = table(job, outcome)
        problems = _invariants(job, header, rows)
        if frozen is not None:
            problems += _against_frozen(job, header, rows, frozen)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    return problems


def freeze(job: Job, outcome: Outcome, max_rows: int = 128) -> dict:
    """The frozen-table entry of one job: every stride-th row."""
    header, rows = table(job, outcome)
    stride = max(1, math.ceil(len(rows) / max_rows))
    return {"argv": list(job.argv), "header": header, "stride": stride, "rows": rows[::stride]}
