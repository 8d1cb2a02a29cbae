"""The row gate: every output value is checked against its range and its
reference, and the accuracy metrics are computed from the same comparison.

A reference entry (one per row in `reference.json`) holds:
  kind   closed | asymptote | quad | cdf | mc
  value  the reference value
  hi     the upper end of the admissible range (the lower end is 0)
  rtol   relative tolerance for a reference with exact inputs
  sd     standard deviation of the row from Monte-Carlo inputs: the row's
         own d-factor estimate for sweep rows of the dual-reception
         protocols, or the reference's sampling error for mc rows
A row fails if it raised, is missing, is non-finite, lies outside [0, hi],
or differs from the reference by more than rtol |value| + 4 sd, where for mc
rows sd is combined with the row's own standard error.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

DIGITS_CAP = 12.0
N_SIGMA = 4.0


@dataclass(frozen=True)
class Verdict:
    id: str
    ok: bool
    reason: str = ""
    digits: float | None = None      # only for rows with exact inputs


def check(ref: dict, value: float, std_error: float | None = None,
          error: str | None = None, row_id: str = "") -> Verdict:
    """Gate one row against its reference entry."""
    if error is not None:
        return Verdict(row_id, False, f"raised: {error}")
    if not math.isfinite(value):
        return Verdict(row_id, False, f"non-finite value {value!r}")
    target = ref["value"]
    diff = abs(value - target)
    sd = ref.get("sd", 0.0)
    if ref["kind"] == "mc":
        if std_error is None or not math.isfinite(std_error) or std_error < 0.0:
            return Verdict(row_id, False, f"invalid standard error {std_error!r}")
        sd = math.hypot(sd, std_error)
    tol = ref.get("rtol", 0.0) * abs(target) + N_SIGMA * sd
    digits = None
    if sd == 0.0 and ref["kind"] != "mc":
        digits = DIGITS_CAP if diff == 0.0 else min(DIGITS_CAP, -math.log10(diff / abs(target)))
    if value < 0.0:
        return Verdict(row_id, False, f"negative value {value!r}", digits)
    if value > ref["hi"]:
        return Verdict(row_id, False, f"value {value!r} above ceiling {ref['hi']!r}", digits)
    if diff > tol:
        return Verdict(row_id, False, f"misses reference {target!r} by {diff:.3e} (tolerance {tol:.3e})",
                       digits)
    return Verdict(row_id, True, "", digits)


def gate(rows: list, expected: dict) -> tuple[list, list]:
    """(verdicts, problems): one verdict per expected row, in the order of
    `expected`.  An expected row that the output lacks fails as missing;
    output rows that no reference expects are reported as problems."""
    by_id = {}
    problems = []
    for row in rows:
        if row.id in by_id:
            problems.append(f"duplicate row {row.id}")
        by_id[row.id] = row
    verdicts = []
    for row_id, ref in expected.items():
        row = by_id.pop(row_id, None)
        if row is None:
            verdicts.append(Verdict(row_id, False, "missing from the output"))
        else:
            verdicts.append(check(ref, row.value, row.std_error, row.error, row_id))
    problems.extend(f"unexpected row {row_id}" for row_id in by_id)
    return verdicts, problems


def min_digits(verdicts: list, expected: dict) -> float:
    """Minimum over sum-BER rows with exact inputs (closed form, asymptote,
    quadrature) of -log10(relative error), capped at DIGITS_CAP.  CDF points
    are gated but left out: at small thresholds their relative error exceeds
    1 and the minimum would leave the positive range.  A workload without
    such rows reports the cap."""
    vals = [v.digits for v in verdicts
            if v.digits is not None and expected[v.id]["kind"] in ("closed", "asymptote", "quad")]
    return min(vals, default=DIGITS_CAP)


def mc_rel_se(rows: list) -> float:
    """Median over Monte-Carlo rows of std_error / mean; 1.0 (no information)
    for a workload without Monte-Carlo rows."""
    vals = [r.std_error / r.value for r in rows
            if r.std_error is not None and r.error is None and r.value > 0.0]
    return statistics.median(vals) if vals else 1.0


def failed_share(failed: int, attempted: int) -> float:
    """(failed + 1) / (attempted + 1): the add-one estimate of the failure
    rate, which stays above 0 when no row fails."""
    return (failed + 1) / (attempted + 1)
