import math

import numpy as np

from matchctl.report import ResidualEntry, ResidualReport


def det_report(residual: float, det: float) -> ResidualReport:
    rep = ResidualReport("explicit multiplier conditions")
    rep.add(ResidualEntry.max_over("symmetry", np.array([residual]), 1e-8))
    rep.add(ResidualEntry(name="regularity", value=det, tol=1e-12, passed=det > 1e-12,
                          residual=False, note="pass iff |det g| above floor"))
    return rep


def test_merge_max_takes_the_worst_residual_and_the_smallest_floored_value():
    merged = ResidualReport.merge_max("2 states", [det_report(1e-12, 1.5), det_report(3e-9, 1.2)])
    assert merged.entry("symmetry").value == 3e-9
    reg = merged.entry("regularity")
    assert (reg.value, reg.passed, reg.residual) == (1.2, True, False)
    assert reg.note == "pass iff |det g| above floor"
    # a floored value below its floor at one state fails the merge and is shown
    low = ResidualReport.merge_max("2 states", [det_report(0.0, 1.5), det_report(0.0, 1e-13)])
    assert (low.entry("regularity").value, low.entry("regularity").passed) == (1e-13, False)


def test_normalized_divides_by_the_largest_term_per_point():
    residuals = np.array([[0.5, -3.0], [1.0, 0.0], [np.nan, 0.0]])
    scales = [np.array([[2.0], [0.5], [1.0]]), np.array([[-6.0], [np.nan], [1.0]])]
    e = ResidualEntry.normalized("r", residuals[:2], [s[:2] for s in scales], 0.6)
    # 3 / 6 at the first point, 1 / max(1, NaN) read as 1 at the second
    assert (e.value, e.raw, e.passed) == (1.0, 1.0, False)
    e = ResidualEntry.normalized("r", residuals, scales, 0.6,
                                 skipped=np.array([False, True, True]), note="n")
    assert (e.value, e.raw, e.passed, e.note) == (0.5, 3.0, True, "")
    first_nan = ResidualEntry.normalized("r", residuals[::-1], [s[::-1] for s in scales], 0.6)
    assert math.isnan(first_nan.value) and not first_nan.passed
