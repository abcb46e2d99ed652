"""Tests for the output checker: each planted violation must be caught.

Run with `python3 -m pytest bench/test_check.py -q` from the repository
root.  The regions here are written by hand, so the tests need neither
`secregion` nor a solver.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402

# Orthogonal users: user 1 sees antenna 1 with gain 4, user 2 antenna 2
# with gain 1, so every rate below has a closed form.
H1 = np.array([[2.0, 0.0]])
H2 = np.array([[0.0, 1.0]])
P = 2.0
C1 = 0.5 * math.log2(1 + 4 * P)
C2 = 0.5 * math.log2(1 + 1 * P)
MID = (0.0, 0.5 * math.log2(1 + 4 * 1.0), 0.5 * math.log2(1 + 1.0))

VALID_PS = [
    ((0.0, 0.0, C2), "12", ("0", "0", "1")),
    (MID, "12", ("0", "0.5", "0.5")),
    ((0.0, C1, 0.0), "12", ("0", "1", "0")),
]


def write_region(tmp_path, rows, header=check.HEADER, n_points=None):
    csv = tmp_path / "region.csv"
    lines = [header]
    for rates, order, alphas in rows:
        lines.append(",".join([*(format(r, ".17g") for r in rates), order, *alphas]))
    csv.write_text("\n".join(lines) + "\n")
    n = len(rows) if n_points is None else n_points
    (tmp_path / "region.csv.meta").write_text(f"method=ps\nn_points={n}\n")
    return csv


def problems(csv, scenario="A", common=False, method="ps", h1=H1, h2=H2, p=P):
    return check.check_region(csv, h1, h2, scenario, common, method, p)


def test_capacity_matches_closed_form():
    h = np.diag([2.0, 1.0])
    # Level mu with (mu - 1/4) + (mu - 1) = 3 gives mu = 2.125.
    expected = 0.5 * (math.log2(2.125 * 4) + math.log2(2.125 * 1))
    assert check.capacity(h, 3.0) == pytest.approx(expected, abs=1e-12)
    # A weak second mode stays off: level 1/4 + 0.5 is below its floor 100.
    assert check.capacity(np.diag([2.0, 0.1]), 0.5) == pytest.approx(
        0.5 * math.log2(1 + 4 * 0.5), abs=1e-12
    )


def test_rank_one_secrecy_is_the_best_beam():
    rng = np.random.default_rng(3)
    hm, he = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    best = check.rank_one_secrecy(hm, he, 5.0)
    beams = rng.standard_normal((2000, 3))
    beams /= np.linalg.norm(beams, axis=1, keepdims=True)

    def rate(h, v):
        return 0.5 * math.log2(1 + 5.0 * float(np.sum((h @ v) ** 2)))

    sampled = max(rate(hm, v) - rate(he, v) for v in beams)
    assert best >= sampled - 1e-12
    assert best - sampled < 1e-2


def test_valid_region_passes(tmp_path):
    assert problems(write_region(tmp_path, VALID_PS)) == []


def test_wrong_header_is_caught(tmp_path):
    csv = write_region(tmp_path, VALID_PS, header="r0,r1,r2,order")
    assert any("header" in p for p in problems(csv))


def test_point_above_capacity_is_caught(tmp_path):
    rows = [*VALID_PS[:2], ((0.0, C1 + 1e-6, 0.0), "12", ("0", "1", "0"))]
    assert any("exceeds capacity" in p for p in problems(write_region(tmp_path, rows)))


def test_common_plus_private_above_capacity_is_caught(tmp_path):
    rows = [*VALID_PS, ((0.2, C1 - 0.1, 0.0), "12", ("0.2", "0.8", "0"))]
    found = problems(write_region(tmp_path, rows), common=True)
    assert any("r0 + r1" in p for p in found)


def test_private_user_short_of_capacity_is_caught(tmp_path):
    rows = [*VALID_PS[:2], ((0.0, C1 - 1e-5, 0.0), "12", ("0", "1", "0"))]
    assert any("max r1" in p for p in problems(write_region(tmp_path, rows)))


def test_confidential_user_short_of_rank_one_rate_is_caught(tmp_path):
    # Users on orthogonal antennas leak nothing: the secrecy bound is C1.
    assert check.rank_one_secrecy(H1, H2, P) == pytest.approx(C1, abs=1e-12)
    rows = [VALID_PS[0], ((0.0, C1 - 1e-4, 0.0), "12", ("0", "1", "0"))]
    assert any("max r1" in p for p in problems(write_region(tmp_path, rows), scenario="B"))


def test_common_rate_short_of_isotropic_rate_is_caught(tmp_path):
    iso = check.isotropic_common(H1, H2, P)
    rows = [*VALID_PS, ((iso - 1e-4, 0.0, 0.0), "12", ("1", "0", "0"))]
    assert any("max r0" in p for p in problems(write_region(tmp_path, rows), common=True))
    rows[-1] = ((iso, 0.0, 0.0), "12", ("1", "0", "0"))
    assert problems(write_region(tmp_path, rows), common=True) == []


def test_wsr_shortfall_beyond_its_tolerance_is_caught(tmp_path):
    def wsr_rows(short):
        return [
            ((0.0, 0.0, C2), "12", ("", "", "")),
            ((0.0, C1 - short, 0.0), "12", ("", "", "")),
        ]

    within = write_region(tmp_path, wsr_rows(0.5 * check.WSR_REACH_TOL))
    assert problems(within, method="wsr") == []
    beyond = write_region(tmp_path, wsr_rows(2 * check.WSR_REACH_TOL))
    assert any("max r1" in p for p in problems(beyond, method="wsr"))


def test_split_fractions_off_the_simplex_are_caught(tmp_path):
    rows = [VALID_PS[0], (MID, "12", ("0", "0.5", "0.6")), VALID_PS[2]]
    assert any("simplex" in p for p in problems(write_region(tmp_path, rows)))
    rows[1] = (MID, "12", ("0", "-0.1", "1.1"))
    assert any("simplex" in p for p in problems(write_region(tmp_path, rows)))


def test_dominated_row_is_caught(tmp_path):
    inner = (0.0, MID[1] - 0.1, MID[2] - 0.1)
    rows = [*VALID_PS, (inner, "12", ("0", "0.4", "0.6"))]
    assert any("dominates" in p for p in problems(write_region(tmp_path, rows)))


def test_sidecar_point_count_mismatch_is_caught(tmp_path):
    csv = write_region(tmp_path, VALID_PS, n_points=len(VALID_PS) + 1)
    assert any("n_points" in p for p in problems(csv))


def test_forbidden_order_and_negative_rate_are_caught(tmp_path):
    rows = [VALID_PS[0], (MID, "21", ("0", "0.5", "0.5")), VALID_PS[2]]
    assert any("order" in p for p in problems(write_region(tmp_path, rows), scenario="B"))
    rows[1] = ((0.0, -1e-3, MID[2]), "12", ("0", "0.5", "0.5"))
    assert any("nonnegative" in p for p in problems(write_region(tmp_path, rows)))
