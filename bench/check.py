"""Output checks for region jobs, independent of `secregion` (numpy/scipy only).

Each bound below is computed here from the channel matrices alone:

* Upper: user k decodes the common message and its own, so every point
  satisfies r0 + rk <= Ck(p), the water-filling capacity of user k's link.
* Lower: the methods that solve each message alone at full power must
  reach what a simple design already achieves.  A private user reaches
  Ck(p); a confidential user reaches the rate of the best rank-one beam,
  0.5 * log2 of the top generalized eigenvalue of
  (I + p H_k^T H_k, I + p H_j^T H_j); with the common message on, r0
  reaches the isotropic-input rate min_k 0.5 * log2|I + (p/nt) H_k H_k^T|.
* Format: the CSV header, finite nonnegative rates, known order tags,
  `ps` fractions on the simplex, no row dominating another, and the
  sidecar's `n_points` equal to the row count.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh

HEADER = "r0,r1,r2,order,alpha0,alpha1,alpha2"
ORDERS = ("12", "21", "na")

# Slack on the capacity upper bounds, as pinned by the region contract.
UPPER_SLACK = 1e-9
# Shortfall allowed where the program solves a user's message exactly
# (water-filling) or by a search that contains the bound's design.  The
# wiretap search has stopped up to 5.2e-8 bits below the rank-one beam
# (random 4x2 pairs, 40 seeds).
REACH_TOL = 1e-6
# Shortfall allowed for `wsr`: its multiplier bisection stops within eps2
# (1e-5) of the power crossing, which leaves the endpoints 4.6e-5 bits
# short on ch_row3 C and 1.1e-4 bits short on ch22 A.
WSR_REACH_TOL = 5e-4
SIMPLEX_TOL = 1e-9


def capacity(h: np.ndarray, p: float) -> float:
    """max 0.5*log2|I + H Q H^T| over tr(Q) <= p, by water-filling on H^T H."""
    s = np.linalg.svd(np.asarray(h, float), compute_uv=False)  # descending
    if p <= 0 or s.size == 0 or s[0] <= 0.0:
        return 0.0
    gains = s[s > 1e-12 * s[0]] ** 2
    floors = 1.0 / gains
    # Largest active set whose level stays above its last floor.
    for k in range(gains.size, 0, -1):
        level = (p + floors[:k].sum()) / k
        if level >= floors[k - 1]:
            break
    return 0.5 * float(np.sum(np.log2(level * gains[:k])))


def rank_one_secrecy(hm: np.ndarray, he: np.ndarray, p: float) -> float:
    """Secrecy rate of the best unit beam at full power, clamped at zero."""
    nt = hm.shape[1]
    a = np.eye(nt) + p * hm.T @ hm
    b = np.eye(nt) + p * he.T @ he
    top = float(eigh(a, b, eigvals_only=True)[-1])
    return max(0.5 * math.log2(top), 0.0)


def isotropic_common(h1: np.ndarray, h2: np.ndarray, p: float) -> float:
    """Common-message rate of Q = (p/nt) I, the worse of the two links."""
    nt = h1.shape[1]
    rates = []
    for h in (h1, h2):
        _, logdet = np.linalg.slogdet(np.eye(h.shape[0]) + (p / nt) * h @ h.T)
        rates.append(0.5 * logdet / math.log(2.0))
    return min(rates)


def lower_bounds(h1, h2, scenario: str, common: bool, p: float) -> dict:
    """Column -> rate the full-power single-message design must reach."""
    out = {
        "r1": rank_one_secrecy(h1, h2, p) if scenario in ("B", "C") else capacity(h1, p),
        "r2": rank_one_secrecy(h2, h1, p) if scenario == "C" else capacity(h2, p),
    }
    if common:
        out["r0"] = isotropic_common(h1, h2, p)
    return out


def read_csv(path) -> tuple:
    """(header, rows); each row is (r0, r1, r2, order, alphas-as-strings)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return "", []
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 7:
            raise ValueError(f"row {line!r} has {len(cells)} fields, expected 7")
        rows.append((float(cells[0]), float(cells[1]), float(cells[2]), cells[3], cells[4:]))
    return lines[0], rows


def read_meta(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _format_problems(header, rows, method, scenario, common) -> list:
    problems = []
    if header != HEADER:
        problems.append(f"header is {header!r}, expected {HEADER!r}")
    if not rows:
        problems.append("no rows")
    for i, (r0, r1, r2, order, alphas) in enumerate(rows):
        rates = (r0, r1, r2)
        if not all(math.isfinite(r) and r >= 0.0 for r in rates):
            problems.append(f"row {i}: rates {rates} are not finite and nonnegative")
        if order not in ORDERS or (scenario == "B" and order == "21"):
            problems.append(f"row {i}: order tag {order!r} not allowed in scenario {scenario}")
        if not common and r0 != 0.0:
            problems.append(f"row {i}: r0 = {r0} with the common message off")
        if method != "ps" or (all(a == "" for a in alphas) and rates == (0.0, 0.0, 0.0)):
            if any(a != "" for a in alphas):
                problems.append(f"row {i}: unexpected split fractions {alphas}")
            continue
        try:
            a = [float(x) for x in alphas]
        except ValueError:
            problems.append(f"row {i}: split fractions {alphas} are not numbers")
            continue
        if min(a) < -SIMPLEX_TOL or abs(sum(a) - 1.0) > SIMPLEX_TOL:
            problems.append(f"row {i}: split fractions {a} are off the simplex")
        if not common and abs(a[0]) > SIMPLEX_TOL:
            problems.append(f"row {i}: alpha0 = {a[0]} with the common message off")
    return problems


def _dominance_problems(rates: np.ndarray) -> list:
    problems = []
    for i in range(len(rates)):
        ge = (rates[i] >= rates).all(axis=1) & (rates[i] > rates).any(axis=1)
        for j in np.flatnonzero(ge):
            problems.append(f"row {i} {rates[i].tolist()} dominates row {j} {rates[j].tolist()}")
    return problems


def check_region(csv_path, h1, h2, scenario, common, method, power) -> list:
    """Problems found in one job's CSV and sidecar; empty when it passes."""
    h1 = np.asarray(h1, float)
    h2 = np.asarray(h2, float)
    try:
        header, rows = read_csv(csv_path)
        meta = read_meta(str(csv_path) + ".meta")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = _format_problems(header, rows, method, scenario, common)
    if meta.get("n_points") != str(len(rows)):
        problems.append(f"sidecar n_points={meta.get('n_points')} but the CSV has {len(rows)} rows")
    if not rows or problems:
        return problems
    rates = np.array([r[:3] for r in rows])
    problems += _dominance_problems(rates)

    c1, c2 = capacity(h1, power), capacity(h2, power)
    for name, col, cap in (("user 1", 1, c1), ("user 2", 2, c2)):
        worst = float((rates[:, 0] + rates[:, col]).max())
        if worst > cap + UPPER_SLACK:
            problems.append(f"{name}: r0 + r{col} = {worst!r} exceeds capacity {cap!r}")

    # tdma serves each message in its own equal slot at full power.
    scale = {"tdma": 3.0 if common else 2.0}.get(method, 1.0)
    tol = {"ps": REACH_TOL, "oma": REACH_TOL, "tdma": REACH_TOL, "wsr": WSR_REACH_TOL}.get(method)
    if tol is not None:
        for column, bound in lower_bounds(h1, h2, scenario, common, power).items():
            best = scale * float(rates[:, int(column[1])].max())
            if best < bound - tol:
                problems.append(
                    f"max {column} = {best!r} falls {bound - best:.3g} short of {bound!r}"
                )
    return problems
