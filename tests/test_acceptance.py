"""Acceptance gate: one test per headline criterion, at its stated tolerance.

Each test prints a single `[criterion N] PASS/FAIL — detail` line (visible
under `pytest -s` or in failure output) and then asserts, so the suite both
documents and enforces the contract.  Criterion 4 states a closed-form
approximation on a window where the approximated sum provably does not follow
it (the phase's stationary point leaves the summation range); the test runs
the stated check faithfully and fails — see the companion tests in
test_extremizers.py for the window where the closed form does hold.
"""

import math

import numpy as np
from regions import REGIONS

from mnlab.exponents import MixedExponents, theta, upper_bound_magnitude
from mnlab.extremizers import (
    SIN1,
    ColumnC,
    OnesD,
    RowR,
    UnitE,
    chirp_residual_sweep,
    dirichlet_quotient,
    unit_sharpness,
    verify_dirichlet_lower,
)
from mnlab.norms import CoefficientMatrix, lpq_norm, lrs_norm
from mnlab.opnorm import SearchConfig, estimate, sharpness_sweep
from mnlab.trigsum import EvalPlan, eval_nonortho, eval_sum

E2222 = MixedExponents(0.5, 0.5, 0.5, 0.5)


def _gate(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status} — {detail}", flush=True)
    assert passed, f"criterion {number} failed: {detail}"


def _random_matrix(rng, M, N):
    return CoefficientMatrix(M, N, rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))


def _random_exponents(rng):
    values = rng.uniform(0.0, 1.0, size=4)
    snap = rng.uniform(size=4) < 0.25
    values[snap] = rng.choice([0.0, 0.5, 1.0], size=int(snap.sum()))
    return MixedExponents(*values)


def test_criterion_1_parseval_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        M, N = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        A = _random_matrix(rng, M, N)
        f = eval_sum(A, EvalPlan(Kx=2 * M, Ky=2 * N))
        lhs = lrs_norm(f, E2222)
        rhs = lpq_norm(A, E2222)
        worst = max(worst, abs(lhs - rhs) / rhs)
    _gate(1, worst <= 1e-9, f"max relative Parseval defect {worst:.3e} over 100 matrices (limit 1e-9)")


def test_criterion_2_growth_bound_soundness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        M, N = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        A = _random_matrix(rng, M, N)
        e = _random_exponents(rng)
        f = eval_sum(A, EvalPlan(Kx=8 * M, Ky=8 * N))
        ratio = lrs_norm(f, e) / (upper_bound_magnitude(M, N, e) * lpq_norm(A, e))
        worst = max(worst, ratio)
    _gate(2, worst <= 1.01, f"max ratio lrs / (bound * lpq) = {worst:.6f} over 500 pairs (limit 1.01)")


def test_criterion_3_region_coverage():
    # The oracle is the paper's five-region table (tests/regions.py): every
    # sample must lie in some region, and every region that holds must give
    # theta there.
    rng = np.random.default_rng(103)
    samples = rng.uniform(0.0, 1.0, size=(100_000, 4))
    thetas = np.array([theta(MixedExponents(*row)) for row in samples])
    columns = samples.T
    covered = np.zeros(len(samples), dtype=bool)
    worst = 0.0
    for _, holds, value in REGIONS:
        inside = holds(*columns)
        covered |= inside
        if inside.any():
            worst = max(worst, float(np.abs(value(*columns) - thetas)[inside].max()))
    _gate(3, covered.all() and worst <= 1e-12,
          f"{int(covered.sum())} of 100000 samples covered; max |branch value - theta| over the "
          f"regions that hold {worst:.3e} (limit 1e-12)")


def test_criterion_4_chirp_residual_slope():
    # Stated check: on x in {0.2, ..., 0.8} at eta = 0.2, the residual
    # |sum - closed form| should stay bounded in M (slope <= 0.1) and
    # |sum|/sqrt(M) should approach sqrt(2/eta).  Measured: the sum is O(1)
    # on this window — its phase m(x - (eta/4) m/M) is stationary at
    # m* = 2Mx/eta >= 2M, beyond the summation range for every x >= eta/2 —
    # so the residual is dominated by the sqrt(M)-sized closed form and the
    # check cannot pass as stated.  The closed form is verified on x < eta/2
    # (where m* is interior) in test_extremizers.py.
    report = chirp_residual_sweep(
        0.2,
        [2**k for k in range(10, 17)],
        [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    )
    slope_ok = report.slope <= 0.1
    amp_ok = abs(report.amplitude_ratio - report.predicted_amplitude) <= 0.25 * report.predicted_amplitude
    _gate(
        4,
        slope_ok and amp_ok,
        f"residual slope {report.slope:.3f} (limit 0.1), amplitude ratio "
        f"{report.amplitude_ratio:.4f} vs predicted {report.predicted_amplitude:.4f} +-25%; "
        f"the stationary point 2Mx/eta exceeds M-1 on this whole window",
    )


def test_criterion_5_kernel_lower_bound():
    worst_margin = math.inf
    for M in (2, 4, 8, 16, 32, 64, 128, 256):
        xs = np.linspace(0.0, 1.0 / (math.pi * M), 66)
        via_module = np.asarray(dirichlet_quotient(M, xs))
        # Independent evaluation of the same quotient.
        with np.errstate(invalid="ignore"):
            direct = np.where(xs == 0.0, float(M), np.sin(np.pi * M * xs) / np.sin(np.pi * xs))
        floor = SIN1 * M
        worst_margin = min(worst_margin, float(np.min(via_module - floor)),
                           float(np.min(direct - floor)))
    _gate(5, worst_margin >= 0.0,
          f"min margin of sin(pi M x)/sin(pi x) over sin(1) M is {worst_margin:.6f} (exact, no tolerance)")


def test_criterion_6_single_entry_sharpness():
    rng = np.random.default_rng(106)
    worst = 0.0
    kinds = []
    for _ in range(10):
        M, N = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        value = complex(rng.standard_normal(), rng.standard_normal())
        kinds.append((M, N, UnitE(row=int(rng.integers(1, M + 1)),
                                  col=int(rng.integers(1, N + 1)),
                                  value=value if value != 0 else 1.0)))
    for _ in range(20):
        e = _random_exponents(rng)
        for M, N, kind in kinds:
            report = unit_sharpness(kind, M, N, e)
            worst = max(worst, abs(report.ratio - 1.0))
    _gate(6, worst <= 1e-6,
          f"max |ratio - 1| = {worst:.3e} over 10 positions x 20 exponent tuples (limit 1e-6)")


def test_criterion_7_search_brackets():
    cfg = SearchConfig(restarts=4, max_iters=40)
    sup_l1 = MixedExponents(1.0, 1.0, 0.0, 0.0)
    worst_l2 = 0.0
    worst_sup = 0.0
    all_sandwiched = True
    for size in (2, 3, 4):
        r2 = estimate(size, size, E2222, cfg)
        rs = estimate(size, size, sup_l1, cfg)
        worst_l2 = max(worst_l2, abs(r2.searched - 1.0))
        worst_sup = max(worst_sup, abs(rs.searched - 1.0))
        all_sandwiched = all_sandwiched and r2.sandwich_ok and rs.sandwich_ok
    passed = worst_l2 <= 1e-6 and worst_sup <= 1e-3 and all_sandwiched
    _gate(7, passed,
          f"search at the self-dual point off by {worst_l2:.2e} (limit 1e-6), at sup/l1 by "
          f"{worst_sup:.2e} (limit 1e-3), sandwich holds in all reports: {all_sandwiched}")


def test_criterion_8_certified_constants():
    sizes = [2, 4, 8, 16]
    cfg = SearchConfig(restarts=1, max_iters=1)
    cases = [
        # (kind, exponents on the equality slice, certified constant)
        (ColumnC(), MixedExponents(0.5, 0.75, 0.25, 0.5), SIN1 / math.pi**0.25),
        (RowR(), MixedExponents(0.75, 0.5, 0.5, 0.25), SIN1 / math.pi**0.25),
        (OnesD(), MixedExponents(0.5, 0.5, 0.25, 0.25), SIN1**2 / math.pi**0.5),
    ]
    worst_slack = math.inf
    all_sandwiched = True
    for kind, e, constant in cases:
        for size in sizes:
            direct = verify_dirichlet_lower(kind, size, size, e)
            worst_slack = min(worst_slack, direct.ratio - constant)
        for report in sharpness_sweep(sizes, sizes, [e], cfg):
            worst_slack = min(worst_slack, report.ratio_lower - constant)
            all_sandwiched = all_sandwiched and report.sandwich_ok
    passed = worst_slack >= -1e-9 and all_sandwiched
    _gate(8, passed,
          f"min (ratio_lower - certified constant) = {worst_slack:.3e} over three slices x sizes "
          f"{sizes} (limit -1e-9), sandwich holds: {all_sandwiched}")


def test_criterion_9_unit_frequency_boundedness():
    rng = np.random.default_rng(109)
    sizes = [2, 4, 8, 16, 32]
    max_ratios = []
    for size in sizes:
        K = max(8 * size, 64)
        plan = EvalPlan(Kx=K, Ky=K)
        worst = 0.0
        for _ in range(50):
            A = _random_matrix(rng, size, size)
            worst = max(worst, lrs_norm(eval_nonortho(A, plan), E2222) / lpq_norm(A, E2222))
        max_ratios.append(worst)
    growth = max_ratios[-1] / max_ratios[-2] - 1.0
    _gate(9, growth <= 0.10,
          f"max ratio per size {[round(r, 4) for r in max_ratios]}; growth between the two largest "
          f"sizes {growth:+.2%} (limit +10%); empirical constant {max(max_ratios):.4f}")
