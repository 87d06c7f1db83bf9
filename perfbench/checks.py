"""Correctness checks computed apart from the program.

Operation accounting reads stats.csv and checks.json.  The Ito energy
balance is evaluated from the config's own mode list and from the initial
vorticity coefficients with this module's numpy.  Structural invariants,
the energy functionals and the RNG contract re-run a few paths through
`run_trajectory`'s public `observer` hook.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import noise_coefficients, noise_modes

FUNCTIONALS = ("sup_v_l2sq", "int_grad_v", "sup_xi_lq", "sup_beta_l2",
               "int_grad_beta", "sup_beta_lq")
Z_MC = 4.0  # one-sided Monte-Carlo allowance, in standard errors
INVARIANT_TOL = 1e-10
FUNCTIONAL_RTOL = 1e-12  # recomputed sup||v||^2 and int||grad v||^2 against stats.csv


def parse_stats(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def path_failed(row: dict) -> bool:
    """A main-MC path fails unless it completed with every functional finite."""
    if row.get("status") != "completed":
        return True
    return not all(math.isfinite(float(row[f])) for f in FUNCTIONALS)


def count_operations(stats_text: str, checks_text: str) -> tuple[int, int]:
    """(attempted, failed): one operation per main-MC path and per entry of
    checks.json; an entry fails when it reports FAIL."""
    rows = parse_stats(stats_text)
    entries = json.loads(checks_text)
    failed = sum(path_failed(r) for r in rows)
    failed += sum(1 for e in entries if e.get("passed") is not True)
    return len(rows) + len(entries), failed


# -- Ito energy balance ------------------------------------------------------------


def _wavenumbers(n: int, length: float):
    """Angular wavenumbers in FFT order, Nyquist zeroed as for any
    first derivative of a real field."""
    j = np.fft.fftfreq(n, 1.0 / n)
    j[n // 2] = 0.0
    k = (2.0 * np.pi / length) * j
    return k[:, None], k[None, :]


def velocity_energy(xi0: np.ndarray, length: float) -> float:
    """||v0||^2_{L^2} of the Biot-Savart velocity, from the vorticity
    coefficients: L^2 sum_{k != 0} |xi_k|^2 / |k|^2."""
    kx, ky = _wavenumbers(xi0.shape[0], length)
    ksq = kx * kx + ky * ky
    inv = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
    return float(length * length * np.sum(np.abs(xi0) ** 2 * inv))


def _riemann_factor(lam_dt: np.ndarray) -> np.ndarray:
    """Left-Riemann sum of 2|k|^2 |v_k|^2 dt over the exact discrete decay
    exp(-2|k|^2 dt), relative to the energy the mode loses."""
    x = 2.0 * lam_dt
    return np.where(x > 0, x / -np.expm1(-np.where(x > 0, x, 1.0)), 1.0)


def energy_balance(doc: dict, xi0: np.ndarray, rows: list[dict]) -> dict:
    """E[sup||v||^2] + 2 E int ||grad v||^2 against
    ||v0||^2 + T sum_k c_k^2 ||e_k||^2_{L^2}, with ||e_k||_{L^2} =
    (1+|k|^2)^{-(1-g)/2} (the constant mode is the unit-L^2 field 1/L).

    sigma <= 1 gives the upper bound on 2 E int ||grad v||^2; a constant
    sigma = 1 makes the balance an identity, so the lower bound holds too.
    """
    grid = doc["grid"]
    length = grid.get("domain_length", 2.0 * math.pi)
    noise = doc.get("noise", {})
    g = noise.get("roughness", 0.5)
    hy = noise.get("hy_level")
    dt, t_end = doc["solver"]["dt"], doc["solver"]["t_end"]
    k0 = 2.0 * math.pi / length
    lam = np.array([k0 * k0 * (j1 * j1 + j2 * j2) for j1, j2 in noise_modes(doc)])
    c2 = np.array(noise_coefficients(doc)) ** 2
    e2 = np.where(lam > 0, (1.0 + lam) ** -(1.0 - g), 1.0)
    if hy is not None:
        e2 = e2 * (hy / (hy + lam)) ** 2
    v0sq = velocity_energy(xi0, length)
    rhs = v0sq + t_end * float(np.sum(c2 * e2))
    # each step adds the noise before the heat factor, which damps it once
    rhs_low = v0sq + t_end * float(np.sum(c2 * e2 * np.exp(-2.0 * lam * dt)))

    # dt allowance: the left-Riemann dissipation overshoots the energy a mode
    # loses by _riemann_factor; take the worst noise mode and the
    # energy-weighted mean over the initial data's modes
    kx, ky = _wavenumbers(xi0.shape[0], length)
    ksq = kx * kx + ky * ky
    weight = np.abs(xi0) ** 2 * np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
    total_weight = float(np.sum(weight))
    v0_factor = (float(np.sum(weight * _riemann_factor(ksq * dt))) / total_weight
                 if total_weight > 0 else 1.0)
    dt_factor = max(v0_factor, float(np.max(_riemann_factor(lam * dt))))

    grad2 = np.array([2.0 * float(r["int_grad_v"]) for r in rows])
    total = grad2 + np.array([float(r["sup_v_l2sq"]) for r in rows])
    n = len(rows)

    def se(x):
        return float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else math.inf

    upper_ok = float(grad2.mean()) <= rhs * dt_factor + Z_MC * se(grad2)
    report = {"rhs": rhs, "rhs_low": rhs_low, "dt_factor": dt_factor,
              "mean_2int_grad": float(grad2.mean()), "upper_ok": bool(upper_ok),
              "mean_sup_plus_2int": float(total.mean())}
    lower_ok = True
    if noise.get("sigma_kind", "rational_square") == "constant_one":
        lower_ok = float(total.mean()) >= rhs_low - Z_MC * se(total)
        report["lower_ok"] = bool(lower_ok)
    report["ok"] = bool(upper_ok and lower_ok)
    return report


# -- structural invariants -------------------------------------------------------


def state_defects(vx: np.ndarray, vy: np.ndarray, xi: np.ndarray, zeta: np.ndarray,
                  beta: np.ndarray, length: float) -> dict:
    """Relative defects of curl v = xi, xi = zeta + beta, the mean mode and
    div v = 0, from the spectral coefficients."""
    kx, ky = _wavenumbers(xi.shape[0], length)
    xi_scale = max(float(np.max(np.abs(xi))), 1e-300)
    v_scale = max(float(np.max(np.abs(vx))), float(np.max(np.abs(vy))), 1e-300)
    k_max = float(np.max(np.sqrt(kx * kx + ky * ky)))
    curl = 1j * (kx * vy - ky * vx)
    return {
        "curl": float(np.max(np.abs(curl - xi))) / xi_scale,
        "split": float(np.max(np.abs(xi - zeta - beta))) / xi_scale,
        "mean": abs(complex(xi[0, 0])) / xi_scale,
        "divergence": float(np.max(np.abs(kx * vx + ky * vy))) / (k_max * v_scale),
    }


def velocity_norms(vx: np.ndarray, vy: np.ndarray, length: float) -> tuple[float, float]:
    """(||v||^2, ||grad v||^2) in L^2 by Parseval: L^2 sum_k w_k |v_k|^2 with
    w_k = 1 and w_k = |k|^2 (the Nyquist line keeps its |k|)."""
    j = np.fft.fftfreq(vx.shape[0], 1.0 / vx.shape[0])
    k = (2.0 * np.pi / length) * j
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    power = np.abs(vx) ** 2 + np.abs(vy) ** 2
    return (float(length * length * np.sum(power)),
            float(length * length * np.sum(ksq * power)))


def _relative_gap(mine: float, theirs: float) -> float:
    return abs(mine - theirs) / max(abs(mine), abs(theirs), 1e-300)


def rerun_paths(config_path: str, stats_rows: list[dict], paths: list[int]) -> dict:
    """Re-run `paths` serially through run_trajectory with an observer: the
    worst invariant defect over every visited state; the worst relative gap
    between sup||v||^2 and sum dt ||grad v||^2 (all states but the last),
    recomputed here from the visited states, and the stats.csv row; and
    whether each re-run reproduces its row bit for bit."""
    from vortex.config import load_config
    from vortex.integrator import run_trajectory

    cfg = load_config(config_path)
    spec = cfg.build_noise_spec()
    v0, xi0 = cfg.build_initial()
    length = cfg.grid.domain_length
    worst = {"curl": 0.0, "split": 0.0, "mean": 0.0, "divergence": 0.0}
    states = 0
    norms: list[tuple[float, float]] = []

    def observer(st):
        nonlocal states
        states += 1
        d = state_defects(st.v.vx.coeffs, st.v.vy.coeffs, st.xi.coeffs,
                          st.zeta.coeffs, st.beta.coeffs, length)
        for key, value in d.items():
            worst[key] = max(worst[key], value) if math.isfinite(value) else math.inf
        norms.append(velocity_norms(st.v.vx.coeffs, st.v.vy.coeffs, length))

    rows_match = True
    functional_gap = 0.0
    for p in paths:
        norms.clear()
        res = run_trajectory(v0, xi0, spec, cfg.solver, seed=cfg.mc.base_seed,
                             path_index=p, lq_exponent=cfg.lq_exponent,
                             observer=observer)
        row = stats_rows[p]
        rows_match &= res.stats.status == row["status"] and all(
            repr(res.stats.functional(f)) == row[f] for f in FUNCTIONALS)
        integral = 0.0
        for _, grad_sq in norms[:-1]:
            integral += cfg.solver.dt * grad_sq
        sup = max(v_sq for v_sq, _ in norms)
        functional_gap = max(functional_gap,
                             _relative_gap(sup, float(row["sup_v_l2sq"])),
                             _relative_gap(integral, float(row["int_grad_v"])))
    return {"defects": worst, "states": states, "rows_match": bool(rows_match),
            "functional_gap": functional_gap,
            "invariants_ok": all(v <= INVARIANT_TOL for v in worst.values()),
            "functionals_ok": functional_gap <= FUNCTIONAL_RTOL}
