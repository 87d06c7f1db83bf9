"""The three benchmark workloads, as `vortex run` config documents.

Sizes are fixed; only `mc.base_seed` comes from the benchmark's --seed, so
every seed asks for the same amount of work.
"""

from __future__ import annotations

import math

MAX_BASE_SEED = 2**63


def _mc_small_grid(base_seed: int) -> dict:
    return {
        "grid": {"modes_per_dim": 64},
        "solver": {"dt": 0.005, "t_end": 0.15},
        "noise": {"mode_band": 2, "sigma_kind": "rational_square"},
        "mc": {"n_paths": 16, "base_seed": base_seed},
        "checks": [{"name": "energy"}, {"name": "identities", "trials": 4}],
        "output": {"snapshot_stride": 10},
    }


def _mc_large_grid(base_seed: int) -> dict:
    return {
        "grid": {"modes_per_dim": 256},
        "solver": {"dt": 0.002, "t_end": 0.032},
        "noise": {"mode_band": 2, "sigma_kind": "rational_square"},
        "mc": {"n_paths": 4, "base_seed": base_seed},
        "checks": [{"name": "energy"}],
    }


def _check_drivers(base_seed: int) -> dict:
    return {
        "grid": {"modes_per_dim": 32},
        "solver": {"dt": 0.01, "t_end": 0.2},
        "noise": {"mode_band": 2, "sigma_kind": "constant_one"},
        "mc": {"n_paths": 8, "base_seed": base_seed},
        "checks": [
            {"name": "energy"},
            {"name": "hy_uniformity", "levels": [10, 100, None], "n_paths": 4},
            {"name": "zeta_regularity", "levels": [10, 100, None], "n_paths": 4},
            {"name": "gronwall", "n_paths": 4, "gn_trials": 400},
            {"name": "bdg", "n_paths": 100},
        ],
    }


WORKLOADS = {
    "mc_small_grid": _mc_small_grid,
    "mc_large_grid": _mc_large_grid,
    "check_drivers": _check_drivers,
}

# set-up samples taken per child process; small grids need more to steady the median
SETUP_REPEATS = {"mc_small_grid": 20, "mc_large_grid": 5, "check_drivers": 40}


def workload_config(name: str, seed: int) -> dict:
    return WORKLOADS[name](seed % MAX_BASE_SEED)


def n_steps(doc: dict) -> int:
    return int(round(doc["solver"]["t_end"] / doc["solver"]["dt"]))


def requested_path_steps(doc: dict) -> int:
    """Path-steps the config asks for: the main Monte-Carlo plus every
    driver's trajectories, with the defaults `vortex run` applies.

    hy_uniformity and zeta_regularity integrate one trajectory per path and
    level (zeta_regularity twice when q != 2), gronwall steps two velocity
    solutions per path, and bdg draws one increment path per grid (N, 2N).
    """
    steps = n_steps(doc)
    paths = doc.get("mc", {}).get("n_paths", 32)
    total = paths * steps
    for chk in doc.get("checks", []):
        name = chk["name"]
        if name == "hy_uniformity":
            levels = len(chk.get("levels", [1, 10, 100, None]))
            total += levels * chk.get("n_paths", paths) * steps
        elif name == "zeta_regularity":
            passes = 1 if float(chk.get("q", 2)) == 2.0 else 2
            levels = len(chk.get("levels", [1, 100, None]))
            total += passes * levels * chk.get("n_paths", 8) * steps
        elif name == "gronwall":
            total += 2 * chk.get("n_paths", paths) * steps
        elif name == "bdg":
            total += 2 * chk.get("n_paths", 500) * steps
    return total


def noise_modes(doc: dict) -> list[tuple[int, int]]:
    """The config's noise mode list, enumerated as the config module does."""
    noise = doc.get("noise", {})
    if noise.get("modes") is not None:
        return [tuple(m) for m in noise["modes"]]
    band = noise.get("mode_band", 2)
    return [(j1, j2) for j1 in range(-band, band + 1) for j2 in range(-band, band + 1)
            if max(abs(j1), abs(j2)) >= 1]


def noise_coefficients(doc: dict) -> list[float]:
    noise = doc.get("noise", {})
    base = noise.get("coefficient_base", 1.0)
    decay = noise.get("coefficient_decay", 1.1)
    k0 = 2.0 * math.pi / doc["grid"].get("domain_length", 2.0 * math.pi)
    out = []
    for j1, j2 in noise_modes(doc):
        k = k0 * math.hypot(j1, j2)
        out.append(base * k ** -decay if k > 0 else base)
    return out
