"""Span tracer that wraps the vortex layers from outside.

Each wrapped function records a span (id, name, start, end, parent,
thread, caller module) in memory.  Parents are tracked per thread; work
handed to the `run_paths` pool is adopted by the `run_paths` span, so
spans inside pool threads still chain back to the driver that asked for
them.  Nothing under src/vortex is edited: wrappers replace each name in
the namespace of every vortex module that bound it at import, because
`integrator` and `harness` import `apply_G`, `sample_increment` and the
norms by name.

Layer metrics are computed from the recorded spans by `layer_metrics`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

VORTEX_MODULES = ("vortex", "vortex.spectral", "vortex.operators", "vortex.noise",
                  "vortex.integrator", "vortex.harness", "vortex.config",
                  "vortex.cli")

# (defining module, function name) pairs wrapped in every namespace that holds them
TRACED = {
    "vortex.spectral": ("l2_norm", "lq_norm", "sobolev_norm", "sobolev_norm_spectral",
                        "l2_inner", "write_snapshot"),
    "vortex.operators": ("bilinear_B", "bilinear_F", "leray_project",
                         "_advection_inputs", "grad_norm_l2", "grad_norm_l2_scalar"),
    "vortex.noise": ("apply_G", "sample_increment"),
    "vortex.integrator": ("run_trajectory", "velocity_step", "vorticity_step",
                          "ou_step", "beta_step"),
    "vortex.harness": ("hy_uniformity", "zeta_regularity", "gronwall_uniqueness",
                       "measure_gn_constant", "simulate_bdg_sups", "identity_suite"),
    "vortex.config": ("load_config",),
    "vortex.cli": ("write_outputs",),
}
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

NORMS = frozenset({"spectral.l2_norm", "spectral.lq_norm", "spectral.sobolev_norm",
                   "spectral.sobolev_norm_spectral", "spectral.l2_inner",
                   "operators.grad_norm_l2", "operators.grad_norm_l2_scalar"})
SPECTRAL_NORMS = frozenset(n for n in NORMS if n.startswith("spectral."))
STEP_FUNCTIONS = frozenset({"integrator.run_trajectory", "integrator.velocity_step",
                            "integrator.vorticity_step", "integrator.ou_step",
                            "integrator.beta_step"})
OUTPUT_FILES = ("resolved_config.json", "stats.csv", "checks.json", "manifest.json")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "via")

    def __init__(self, sid, name, start, end, parent, thread, via=""):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.thread, self.via = parent, thread, via

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.thread, self.via]


class Tracer:
    """In-memory spans plus the counts and keys the layer metrics need."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.keys: dict[str, list] = defaultdict(list)
        self.pool_sizes: dict[int, int] = {}
        self.basis_bytes: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name: str, via: str, fn, args, kwargs, parent: int | None = None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), via))

    def wrapped(self, fn, name: str, via: str, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            return tracer.call(name, via, fn, args, kwargs)

        return traced

    def adopt(self, worker):
        """Run `worker` under a `harness.worker` span whose parent is the
        span current here, whichever thread later calls it."""
        parent = self.current()

        def adopted(*args, **kwargs):
            return self.call("harness.worker", "harness", worker, args, kwargs,
                             parent=parent if not self._stack() else None)

        return adopted

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {m: importlib.import_module(m) for m in VORTEX_MODULES}
        notes = {
            "noise.sample_increment": lambda a, k: self.keys["increment"].append(
                _increment_key(a, k)),
            "integrator.run_trajectory": lambda a, k: self.keys["trajectory"].append(
                _trajectory_key(a, k)),
        }
        for defmod, names in TRACED.items():
            short = defmod.split(".")[-1]
            for name in names:
                original = getattr(modules[defmod], name, None)
                if original is None:  # a layer a later design removed reads 0
                    continue
                label = f"{short}.{name}"
                for modname, module in modules.items():
                    if getattr(module, name, None) is original:
                        via = modname.split(".")[-1]
                        self._replace(module, name, self.wrapped(
                            original, label, via, notes.get(label)))
        if hasattr(modules["vortex.noise"], "NoiseBasis"):
            self._install_basis(modules["vortex.noise"].NoiseBasis)
        if hasattr(modules["vortex.harness"], "run_paths"):
            self._install_run_paths(modules)
        for name in FFT_NAMES:
            original = getattr(np.fft, name, None)
            if original is not None:
                self._replace(np.fft, name,
                              self.wrapped(original, f"fft.{name}", "numpy"))

    def _install_basis(self, basis_cls) -> None:
        original = basis_cls.__init__
        tracer = self

        def init(basis, *args, **kwargs):
            b = _bind(("spec", "grid"), args, kwargs)
            tracer.keys["basis"].append(_basis_key(b["spec"], b["grid"]))
            tracer.call("noise.NoiseBasis", "noise", original, (basis, *args), kwargs)
            tracer.basis_bytes.append(owned_nbytes(basis, shared=(b["spec"], b["grid"])))

        self._replace(basis_cls, "__init__", init)

    def _install_run_paths(self, modules) -> None:
        harness = modules["vortex.harness"]
        original = harness.run_paths
        tracer = self

        def pooled(worker, n_paths, workers=None):
            size = workers if workers is not None else harness.default_workers()
            tracer.pool_sizes[tracer.current()] = 1 if size <= 1 or n_paths <= 1 else size
            return original(tracer.adopt(worker), n_paths, workers)

        traced = self.wrapped(pooled, "harness.run_paths", "harness")
        for module in modules.values():
            if getattr(module, "run_paths", None) is original:
                self._replace(module, "run_paths", traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# -- keys that decide which work was a repeat -----------------------------------


def _digest(array) -> str:
    return hashlib.sha1(array.tobytes()).hexdigest()


def _spec_key(spec) -> tuple:
    pivot = None
    if spec.pivot is not None:
        pivot = (_digest(spec.pivot.vx.coeffs), _digest(spec.pivot.vy.coeffs))
    return (spec.mode_indices, spec.coefficients, spec.roughness, spec.sigma_kind,
            pivot, spec.hy_level)


def _basis_key(spec, grid) -> tuple:
    # a basis is built from the mode list, the roughness and the grid only
    return (spec.mode_indices, spec.roughness, grid)


def _bind(names, args, kwargs) -> dict:
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return bound


def _increment_key(args, kwargs) -> tuple:
    b = _bind(("seed", "path_index", "step_index"), args, kwargs)
    return (int(b["seed"]), int(b["path_index"]), int(b["step_index"]))


def _trajectory_key(args, kwargs) -> tuple:
    b = _bind(("v0", "xi0", "spec", "cfg", "seed", "path_index"), args, kwargs)
    return (_spec_key(b["spec"]), int(b["seed"]), int(b.get("path_index", 0)))


def owned_nbytes(obj, shared=()) -> int:
    """Bytes of every numpy array reachable from `obj` through attributes,
    lists and tuples, each counted once; `shared` objects (the spec and
    the grid a basis is built from) are not walked."""
    seen = {id(x) for x in shared}

    def walk(x) -> int:
        if id(x) in seen:
            return 0
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            return x.nbytes
        if isinstance(x, (list, tuple)):
            return sum(walk(item) for item in x)
        if hasattr(x, "__dict__"):
            return sum(walk(v) for v in vars(x).values())
        return 0

    return int(walk(obj))


# -- span arithmetic ----------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may run in other threads and overlap each other; the union of
    their intervals is subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(children[s.sid], s.start, s.end) for s in spans}


def outermost_time(spans, names, via: str | None = None) -> float:
    """Summed duration of spans named in `names` (optionally bound in `via`)
    that have no ancestor in the same set, so nested calls count once."""
    by_id = {s.sid: s for s in spans}

    def member(s):
        return s.name in names and (via is None or s.via == via)

    total = 0.0
    for s in spans:
        if not member(s):
            continue
        parent = by_id.get(s.parent)
        while parent is not None and not member(parent):
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.duration
    return total


def has_ancestor(span, by_id, names) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent)
    return False


def _ratio(distinct: int, total: int) -> float:
    return distinct / total if total else 1.0


def layer_metrics(tracer: Tracer, wall_s: float, outdir) -> dict[str, float]:
    """Per-layer figures of one traced `vortex run`."""
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}
    names = defaultdict(list)
    for s in spans:
        names[s.name].append(s)

    def total(name):
        return sum(s.duration for s in names[name])

    steps = [s for s in names["noise.sample_increment"] if s.via == "integrator"]
    traj = {"integrator.run_trajectory"}
    fft_in_traj = sum(1 for s in spans if s.name.startswith("fft.")
                      and has_ancestor(s, by_id, traj))
    bdg_draws = sum(1 for s in names["noise.sample_increment"]
                    if has_ancestor(s, by_id, {"harness.simulate_bdg_sups"}))
    pair_steps = sum(1 for s in names["integrator.velocity_step"] if s.via == "harness")
    selfs = self_times(spans)
    capacity = sum(s.duration * tracer.pool_sizes.get(s.sid, 1)
                   for s in names["harness.run_paths"])
    busy = sum(s.duration for s in names["harness.worker"])
    written = sum(os.path.getsize(os.path.join(outdir, f)) for f in OUTPUT_FILES
                  if os.path.exists(os.path.join(outdir, f)))
    snapdir = os.path.join(outdir, "snapshots")
    snapshot_bytes = sum(os.path.getsize(os.path.join(snapdir, f))
                         for f in os.listdir(snapdir)) if os.path.isdir(snapdir) else 0
    keys = tracer.keys
    return {
        "spectral.fft_calls_per_step": fft_in_traj / len(steps) if steps else 0.0,
        "spectral.transform_s": sum(s.duration for s in spans if s.name.startswith("fft.")),
        "spectral.norm_s": outermost_time(spans, SPECTRAL_NORMS),
        "spectral.snapshot_bytes": snapshot_bytes,
        "spectral.snapshot_s": total("spectral.write_snapshot"),
        "operators.B_s": outermost_time(spans, {"operators.bilinear_B",
                                                "operators.leray_project"}),
        "operators.F_s": outermost_time(spans, {"operators.bilinear_F"}),
        "operators.advection_inputs_s": total("operators._advection_inputs"),
        "noise.apply_G_calls": len(names["noise.apply_G"]),
        "noise.apply_G_s": outermost_time(spans, {"noise.apply_G"}),
        "noise.basis_builds": len(keys["basis"]),
        "noise.basis_distinct_ratio": _ratio(len(set(keys["basis"])), len(keys["basis"])),
        "noise.basis_build_s": total("noise.NoiseBasis"),
        "noise.basis_bytes": max(tracer.basis_bytes, default=0),
        "noise.increments": len(keys["increment"]),
        "noise.increment_distinct_ratio": _ratio(len(set(keys["increment"])),
                                                 len(keys["increment"])),
        "noise.sample_increment_s": total("noise.sample_increment"),
        "integrator.trajectory_calls": len(keys["trajectory"]),
        "integrator.trajectory_distinct_ratio": _ratio(len(set(keys["trajectory"])),
                                                       len(keys["trajectory"])),
        "integrator.path_steps_executed": len(steps) + pair_steps + bdg_draws,
        "integrator.step_self_s": sum(selfs[s.sid] for s in spans
                                      if s.name in STEP_FUNCTIONS),
        "integrator.stats_s": outermost_time(spans, NORMS, via="integrator"),
        "harness.run_paths_s": outermost_time(spans, {"harness.run_paths"}),
        "harness.pool_busy_ratio": busy / capacity if capacity else 0.0,
        "harness.hy_uniformity_s": total("harness.hy_uniformity"),
        "harness.zeta_regularity_s": total("harness.zeta_regularity"),
        "harness.gronwall_s": total("harness.gronwall_uniqueness"),
        "harness.gn_constant_s": total("harness.measure_gn_constant"),
        "harness.bdg_sups_s": total("harness.simulate_bdg_sups"),
        "harness.identity_s": total("harness.identity_suite"),
        "config.load_s": total("config.load_config"),
        "cli.write_outputs_s": total("cli.write_outputs"),
        "cli.bytes_written": written,
        "trace.wall_s": wall_s,
    }
