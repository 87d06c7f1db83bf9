"""Monte-Carlo and pathwise verification of the a-priori estimates:
energy / L^q boundedness, uniformity in the Hille-Yosida level,
Ornstein-Uhlenbeck regularity, the exponential-weight Gronwall contraction,
stochastic-integral moment bounds, and the operator-identity suites.

The solutions of the coupled system are integrated in one place: `sweep`
runs each (Hille-Yosida level, path) a run needs exactly once, and keeps
per path only scalars (the stats and the zeta Holder quotients, which a
batch reduces from the zeta `run_trajectory` keeps at the touched
coefficients, `holder_quotients`).  Its one observer writes the snapshots
into a staging directory, which its reduction moves into place.  The
energy report, `hy_uniformity` and `zeta_regularity` are pure reductions
over its results.  The Gronwall pairs step their two solutions of a path
as two rows of the integrator's one loop, `trajectories`, on the path's
shared draws, and keep per step only the norms and the noise term that
the weight is formed from.  The sweep steps each level's paths, and
`gronwall_uniqueness` its pairs, in batches of one `run_trajectory` or
`gronwall_pairs` call each, sized like the trial chunks below
(`_batches`); each path has the bits of its one-path run.
The BDG sups integrate the frozen operator G_n(v0) from the noise's
`mode_weights` and `basis_values`, on the smallest grid where the L^q
sums of the noise band are exact for even q (`noise.quadrature_grid`).
The identity suite takes fresh random fields and judges the
nonlinearities the step runs: the velocity drift, reached as
`operators.velocity_drift` like the step reaches it, and the vorticity
advection F.

The Gronwall weight measures one constant, the Gagliardo-Nirenberg ratio
(`measure_gn_constant`), which enters only the reduction after the pairs
(`gronwall_weighted`), so the search and the pairs run side by side; its
noise term is the pathwise quotient ||G(v1)-G(v2)||^2_HS / ||v1-v2||^2
that Ito's formula produces, taken in closed form from `Visit.sigma` and
`noise.basis_l2_sq_sum`.  The GN constant draws its random trial fields
in the order of one `random_divfree_field` call each, and evaluates them
a chunk at a time (sized to TRIAL_CHUNK_BYTES) in stacked arrays:
`operators.divfree_halves` makes them, `spectral.sobolev_norms` norms
them and `spectral.physical_values` transforms them, each in one call
per chunk.  Each trial's last scalar steps run on Python floats, so the
constant has the bits of the trials taken one at a time.  Its L^4 norms,
and the L^q norms of the BDG sups, go through `spectral.lq_norms`.

Every check is reproducible bit-for-bit from (config, seed): paths use
counter-based RNG streams keyed by (seed, path, step) and reductions run
in fixed path order, so results do not depend on the worker count or on
the batch size.  Each driver is a list of jobs and a reduction of their
results (`sweep_plan`, `gronwall_plan`, `bdg_plan`; the GN search and
each identity suite are one job), and the driver function is that
reduction over one `fan_out`.  A `vortex run` puts the jobs of all its
checks into a single `fan_out`.  It goes through `run_paths`, whose
forked worker processes, one per usable CPU up to 4 (`path_workers`),
each take the next job from a shared queue until none is left; the
results come back pickled, in job order.
"""

from __future__ import annotations

import fcntl
import functools
import math
import mmap
import os
import pickle
import shutil
import signal
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import operators
from .integrator import (
    CoupledState,
    SolverConfig,
    TrajectoryStats,
    _squares,
    run_trajectory,
    trajectories,
)
from .noise import (
    CovarianceSpec,
    basis_l2_sq_sum,
    basis_values,
    mode_weights,
    operator_norms,
    quadrature_grid,
    sample_increment,
    scatter_plan,
)
from .operators import (
    bilinear_F,
    biot_savart,
    curl,
    divergence_defect,
    divfree_draws,
    divfree_halves,
    grad_norm_l2,
    grad_norms,
    gradient,
    random_divfree_field,
    random_scalar_field,
    vorticity_values,
)
from .spectral import (
    Field,
    ScalarField,
    SpectralGrid,
    VectorField,
    bessel_multiplier,
    dealiased_block,
    l2_inner,
    l2_norm,
    lq_norm,
    lq_norms,
    physical_values,
    regrid,
    sobolev_norm_spectral,
    sobolev_norms,
    to_spectral,
    write_snapshot,
)


@dataclass
class CheckResult:
    """One named verification outcome; passed holds iff observed <= bound."""

    name: str
    observed: float
    bound: float
    passed: bool
    n_samples: int
    seed: int
    extra: dict | None = None

    @classmethod
    def evaluate(cls, name, observed, bound, n_samples, seed, extra=None):
        observed = float(observed)
        bound = float(bound)
        passed = bool(np.isfinite(observed) and observed <= bound)
        return cls(name, observed, bound, passed, int(n_samples), int(seed), extra)

    def to_dict(self) -> dict:
        """The JSON payload, extra ({} if none) included, with None for every
        non-finite number at any depth: strict JSON has no Infinity or NaN."""
        return _finite_or_none({
            "name": self.name,
            "observed": self.observed,
            "bound": self.bound,
            "passed": self.passed,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "extra": self.extra or {},
        })


def _sup(a: float, b: float) -> float:
    """max(a, b) that keeps a NaN from either side, as a Python float."""
    return float(np.maximum(a, b))


def _finite_or_none(value):
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def path_workers() -> int:
    """Processes for the paths: the CPUs this process may run on, at most 4.
    1 where os.sched_getaffinity does not exist: forking is measured on
    Linux only, and macOS makes it unsafe once system frameworks run threads."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(4, len(os.sched_getaffinity(0)))


class _JobQueue:
    """The job indices of one `run_paths` call, handed out in order to its
    forked workers.  An anonymous memory file (os.memfd_create), mapped
    shared, holds the next index in 8 bytes, then one byte per job: 0 until
    a worker takes it, then 1 + that worker's number.  It is read and
    bumped under fcntl.lockf, which the kernel releases if the holder dies;
    a take costs about 2 us."""

    def __init__(self, n_jobs: int):
        self.n_jobs = n_jobs
        self.fd = os.memfd_create("run_paths")
        try:
            os.ftruncate(self.fd, 8 + n_jobs)
            self.shared = mmap.mmap(self.fd, 8 + n_jobs)
        except BaseException:
            os.close(self.fd)
            raise

    def _set_next(self, job: int) -> None:
        self.shared[:8] = job.to_bytes(8, "little")

    def take(self, k: int) -> int | None:
        """The next job, now worker k's, or None once every job is taken or
        the queue is stopped."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            job = int.from_bytes(self.shared[:8], "little")
            if job >= self.n_jobs:
                return None
            self._set_next(job + 1)
            self.shared[8 + job] = k + 1
            return job
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)

    def stop(self) -> None:
        """No worker takes another job."""
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            self._set_next(self.n_jobs)
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)

    def last(self, k: int) -> int:
        """The latest job worker k took, -1 if none: jobs are taken in
        index order, so it is the one worker k runs, if it runs one."""
        at = self.shared.rfind(bytes([k + 1]), 8)
        return at - 8 if at >= 0 else -1

    def owned(self, k: int) -> list[int]:
        return [job for job, owner in enumerate(self.shared[8:]) if owner == k + 1]

    def close(self) -> None:
        self.shared.close()
        os.close(self.fd)


def _take_jobs(worker, queue: _JobQueue, k: int, job: int | None, keep):
    """Runs `job`, then each job worker k takes from the queue, until the
    queue is empty or a job raises; a job that raises stops the queue.
    Returns {job: keep(job, result)} and the raising job's (job, exception,
    traceback text), or None."""
    kept = {}
    while job is not None:
        try:
            kept[job] = keep(job, worker(job))
        except Exception as exc:
            queue.stop()
            return kept, (job, exc, traceback.format_exc())
        job = queue.take(k)
    return kept, None


def _pickled_result(job: int, result) -> bytes:
    try:
        return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise RuntimeError(f"the result of job {job} could not be pickled: {exc!r}") from None


def _pickled_failure(job: int, exc: BaseException, text: str) -> tuple[int, bytes, str]:
    """The failure with its exception pickled; one that does not pickle, or
    pickles but does not load, travels as a RuntimeError naming it."""
    try:
        data = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
    except Exception as err:
        data = pickle.dumps(RuntimeError(f"the exception {exc!r} of job {job} could not be "
                                         f"pickled: {err!r}"))
    return job, data, text


def _settle(k: int) -> None:
    """Move this process to the k-th CPU it may run on, then let it run on
    any of them again.  Linux can start a forked child on its parent's CPU
    and move it only at a later load balancing; until then the two share
    one CPU, which on 2 CPUs held a ~150 ms share to the serial time."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        try:
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            os.sched_setaffinity(0, cpus)
        except OSError:  # the CPUs changed meanwhile; placement is only a hint
            pass


def _child(worker, queue: _JobQueue, k: int, write: int, inherited: list[int]) -> None:
    """Forked worker k: takes jobs until the queue is empty or one raises,
    writes its pickled results and failure to its pipe and leaves by
    os._exit, never returning into the caller's stack."""
    status = 1
    try:
        _settle(k)
        for fd in inherited:
            os.close(fd)
        kept, failed = _take_jobs(worker, queue, k, queue.take(k), _pickled_result)
        outcome = (kept, None if failed is None else _pickled_failure(*failed))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, kill: bool = False) -> int:
    """Waits for a child, SIGKILLed first if kill; its exit code, -signal
    if a signal ended it."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _gather(queue: _JobQueue, live: dict, results: dict, failures: dict) -> list:
    """Reads the outcome of each child in `live` (pid -> (worker number,
    read end)), in turn, into results and failures, and reaps it.  A child
    whose latest job lies above the lowest failure known by its turn is
    killed instead: its outcome cannot change what is raised.  Returns the
    jobs of each child that ended without its outcome, and how it ended."""
    lost = []
    for pid, (k, read) in list(live.items()):
        kill = queue.last(k) > min(failures, default=queue.n_jobs)
        chunks = []
        while not kill and (chunk := os.read(read, 1 << 16)):
            chunks.append(chunk)
        del live[pid]
        os.close(read)
        status = _reap(pid, kill)
        if kill:
            continue
        if status != 0:
            how = f"was killed by signal {-status}" if status < 0 else f"exited {status}"
            lost.append((queue.owned(k), how))
            continue
        kept, failed = pickle.loads(b"".join(chunks))
        results.update((job, pickle.loads(data)) for job, data in kept.items())
        if failed is not None:
            job, data, text = failed
            failures[job] = (pickle.loads(data), text)
    return lost


def run_paths(worker, n_jobs: int, workers: int) -> list:
    """worker(0..n_jobs-1), returned in job order, so results do not depend
    on the worker count.

    The caller takes job 0 and forks workers - 1 children; then the caller
    and the children each take the next job from one shared `_JobQueue`
    until every job is taken, so a long job does not hold up the jobs queued
    behind it.  A child pipes back its pickled results when the queue is
    empty, and exits.  Fork, not spawn: a worker is a closure over the run's
    state, which a forked child inherits without pickling it.

    A job that raises stops the queue: no worker starts another job.  The
    exception of the lowest-indexed job that raises is raised here; jobs
    are taken in index order, so every lower job had started and it is the
    one a serial run raises.  Jobs already running on other workers finish
    and are thrown away, but a child found running a job above a known
    failure is killed, since its outcome cannot change what is raised.  A
    child that exits without its results raises RuntimeError naming the
    jobs that got no result, when the lowest of them is below any job that
    raised.  Every child is reaped before this returns or raises.  At most
    255 workers run, one queue byte naming each.

    Stopgap, to be deleted: where this module's `run_paths` has been
    replaced by a wrapper, as the span tracer of the benchmark does, every
    job runs here instead, one after another, because the wrapper records
    spans in this process only.  Once a child ships its spans back through
    its pipe, this branch and `_unwrapped_run_paths` go."""
    workers = min(workers, n_jobs, 255)
    if workers <= 1 or run_paths is not _unwrapped_run_paths:
        return [worker(i) for i in range(n_jobs)]
    queue = _JobQueue(n_jobs)
    live: dict[int, tuple[int, int]] = {}  # pid -> (worker number, read end), unreaped
    try:
        first = queue.take(0)
        _settle(0)
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(worker, queue, k, write, [read, *(r for _, r in live.values())])
            os.close(write)
            live[pid] = (k, read)
        results, failed = _take_jobs(worker, queue, 0, first, lambda job, result: result)
        failures = {} if failed is None else {failed[0]: (failed[1], None)}
        lost = _gather(queue, live, results, failures)
        lowest = min([*failures, *(job for jobs, _ in lost for job in jobs)], default=None)
        if lowest is None:
            return [results[i] for i in range(n_jobs)]
        if lowest not in failures:
            raise RuntimeError("; ".join(f"jobs {', '.join(map(str, jobs))} got no result: the "
                                         f"worker process that took them {how}"
                                         for jobs, how in lost if jobs))
        exc, text = failures[lowest]
        if text is None:  # raised here
            raise exc
        raise exc from RuntimeError(f"in the worker process that ran job {lowest}:\n{text}")
    finally:
        for pid, (_, read) in live.items():
            os.close(read)
            _reap(pid, kill=True)
        queue.close()


_unwrapped_run_paths = run_paths


def fan_out(jobs: list, staging: Path | None = None) -> list:
    """The results of `jobs`, zero-argument callables, in job order: one
    `run_paths` call on `path_workers()` processes.  If a job raises, the
    directory `staging` that the jobs write into is removed with its files."""
    try:
        return run_paths(lambda k: jobs[k](), len(jobs), path_workers())
    except BaseException:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        raise


def mc_mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(np.mean(arr))
    if arr.size < 2:
        return mean, 0.0
    return mean, float(np.std(arr, ddof=1) / np.sqrt(arr.size))


# ---------------------------------------------------------------------------
# measured constants


# The GN constant below evaluates its random trial fields in chunks.  A
# field's largest stacked array, its normal draws, takes 32 N^2 bytes; a
# chunk keeps it near this working set, so the chunk shrinks as the grid grows.
# The sweep and the Gronwall pairs step their paths in batches by the same
# rule, a path counting as one trial field and a pair as two: a batch holds
# max(1, TRIAL_CHUNK_BYTES // (32 N^2 x fields per trial)) trials, so 8 paths
# or 4 pairs at N = 32, 2 paths or 1 pair at 64, and one path or pair at every
# N above 64.  Each batch is one job of a fan-out: the worker processes of
# `run_paths` take the batches one at a time, as each finishes its last job.
# `holder_quotients` norms its pairs of zeta samples in chunks of the same size.
# Larger batches cost more than they save (2 CPUs, numpy 2.4 with pocketfft):
# at N = 256 a batch of 4 paths ran at 0.77x the speed of the 4 paths one at a
# time, and at N = 64 batches of 16 raised the peak RSS of a 16-path
# `vortex run` from 40 to 46 MB.
TRIAL_CHUNK_BYTES = 256 * 1024


def _trial_chunks(grid: SpectralGrid, trials: int, fields_per_trial: int = 1):
    """The trial counts of successive chunks, summing to trials."""
    per_trial = 32 * grid.modes_per_dim**2 * fields_per_trial
    size = max(1, TRIAL_CHUNK_BYTES // per_trial)
    for lo in range(0, trials, size):
        yield min(size, trials - lo)


def _batches(grid: SpectralGrid, n_paths: int, rows_per_path: int = 1) -> list[range]:
    """The paths 0..n_paths-1 in successive batches of `_trial_chunks` size."""
    out, first = [], 0
    for size in _trial_chunks(grid, n_paths, rows_per_path):
        out.append(range(first, first + size))
        first += size
    return out


def measure_gn_constant(grid: SpectralGrid, trials: int, seed: int = 7) -> float:
    """Gagliardo-Nirenberg constant on the torus: the largest observed ratio
    ||V||^2_{L^4} / (||V||_{L^2} ||grad V||_{L^2}) over random mean-zero
    divergence-free fields, V with the spectrum |k|^-d, d uniform in [1, 3].

    The fields are drawn in the order of one random_divfree_field call each
    and evaluated a chunk at a time: their L^2 norms by `sobolev_norms` and
    their L^4 norms by `lq_norms` of one `physical_values`, which takes
    only the dealias band's columns of the dealiased trials.  Each trial's
    last steps, the ratio and the running sup, run on scalars, so the
    constant has the bits of the trials taken one at a time."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for size in _trial_chunks(grid, trials):
        decays, normals = divfree_draws(grid, rng, size, (1.0, 3.0))
        v = divfree_halves(grid, normals, decays, np.ones(size))
        l2 = sobolev_norms(v, grid)
        grad = grad_norms(v, grid)
        l4 = lq_norms(physical_values(dealiased_block(v, grid)), 4.0, grid)
        for a, b, c in zip(l2, grad, l4):
            denom = float(a) * float(b)
            if denom == 0.0:
                continue
            best = _sup(best, float(c) ** 2 / denom)
    return best


# ---------------------------------------------------------------------------
# energy / uniformity reports


def _status_failure(name: str, groups: dict[str, list[str]],
                    seed: int) -> CheckResult | None:
    """A FAIL named <name>.status that counts the blown-up paths among the
    groups of path statuses a check reads, or None; a truncated path's numbers
    are finite but meaningless."""
    blown = {where: sum(s != "completed" for s in g) for where, g in groups.items()}
    if not any(blown.values()):
        return None
    where = ", ".join(f"{b} of {len(groups[w])} paths{w}" for w, b in blown.items() if b)
    return CheckResult(f"{name}.status", float(sum(blown.values())), 0.0, False,
                       sum(map(len, groups.values())), seed,
                       extra={"diagnostic": f"{where} blew up"})


def energy_report(stats: list[TrajectoryStats], ceilings: dict[str, float],
                  seed: int) -> list[CheckResult]:
    """MC means of the trajectory functionals checked against ceilings.

    Any blown-up path fails the whole report as energy.status.
    """
    if len(stats) < 2:
        raise ValueError("energy_report needs at least 2 completed paths")
    failed = _status_failure("energy", {"": [s.status for s in stats]}, seed)
    if failed is not None:
        return [failed]
    out = []
    for fname in TrajectoryStats.FUNCTIONALS:
        values = [s.functional(fname) for s in stats]
        mean, stderr = mc_mean_stderr(values)
        ceiling = ceilings.get(fname, math.inf)
        out.append(CheckResult.evaluate(
            f"energy.{fname}", mean, ceiling, len(stats), seed,
            extra={"stderr": stderr},
        ))
    return out


def _level_tag(n: float) -> str:
    return "inf" if n == math.inf else f"{n:g}"


def _spread(values: list[float]) -> float:
    """max/min of nonnegative values; 1 when all are 0, inf when only some are."""
    lo, hi = min(values), max(values)
    return 1.0 if hi == lo == 0.0 else (math.inf if lo == 0.0 else hi / lo)


# ---------------------------------------------------------------------------
# the shared sweep over (Hille-Yosida level, path)


@dataclass(frozen=True)
class HolderProbe:
    """A zeta Holder quotient asked of each path: exponent beta in time, in
    W^{delta,q}, from zeta sampled every `stride` steps and at the end."""

    beta: float
    delta: float
    q: float
    stride: int


@dataclass
class PathResult:
    """What outlives a path: its stats and one quotient per probe (`holder_quotients`)."""

    stats: TrajectoryStats
    quotients: dict[HolderProbe, float]


def holder_quotients(zetas: list[np.ndarray], stride: int, cfg: SolverConfig, probe: HolderProbe,
                     spec: CovarianceSpec, grid: SpectralGrid) -> list[float]:
    """Each path's worst ||zeta(t) - zeta(r)||_{W^{delta,q}} / (t - r)^beta
    over the dyadic-gap pairs of its samples every probe.stride steps and at
    the last, read from zetas[p], its `run_trajectory` samples every `stride`
    steps, a divisor of probe.stride.  Each gap norms the pairs of every
    path in stacked passes of `_batches` size, scattered into halves, by
    `sobolev_norms` at q = 2 and else `lq_norms` of the `physical_values` of
    the Bessel-smoothed columns zeta touches, so each quotient has the bits
    of its pairs normed one at a time; a NaN is kept.  Only the samples and
    one chunk of halves are held, never a dense zeta per sample."""
    touched = scatter_plan(spec, grid).touched
    steps = [k for k in range(cfg.n_steps + 1) if k % stride == 0 or k == cfg.n_steps]
    keep = [k for k, step in enumerate(steps) if step % probe.stride == 0 or step == cfg.n_steps]
    times = [steps[k] * cfg.dt for k in keep]
    # zeta vanishes past the largest column it touches: a transform takes that block
    width = int(np.max(touched % (grid.modes_per_dim // 2 + 1))) + 1
    zeta = np.zeros((len(zetas), len(steps), len(touched)), dtype=np.complex128)
    for p, z in enumerate(zetas):
        zeta[p, :len(z)] = z
    zeta, lived = zeta[:, keep], np.searchsorted(keep, [len(z) for z in zetas])
    worst, gap = np.zeros(len(zetas)), 1
    while gap < len(keep):
        diff = (zeta[:, gap:] - zeta[:, :-gap]).reshape(-1, len(touched))
        norms = np.empty(len(diff))
        for rows in _batches(grid, len(diff)):
            halves = np.zeros((len(rows), 1) + grid.ksq.shape, dtype=np.complex128)
            halves.reshape(len(rows), -1)[:, touched] = diff[rows]
            if probe.q == 2.0:
                norms[rows] = sobolev_norms(halves, grid, probe.delta)
            else:
                halves *= (1.0 + grid.ksq) ** (probe.delta / 2.0)
                norms[rows] = lq_norms(physical_values(halves[..., :width]), probe.q, grid)
        quotients = (norms.reshape(len(zetas), -1)
                     / [(t - r) ** probe.beta for r, t in zip(times, times[gap:])])
        paired = np.arange(gap, len(keep)) < lived[:, None]  # both samples were kept
        worst = np.maximum(worst, np.where(paired, quotients, 0.0).max(axis=1))
        gap *= 2
    return [float(w) for w in worst]


def zeta_budget(roughness: float, beta: float, delta: float, p: float) -> None:
    """Refuse zeta_regularity parameters that assert nothing: they must
    satisfy the strict inequality beta + delta/2 + 1/p < (1-g)/2."""
    budget = (1.0 - roughness) / 2.0
    demand = beta + delta / 2.0 + 1.0 / p
    if not demand < budget:
        raise ValueError(f"zeta_regularity refused: beta + delta/2 + 1/p = {demand:.4g} "
                         f"must be < (1-g)/2 = {budget:.4g}")


def sweep_plan(spec: CovarianceSpec, v0: VectorField | None, xi0: ScalarField,
               cfg: SolverConfig, base_seed: int, n_paths: int, lq_exponent: float = 4.0,
               demands=(), snapshot_dir=None, snapshot_stride: int = 0):
    """`sweep`'s jobs, one per batch of a level's paths, the reduction of
    their results, in job order, to its result, which moves the snapshots
    into snapshot_dir, and the directory, new beside it, that the jobs
    write them into (None without snapshots; see `fan_out`)."""
    staging = (Path(snapshot_dir).with_name(f".{Path(snapshot_dir).name}.{os.urandom(6).hex()}")
               if snapshot_dir is not None and snapshot_stride > 0 else None)
    counts = {spec.hy_level: n_paths}
    probes: dict[float, set[HolderProbe]] = {spec.hy_level: set()}
    for levels, paths, probe in demands:
        for n in levels:
            counts[n] = max(counts.get(n, 0), paths)
            probes.setdefault(n, set()).update([] if probe is None else [probe])
    keys = [(n, paths) for n in counts for paths in _batches(xi0.grid, counts[n])]

    def snapshots(level, path):
        """The observer that writes a main path's snapshots, or None."""
        if staging is None or level != spec.hy_level or path >= n_paths:
            return None
        steps = iter(range(cfg.n_steps + 1))

        def observe(st: CoupledState):
            step = next(steps)
            if step % snapshot_stride == 0:
                if step == 0:
                    staging.mkdir(parents=True, exist_ok=True)
                write_snapshot(st.xi, staging / f"path{path:04d}_step{step:06d}.vspd")

        return observe

    def batch(level, paths):
        stride = math.gcd(*(p.stride for p in probes[level]))  # 0 without probes
        done = run_trajectory(v0, xi0, spec.with_hy_level(level), cfg, seed=base_seed,
                              path_index=paths.start, lq_exponent=lq_exponent,
                              observer=[snapshots(level, p) for p in paths],
                              n_paths=len(paths), zeta_stride=stride)
        quotients = {probe: holder_quotients([r.zeta for r in done], stride, cfg, probe, spec,
                                             xi0.grid) for probe in probes[level]}
        return [PathResult(r.stats, {probe: q[i] for probe, q in quotients.items()})
                for i, r in enumerate(done)]

    def finish(done: list) -> dict[float, list[PathResult]]:
        if staging is not None and staging.exists():
            Path(snapshot_dir).mkdir(exist_ok=True)
            for staged in staging.iterdir():
                staged.replace(Path(snapshot_dir) / staged.name)
            staging.rmdir()
        return {n: [r for (m, _), results in zip(keys, done) if m == n for r in results]
                for n in counts}

    return [functools.partial(batch, *key) for key in keys], finish, staging


def sweep(spec: CovarianceSpec, v0: VectorField | None, xi0: ScalarField,
          cfg: SolverConfig, base_seed: int, n_paths: int, lq_exponent: float = 4.0,
          demands=(), snapshot_dir=None, snapshot_stride: int = 0,
          ) -> dict[float, list[PathResult]]:
    """Integrate each (Hille-Yosida level, path) a run needs exactly once.

    The main level spec.hy_level gets the n_paths main Monte-Carlo paths.
    Each demand (levels, paths, probe) asks for `paths` paths at each of
    `levels` and, unless probe is None, for the probe's quotient of each.  A
    level runs the largest path count asked of it; a consumer asking fewer
    reads a prefix.  Returns level -> one PathResult per path, in path
    order: path p at level n is run_trajectory's (base_seed, p) solution
    under spec.with_hy_level(n), stepped in a batch of the level's paths.
    With snapshot_dir and snapshot_stride > 0, the main Monte-Carlo paths
    write xi every snapshot_stride steps there.  The jobs and the reduction
    of `sweep_plan` over one `fan_out`.
    """
    jobs, finish, staging = sweep_plan(spec, v0, xi0, cfg, base_seed, n_paths, lq_exponent,
                                       demands, snapshot_dir, snapshot_stride)
    return finish(fan_out(jobs, staging))


def _read_levels(name: str, results, levels, n_paths: int, seed: int):
    """The first n_paths sweep results at each level, and the FAIL that
    _status_failure gives for them."""
    paths = {n: results[n][:n_paths] for n in levels}
    if any(len(got) < n_paths for got in paths.values()):
        raise ValueError(f"{name} reads {n_paths} paths per level; the sweep holds fewer")
    statuses = {f" at level {_level_tag(n)}": [r.stats.status for r in got]
                for n, got in paths.items()}
    return paths, _status_failure(name, statuses, seed)


def hy_uniformity(results: dict[float, list[PathResult]], levels, n_paths: int,
                  base_seed: int, factor: float) -> CheckResult:
    """Uniformity in the Hille-Yosida level, reduced from a sweep: across the
    levels, the max/min ratio of every functional's mean over the first
    n_paths matched-seed paths must stay below factor.  A path among them
    that blew up fails the check as hy_uniformity.status."""
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("hy_uniformity needs at least 2 levels")
    paths, failed = _read_levels("hy_uniformity", results, levels, n_paths, base_seed)
    if failed is not None:
        return failed
    detail = {}
    for f in TrajectoryStats.FUNCTIONALS:
        means = [float(np.mean([r.stats.functional(f) for r in paths[n]])) for n in levels]
        detail[f] = {"means": means, "ratio": _spread(means)}
    worst = max([1.0] + [d["ratio"] for d in detail.values()])
    return CheckResult.evaluate(
        "hy_uniformity", worst, factor, n_paths * len(levels), base_seed,
        extra={"levels": [_level_tag(n) for n in levels], "functionals": detail},
    )


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck regularity


def zeta_regularity(results: dict[float, list[PathResult]], levels, n_paths: int,
                    base_seed: int, probe: HolderProbe, p: float,
                    stability_factor: float) -> CheckResult:
    """Holder quotients of the stochastic convolution in W^{delta,q},
    reduced from a sweep that computed `probe` at every level; check the
    parameters with zeta_budget before the sweep.

    PASS when the p-th-moment MC mean over the first n_paths paths is
    finite and stable across levels; stability is measured on the moment's
    own amplitude scale E[q^p]^(1/p), so different p are comparable and the
    factor bounds the quotient variation itself.  A path among them that
    blew up fails the check as zeta_regularity.status.
    """
    levels = list(levels)
    paths, failed = _read_levels("zeta_regularity", results, levels, n_paths, base_seed)
    if failed is not None:
        return failed
    quots = [np.asarray([r.quotients[probe] for r in paths[n]]) for n in levels]
    level_moments = [float(np.mean(x**p)) for x in quots]
    ratio = _spread([m ** (1.0 / p) for m in level_moments])
    observed = ratio if all(np.isfinite(level_moments)) else math.inf
    return CheckResult.evaluate(
        "zeta_regularity", observed, stability_factor,
        n_paths * len(levels), base_seed,
        extra={"moment_means": level_moments,
               "quotient_means": [float(np.mean(x)) for x in quots],
               "levels": [_level_tag(n) for n in levels],
               "beta": probe.beta, "delta": probe.delta, "p": p, "q": probe.q},
    )


# ---------------------------------------------------------------------------
# Gronwall / pathwise uniqueness


def gronwall_pairs(v0_a: VectorField, v0_b: VectorField, spec: CovarianceSpec,
                   cfg: SolverConfig, seed: int, paths) -> list[dict]:
    """For each path p of `paths`, two solutions under identical increments:
    the (seed, p) solution from each initial velocity.  All of them step as
    one batch of the integrator's loop, `trajectories`, whose rows
    (v0_a, p) and (v0_b, p) share p's draws.  Pair k is rows 2k and 2k+1,
    alive while both are: the visit that finds one dead ends the other.

    Returns per path the series of each visit's ||V||, V = v1 - v2
    ("v_norms"), ||grad v1|| ("grad_norms") and noise term q^2 ("q_sq"),
    as Python floats, and the status, 'blowup' if either solution blew up
    (the series end there) or else 'completed'.  The Young constant a
    enters only `gronwall_weighted`, which forms the weight from them.
    q^2 = ||G_n(v1) - G_n(v2)||^2_HS / ||V||^2 is the noise term of Ito's
    formula, 0 where V = 0: since G_n(v) h_k is c_k sigma(v) n/(n+|k|^2)
    e_k, it is (sigma(v1) - sigma(v2))^2 times `basis_l2_sq_sum` over
    ||V||^2, read from the loop's sigma of each row (`Visit.sigma`) and the
    noise's mode table, never from the increment `apply_G` returns.  The
    norms are taken over the batch and the scalar tails per pair on floats,
    so each pair has the bits of its one-pair call.
    """
    grid = v0_a.grid
    hs_sq = basis_l2_sq_sum(spec, grid)
    xi_a, xi_b = curl(v0_a), curl(v0_b)
    rows = [row for p in paths for row in ((v0_a, xi_a, p), (v0_b, xi_b, p))]
    n = len(rows) // 2
    out = [{"v_norms": [], "grad_norms": [], "q_sq": [], "status": "blowup"} for _ in range(n)]
    for visit in trajectories(rows, spec, cfg, seed):
        alive = visit.alive[0::2] & visit.alive[1::2]
        visit.end(~alive.repeat(2))  # a pair ends with either of its solutions
        one, two = visit.v[0::2], visit.v[1::2]
        gaps = sobolev_norms(one - two, grid)
        gaps_sq = _squares(gaps)
        grads = grad_norms(one, grid)
        for k in np.flatnonzero(alive):
            vnorm, gap_sq = float(gaps[k]), float(gaps_sq[k])
            rise = float(visit.sigma[2 * k] - visit.sigma[2 * k + 1])
            pair = out[k]
            pair["v_norms"].append(vnorm)
            pair["grad_norms"].append(float(grads[k]))
            pair["q_sq"].append(rise * rise * hs_sq / gap_sq if gap_sq else 0.0)
            pair["status"] = "completed" if visit.step == cfg.n_steps else "blowup"
    return out


def gronwall_weighted(pair: dict, a_const: float, dt: float) -> dict:
    """The weighted-difference series M(t) = exp(-int_0^t psi) ||V(t)||^2
    of one `gronwall_pairs` pair, psi = a ||grad v1||^2 + q^2 by
    left-endpoint quadrature, the raw sup of ||V|| and the pair's status.
    It takes the float operations of a loop that forms psi while stepping,
    in their order, so M has that loop's bits.  The norms are squared by
    `_squares`, inf where the square overflows, and an infinite M or psi
    makes the status 'blowup', as a path's infinite functional does."""
    int_psi = psi = sup_v = 0.0
    series, overflow = [], False
    v_sq, grad_sq = (_squares(np.array(pair[key])).tolist() for key in ("v_norms", "grad_norms"))
    for vnorm, vnorm_sq, g_sq, q_sq in zip(pair["v_norms"], v_sq, grad_sq, pair["q_sq"]):
        int_psi += dt * psi
        sup_v = _sup(sup_v, vnorm)
        series.append(math.exp(-int_psi) * vnorm_sq)
        psi = a_const * g_sq + q_sq
        overflow |= math.isinf(series[-1]) or math.isinf(psi)
    return {"m_series": series, "sup_v": sup_v,
            "status": "blowup" if overflow else pair["status"]}


def gronwall_plan(v0_a: VectorField, v0_b: VectorField, spec: CovarianceSpec,
                  cfg: SolverConfig, n_paths: int, base_seed: int, slack: float):
    """`gronwall_uniqueness`'s jobs, one `gronwall_pairs` call per batch of
    pairs (`_batches`, two rows a pair), and its reduction of their results,
    in job order, and of the measured Gagliardo-Nirenberg ratio."""
    jobs = [functools.partial(gronwall_pairs, v0_a, v0_b, spec, cfg, base_seed, paths)
            for paths in _batches(v0_a.grid, n_paths, rows_per_path=2)]

    def finish(done: list, gn_constant: float) -> CheckResult:
        a_const = gn_constant**2
        results = [gronwall_weighted(pair, a_const, cfg.dt) for batch in done for pair in batch]
        failed = _status_failure("gronwall", {"": [r["status"] for r in results]}, base_seed)
        if failed is not None:
            return failed
        if np.array_equal(v0_a.half, v0_b.half):
            observed = functools.reduce(_sup, (r["sup_v"] for r in results))
            return CheckResult.evaluate(
                "gronwall.identical", observed, 1e-12, n_paths, base_seed,
                extra={"a": a_const},
            )
        v0_gap_sq = l2_norm(v0_a - v0_b) ** 2
        m_final = [r["m_series"][-1] for r in results]
        mean, stderr = mc_mean_stderr(m_final)
        return CheckResult.evaluate(
            "gronwall.perturbed", mean, slack * v0_gap_sq, n_paths, base_seed,
            extra={"a": a_const, "stderr": stderr, "v0_gap_sq": v0_gap_sq},
        )

    return jobs, finish


def gronwall_uniqueness(v0_a: VectorField, v0_b: VectorField, spec: CovarianceSpec,
                        cfg: SolverConfig, n_paths: int, base_seed: int, slack: float,
                        gn_trials: int) -> CheckResult:
    """Discrete pathwise-uniqueness check.

    Identical data must stay identical to machine precision; perturbed data
    must keep the MC mean of the exponentially weighted squared difference
    below slack * ||V(0)||^2 (the supermartingale property of the weight).
    The weight is psi = a ||grad v1||^2 + ||G_n(v1) - G_n(v2)||^2_HS / ||V||^2
    (`gronwall_weighted`); the Young constant a is the square of the
    Gagliardo-Nirenberg ratio `measure_gn_constant` measures over gn_trials
    fields.  A pair that blew up fails the check as gronwall.status; a NaN
    difference fails it too.  The constant is the first job of one
    `fan_out`, the pair batches of `gronwall_plan` the others.
    """
    jobs, finish = gronwall_plan(v0_a, v0_b, spec, cfg, n_paths, base_seed, slack)
    gn_constant, *done = fan_out(
        [functools.partial(measure_gn_constant, v0_a.grid, gn_trials), *jobs])
    return finish(done, gn_constant)


# ---------------------------------------------------------------------------
# operator identity suite


# Bounds of the identity suite, in its result order: the drift identities and
# the cancellations hold to rounding (the drift residuals stayed below 1e-14 for
# N = 16-256), F obeys its W^{-1,2} bound by the L^4 norms with 1 % slack, and
# the spectral identities hold to rounding.
IDENTITY_BOUNDS = {
    "drift_curl": 1e-10, "drift_energy": 1e-10, "drift_divfree": 1e-12,
    "f_self": 1e-10, "f_antisym": 1e-10, "f_weighted_q4": 1e-10, "f_bound": 1.01,
    "curl_grad": 1e-12, "bs_roundtrip": 1e-12, "bs_divfree": 1e-12,
}


def _weighted_residual(u: VectorField, f: ScalarField) -> float:
    """|<u.grad f, |f|^2 f>| / (||u||_{L2} ||f||_{H1} || |f|^2 f ||_{H1}),
    the q = 4 weighted cancellation for a vorticity f, u and f dealiased.

    The pairing multiplies five factors band-limited to the dealias cutoff
    c, so its frequencies reach 5c.  It is evaluated on the padded 2N grid,
    where the rectangle rule integrates it exactly while 5c < 2N, as for
    any dealias_fraction below 4/5 (Boyd, Chebyshev and Fourier Spectral
    Methods, 2001, ch. 11).  The padded values are formed from the N-grid
    coefficients, u and grad f each in one stacked transform.  Each
    dealiased factor fills only the columns 0..L of the 2N grid's N+1, L
    the N grid's `dealias_limit`, so its transform takes that block alone.
    """
    grid = u.grid
    fine = SpectralGrid(2 * grid.modes_per_dim, grid.domain_length,
                        grid.dealias_fraction)

    def padded(c: Field) -> np.ndarray:
        return physical_values(regrid(c, fine).half[..., : grid.dealias_limit + 1])

    p = padded(f)
    w = p * p * p
    del p
    advection = padded(u)
    advection *= padded(gradient(f))
    pairing = float(np.sum(advection.sum(axis=0) * w))
    scale = (l2_norm(u) * sobolev_norm_spectral(f, 1.0)
             * sobolev_norm_spectral(to_spectral(w, fine), 1.0))
    return abs(pairing) * fine.cell_area / scale


def require_identity_grid(grid: SpectralGrid) -> None:
    """Refuse a grid whose dealias band holds only the mean mode: every
    random field of the identity suite would be 0, every residual 0/0."""
    if grid.dealias_limit < 1:
        raise ValueError(f"the identity suite needs a nonzero mode in the dealias band; "
                         f"'grid.dealias_fraction' {grid.dealias_fraction} keeps only the "
                         f"mean mode of {grid.modes_per_dim} modes per dimension")


def identity_suite(grid: SpectralGrid, trials: int, seed: int = 0) -> list[CheckResult]:
    """Worst relative residuals of the operator identities over fresh random
    fields (|k|^-2 spectral decay, random phases, dealiased,
    divergence-freed), held to IDENTITY_BOUNDS.

    The drift identities judge D = velocity_drift(u, w), w the vorticity
    values of u, the P B(u,u) that every time step computes: its curl is
    F(u, curl u), it does no work on u, and it is divergence-free."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_identity_grid(grid)
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(IDENTITY_BOUNDS, 0.0)
    for _ in range(trials):
        u = random_divfree_field(grid, rng)
        v = random_divfree_field(grid, rng)
        # one divergence-free field is drawn and not used, so that each seed
        # keeps the xi and zeta of earlier versions of the suite
        divfree_draws(grid, rng, 1)
        xi = random_scalar_field(grid, rng)
        zeta = random_scalar_field(grid, rng)

        u_l2 = l2_norm(u)
        u_h1 = sobolev_norm_spectral(u, 1.0)
        xi_w1 = sobolev_norm_spectral(xi, 1.0)
        zeta_w1 = sobolev_norm_spectral(zeta, 1.0)

        drift = VectorField(grid, operators.velocity_drift(grid, u.half, vorticity_values(u)))
        fuw = bilinear_F(u, curl(u))
        fuxi = bilinear_F(u, xi)
        dual = sobolev_norm_spectral(bessel_multiplier(fuxi, -1.0), 0.0)
        gn = grad_norm_l2(v)
        bs = biot_savart(xi)
        residuals = {
            "drift_curl": l2_norm(curl(drift) - fuw) / l2_norm(fuw),
            "drift_energy": abs(l2_inner(drift, u)) / (u_l2 * u_h1**2),
            "drift_divfree": divergence_defect(drift),
            "f_self": abs(l2_inner(fuxi, xi)) / (u_l2 * xi_w1**2),
            "f_antisym": abs(l2_inner(fuxi, zeta) + l2_inner(bilinear_F(u, zeta), xi))
            / (u_l2 * xi_w1 * zeta_w1),
            # the q = 4 weighted identity: the cubic test factor is not in the
            # dealias band, so the pairing is taken on the padded grid, where
            # its quadrature is exact and the residual is rounding alone;
            # measured in the same relative sense as the energy cancellation
            "f_weighted_q4": _weighted_residual(u, xi),
            "f_bound": dual / (lq_norm(u, 4.0) * lq_norm(xi, 4.0)),
            "curl_grad": abs(gn - l2_norm(curl(v))) / gn,
            "bs_roundtrip": l2_norm(curl(bs) - xi) / l2_norm(xi),
            "bs_divfree": divergence_defect(bs),
        }
        for k, r in residuals.items():
            worst[k] = _sup(worst[k], r)  # a NaN residual stays, and FAILs

    return [CheckResult.evaluate(f"identity.{k}", worst[k], IDENTITY_BOUNDS[k], trials, seed)
            for k in worst]


# ---------------------------------------------------------------------------
# stochastic-integral (BDG) constants


def _bdg_sup_jobs(spec: CovarianceSpec, v0: VectorField, q: float, n_paths: int,
                  base_seed: int, t_end: float, dt: float,
                  grid: SpectralGrid | None = None) -> list:
    """`simulate_bdg_sups`'s jobs, one per path, each giving its row."""
    n_steps = int(round(t_end / dt))
    grid = v0.grid if grid is None else grid
    n = grid.modes_per_dim
    amps = mode_weights(spec, v0)
    # each mode's physical velocity, both components: (m, 2 N^2)
    e_phys = basis_values(spec, grid).reshape(spec.n_modes, -1)

    def path_sups(path):
        g = np.stack([sample_increment(base_seed, path, step, spec, dt).gaussians
                      for step in range(n_steps)])
        brown = np.vstack([np.zeros(spec.n_modes), np.cumsum(g, axis=0)]) * math.sqrt(dt)
        weighted = brown * amps
        norms = np.empty(n_steps + 1)
        for lo in range(0, n_steps + 1, 128):  # time blocks bound the memory
            hi = min(lo + 128, n_steps + 1)
            values = weighted[lo:hi] @ e_phys  # (block, 2 N^2)
            _, scale = np.frexp(np.abs(values).max(axis=1))
            np.ldexp(values, -scale[:, None], out=values)
            norms[lo:hi] = np.ldexp(lq_norms(values.reshape(-1, 2, n, n), q, grid), scale)
        return float(norms[: n_steps // 2 + 1].max()), float(norms.max())

    return [functools.partial(path_sups, path) for path in range(n_paths)]


def simulate_bdg_sups(spec: CovarianceSpec, v0: VectorField, q: float, n_paths: int,
                      base_seed: int, t_end: float, dt: float,
                      grid: SpectralGrid | None = None) -> np.ndarray:
    """sup_t ||X(t)||_{L^q} per path for X(t) = int_0^t Phi dW with the frozen
    operator Phi = G_n(v0): X(t_j) = sum_k w_k B_k(t_j) e_k, w_k the
    `mode_weights` read on v0's grid and B_k the path's Brownian motions,
    summed from its (base_seed, path, step) increments.  The e_k values and
    the L^q sums are taken on `grid`, v0's own by default; X has the noise
    band K, so for even q they are exact on any M-point grid with qK < M,
    such as `noise.quadrature_grid`.  `lq_norms` takes each time's values
    divided by the power of two at their largest |x|, and its norm is
    multiplied back: an exact scaling that keeps |x|^q from under- or
    overflowing at large q.  Shape (path, 2): the sup over the first
    n_steps // 2 steps and the sup over all n_steps.  One `fan_out` job per
    path.
    """
    return np.array(fan_out(_bdg_sup_jobs(spec, v0, q, n_paths, base_seed, t_end, dt, grid)))


def bdg_phi_norm(spec: CovarianceSpec, v0: VectorField, q: float) -> float:
    """||Phi||_R of Phi = G_n(v0) on `noise.quadrature_grid`: 0.0 exactly
    when every `mode_weights` entry is 0, so that Phi = 0.  Raises
    ValueError when a nonzero Phi gets a norm that is 0 or not finite,
    which happens where |x|^q under- or overflows: the constants would
    divide by it."""
    if not np.any(mode_weights(spec, v0)):
        return 0.0
    norm = operator_norms(v0, spec, 0.0, q, quadrature_grid(spec, v0.grid, q))["radonifying"]
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"the gamma-radonifying norm of a nonzero noise operator is {norm} "
                         f"at q = {q}: |x|^q under- or overflows")
    return norm


def bdg_plan(spec: CovarianceSpec, v0: VectorField, q: float, m_list, n_paths: int,
             base_seed: int, t_end: float, dt: float, stability: float,
             phi_norm: float | None = None):
    """`bdg_report`'s jobs, one `simulate_bdg_sups` path each and none when
    Phi = 0, and its reduction of their results, in job order.  The moment
    orders, the step count and ||Phi||_R are checked here, before any job."""
    for m in m_list:
        if m < 2 or m % 2 != 0:
            raise ValueError(f"moment order must be even and >= 2, got {m}")
    n_steps = int(round(t_end / dt))
    if n_steps < 2:
        raise ValueError(f"bdg needs at least 2 time steps, got {n_steps}")
    if phi_norm is None:
        phi_norm = bdg_phi_norm(spec, v0, q)
    if phi_norm == 0.0:
        return [], lambda done: [
            CheckResult.evaluate(f"bdg.C{m}.skipped", 0.0, 0.0, n_paths, base_seed,
                                 extra={"reason": "Phi = 0"}) for m in m_list]
    jobs = _bdg_sup_jobs(spec, v0, q, n_paths, base_seed, t_end, dt,
                         quadrature_grid(spec, v0.grid, q))

    def finish(done: list) -> list[CheckResult]:
        sups = np.array(done)
        # the time each sup covers; for an even step count t_end / 2 exactly
        horizons = (t_end * ((n_steps // 2) / n_steps), t_end)
        out = []
        for m in m_list:
            constants = {}
            for col, horizon in enumerate(horizons):
                mean = float(np.mean(sups[:, col] ** m))
                constants[f"T={horizon:g}"] = mean / (horizon * phi_norm**2) ** (m / 2.0)
            vals = np.array(list(constants.values()))
            center = float(np.mean(vals))
            observed = float(np.max(np.abs(vals - center)) / center)
            out.append(CheckResult.evaluate(f"bdg.C{m}", observed, stability, n_paths,
                                            base_seed, extra={"constants": constants}))
        return out

    return jobs, finish


def bdg_report(spec: CovarianceSpec, v0: VectorField, q: float, m_list, n_paths: int,
               base_seed: int, t_end: float, dt: float, stability: float,
               phi_norm: float | None = None) -> list[CheckResult]:
    """Fitted constants C_m = E sup_{t<=T} ||X||^m_{L^q} / (T ||Phi||^2_R)^{m/2}
    at the times the sups cover, T = (n_steps // 2) dt and t_end (at least
    2 steps); PASS when both sit within +-stability of their mean.  Since
    X = sigma(v0) sum_k c_k R_n(k) B_k e_k and sigma(v0) cancels in C_m, this
    verifies the T^{m/2} scaling of the Brownian sup moments of the fixed
    field sum_k c_k R_n e_k B_k; it never reads the time step.

    sigma(v0) and the weights are read on v0's grid; the sups and ||Phi||_R
    are summed on `noise.quadrature_grid`.  X has the noise band K, so for
    even q the rectangle rule of |X|^q (band qK) is exact on M points when
    qK < M: Q is the smallest such even M >= 8, capped at 2N, and any finer
    grid adds only rounding.  For other q, no grid is exact, and Q is 2N.
    `phi_norm` is `bdg_phi_norm`'s value, computed here when not given.  A
    degenerate Phi = 0 makes the ratio undefined; reported as skipped.  The
    jobs and the reduction of `bdg_plan` over one `fan_out`.
    """
    jobs, finish = bdg_plan(spec, v0, q, m_list, n_paths, base_seed, t_end, dt, stability,
                            phi_norm)
    return finish(fan_out(jobs))
