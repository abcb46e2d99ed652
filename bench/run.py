"""Region-job benchmark for `secregion`.

Run from the repository root:

    python3 bench/run.py --workload ps-wiretap --seed 1 --seconds 30 --trace 0

One process runs one workload (see `workloads.py`): it writes the
workload's channel files from the seed, then runs the workload's region
jobs one after another through `secregion.cli.run` (a closed loop with one
client), round after round, until the next round would end after
`--seconds`.  BLAS and OpenMP are pinned to one thread.  Every job's
output is checked by `check.py`, which does not use `secregion`; a later
round must reproduce the first round's CSV bytes.

`--trace 0` reports the end-to-end metrics: `setup_s` (median over fresh
processes of importing `secregion` and loading the channel files),
`solve_s` (time of one round, each job at its median), `peak_rss_mb` and
`support_bits` (mean over the workload's jobs and fixed simplex weights of
the best weighted sum rate).  Both times are rescaled to a fixed machine
speed: see `reference_s`.  `--trace 1` runs untraced and traced rounds
in pairs and reports the per-layer metrics of `tracer.py`, with the
tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Run outputs and the run
record go to `bench/runs/<workload>-seed<seed>/`.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Before numpy is imported anywhere in this process or its children.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"

SETUP_PROBES = 5

# Machine-speed reference.  The same single-threaded job runs up to 1.9x
# slower in some spells than in others, spells that last from a second to
# minutes, with no steal time and CPU time equal to wall time.  So every
# timed job and set-up probe is bracketed by a fixed numpy computation
# (not `secregion`) timed on the same CPU, and its wall time w is reported
# as w * REF_S / (mean of the two reference times around it): seconds at
# the speed where the reference takes REF_S.
REF_ITERATIONS = 150
REF_TIMINGS = 5
REF_S = 0.0025

# The CLI's own --seed (multi-start restarts, oracle draws) stays at its
# default: it is solver configuration, not input, and letting it follow
# the workload seed moved one job's time by 30% from seed to seed.
CLI_SEED = 0

# Nonnegative weights on (r0, r1, r2): the simplex grid with step 1/4.
SUPPORT_WEIGHTS = [
    (a / 4, b / 4, (4 - a - b) / 4) for a in range(5) for b in range(5 - a)
]

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "support_bits": "bits"}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_probe(channel_files) -> float:
    """Seconds a fresh process takes to import secregion and load the files.

    The child times itself; the result is rescaled to the reference speed.
    """
    done, _, scale = timed_at_reference_speed(lambda: subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *map(str, channel_files)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ))
    return float(done.stdout.strip().splitlines()[-1]) * scale


def reference_s() -> float:
    """Median, over REF_TIMINGS timings, of a fixed small numpy computation."""
    import numpy as np

    a = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
    times = []
    for _ in range(REF_TIMINGS):
        start = time.perf_counter()
        for _ in range(REF_ITERATIONS):
            w, v = np.linalg.eigh(a)
            np.linalg.slogdet(a + w[0] * (v @ v.T))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_at_reference_speed(fn):
    """(fn's result, its wall seconds, the factor that rescales them to REF_S)."""
    before = reference_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = reference_s()
    return result, wall, REF_S / ((before + after) / 2)


def support_bits(regions, jobs) -> float:
    """Mean over jobs and SUPPORT_WEIGHTS of max over points of w . (r0, r1, r2).

    ``regions`` maps a job name to its checked rates.  A job without a
    region (it failed, or its output failed a check) counts as 0, so the
    figure cannot rise because a job dropped out.
    """
    import numpy as np

    weights = np.array(SUPPORT_WEIGHTS)
    return float(np.mean([
        (weights @ regions[job.name].T).max(axis=1).mean() if job.name in regions else 0.0
        for job in jobs
    ]))


class Workload:
    """The jobs of one workload, their inputs, and what their outputs must be."""

    def __init__(self, name, seed, run_dir):
        import secregion.cli
        import workloads

        self.cli = secregion.cli
        self.jobs = workloads.WORKLOADS[name]
        chans = workloads.instances(seed)
        used = sorted({job.instance for job in self.jobs})
        self.channels = {k: chans[k] for k in used}
        self.channel_files = [run_dir / f"{k}.txt" for k in used]
        for k, path in zip(used, self.channel_files):
            workloads.write_channel_file(*chans[k], path)
        self.configs = [
            secregion.cli.RunConfig(
                channels=str(run_dir / f"{job.instance}.txt"),
                scenario=job.scenario,
                method=job.method,
                power=job.power,
                out=str(run_dir / f"{job.name}.csv"),
                common=job.common,
                eps1=job.eps1,
                sigma=job.sigma,
                samples=job.samples,
                seed=CLI_SEED,
            )
            for job in self.jobs
        ]
        self.first_outputs = {}  # job name -> CSV bytes of the first round
        self.failures = []  # jobs that raised or exited nonzero
        self.problems = []  # outputs that failed a check
        self.regions = {}  # job name -> (r0, r1, r2) rows that passed the checks

    def _run_job(self, cfg):
        try:
            return self.cli.run(cfg)
        except Exception:  # a job that raises is counted, not fatal
            traceback.print_exc()
            return None

    def run_round(self) -> tuple:
        """Run every job once.

        Returns (wall seconds in `cli.run` per job, the same at the
        reference speed, jobs failed).
        """
        walls, times, failed = [], [], 0
        for job, cfg in zip(self.jobs, self.configs):
            code, wall, scale = timed_at_reference_speed(lambda: self._run_job(cfg))
            walls.append(wall)
            times.append(wall * scale)
            if code != 0:
                failed += 1
                self.failures.append(f"{job.name}: exit code {code}")
                continue
            self._check(job, cfg)
        return walls, times, failed

    def _check(self, job, cfg):
        import check
        import numpy as np

        data = Path(cfg.out).read_bytes()
        first = self.first_outputs.setdefault(job.name, data)
        if first is not data:  # the first round's bytes were checked already
            if first != data:
                self.problems.append(f"{job.name}: CSV differs from the first round's")
            return
        h1, h2 = self.channels[job.instance]
        found = check.check_region(
            cfg.out, h1, h2, job.scenario, job.common, job.method, job.power
        )
        self.problems.extend(f"{job.name}: {p}" for p in found)
        if not found:
            _, rows = check.read_csv(cfg.out)
            self.regions[job.name] = np.array([r[:3] for r in rows])


def median_round(rounds) -> float:
    """Sum over jobs of each job's median time across rounds."""
    return sum(statistics.median(times) for times in zip(*rounds))


def paired_overhead(untraced, traced) -> float:
    """Sum over jobs of the median, over paired rounds, of traced minus untraced time.

    The two rounds of a pair run back to back on the same CPU, so a slow
    spell of the machine that spans the pair cancels.
    """
    return sum(
        statistics.median(t - u for u, t in zip(us, ts))
        for us, ts in zip(zip(*untraced), zip(*traced))
    )


def measure(work, seconds, trace, run_dir, probe=None):
    """Run whole rounds until the next one would end after ``seconds``.

    Returns (per-job times of each untraced round at the reference speed,
    the same as wall times, rounds run, jobs failed, metrics): `setup_s`
    untraced, the per-layer metrics traced.
    Traced, each unit is an untraced and a traced round, and which of the
    two goes first alternates from unit to unit.

    ``probe``, when given, is called before each of the first SETUP_PROBES
    rounds (and after the last, if fewer rounds ran), so that the set-up
    samples are spread over the run rather than taken in one burst.
    """
    import tracer as tracing

    tracer = tracing.Tracer() if trace else None
    untraced, untraced_walls, traced, layers, setups = [], [], [], [], []
    failed = 0
    unit_walls = []

    def untraced_round():
        nonlocal failed
        walls, times, n_failed = work.run_round()
        untraced_walls.append(walls)
        untraced.append(times)
        failed += n_failed

    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    while True:
        # Successive rounds run on successive CPUs: a neighbour that slows
        # one CPU for tens of seconds then slows only some of a job's runs.
        os.sched_setaffinity(0, {cpus[len(unit_walls) % len(cpus)]})
        if probe is not None and len(setups) < SETUP_PROBES:
            setups.append(probe())
        unit_start = time.perf_counter()
        traced_first = tracer is not None and len(unit_walls) % 2 == 1
        if not traced_first:
            untraced_round()
        if tracer is not None:
            tracer.install()
            tracer.reset()
            try:
                _, times, n_failed = work.run_round()
            finally:
                tracer.uninstall()
            traced.append(times)
            failed += n_failed
            layers.append(tracer.measure())
        if traced_first:
            untraced_round()
        unit_walls.append(time.perf_counter() - unit_start)
        if time.perf_counter() + max(unit_walls) > deadline:
            break
    while probe is not None and len(setups) < SETUP_PROBES:
        setups.append(probe())
    os.sched_setaffinity(0, cpus)
    rounds = len(untraced) + len(traced)
    if tracer is None:
        return untraced, untraced_walls, rounds, failed, {"setup_s": statistics.median(setups)}
    # median_low keeps counts whole; they repeat exactly from round to round.
    per_layer = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    per_layer["trace.overhead_s"] = paired_overhead(untraced, traced)
    per_layer["trace.absent"] = len(tracer.absent)
    record = {"absent": tracer.absent, "per_round": layers}
    (run_dir / "trace.json").write_text(json.dumps(record), encoding="utf-8")
    if tracer.absent:
        print(f"trace: absent (reported as 0): {', '.join(tracer.absent)}")
    return untraced, untraced_walls, rounds, failed, per_layer


def main(argv=None) -> int:
    if not (SRC / "secregion" / "__init__.py").is_file():
        print(f"error: no secregion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import secregion
    import tracer as tracing
    import workloads

    if Path(secregion.__file__).resolve().parent != (SRC / "secregion").resolve():
        print(f"error: imported secregion from {secregion.__file__}", file=sys.stderr)
        return 2
    args = parse_args(argv, workloads.WORKLOADS)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    env = environment()
    print("env: " + json.dumps(env))
    work = Workload(args.workload, args.seed, run_dir)
    probe = None if args.trace else (lambda: setup_probe(work.channel_files))
    round_times, round_walls, rounds, failed, values = measure(
        work, args.seconds, args.trace, run_dir, probe
    )

    if args.trace:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        units = END_TO_END_UNITS
        values = {
            **values,
            "solve_s": median_round(round_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "support_bits": support_bits(work.regions, work.jobs),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for line in work.failures + work.problems:
        print(f"problem: {line}", file=sys.stderr)
    result = {
        "correct": not work.problems,
        "attempted": rounds * len(work.jobs),
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, env=env,
                  job_s=round_times, job_wall_s=round_walls, failures=work.failures, problems=work.problems)
    (run_dir / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} solve wall time = {median_round(round_walls)!r} s "
          "(not rescaled to the reference speed)")
    print(f"{args.workload} jobs attempted = {result['attempted']}, failed = {failed}, "
          f"rounds = {rounds}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
