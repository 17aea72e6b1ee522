"""qcmachine benchmark: one seeded, closed-loop workload per run, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload collision --seed 1 --quick

--trace 0 measures the end-to-end metrics with tracing off. After one untimed
warm-up query the run cycles through the workload's fixed list of queries
until their summed wall time reaches --seconds, and at least MIN_PASSES times
through the list; a query's latency is the median of its runs. Set-up time is
measured over SETUP_LAUNCHES launches of a fresh interpreter: one at the
start and one after every third of a pass, so that they sample the host over
most of the run.

Times are reported at reference host speed. A shared host runs computation
1.5 to 2 times slower for spells of seconds to minutes, longer than a run, so
raw wall times of the same code spread past any useful bound. Right before
each query the run times a fixed reference kernel, and scales the query's
wall time by REFERENCE_S over the kernel's time. Start-up slows less than
computation, so each set-up launch is paired with a launch right before it
that only imports numpy, and set-up time is REFERENCE_LAUNCH_S times the
median ratio of the two. The reported times are therefore seconds on a host
on which the kernel takes REFERENCE_S and a numpy import REFERENCE_LAUNCH_S;
the benchmark's own code fixes both references, so a change to the program
moves the reported times as it moves wall time. The raw wall-clock medians
are printed next to each metric and kept in the result record.
--trace 1 runs each of the workload's fixed number of queries untraced and
then traced, and reports per-layer call counts, self times and errors, and
the tracing overhead. --quick runs a single query.
Output checks run outside the timed section: the first run of each query is
checked against the oracles, later runs must reproduce it byte for byte. A
query fails if it raises, if cli.main returns non-zero or if its check fails;
failures are counted and recorded, never fatal.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false only when an answer
contradicts an oracle beyond the accuracy the program reports for it. The full
record (environment, sample counts, failures with their parameters, spans) is
written to .perfbench_run/<workload>-seed<n>-trace<t>/ under the repository.
"""

import os

# The matrices are 2x2 to 8x8: BLAS and OpenMP threads only add noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_LAUNCHES = 9
REFERENCE_S = 0.016  # about the reference kernel's time on an idle 2.0 GHz Xeon vCPU
MIN_PASSES = 3
TAIL_BEYOND = 10
REFERENCE_CHILD = "import numpy; print('ready', flush=True)"
REFERENCE_LAUNCH_S = 0.1  # about REFERENCE_CHILD's launch time on an idle 2.0 GHz Xeon vCPU
SETUP_CHILD = (
    "import sys, pathlib, qcmachine.cli as cli; "
    "cli.params_from_config(pathlib.Path(sys.argv[1]).read_text(encoding='utf-8')); "
    "print('ready', flush=True)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0, help="summed query wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one query with its checks")
    return parser.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "processes": 1,
    }


def reference_kernel() -> float:
    """Fixed work in the program's own mix: small complex matrix products, traces, float formatting."""
    h = 0.1 * np.kron(np.array([[0.6, 0.2j], [-0.2j, 0.4]]), np.array([[0.5, 0.1], [0.1, 0.5]]))
    u = np.eye(4, dtype=complex)
    acc = 0.0
    for i in range(1200):
        u = u @ (np.eye(4) + h * (1j / (i + 1)))
        acc += float(np.trace(u).real) * 0.5 + i * 1e-9
        acc += len(",".join(f"{x:.16e}" for x in (acc, i * 0.1, u[0, 0].real))) * 1e-12
    return acc


def host_factor() -> float:
    """REFERENCE_S over the reference kernel's wall time now.

    A query's wall time measured right after, times this factor, is its time at reference host speed.
    """
    start = time.perf_counter()
    reference_kernel()
    return REFERENCE_S / (time.perf_counter() - start)


def launch(code: str, *args: str) -> float:
    """Seconds from starting an interpreter on `code` to the 'ready' line it prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"child {code!r} exited with {proc.returncode} after printing {line!r}")
    return ready - start


def measure_setup(config: Path, launches: int, first: bool) -> list[tuple[float, float]]:
    """(set-up, reference) seconds of `launches` pairs of interpreter launches.

    Set-up runs from the launch to qcmachine.cli imported and `config` parsed;
    the reference launch right before it only imports numpy. With `first`, one
    extra pair first writes the bytecode caches and is not counted.
    """
    pairs = []
    for _ in range(launches + first):
        reference = launch(REFERENCE_CHILD)
        pairs.append((launch(SETUP_CHILD, str(config)), reference))
    return pairs[first:]


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with TAIL_BEYOND samples beyond it.

    With 2 * TAIL_BEYOND samples or fewer no percentile above the median has
    that many beyond it; the median is reported then.
    """
    xs = sorted(samples)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return statistics.median(xs), 50.0, n // 2


class Runner:
    """Executes queries of one workload and records their outcomes.

    The first run of a query is checked against the oracles. A later run of the
    same query must reproduce the first one's result and output files byte for
    byte (identical config and build give identical output), and inherits its
    check outcome; this keeps the checks of a many-pass run short.
    """

    def __init__(self, workload, query):
        self.workload = workload
        self.query = query  # query index -> prepared Query
        self.attempted = 0
        self.failures: list[dict] = []
        self.first_runs: dict[int, tuple[str, object]] = {}  # query index -> (digest, check outcome)

    def check(self, k: int, q, result):
        digest = hashlib.sha256(pickle.dumps(result))
        for path in sorted(q.workdir.glob("out*")):
            digest.update(path.read_bytes())
        first = self.first_runs.get(k)
        if first is None:
            first = self.first_runs[k] = (digest.hexdigest(), self.workload.check(q, result))
        elif digest.hexdigest() != first[0]:
            return f"run differs from the first run of query {k}", True
        return (first[1].message, first[1].wrong) if first[1] is not None else None

    def execute(self, k: int, tracer=None, record: bool = True) -> float:
        """Run query k; return its wall time. Preparation and checks are not timed."""
        q = self.query(k)
        stderr = io.StringIO()
        tracing = tracer.installed(k) if tracer is not None else contextlib.nullcontext()
        result, error = None, None
        start = time.perf_counter()
        try:
            with tracing, contextlib.redirect_stderr(stderr):
                result = self.workload.run(q)
        except Exception as exc:
            error = (f"{type(exc).__name__}: {exc}", traceback.format_exc())
        elapsed = time.perf_counter() - start
        if not record:
            return elapsed
        self.attempted += 1
        wrong = False
        if error is None:
            try:
                problem = self.check(k, q, result)
            except Exception as exc:
                error = (f"check raised {type(exc).__name__}: {exc}", traceback.format_exc())
                wrong = True
            else:
                if problem is not None:
                    error, wrong = (problem[0], ""), problem[1]
        if error is not None:
            message = error[0]
            if stderr.getvalue().strip():
                message += " | stderr: " + stderr.getvalue().strip()
            self.failures.append({"query": k, "wrong": wrong, "message": message, "traceback": error[1],
                                  "machine": q.machine, "cli_seed": q.cli_seed})
        return elapsed

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not any(f["wrong"] for f in self.failures)


def end_to_end(runner: Runner, seconds: float, quick: bool) -> tuple[dict, dict]:
    config = runner.query(0).config
    n = 1 if quick else runner.workload.queries
    wall: list[list[float]] = [[] for _ in range(n)]  # per query: wall time of each run
    scaled: list[list[float]] = [[] for _ in range(n)]  # per query: the same at reference speed
    if not quick:
        runner.execute(0, record=False)  # warm-up: lazy imports, allocator, file cache
    setup = measure_setup(config, 1, first=True)
    spent, executed = 0.0, 0
    while executed < (1 if quick else MIN_PASSES * n) or (not quick and spent < seconds):
        factor = host_factor()
        elapsed = runner.execute(executed % n + 1)
        wall[executed % n].append(elapsed)
        scaled[executed % n].append(elapsed * factor)
        spent += elapsed
        executed += 1
        if not quick and len(setup) < SETUP_LAUNCHES and executed % max(1, n // 3) == 0:
            setup += measure_setup(config, 1, first=False)
    latencies = [statistics.median(runs) for runs in scaled]
    wall_latencies = [statistics.median(runs) for runs in wall]
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": {"value": REFERENCE_LAUNCH_S * statistics.median(t / ref for t, ref in setup), "unit": "s"},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "latency_tail_s": {"value": tail, "unit": "s"},
        "throughput_qps": {"value": n / sum(latencies), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "success_ratio": {"value": (runner.attempted - runner.failed) / runner.attempted, "unit": "1"},
    }
    notes = {
        "setup_s": f"median of {len(setup)} launches; wall clock {statistics.median(t for t, _ in setup):.4f} s, "
                   f"numpy-only reference launch {statistics.median(ref for _, ref in setup):.4f} s",
        "latency_p50_s": f"median of {n} queries, each the median of its runs over {executed / n:.2f} passes; "
                         f"wall clock {statistics.median(wall_latencies):.4f} s",
        "latency_tail_s": f"p{pct:.1f} of {n} queries, {beyond} beyond; "
                          f"wall clock {tail_latency(wall_latencies)[0]:.4f} s",
        "throughput_qps": f"{n} queries in {sum(latencies):.3f} s; wall clock {executed} runs in {spent:.3f} s",
        "peak_rss_mb": "ru_maxrss of this process",
        "success_ratio": f"{runner.attempted - runner.failed}/{runner.attempted} succeeded; "
                         f"failed_ratio {runner.failed / runner.attempted:.4f}",
    }
    samples = {"setup_and_reference_s": setup, "query_wall_s": wall, "query_reference_speed_s": scaled}
    return metrics, {"notes": notes, "samples": samples}


def traced(runner: Runner, quick: bool, out_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics of the workload's fixed number of queries. Each query runs untraced
    and then traced; both times are taken at reference host speed, like the end-to-end ones."""
    count = 1 if quick else runner.workload.traced_queries
    if not quick:
        runner.execute(0, record=False)
    tracer = Tracer()
    untraced = traced_s = 0.0
    for k in range(1, count + 1):
        untraced += host_factor() * runner.execute(k, record=False)
        traced_s += host_factor() * runner.execute(k, tracer=tracer)
    tracer.write_spans(out_dir / "spans.csv")
    metrics = tracer.metrics()
    metrics["trace_overhead_s"] = {"value": traced_s - untraced, "unit": "s"}
    notes = {"trace_overhead_s": f"{count} queries: traced {traced_s:.3f} s, untraced {untraced:.3f} s; "
                                 f"{len(tracer.spans)} spans"}
    return metrics, {"notes": notes}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcmachine" / "__init__.py").is_file():
        print(f"perfbench: no qcmachine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcmachine
    from workloads import WORKLOADS, Draws, make_query

    if Path(qcmachine.__file__).resolve().parent != SRC / "qcmachine":
        print(f"perfbench: imported qcmachine from {qcmachine.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = RUN_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    workdir = out_dir / "work"
    shutil.rmtree(out_dir, ignore_errors=True)
    workdir.mkdir(parents=True)
    draws = Draws(args.seed)
    runner = Runner(workload, lambda k: make_query(draws, k, workdir))
    try:
        if args.trace:
            metrics, detail = traced(runner, args.quick, out_dir)
        else:
            metrics, detail = end_to_end(runner, args.seconds, args.quick)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    record = {"workload": workload.name, "definition": workload.definition, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "quick": args.quick, "environment": env,
              "metrics": metrics, **detail, "failures": runner.failures}
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}{' quick' if args.quick else ''}")
    print(f"  query: {workload.definition}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, metric in metrics.items():
        note = detail["notes"].get(name, "")
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    for failure in runner.failures:
        print(f"  failed query {failure['query']}{' (wrong answer)' if failure['wrong'] else ''}: "
              f"{failure['message']}; cli seed {failure['cli_seed']}; machine {failure['machine']}")
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
