"""notchlab benchmark: one workload on the bundled paper device.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load shape: one process, closed loop, one client; each op starts after the
previous one finished.  After one untimed op, a run makes whole passes over
the workload's op cycle, as many as fit in S seconds and at least one, so
every run has the same mix.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs S/2 seconds
untraced, then S/2 seconds with spans around every call into notchlab's
public functions, and prints the per-layer metrics; spans are written to
.perfbench_out/spans-NAME.npz.  Either way the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it give the same numbers with their sample counts and bases, and an
environment stamp.
"""

import os

# One BLAS thread: the matrices are small, and the box is shared.  Set before
# numpy is imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli_session", "sweep_grid", "readout_char", "spectrum_fit")

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s", "rss_peak_mb": "MB"}
SETUP_RUNS = 5      # fresh interpreters per setup_s; one cold import varies ~20%
IMPORT_RUNS = 3     # fresh interpreters per cli.import_s
IMPORT_CODE = ("import time\nt0 = time.perf_counter()\nimport notchlab.cli\n"
               "print(time.perf_counter() - t0)\n")


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def fresh_interpreter(code: str, env: dict) -> tuple[float, str]:
    """Run code in a new interpreter: (seconds to its first line, the line)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"fresh interpreter failed (exit {proc.returncode})")
    return elapsed, line.strip()


def setup_seconds(code: str, env: dict) -> list[float]:
    """Fresh interpreter to first op ready, after one run that warms caches."""
    code += "print('ready', flush=True)\n"
    fresh_interpreter(code, env)
    return [fresh_interpreter(code, env)[0] for _ in range(SETUP_RUNS)]


class Phase:
    """Latencies and failures of one timed phase."""

    def __init__(self):
        self.lat: list[float] = []
        self.labels: list[str] = []
        self.failed: dict[int, str] = {}
        self.wall = 0.0

    @property
    def n(self) -> int:
        return len(self.lat)

    @property
    def ops_per_s(self) -> float:
        return self.n / self.wall


def measure(ops: list, seconds: float, first_id: int = 0,
            tracer=None) -> Phase:
    """Closed loop, one client, whole passes over ops.

    Another pass starts only if, at the mean pass time so far, it ends
    within seconds; the first pass always runs.
    """
    phase = Phase()
    t_start = time.perf_counter()
    k = 0
    while True:
        if k and k % len(ops) == 0:
            elapsed = time.perf_counter() - t_start
            if elapsed * (1 + len(ops) / k) > seconds:
                break
        op_id = first_id + k
        op = ops[k % len(ops)]
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            check = op(op_id)
        except Exception as exc:  # the program failed: count it, keep going
            phase.lat.append(time.perf_counter() - t0)
            check = None
            phase.failed[op_id] = f"{type(exc).__name__}: {exc}"
        else:
            phase.lat.append(time.perf_counter() - t0)
        phase.labels.append(op.label)
        if tracer is not None:
            tracer.op = -1       # spans made by the check belong to no op
        if check is not None:
            try:
                msg = check()
            except Exception as exc:  # malformed output
                msg = f"output check raised {type(exc).__name__}: {exc}"
            if msg:
                phase.failed[op_id] = msg
        k += 1
    phase.wall = time.perf_counter() - t_start
    return phase


def latency_summary(lat: list[float]) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it.

    With fewer than 21 samples no percentile above the median has 10 beyond
    it; the tail is then the upper middle sample.
    """
    s = sorted(lat)
    n = len(s)
    k = max(n - 11, n // 2)
    return {"p50_ms": statistics.median(s) * 1e3, "tail_ms": s[k] * 1e3,
            "tail_pct": 100.0 * k / (n - 1) if n > 1 else 100.0,
            "beyond": n - 1 - k, "n": n}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "notchlab").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import importlib.metadata as md

    import numpy

    commit = None
    try:
        top_head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30).stdout.split()
        if len(top_head) == 2 and Path(top_head[0]).resolve() == ROOT:
            commit = top_head[1]
    except OSError:
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        **{pkg: md.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def end_to_end(wl, seconds: float, env: dict,
               first_id: int) -> tuple[dict, dict, Phase]:
    setup = setup_seconds(wl.setup_code, env)
    phase = measure(wl.ops(), seconds, first_id)
    phase.failed.update(wl.final_checks())
    children = wl.rss_of == "children"
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    lat = latency_summary(phase.lat)
    values = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "setup_s": statistics.median(setup),
        "rss_peak_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {
        "ops_per_s": f"{phase.n} ops in {phase.wall:.3f} s",
        "op_p50_ms": f"n={lat['n']}",
        "op_tail_ms": (f"p{lat['tail_pct']:.1f}, n={lat['n']}, "
                       f"{lat['beyond']} beyond"),
        "setup_s": f"median of {len(setup)} fresh interpreters: "
                   + ", ".join(f"{s:.4f}" for s in setup),
        "rss_peak_mb": f"max RSS of {'child processes' if children else 'this process'}",
    }
    return values, notes, phase


def per_layer(wl, seconds: float, env: dict,
              first_id: int) -> tuple[dict, list[Phase]]:
    from tracing import Tracer, layer_table, load_spans, save_spans

    import_s = statistics.median(
        float(fresh_interpreter(IMPORT_CODE, env)[1])
        for _ in range(IMPORT_RUNS))
    plain = measure(wl.ops(), seconds / 2, first_id)
    first_id += plain.n
    if wl.rss_of == "children":
        wl.span_dir = wl.work / "spans"
        wl.span_dir.mkdir()
        traced = measure(wl.ops(), seconds / 2, first_id)
        spans = load_spans(sorted(wl.span_dir.glob("op*.npz")))
    else:
        tracer = Tracer()
        tracer.install()
        traced = measure(wl.ops(), seconds / 2, first_id, tracer)
        spans = tracer.spans()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    save_spans(out_dir / f"spans-{wl.name}.npz", spans)
    plain.failed.update(wl.final_checks())
    table = layer_table(spans, traced.n)
    table["cli.import_s"] = (import_s,
                             f"median of {IMPORT_RUNS} fresh interpreters")
    table["trace.overhead_ratio"] = (
        plain.ops_per_s / traced.ops_per_s,
        f"untraced {plain.ops_per_s:.4f} ops/s over traced "
        f"{traced.ops_per_s:.4f} ops/s")
    return table, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "notchlab" / "__init__.py").is_file():
        print(f"error: notchlab sources not found under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    env = child_env()
    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, env)
        # one untimed op first, so lazy set-up inside the process is done
        warm = measure(wl.ops()[:1], 0.0)
        if args.trace:
            table, phases = per_layer(wl, args.seconds, env, warm.n)
            values = {k: v for k, (v, _) in table.items()}
            notes = {k: note for k, (_, note) in table.items()}
            units = {k: per_layer_unit(k) for k in table}
        else:
            values, notes, phase = end_to_end(wl, args.seconds, env, warm.n)
            phases = [phase]
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    by_label: dict[str, list[float]] = {}
    for label, t in zip(phases[0].labels, phases[0].lat):
        by_label.setdefault(label, []).append(t)
    phases.append(warm)
    attempted = sum(p.n for p in phases)
    failures = {i: m for p in phases for i, m in p.failed.items()}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"closed loop, 1 client, {attempted} ops")
    for name in sorted(values, key=lambda k: (k not in E2E_UNITS, k)):
        print(f"  {name:<36} {values[name]:<14.6g} {units[name]:<6} "
              f"{notes.get(name) or ''}")
    print(f"  {'fail_ratio':<36} {len(failures) / attempted:<14.6g} "
          f"{'1':<6} {len(failures)}/{attempted} ops failed")
    for op_id, msg in sorted(failures.items())[:5]:
        print(f"  failed op {op_id}: {msg}", file=sys.stderr)
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "metrics": {k: {"value": values[k], "unit": units[k],
                        "base": notes.get(k)} for k in values},
        "fail_ratio": {"value": len(failures) / attempted, "unit": "1",
                       "base": f"{len(failures)}/{attempted} ops"},
        "op_p50_ms_by_kind": {k: statistics.median(v) * 1e3
                              for k, v in by_label.items()},
    }}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in values}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
