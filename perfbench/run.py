"""End-to-end and per-layer benchmark of the codemotion CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each run writes the workload's synthetic dataset with the library's own
generator and writer (``generate_synthetic`` + ``save_dataset``), discards
one warm-up CLI run, then launches fresh ``python -m codemotion.cli ...``
processes one at a time (a closed loop with one client) for S seconds, and
at least MIN_RUNS runs. The dataset is written SETUP_REPEATS times in all,
the later times spread over the measuring time, and ``setup_s`` comes from the
median.

With ``--trace 0`` a run of ``perfbench/reference_task.py``, a fixed task
that uses no codemotion code, comes before each CLI run and after the last.
The end-to-end metrics are the mean CLI wall time over the mean reference
task wall time (``wall_rel``), which cancels the drift of the host's speed,
peak RSS of the CLI process, set-up time rescaled to a host on which the
reference task takes REFERENCE_TASK_S, and the share of runs that
succeeded; the raw times are in the detail line. With
``--trace 1`` it alternates traced runs (``perfbench/tracer.py``) with
untraced ones and reports per-layer metrics from the traced spans, plus the
tracing overhead. Every run's output is compared with the reference recorded
for the workload and seed (``perfbench/references.json``; for a seed not
recorded there, the warm-up run's output), and a traced run also checks
sampled similarity scores against ``tests/oracles.py``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
REFERENCE_TASK = HERE / "reference_task.py"
# About the reference task's wall time on the 2-vCPU VM the workloads were
# sized on. With --trace 0, setup_s is rescaled to a host of that speed.
REFERENCE_TASK_S = 2.0
WORK = ROOT / ".perfbench-work"

# Two fold threads match the 2-core machine the workloads were sized on; BLAS
# stays single-threaded so no run has more threads than that.
THREAD_ENV = {
    "CODE_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 3
MIN_RUNS = 3  # untraced runs with --trace 0
MIN_TRACED = 2  # traced runs, and as many untraced ones, with --trace 1
# One workload must end within 180 s; no CLI run starts or keeps running past this.
DEADLINE_S = 165.0

CLASSES = 20
SUBJECTS = 5
TRAIN_SUBJECTS = "subject00,subject01,subject02"

# Layers every traced run must record at least one span for.
EXPECTED_SPANS = ("cli.main", "ingest.load", "ingest.filter", "evaluation", "descriptor", "similarity")


@dataclass(frozen=True)
class Workload:
    name: str
    per_class: int  # repetitions per (class, subject)
    joints: int
    frames: int  # at 120 Hz
    args: tuple  # CLI arguments besides --manifest, --seed and --out
    seeded: bool  # whether the CLI command takes --seed
    report: bool  # JSON report + confusion CSV (else a sweep CSV)
    kinds: tuple  # similarity kinds a traced run must record


WORKLOADS = {
    w.name: w
    for w in (
        # 5 s recordings: CSV parsing grows with frames x joints while CSM does
        # not, so ingest dominates and the similarity kernel is bypassed.
        Workload(
            "ingest-kfold",
            per_class=2, joints=20, frames=600,
            args=("crossval", "--metric", "csm", "--jm", "20", "--folds", "10"),
            seeded=True, report=True, kinds=("csm",),
        ),
        # 60 joints: the dense CSM path grows with joints squared, and the single
        # cross-subject fold leaves the fold thread pool idle. 0.5 s recordings
        # keep CSV parsing a minor share.
        Workload(
            "csm-xsubject",
            per_class=4, joints=60, frames=60,
            args=("cross-subject", "--metric", "csm", "--jm", "20",
                  "--train-subjects", TRAIN_SUBJECTS),
            seeded=False, report=True, kinds=("csm",),
        ),
        # 21 (jm, metric) cells after one load: descriptors are recomputed for
        # every cell and the Euclidean/Manhattan cdist path runs.
        Workload(
            "sweep",
            per_class=2, joints=20, frames=300,
            args=("sweep", "--jm", "5,10,20", "--metric", "csm,euclidean,manhattan",
                  "--features", "var,var-vel,full", "--folds", "10"),
            seeded=True, report=False, kinds=("csm", "euclidean", "manhattan"),
        ),
    )
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a result."""


class TraceIntegrityError(BenchmarkError):
    """A traced run is missing spans of a layer it must have called."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- set-up

def setup(workload, seed, data_dir):
    """Generate and save the workload's dataset; returns (generate_s, save_s, csv_bytes)."""
    from codemotion.ingest import SyntheticConfig, generate_synthetic, save_dataset

    # Small motions under large noise keep CSM accuracy below 1, so a wrong
    # similarity score changes the confusion matrix the output check compares.
    config = SyntheticConfig(
        classes=CLASSES, per_class=workload.per_class, subjects=SUBJECTS,
        joints=workload.joints, frames=workload.frames, frame_rate=120.0,
        seed=seed, amplitude_deg=4.0, noise_deg=8.0,
    )
    t0 = time.perf_counter()
    actions, manifest = generate_synthetic(config)
    t1 = time.perf_counter()
    save_dataset(actions, manifest, data_dir)
    t2 = time.perf_counter()
    csv_bytes = sum(p.stat().st_size for p in data_dir.glob("*.csv"))
    return t1 - t0, t2 - t1, csv_bytes


# ---------------------------------------------------------------- CLI runs

@dataclass
class Run:
    traced: bool
    wall_s: float
    rss_mb: float
    cpu_s: float
    exit_code: int
    ok: bool = False
    trace: dict | None = None


def launch(argv, log_path, timeout_s):
    """Run one child to completion; wall time from launch to exit, rusage of that child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it never waits on the pid again.
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Run(False, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, code)


def reference_run(run_dir, timeout_s):
    """Wall time of one run of the reference task."""
    run = launch([sys.executable, str(REFERENCE_TASK)], run_dir / "reference.log", timeout_s)
    if run.exit_code != 0:
        tail = (run_dir / "reference.log").read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"reference task exited {run.exit_code}:\n{tail}")
    return run.wall_s


def output_name(workload):
    return "report.json" if workload.report else "sweep.csv"


def run_cli(workload, seed, manifest, run_dir, traced, timeout_s):
    out = run_dir / output_name(workload)
    for stale in run_dir.glob("report.json*"):
        stale.unlink()
    out.unlink(missing_ok=True)
    trace_path = run_dir / "trace.json"
    trace_path.unlink(missing_ok=True)
    args = list(workload.args) + ["--manifest", str(manifest), "--out", str(out)]
    if workload.seeded:
        args += ["--seed", str(seed)]
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path)] + args
    else:
        argv = [sys.executable, "-m", "codemotion.cli"] + args
    run = launch(argv, run_dir / "stderr.log", timeout_s)
    run.traced = traced
    if run.exit_code != 0:
        tail = (run_dir / "stderr.log").read_text(errors="replace")[-2000:]
        print(f"{workload.name}: CLI exited {run.exit_code}:\n{tail}", file=sys.stderr)
        return run, None
    if traced:
        if not trace_path.exists():
            raise TraceIntegrityError(f"{workload.name}: traced run wrote no trace file")
        run.trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return run, output_digest(workload, out)


def output_digest(workload, out):
    """Per-part digests of a run's output: report keys minus ``timing``, confusion CSV, sweep CSV."""
    if not workload.report:
        return {"sweep.csv": _sha(out.read_bytes())}
    report = json.loads(out.read_text(encoding="utf-8"))
    report.pop("timing", None)
    digest = {f"report.{key}": _sha(json.dumps(value, sort_keys=True).encode()) for key, value in report.items()}
    digest["confusion.csv"] = _sha(Path(f"{out}.confusion.csv").read_bytes())
    return digest


def matches(digest, reference):
    """Every recorded part must be present and equal; parts added to the output later are ignored."""
    return digest is not None and all(digest.get(k) == v for k, v in reference.items())


def accuracy_summary(workload, out):
    """CSM accuracy of the run: overall for a report, per jm for a sweep."""
    if workload.report:
        return json.loads(out.read_text(encoding="utf-8"))["accuracy"]["overall"]
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    cells = [row.split(",") for row in rows]
    return {f"jm{c[0]}": float(c[3]) for c in cells if c[1] == "csm"}


# ---------------------------------------------------------------- trace analysis

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _self_time(span, children):
    t0, t1 = span[4], span[5]
    inside = [(max(c[4], t0), min(c[5], t1)) for c in children if c[5] > t0 and c[4] < t1]
    return (t1 - t0) - _covered(inside)


def layer_metrics(workload, run, csv_bytes):
    """Per-layer metrics of one traced run; raises if an expected layer has no spans."""
    spans = run.trace["spans"]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
        children[span[1]].append(span)
    missing = [name for name in EXPECTED_SPANS if not by_name[name]]
    kinds = {s[8]["kind"] for s in by_name["similarity"]}
    missing += [f"similarity[{k}]" for k in workload.kinds if k not in kinds]
    if missing:
        raise TraceIntegrityError(
            f"{workload.name}: traced run recorded no spans for {', '.join(missing)}"
        )

    def busy(name, keep=lambda s: True):
        return sum(s[5] - s[4] for s in by_name[name] if keep(s))

    main = by_name["cli.main"][0]
    load_s = busy("ingest.load")
    desc_s, desc_n = busy("descriptor"), len(by_name["descriptor"])
    sim_s = busy("similarity")
    pairs = sum(s[8]["pairs"] for s in by_name["similarity"])
    evals = by_name["evaluation"]
    eval_wall = busy("evaluation")
    return {
        "cli.import_s": run.trace["import_s"],
        "cli.self_s": _self_time(main, children[main[0]]),
        "cli.cpu_s": run.cpu_s,
        "ingest.load_s": load_s,
        "ingest.load_mb_per_s": csv_bytes / 1e6 / load_s,
        "ingest.filter_s": busy("ingest.filter"),
        "ingest.filter_calls": len(by_name["ingest.filter"]),
        "descriptor.busy_s": desc_s,
        "descriptor.calls": desc_n,
        "descriptor.us_per_call": 1e6 * desc_s / desc_n,
        "similarity.busy_s": sim_s,
        "similarity.calls": len(by_name["similarity"]),
        "similarity.pairs": pairs,
        "similarity.pairs_per_s": pairs / sim_s,
        "similarity.csm_busy_s": busy("similarity", lambda s: s[8]["kind"] == "csm"),
        "similarity.baseline_busy_s": busy("similarity", lambda s: s[8]["kind"] != "csm"),
        "evaluation.wall_s": eval_wall,
        "evaluation.self_s": sum(_self_time(e, children[e[0]]) for e in evals),
        "evaluation.folds": sum(e[8]["folds"] for e in evals),
        "evaluation.cpu_per_wall": sum(e[7] - e[6] for e in evals) / eval_wall,
    }


# ---------------------------------------------------------------- provenance

def provenance(seed):
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "thread_env": THREAD_ENV,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "csv_reads": "page-cache hits: set-up writes the CSVs just before the runs and caches "
                     "are not dropped, so ingest.load_* measures parsing, not disk",
    }


# ---------------------------------------------------------------- one workload

def _median(values):
    return statistics.median(values) if values else float("nan")


def _flush(data_dir):
    # Write the dataset back now, so the kernel's delayed write-back does not
    # run during the timed CLI runs. The pages stay cached.
    for path in data_dir.iterdir():
        with open(path, "rb") as f:
            os.fsync(f.fileno())


def _check(workload, run, digest, reference, source):
    run.ok = matches(digest, reference)
    if digest is not None and not run.ok:
        print(f"{workload.name}: output differs from the {source} reference", file=sys.stderr)
    mismatches = run.trace["oracle"]["mismatches"] if run.trace else []
    if mismatches:
        print(f"{workload.name}: similarity differs from the oracle: {mismatches[:3]}", file=sys.stderr)
        run.ok = False


def measure(workload, seed, seconds, trace, data_dir, run_dir, deadline):
    """Set-ups, the warm-up run, then measured runs for ``seconds``.

    Measuring time counts CLI and reference task runs. The second and later
    set-ups run each time a further share of it has passed, so that set-up
    time, like the runs, samples the host's speed over the whole run. With
    ``trace`` the measured runs alternate traced and untraced; without, a run
    of the reference task comes before each measured run and after the last.
    Returns (set-up timings, runs with the warm-up first, reference task wall
    times, reference source, CSM accuracy).
    """
    manifest = data_dir / "manifest.json"

    def set_up():
        setups.append(setup(workload, seed, data_dir))
        _flush(data_dir)

    setups = []
    set_up()
    references = json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}
    reference = references.get(workload.name, {}).get(str(seed))
    source = "committed" if reference else "warm-up run"
    warm, digest = run_cli(workload, seed, manifest, run_dir, False, deadline - time.perf_counter())
    if reference is None:
        reference = digest or {"unavailable": "warm-up run failed"}
    _check(workload, warm, digest, reference, source)
    accuracy = accuracy_summary(workload, run_dir / output_name(workload)) if digest else None

    runs, ref_s = [warm], []
    measured_s = 0.0
    least = 2 * MIN_TRACED if trace else MIN_RUNS
    while True:
        measured = len(runs) - 1
        step = runs[-1].wall_s + (ref_s[-1] if ref_s else 0.0)
        # Start another run while at least half of it fits in the measuring time.
        wanted = measured < least or measured_s + step / 2 < seconds
        if not wanted or deadline - time.perf_counter() < 1.5 * step + 1.0:
            break
        if len(setups) < SETUP_REPEATS and measured_s >= len(setups) * seconds / SETUP_REPEATS:
            set_up()
        if not trace:
            ref_s.append(reference_run(run_dir, deadline - time.perf_counter()))
            measured_s += ref_s[-1]
        traced = trace and measured % 2 == 0
        run, digest = run_cli(workload, seed, manifest, run_dir, traced, deadline - time.perf_counter())
        _check(workload, run, digest, reference, source)
        runs.append(run)
        measured_s += run.wall_s
    if not trace:
        ref_s.append(reference_run(run_dir, deadline - time.perf_counter()))
    while len(setups) < SETUP_REPEATS:
        set_up()
    return setups, runs, ref_s, source, accuracy


def bench(workload, seed, seconds, trace, deadline):
    """Set up, warm up and measure one workload; returns (result line, detail line)."""
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    data_dir, run_dir = work / "data", work / "run"
    run_dir.mkdir(parents=True)
    try:
        setups, runs, ref_s, source, accuracy = measure(
            workload, seed, seconds, trace, data_dir, run_dir, deadline
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    csv_bytes = setups[-1][2]
    attempted, failed = len(runs), sum(not r.ok for r in runs)
    plain = [r for r in runs[1:] if not r.traced]
    traced = [r for r in runs[1:] if r.trace is not None]
    if trace:
        if not traced:
            raise TraceIntegrityError(f"{workload.name}: no traced run completed")
        per_run = [layer_metrics(workload, r, csv_bytes) for r in traced]
        values = {name: _median([m[name] for m in per_run]) for name in per_run[0]}
        save_s = _median([s[1] for s in setups])
        values.update({
            "ingest.generate_s": _median([s[0] for s in setups]),
            "ingest.save_s": save_s,
            "ingest.save_mb_per_s": csv_bytes / 1e6 / save_s,
            "trace.overhead_s": _median([r.wall_s for r in traced]) - _median([r.wall_s for r in plain]),
        })
        units = PER_LAYER
        samples = {"traced_runs": len(traced), "untraced_runs": len(plain), "setups": len(setups)}
    else:
        setup_s = _median([s[0] + s[1] for s in setups])
        values = {
            "wall_rel": statistics.fmean(r.wall_s for r in plain) / statistics.fmean(ref_s),
            "peak_rss_mb": _median([r.rss_mb for r in plain]),
            "setup_s": setup_s * REFERENCE_TASK_S / statistics.fmean(ref_s),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
        samples = {"wall_rel": len(plain), "peak_rss_mb": len(plain), "setup_s": len(setups),
                   "ok_frac": attempted, "reference_runs": len(ref_s)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail = {
        "workload": workload.name,
        "trace": int(trace),
        "provenance": provenance(seed),
        "samples": samples,
        "check": {
            "reference": source,
            "csm_accuracy": accuracy,
            "oracle_checked": sum(r.trace["oracle"]["checked"] for r in traced),
        },
        "runs": [{"traced": r.traced, "wall_s": r.wall_s, "rss_mb": r.rss_mb, "ok": r.ok} for r in runs],
        "reference_s": ref_s,
        "csv_mb": csv_bytes / 1e6,
    }
    if not trace:
        detail["median"] = {"wall_s": _median([r.wall_s for r in plain]), "reference_s": _median(ref_s),
                            "setup_raw_s": setup_s}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


END_TO_END = {
    "wall_rel": "ratio",  # mean CLI wall time over mean reference task wall time
    "peak_rss_mb": "MB",  # ru_maxrss of the CLI process, median over runs
    "setup_s": "s",  # generate_synthetic + save_dataset, median over set-ups, at REFERENCE_TASK_S
    "ok_frac": "ratio",  # runs that exited 0 with the reference output, over runs attempted
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "ingest.load_s": "s",
    "ingest.load_mb_per_s": "MB/s",
    "ingest.filter_s": "s",
    "ingest.filter_calls": "count",
    "ingest.generate_s": "s",
    "ingest.save_s": "s",
    "ingest.save_mb_per_s": "MB/s",
    "descriptor.busy_s": "s",
    "descriptor.calls": "count",
    "descriptor.us_per_call": "us",
    "similarity.busy_s": "s",
    "similarity.calls": "count",
    "similarity.pairs": "count",
    "similarity.pairs_per_s": "1/s",
    "similarity.csm_busy_s": "s",
    "similarity.baseline_busy_s": "s",
    "evaluation.wall_s": "s",
    "evaluation.self_s": "s",
    "evaluation.folds": "count",
    "evaluation.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------- entry point

def _table(rows, names, units):
    width = max(len(n) for n in names) + 2
    lines = [f"{'metric':<{width}}{'unit':<8}" + "".join(f"{w:>16}" for w in rows)]
    for name in names:
        cells = "".join(f"{rows[w].get(name, float('nan')):>16.6g}" for w in rows)
        lines.append(f"{name:<{width}}{units[name]:<8}{cells}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "codemotion" / "cli.py").is_file():
        print(f"error: no codemotion sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads in this process, for set-up
    sys.path.insert(0, str(ROOT / "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results, medians = {}, {}
    try:
        for name in names:
            deadline = time.perf_counter() + DEADLINE_S
            result, detail = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline)
            print(json.dumps(detail))
            results[name] = result
            medians[name] = detail.get("median", {})
    except TraceIntegrityError as exc:
        print(f"error: trace integrity: {exc}", file=sys.stderr)
        return 3
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.workload == "all":
        rows = {n: {m: r["metrics"][m]["value"] for m in r["metrics"]} for n, r in results.items()}
        units = dict(PER_LAYER if args.trace else END_TO_END)
        if not args.trace:
            for n, r in results.items():
                rows[n]["fail_frac"] = r["failed"] / r["attempted"]
                rows[n].update(medians[n])
            units.update(fail_frac="ratio", wall_s="s", reference_s="s", setup_raw_s="s")
        print(_table(rows, list(units), units))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
