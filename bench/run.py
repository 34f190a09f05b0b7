"""robinbec benchmark: seeded closed-loop workloads through robinbec.cli.main.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-scf --seed 1 --seconds 30 --trace 0

Each run starts fresh interpreters (bench/worker.py) with BLAS/OpenMP
threads pinned to 1 and ROBINBEC_THREADS unset: SETUP_RUNS of them time
set-up (interpreter start, imports and one small warm-up op); one more
runs the closed loop.  End-to-end times are calibrated (calibrate.py);
the raw wall times are printed beside them.  `--trace 0` prints the
end-to-end metrics; `--trace 1` runs the same decks untraced and then
traced and prints the per-layer metrics (see tracing.py).  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracing import PER_LAYER_UNITS, layer_metrics, load_spans
from workloads import WORKLOADS, make_deck, make_warmup

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {
    "throughput_ops_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an op that failed)."""


def _worker_env():
    env = {k: v for k, v in os.environ.items() if k != "ROBINBEC_THREADS"}
    env.update({k: "1" for k in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(job, workdir, deadline):
    """Start one worker; return (process, set-up seconds, ready message)."""
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    t0 = time.perf_counter()
    with open(workdir / "stderr.txt", "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(job_path)],
            stdout=subprocess.PIPE, stderr=err, env=_worker_env(), cwd=ROOT,
        )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if not line:
            err = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"worker ended or stalled before its warm-up op finished: {err}")
        return proc, setup, json.loads(line)
    except BaseException:
        _stop(proc)
        raise


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, workdir, deadline):
    try:
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker exceeded its time budget")
    if proc.returncode != 0:
        err = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited {proc.returncode}: {err}")


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (correct, attempted, failed, metrics, report)."""
    if not (ROOT / "src" / "robinbec" / "__init__.py").is_file():
        raise BenchError(f"no robinbec sources under {ROOT / 'src'}")
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    deck = make_deck(workload, seed, tiny)
    job = {"root": str(ROOT), "deck": deck, "warmup": make_warmup(workload, seed),
           "seconds": seconds, "trace": bool(trace), "mode": "probe"}
    workdir = OUT_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, warm = [], []  # setups: (raw, calibrated) seconds per probe
        calibrate.warm_up()
        for _ in range(0 if trace else SETUP_RUNS):
            before = calibrate.kernel_s()
            proc, setup, ready = _spawn(job, workdir, deadline)
            _finish(proc, workdir, deadline)
            setups.append((setup, setup * calibrate.scale(before, calibrate.kernel_s())))
            warm.append(ready)
        proc, _, ready = _spawn(dict(job, mode="measure"), workdir, deadline)
        warm.append(ready)
        _finish(proc, workdir, deadline)
        result = json.loads((workdir / "RESULT.json").read_text())
        if trace:
            spans = load_spans(workdir / "spans.jsonl")
            shutil.copy(workdir / "spans.jsonl", OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = list(result["errors"])
    errors += [f"warm-up: {w['error']}" for w in warm if w["error"]]
    if len({w["digest"] for w in warm}) != 1:
        errors.append("warm-up outputs differ between fresh interpreters")
    attempted = result["attempted"]
    failed = len(result["errors"])
    per_op = _per_op(result["passes"])
    throughput = len(per_op) / sum(per_op)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(result["passes"]), "deck_size": len(deck),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            **result["versions"],
            "seed": seed,
            "thread_pins": {k: "1" for k in THREAD_PINS},
            "ROBINBEC_THREADS": "unset",
        },
        "failed_fraction": failed / attempted,
        "errors": errors[:10],
    }
    if trace:
        traced = _per_op(result["traced_passes"])
        traced_throughput = len(traced) / sum(traced)
        metrics = layer_metrics(spans, sum(map(len, result["traced_passes"])))
        metrics["trace.overhead_ops_per_s"] = throughput - traced_throughput
        metrics["trace.overhead_frac"] = (throughput - traced_throughput) / throughput
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "throughput_ops_per_s": throughput,
            "latency_p50_s": statistics.median(per_op),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(cal for _, cal in setups),
        }
        units = END_TO_END_UNITS
        raw = _per_op(result["raw_passes"])
        report["raw"] = {"throughput_ops_per_s": len(raw) / sum(raw),
                         "latency_p50_s": statistics.median(raw),
                         "setup_s": statistics.median(r for r, _ in setups)}
        report["latency_tail"] = _tail([t for p in result["raw_passes"] for t in p])
    out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return not errors, attempted, failed, out, report


def _per_op(passes):
    """Per-op latency: the median of the op's timed runs, one per pass."""
    return [statistics.median(times) for times in zip(*passes)]


def _tail(latencies):
    """Highest per-op percentile with >= 10 ops beyond it, or None when the
    run holds fewer than 20 ops (that percentile would not be a tail)."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return {"latency_tail_s": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and decks, for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        correct, attempted, failed, metrics, report = run(
            args.workload, args.seed, args.seconds, args.trace, args.tiny
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['passes']} passes over a {report['deck_size']}-op deck")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_fraction':44s} {report['failed_fraction']:.6g} ({failed}/{attempted})")
    if not args.trace:
        for name, value in report["raw"].items():
            print(f"  {name + ' (raw wall time)':44s} {value:.6g}")
        tail = report["latency_tail"]
        if tail is None:
            print(f"  {'latency_tail_s':44s} omitted: fewer than 20 ops in the run")
        else:
            print(f"  {'latency_tail_s (raw wall time)':44s} {tail['latency_tail_s']:.6g} s "
                  f"(p{tail['percentile']:.1f} of {tail['samples']} ops)")
    for err in report["errors"]:
        print(f"  error: {err}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
