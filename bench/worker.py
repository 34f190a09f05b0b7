"""One fresh interpreter of a benchmark run.

Usage: python3 bench/worker.py JOB.json

Imports robinbec from the checkout's src/, runs the warm-up op, then
writes one line `{"ready": ...}` to stdout; the parent times set-up up to
that line.  A `probe` job stops there.  A `measure` job then runs the
closed loop (one client, whole passes over the deck, no threads) and
writes its result to RESULT.json next to the job file.  Every op calls
robinbec.cli.main(argv) with only the generated argv plus `--out`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import calibrate
from checks import OUT_NAME, check_op, output_files

# Every op runs at least twice per run: its latency is the median of its
# calibrated runs, and the repeat must give byte-identical output.
MIN_PASSES = 2


def run_op(cli, op, workdir, verified=None):
    """(latency_s, error or None, digest of stdout and the output files) of
    one op.  Output whose digest is `verified`, that of an earlier run of
    the same op that passed its check, is byte-identical and not checked
    again."""
    out = os.path.join(workdir, OUT_NAME[op["kind"]])
    for path in output_files(op, out):
        if os.path.exists(path):
            os.remove(path)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op["argv"] + ["--out", out])
    except SystemExit as exc:  # argparse rejects an argv by exiting
        code = exc.code
    except Exception as exc:  # an op that raises is a failed op; the loop goes on
        code = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if code != 0:
        return latency, f"exit {code}", None
    digest = hashlib.sha256(buf.getvalue().encode())
    try:
        for path in output_files(op, out):
            with open(path, "rb") as fh:
                digest.update(fh.read())
    except OSError as exc:
        return latency, f"unreadable output: {exc}", None
    digest = digest.hexdigest()
    error = None if digest == verified else check_op(op, out, buf.getvalue())
    return latency, error, digest


class Loop:
    """Closed loop over a deck; keeps latencies, failures and the digest of
    each deck entry so that a repeated argv must give identical bytes."""

    def __init__(self, cli, deck, workdir):
        self.cli, self.deck, self.workdir = cli, deck, workdir
        self.digests = {}
        self.attempted = 0
        self.errors = []
        self.kernel = None  # calibration kernel time just before the next op

    def _op(self, i, tracer=None):
        """(latency_s, calibrated latency_s) of one run of deck entry i."""
        if self.kernel is None:
            self.kernel = calibrate.warm_up()
        if tracer is not None:
            tracer.start_op(self.attempted)
        latency, error, digest = run_op(self.cli, self.deck[i], self.workdir,
                                        self.digests.get(i))
        self.attempted += 1
        if error is None and self.digests.setdefault(i, digest) != digest:
            error = "output differs from an earlier run of the same argv"
        if error is not None:
            self.errors.append(f"op {i}: {error}")
        kernel = calibrate.kernel_s()
        calibrated = latency * calibrate.scale(self.kernel, kernel)
        self.kernel = kernel
        return latency, calibrated

    def run(self, seconds, tracer=None):
        """Passes over the deck, at least MIN_PASSES, until about `seconds`
        have passed: stop when one more step would overshoot by more than
        stopping undershoots.  A step is one pass, or with a tracer one
        untraced pass then the same deck traced, so drift over the run
        hits both halves alike.  Returns (untraced passes, the same passes'
        calibrated latencies, traced passes' calibrated latencies), each a
        list of per-op latency lists."""
        raw, plain, traced = [], [], []
        t_start = time.perf_counter()
        while True:
            t_step = time.perf_counter()
            runs = [self._op(i) for i in range(len(self.deck))]
            raw.append([latency for latency, _ in runs])
            plain.append([calibrated for _, calibrated in runs])
            if tracer is not None:
                tracer.install()
                try:
                    traced.append([self._op(i, tracer)[1] for i in range(len(self.deck))])
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            if len(plain) >= MIN_PASSES and now - t_start + 0.5 * (now - t_step) >= seconds:
                return raw, plain, traced


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import robinbec
    import robinbec.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(robinbec.__file__))) != os.path.abspath(src):
        print(f"robinbec imported from {robinbec.__file__}, not from {src}", file=sys.stderr)
        return 3
    workdir = os.path.dirname(job_path)
    _, warm_error, warm_digest = run_op(robinbec.cli, job["warmup"], workdir)
    print(json.dumps({"ready": True, "error": warm_error, "digest": warm_digest}), flush=True)
    if job["mode"] == "probe":
        return 0

    import numpy
    import scipy

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(robinbec)
    loop = Loop(robinbec.cli, job["deck"], workdir)
    raw, plain, traced = loop.run(job["seconds"], tracer)
    result = {"raw_passes": raw, "passes": plain, "traced_passes": traced}
    if tracer is not None:
        tracer.dump(os.path.join(workdir, "spans.jsonl"))
    result.update(
        attempted=loop.attempted,
        errors=loop.errors,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "robinbec": robinbec.__version__},
    )
    with open(os.path.join(workdir, "RESULT.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
