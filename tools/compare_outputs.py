"""Compare the CLI output of two source trees on the benchmark decks.

Usage (from the repository root):

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1,2,3,7] [--tiny]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.
Each tree runs, in its own interpreter with robinbec imported from that
directory, every op of the seeded decks of all benchmark workloads
(`bench/workloads.py`, imported and not changed), a spectrum op on each
of `SPECTRUM_BOXES` at k_max = 2000, the wall-only spectra
`WALL_SPECTRA`, the mode-sum-path profiles `PROFILE_BOXES` and the
continuum-path profile `DENSE_PROFILE`, through `robinbec.cli.main` with
`--out` added as the benchmark adds it.  `--tiny` runs the benchmark's
tiny decks, the `SPECTRUM_BOXES` spectra at k_max = 1100, past the CSV
writer's first 1024-row block, and the same profiles.

For each output file, and for each op's stdout with its output paths
replaced by `OUT`, one line says `identical` or gives the largest
relative difference |a - b| / max(|a|, |b|) per CSV column or JSON field
(numbers in stdout are compared the same way; `text` marks a difference
that is not numeric).  Exit status 0 when every file and stdout is
identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from checks import OUT_NAME, output_files  # noqa: E402
from run import THREAD_PINS  # noqa: E402
from workloads import WORKLOADS, make_deck  # noqa: E402

# spectrum CSVs from just above the odd-bound-state threshold to L*|sigma| = 12800
SPECTRUM_BOXES = (("-1.0", "2.000000001"), ("-0.5", "1600.0"), ("-1.0", "12800.0"))
# (sigma, L, k_max) of the spectra that hold wall rows only: the even mode
# alone below the odd-bound-state threshold L*|sigma| = 2, and the pair
WALL_SPECTRA = (("-1.0", "1.5", "0"), ("-1.0", "2.000000001", "1"), ("-0.5", "1600.0", "1"))
# (sigma, L) of profiles below the switch to the half-line continuum
# (L*|sigma| ~ 20 at beta = 1), which sum modes term by term; no deck
# reaches that path.  At sigma = -0.1 the density solve's searched head
# (62 modes and a ladder tail) is far below the certified cutoff (223)
PROFILE_BOXES = (("-1.0", "12.0"), ("-0.5", "30.0"), ("-0.1", "150.0"))
# (sigma, L, beta, rho, grid_n) of a continuum-path profile whose x > 0
# half holds more than four bulk blocks of the CSV writer in a row and
# spills past the 1 MiB that it keeps in memory; the tiny decks' profiles
# fill one or two blocks a half
DENSE_PROFILE = ("-1.5", "800", "2", "1.5", "32001")


def _out_name(op) -> str:
    return OUT_NAME.get(op["kind"], "out.csv")  # a spectrum op writes one CSV


def spectrum_ops(tiny: bool) -> list[dict]:
    k_max = "1100" if tiny else "2000"
    boxes = [(sigma, L, k_max) for sigma, L in SPECTRUM_BOXES] + list(WALL_SPECTRA)
    return [{"kind": "spectrum", "argv": ["spectrum", f"--sigma={sigma}", "--L", L, "--k-max", k]}
            for sigma, L, k in boxes]


def profile_ops() -> list[dict]:
    ops = [{"kind": "profile", "argv": ["profile", f"--sigma={sigma}", "--L", L, "--grid-n", "4001",
                                        "--fraction", "0.9"]}
           for sigma, L in PROFILE_BOXES]
    sigma, L, beta, rho, grid_n = DENSE_PROFILE
    ops.append({"kind": "profile", "argv": ["profile", f"--sigma={sigma}", "--L", L, "--beta", beta,
                                            "--rho", rho, "--model", "free", "--grid-n", grid_n]})
    return ops


# Runs in a fresh interpreter: argv[1] is the src directory, argv[2] the
# job file, a JSON list of {"argv": [...], "out": path}.  Writes each op's
# exit status and stdout next to its output.
_RUNNER = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import robinbec, robinbec.cli
home = os.path.dirname(os.path.dirname(os.path.abspath(robinbec.__file__)))
if home != os.path.abspath(sys.argv[1]):
    sys.exit(f"robinbec imported from {robinbec.__file__}, not from {sys.argv[1]}")
with open(sys.argv[2]) as fh:
    job = json.load(fh)
for op in job:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = robinbec.cli.main(op["argv"] + ["--out", op["out"]])
        except SystemExit as exc:
            code = exc.code
    with open(op["out"] + ".stdout", "w") as fh:
        fh.write(f"exit {code}\n" + buf.getvalue())
"""


def all_ops(seeds, tiny):
    """(label, op) for every op compared, in a fixed order."""
    ops = [(f"spectrum op {i}", op) for i, op in enumerate(spectrum_ops(tiny))]
    ops += [(f"profile op {i}", op) for i, op in enumerate(profile_ops())]
    for workload in WORKLOADS:
        for seed in seeds:
            for i, op in enumerate(make_deck(workload, seed, tiny)):
                ops.append((f"{workload} seed {seed} op {i}", op))
    return ops


def run_tree(src: str, ops, workdir: Path) -> None:
    """Run every op with robinbec from `src`; op i writes under workdir/i."""
    job = []
    for i, (_, op) in enumerate(ops):
        (workdir / str(i)).mkdir(parents=True)
        job.append({"argv": op["argv"], "out": str(workdir / str(i) / _out_name(op))})
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    subprocess.run([sys.executable, "-c", _RUNNER, os.path.abspath(src), str(job_path)],
                   env=env, check=True)


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _merge(diffs: dict, key: str, a, b) -> None:
    """Record the difference of two values under `key`: the largest
    relative difference seen, or 'text' once a non-numeric one is seen."""
    x, y = _number(a), _number(b)
    if x is None or y is None or isinstance(a, bool) or isinstance(b, bool):
        d = 0.0 if a == b else "text"
    else:
        d = _rel(x, y)
    old = diffs.get(key, 0.0)
    diffs[key] = "text" if "text" in (old, d) else max(old, d)


def csv_diffs(a: str, b: str) -> dict:
    """Field -> difference of two CSV files: '#' comment lines as text,
    then columns by header name."""
    diffs: dict = {}
    la, lb = a.splitlines(), b.splitlines()
    comments = [ln for ln in la if ln.startswith("#")], [ln for ln in lb if ln.startswith("#")]
    body = la[len(comments[0]):], lb[len(comments[1]):]
    if comments[0] != comments[1]:
        diffs["comment lines"] = "text"
    if not body[0] or not body[1] or body[0][0] != body[1][0] or len(body[0]) != len(body[1]):
        diffs["header or row count"] = "text"
        return diffs
    names = body[0][0].split(",")
    for ra, rb in zip(body[0][1:], body[1][1:]):
        va, vb = ra.split(","), rb.split(",")
        if len(va) != len(vb):
            diffs["row length"] = "text"
            continue
        for name, x, y in zip(names, va, vb):
            _merge(diffs, name, x, y)
    return diffs


def json_diffs(a, b, prefix: str = "", diffs: dict | None = None) -> dict:
    """Field -> difference of two parsed JSON values; list entries share
    their list's field name."""
    diffs = {} if diffs is None else diffs
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            name = f"{prefix}.{key}" if prefix else key
            if key in a and key in b:
                json_diffs(a[key], b[key], name, diffs)
            else:
                diffs[name] = "text"
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs[prefix + "[]"] = "text"
        for x, y in zip(a, b):
            json_diffs(x, y, prefix + "[]", diffs)
    else:
        _merge(diffs, prefix or "value", a, b)
    return diffs


def stdout_diffs(a: str, b: str) -> dict:
    """Differences of two stdouts, token by token; numbers by value."""
    ta, tb = re.split(r"[\s=(),]+", a), re.split(r"[\s=(),]+", b)
    if len(ta) != len(tb):
        return {"stdout": "text"}
    diffs: dict = {}
    for x, y in zip(ta, tb):
        _merge(diffs, "stdout", x, y)
    return diffs


def compare_file(path_a: Path, path_b: Path, kind: str, op_dirs) -> dict | None:
    """None if the two files are byte-identical (stdout after replacing each
    tree's op directory by OUT), else field -> difference."""
    a, b = path_a.read_text(), path_b.read_text()
    if kind == "stdout":
        a, b = a.replace(str(op_dirs[0]), "OUT"), b.replace(str(op_dirs[1]), "OUT")
    if a == b:
        return None
    if kind == "stdout":
        return stdout_diffs(a, b)
    if path_a.suffix == ".json":
        return json_diffs(json.loads(a), json.loads(b))
    return csv_diffs(a, b)


def _fmt(diffs: dict) -> str:
    moved = {k: v for k, v in diffs.items() if v != 0.0}
    return ", ".join(f"{k} {v if v == 'text' else f'{v:.2g}'}" for k, v in moved.items()) or "formatting"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--seeds", default="1,2,3,7", help="comma-separated deck seeds")
    ap.add_argument("--tiny", action="store_true", help="tiny decks and small spectra")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    ops = all_ops(seeds, args.tiny)
    differ = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = Path(tmp) / "parent", Path(tmp) / "change"
        for src, workdir in zip((args.parent_src, args.change_src), trees):
            run_tree(src, ops, workdir)
        for i, (label, op) in enumerate(ops):
            op_dirs = [tree / str(i) for tree in trees]
            out = op_dirs[0] / _out_name(op)
            for path in output_files(op, str(out)) + [str(out) + ".stdout"]:
                name = os.path.basename(path)
                kind = "stdout" if name.endswith(".stdout") else "file"
                pair = [d / name for d in op_dirs]
                total += 1
                present = [p.exists() for p in pair]
                if not any(present):
                    diffs = None
                elif not all(present):
                    diffs = {"missing file": "text"}
                else:
                    diffs = compare_file(*pair, kind, op_dirs)
                differ += diffs is not None
                print(f"{label} {name}: " + ("identical" if diffs is None else "differs: " + _fmt(diffs)))
    print(f"{total - differ} of {total} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
