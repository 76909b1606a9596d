"""kbcat benchmark: one workload, one seed, one run.

Usage:
    python3 bench/run.py --workload news-a4 --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from the seed (before any timing), then
makes ``run_experiment`` calls, each in a fresh process, for about
``--seconds`` seconds. With ``--trace 0`` every call is untraced and the
end-to-end metrics are medians over the calls. With ``--trace 1`` each
step is an untraced call followed by a traced one, and the per-layer
metrics are medians over the traced calls.

Every call's output is checked; a call that raises, writes no parseable
metrics.tsv, writes a headline row that disagrees with the returned
scores, or writes a metrics.tsv that differs from the first call's
(traced or not) counts as failed. The last line of standard output is
the result object; the line before it records the inputs' digest, the
environment and each call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import generate  # noqa: E402
import layertrace  # noqa: E402

TIME_LIMIT_S = 170.0  # a run must end within 180 s
MIN_CALLS = 3  # untraced calls per run, so that set-up time is a median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "micro_f": "ratio", "macro_f": "ratio"}


def environment() -> dict:
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def parse_metrics_tsv(text: str) -> tuple[list[str], dict[str, list[str]], set[str]]:
    """(header, run rows by name, category names); ValueError if malformed."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty file")
    header = lines[0].split("\t")
    if header[:2] != ["row", "name"] or not {"micro_f", "macro_f"} <= set(header):
        raise ValueError(f"bad header {lines[0]!r}")
    runs: dict[str, list[str]] = {}
    categories: set[str] = set()
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(header) or cells[0] not in ("run", "category"):
            raise ValueError(f"bad row {line!r}")
        for cell in cells[2:]:
            if cell != "-":
                float(cell)
        if cells[0] == "run":
            runs[cells[1]] = cells
        else:
            categories.add(cells[1])
    return header, runs, categories


def _agrees(cell: str, value: float) -> bool:
    """The printed cell is the value rounded to the cell's digits."""
    digits = len(cell.partition(".")[2])
    return abs(float(cell) - value) <= 0.5 * 10.0 ** -digits + 1e-12


def check_output(out_dir: Path, result: dict, workload: generate.Workload,
                 reference: bytes | None) -> str | None:
    """Why the call's output is wrong, or None if it is right."""
    try:
        data = (out_dir / "metrics.tsv").read_bytes()
        header, runs, categories = parse_metrics_tsv(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        return f"no parseable metrics.tsv: {exc}"
    headline = runs.get("mean") or runs.get("overall")
    if headline is None:
        return "metrics.tsv has neither a mean nor an overall row"
    for key in ("micro_f", "macro_f"):
        if not _agrees(headline[header.index(key)], result[key]):
            return f"headline {key} {headline[header.index(key)]} != returned {result[key]!r}"
    if categories != set(workload.categories):
        return f"categories {sorted(categories)} != {sorted(workload.categories)}"
    folds = sum(1 for name in runs if name.startswith("fold"))
    if folds != (workload.cv_folds or 0):
        return f"{folds} fold rows, expected {workload.cv_folds or 0}"
    if reference is not None and data != reference:
        return "metrics.tsv differs from the run's first call"
    return None


class Runner:
    """Makes checked calls and keeps their records."""

    def __init__(self, config: Path, work: Path, workload: generate.Workload,
                 deadline: float) -> None:
        self.config = config
        self.work = work
        self.workload = workload
        self.deadline = deadline
        self.reference: bytes | None = None
        self.calls: list[dict] = []

    def call(self, spans: Path | None = None, untraced_wall: float = 0.0) -> dict | None:
        out_dir = self.work / f"call-{len(self.calls)}"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(self.config), str(out_dir)]
        if spans is not None:
            cmd += ["--trace", str(spans), "--untraced-wall", repr(untraced_wall)]
        record: dict = {"traced": spans is not None}
        self.calls.append(record)
        result, error = None, None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"error": "no output"}
            if proc.returncode != 0 or "error" in result:
                error = f"{result.get('error')}; exit {proc.returncode}: {proc.stderr[-500:]}"
        except subprocess.TimeoutExpired:
            error = "timed out"
        except json.JSONDecodeError as exc:
            error = f"unreadable child output: {exc}"
        if error is None:
            error = check_output(out_dir, result, self.workload, self.reference)
        if error is None and self.reference is None:
            self.reference = (out_dir / "metrics.tsv").read_bytes()
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is not None:
            record["error"] = error
            return None
        record.update(result)
        return result


def median_metrics(results: list[dict], units: dict[str, str]) -> dict:
    """Median of each metric present in every result."""
    metrics = {}
    for name, unit in units.items():
        values = [r[name] for r in results if r.get(name) is not None]
        if results and len(values) == len(results):
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into an exception, so that subprocess.run kills and
    # waits for the running call before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "kbcat" / "__init__.py").is_file():
        print(f"error: no kbcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    work = BENCH_DIR / "out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    workload = generate.WORKLOADS[args.workload]
    digest = generate.generate(args.workload, args.seed, inputs)
    runner = Runner(inputs / "experiment.cfg", work, workload, deadline)

    measure_start = time.monotonic()
    step_results: list[dict] = []
    steps = 0
    while True:
        steps += 1
        untraced = runner.call()
        if args.trace and untraced is not None:
            traced = runner.call(work / f"spans-{args.workload}-{args.seed}-{steps}.jsonl",
                                 untraced["wall_s"])
            if traced is not None:
                step_results.append(traced["layers"])
        elif untraced is not None:
            step_results.append(untraced)
        now = time.monotonic()
        per_step = (now - measure_start) / steps
        if now + 1.5 * per_step > deadline:
            break
        enough = args.trace or steps >= MIN_CALLS
        if enough and now - measure_start + per_step > args.seconds:
            break
    shutil.rmtree(inputs, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, (unit, _needs) in layertrace.METRICS.items()}
    else:
        units = END_TO_END
    metrics = median_metrics(step_results, units)
    missing = sorted(set(units) - set(metrics))
    failed = sum(1 for c in runner.calls if "error" in c)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "inputs_digest": digest,
        "environment": environment(), "missing_metrics": missing,
        "measured_s": time.monotonic() - measure_start, "calls": runner.calls,
    }))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runner.calls),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
