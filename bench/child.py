"""One ``run_experiment`` call in a fresh process, as ``kbcat run`` makes it.

Usage: python3 bench/child.py CONFIG OUT_DIR [--trace SPANS_FILE --untraced-wall S]

Untraced, the only hook is a timestamp taken when ``prepare_documents``
is entered, which ends set-up. Traced, ``layertrace.Tracer`` wraps every
layer boundary and the per-layer metrics are computed here; the spans go
to SPANS_FILE. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--trace", default="")
    parser.add_argument("--untraced-wall", type=float, default=0.0)
    args = parser.parse_args()

    import kbcat
    from kbcat import experiment
    from kbcat.config import load_config

    if Path(kbcat.__file__).resolve().parent != ROOT / "src" / "kbcat":
        raise RuntimeError(f"imported kbcat from {kbcat.__file__}, not from this checkout")

    cfg = load_config(args.config)
    cfg = replace(cfg, out_dir=str(Path(args.out_dir).resolve()))

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer(run_id=Path(args.trace).stem)
        tracer.install()
    setup_end: list[float] = []
    prepare = getattr(experiment, "prepare_documents", None)
    if prepare is not None:
        def timed_prepare(*a, **kw):
            setup_end.append(time.perf_counter())
            return prepare(*a, **kw)
        experiment.prepare_documents = timed_prepare

    root_span = tracer.begin(layertrace.ROOT_SPAN) if tracer else None
    start = time.perf_counter()
    result = experiment.run_experiment(cfg)
    wall = time.perf_counter() - start
    if tracer:
        tracer.end(root_span)
        tracer.uninstall()

    out = {
        "wall_s": wall,
        "setup_s": setup_end[0] - start if setup_end else None,
        "peak_rss_mb": _peak_rss_mb(),
        "micro_f": result.micro_f,
        "macro_f": result.macro_f,
    }
    if tracer:
        layers, missing = layertrace.layer_metrics(tracer, wall, args.untraced_wall,
                                              result.manifest)
        tracer.write(Path(args.trace))
        out["layers"] = layers
        out["missing"] = missing
    return out


if __name__ == "__main__":
    try:
        print(json.dumps(main()))
    except Exception as exc:
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        sys.exit(1)
