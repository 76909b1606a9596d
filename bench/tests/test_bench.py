"""Checks of the benchmark itself: generator determinism, the Reuters
cliff size, self-time accounting, missing-probe handling and the output
checks. Run with ``python3 -m pytest bench/tests``; the tier-1 suite does
not collect them."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import generate  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

from kbcat.config import load_config  # noqa: E402
from kbcat.corpus import SplitHint, load_reuters_dir  # noqa: E402
from kbcat.experiment import admit_documents, run_experiment  # noqa: E402


@pytest.fixture()
def tiny_news(tmp_path, monkeypatch):
    """A news-a4 input set small enough to run in a second."""
    monkeypatch.setattr(generate, "NEWS_DOCS_PER_CLASS", 4)
    monkeypatch.setattr(generate, "NEWS_FILLER", 10)
    generate.generate("news-a4", 3, tmp_path / "inputs")
    return tmp_path / "inputs" / "experiment.cfg"


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_same_seed_same_digest_other_seed_other_digest(workload, tmp_path):
    first = generate.generate(workload, 11, tmp_path / "a")
    again = generate.generate(workload, 11, tmp_path / "b")
    other = generate.generate(workload, 12, tmp_path / "c")
    assert first == again == generate.digest(tmp_path / "a")
    assert other != first


def test_cue_pairs_share_a_stem():
    from kbcat.porter import porter_stem
    import random

    design = generate._ClassDesign(generate.Lexicon(random.Random(5), 200), 10)
    for ing, ed in zip(design.cues["alpha"], design.cues["beta"]):
        assert ing != ed and porter_stem(ing) == porter_stem(ed)


def test_reuters_cliff_trains_past_the_gram_limit(tmp_path):
    from kbcat.learn import _GRAM_LIMIT

    generate.generate("reuters-cliff", 1, tmp_path)
    docs = load_reuters_dir(tmp_path / "corpus")
    topics = tuple(generate.REUTERS_TOPICS)
    train = [d for d in admit_documents(docs, topics) if d.split_hint is SplitHint.TRAIN]
    assert len(train) > _GRAM_LIMIT == 2048
    assert any(len(d.labels) > 1 for d in train)


def test_self_times_add_up_to_traced_wall(tiny_news, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(tiny_news), str(tmp_path / "out"),
         "--trace", str(spans)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = result["layers"]
    assert result["missing"] == []
    assert set(layers) == set(layertrace.METRICS)
    self_total = sum(layers[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    wall = layers["trace.wall_s"]
    assert abs(self_total - wall) <= 0.02 * wall + 0.005
    assert layers["kbindex.search_calls"] == 16
    assert layers["kbindex.candidates_scored"] >= layers["kbindex.hits"] > 0
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert lines[0]["name"] == layertrace.ROOT_SPAN and lines[0]["parent"] is None
    assert {line["run"] for line in lines} == {"spans"}


def test_missing_probe_target_degrades_to_missing_metrics(tiny_news, tmp_path):
    renamed = tuple(
        replace(p, targets=("kbcat.learn:train_binary_svm_renamed",))
        if p.name == "learn.binary" else p
        for p in layertrace.PROBES)
    cfg = replace(load_config(tiny_news), out_dir=str(tmp_path / "out"))
    tracer = layertrace.Tracer("t")
    tracer.install(renamed)
    try:
        root = tracer.begin(layertrace.ROOT_SPAN)
        result = run_experiment(cfg)
        tracer.end(root)
    finally:
        tracer.uninstall()
    values, missing = layertrace.layer_metrics(tracer, 1.0, 1.0, result.manifest)
    assert {"learn.binary_models", "learn.epochs", "learn.train_points_max",
            "learn.self_s"} <= set(missing)
    assert not set(missing) & set(values)
    assert values["learn.train_s"] > 0 and values["kbindex.search_calls"] == 16


def test_uninstall_restores_every_target():
    import kbcat.kbindex

    original = kbcat.kbindex.KbIndex.search
    tracer = layertrace.Tracer("t")
    tracer.install()
    assert kbcat.kbindex.KbIndex.search is not original
    tracer.uninstall()
    assert kbcat.kbindex.KbIndex.search is original


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert layertrace.tail([]) == (50.0, 0.0)
    pct, value = layertrace.tail([float(i) for i in range(1, 101)])
    assert pct == 90.0 and value == 90.0
    assert layertrace.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0)


METRICS_TSV = (
    "row\tname\tmicro_p\tmicro_r\tmicro_f\tmacro_f\n"
    "run\toverall\t0.900000\t0.800000\t0.847059\t0.840000\n"
    "category\tacq\t0.9\t0.8\t0.84\t-\n"
    "category\tearn\t0.9\t0.8\t0.84\t-\n"
)


@pytest.mark.parametrize("text, result, reference, expect", [
    (METRICS_TSV, {"micro_f": 0.8470588, "macro_f": 0.84}, None, None),
    (METRICS_TSV, {"micro_f": 0.8471, "macro_f": 0.84}, None, "headline micro_f"),
    (METRICS_TSV, {"micro_f": 0.8470588, "macro_f": 0.84}, b"other", "differs"),
    (METRICS_TSV.replace("\t-\n", "\n", 1), {"micro_f": 0.8470588, "macro_f": 0.84},
     None, "no parseable"),
    (None, {"micro_f": 0.8470588, "macro_f": 0.84}, None, "no parseable"),
])
def test_output_checks(tmp_path, text, result, reference, expect):
    if text is not None:
        (tmp_path / "metrics.tsv").write_text(text, encoding="utf-8")
    workload = generate.WORKLOADS["reuters-cliff"]
    error = run.check_output(tmp_path, result, workload, reference)
    if expect is None:
        assert error is None
    else:
        assert expect in error


def test_refuses_to_run_without_program_sources(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for name in ("run.py", "generate.py", "layertrace.py", "child.py"):
        (bench_copy / name).write_bytes((BENCH_DIR / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench_copy / "run.py"), "--workload", "news-a4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(generate.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (unit, _needs) in layertrace.METRICS.items()]
