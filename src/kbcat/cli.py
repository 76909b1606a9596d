"""Command-line interface.

Subcommands:
  run             execute a configured experiment
  enrich preview  show a document before and after enrichment
  report          build an improvement table from saved metrics files

Bad input (a config, dump, corpus or metrics file) ends in one
``error: ...`` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .config import PRESET_NAMES, load_config, validate_config
from .enrich import apply_preset, strategy_outputs
from .experiment import (
    StageError,
    improvement_table_from_files,
    load_corpus,
    load_resources,
    run_experiment,
)
from .kbindex import KbIndex, load_kb_dump


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.preset:
        cfg = replace(cfg, preset=args.preset)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out:
        cfg = replace(cfg, out_dir=str(Path(args.out).resolve()))
    cfg = validate_config(cfg)  # the overrides are checked like the file
    result = run_experiment(cfg)
    print(f"run {result.name}: micro_f={result.micro_f:.4f} "
          f"macro_f={result.macro_f:.4f} "
          f"({cfg.resolved_eval_mode()} evaluation, seed {cfg.seed})")
    if result.out_dir:
        print(f"artifacts written to {result.out_dir}")
    return 0


def _cmd_enrich_preview(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    resources = load_resources(cfg)
    docs, categories = load_corpus(cfg)
    doc = next((d for d in docs if d.id == args.doc_id), None)
    if doc is None:
        raise ValueError(f"document {args.doc_id!r} not found")
    preset = cfg.resolve_preset()
    index = KbIndex(load_kb_dump(cfg.kb_dump)) if preset.strategies else None
    prepared = apply_preset(doc, preset, index, resources)

    print(f"document {doc.id} labels={sorted(doc.labels)}")
    print(f"representation {preset.representation.value}: {' '.join(prepared.tokens)}")
    if index is not None:
        for strategy, out in strategy_outputs(prepared, preset, index):
            print(f"{strategy.value} titles: {out.titles}")
            print(f"{strategy.value} categories: {out.categories}")
            print(f"{strategy.value} linked concepts: {out.linked_concepts}")
    print(f"appended tokens: {' '.join(prepared.injected) or '(none)'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    # each NAME is one row of the table, after the baseline row
    run_paths: dict[str, Path] = {}
    for item in args.runs:
        name, _, path = item.partition("=")
        if not path:
            raise ValueError(f"--runs entries look like NAME=PATH, got {item!r}")
        if not name:
            raise ValueError(f"--runs entry {item!r} has an empty NAME")
        if name == "baseline":
            raise ValueError("--runs NAME 'baseline' is the table's baseline row")
        if any(c in name for c in "\t\r\n"):
            raise ValueError(f"--runs NAME {name!r} contains a TAB or line break")
        if name in run_paths:
            raise ValueError(f"--runs NAME {name!r} is repeated")
        run_paths[name] = Path(path)
    table = improvement_table_from_files(
        Path(args.baseline), list(run_paths.items()), with_t_test=args.t_test
    )
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
        print(f"improvement table written to {args.out}")
    else:
        print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbcat",
        description="Knowledge-base-enriched text categorization toolkit",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a configured experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--preset", choices=PRESET_NAMES)
    run.add_argument("--seed", type=int)
    run.add_argument("--out")
    run.set_defaults(func=_cmd_run)

    enrich = sub.add_parser("enrich", help="enrichment commands")
    enrich_sub = enrich.add_subparsers(dest="enrich_command", required=True)
    preview = enrich_sub.add_parser(
        "preview", help="print a document before and after enrichment")
    preview.add_argument("--config", required=True)
    preview.add_argument("--doc-id", required=True)
    preview.set_defaults(func=_cmd_enrich_preview)

    report = sub.add_parser("report", help="emit an improvement table")
    report.add_argument("--baseline", required=True,
                        help="baseline metrics.tsv path")
    report.add_argument("--runs", nargs="+", required=True, metavar="NAME=PATH")
    report.add_argument("--out")
    report.add_argument("--t-test", action="store_true",
                        help="add paired t-test columns over fold rows")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ValueError, OSError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
