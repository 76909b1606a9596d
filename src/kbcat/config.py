"""Experiment configuration: flat ``key = value`` files with ``#`` comments.

Paths are resolved relative to the config file's directory and must exist
at validation time. Unknown keys are an error so typos fail fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from .enrich import PRESETS, Preset, Strategy
from .textproc import (
    Representation,
    default_gazetteer_path,
    default_nouns_path,
    stopwords_path,
)

DATASETS = ("reuters10", "reuters90", "news20", "custom")
PRESET_NAMES = (*PRESETS, "custom")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: str
    corpus_dir: str
    out_dir: str = ""
    kb_dump: str = ""
    stoplist: str = ""
    gazetteer: str = ""
    noun_lexicon: str = ""
    preset: str = "baseline"
    representation: str = "T1"
    strategies: str = ""
    k: int = 5
    min_rank: int = 5
    include_linked: bool = False
    apply_e4: bool = True
    apply_e5: bool = True
    title_term: str = ""
    svm_c: float = 1.0
    svm_tolerance: float = 1e-4
    svm_max_epochs: int = 1000
    seed: int = 0
    eval_mode: str = ""  # "cv" or "split"; dataset default when empty
    cv_folds: int = 4
    label_mode: str = ""  # "multi" or "single"; dataset default when empty
    save_models: bool = False
    baseline_metrics: str = ""

    def resolved_eval_mode(self) -> str:
        if self.eval_mode:
            return self.eval_mode
        return "split" if self.dataset.startswith("reuters") else "cv"

    def resolved_label_mode(self) -> str:
        if self.label_mode:
            return self.label_mode
        return "multi" if self.dataset.startswith("reuters") else "single"

    def resolve_preset(self) -> Preset:
        if self.preset in PRESETS:
            return PRESETS[self.preset]
        if self.preset != "custom":
            raise ConfigError(f"unknown preset {self.preset!r}")
        return Preset(
            name="custom",
            representation=Representation(self.representation),
            strategies=_parse_strategies(self.strategies),
            k=self.k,
            include_linked=self.include_linked,
            apply_e4=self.apply_e4,
            apply_e5=self.apply_e5,
            min_rank=self.min_rank,
            title_term=self.title_term or None,
        )


def _parse_strategies(text: str) -> frozenset[Strategy]:
    return frozenset(Strategy(s.strip()) for s in text.split(",") if s.strip())


_FIELD_TYPES = get_type_hints(ExperimentConfig)
_PATH_KEYS = {"corpus_dir", "kb_dump", "stoplist", "gazetteer", "noun_lexicon",
              "baseline_metrics"}


def _coerce(key: str, value: str) -> str | int | float | bool:
    """Convert a raw string value to the type of its ExperimentConfig field."""
    kind = _FIELD_TYPES[key]
    if kind is bool:
        low = value.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
    else:
        try:
            return kind(value)
        except ValueError:
            pass
    raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {value!r}")


def parse_config_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Parse and validate config text; see load_config for file handling."""
    raw: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    unknown: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value': {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in _FIELD_TYPES:
            unknown.append(key)
            continue
        if key in raw:
            raise ConfigError(f"line {lineno}: key {key!r} repeated "
                              f"(first set on line {raw[key][0]})")
        raw[key] = (lineno, value)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    kwargs = {key: _coerce(key, value) for key, (_, value) in raw.items()}
    for required in ("dataset", "corpus_dir"):
        if not kwargs.get(required):
            raise ConfigError(f"missing required key {required!r}")

    cfg = ExperimentConfig(**kwargs)
    return validate_config(cfg, base_dir=base_dir)


def validate_config(cfg: ExperimentConfig, base_dir: Path | None = None) -> ExperimentConfig:
    if cfg.dataset not in DATASETS:
        raise ConfigError(
            f"dataset must be one of {', '.join(DATASETS)}, got {cfg.dataset!r}"
        )
    if cfg.preset not in PRESET_NAMES:
        raise ConfigError(
            f"preset must be one of {', '.join(PRESET_NAMES)}, got {cfg.preset!r}"
        )
    if cfg.eval_mode and cfg.eval_mode not in ("cv", "split"):
        raise ConfigError(f"eval_mode must be 'cv' or 'split', got {cfg.eval_mode!r}")
    if cfg.label_mode and cfg.label_mode not in ("multi", "single"):
        raise ConfigError(f"label_mode must be 'multi' or 'single', got {cfg.label_mode!r}")
    if cfg.cv_folds < 2:
        raise ConfigError(f"cv_folds must be >= 2, got {cfg.cv_folds}")
    for key in ("svm_c", "svm_tolerance"):
        value = getattr(cfg, key)
        # NaN and infinity would train zero models that still certify
        if not (value > 0 and math.isfinite(value)):
            raise ConfigError(f"key {key!r}: must be positive and finite, got {value}")
    if cfg.svm_max_epochs < 1:
        raise ConfigError(f"svm_max_epochs must be >= 1, got {cfg.svm_max_epochs}")
    if cfg.k < 1:
        raise ConfigError(f"key 'k': must be >= 1, got {cfg.k}")
    # checked for every preset, not only for the custom one that reads them
    for key, parse in (("representation", Representation),
                       ("strategies", _parse_strategies)):
        try:
            parse(getattr(cfg, key))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc

    updates: dict[str, str] = {}
    base = base_dir or Path.cwd()

    def resolve(key: str, value: str) -> str:
        path = Path(value)
        if not path.is_absolute():
            path = base / path
        if not path.exists():
            raise ConfigError(f"key {key!r}: path does not exist: {path}")
        return str(path.resolve())

    for key in _PATH_KEYS:
        value = getattr(cfg, key)
        if value:
            updates[key] = resolve(key, value)
    if not cfg.stoplist:
        updates["stoplist"] = str(stopwords_path())
    if not cfg.gazetteer:
        updates["gazetteer"] = str(default_gazetteer_path())
    if not cfg.noun_lexicon:
        updates["noun_lexicon"] = str(default_nouns_path())
    if cfg.out_dir:
        path = Path(cfg.out_dir)
        updates["out_dir"] = str(path if path.is_absolute() else base / path)

    cfg = replace(cfg, **updates)
    # only enrichment reads the KB: custom T1-T4 without strategies does not
    if cfg.resolve_preset().strategies and not cfg.kb_dump:
        raise ConfigError(f"preset {cfg.preset!r} needs a kb_dump path")
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """The config file at ``path``, whose relative paths are taken from its
    folder; a UTF-8 byte-order mark is skipped."""
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8-sig"), base_dir=path.parent)


def config_to_dict(cfg: ExperimentConfig) -> dict[str, str]:
    """Stringly-typed snapshot. As ``key = value`` lines it is a config
    file that parse_config_text reads back to an equal config, for values a
    config file can hold (no ``#``, no newline)."""
    out = {}
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        out[f.name] = str(value) if not isinstance(value, bool) else ("true" if value else "false")
    return out

