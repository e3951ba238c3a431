"""Run configuration: flat key=value files plus command-line overrides.

Every key has a default; unknown keys are rejected, and every value is
checked when the ``RunConfig`` is built, before any stage runs.  Values
are read by ``errors.PARSERS``, as flags are; booleans accept true/false/
1/0/yes/no.  Lines starting with '#' and blank lines are ignored; a key
may appear once per file.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, fields

from .errors import PARSERS, ConfigError, setting
from .forecaster import ModelConfig
from .transforms import TRANSFORM_KINDS


@dataclass(frozen=True)
class RunConfig(ModelConfig):
    """The forecaster's settings (inherited from ``ModelConfig``) plus the
    run's inputs, output, spatial decay, target transform and ablations."""

    regions: str = ""
    panel: str = ""
    out: str = "stcast-out"
    alpha: float = setting(1.0, interval="(0, inf)")
    post_onset_date: str = ""
    target_transform: str = "log1p-standardize"
    no_spatial: bool = False
    no_factors: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.post_onset_date:
            self.onset_date()
        if self.target_transform not in TRANSFORM_KINDS:
            raise ConfigError(
                f"target_transform must be one of {TRANSFORM_KINDS}, "
                f"got {self.target_transform!r}"
            )

    def onset_date(self) -> dt.date:
        if not self.post_onset_date:
            raise ConfigError("post_onset_date is required")
        try:
            return dt.date.fromisoformat(self.post_onset_date)
        except ValueError:
            raise ConfigError(
                f"cannot parse post_onset_date '{self.post_onset_date}' "
                "(expected YYYY-MM-DD)"
            ) from None

    def items(self) -> list[tuple[str, str]]:
        return [(f.name, str(getattr(self, f.name))) for f in fields(self)]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind, raw = _FIELD_TYPES[key], raw.strip()
    try:
        return PARSERS[kind](raw)
    except (KeyError, ValueError):
        noun = "boolean" if kind == "bool" else kind
        raise ConfigError(f"config key '{key}': cannot parse {noun} '{raw}'") from None


def parse_config_file(path) -> dict:
    values, first_line = {}, {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not {err.encoding} text ({err.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got '{stripped}'"
            )
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}' "
                              f"(first at line {first_line[key]})")
        first_line[key] = lineno
        values[key] = _coerce(key, raw)
    return values


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Merge file values with overrides (overrides win)."""
    values = parse_config_file(path) if path else {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _coerce(key, str(value)) if isinstance(value, str) else value
    return RunConfig(**values)
