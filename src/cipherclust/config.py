"""Pipeline configuration: defaults, config file, environment lookup.

Precedence, lowest to highest: built-in defaults, config file (either the
--config flag or the CLUSTCRYPT_CONFIG environment variable), command-line
flags.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from .index import data_lines

CONFIG_ENV = "CLUSTCRYPT_CONFIG"

_INT_FIELDS = ("keywords_per_doc", "abstract_size", "prune_width", "cutoff")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    keywords_per_doc: int = 20
    abstract_size: int = 100
    prune_width: int = 3
    cutoff: int = 10
    k_mode: int | str = "auto"
    codec: str = "keyed"

    def validate(self) -> "PipelineConfig":
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.k_mode != "auto":
            if not isinstance(self.k_mode, int) or self.k_mode < 1:
                raise ConfigError(f"k_mode must be 'auto' or a positive integer, got {self.k_mode!r}")
        if self.codec not in ("keyed", "identity"):
            raise ConfigError(f"codec must be 'keyed' or 'identity', got {self.codec!r}")
        return self


def _coerce(name: str, raw: str, where: str):
    """The value of config key name from its text raw; where (path:lineno) prefixes every error."""
    raw = raw.strip()
    if name == "codec" or name == "k_mode" and raw == "auto":
        return raw
    if name != "k_mode" and name not in _INT_FIELDS:
        raise ConfigError(f"{where}: unknown config key {name!r}")
    # int() would also take "1_0", "+5" and non-ASCII digits
    if not (raw.isascii() and raw.isdigit()):
        wanted = "'auto' or an integer" if name == "k_mode" else "an integer"
        raise ConfigError(f"{where}: {name} must be {wanted}, got {raw!r}")
    return int(raw)


def parse_config_file(path: str | Path) -> dict:
    """Line-oriented `key = value`; blank lines and #-comments are skipped.

    Rejected with path:lineno: a line without `=`, an unknown key, a key set
    twice, and an integer value that is not a run of ASCII digits.
    """
    values: dict = {}
    set_at: dict[str, int] = {}
    for lineno, line in data_lines(path):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected `key = value`")
        name, raw = stripped.split("=", 1)
        name = name.strip()
        if name in set_at:
            raise ConfigError(f"{where}: {name} is already set on line {set_at[name]}")
        set_at[name] = lineno
        values[name] = _coerce(name, raw, where)
    return values


def load_config(explicit_path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Resolve the effective config from defaults, file, and overrides."""
    config = PipelineConfig()
    path = explicit_path or os.environ.get(CONFIG_ENV)
    if path:
        config = replace(config, **parse_config_file(path))
    if overrides:
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    return config.validate()
