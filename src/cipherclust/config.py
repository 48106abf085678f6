"""Pipeline configuration: defaults, config file, environment lookup.

Precedence, lowest to highest: built-in defaults, config file (either the
--config flag or the CLUSTCRYPT_CONFIG environment variable), command-line
flags. A flag's text is read by its field's rule, as a file value is.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from .index import data_lines

CONFIG_ENV = "CLUSTCRYPT_CONFIG"

# what each field takes, as its error message states it
_WANTED = {
    **dict.fromkeys(("keywords_per_doc", "abstract_size", "prune_width", "cutoff"), "a positive integer"),
    "k_mode": "'auto' or a positive integer",
    "codec": "'keyed' or 'identity'",
}


class ConfigError(ValueError):
    pass


def _check(name: str, value, where: str = "") -> None:
    """Reject a value that field name does not take; where prefixes the message."""
    if name == "codec":
        valid = value in ("keyed", "identity")
    else:
        valid = name == "k_mode" and value == "auto" or type(value) is int and value >= 1
    if not valid:
        raise ConfigError(f"{where}{name} must be {_WANTED[name]}, got {value!r}")


@dataclass(frozen=True)
class PipelineConfig:
    keywords_per_doc: int = 20
    abstract_size: int = 100
    prune_width: int = 3
    cutoff: int = 10
    k_mode: int | str = "auto"
    codec: str = "keyed"

    def __post_init__(self):
        # construction and every dataclasses.replace check each field, so no config holds an invalid value
        for name in _WANTED:
            _check(name, getattr(self, name))


def coerce(name: str, raw: str, where: str):
    """The value of config key name from its text raw; where (path:lineno, or a flag) prefixes every error."""
    if name not in _WANTED:
        raise ConfigError(f"{where}: unknown config key {name!r}")
    raw = raw.strip()
    # only a run of ASCII digits is an integer: int() would also take "1_0", "+5" and non-ASCII digits
    value = int(raw) if name != "codec" and raw.isascii() and raw.isdigit() else raw
    _check(name, value, f"{where}: ")
    return value


def parse_config_file(path: str | Path) -> dict:
    """Line-oriented `key = value`; blank lines and #-comments are skipped.

    Rejected with path:lineno: a line without `=`, an unknown key, a key set
    twice, an integer value that is not a run of ASCII digits, and a value
    its field does not take (a codec other than keyed or identity, an
    integer below 1).
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
        values[name] = coerce(name, raw, where)
    return values


def load_config(explicit_path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Resolve the effective config from defaults, file, and overrides."""
    config = PipelineConfig()
    path = explicit_path or os.environ.get(CONFIG_ENV)
    if path:
        config = replace(config, **parse_config_file(path))
    if overrides:
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    return config
