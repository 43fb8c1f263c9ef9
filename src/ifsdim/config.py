"""Flat dotted-key run configuration.

One file per run, lines of ``section.key = value``; ``#`` starts a comment.
The canonical text (sorted keys, normalised spacing) is what gets hashed
into reports, so identical configurations hash identically no matter how
the file was formatted or which flags supplied the overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

# CPython's builtin sha256, as random.py takes its sha512: importing hashlib
# maps and starts OpenSSL's libcrypto (3.6 MiB resident) to hash a few
# hundred bytes of config text.  The digest is the same sha256.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["ConfigError", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """A configuration problem, message prefixed with the offending key."""


def parse_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat dict (later lines win)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value
    return out


@dataclass
class RunConfig:
    """Typed access to the flat key space, with field-path error messages.

    Every key a getter looks up counts as read, whether it is set or falls
    back to its default; ``has`` alone reads nothing."""

    raw: dict[str, str] = field(default_factory=dict)
    _read: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    # -- plumbing ----------------------------------------------------------

    def canonical_text(self) -> str:
        return "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw)) + "\n"

    def digest(self) -> str:
        return sha256(self.canonical_text().encode()).hexdigest()

    def has(self, key: str) -> bool:
        return key in self.raw

    def check_read(self, command: str) -> None:
        """Reject the first key, in sorted order, under ``system.`` or the
        command's own section that no getter has read: ``cli.main`` calls
        this between a command's plan and its run."""
        for key in sorted(self.raw):
            if key.startswith(("system.", command + ".")) and key not in self._read:
                family = self.raw.get("system.family")
                raise ConfigError(f"{key}: not read for system.family = {family}")

    # -- typed getters ------------------------------------------------------

    def _get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        self._read.add(key)
        return self.raw.get(key, default)

    def _require(self, key: str, default: Optional[str] = None) -> str:
        value = self._get(key, default)
        if value is None:
            raise ConfigError(f"{key}: required")
        return value

    def get_str(
        self,
        key: str,
        default: Optional[str] = None,
        choices: Optional[Sequence[str]] = None,
    ) -> str:
        value = self._require(key, default)
        if choices is not None and value not in choices:
            raise ConfigError(f"{key}: must be one of {sorted(choices)}, got {value!r}")
        return value

    def get_int(
        self, key: str, default: Optional[int] = None,
        lo: Optional[int] = None, hi: Optional[int] = None,
    ) -> int:
        return self._number(key, default, lo, hi, int, "an integer")

    def get_float(
        self, key: str, default: Optional[float] = None,
        lo: Optional[float] = None, hi: Optional[float] = None,
    ) -> float:
        return self._number(key, default, lo, hi, float, "a number")

    def _number(self, key: str, default, lo, hi, parse: Callable, noun: str):
        raw = self._get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"{key}: required")
            value = default
        else:
            try:
                value = parse(raw)
            except ValueError:
                raise ConfigError(f"{key}: expected {noun}, got {raw!r}") from None
            if parse is float and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
        _check_bounds(key, value, lo, hi)
        return value

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self._get(key)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")

    def get_floats(self, key: str) -> tuple[float, ...]:
        raw = self._require(key)
        try:
            values = tuple(float(part) for part in raw.split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from None
        if not values:
            raise ConfigError(f"{key}: empty list")
        return values

    def get_levels(
        self, key: str, default: Optional[str] = None,
        lo: Optional[int] = None, hi: Optional[int] = None,
    ) -> list[int]:
        """``a:b`` (inclusive, ascending) or a strictly ascending comma
        list, every level within [lo, hi]."""
        raw = self._require(key, default)
        try:
            if ":" in raw:
                first, last = (int(part) for part in raw.split(":", 1))
                levels: Sequence[int] = range(first, last + 1)
            else:
                levels = [int(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"{key}: expected 'low:high' or a comma list, got {raw!r}") from None
        if not levels:  # a range is empty only when reversed
            what = f"range {raw!r} is reversed (write low:high)" if ":" in raw else "empty list"
            raise ConfigError(f"{key}: {what}")
        # an ascending range is bounded by its ends, before it becomes a list
        ends = (levels[0], levels[-1]) if isinstance(levels, range) else (min(levels), max(levels))
        for end in ends:
            _check_bounds(key, end, lo, hi)
        if isinstance(levels, list) and any(a >= b for a, b in zip(levels, levels[1:])):
            raise ConfigError(f"{key}: levels must be strictly ascending, got {raw!r}")
        return list(levels)


def _check_bounds(key: str, value, lo, hi) -> None:
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: must be <= {hi}, got {value}")
