"""Lightweight nested configuration.

SENSEI drives which analyses run through an XML configuration file; VisIt
Libsim consumes "session files" saved from the GUI.  This repo models both
with a small dict-backed :class:`Configuration` that supports dotted-path
lookup, type coercion, validation, and round-tripping through JSON (so the
Libsim per-rank session-file parse cost in Fig. 5 is a real parse).
"""

from __future__ import annotations

import json
from typing import Any, Iterator


class ConfigError(KeyError):
    """Raised for missing keys or malformed configuration values."""


class Configuration:
    """Nested string-keyed configuration with dotted-path access."""

    def __init__(self, data: dict[str, Any] | None = None) -> None:
        self._data: dict[str, Any] = dict(data or {})

    @classmethod
    def from_json(cls, text: str) -> "Configuration":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed configuration: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("top-level configuration must be an object")
        return cls(data)

    @classmethod
    def from_file(cls, path) -> "Configuration":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_json(self) -> str:
        return json.dumps(self._data, sort_keys=True)

    def _walk(self, path: str, create: bool = False) -> tuple[dict, str]:
        parts = path.split(".")
        node = self._data
        for p in parts[:-1]:
            nxt = node.get(p)
            if nxt is None and create:
                nxt = node[p] = {}
            if not isinstance(nxt, dict):
                raise ConfigError(f"no such configuration section: {path!r}")
            node = nxt
        return node, parts[-1]

    def get(self, path: str, default: Any = None) -> Any:
        try:
            node, leaf = self._walk(path)
        except ConfigError:
            return default
        return node.get(leaf, default)

    def require(self, path: str) -> Any:
        node, leaf = self._walk(path)
        if leaf not in node:
            raise ConfigError(f"missing required configuration key: {path!r}")
        return node[leaf]

    def get_int(self, path: str, default: int | None = None) -> int:
        v = self.get(path, default)
        if v is None:
            raise ConfigError(f"missing integer configuration key: {path!r}")
        try:
            return int(v)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path!r} is not an integer: {v!r}") from exc

    def get_float(self, path: str, default: float | None = None) -> float:
        v = self.get(path, default)
        if v is None:
            raise ConfigError(f"missing float configuration key: {path!r}")
        try:
            return float(v)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path!r} is not a float: {v!r}") from exc

    def get_bool(self, path: str, default: bool | None = None) -> bool:
        v = self.get(path, default)
        if v is None:
            raise ConfigError(f"missing boolean configuration key: {path!r}")
        if isinstance(v, bool):
            return v
        if isinstance(v, str):
            if v.lower() in ("true", "1", "yes", "on"):
                return True
            if v.lower() in ("false", "0", "no", "off"):
                return False
        raise ConfigError(f"{path!r} is not a boolean: {v!r}")

    def get_list(self, path: str, default: list | None = None) -> list:
        v = self.get(path, default)
        if v is None:
            raise ConfigError(f"missing list configuration key: {path!r}")
        if not isinstance(v, list):
            raise ConfigError(f"{path!r} is not a list: {v!r}")
        return v

    def set(self, path: str, value: Any) -> None:
        node, leaf = self._walk(path, create=True)
        node[leaf] = value

    def __contains__(self, path: str) -> bool:
        sentinel = object()
        return self.get(path, sentinel) is not sentinel

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def as_dict(self) -> dict[str, Any]:
        return json.loads(self.to_json())
