"""Configuration-driven analysis selection.

SENSEI's ``ConfigurableAnalysis`` reads an XML file naming the analyses to
run and their parameters; end users "can easily choose between
ParaView/Catalyst and VisIt/Libsim ... or in transit using ADIOS or GLEAN"
without touching simulation code (Sec. 3.2).  Here the same role is played
by a JSON :class:`~repro.util.config.Configuration` and a factory registry:
analysis types register a builder by name, and :func:`configured_analyses`
builds everything listed under ``"analyses"`` for a
:class:`~repro.core.bridge.Bridge` to add.  The Bridge is the one composite.
"""

from __future__ import annotations

from typing import Callable

from repro.core.adaptors import AnalysisAdaptor
from repro.util.config import ConfigError, Configuration

AnalysisFactory = Callable[[Configuration], AnalysisAdaptor]

_REGISTRY: dict[str, AnalysisFactory] = {}


def register_analysis(type_name: str) -> Callable[[AnalysisFactory], AnalysisFactory]:
    """Decorator registering a factory for ``{"type": type_name, ...}`` entries."""

    def deco(factory: AnalysisFactory) -> AnalysisFactory:
        _REGISTRY[type_name] = factory
        return factory

    return deco


def registered_analysis_types() -> list[str]:
    _ensure_builtin_analyses()
    return sorted(_REGISTRY)


def _ensure_builtin_analyses() -> None:
    """Import the packages whose modules self-register analysis types.

    Done lazily (not at module import) because those packages import this
    one to call :func:`register_analysis`.
    """
    import importlib

    for pkg in ("repro.analysis", "repro.infrastructure"):
        importlib.import_module(pkg)


def configured_analyses(config: Configuration) -> list[AnalysisAdaptor]:
    """Build the analyses a configuration names, in order.

    Configuration shape::

        {"analyses": [
            {"type": "histogram", "bins": 64, "array": "data"},
            {"type": "catalyst", "axis": 2, "index": 0, ...},
        ]}

    Entries with ``"enabled": false`` are skipped, mirroring how SENSEI XML
    entries can be toggled without recompiling.  Each analysis is added to
    the bridge as itself, so its name and ``mutates_data`` reach the bridge
    and its sanitizer.
    """
    _ensure_builtin_analyses()
    analyses: list[AnalysisAdaptor] = []
    for i, entry in enumerate(config.get_list("analyses", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"analyses[{i}] must be an object")
        sub = Configuration(entry)
        if not sub.get_bool("enabled", True):
            continue
        type_name = sub.get("type")
        if type_name is None:
            raise ConfigError(f"analyses[{i}] is missing 'type'")
        factory = _REGISTRY.get(type_name)
        if factory is None:
            raise ConfigError(
                f"unknown analysis type {type_name!r}; "
                f"registered: {registered_analysis_types()}"
            )
        analyses.append(factory(sub))
    return analyses
