"""Configuration-driven analysis selection.

SENSEI's ``ConfigurableAnalysis`` reads an XML file naming the analyses to
run and their parameters; end users "can easily choose between
ParaView/Catalyst and VisIt/Libsim ... or in transit using ADIOS or GLEAN"
without touching simulation code (Sec. 3.2).  Here the same role is played
by a JSON :class:`~repro.util.config.Configuration` and a factory registry:
analysis types register a builder by name; :class:`ConfigurableAnalysis`
instantiates everything listed under ``"analyses"`` and behaves as a single
composite :class:`AnalysisAdaptor`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor
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


class ConfigurableAnalysis(AnalysisAdaptor):
    """Builds and drives the analyses named in a configuration.

    Configuration shape::

        {"analyses": [
            {"type": "histogram", "bins": 64, "array": "data"},
            {"type": "catalyst", "pipeline": "slice", ...},
        ]}

    Entries with ``"enabled": false`` are skipped, mirroring how SENSEI XML
    entries can be toggled without recompiling.
    """

    def __init__(self, config: Configuration) -> None:
        super().__init__()
        _ensure_builtin_analyses()
        self._analyses: list[AnalysisAdaptor] = []
        entries = config.get_list("analyses", [])
        for i, entry in enumerate(entries):
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
            self._analyses.append(factory(sub))

    @property
    def analyses(self) -> list[AnalysisAdaptor]:
        return list(self._analyses)

    def set_instrumentation(self, timers, memory) -> None:
        super().set_instrumentation(timers, memory)
        for a in self._analyses:
            a.set_instrumentation(timers, memory)

    def initialize(self, comm) -> None:
        for a in self._analyses:
            a.initialize(comm)

    def execute(self, data: DataAdaptor) -> bool:
        keep_going = True
        for a in self._analyses:
            keep_going = a.execute(data) and keep_going
        return keep_going

    def finalize(self) -> dict[str, object] | None:
        results = {}
        for a in self._analyses:
            out = a.finalize()
            if out is not None:
                results[a.name] = out
        return results or None
