"""String-keyed registries for the pluggable pieces of the reproduction.

The API layer composes three kinds of interchangeable components:

* **router backends** — edge-colouring algorithms behind Theorem 1's fair
  distribution (``"konig"``, ``"euler"``, …), consulted by
  :func:`repro.graph.edge_coloring.edge_color`;
* **simulator engines** — schedule executors
  (``"reference"``, ``"batched"``, …), consulted by
  :class:`repro.pops.simulator.POPSSimulator`;
* **experiments** — the ``E1..E8`` runners, consulted by
  :meth:`repro.api.session.Session.experiment`.

Each lives in a :class:`Registry`: a string-keyed table with decorator
registration, so new backends, engines and workloads plug in from anywhere
(including code outside this package) without touching the core dispatchers::

    from repro.api.registry import SIM_ENGINES

    @SIM_ENGINES.register("my-engine")
    def _my_engine(simulator, schedule, packets, *, cache_key=None, cache=None):
        ...

    POPSSimulator(network, backend="my-engine")   # now just works

The built-in entries register themselves when their home modules import
(``repro.graph.edge_coloring``, ``repro.pops.simulator``,
``repro.analysis.experiments``); :func:`ensure_builtin_backends` and
:func:`ensure_experiments` force those imports for callers that validate names
before touching the core.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any, TypeVar

from repro.exceptions import ConfigurationError

__all__ = [
    "Registry",
    "ROUTER_BACKENDS",
    "SIM_ENGINES",
    "EXPERIMENTS",
    "ensure_builtin_backends",
    "ensure_experiments",
]

T = TypeVar("T")


class Registry:
    """A string-keyed table of pluggable components.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"router backend"``), used in error
        messages and reprs.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, entries={sorted(self._entries)})"

    def register(self, name: str, obj: T | None = None) -> T | Callable[[T], T]:
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        ``register("x", thing)`` stores ``thing`` immediately;
        ``@register("x")`` stores the decorated object.  Duplicate names raise
        :class:`~repro.exceptions.ConfigurationError` — replacing an entry is
        always a bug (two plugins fighting over one name), so tests use
        :meth:`unregister` for temporary entries instead.  The one exception:
        re-registering an object with the same module and qualified name as
        the existing entry replaces it silently, so reloading a module whose
        body registers built-ins (``repro.pops.simulator``,
        ``repro.analysis.experiments``, …) does not crash.
        """
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"{self.kind} names must be non-empty strings, got {name!r}"
            )

        def _store(value: T) -> T:
            existing = self._entries.get(name)
            if existing is not None and not self._same_definition(existing, value):
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered"
                )
            self._entries[name] = value
            return value

        if obj is None:
            return _store
        return _store(obj)

    @staticmethod
    def _same_definition(existing: Any, value: Any) -> bool:
        """True iff both objects are the same *top-level* definition.

        Module reloads re-create module-level functions with identical
        module + qualname; those may replace each other.  Factory-made
        closures (qualname contains ``<locals>``) are excluded — two
        products of the same factory are distinct components, and swapping
        one for the other silently is exactly the duplicate-name bug the
        registry must reject.
        """
        if existing is value:
            return True
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        return (
            module is not None
            and qualname is not None
            and "<locals>" not in qualname
            and getattr(existing, "__module__", None) == module
            and getattr(existing, "__qualname__", None) == qualname
        )

    def unregister(self, name: str) -> None:
        """Remove ``name``; unknown names raise like :meth:`get`."""
        if name not in self._entries:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {sorted(self._entries)}"
            )
        del self._entries[name]

    def get(self, name: str) -> Any:
        """Look up ``name``, raising a listing of available keys on a miss."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {sorted(self._entries)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def items(self) -> tuple[tuple[str, Any], ...]:
        """``(name, entry)`` pairs, in registration order."""
        return tuple(self._entries.items())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


#: Edge-colouring backends behind the fair-distribution solver (Theorem 1).
ROUTER_BACKENDS = Registry("router backend")

#: Simulator engines executing routing schedules under the POPS slot model.
SIM_ENGINES = Registry("simulator engine")

#: Experiment runners, keyed by experiment id (``E1``..``E8``); entries are
#: callables ``runner(session, **overrides) -> ExperimentResult``.
EXPERIMENTS = Registry("experiment")


def ensure_builtin_backends() -> None:
    """Import the core modules whose import registers the built-in backends."""
    import repro.graph.array_coloring  # noqa: F401  (registers konig-array/euler-array)
    import repro.graph.edge_coloring  # noqa: F401  (registers konig/euler)
    import repro.pops.simulator  # noqa: F401  (registers reference/batched)


def ensure_experiments() -> None:
    """Import the experiment module, registering ``E1..E8`` runners."""
    import repro.analysis.experiments  # noqa: F401
