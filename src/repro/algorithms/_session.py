"""The default execution session shared by the collective algorithms."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

__all__ = ["collective_session"]


def collective_session(session: Session | None = None) -> Session:
    """The session a collective algorithm executes on.

    A caller-supplied session is used as-is (its engine, cache and seed
    lineage apply); otherwise a fresh session on the ``batched`` engine is
    built, which runs permutation rounds itself and hands broadcast-style
    schedules to the vectorized collective engine.
    """
    from repro.api.config import RunConfig
    from repro.api.session import Session

    if session is not None:
        return session
    return Session(RunConfig(sim_backend="batched"))
