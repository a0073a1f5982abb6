"""Copy-on-read clones of records a cache never mutates.

A result cache hands every hit out as a private clone of its entry, so a
caller may edit a hit in place without changing what later hits see.
Copying every array up front makes each hit cost the entry's whole size
even when the caller reads none of the arrays (a Monte Carlo pass that
reads the verdicts and one spectrum per draw).  A clone made by
:meth:`CopyOnRead.clone_on_read` instead keeps references to the
entry's arrays and copies each one the first time it is read; writes
then land on the copy.  The entry itself must never change while clones
of it exist.  Code that only reads a clone's arrays (a sweep-level
aggregation) takes them through :meth:`CopyOnRead.peek`, which hands out
the entry's array while its copy is still pending and makes no copy.
"""

from __future__ import annotations

__all__ = ["CopyOnRead"]


class CopyOnRead:
    """Mixin of dataclasses whose clones copy some fields on first read.

    ``_COPY_ON_READ`` maps each such field to the function that makes
    its private copy.  A clone's shared sources sit in ``_pending``
    instead of the instance dict, so the first read of the field falls
    through to :meth:`__getattr__`, which stores the copy where plain
    attribute lookup finds it from then on.
    """

    _COPY_ON_READ: dict = {}

    def __getattr__(self, name):
        # reached only for names missing from the instance dict: a field
        # whose copy is pending, or an attribute that does not exist
        pending = self.__dict__.get("_pending")
        if pending is None or name not in pending:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        # setdefault: two threads reading at once keep one copy
        return self.__dict__.setdefault(
            name, self._COPY_ON_READ[name](pending[name]))

    def peek(self, name):
        """Field ``name`` for reading only: the shared source while its
        copy is pending (no copy is made), else the field itself.  The
        caller must not write to what it returns."""
        state = self.__dict__
        if name not in state and name in state.get("_pending", ()):
            return state["_pending"][name]
        return getattr(self, name)

    def clone_on_read(self, **overrides):
        """A clone that shares this instance's ``_COPY_ON_READ`` fields
        until each is first read; ``overrides`` set fields outright."""
        state = dict(self.__dict__)
        pending = dict(state.pop("_pending", {}))
        for name in self._COPY_ON_READ:
            if name in state:
                pending[name] = state.pop(name)
        for name in overrides:
            pending.pop(name, None)
        state.update(overrides)
        state["_pending"] = pending
        clone = object.__new__(type(self))
        clone.__dict__.update(state)
        return clone
