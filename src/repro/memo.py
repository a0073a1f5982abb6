"""Per-instance memos of frozen records.

A frozen dataclass such as :class:`~repro.studies.spec.Scenario` or
:class:`~repro.studies.spec.Study` derives values from its fields alone
(a rendered scenario grid) or from its fields and the process's name
registries (a cache key renders mask and kind names to their content).
:class:`Memoized` keeps such values on the instance.  A value that reads
a registry is stamped with :func:`generation`, which
:func:`~repro.emc.limits.register_mask` and
:func:`~repro.studies.kinds.register_kind` advance, so a memo built
before a registration changed is rebuilt on its next read.  Memos never
travel in a pickle: an unpickled copy renders afresh.
"""

from __future__ import annotations

__all__ = ["Memoized", "generation", "bump_generation"]

_generation = 0


def generation() -> int:
    """The registry generation: it grows with every registration."""
    return _generation


def bump_generation() -> None:
    """Invalidate every registry-stamped memo (a registration changed)."""
    global _generation
    _generation += 1


class Memoized:
    """Mixin of frozen dataclasses that keep derived values on the
    instance, under ``_memos`` (outside the dataclass fields, so equality,
    hashing and ``repr`` never see it)."""

    def _memo(self, name: str, build, stamp=None):
        """``build()``, computed once per instance and ``stamp``."""
        memo = self.__dict__.get("_memos")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memos", memo)
        hit = memo.get(name)
        if hit is None or hit[0] != stamp:
            hit = memo[name] = (stamp, build())
        return hit[1]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_memos", None)
        return state
