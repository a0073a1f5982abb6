"""Shard planning: slicing a study's scenario grid into sub-studies.

A *shard* is a slice of one study's scenario grid -- a
:class:`StudyShard` names the parent :class:`~repro.studies.spec.Study`
plus the grid indices it owns, so every shard of a plan can rebuild its
scenarios independently (in another process, on another host) while all
of them share one content-addressed
:class:`~repro.experiments.cache.SweepDiskCache`: scenario cache digests
depend only on the scenario's canonical form and the model fingerprints,
never on which shard simulated it.

:func:`shard_plan` balances the grid across ``n`` shards *without
splitting batchable groups*: the scenarios of one
:func:`~repro.studies.runner.batch_groups` group advance together
through the grid-batched transient backend, and splitting such a group
across shards would forfeit that amortization.  Groups are packed
largest-first onto the currently lightest shard (LPT scheduling), which
keeps shard sizes within one group of each other for typical grids.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ExperimentError
from ...experiments.cache import scenario_key_digest
from ..runner import batch_groups, study_runner
from ..spec import Scenario, Study

__all__ = ["StudyShard", "shard_plan"]


@dataclass(frozen=True)
class StudyShard:
    """One slice of a study's scenario grid (a submittable sub-study).

    ``study`` is the full parent study; ``indices`` are the positions of
    this shard's scenarios in ``study.scenarios()`` grid order.  The
    shard is plain data and serializes losslessly
    (:meth:`to_dict`/:meth:`from_dict`), so a job manager can ship it to
    a worker process -- or another host -- that rebuilds the scenarios
    from the study description alone.
    """

    study: Study
    indices: tuple

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        n = len(self.study)
        bad = [i for i in indices if not 0 <= i < n]
        if bad:
            raise ExperimentError(
                f"shard indices {bad} outside the study's "
                f"{n}-scenario grid")
        if len(set(indices)) != len(indices):
            raise ExperimentError("shard indices must be unique")
        if not indices:
            raise ExperimentError("a shard needs at least one scenario")

    def __len__(self) -> int:
        """Number of scenarios this shard owns."""
        return len(self.indices)

    def scenarios(self) -> list[Scenario]:
        """This shard's scenarios (parent grid order preserved)."""
        grid = self.study.scenarios()
        return [grid[i] for i in self.indices]

    def digest(self) -> str:
        """Content identity of the shard: the parent study's physics
        digest plus the owned grid indices."""
        return scenario_key_digest(
            {"study": self.study.digest(), "indices": list(self.indices)})

    def to_dict(self) -> dict:
        """Lossless JSON-able rendering (study dict + indices)."""
        return {"study": self.study.to_dict(),
                "indices": list(self.indices)}

    @classmethod
    def from_dict(cls, d: dict) -> "StudyShard":
        """Rebuild a shard from :meth:`to_dict` output."""
        try:
            study, indices = d["study"], d["indices"]
        except (KeyError, TypeError):
            raise ExperimentError(
                "a serialized shard needs 'study' and 'indices'") \
                from None
        if not isinstance(study, Study):
            study = Study.from_dict(study)
        return cls(study=study, indices=tuple(indices))

    def run(self, models: dict | None = None, runner=None, **overrides):
        """Simulate just this shard's scenarios.

        Same contract as :meth:`~repro.studies.spec.Study.run` (models /
        an explicit runner / :class:`~repro.studies.spec.RunnerOptions`
        overrides), but over the shard's slice of the grid; returns a
        :class:`~repro.studies.outcomes.SweepResult` in shard order.
        Point ``disk_cache`` at the plan's shared directory and every
        outcome of the call is durably cached when it returns; the job
        manager's crash-resume sharpens this to per-batch-group
        checkpoints by running one group per call.
        """
        return study_runner(self.study.options, models, runner,
                            **overrides).run(self.scenarios())


def shard_plan(study: Study, n: int) -> list[StudyShard]:
    """Slice ``study``'s grid into at most ``n`` balanced shards.

    The scenarios of one :func:`~repro.studies.runner.batch_groups`
    group (the grid-batched backend's grouping) always land in the same
    shard, so sharding never costs batching amortization; un-batchable
    scenarios (their kind opted out) are singleton groups and
    distribute freely.  Groups are packed largest-first onto the lightest
    shard, ties broken by shard index, so the plan is deterministic.
    When the grid has fewer groups than ``n`` the plan returns fewer
    (non-empty) shards -- a group is never split.

    The shards partition the grid exactly: every index appears in
    exactly one shard, and each shard's indices stay in grid order.
    """
    if int(n) < 1:
        raise ExperimentError("shard count must be >= 1")
    n = int(n)
    groups = [[idx for idx, _ in group]
              for group in batch_groups(enumerate(study.scenarios()))]
    n = min(n, len(groups))
    bins: list[list[int]] = [[] for _ in range(n)]
    for group in sorted(groups, key=len, reverse=True):
        lightest = min(range(n), key=lambda b: len(bins[b]))
        bins[lightest].extend(group)
    return [StudyShard(study=study, indices=tuple(sorted(b)))
            for b in bins if b]
