"""Shard planning: slicing a study's scenario grid into sub-studies.

A *shard* is a slice of one study's scenario grid -- a
:class:`StudyShard` names the parent :class:`~repro.studies.spec.Study`
plus the grid indices it owns, so a shard worker process rebuilds its
scenarios from the study alone, and the parent places the outcomes it
replies with by those indices.  Every shard of a plan checkpoints into
one content-addressed
:class:`~repro.experiments.cache.SweepDiskCache`: scenario cache digests
depend only on the scenario's canonical form and the model fingerprints,
never on which shard simulated it.

:func:`shard_plan` balances the grid across ``n`` shards and splits a
batchable group only to fill shards: the scenarios of one
:func:`~repro.studies.runner.batch_groups` group advance together
through the grid-batched transient backend, whose lockstep step costs
about as much for a few members as for many.  The split is the
runner's own dispatch rule (:func:`~repro.studies.runner._split_group`):
chunks of two or more members, which give every member the same bits
as the whole group.  Chunks are packed largest-first onto the currently
lightest shard (LPT scheduling), which keeps shard sizes within one
chunk of each other for typical grids.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ExperimentError
from ..runner import _split_group, batch_groups
from ..spec import Scenario, Study

__all__ = ["StudyShard", "shard_plan"]


@dataclass(frozen=True)
class StudyShard:
    """One slice of a study's scenario grid (a submittable sub-study).

    ``study`` is the full parent study; ``indices`` are the positions of
    this shard's scenarios in ``study.scenarios()`` grid order.  The job
    manager passes the shard object to its worker process, which
    rebuilds the scenarios from the study description alone.
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


def shard_plan(study: Study, n: int) -> list[StudyShard]:
    """Slice ``study``'s grid into at most ``n`` balanced shards.

    The scenarios of one :func:`~repro.studies.runner.batch_groups`
    group (the grid-batched backend's grouping) land in one shard unless
    the grid has fewer groups than ``n``: then each group splits into at
    most ``n // groups`` near-equal chunks of two or more members, by
    the rule the runner splits its dispatch jobs with
    (:func:`~repro.studies.runner._split_group`).  Un-batchable
    scenarios (their kind opted out) are singleton groups and distribute
    freely.  Chunks are packed largest-first onto the lightest shard,
    ties broken by shard index, so the plan is deterministic.  A grid
    with too few members to fill ``n`` shards gets fewer (non-empty)
    ones.

    The shards partition the grid exactly: every index appears in
    exactly one shard, and each shard's indices stay in grid order.
    """
    if int(n) < 1:
        raise ExperimentError("shard count must be >= 1")
    n = int(n)
    groups = batch_groups(enumerate(study.scenarios()))
    chunks = [[idx for idx, _ in chunk] for group in groups
              for chunk in _split_group(group, n, len(groups))]
    n = min(n, len(chunks))
    bins: list[list[int]] = [[] for _ in range(n)]
    for chunk in sorted(chunks, key=len, reverse=True):
        lightest = min(range(n), key=lambda b: len(bins[b]))
        bins[lightest].extend(chunk)
    return [StudyShard(study=study, indices=tuple(sorted(b)))
            for b in bins if b]
