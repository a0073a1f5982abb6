"""Sweep outcomes and results: per-scenario summaries and grid reports.

:class:`ScenarioOutcome` is the full record of one simulated grid point
(waveforms, probes, spectra, verdicts, metrics); :class:`SweepResult`
wraps the ordered outcome list with the summary helpers an EMC engineer
reads (worst-case pick, compliance table, peak-hold envelope) plus
machine-readable exports (:meth:`SweepResult.to_csv` /
:meth:`SweepResult.to_json`) for CI pipelines.  :class:`StudyResult` is
the same thing returned by :meth:`repro.studies.spec.Study.run`, with the
study description riding along.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..copy_on_read import CopyOnRead
from ..emc.limits import ComplianceVerdict
from ..emc.spectrum import Spectrum, peak_hold
from ..errors import ExperimentError
from .spec import Scenario

__all__ = ["ScenarioOutcome", "SweepResult", "StudyResult"]


@dataclass
class ScenarioOutcome(CopyOnRead):
    """Waveform + EMC summary of one simulated scenario.

    ``probes`` carries named extra waveforms sampled on the same time grid
    as ``v_port`` (e.g. the victim's ``"next"``/``"fext"`` waveforms of a
    coupled scenario, or the conducted port current ``"i_port"`` when the
    spectral request probes current).  ``spectra`` maps
    :meth:`~repro.studies.spec.SpectralSpec.spectrum_keys` names to
    :class:`~repro.emc.spectrum.Spectrum` objects -- the raw (peak)
    spectrum under the quantity name, detector-weighted copies under
    ``"<quantity>@<detector>"``, radiated estimates under ``"e_field"``
    keys.  ``verdicts_by`` maps check names (``"peak"``,
    ``"quasi-peak"``, ``"average"`` for the conducted mask;
    ``"rad:<detector>"`` for the radiated mask) to their
    :class:`~repro.emc.limits.ComplianceVerdict`; ``verdict`` is the
    worst-margin entry (the binding check), kept for one-check callers.
    """

    scenario: Scenario
    t: np.ndarray
    v_port: np.ndarray
    metrics: dict
    warnings: list
    elapsed_s: float
    cache_hit: bool = False
    error: str | None = None
    probes: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)
    verdict: ComplianceVerdict | None = None
    verdicts_by: dict = field(default_factory=dict)

    #: a cache hit's clone copies these on first read (each spectrum
    #: again defers its own arrays)
    _COPY_ON_READ = {
        "t": np.copy, "v_port": np.copy,
        "probes": lambda probes: {k: v.copy() for k, v in probes.items()},
        "spectra": lambda spectra: {
            k: s.clone_on_read(meta=dict(s.meta))
            for k, s in spectra.items()}}

    @property
    def ok(self) -> bool:
        """``True`` when the scenario simulated without raising."""
        return self.error is None

    @property
    def passed(self) -> bool | None:
        """Combined pass/fail of every check the scenario carries.

        ANDs every mask verdict (all detectors, conducted and radiated)
        with the receiver eye check (``rx_pass``, present on
        ``kind="rx"`` scenarios).  ``None`` when the scenario carries no
        check at all; ``False`` for failed (``ok == False``) scenarios
        -- a crashed corner is never a pass.
        """
        if not self.ok:
            return False
        checks = [bool(v.passed) for v in self.verdicts_by.values()]
        if "rx_pass" in (self.metrics or {}):
            checks.append(bool(self.metrics["rx_pass"]))
        if not checks:
            return None
        return all(checks)

    def copy_on_read(self, **overrides) -> "ScenarioOutcome":
        """Clone with private containers whose arrays (``t``, ``v_port``,
        ``probes``, each spectrum's ``f``/``mag``) are copied the first
        time they are read, so a clone nobody reads costs no array
        copies.  Only for an outcome that never changes afterwards: a
        result cache's entry."""
        fields = dict(metrics=dict(self.metrics or {}),
                      warnings=list(self.warnings),
                      verdicts_by=dict(self.verdicts_by))
        fields.update(overrides)
        return self.clone_on_read(**fields)


def _select(spectra_dicts, quantity: str, detector: str) -> list:
    """The ``quantity``/``detector`` entry of each spectra dict holding
    one (the raw spectrum under ``quantity`` itself for ``"peak"``)."""
    key = quantity if detector == "peak" else f"{quantity}@{detector}"
    return [d[key] for d in spectra_dicts if key in d]


class SweepResult:
    """Ordered collection of :class:`ScenarioOutcome` with summary helpers."""

    def __init__(self, outcomes: list[ScenarioOutcome]):
        self.outcomes = outcomes

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, idx):
        return self.outcomes[idx]

    @property
    def n_cache_hits(self) -> int:
        """How many outcomes were answered from a result cache."""
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def failures(self) -> list[ScenarioOutcome]:
        """Outcomes whose simulation raised (``ok == False``)."""
        return [o for o in self.outcomes if not o.ok]

    def metric(self, key: str) -> np.ndarray:
        """One metric across every scenario (NaN where a scenario failed
        or does not carry the metric)."""
        return np.array([(o.metrics or {}).get(key, np.nan) if o.ok
                         else np.nan for o in self.outcomes])

    def worst(self, key: str) -> ScenarioOutcome:
        """The scenario maximizing ``metrics[key]``.

        Failed outcomes (``ok == False``) and successful outcomes that do
        not carry the metric are skipped, never raised on.
        """
        ok = [o for o in self.outcomes
              if o.ok and (o.metrics or {}).get(key) is not None]
        if not ok:
            raise ExperimentError(f"no successful scenario carries {key!r}")
        return max(ok, key=lambda o: o.metrics[key])

    # -- emissions/compliance helpers ---------------------------------------
    def spectra(self, quantity: str = "v_port",
                detector: str = "peak") -> list[Spectrum]:
        """Every successful scenario's spectrum of one quantity.

        Parameters
        ----------
        quantity : str
            ``"v_port"``, ``"i_port"`` or ``"e_field"``.
        detector : str
            Detector weighting to select: ``"peak"`` returns the raw
            spectra, other detectors the ``"<quantity>@<detector>"``
            entries (scenarios without one are skipped).

        Returns
        -------
        list of Spectrum
            In grid order.
        """
        return _select((o.spectra for o in self.outcomes if o.ok),
                       quantity, detector)

    def _read_spectra(self, quantity: str, detector: str) -> list:
        """:meth:`spectra` for the aggregations, which only read: a
        cache hit's stored spectra themselves, no clone or copy made."""
        return _select((o.peek("spectra") for o in self.outcomes if o.ok),
                       quantity, detector)

    def peak_hold(self, quantity: str = "v_port",
                  detector: str = "peak") -> Spectrum:
        """Grid-wide max-hold envelope: the worst level any scenario
        produced in each frequency bin (one vectorized pass over the
        selected quantity/detector spectra)."""
        specs = self._read_spectra(quantity, detector)
        if not specs:
            raise ExperimentError(
                f"no successful scenario carries a {quantity!r} "
                f"({detector}) spectrum; request one with SpectralSpec")
        return peak_hold(specs)

    def verdicts(self) -> list[ScenarioOutcome]:
        """Successful outcomes that carry a mask verdict (grid order)."""
        return [o for o in self.outcomes if o.ok and o.verdict is not None]

    def worst_margin(self) -> ScenarioOutcome:
        """The scenario with the smallest mask margin (the compliance
        bottleneck of the grid; negative margin = failing)."""
        scored = self.verdicts()
        if not scored:
            raise ExperimentError(
                "no successful scenario carries a verdict; request one "
                "with SpectralSpec(mask=...)")
        return min(scored, key=lambda o: o.verdict.margin_db)

    def _check_names(self) -> list[str]:
        """Verdict check names present anywhere on the grid (stable
        first-seen order)."""
        checks: list[str] = []
        for o in self.outcomes:
            for k in o.verdicts_by:
                if k not in checks:
                    checks.append(k)
        return checks

    def compliance_rows(self) -> list[dict]:
        """The compliance report as machine-readable rows (grid order).

        Every row carries the scenario coordinates (name, driver,
        corner, pattern, load), the headline emission peak, one
        ``margin[<check>]_db`` entry per detector/radiated check present
        anywhere on the grid (``None`` where a scenario does not carry
        that check), the binding mask/frequency, the receiver eye check
        and the combined verdict.  Failed scenarios carry their error
        string and ``None`` levels.  This is the data behind
        :meth:`compliance_table`, :meth:`to_csv` and :meth:`to_json`.
        """
        checks = self._check_names()
        rows = []
        for o in self.outcomes:
            sc = o.scenario
            row: dict = {
                "scenario": sc.resolved_name(), "driver": sc.driver,
                "corner": sc.corner, "pattern": sc.pattern,
                "load": sc.load.describe(), "ok": o.ok,
                "error": o.error,
            }
            m = o.metrics or {}
            row["emis_peak_db"] = m.get("emis_peak_db")
            for c in checks:
                v = o.verdicts_by.get(c) if o.ok else None
                row[f"margin[{c}]_db"] = None if v is None \
                    else float(v.margin_db)
            if o.ok and o.verdict is not None:
                row["f_worst_hz"] = float(o.verdict.f_worst)
                row["mask"] = o.verdict.mask
            else:
                row["f_worst_hz"] = None
                row["mask"] = None
            row["rx_pass"] = m.get("rx_pass")
            row["passed"] = o.passed
            rows.append(row)
        return rows

    def csv_text(self) -> str:
        """:meth:`compliance_rows` rendered as one CSV document string.

        The exact bytes :meth:`to_csv` writes (the study service serves
        this same rendering over HTTP, so a fetched result file is
        byte-identical to an in-process export).  ``None`` cells render
        empty.
        """
        rows = self.compliance_rows()
        columns = list(rows[0]) if rows else ["scenario"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v)
                             for k, v in row.items()})
        return buf.getvalue()

    def to_csv(self, path) -> Path:
        """Write :meth:`csv_text` as a CSV file (for CI/spreadsheet
        consumption); returns the path."""
        path = Path(path)
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(self.csv_text())
        return path

    def to_json(self, path=None):
        """The compliance report as JSON.

        With ``path`` writes ``{"n_scenarios", "n_failures", "passed",
        "rows"}`` to the file and returns the path; without, returns the
        document as a dict.  ``passed`` is the grid-combined verdict
        (``None`` when no scenario carries a check, mirroring
        :attr:`ScenarioOutcome.passed`).
        """
        rows = self.compliance_rows()
        checked = [r["passed"] for r in rows if r["passed"] is not None]
        doc = {
            "n_scenarios": len(rows),
            "n_failures": len(self.failures),
            "passed": all(checked) if checked else None,
            "rows": rows,
        }
        if path is None:
            return doc
        path = Path(path)
        path.write_text(json.dumps(doc, indent=1) + "\n",
                        encoding="utf-8")
        return path

    #: compliance_table column headers per verdict key
    _CHECK_LABELS = {"peak": "m(pk)", "quasi-peak": "m(qp)",
                     "average": "m(av)", "rad:peak": "m(r-pk)",
                     "rad:quasi-peak": "m(r-qp)",
                     "rad:average": "m(r-av)"}

    def compliance_table(self) -> str:
        """Plain-text compliance report, one row per scenario.

        Columns: the raw emission peak (dB), one margin column per
        detector/radiated check present anywhere on the grid (dB,
        positive = headroom), the worst-margin frequency, the binding
        mask, the receiver eye check and the combined pass/fail.  For
        machine-readable output use :meth:`to_csv`/:meth:`to_json`.
        """
        checks = self._check_names()
        cols = "".join(
            f" {self._CHECK_LABELS.get(c, c)[:8]:>8}" for c in checks)
        header = (f"{'scenario':<38} {'peak':>7}{cols} "
                  f"{'f_worst':>10} {'mask':>9} {'rx':>5} {'verdict':>8}")
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            name = o.scenario.resolved_name()[:38]
            if not o.ok:
                lines.append(f"{name:<38} FAILED: {o.error}")
                continue
            m = o.metrics or {}
            peak = f"{m['emis_peak_db']:>7.1f}" if "emis_peak_db" in m \
                else f"{'-':>7}"
            margins = ""
            for c in checks:
                v = o.verdicts_by.get(c)
                margins += f" {v.margin_db:>+8.1f}" if v is not None \
                    else f" {'-':>8}"
            if o.verdict is not None:
                f_worst = f"{o.verdict.f_worst / 1e6:>7.0f}MHz"
                mask = f"{o.verdict.mask[-9:]:>9}"
            else:
                f_worst, mask = f"{'-':>10}", f"{'-':>9}"
            rx = "-" if "rx_pass" not in m else \
                ("ok" if m["rx_pass"] else "BAD")
            combined = o.passed
            verdict = "-" if combined is None else \
                ("PASS" if combined else "FAIL")
            lines.append(f"{name:<38} {peak}{margins} {f_worst} {mask} "
                         f"{rx:>5} {verdict:>8}")
        return "\n".join(lines)

    # -- timing helpers ------------------------------------------------------
    def timing_rows(self) -> list[dict]:
        """Per-kind wall-clock statistics as machine-readable rows.

        One row per scenario kind present on the grid (sorted by kind
        name) with the scenario count, the cached vs simulated split and
        the total / mean / p95 of the per-scenario ``elapsed_s``.  Cache
        hits report their (near-zero) lookup time, so a mostly-cached
        grid shows up as a collapsed ``total_s``.  This is the data
        behind :meth:`timing_summary`.
        """
        by_kind: dict[str, list[ScenarioOutcome]] = {}
        for o in self.outcomes:
            by_kind.setdefault(o.scenario.load.kind, []).append(o)
        rows = []
        for kind in sorted(by_kind):
            outs = by_kind[kind]
            times = np.array([o.elapsed_s for o in outs], dtype=float)
            rows.append({
                "kind": kind,
                "n": len(outs),
                "cached": sum(1 for o in outs if o.cache_hit),
                "simulated": sum(1 for o in outs if not o.cache_hit),
                "total_s": float(times.sum()),
                "mean_s": float(times.mean()),
                "p95_s": float(np.percentile(times, 95.0)),
            })
        return rows

    def timing_summary(self) -> str:
        """Plain-text per-kind timing table (where did the time go?).

        One row per scenario kind: count, cached/simulated split and
        total / mean / p95 wall-clock, closed by a grid-total row.
        """
        rows = self.timing_rows()
        header = (f"{'kind':<10} {'n':>5} {'cached':>7} {'simul':>6} "
                  f"{'total_s':>9} {'mean_s':>9} {'p95_s':>9}")
        lines = [header, "-" * len(header)]
        for r in rows:
            lines.append(
                f"{r['kind']:<10} {r['n']:>5d} {r['cached']:>7d} "
                f"{r['simulated']:>6d} {r['total_s']:>9.3f} "
                f"{r['mean_s']:>9.4f} {r['p95_s']:>9.4f}")
        total = sum(r["total_s"] for r in rows)
        n = sum(r["n"] for r in rows)
        cached = sum(r["cached"] for r in rows)
        sim = sum(r["simulated"] for r in rows)
        lines.append(f"{'total':<10} {n:>5d} {cached:>7d} {sim:>6d} "
                     f"{total:>9.3f}")
        return "\n".join(lines)

    def table(self) -> str:
        """Plain-text summary table of the sweep."""
        xtalk = any(o.ok and "fext_peak" in (o.metrics or {})
                    for o in self.outcomes)
        header = (f"{'scenario':<38} {'v_max':>7} {'v_min':>7} "
                  f"{'overshoot':>9} {'ringing':>8} {'edges':>5}")
        if xtalk:
            header += f" {'next':>7} {'fext':>7}"
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            name = o.scenario.resolved_name()[:38]
            if not o.ok:
                lines.append(f"{name:<38} FAILED: {o.error}")
                continue
            m = o.metrics
            row = (f"{name:<38} {m['v_max']:>7.3f} {m['v_min']:>7.3f} "
                   f"{m['overshoot']:>9.3f} {m['ringing_rms']:>8.4f} "
                   f"{m['n_crossings']:>5d}")
            if xtalk:
                if "fext_peak" in m:
                    row += (f" {m['next_peak']:>7.3f}"
                            f" {m['fext_peak']:>7.3f}")
                else:
                    row += f" {'-':>7} {'-':>7}"
            lines.append(row)
        return "\n".join(lines)


class StudyResult(SweepResult):
    """A :class:`SweepResult` with the producing study riding along.

    Returned by :meth:`repro.studies.spec.Study.run`; ``study`` is the
    declarative description that produced the grid, ``elapsed_s`` the
    wall-clock of the whole run (cache hits included) and ``phases`` an
    optional ``{phase name: seconds}`` breakdown recorded by the
    producer (the async job manager stamps ``plan`` / ``shards`` /
    ``merge``; inline runs may leave it empty).
    """

    def __init__(self, outcomes, study=None, elapsed_s: float = 0.0,
                 phases: dict | None = None):
        super().__init__(outcomes)
        self.study = study
        self.elapsed_s = float(elapsed_s)
        self.phases = dict(phases or {})

    def summary(self) -> str:
        """One-line run summary (name, grid size, hits, failures, time)."""
        name = (self.study.name or "study") if self.study is not None \
            else "sweep"
        n_pass = sum(1 for o in self.outcomes if o.passed)
        checked = sum(1 for o in self.outcomes if o.passed is not None)
        verdict = f", {n_pass}/{checked} pass" if checked else ""
        return (f"{name}: {len(self)} scenarios, "
                f"{self.n_cache_hits} cache hits, "
                f"{len(self.failures)} failures{verdict} "
                f"in {self.elapsed_s:.2f} s")

    def timings(self) -> str:
        """Per-phase wall-clock table of the run.

        One row per recorded phase (in recorded order) with seconds and
        the share of the total wall-clock, closed by the total.  Runs
        that recorded no phase breakdown (plain inline
        :meth:`~repro.studies.spec.Study.run`) report just the total.
        """
        lines = []
        total = self.elapsed_s
        for name, secs in self.phases.items():
            share = f" ({100.0 * secs / total:5.1f}%)" if total > 0 else ""
            lines.append(f"{name:<10} {secs:>9.3f} s{share}")
        lines.append(f"{'total':<10} {total:>9.3f} s")
        return "\n".join(lines)
