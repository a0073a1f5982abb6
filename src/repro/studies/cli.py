"""Command-line entry point: ``python -m repro.studies``.

Local subcommands::

    python -m repro.studies run  study.toml   # simulate + report
    python -m repro.studies show study.toml   # parse + describe only

``run`` loads the study file (TOML or JSON), simulates the grid and
prints the summary table -- plus the compliance table when the study
requests spectra -- and optionally exports the machine-readable verdicts
(``--csv`` / ``--json``).  Runner options on the command line override
the study file's ``[runner]`` table.  Study files carrying a
``[stochastic]`` table load as Monte Carlo studies
(:class:`~repro.studies.stochastic.StochasticStudy`): ``--draws N`` /
``--seed S`` override the sampler's draw budget and seed, and the
report gains the population digest (quantile bands, pass-probability
with its Wilson interval).  Observability switches: ``--trace PATH``
exports hierarchical spans (solver, runner, workers) as JSONL,
``--metrics`` prints the Prometheus counters after the run, and
non-quiet runs close with the per-kind timing summary.  Exit status: 0
on success, 2 when any scenario failed to simulate -- or on a usage
error, e.g. ``--draws``/``--seed`` against a study without a
``[stochastic]`` table -- and 1 when ``--strict`` is given and any
compliance check failed.

Service subcommands (the sharded async study service,
:mod:`repro.studies.service`)::

    python -m repro.studies serve  --cache DIR [--port N]  # the server
    python -m repro.studies submit study.toml --url URL [--wait]
    python -m repro.studies status JOB --url URL
    python -m repro.studies fetch  JOB --url URL [--csv PATH] [--json PATH]

``serve`` runs the HTTP front end (submit/status/result endpoints over a
job queue and shard worker pool); ``submit``/``status``/``fetch`` are
the matching stdlib-only client.  ``submit`` prints ``job <id>`` on its
first line, so scripts can capture the job id; with ``--wait`` it polls
to completion and exits 0 on success, 2 when the job errored.
Stochastic studies submit like any other (the ``[stochastic]`` table
rides the study document, and the job id folds the sampler config, so
two seeds never dedup to one job); ``submit --draws/--seed`` adjust
the sampler before shipping it.  Server
observability: ``serve --trace PATH`` writes every job's spans to a
shared JSONL file and ``--access-log`` enables the structured request
log on stderr; the client side mirrors it with ``submit --wait
--trace PATH`` (download the finished job's span tree from
``/studies/<id>/trace``) and ``submit --metrics`` (dump ``/metrics``
after the job).  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ExperimentError
from .spec import Study

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.studies`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.studies",
        description="Run declarative EMC studies (TOML/JSON files).")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a study file and report")
    run.add_argument("study", help="path to a study .toml/.json file")
    run.add_argument("--workers", type=int, default=None,
                     help="override runner.n_workers (1 = serial)")
    run.add_argument("--cache", default=None, metavar="DIR",
                     help="override runner.disk_cache directory")
    run.add_argument("--draws", type=int, default=None, metavar="N",
                     help="override stochastic.n_draws (stochastic "
                          "studies only; exit 2 otherwise)")
    run.add_argument("--seed", type=int, default=None,
                     help="override stochastic.seed (stochastic "
                          "studies only; exit 2 otherwise)")
    run.add_argument("--csv", default=None, metavar="PATH",
                     help="export the compliance rows as CSV")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="export the compliance report as JSON")
    run.add_argument("--strict", action="store_true",
                     help="exit 1 when any compliance check fails")
    run.add_argument("--quiet", action="store_true",
                     help="only print the one-line summary")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="export tracing spans as JSONL to PATH")
    run.add_argument("--metrics", action="store_true",
                     help="print Prometheus-format metrics after the run")

    show = sub.add_parser("show", help="parse a study file and describe it")
    show.add_argument("study", help="path to a study .toml/.json file")

    serve = sub.add_parser(
        "serve", help="run the HTTP study service (submit/status/result)")
    serve.add_argument("--cache", required=True, metavar="DIR",
                       help="shared disk-cache directory (the service's "
                            "persistent state)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral one "
                            "(default 8765)")
    serve.add_argument("--workers", type=int, default=None,
                       help="max concurrent shard worker processes "
                            "(default: CPU count)")
    serve.add_argument("--shards", type=int, default=None,
                       help="shards per study (default: worker count)")
    serve.add_argument("--retries", type=int, default=1,
                       help="extra attempts per crashed/timed-out shard")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="S", help="per-shard-attempt timeout")
    serve.add_argument("--job-slots", type=int, default=1,
                       help="concurrently running studies (default 1)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="export every job's tracing spans as JSONL "
                            "to PATH (shared across jobs and workers)")
    serve.add_argument("--access-log", action="store_true",
                       help="log one structured line per HTTP request "
                            "to stderr")

    def add_url(p):
        p.add_argument("--url", default="http://127.0.0.1:8765",
                       help="service base URL "
                            "(default http://127.0.0.1:8765)")

    submit = sub.add_parser(
        "submit", help="submit a study file to a running service")
    submit.add_argument("study", help="path to a study .toml/.json file")
    add_url(submit)
    submit.add_argument("--draws", type=int, default=None, metavar="N",
                        help="override stochastic.n_draws before "
                             "submitting (stochastic studies only)")
    submit.add_argument("--seed", type=int, default=None,
                        help="override stochastic.seed before "
                             "submitting (stochastic studies only)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes")
    submit.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="poll interval with --wait (default 0.5)")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="S", help="give up polling after S "
                                          "seconds (with --wait)")
    submit.add_argument("--trace", default=None, metavar="PATH",
                        help="with --wait: download the finished job's "
                             "span tree as JSONL to PATH")
    submit.add_argument("--metrics", action="store_true",
                        help="print the service's /metrics text after "
                             "submitting (after completion with --wait)")

    status = sub.add_parser("status", help="print one job's status")
    status.add_argument("job", help="job id (as printed by submit)")
    add_url(status)

    fetch = sub.add_parser(
        "fetch", help="fetch a finished job's compliance result")
    fetch.add_argument("job", help="job id (as printed by submit)")
    add_url(fetch)
    fetch.add_argument("--csv", default=None, metavar="PATH",
                       help="write the compliance rows as CSV")
    fetch.add_argument("--json", default=None, metavar="PATH",
                       help="write the compliance report as JSON")
    fetch.add_argument("--wait", action="store_true",
                       help="poll until the job finishes first")
    fetch.add_argument("--poll", type=float, default=0.5, metavar="S",
                       help="poll interval with --wait (default 0.5)")
    fetch.add_argument("--timeout", type=float, default=None,
                       metavar="S", help="give up polling after S "
                                         "seconds (with --wait)")
    return parser


def _cmd_show(study: Study) -> int:
    """Print the parsed study: axes, grid size, identity digest."""
    print(f"study {study.name or '(unnamed)'}  [digest {study.digest()}]")
    print(f"  patterns : {list(study.patterns)}")
    print(f"  loads    : {[ld.describe() for ld in study.loads]}")
    print(f"  drivers  : {list(study.drivers)}  "
          f"corners: {list(study.corners)}")
    print(f"  bit_time : {study.bit_time:g} s   scenarios: {len(study)}")
    if study.spectral is not None:
        spec = study.spectral
        print(f"  spectral : {spec.quantity}, window={spec.window}, "
              f"detectors={list(spec.detectors)}, mask={spec.mask!r}")
    opts = study.options.to_dict()
    if opts:
        print(f"  runner   : {opts}")
    return 0


def _apply_stochastic_overrides(study: Study, args) -> Study:
    """Fold ``--draws``/``--seed`` into a stochastic study's sampler.

    A plain (non-stochastic) study given either switch is a usage
    error: the flags name sampler fields that do not exist on it, so
    the command exits 2 rather than silently ignoring them.
    """
    draws = getattr(args, "draws", None)
    seed = getattr(args, "seed", None)
    if draws is None and seed is None:
        return study
    from dataclasses import replace

    from .stochastic import StochasticStudy
    if not isinstance(study, StochasticStudy):
        raise ExperimentError(
            "--draws/--seed apply only to stochastic studies (a "
            "[stochastic] table in the study file)")
    spec = study.stochastic
    if draws is not None:
        spec = replace(spec, n_draws=draws)
    if seed is not None:
        spec = replace(spec, seed=seed)
    return replace(study, stochastic=spec)


def _cmd_run(args) -> int:
    """Load, simulate, report, export; compute the exit status."""
    study = _apply_stochastic_overrides(Study.load(args.study), args)
    overrides = {}
    if args.workers is not None:
        overrides["n_workers"] = args.workers
    if args.cache is not None:
        overrides["disk_cache"] = args.cache
    if args.trace:
        from ..obs import configure_tracing
        configure_tracing(args.trace)
    result = study.run(**overrides)
    if args.trace:
        from ..obs import get_tracer
        get_tracer().close()
        print(f"wrote trace {args.trace}")
    if not args.quiet:
        print(result.table())
        if any(o.ok and o.spectra for o in result):
            print()
            print(result.compliance_table())
        if hasattr(result, "stochastic_summary"):
            print()
            print(result.stochastic_summary())
        print()
        print(result.timing_summary())
    if args.metrics:
        from ..obs import get_metrics
        print(get_metrics().render_prometheus(), end="")
    print(result.summary())
    if args.csv:
        print(f"wrote {result.to_csv(args.csv)}")
    if args.json:
        print(f"wrote {result.to_json(args.json)}")
    if result.failures:
        return 2
    checked = [o.passed for o in result if o.passed is not None]
    if args.strict and checked and not all(checked):
        return 1
    return 0


def _cmd_serve(args) -> int:
    """Run the HTTP study service until interrupted."""
    from .service.serve import StudyService, make_server
    service = StudyService(
        cache_dir=args.cache, max_workers=args.workers,
        n_shards=args.shards, retries=args.retries,
        timeout_s=args.timeout, job_slots=args.job_slots,
        trace_path=args.trace)
    server = make_server(service, host=args.host, port=args.port,
                         quiet=not args.access_log)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}  (cache: {args.cache})",
          flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    return 0


def _finish_status(status: dict) -> int:
    """Print a final job status; exit 0 when done, 2 when errored."""
    if status["state"] == "done":
        print(status.get("summary")
              or f"job {status['job']} done")
        return 0
    print(f"job {status['job']} {status['state']}: "
          f"{status.get('error') or 'not finished'}", file=sys.stderr)
    return 2


def _cmd_submit(args) -> int:
    """Submit a study file; optionally poll it to completion."""
    from .service.serve import (fetch_metrics, fetch_trace, submit_study,
                                wait_for_job)
    study = _apply_stochastic_overrides(Study.load(args.study), args)
    status = submit_study(args.url, study)
    dedup = "" if status.get("created", True) else "  (already known)"
    print(f"job {status['job']}  state={status['state']}  "
          f"scenarios={status['n_scenarios']}{dedup}")
    if not args.wait:
        if args.metrics:
            print(fetch_metrics(args.url), end="")
        return 0
    job_id = status["job"]
    status = wait_for_job(args.url, job_id, poll_s=args.poll,
                          timeout_s=args.timeout)
    if args.trace:
        spans = fetch_trace(args.url, job_id)
        with open(args.trace, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        print(f"wrote trace {args.trace}  ({len(spans)} spans)")
    if args.metrics:
        print(fetch_metrics(args.url), end="")
    return _finish_status(status)


def _cmd_status(args) -> int:
    """Print one job's status record as JSON."""
    from .service.serve import job_status
    print(json.dumps(job_status(args.url, args.job), indent=1))
    return 0


def _cmd_fetch(args) -> int:
    """Fetch a finished job's result; write CSV/JSON exports."""
    from .service.serve import fetch_result, job_status, wait_for_job
    if args.wait:
        status = wait_for_job(args.url, args.job, poll_s=args.poll,
                              timeout_s=args.timeout)
    else:
        status = job_status(args.url, args.job)
    if status["state"] != "done":
        return _finish_status(status)
    doc = fetch_result(args.url, args.job)
    if args.csv:
        text = fetch_result(args.url, args.job, csv=True)
        Path(args.csv).write_text(text, encoding="utf-8", newline="")
        print(f"wrote {args.csv}")
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n",
                                   encoding="utf-8")
        print(f"wrote {args.json}")
    print(doc.get("summary") or f"job {args.job} done")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    commands = {"serve": _cmd_serve, "submit": _cmd_submit,
                "status": _cmd_status, "fetch": _cmd_fetch}
    try:
        if args.command == "show":
            return _cmd_show(Study.load(args.study))
        if args.command in commands:
            return commands[args.command](args)
        return _cmd_run(args)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
