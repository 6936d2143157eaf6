"""Command line interface."""

from __future__ import annotations

import sys
import time

import click

from .driver import (MODE_STAGES, MODES, STAGES, PipelineConfig, PipelineError, dump_stage, emit_report,
                     run_pipeline)
from .engine import DepthLimitExceeded, FactLimitExceeded, Limits
from .frontend import FrontendError, load_scenario
from .pruning import AbstractionFixpointDiverged

_GUARDS = (DepthLimitExceeded, FactLimitExceeded, AbstractionFixpointDiverged, MemoryError)


def _input_error(err: click.UsageError):
    """Report a usage error, an unknown option or command or a bad or
    missing value, as one `error:` line and exit 1, like the other input
    errors: exit 2 means a guard tripped."""
    click.echo("error: %s" % err.format_message(), err=True)
    sys.exit(1)


class _Group(click.Group):
    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as err:
            _input_error(err)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as err:
            _input_error(err)


@click.group(cls=_Group, no_args_is_help=False)
def main():
    """Goal-driven query answering over terminating existential rules with
    equality."""


@main.command()
@click.option("--rules", "rules_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--schema", "schema_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--query-pred", required=True)
@click.option("--mode", type=click.Choice(MODES), default="all", show_default=True)
@click.option("--una", is_flag=True, help="Distinct constants denote distinct objects.")
@click.option("--max-depth", type=int, default=Limits.max_depth, show_default=True)
@click.option("--max-facts", type=int, default=Limits.max_facts, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--stats-json", type=click.Path(dir_okay=False))
@click.option("--dump-stage", "dump", type=click.Choice(STAGES))
def run(rules_path, data_dir, schema_path, query_pred, mode, una, max_depth, max_facts, out_dir,
        stats_json, dump):
    """Answer a query over a rule file and a directory of CSV facts.  The
    relevance abstraction is typed by sort exactly when a schema is given."""
    for option, value in (("--max-depth", max_depth), ("--max-facts", max_facts)):
        if value < 0:
            click.echo("error: %s must be 0 or more, not %d" % (option, value), err=True)
            sys.exit(1)
    if dump is not None and dump not in MODE_STAGES[mode]:
        click.echo("error: stage %s was not computed in mode %s" % (dump, mode), err=True)
        sys.exit(1)
    t0 = time.perf_counter()
    try:
        scenario = load_scenario(rules_path, data_dir, query_pred, schema_path, una_known=una)
    except FrontendError as err:
        click.echo("error: %s" % err, err=True)
        sys.exit(1)
    load_s = time.perf_counter() - t0

    cfg = PipelineConfig(mode=mode, limits=Limits(max_depth=max_depth, max_facts=max_facts))
    try:
        report = run_pipeline(scenario, cfg)
    except PipelineError as err:
        click.echo("error: %s" % err, err=True)
        sys.exit(2 if isinstance(err.cause, _GUARDS) else 1)

    report.timings = {"load": load_s, **report.timings}
    try:
        emit_report(report, out_dir, stats_json)
    except OSError as err:
        click.echo("error: cannot write the reports: %s" % err, err=True)
        sys.exit(1)
    if dump is not None:
        click.echo(dump_stage(report, dump), nl=False)
    click.echo(
        "%d answer(s), %d fact(s) derived, reports in %s"
        % (len(report.answers), report.chase_stats.derived_facts, out_dir)
    )


if __name__ == "__main__":
    main()
