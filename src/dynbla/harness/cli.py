"""Command line front end for the simulation harness."""

from __future__ import annotations

import json
import sys

import click

from ..simnet import trace_hash
from .attacks import ATTACKS
from .checks import run_checks
from .runner import TraceError, load_trace, run_scenario, save_trace
from .scenario import FAMILIES, ScenarioError, validate


def _emit(results, verdict=None, steps=None):
    ok = True
    for name, passed, info in results:
        ok = ok and passed
        click.echo(f"{'PASS' if passed else 'FAIL'}  {name}  ({info})")
    if verdict is not None:
        click.echo(f"verdict={verdict} steps={steps} -> {'OK' if ok else 'VIOLATIONS'}")
    return ok


def _load_scenario(path, family, seed, k):
    if path and family:
        raise click.UsageError("give either --scenario or --family, not both")
    if path:
        try:
            with open(path, encoding="utf-8") as f:
                scn = json.load(f)
        except (RecursionError, ValueError) as e:
            raise ScenarioError(f"scenario file {path} is not UTF-8 JSON or nests too deeply: {e}") from e
        if seed is not None and isinstance(scn, dict):
            scn["seed"] = seed
        return validate(scn)
    if family:
        if family not in FAMILIES:
            raise click.UsageError(f"unknown family {family!r}; see 'dynbla families'")
        builder = FAMILIES[family]
        if family == "chain":
            if k is None:
                raise click.UsageError("family 'chain' needs --k, its chain length")
            return builder(seed or 0, k)
        if family == "ac-pattern":
            return builder(k if k is not None else 0b0111, seed or 0)
        return builder(seed or 0)
    raise click.UsageError("need --scenario FILE or --family NAME")


class _Cli(click.Group):
    """The command group: a bad scenario or trace file ends any command in the error exit."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ScenarioError, TraceError) as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Cli)
def main():
    """Deterministic simulation harness for reconfigurable replica groups."""


@main.command()
@click.option("--scenario", "path", type=click.Path(exists=True), help="scenario JSON file")
@click.option("--family", help="built-in scenario family")
@click.option("--seed", type=int, default=None, help="override the scenario seed")
@click.option("--k", type=int, default=None, help="family parameter (chain length, pattern mask)")
@click.option("--trace", "trace_out", type=click.Path(), help="write the run trace here")
def run(path, family, seed, k, trace_out):
    """Run one scenario and check every invariant."""
    report = run_scenario(_load_scenario(path, family, seed, k))
    if trace_out:
        save_trace(trace_out, report.bundle())
    results = run_checks(report.bundle())
    ok = _emit(results, report.verdict, report.steps)
    sys.exit(0 if ok else 1)


@main.command()
@click.option("--family", required=True)
@click.option("--seeds", type=int, default=20, show_default=True)
@click.option("--start", type=int, default=0, show_default=True)
@click.option("--k", type=int, default=None)
def sweep(family, seeds, start, k):
    """Run a family over a seed range and aggregate the verdicts."""
    if family not in FAMILIES:
        raise click.UsageError(f"unknown family {family!r}; see 'dynbla families'")
    failures = 0
    for seed in range(start, start + seeds):
        scn = _load_scenario(None, family, seed, k)
        report = run_scenario(scn)
        results = run_checks(report.bundle())
        bad = [r for r in results if not r[1]]
        if bad:
            failures += 1
            click.echo(f"seed {seed}: FAIL {[r[0] for r in bad]}")
    click.echo(f"{family}: {seeds - failures}/{seeds} seeds clean")
    sys.exit(0 if failures == 0 else 1)


@main.command()
@click.option("--name", required=True, type=click.Choice(sorted(ATTACKS)))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trace", "trace_out", type=click.Path(), help="write the run trace here")
def attack(name, seed, trace_out):
    """Re-enact a scripted attack and verify the defenses held."""
    builder, verifier = ATTACKS[name]
    report = run_scenario(builder(seed))
    if trace_out:
        save_trace(trace_out, report.bundle())
    results = run_checks(report.bundle()) + verifier(report)
    ok = _emit(results, report.verdict, report.steps)
    sys.exit(0 if ok else 1)


@main.command()
@click.option("--trace", "path", required=True, type=click.Path(exists=True))
def check(path):
    """Re-verify a stored trace offline, signatures included."""
    bundle = load_trace(path)
    results = run_checks(bundle)
    recomputed = trace_hash(bundle["trace"])
    results.append(("trace.hash_consistent", recomputed == bundle["hash"],
                    f"stored {bundle['hash'][:12]}.., recomputed {recomputed[:12]}.."))
    ok = _emit(results, bundle["verdict"], bundle["steps"])
    sys.exit(0 if ok else 1)


# What replay compares with a re-run: the head's verdict, the step count, final, ledger and the events' hash.
REPLAYED = ("verdict", "steps", "final", "ledger", "hash")


@main.command()
@click.option("--trace", "path", required=True, type=click.Path(exists=True))
def replay(path):
    """Re-run a stored trace's scenario and compare every section it re-runs with the file's."""
    bundle = load_trace(path)
    report = run_scenario(bundle["scenario"])
    # the re-run's sections as the file would hold them
    rerun = json.loads(json.dumps({k: getattr(report, k) for k in REPLAYED}))
    differ = [k for k in REPLAYED if rerun[k] != bundle[k]]
    click.echo(f"{'FAIL' if 'hash' in differ else 'PASS'}  replay.deterministic  "
               f"(stored {bundle['hash'][:12]}.., replayed {report.hash[:12]}..)")
    click.echo(f"{'FAIL' if differ else 'PASS'}  replay.sections_equal  "
               f"({', '.join(REPLAYED)}; differ: {differ})")
    sys.exit(1 if differ else 0)


@main.command()
def families():
    """List built-in scenario families and attacks."""
    for name in sorted(FAMILIES):
        click.echo(f"family  {name}")
    for name in sorted(ATTACKS):
        click.echo(f"attack  {name}")


if __name__ == "__main__":
    main()
