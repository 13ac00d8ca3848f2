"""The dynbla benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload gate-mix --seed 1 --seconds 25 --trace 0

Builds the workload's scenario list from the seed (see
``bench/workloads.py``), sized so that running it takes about
``--seconds`` here, and runs it in PARTS passes back to back, each in a
fresh interpreter started by ``bench/one_pass.py``.  Load is a closed loop in
one thread: the next scenario starts only after the previous one has run
and been checked.  Latency is counted in simulator steps, since the only
message delay is the simulator's seeded scheduling; wall times are
processor time only.

This box's processor speed drifts by up to 1.7x within a second (other
tenants share the cores), so every time reported is scaled to a fixed
speed: a small pure-Python reference kernel, unrelated to dynbla, is
timed every 50 ms from a timer signal, and each wall time, less the
probe's own time, is multiplied by REF_S / (the median kernel time
around it); see ``SpeedProbe`` in ``one_pass.py``.  REF_S is the
kernel's time on the seed box (2 cores, Python 3.11.7) at full speed, so
scaled times read as that box's seconds.  Raw wall times are printed
beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
first part untraced and then traced, and reports the per-layer metrics
and the traced / untraced wall ratio; it exits non-zero if the two passes
disagree on the trace digest.  The last line of standard output is one
JSON object: correct, attempted and failed (scenario runs), metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gate-mix", "reconfig-chain", "wide-membership", "keychain-reconfig")
PARTS = 3                   # fresh interpreters per run; setup_s is their median
DEADLINE_S = 170            # a run gives up after this long

# Metric names and units, as BENCHMARK.json lists them: the end-to-end
# metrics of an untraced run, and the per-layer metrics of a traced one
# (totals over its traced pass, or shares of that pass's timed wall time).
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _SPEC = json.load(f)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class BenchError(Exception):
    pass


def run_pass(args, part, trace, deadline):
    """Start one pass in a fresh interpreter and wait for its summary."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--part", str(part),
           "--trace", str(trace)]
    spawned = time.monotonic()
    timeout = max(1.0, deadline - spawned)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {part} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"pass {part} exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"pass {part} printed no result:\n{proc.stdout[-2000:]}")
    out["setup_raw_s"] = out["first_timed"] - spawned - out["setup_probe_s"]
    out["setup_s"] = out["setup_raw_s"] * out["setup_scale"]
    out["scaled"] = [w * s for w, s in zip(out["walls"], out["scales"])]
    out["run_scaled"] = [w * s for w, s in zip(out["run_walls"], out["scales"])]
    return out


def trace_digest(passes):
    return hashlib.sha256("\n".join(h for p in passes for h in p["hashes"]).encode()).hexdigest()


def exact_metrics(passes):
    """Metrics fixed by the seed alone: simulated steps, messages, certificate sizes."""
    op_steps = [x for p in passes for x in p["op_steps"]]
    cert_bytes = [x for p in passes for x in p["cert_bytes"]]
    return {
        "op_steps.p50": percentile(op_steps, 50),
        "op_steps.p95": percentile(op_steps, 95),
        "msgs_per_op": sum(p["sent"] for p in passes) / sum(p["ops_returned"] for p in passes),
        "cert_bytes.p50": percentile(cert_bytes, 50),
        "cert_bytes.max": max(cert_bytes),
    }


def end_to_end(plain, key="scaled", setup="setup_s", run_key="run_scaled"):
    """Timings from the scaled walls by default; the raw keys give raw walls."""
    walls = [w for p in plain for w in p[key]]
    return {
        "setup_s": statistics.median(p[setup] for p in plain),
        "steps_per_s": sum(p["steps"] for p in plain) / sum(sum(p[run_key]) for p in plain),
        "run_ms.p50": 1e3 * percentile(walls, 50),
        "run_ms.p90": 1e3 * percentile(walls, 90),
        **exact_metrics(plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain, traced):
    """The traced pass's layer metrics; its seconds scaled by its mean speed."""
    scale = sum(traced["scaled"]) / sum(traced["walls"])
    m = {name: value * scale if name.endswith("_s") else value
         for name, value in traced["layers"].items()}
    m["harness.trace_overhead"] = sum(traced["scaled"]) / sum(plain["scaled"])
    return m


def report(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "dynbla", "__init__.py")):
        raise BenchError(f"no dynbla sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        # the first part, untraced then traced: the wrappers must not change a trace
        plain = [run_pass(args, 0, 0, deadline)]
        traced = [run_pass(args, 0, 1, deadline)]
        if trace_digest(traced) != trace_digest(plain):
            raise BenchError(f"traced and untraced passes differ: trace digest "
                             f"{trace_digest(traced)} vs {trace_digest(plain)}")
        if exact_metrics(traced) != exact_metrics(plain):
            raise BenchError("traced and untraced passes differ in deterministic metrics")
    else:
        plain = [run_pass(args, part, 0, deadline) for part in range(PARTS)]
        traced = []
    passes = plain + traced
    runs = sum(p["runs"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    ops = sum(p["ops"] for p in passes)
    ops_failed = sum(p["ops_failed"] for p in passes)

    e2e = end_to_end(plain)
    raw = end_to_end(plain, "walls", "setup_raw_s", "run_walls")
    samples = sum(p["runs"] for p in plain)
    print(f"workload {args.workload}  seed {args.seed}  {len(plain)} untraced"
          f" + {len(traced)} traced passes  {runs} runs")
    print(f"trace_digest {trace_digest(plain)}  ({samples} scenarios)")
    print(f"  {'metric':<22} {'value':>14} {'unit':<8} {'unscaled':>12}")
    for name, unit in END_TO_END:
        extra = f"{raw[name]:>12.6g}" if raw[name] != e2e[name] else ""
        print(f"  {name:<22} {e2e[name]:>14.6g} {unit:<8} {extra}")
    print(f"  {'ops_failed_share':<22} {ops_failed / ops:>14.6g} ratio    ({ops_failed}/{ops} ops)")
    print(f"  {'runs_failed_share':<22} {len(failures) / runs:>14.6g} ratio    "
          f"({len(failures)}/{runs} runs)")
    print(f"  run_ms from {samples} samples, {samples - int(0.9 * samples)} above p90")
    for failure in failures[:20]:
        print(f"  FAIL {failure}")

    if args.trace:
        layers = per_layer(plain[0], traced[0])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"  {name:<40} {layers[name]:>14.6g} {unit}")
        wall = sum(traced[0]["walls"])  # raw, as the spans are
        top = sorted(traced[0]["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:8]
        print("  largest self-time shares of the traced pass:")
        for name, st in top:
            print(f"    {name:<36} {st['self_s'] / wall:7.1%}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not failures and ops_failed == 0,
              "attempted": runs, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
