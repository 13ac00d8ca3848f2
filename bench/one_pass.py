"""One benchmark pass: a fresh interpreter runs one part of a workload.

    python3 bench/one_pass.py --workload gate-mix --seed 1 --seconds 20 --part 0

Imports the library from the checkout's ``src``, builds part ``--part``
of the workload's scenario list (one of ``run.PARTS`` equal parts), runs
its first scenario once untimed as a warm-up, then runs every scenario
of the part in a closed loop: run_scenario, bundle, run_checks and the
attack verifier, one scenario after the other in this one thread.  Every
run is checked.  With ``--trace 1`` the per-layer wrappers are installed
before any scenario is built.  Prints one JSON object; ``bench/run.py`` starts
these passes and aggregates them.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
import time

from run import percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE_S = 0.05              # the speed probe's period
REF_S = 0.000120            # reference kernel time on the seed box at full speed


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# The kernel inserts every 37th of 65536 short strings into a fresh dict:
# hashing and memory traffic over a few MiB, like the library's own work,
# so it slows down with the same contention.  The strings' memory is the
# probe's, not the library's, so peak_rss_mb leaves it out.
_rss_before_keys = _maxrss_mb()
_REF_KEYS = [str(i) * 3 for i in range(1 << 16)]
PROBE_RSS_MB = _maxrss_mb() - _rss_before_keys


def reference_s():
    """Fastest of three runs of the reference kernel.

    The fastest run leaves out the cold caches a scenario leaves behind,
    so the kernel tracks the machine's speed rather than the program's.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        d = {}
        for i in range(0, 1 << 16, 37):
            d[_REF_KEYS[i]] = i
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """Times the reference kernel every PROBE_S of wall time, from SIGALRM.

    The handler only times its own kernel, so a run's trace is unchanged;
    its time is kept in ``spent`` so callers can take it out of their wall
    times, and is booked as child time of the innermost open span on
    ``span_stack`` (the tracer's, in a traced pass).
    """

    def __init__(self):
        self.times = []     # perf_counter at each sample
        self.kernel = []    # the kernel's time at each sample
        self.spent = 0.0
        self.span_stack = None
        self._busy = False

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel.append(reference_s())
        self.times.append(t0)
        spent = time.perf_counter() - t0
        self.spent += spent
        if self.span_stack:
            self.span_stack[-1] += spent
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        self._tick()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def scale(self, t0, t1):
        """REF_S over the median kernel time from PROBE_S before t0 to PROBE_S after t1."""
        lo = bisect.bisect_left(self.times, t0 - PROBE_S)
        hi = bisect.bisect_right(self.times, t1 + PROBE_S)
        window = self.kernel[lo:hi] or self.kernel[max(lo - 1, 0):lo + 1]
        return REF_S / statistics.median(window)


def _import_library():
    """Import dynbla from this checkout, never from an installed copy."""
    sys.path.insert(0, SRC)
    import dynbla

    if not os.path.abspath(dynbla.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dynbla imported from {dynbla.__file__}, not from {SRC}")


def _cert_bytes(result):
    """Compact sorted-key JSON size of the certificate an op returned."""
    cert = result.get("cert", result.get("ack"))
    if cert is None:
        return None
    return len(json.dumps(cert, sort_keys=True, separators=(",", ":")))


def _verdict_ok(rep):
    """quiescent, or stalled only when the scenario holds messages forever."""
    forever = any(h.get("until") is None for h in rep.scenario["adversary"]["holds"])
    return rep.verdict == "quiescent" or (rep.verdict == "stalled" and forever)


class Pass:
    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.walls = []        # per scenario: run + bundle + checks + verifier
        self.run_walls = []    # per scenario: inside run_scenario
        self.spans = []        # per scenario: (start, end) for the speed probe
        self.steps = 0
        self.hashes = []
        self.failures = []
        self.ops = self.ops_failed = self.ops_returned = self.sent = 0
        self.op_steps = []
        self.cert_bytes = []
        # traced passes only
        self.latencies = []
        self.delivered = self.held = 0
        self.fwd = self.fwd_useful = 0
        self.dbla_restarts = 0
        self.maxreg_restarts = self.maxreg_ops = 0

    def run(self, scn, verifier, runner, checks):
        """One scenario, timed without the speed probe's own time."""
        probe = self.probe
        p0, t0 = probe.spent, time.perf_counter()
        rep = runner.run_scenario(scn)
        p1, t1 = probe.spent, time.perf_counter()
        results = checks.run_checks(rep.bundle())
        if verifier is not None:
            results += verifier(rep)
        p2, t2 = probe.spent, time.perf_counter()
        self.walls.append(t2 - t0 - (p2 - p0))
        self.run_walls.append(t1 - t0 - (p1 - p0))
        self.spans.append((t0, t2))
        self.record(rep, results)

    def record(self, rep, results):
        self.steps += rep.steps
        self.hashes.append(rep.hash)
        bad = [name for name, ok, _ in results if not ok]
        if not _verdict_ok(rep):
            bad.append(f"verdict={rep.verdict}")
        for rec in rep.ops:
            self.ops += 1
            if rec.returned_at is None or (rec.result or {}).get("error"):
                self.ops_failed += 1
                continue
            self.ops_returned += 1
            self.op_steps.append(rec.returned_at - rec.invoked_at)
            size = _cert_bytes(rec.result)
            if size is not None:
                self.cert_bytes.append(size)
        if bad:
            self.failures.append(f"{rep.scenario['name']}: {bad}")
        self.sent += rep.metrics["sent"]
        if self.tracer is not None:
            self.record_layers(rep)

    def record_layers(self, rep):
        from dynbla.dbla import DblaClient
        from dynbla.maxreg import MaxRegClient

        ctx = rep.ctx
        self.latencies.extend(ctx.sim.latencies)
        self.delivered += rep.metrics["delivered"]
        self.held += rep.metrics["held"]
        seen = set()
        for line in rep.trace:
            if line["kind"] == "deliver" and line["desc"] == "rb.fwd":
                self.fwd += 1
                seen.add((line["to"], line["hash"]))
        self.fwd_useful += len(seen)
        clients = [s for hub in ctx.hubs.values() for s in hub.sessions]
        self.dbla_restarts += sum(s.restarts for s in clients if isinstance(s, DblaClient))
        self.maxreg_restarts += sum(s.restarts for s in clients if isinstance(s, MaxRegClient))
        self.maxreg_ops += sum(1 for op in rep.scenario["ops"] if op["op"] in ("read", "write"))

    def summary(self):
        out = {
            "hashes": self.hashes,
            "walls": self.walls,
            "run_walls": self.run_walls,
            "scales": [self.probe.scale(t0, t1) for t0, t1 in self.spans],
            "steps": self.steps,
            "runs": len(self.walls),
            "failures": self.failures,
            "ops": self.ops,
            "ops_failed": self.ops_failed,
            "ops_returned": self.ops_returned,
            "sent": self.sent,
            "op_steps": self.op_steps,
            "cert_bytes": self.cert_bytes,
            "peak_rss_mb": _maxrss_mb() - PROBE_RSS_MB,
        }
        if self.tracer is not None:
            out["layers"], out["spans"] = self.layers(sum(self.walls))
        return out

    def layers(self, wall):
        """Per-layer metrics of this pass; shares are of its timed wall time."""
        from tracing import LAYERS

        t = self.tracer
        spans = {name: {"calls": st.calls, "busy_s": st.busy, "self_s": st.self,
                        "extra": st.extra}
                 for name, st in t.stats.items()}
        m = {}
        for name, st in spans.items():
            for field in ("calls", "busy_s", "self_s"):
                m[f"{name}.{field}"] = st[field]
        m["lattice.canon.bytes"] = spans["lattice.canon"]["extra"]
        verify = spans["fscrypto.fs_verify"]
        m["fscrypto.fs_verify.reject_ratio"] = verify["extra"] / max(verify["calls"], 1)
        m["simnet.pending.peak"] = t.pending_peak
        m["simnet.pending.mean"] = t.pending_sum / max(t.pending_steps, 1)
        m["simnet.delivery_latency.p50"] = percentile(self.latencies, 50)
        m["simnet.delivery_latency.p99"] = percentile(self.latencies, 99)
        m["simnet.msgs.sent"] = self.sent
        m["simnet.msgs.delivered"] = self.delivered
        m["simnet.msgs.held"] = self.held
        m["broadcast.rb.fwd_share"] = self.fwd / max(self.delivered, 1)
        m["broadcast.rb.useful_ratio"] = self.fwd_useful / max(self.fwd, 1)
        m["dbla.restarts_per_propose"] = self.dbla_restarts / max(spans["dbla.propose"]["calls"], 1)
        m["maxreg.restarts_per_op"] = self.maxreg_restarts / max(self.maxreg_ops, 1)
        for layer in LAYERS:
            m[f"{layer}.self_share"] = sum(
                st["self_s"] for name, st in spans.items() if name.startswith(layer + ".")) / wall
        m["lattice.canon.self_share"] = spans["lattice.canon"]["self_s"] / wall
        m["simnet.step.self_share"] = spans["simnet.step"]["self_s"] / wall
        m["fscrypto.busy_share"] = sum(
            st["busy_s"] for name, st in spans.items() if name.startswith("fscrypto.")) / wall
        return m, spans


def main(argv=None):
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    from dynbla.harness import checks, runner

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()   # before the scenarios pick up verifiers
        probe.span_stack = tracer.stack
    items = workloads.scenarios(args.workload, args.seed, args.seconds, args.part)

    Pass(tracer, probe).run(*items[0], runner, checks)
    if tracer is not None:
        tracer.reset()

    timed = Pass(tracer, probe)
    first, setup_end, setup_probe = time.monotonic(), time.perf_counter(), probe.spent
    for scn, verifier in items:
        timed.run(scn, verifier, runner, checks)
    probe.stop()
    out = timed.summary()
    out["first_timed"] = first
    out["setup_probe_s"] = setup_probe
    out["setup_scale"] = probe.scale(probe.times[0], setup_end)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
