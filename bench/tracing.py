"""Per-layer spans, recorded from outside the library.

``install()`` replaces the public callables of each ``dynbla`` module with
timing wrappers.  Functions that other modules import by name are patched
at every binding, and oracle methods are patched on the classes, so every
call is seen whichever module makes it.  Spans are aggregated in memory
per name: calls, busy time (wall time while at least one span of that
name is open) and self time (span time not covered by child spans).

Nothing here changes what a run does: the wrappers call straight through,
and the benchmark compares trace digests of traced and untraced passes.
"""

from __future__ import annotations

import time

import dynbla.access_control as access_control
import dynbla.broadcast as broadcast
import dynbla.dbla as dbla
import dynbla.fscrypto as fscrypto
import dynbla.harness.attacks as attacks
import dynbla.harness.checks as checks
import dynbla.harness.runner as runner
import dynbla.lattice as lattice
import dynbla.maxreg as maxreg
import dynbla.reconfig as reconfig
import dynbla.simnet as simnet

LAYERS = ("lattice", "simnet", "fscrypto", "broadcast", "dbla", "maxreg",
          "access_control", "reconfig", "harness")

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "busy", "self", "open", "extra")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.open = 0
        self.extra = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # one child-time accumulator per open span, innermost last
        self.stack: list[float] = []
        # pending-queue length seen at the start of each simulator step
        self.pending_steps = self.pending_sum = self.pending_peak = 0

    def stat(self, name) -> Stat:
        return self.stats.setdefault(name, Stat())

    def reset(self) -> None:
        for name in self.stats:
            self.stats[name] = Stat()
        self.pending_steps = self.pending_sum = self.pending_peak = 0

    def wrap(self, name, fn, count=None):
        """A span around fn; count(result) -> int is summed into extra."""
        stack = self.stack
        stats = self.stats
        self.stat(name)

        def span(*args, **kwargs):
            st = stats[name]
            st.calls += 1
            st.open += 1
            stack.append(0.0)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                st.self += dur - stack.pop()
                st.open -= 1
                if not st.open:
                    st.busy += dur
                if stack:
                    stack[-1] += dur
            if count is not None:
                st.extra += count(out)
            return out

        return span

    def wrap_canon(self, orig):
        """Outermost canon calls only; nested ones run unwrapped.

        canon recurses through the lattice module global, so while an
        outermost call runs that global points back at the original, and
        calls reaching another binding pass straight through.  extra sums
        the bytes produced.
        """
        stack = self.stack
        stats = self.stats
        self.stat("lattice.canon")

        def span(x):
            st = stats["lattice.canon"]
            if st.open:
                return orig(x)
            st.calls += 1
            st.open = 1
            lattice.canon = orig
            stack.append(0.0)
            t0 = _clock()
            try:
                out = orig(x)
            finally:
                dur = _clock() - t0
                st.self += dur - stack.pop()
                st.busy += dur
                st.open = 0
                lattice.canon = span
                if stack:
                    stack[-1] += dur
            st.extra += len(out)
            return out

        return span


def _patch(tracer, name, owners, attr, count=None, pre=None):
    """Wrap owner.attr for every owner, sharing one span name."""
    orig = getattr(owners[0], attr)
    fn = orig if pre is None else pre(orig)
    wrapped = tracer.wrap(name, fn, count)
    for owner in owners:
        if getattr(owner, attr) is not orig:
            raise RuntimeError(f"{owner.__name__}.{attr} is not the same object everywhere")
        setattr(owner, attr, wrapped)


def install() -> Tracer:
    """Patch every layer; returns the tracer that collects the spans."""
    t = Tracer()

    # lattice: canon and digest are imported by name across the library
    orig_canon = lattice.canon
    canon = t.wrap_canon(orig_canon)
    for mod in (lattice, dbla, broadcast, fscrypto, access_control, maxreg):
        if mod.canon is not orig_canon:
            raise RuntimeError(f"{mod.__name__}.canon is not lattice.canon")
        mod.canon = canon
    _patch(t, "lattice.digest", [lattice, simnet, broadcast], "digest")

    # simnet: steps (with the pending-queue size seen by each), hashing
    def count_pending(step):
        def pre(sim):
            n = len(sim.pending)
            t.pending_steps += 1
            t.pending_sum += n
            if n > t.pending_peak:
                t.pending_peak = n
            return step(sim)
        return pre

    _patch(t, "simnet.step", [simnet.Simulator], "step", pre=count_pending)
    _patch(t, "simnet.Msg.mhash", [simnet.Msg], "mhash")
    _patch(t, "simnet.trace_hash", [simnet, runner], "trace_hash")

    # fscrypto: both backends share the base class; the offline verifier is separate
    base, offline = fscrypto._FsOracleBase, fscrypto.LedgerVerifier
    rejected = lambda ok: 0 if ok else 1
    _patch(t, "fscrypto.fs_sign", [base], "fs_sign")
    _patch(t, "fscrypto.plain_sign", [base], "plain_sign")
    _patch(t, "fscrypto.update_fs_keys", [base], "update_fs_keys")
    for owner in (base, offline):
        owner.fs_verify = t.wrap("fscrypto.fs_verify", owner.fs_verify, rejected)
        owner.plain_verify = t.wrap("fscrypto.plain_verify", owner.plain_verify)

    _patch(t, "broadcast.rb.handle", [broadcast.RbEndpoint], "handle")
    _patch(t, "broadcast.urb.handle", [broadcast.UrbEndpoint], "handle")

    _patch(t, "dbla.replica.on_deliver", [dbla.DynamicReplica], "on_deliver")
    _patch(t, "dbla.hub.on_deliver", [dbla.ClientHub], "on_deliver")
    _patch(t, "dbla.check_value", [dbla.DynamicObject], "check_value")
    _patch(t, "dbla.check_history", [dbla.DynamicObject], "check_history")
    _patch(t, "dbla.verify_output", [dbla, reconfig, checks, attacks], "verify_output")
    _patch(t, "dbla.OutputCert.to_jsonable", [dbla.OutputCert], "to_jsonable")
    _patch(t, "dbla.propose", [dbla.DblaClient], "propose")

    _patch(t, "maxreg.store.handle", [maxreg.MaxRegStore], "handle")
    _patch(t, "maxreg.client.on_deliver", [maxreg.MaxRegClient], "on_deliver")

    _patch(t, "access_control.store.handle", [access_control.AcStore], "handle")
    _patch(t, "access_control.verify_cert", [access_control, checks], "verify_cert")

    _patch(t, "reconfig.check_history", [reconfig.ReconfigGroup], "check_history")
    _patch(t, "reconfig.wrap_conf_cert", [reconfig], "wrap_conf_cert")

    _patch(t, "harness.run_scenario", [runner], "run_scenario")
    _patch(t, "harness.build_world", [runner], "build_world")
    _patch(t, "harness.bundle", [runner.RunReport], "bundle")
    _patch(t, "harness.run_checks", [checks], "run_checks")
    _patch(t, "harness.check_certificates", [checks], "check_certificates")

    # children of a simulator step that are not protocol handlers: scheduled
    # op invocations and corruptions, and adversary scripts
    add_external = simnet.Simulator.add_external

    def traced_add_external(sim, trigger, kind, fire, *args, **kwargs):
        return add_external(sim, trigger, kind, t.wrap("harness.fire", fire), *args, **kwargs)

    simnet.Simulator.add_external = traced_add_external
    for name, factory in list(attacks.SCRIPTS.items()):
        attacks.SCRIPTS[name] = (
            lambda ctx, factory=factory: t.wrap("harness.adversary_script", factory(ctx)))
    for name, (builder, verifier) in list(attacks.ATTACKS.items()):
        attacks.ATTACKS[name] = (builder, t.wrap("harness.attack_verify", verifier))
    return t
