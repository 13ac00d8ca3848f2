"""Builds a live world from a scenario and runs it to a verdict.

The runner owns the mapping from scenario dicts to automata: one replica
group named "g", an optional application object "g/obj", an optional
access-control object "g/acl", one hub per client.  Every operation
invoke and return and every install is written into the trace with a
jsonable detail, and only there, so all invariants can be re-checked from
the trace file alone; read_ops reads it back in one pass, as an OpRecord
per scenario op for the checks, the attack verifiers and RunReport.ops,
with the install lines and the processes whose corruption applied.

A trace file's shape is stated once, in TRACE_SHAPES, and checked only by
load_trace; read_ops and the checks read fields directly. A RunReport's
fields are the file's sections, but for steps: every step writes at least
one event line, so load_trace reads the step count off the last event.

A run's World, ``RunReport.ctx``, is the root of everything the run built:
it holds the simulator, the oracle, the group objects and the automata,
and nothing in the world holds it, or the simulator, strongly. The weak
edges are the simulator's Api and AdvApi handles, a QuorumSession's hub,
the broadcast endpoints' deliver callbacks, the group objects' history
check, and the runner's own hooks: the oracle's audit hook, the replicas'
install hook, the op and corruption fires and the adversary scripts all
see the world through a weak proxy. Dropping the report, or the World
once taken from it, frees the whole run by reference counting, with no
cyclic collection. Keeping ``rep`` or ``rep.ctx`` keeps every object of
the run usable; an automaton, session or hook kept without them raises
ReferenceError when it next reaches the simulator, for example to send.
"""

from __future__ import annotations

import json
import weakref
from collections import namedtuple
from types import SimpleNamespace

from ..access_control import AcClient, AcStore, AccessControl, make_ac_input_check, make_admin_cert
from ..dbla import OPEN_CERT, DblaClient, DblaStore, DynamicObject, fits, open_input
from ..fscrypto import KeyChainFsOracle, LedgerFsOracle, LedgerVerifier
from ..lattice import Config, FinSet, genesis_config, value_to_jsonable
from ..maxreg import MaxRegClient, MaxRegStore
from ..reconfig import ReconfigClient, ReconfigGroup
from ..simnet import HoldRule, Simulator, trace_hash
from .attacks import SCRIPTS
from .scenario import ScenarioError, parse_trigger, update_of, validate

GROUP = "g"
APP_OBJ = GROUP + "/obj"
ACL_OBJ = GROUP + "/acl"
TRACE_FORMAT = "dynbla-trace"
# version 2: history inputs and access-controlled configuration inputs are
# signed over their certificate objects' canonical bytes, not over JSON, so
# version-1 files cannot be re-verified
# version 3: an OutputCert is signed over as its digest frame, so the
# signatures in a version-2 file cover another encoding and cannot be
# re-verified
# version 4: a returned OutputCert names each repeated nested certificate by
# a "ref" into its "shared" table; a version-3 file spells out every copy
# and is refused rather than read under two encodings
# version 5: a history-agreement input value is written as {"hist": [...]},
# not as {"cfgs": [...]}; the history agreement runs over histories, so a
# version-4 file names a value kind this build no longer reads
# version 6: a returned OutputCert writes every nested certificate once, as a
# "shared" entry, and a slot's key ("c"/"r"/"a", "hcert"/"href"/"hac") names
# a certificate's kind; a version-5 file writes a certificate named once
# inline and tells it from a token by the token's content, so a token
# shaped like a certificate would be read as one, and it is refused
# version 7: a returned certificate writes a quorum's height once and each
# signature as its hex data under its signer ({"ts": h, "sigs": {pid: hex}}),
# and names each configuration by its cid from the root's "cfgs" table; a
# version-6 file spells out every signature and configuration, so it is
# refused rather than read under two encodings
# version 8: a returned certificate writes each quorum signature's data in
# standard padded base64, not hex ({"ts": h, "sigs": {pid: b64}}), and reads
# back only the exact base64 of its bytes; a version-7 file writes hex, and
# is refused rather than read under two encodings
TRACE_VERSION = 8


class TraceError(ValueError):
    """Every way load_trace refuses a trace file."""


# One operation of a run, as read_ops reads it from the trace: spec is its
# invoke line's detail; a field the trace has no line for is None.
OpRecord = namedtuple("OpRecord", "idx spec invoked_at returned_at result", defaults=(None,) * 4)


# What the checks read of each line of a trace file, by the line's section
# (its "t"), in dbla.WIRE's language (see dbla.fits). An event line is
# checked against "ev:" + its kind, or + its desc for an upcall, where that
# entry exists, and against "ev" where it does not: op invokes, returns and
# install upcalls carry the detail the checks read, and each of their
# entries holds all of "ev". A live run's lines are of these shapes as the
# simulator writes them; load_trace checks each line of a file as it reads
# it, with one call of fits.
_REPLICA = {"history": [str], "installed": [str], "ccurr": str, "cinst": str, "chighest": str, "member": bool}
_EV = {"step": int, "kind": str, "frm": str, "to": str, "desc": str, "hash": (str, type(None)), "st": str}
TRACE_SHAPES = {
    "head": {"scenario": dict, "verdict": str},
    "ev": _EV,
    "ev:invoke": {**_EV, "detail": {"idx": int, "op": str}},
    "ev:return": {**_EV, "detail": {"idx": int, "result": dict}},
    "ev:install": {**_EV, "detail": {"h": int, "cid": str, "st": {str: int}, "status": dict,
                                     "hist": [{"cid": str, "h": int, "replicas": [str]}]}},
    "final": {"replicas": {str: _REPLICA}, "statuses": {str: str}, "xfer_targets": [str]},
    "ledger": {"entries": list},
    "hash": {"hash": str},
}
# A file's sections in the order save_trace writes them; only "ev" repeats.
SECTIONS = ("head", "ev", "final", "ledger", "hash")


def read_ops(trace, count) -> tuple[dict, list, set]:
    """A trace's OpRecords by index, its install upcall lines and the pids
    whose corruption applied (its fire line found them correct: st "-C"), in
    one pass. There is a row for each op 0 .. count - 1, which keeps None in
    every field but idx until its invoke or return line is read, and one for
    any other index a line names. Reads a live or a loaded trace; checks
    nothing."""
    ops, installs, corrupted = {i: OpRecord(i) for i in range(count)}, [], set()
    for line in trace:
        kind = line["kind"]
        if kind in ("invoke", "return"):
            d = line["detail"]
            row = ops.setdefault(d["idx"], OpRecord(d["idx"]))
            ops[d["idx"]] = (row._replace(spec=d, invoked_at=line["step"]) if kind == "invoke"
                             else row._replace(returned_at=line["step"], result=d["result"]))
        elif kind == "upcall" and line["desc"] == "install":
            installs.append(line)
        elif kind == "adversary" and line["desc"].startswith("corrupt:") and line["st"] == "-C":
            corrupted.add(line["to"])
    return ops, installs, corrupted


class RunReport:
    """One run: its trace file's sections, the step count the simulator
    stopped at (load_trace reads it off the events) and ctx, the World it
    ran in."""

    FIELDS = ("scenario", "verdict", "steps", "trace", "final", "ledger", "hash")

    def __init__(self, scenario: dict, verdict: str, steps: int, trace: list, final: dict, ledger: list, hash: str,
                 ctx=None):
        self.scenario, self.verdict, self.steps, self.trace = scenario, verdict, steps, trace
        self.final, self.ledger, self.hash, self.ctx = final, ledger, hash, ctx

    @property
    def metrics(self) -> dict:
        """The simulator's counters, as final records them."""
        return self.final["metrics"]

    @property
    def ops(self) -> list[OpRecord]:
        """One OpRecord per scenario op, read from the trace on each access."""
        return list(read_ops(self.trace, len(self.scenario["ops"]))[0].values())

    def bundle(self) -> dict:
        """The trace file's sections, for save_trace and the offline checks."""
        return {name: getattr(self, name) for name in self.FIELDS}


class World(SimpleNamespace):
    """The objects of one run, and the root that owns them; unlike a plain
    SimpleNamespace it can be weakly referenced."""


# One row per app kind: the values its object admits, under the open token,
# and the classes of its replica store and client session. App kind "none"
# has no row and builds no object.
AppKind = namedtuple("AppKind", "admits store session")
APPS = {
    "dbla": AppKind(lambda v: type(v) is FinSet and all(type(e) is str for e in v.elems), DblaStore, DblaClient),
    "maxreg": AppKind(lambda v: type(v) is int, MaxRegStore, MaxRegClient),
}


def build_objects(scn, oracle) -> World:
    """The scenario's group objects over oracle: genesis, the replica ids, the
    roster, access control, the reconfiguration group and the app object,
    which admits its kind's values (APPS) and trusts the group's histories.
    The configuration agreement admits configurations of the scenario's
    replicas only, a subset of URB's roster, which also holds the clients."""
    genesis = genesis_config(scn["genesis"])
    rids = [*scn["genesis"], *scn["extra_replicas"]]
    roster = [*rids, *scn["clients"]]
    known = frozenset(rids)
    of_replicas = lambda v: type(v) is Config and v.replicas() <= known
    ac = None
    conf_check = open_input(of_replicas)
    if scn["acl"]["mode"] != "none":
        ac = AccessControl(ACL_OBJ, scn["acl"]["mode"], admins=scn["acl"].get("admins", ()))
        granted = make_ac_input_check(ac, oracle)
        conf_check = lambda v, cert: of_replicas(v) and granted(v, cert)
    grp = ReconfigGroup(GROUP, genesis, oracle, conf_check)
    app = APPS.get(scn["app"]["kind"])
    app_obj = (DynamicObject(APP_OBJ, genesis, check_value=open_input(app.admits), check_history=grp.certifies)
               if app else None)
    return World(genesis=genesis, rids=rids, roster=roster, grp=grp, app_obj=app_obj, ac=ac, oracle=oracle)


def build_world(scn) -> World:
    oracle = LedgerFsOracle() if scn["oracle"] == "ledger" else KeyChainFsOracle()
    ctx = build_objects(scn, oracle)
    ctx.scenario = scn
    ctx.sim = Simulator(scn["seed"], oracle)
    sim = weakref.proxy(ctx.sim)
    oracle.audit_hook = lambda: {"step": sim.next_step}
    ctx.acl_mode = scn["acl"]["mode"]
    app = APPS.get(scn["app"]["kind"])
    # sanity and quorum access control run replica rounds; admin mode has none
    rounds = ctx.acl_mode in ("sanity", "quorum")

    hook = _make_install_hook(weakref.proxy(ctx), ctx.rids)
    ctx.replicas = {}
    for r in ctx.rids:
        extra = [app.store("obj", ctx.app_obj)] if app else []
        if rounds:
            extra.append(AcStore("acl", ctx.ac))
        rep = ctx.grp.make_replica(ctx.roster, extra_stores=extra)
        rep.install_hook = hook
        ctx.replicas[r] = rep
        ctx.sim.spawn(r, rep)

    ctx.hubs, ctx.rcs, ctx.apps, ctx.acls = {}, {}, {}, {}
    for c in scn["clients"]:
        hub = ctx.grp.make_hub(ctx.roster)
        ctx.hubs[c] = hub
        ctx.rcs[c] = ReconfigClient(hub, ctx.grp)
        if app:
            ctx.apps[c] = app.session(hub, ctx.app_obj)
        if rounds:
            ctx.acls[c] = AcClient(hub, ctx.ac)
        ctx.sim.spawn(c, hub)
    return ctx


def _make_install_hook(ctx, rids):
    # Snapshot key watermarks and statuses at the moment of each install;
    # the key-update audit replays these offline.
    def hook(core, config):
        return {
            "st": {p: ctx.oracle.st(p) for p in rids},
            "status": {p: ctx.sim.status(p) for p in rids},
            "hist": [
                {"cid": c.cid(), "h": c.height(), "replicas": sorted(c.replicas())}
                for c in core.history.configs
            ],
        }

    return hook


def _ack_jsonable(ack):
    if ack is None:
        return None
    return {
        "cid": ack["cid"],
        "h": ack["h"],
        "v": ack["v"],
        "cfg": value_to_jsonable(ack["config"]),
        "acks": ack["acks"].to_jsonable(),
    }


def _make_fire(ctx, idx, spec):
    """The fire of op idx; ctx is a weak proxy of the world."""
    c = spec["client"]
    kind = spec["op"]

    def finish(result):
        sim = ctx.sim
        sim.trace_aux("return", c, f"op{idx}:{kind}", {"idx": idx, "result": result})
        sim.note_fact(f"op{idx}:done")
        sim.note_fact(f"ret:{c}")

    if kind == "propose":
        def start():
            def done(w, cert):
                finish({
                    "w": value_to_jsonable(w),
                    "cert": cert.to_jsonable(),
                    "anchor": cert.anchor().cid(),
                    "anchor_h": cert.anchor().height(),
                })
            ctx.apps[c].propose(FinSet(spec["value"]), OPEN_CERT, done)

    elif kind == "write":
        def start():
            ctx.apps[c].write(spec["value"], OPEN_CERT,
                              lambda ack: finish({"ack": _ack_jsonable(ack)}))

    elif kind == "read":
        def start():
            ctx.apps[c].read(lambda v, ack: finish({"v": v, "ack": _ack_jsonable(ack)}))

    elif kind == "update_config":
        def start():
            target = ctx.hubs[c].anchor().join(update_of(spec))
            def done(h, th):
                finish({
                    "hist": h.to_jsonable(),
                    "cert": th.to_jsonable(),
                    "target": target.cid(),
                    "target_h": target.height(),
                })
            if ctx.acl_mode == "none":
                ctx.rcs[c].update_config(target, OPEN_CERT, done)
            elif ctx.acl_mode == "admin":
                signers = sorted(ctx.ac.admins)[: ctx.ac.admin_threshold()]
                cert = make_admin_cert(ctx.oracle, ctx.ac, f"h{target.height()}", target, signers)
                ctx.rcs[c].update_config(target, cert, done)
            else:
                def got(cert):
                    if cert is None:
                        finish({"denied": True, "target": target.cid()})
                    else:
                        ctx.rcs[c].update_config(target, cert, done)
                ctx.acls[c].request(f"next:{target.cid()}", target, got)

    elif kind == "ac_request":
        def start():
            def done(cert):
                finish({
                    "granted": cert is not None,
                    "cert": cert.to_jsonable() if cert is not None else None,
                    "slot": spec["slot"],
                    "value": spec["value"],
                })
            ctx.acls[c].request(spec["slot"], spec["value"], done)

    else:
        raise ScenarioError(f"unhandled op kind {kind!r}")

    def fire():
        try:
            start()
        except RuntimeError:
            finish({"error": "busy"})

    return fire


def _schedule(ctx, scn, corruptions):
    world = weakref.proxy(ctx)
    for idx, spec in enumerate(scn["ops"]):
        detail = {"idx": idx, **{k: v for k, v in spec.items()
                                 if k not in ("at", "after", "offset")}}
        ctx.sim.add_external(parse_trigger(spec), "invoke", _make_fire(world, idx, spec),
                             to=spec["client"], desc=f"op{idx}:{spec['op']}", detail=detail)

    for ent in scn["adversary"]["corruptions"]:
        name = ent["script"]
        if name not in SCRIPTS:
            raise ScenarioError(f"unknown adversary script {name!r}")
        pid = ent["pid"]

        def fire(pid=pid, name=name):
            try:
                world.sim.corrupt(pid, SCRIPTS[name](world))
                corruptions.append({"pid": pid, "script": name,
                                    "step": world.sim.now(), "applied": True})
            except ValueError:
                # never-activated process; a weaker adversary, not an error
                corruptions.append({"pid": pid, "script": name,
                                    "step": world.sim.now(), "applied": False})

        ctx.sim.add_external(parse_trigger(ent), "adversary", fire,
                             to=pid, desc=f"corrupt:{name}")

    for h in scn["adversary"]["holds"]:
        until = h.get("until")
        ctx.sim.add_hold(HoldRule(
            frm=set(h["frm"]) if h.get("frm") else None,
            to=set(h["to"]) if h.get("to") else None,
            desc=h.get("desc", ""),
            until=None if until is None else parse_trigger(until),
        ))


def _final(ctx, corruptions):
    """The run's final section: replica and hub end states, and the simulator's record."""
    reps = {}
    for pid, rep in ctx.replicas.items():
        reps[pid] = {
            "history": [c.cid() for c in rep.history.configs],
            "heights": [c.height() for c in rep.history.configs],
            "ccurr": rep.ccurr.cid(),
            "cinst": rep.cinst.cid(),
            "chighest": rep.anchor().cid(),
            "member": pid in rep.anchor().replicas(),
            "installed": sorted(c.cid() for c in rep.installed),
            "xfer_targets": sorted(rep.xfer_targets_sent),
            "buffered": len(rep.buffered),
            "dropped": rep.dropped,
        }
    hubs = {c: {"anchor_h": hub.anchor().height()} for c, hub in ctx.hubs.items()}
    targets = sorted({t for r in reps.values() for t in r["xfer_targets"]})
    return {"replicas": reps, "hubs": hubs, "xfer_targets": targets, "statuses": ctx.sim.statuses(),
            "metrics": dict(ctx.sim.metrics), "facts": dict(ctx.sim.facts), "corruptions": corruptions}


def run_scenario(scn) -> RunReport:
    scn = validate(scn)
    ctx = build_world(scn)
    corruptions: list[dict] = []
    _schedule(ctx, scn, corruptions)
    res = ctx.sim.run(scn["max_steps"])
    return RunReport(
        scenario=scn,
        verdict=res["verdict"],
        steps=res["steps"],
        trace=ctx.sim.trace,
        final=_final(ctx, corruptions),
        ledger=ctx.oracle.dump_ledger(),
        hash=trace_hash(ctx.sim.trace),
        ctx=ctx,
    )


# -- trace files ---------------------------------------------------------------

def save_trace(path, bundle) -> None:
    """One JSON object per line: head (scenario and verdict), events, final, ledger, hash."""
    with open(path, "w") as f:
        head = {"t": "head", "format": TRACE_FORMAT, "version": TRACE_VERSION,
                "scenario": bundle["scenario"], "verdict": bundle["verdict"]}
        f.write(json.dumps(head, sort_keys=True) + "\n")
        for line in bundle["trace"]:
            f.write(json.dumps({"t": "ev", **line}, sort_keys=True) + "\n")
        f.write(json.dumps({"t": "final", **bundle["final"]}, sort_keys=True) + "\n")
        f.write(json.dumps({"t": "ledger", "entries": bundle["ledger"]}, sort_keys=True) + "\n")
        f.write(json.dumps({"t": "hash", "hash": bundle["hash"]}, sort_keys=True) + "\n")


def load_trace(path) -> dict:
    """The bundle save_trace wrote to path, each line checked as it is read against TRACE_SHAPES,
    the head's scenario by validate and the ledger's entries by a LedgerVerifier; TraceError if a
    line fails its check, or a section is unknown, missing, repeated or out of SECTIONS' order.
    Its steps is one past the last event's step, or 0 with no events."""
    bundle = {"trace": []}
    last = -1
    with open(path, "rb") as f:
        for n, raw in enumerate(f, 1):
            if not raw.strip():
                continue
            try:
                line = json.loads(raw)
                t = line.pop("t", None)
                if t not in SECTIONS:
                    raise TraceError(f"trace line {n} is of no section this build reads: {t!r}")
                i = SECTIONS.index(t)
                if i < last or i == last and t != "ev":
                    raise TraceError(f"trace line {n}: section {t!r} is repeated or out of the order"
                                     f" {', '.join(SECTIONS)}")
                last = i
                if t == "head" and (line.get("format"), line.get("version")) != (TRACE_FORMAT, TRACE_VERSION):
                    raise TraceError(f"trace is {line.get('format')!r} version {line.get('version')!r};"
                                     f" this build reads only {TRACE_FORMAT!r} version {TRACE_VERSION}")
                shape = TRACE_SHAPES[t]
                if t == "ev":
                    key = line.get("desc") if line.get("kind") == "upcall" else line.get("kind")
                    shape = TRACE_SHAPES.get(f"ev:{key}", shape)
                if not fits(line, shape):
                    raise TraceError(f"trace line {n} is not of the shape the checks read")
                if t == "head":
                    bundle["verdict"], bundle["scenario"] = line["verdict"], validate(line["scenario"])
                elif t == "ev":
                    bundle["trace"].append(line)
                elif t == "final":
                    bundle["final"] = line
                elif t == "ledger":
                    LedgerVerifier(line["entries"])  # raises unless the checks can read them
                    bundle["ledger"] = line["entries"]
                elif t == "hash":
                    bundle["hash"] = line["hash"]
            except TraceError:
                raise
            except ScenarioError as e:
                raise TraceError(str(e)) from e
            except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as e:
                raise TraceError(f"trace line {n} is malformed: {e!r}") from e
    missing = {"scenario", "final", "ledger", "hash"} - bundle.keys()
    if missing:
        raise TraceError(f"trace file is missing sections: {sorted(missing)}")
    bundle["steps"] = bundle["trace"][-1]["step"] + 1 if bundle["trace"] else 0
    return bundle
