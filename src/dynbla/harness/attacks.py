"""Adversary scripts and scripted attack runs.

Each attack is an ordinary scenario plus a post-run verifier that checks
the attack actually unfolded and that the defenses held: stale quorums
starve, retained keys cannot re-certify superseded configurations, and
forged output certificates fail verification.

The verifiers read a run the way the offline checks do: one pass of
runner.read_ops over the trace takes the OpRecords and install lines,
then the update's target from op 1's return, and the genesis replicas whose
key watermark (``oracle.st``) still admits the genesis epoch.  A
forward-secure signature at ts is issued exactly when ts >= st, so that
probe tells which retired replicas could still sign for the old epoch
without signing as any of them or adding to the oracle's ledger.
"""

from __future__ import annotations

from types import SimpleNamespace

from ..dbla import (
    GENESIS_CERT,
    OPEN_CERT,
    InputValue,
    OutputCert,
    QuorumCert,
    cresp_payload,
    presp_payload,
    verify_output,
    wire_ok,
)
from ..fscrypto import FsSig
from ..lattice import FinSet, genesis_config, value_from_jsonable
from ..maxreg import setresp_payload
from ..simnet import Msg
from .scenario import make_scenario


# -- adversary scripts --------------------------------------------------------


def _junk(pid, ts):
    return FsSig(pid, ts, b"retained:" + pid.encode())


def silent_script(ctx):
    def script(adv, ev):
        return None

    return script


def retainer_script(ctx):
    """Keep serving whatever configuration the sender asks about.

    The corrupted replica hides its real state (echoes the sender's own
    values, reports empty cells and snapshots) and signs with whatever
    keys it still holds; once its watermark moved past the requested
    epoch the oracle refuses and a junk signature goes out instead.
    """
    oracle = ctx.oracle

    def script(adv, ev):
        pid, frm, msg = ev.to, ev.frm, ev.msg
        if not wire_ok(msg):
            return
        body = msg.body

        def answer(desc, payload, out):
            if payload is not None:
                h = body["config"].height()
                out["sig"] = oracle.fs_sign(pid, payload, h) or _junk(pid, h)
            out["sn"] = body["sn"]
            adv.send(frm=pid, to=frm, msg=Msg(desc, msg.obj, out))

        if msg.desc == "bla.propose":
            answer("bla.presp", presp_payload(msg.obj, body["config"], body["values"]), {"values": body["values"]})
        elif msg.desc == "bla.confirm":
            answer("bla.cresp", cresp_payload(msg.obj, body["config"], body["packs"]), {})
        elif msg.desc == "mr.set":
            answer("mr.setresp", setresp_payload(msg.obj, body["config"], body["iv"].value), {})
        elif msg.desc == "mr.get":
            answer("mr.getresp", None, {"cell": None})
        elif msg.desc == "xfer.read":
            answer("xfer.resp", None, {"payload": {}})

    return script


SCRIPTS = {
    "silent": silent_script,
    "retainer": retainer_script,
}


# -- attack scenarios ---------------------------------------------------------

# Both slow-reader variants replace the corrupted r3 with r5, so the new
# configuration has height 6 (four genesis joins plus one add and one remove).
_SR_H1 = 6


def _slow_reader(seed, kind, first, stale, prefix):
    """A slow reader on the app kind: q's first op, then p's stale op.

    q completes first at genesis without ever reaching r2 (q's messages
    whose kind starts with prefix are held forever).  The members move on
    to a new configuration while r1 is kept ignorant (its gossip is held
    forever) and r3 is corrupted.  p then runs stale at genesis: the only
    responders are the two key-retaining processes, one short of a
    quorum, so p starves until it learns the new configuration.
    """
    ops = [
        first,
        {"op": "update_config", "client": "u", "add": ["r5"], "remove": ["r3"],
         "after": "op0:done", "offset": 2},
        {**stale, "after": f"inst:h{_SR_H1}", "offset": 2},
    ]
    adversary = {
        "corruptions": [
            {"pid": "r3", "script": "retainer", "after": "op0:done", "offset": 0},
            {"pid": "r1", "script": "retainer", "after": f"inst:h{_SR_H1}", "offset": 0},
        ],
        "holds": [
            {"frm": ["q"], "to": ["r2"], "desc": prefix, "until": None},
            {"to": ["r1"], "desc": "hist.new", "until": None},
            {"to": ["p"], "desc": "hist.new",
             "until": {"after": f"inst:h{_SR_H1}", "offset": 40}},
        ],
    }
    return make_scenario(f"slow-reader-{kind}-{seed}", seed, ["q", "p", "u"], ops, extra_replicas=["r5"],
                         app={"kind": kind}, adversary=adversary, meta={"attack": f"slow-reader-{kind}"})


def slow_reader_dbla(seed):
    """A reader anchored at a superseded configuration must not finish there."""
    return _slow_reader(seed, "dbla", {"op": "propose", "client": "q", "value": ["v2"], "at": 0},
                        {"op": "propose", "client": "p", "value": ["v1"]}, "bla.")


def slow_reader_maxreg(seed):
    """Max-register variant: a stale read must not miss a completed write."""
    return _slow_reader(seed, "maxreg", {"op": "write", "client": "q", "value": 7, "at": 0},
                        {"op": "read", "client": "p"}, "mr.")


# Wholesale replacement: every genesis replica removed, four fresh ones added.
_IW_H1 = 12


def i_still_work_here(seed):
    """The whole old membership turns Byzantine after being replaced.

    Once the fresh configuration is installed the four retired replicas
    are corrupted and keep answering a stale client as if they were still
    in charge.  Their watermarks already moved past the old epoch, so all
    they can produce is junk signatures; the client rejects every reply
    and finishes only after learning the real configuration.
    """
    ops = [
        {"op": "propose", "client": "p", "value": ["alive"], "at": 0},
        {"op": "update_config", "client": "u",
         "add": ["r5", "r6", "r7", "r8"], "remove": ["r1", "r2", "r3", "r4"],
         "after": "op0:done", "offset": 2},
        {"op": "propose", "client": "c2", "value": ["late"],
         "after": f"inst:h{_IW_H1}", "offset": 8},
    ]
    adversary = {
        "corruptions": [
            {"pid": r, "script": "retainer", "after": f"inst:h{_IW_H1}", "offset": i + 1}
            for i, r in enumerate(["r1", "r2", "r3", "r4"])
        ],
        "holds": [
            {"to": ["c2"], "desc": "hist.new",
             "until": {"after": f"inst:h{_IW_H1}", "offset": 200}},
        ],
    }
    return make_scenario(f"i-still-work-here-{seed}", seed, ["p", "c2", "u"], ops,
                         extra_replicas=["r5", "r6", "r7", "r8"], adversary=adversary,
                         meta={"attack": "i-still-work-here"})


# -- post-run verification ----------------------------------------------------


def _read_run(report):
    """What the verifiers read from a run: genesis, the trace's OpRecords, the
    update's target cid (op 1's return records it), the step the target
    was first installed at, and the genesis replicas whose key watermark
    still admits the genesis epoch."""
    # runner imports SCRIPTS from this module
    from .runner import read_ops

    genesis = genesis_config(report.scenario["genesis"])
    ops, installs, _ = read_ops(report.trace, len(report.scenario["ops"]))
    target = (ops[1].result or {}).get("target")
    inst = min((l["step"] for l in installs if l["detail"].get("cid") == target), default=None)
    retained = [p for p in report.scenario["genesis"] if report.ctx.oracle.st(p) <= genesis.height()]
    return SimpleNamespace(genesis=genesis, ops=ops, target=target, inst=inst, retained=retained)


def _starved(run):
    """Whether the stale op 2 returned only after the target's install."""
    ret = run.ops[2].returned_at
    return run.inst is not None and ret is not None and ret > run.inst


def _absorbed(name, r, values):
    if not r:
        return (name, False, "no return")
    w = value_from_jsonable(r["w"])
    ok = isinstance(w, FinSet) and values <= w.elems
    return (name, ok, f"w={sorted(w.elems) if ok else r['w']}")


def _retained_below_quorum(run):
    return ("attack.retained_keys_below_quorum", len(run.retained) < run.genesis.quorum_size(),
            f"{sorted(run.retained)} can still sign for the old epoch")


def verify_slow_reader_dbla(report):
    run = _read_run(report)
    genesis = run.genesis
    r0, r = run.ops[0].result, run.ops[2].result
    pl = presp_payload("g/obj", genesis, [])
    forged = FsSig("r2", genesis.height(), b"forged")
    return [
        ("attack.q_done_at_genesis", bool(r0) and r0["anchor"] == genesis.cid(),
         "first proposal anchored at genesis"),
        ("attack.p_rescued_at_new_config", bool(r) and r["anchor"] == run.target,
         "stale proposal finished only at the new configuration"),
        _absorbed("attack.p_absorbed_both_values", r, {"v1", "v2"}),
        ("attack.stale_quorum_starved", _starved(run),
         "the stale-anchored proposal outlived the install"),
        _retained_below_quorum(run),
        ("attack.forged_signature_rejected",
         not report.ctx.oracle.fs_verify(pl, "r2", forged, genesis.height()),
         "junk bytes do not verify"),
    ]


def verify_slow_reader_maxreg(report):
    run = _read_run(report)
    r0, r = run.ops[0].result, run.ops[2].result
    return [
        ("attack.write_done_at_genesis", bool(r0) and r0["ack"]["cid"] == run.genesis.cid(),
         "write acknowledged at genesis"),
        ("attack.read_sees_completed_write", bool(r) and r["v"] == 7 and r["ack"]["cid"] == run.target,
         f"read returned {r and r.get('v')} at the new configuration"),
        ("attack.stale_quorum_starved", _starved(run), "the stale read outlived the install"),
        _retained_below_quorum(run),
    ]


def verify_i_still_work_here(report):
    run = _read_run(report)
    ctx, r = report.ctx, run.ops[2].result
    # A full forged certificate from the retired gang: right shape, junk keys.
    iv = InputValue(FinSet({"late"}), OPEN_CERT)
    junk = QuorumCert({p: _junk(p, run.genesis.height()) for p in report.scenario["genesis"][:3]})
    forged = OutputCert([iv], ctx.app_obj.genesis_history, GENESIS_CERT, junk, junk)
    return [
        ("attack.stale_client_rescued", bool(r) and r["anchor"] == run.target,
         "the held-back client finished at the new configuration"),
        _absorbed("attack.values_carried_over", r, {"alive", "late"}),
        ("attack.stale_quorum_starved", _starved(run),
         "no quorum existed for the retired configuration"),
        ("attack.old_keys_all_dead", not run.retained,
         f"{sorted(run.retained)} can still sign for the retired epoch"),
        ("attack.forged_certificate_rejected",
         not verify_output(ctx.app_obj, ctx.oracle, FinSet({"late"}), forged),
         "an output certificate signed with retained junk fails"),
    ]


ATTACKS = {
    "slow-reader-dbla": (slow_reader_dbla, verify_slow_reader_dbla),
    "slow-reader-maxreg": (slow_reader_maxreg, verify_slow_reader_maxreg),
    "i-still-work-here": (i_still_work_here, verify_i_still_work_here),
}
