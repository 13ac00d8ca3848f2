"""Adversary scripts and scripted attack runs.

Each attack is an ordinary scenario plus a post-run verifier that checks
the attack actually unfolded and that the defenses held: stale quorums
starve, retained keys cannot re-certify superseded configurations, and
forged output certificates fail verification.
"""

from __future__ import annotations

from ..dbla import (
    GENESIS_CERT,
    InputValue,
    OutputCert,
    cresp_payload,
    presp_payload,
    verify_output,
    wire_ok,
)
from ..fscrypto import FsSig
from ..lattice import (
    ADD,
    REMOVE,
    Config,
    FinSet,
    genesis_config,
    value_from_jsonable,
)
from ..maxreg import setresp_payload
from ..simnet import Msg
from .scenario import SCHEMA_VERSION, validate


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
            answer("mr.setresp", setresp_payload(msg.obj, body["config"], body["v"]), {})
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


def slow_reader_dbla(seed):
    """A reader anchored at a superseded configuration must not finish there.

    q completes at genesis without ever reaching r2.  The members move on
    to a new configuration while r1 is kept ignorant (its gossip is held
    forever) and r3 is corrupted.  p then proposes at the stale genesis:
    the only responders are the two key-retaining processes, one short of
    a quorum, so p starves until it learns the new configuration.
    """
    return validate({
        "version": SCHEMA_VERSION,
        "name": f"slow-reader-dbla-{seed}",
        "seed": seed,
        "genesis": ["r1", "r2", "r3", "r4"],
        "extra_replicas": ["r5"],
        "clients": ["q", "p", "u"],
        "app": {"kind": "dbla"},
        "ops": [
            {"op": "propose", "client": "q", "value": ["v2"], "at": 0},
            {"op": "update_config", "client": "u", "add": ["r5"], "remove": ["r3"],
             "after": "op0:done", "offset": 2},
            {"op": "propose", "client": "p", "value": ["v1"],
             "after": f"inst:h{_SR_H1}", "offset": 2},
        ],
        "adversary": {
            "corruptions": [
                {"pid": "r3", "script": "retainer", "after": "op0:done", "offset": 0},
                {"pid": "r1", "script": "retainer", "after": f"inst:h{_SR_H1}", "offset": 0},
            ],
            "holds": [
                {"frm": ["q"], "to": ["r2"], "desc": "bla.", "until": None},
                {"to": ["r1"], "desc": "hist.new", "until": None},
                {"to": ["p"], "desc": "hist.new",
                 "until": {"after": f"inst:h{_SR_H1}", "offset": 40}},
            ],
        },
        "meta": {"attack": "slow-reader-dbla"},
    })


def slow_reader_maxreg(seed):
    """Max-register variant: a stale read must not miss a completed write."""
    return validate({
        "version": SCHEMA_VERSION,
        "name": f"slow-reader-maxreg-{seed}",
        "seed": seed,
        "genesis": ["r1", "r2", "r3", "r4"],
        "extra_replicas": ["r5"],
        "clients": ["q", "p", "u"],
        "app": {"kind": "maxreg"},
        "ops": [
            {"op": "write", "client": "q", "value": 7, "at": 0},
            {"op": "update_config", "client": "u", "add": ["r5"], "remove": ["r3"],
             "after": "op0:done", "offset": 2},
            {"op": "read", "client": "p", "after": f"inst:h{_SR_H1}", "offset": 2},
        ],
        "adversary": {
            "corruptions": [
                {"pid": "r3", "script": "retainer", "after": "op0:done", "offset": 0},
                {"pid": "r1", "script": "retainer", "after": f"inst:h{_SR_H1}", "offset": 0},
            ],
            "holds": [
                {"frm": ["q"], "to": ["r2"], "desc": "mr.", "until": None},
                {"to": ["r1"], "desc": "hist.new", "until": None},
                {"to": ["p"], "desc": "hist.new",
                 "until": {"after": f"inst:h{_SR_H1}", "offset": 40}},
            ],
        },
        "meta": {"attack": "slow-reader-maxreg"},
    })


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
    return validate({
        "version": SCHEMA_VERSION,
        "name": f"i-still-work-here-{seed}",
        "seed": seed,
        "genesis": ["r1", "r2", "r3", "r4"],
        "extra_replicas": ["r5", "r6", "r7", "r8"],
        "clients": ["p", "c2", "u"],
        "app": {"kind": "dbla"},
        "ops": [
            {"op": "propose", "client": "p", "value": ["alive"], "at": 0},
            {"op": "update_config", "client": "u",
             "add": ["r5", "r6", "r7", "r8"], "remove": ["r1", "r2", "r3", "r4"],
             "after": "op0:done", "offset": 2},
            {"op": "propose", "client": "c2", "value": ["late"],
             "after": f"inst:h{_IW_H1}", "offset": 8},
        ],
        "adversary": {
            "corruptions": [
                {"pid": r, "script": "retainer", "after": f"inst:h{_IW_H1}", "offset": i + 1}
                for i, r in enumerate(["r1", "r2", "r3", "r4"])
            ],
            "holds": [
                {"to": ["c2"], "desc": "hist.new",
                 "until": {"after": f"inst:h{_IW_H1}", "offset": 200}},
            ],
        },
        "meta": {"attack": "i-still-work-here"},
    })


# -- post-run verification ----------------------------------------------------


def _op_returns(bundle):
    out = {}
    for line in bundle["trace"]:
        if line["kind"] == "return":
            out[line["detail"]["idx"]] = line
    return out


def _first_install_step(bundle, cid):
    steps = [
        line["step"]
        for line in bundle["trace"]
        if line["kind"] == "upcall" and line["desc"] == "install"
        and line["detail"].get("cid") == cid
    ]
    return min(steps) if steps else None


def _signable(oracle, pids, payload, ts):
    return [p for p in pids if oracle.fs_sign(p, payload, ts) is not None]


def _expected_target(scn):
    cfg = genesis_config(scn["genesis"])
    for op in scn["ops"]:
        if op["op"] == "update_config":
            ups = [(ADD, r) for r in op.get("add", [])]
            ups += [(REMOVE, r) for r in op.get("remove", [])]
            cfg = cfg.join(Config(ups))
    return cfg


def verify_slow_reader_dbla(report):
    scn, bundle, ctx = report.scenario, report.bundle(), report.ctx
    genesis = genesis_config(scn["genesis"])
    target = _expected_target(scn)
    rets = _op_returns(bundle)
    inst = _first_install_step(bundle, target.cid())
    checks = []

    ok = 0 in rets and rets[0]["detail"]["result"]["anchor"] == genesis.cid()
    checks.append(("attack.q_done_at_genesis", ok, "first proposal anchored at genesis"))

    r = rets.get(2, {}).get("detail", {}).get("result")
    ok = bool(r) and r["anchor"] == target.cid()
    checks.append(("attack.p_rescued_at_new_config", ok,
                   "stale proposal finished only at the new configuration"))
    if r:
        w = value_from_jsonable(r["w"])
        ok = isinstance(w, FinSet) and {"v1", "v2"} <= w.elems
        checks.append(("attack.p_absorbed_both_values", ok, f"w={sorted(w.elems) if ok else r['w']}"))
    else:
        checks.append(("attack.p_absorbed_both_values", False, "no return"))
    ok = inst is not None and 2 in rets and rets[2]["step"] > inst
    checks.append(("attack.stale_quorum_starved", ok,
                   "the stale-anchored proposal outlived the install"))

    pl = presp_payload("g/obj", genesis, [])
    able = _signable(ctx.oracle, scn["genesis"], pl, genesis.height())
    ok = len(able) < genesis.quorum_size()
    checks.append(("attack.retained_keys_below_quorum", ok,
                   f"{sorted(able)} can still sign for the old epoch"))
    forged = FsSig("r2", genesis.height(), b"forged")
    ok = not ctx.oracle.fs_verify(pl, "r2", forged, genesis.height())
    checks.append(("attack.forged_signature_rejected", ok, "junk bytes do not verify"))
    return checks


def verify_slow_reader_maxreg(report):
    scn, bundle, ctx = report.scenario, report.bundle(), report.ctx
    genesis = genesis_config(scn["genesis"])
    target = _expected_target(scn)
    rets = _op_returns(bundle)
    inst = _first_install_step(bundle, target.cid())
    checks = []

    r0 = rets.get(0, {}).get("detail", {}).get("result")
    ok = bool(r0) and r0["ack"]["cid"] == genesis.cid()
    checks.append(("attack.write_done_at_genesis", ok, "write acknowledged at genesis"))

    r = rets.get(2, {}).get("detail", {}).get("result")
    ok = bool(r) and r["v"] == 7 and r["ack"]["cid"] == target.cid()
    checks.append(("attack.read_sees_completed_write", ok,
                   f"read returned {r and r.get('v')} at the new configuration"))
    ok = inst is not None and 2 in rets and rets[2]["step"] > inst
    checks.append(("attack.stale_quorum_starved", ok,
                   "the stale read outlived the install"))

    pl = setresp_payload("g/obj", genesis, 7)
    able = _signable(ctx.oracle, scn["genesis"], pl, genesis.height())
    ok = len(able) < genesis.quorum_size()
    checks.append(("attack.retained_keys_below_quorum", ok,
                   f"{sorted(able)} can still sign for the old epoch"))
    return checks


def verify_i_still_work_here(report):
    scn, bundle, ctx = report.scenario, report.bundle(), report.ctx
    genesis = genesis_config(scn["genesis"])
    target = _expected_target(scn)
    rets = _op_returns(bundle)
    inst = _first_install_step(bundle, target.cid())
    checks = []

    r = rets.get(2, {}).get("detail", {}).get("result")
    ok = bool(r) and r["anchor"] == target.cid()
    checks.append(("attack.stale_client_rescued", ok,
                   "the held-back client finished at the new configuration"))
    if r:
        w = value_from_jsonable(r["w"])
        ok = isinstance(w, FinSet) and {"alive", "late"} <= w.elems
        checks.append(("attack.values_carried_over", ok, f"w={sorted(w.elems) if ok else r['w']}"))
    else:
        checks.append(("attack.values_carried_over", False, "no return"))
    ok = inst is not None and 2 in rets and rets[2]["step"] > inst
    checks.append(("attack.stale_quorum_starved", ok,
                   "no quorum existed for the retired configuration"))

    pl = presp_payload("g/obj", genesis, [])
    able = _signable(ctx.oracle, scn["genesis"], pl, genesis.height())
    ok = not able
    checks.append(("attack.old_keys_all_dead", ok,
                   f"{sorted(able)} can still sign for the retired epoch"))

    # A full forged certificate from the retired gang: right shape, junk keys.
    iv = InputValue(FinSet({"late"}), {"kind": "any"})
    h = genesis.height()
    packs = {p: _junk(p, h) for p in scn["genesis"][:3]}
    cacks = {p: _junk(p, h) for p in scn["genesis"][:3]}
    forged = OutputCert([iv], ctx.app_obj.genesis_history, GENESIS_CERT, packs, cacks)
    ok = not verify_output(ctx.app_obj, ctx.oracle, FinSet({"late"}), forged)
    checks.append(("attack.forged_certificate_rejected", ok,
                   "an output certificate signed with retained junk fails"))
    return checks


ATTACKS = {
    "slow-reader-dbla": (slow_reader_dbla, verify_slow_reader_dbla),
    "slow-reader-maxreg": (slow_reader_maxreg, verify_slow_reader_maxreg),
    "i-still-work-here": (i_still_work_here, verify_i_still_work_here),
}
