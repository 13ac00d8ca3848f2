"""Invariant checks over a run bundle.

Every check works from the serialized bundle (scenario, trace, final,
signature ledger) so the same code validates a live run and a trace file
loaded later, which load_trace has checked against runner.TRACE_SHAPES.
run_checks builds one offline view of the group per bundle, with a
LedgerVerifier standing in for the signature oracle and the trace read once
(runner.read_ops) into view.ops, an OpRecord per scenario op,
view.installs and view.corrupted; the checks of returned results walk _returns. Certificates
embedded in operation returns are rebuilt and re-verified against it.
"""

from __future__ import annotations

from ..access_control import AcCert, verify_cert
from ..dbla import OutputCert, QuorumCert, verify_output
from ..fscrypto import LedgerVerifier
from ..lattice import FinSet, quorum_size, value_from_jsonable
from ..maxreg import setresp_payload
from .runner import APP_OBJ, build_objects, read_ops


def rebuild_view(bundle):
    """The objects a bundle's run was built from, over its ledger, and its trace's view.ops,
    view.installs and view.corrupted."""
    view = build_objects(bundle["scenario"], LedgerVerifier(bundle.get("ledger") or []))
    view.ops, view.installs, view.corrupted = read_ops(bundle["trace"], len(bundle["scenario"]["ops"]))
    return view


def _returns(view, *kinds):
    """(idx, op, result) for each OpRecord op of one of kinds that returned without an error, by index."""
    for idx, op in sorted(view.ops.items()):
        if (op.spec or {}).get("op") in kinds and op.result and not op.result.get("error"):
            yield idx, op, op.result


def _has_forever_hold(scn):
    return any(h.get("until") is None for h in scn["adversary"]["holds"])


# -- individual checks ---------------------------------------------------------


def check_liveness(bundle, view):
    """Every op of a correct client returns without an error; a client whose corruption applied is
    not correct, and its ops are not counted."""
    specs = bundle["scenario"]["ops"]
    ops = {i: op for i, op in view.ops.items() if i >= len(specs) or specs[i]["client"] not in view.corrupted}
    missing = [i for i, op in ops.items() if op.returned_at is None]
    busy = [i for i, op in ops.items() if op.result and op.result.get("error")]
    return ("liveness.all_ops_return", not missing and not busy,
            f"{len(ops)} ops, missing={missing}, errored={busy}")


def check_certificates(bundle, view):
    """Re-verify every certificate embedded in an operation return.

    Each return's certificate is self-contained (OutputCert.to_jsonable).
    Decoding shares one memo across the returns (see
    OutputCert.from_jsonable): each configuration is decoded once per
    bundle, keyed by its verified cid, a node that several returns of a
    live bundle hold is decoded and framed once, and a loaded trace's nodes
    are decoded return by return, each return once per node of its DAG.
    """
    memo = {}
    bad = []
    for idx, op, r in _returns(view, "propose", "update_config", "write", "read", "ac_request"):
        kind = op.spec["op"]
        try:
            if kind == "propose":
                w = value_from_jsonable(r["w"])
                cert = OutputCert.from_jsonable(r["cert"], memo)
                if not verify_output(view.app_obj, view.oracle, w, cert):
                    bad.append(idx)
            elif kind == "update_config" and not r.get("denied"):
                h = value_from_jsonable(r["hist"])
                th = OutputCert.from_jsonable(r["cert"], memo)
                if not view.grp.check_history(h, th):
                    bad.append(idx)
            elif kind in ("write", "read"):
                ack = r.get("ack")
                if ack is None:
                    continue
                cfg = value_from_jsonable(ack["cfg"])
                pl = setresp_payload(APP_OBJ, cfg, ack["v"])
                if not QuorumCert.from_jsonable(ack["acks"]).verify(view.oracle, cfg, pl, cfg.quorum_size()):
                    bad.append(idx)
            elif kind == "ac_request" and r.get("granted"):
                cert = AcCert.from_jsonable(r["cert"])
                if not verify_cert(view.ac, view.oracle, cert):
                    bad.append(idx)
                elif cert.slot != r["slot"] or cert.value != r["value"]:
                    bad.append(idx)
        except (AttributeError, KeyError, TypeError, ValueError):
            bad.append(idx)
    return ("safety.certificates_verify", not bad, f"failed ops: {bad}")


def check_dbla_outputs(bundle, view):
    """Pairwise comparability of outputs plus each proposer's own inclusion."""
    outs = []
    bad = []
    for idx, op, r in _returns(view, "propose"):
        try:
            w, own = value_from_jsonable(r["w"]), set(op.spec.get("value", []))
        except (AttributeError, KeyError, TypeError, ValueError):
            bad.append((idx, "malformed"))
            continue
        if not isinstance(w, FinSet):
            bad.append((idx, "not a set"))
            continue
        if not own <= w.elems:
            bad.append((idx, "own value missing"))
        outs.append((idx, w))
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            a, b = outs[i][1], outs[j][1]
            if not (a.elems <= b.elems or b.elems <= a.elems):
                bad.append((outs[i][0], outs[j][0], "incomparable"))
    return ("safety.dbla_outputs", not bad, f"violations: {bad}")


def check_key_update_audit(bundle, view):
    """At every install, superseded configurations must be mostly re-keyed.

    For each configuration strictly below the installed one, at least a
    quorum minus the Byzantine members must have moved their signing
    watermark past that configuration's epoch.
    """
    bad = []
    for line in view.installs:
        d = line["detail"]
        st, status = d["st"], d["status"]
        for cfg in d["hist"]:
            if cfg["h"] >= d["h"]:
                continue
            members = cfg["replicas"]
            byz = sum(1 for r in members if status.get(r) == "B")
            fresh = sum(1 for r in members if st.get(r, 0) > cfg["h"])
            need = quorum_size(len(members)) - byz
            if fresh < need:
                bad.append({"at": line["to"], "step": line["step"], "cfg": cfg["cid"],
                            "fresh": fresh, "need": need})
    return ("safety.key_update_audit", not bad, f"stale epochs: {bad}")


def check_installs(bundle, view):
    """A correct replica's installs are in some correct history, its gates in its own, and its install
    upcalls in its final state."""
    finals, statuses = bundle["final"]["replicas"], bundle["final"]["statuses"]
    known = set()
    for pid, f in finals.items():
        if statuses.get(pid) in ("C", "I"):
            known.update(f["history"])
    bad = []
    for pid, f in finals.items():
        if statuses.get(pid) != "C":
            continue
        for cid in f["installed"]:
            if cid not in known:
                bad.append((pid, cid))
        if f["cinst"] not in f["history"] or f["ccurr"] not in f["history"]:
            bad.append((pid, "gate out of history"))
    for line in view.installs:
        pid, cid = line["to"], line["detail"]["cid"]
        if statuses.get(pid) == "C" and (pid not in finals or cid not in finals[pid]["installed"]):
            bad.append((pid, cid, "install upcall not in final"))
    return ("safety.installs_certified", not bad, f"violations: {bad}")


def check_convergence(bundle, view):
    """Correct replicas hold comparable histories; quiet runs agree exactly; the head's verdict
    fits the step count: cap exactly at the scenario's max_steps, and no run steps past it."""
    finals, statuses = bundle["final"]["replicas"], bundle["final"]["statuses"]
    rows = [(p, f) for p, f in sorted(finals.items()) if statuses.get(p) in ("C", "I")]
    bad = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = set(rows[i][1]["history"]), set(rows[j][1]["history"])
            if not (a <= b or b <= a):
                bad.append((rows[i][0], rows[j][0], "incomparable histories"))
    strict = bundle["verdict"] == "quiescent" and not _has_forever_hold(bundle["scenario"])
    if strict and rows:
        longest = max((f["history"] for _, f in rows), key=len)
        for p, f in rows:
            if statuses.get(p) != "C":
                continue
            if f["history"] != longest:
                bad.append((p, "history not fully adopted"))
            if f["member"] and f["cinst"] != f["chighest"]:
                bad.append((p, "member did not install the top configuration"))
    steps, cap = bundle["steps"], bundle["scenario"]["max_steps"]
    if steps > cap or (bundle["verdict"] == "cap") != (steps == cap):
        bad.append(("head", f"verdict {bundle['verdict']} at steps={steps} of max_steps={cap}"))
    return ("safety.replica_convergence", not bad, f"violations: {bad}")


def _int(x) -> bool:
    return type(x) is int


def check_maxreg(bundle, view):
    """Atomic register semantics over completed operation intervals."""
    writes, reads, bad = [], [], []
    for idx, op, r in _returns(view, "write", "read"):
        if op.spec["op"] == "read":
            into, v = reads, r.get("v")
            ok = "v" in r and (v is None or _int(v))
        elif r.get("ack"):
            into, v, ok = writes, op.spec.get("value"), _int(op.spec.get("value"))
        else:
            continue
        if not (ok and _int(op.invoked_at) and _int(op.returned_at)):
            bad.append((idx, "malformed"))
            continue
        into.append({"idx": idx, "v": v, "inv": op.invoked_at, "ret": op.returned_at})
    vals = {w["v"] for w in writes}
    for r in reads:
        if r["v"] is not None and r["v"] not in vals:
            bad.append((r["idx"], "read invented a value"))
        floor = max((w["v"] for w in writes if w["ret"] < r["inv"]), default=None)
        if floor is not None and (r["v"] is None or r["v"] < floor):
            bad.append((r["idx"], f"read {r['v']} after write {floor} completed"))
    for a in reads:
        for b in reads:
            if a["ret"] < b["inv"] and a["v"] is not None:
                if b["v"] is None or b["v"] < a["v"]:
                    bad.append((a["idx"], b["idx"], "reads went backwards"))
    return ("safety.maxreg_atomic", not bad, f"violations: {bad}")


def check_ac_at_most_one(bundle, view):
    slots, malformed = {}, []
    for idx, _, r in _returns(view, "ac_request"):
        if not r.get("granted"):
            continue
        if type(r.get("slot")) is str and type(r.get("value")) is str:
            slots.setdefault(r["slot"], set()).add(r["value"])
        else:
            malformed.append(idx)
    bad = {s: sorted(vs) for s, vs in slots.items() if len(vs) > 1}
    return ("safety.ac_at_most_one", not bad and not malformed,
            f"conflicting grants: {bad}, malformed grants: {malformed}")


def _updates_invoked(view) -> int:
    """k, the number of update_config operations the trace records as invoked."""
    return sum(1 for op in view.ops.values() if (op.spec or {}).get("op") == "update_config")


def check_xfer_bound(bundle, view):
    """State transfer reads from at most k + 1 configurations."""
    k = _updates_invoked(view)
    targets = bundle["final"]["xfer_targets"]
    ok = len(targets) <= k + 1
    return ("perf.xfer_targets_linear", ok, f"k={k}, distinct transfer sources={len(targets)}")


def check_history_len(bundle, view):
    """Returned update_config histories and install upcalls' hists hold at most k + 1
    configurations: no chain of distinct joins of k updates with genesis is longer."""
    k = _updates_invoked(view)
    bad = [(line["to"], line["step"]) for line in view.installs if len(line["detail"]["hist"]) > k + 1]
    for idx, _, r in _returns(view, "update_config"):
        try:
            if "cert" in r and len(r["hist"]["hist"]) > k + 1:
                bad.append(idx)
        except (KeyError, TypeError):
            bad.append((idx, "malformed"))
    return ("perf.history_len", not bad, f"k={k}, over k + 1 (op, or install at replica and step): {bad}")


def check_cert_nodes(bundle, view):
    """A returned agreement certificate writes at most 2(h - h0) + 1 nodes.

    h is the height of the configuration it anchors at (propose), or the
    top of the history it returns (update_config), which a concurrent
    update can raise above its own target; h0 is the genesis height. Below
    the root, the DAG holds a configuration certificate and a history
    certificate per step of height, so a return that writes more has
    written some node more than once. The JSON writes the root and one
    "shared" entry per nested certificate (OutputCert.to_jsonable), so the
    count is 1 + len(shared), read undecoded and at no hashing cost.
    """
    h0 = view.genesis.height()
    bad = []
    for idx, op, r in _returns(view, "propose", "update_config"):
        if "cert" not in r:
            continue
        try:
            h = r["anchor_h"] if op.spec["op"] == "propose" else max(len(c) for c in r["hist"]["hist"])
            nodes = 1 + len(r["cert"].get("shared", ()))
            if nodes > 2 * (h - h0) + 1:
                bad.append((idx, nodes, h))
        except (AttributeError, KeyError, TypeError, ValueError):
            bad.append((idx, "malformed"))
    return ("perf.cert_nodes_linear", not bad, f"h0={h0}, over the bound (op, nodes, h): {bad}")


# The checks of each app kind's own semantics
APP_CHECKS = {"dbla": [check_dbla_outputs], "maxreg": [check_maxreg], "none": []}


def run_checks(bundle):
    """All applicable checks for this bundle; (name, ok, info) triples."""
    scn = bundle["scenario"]
    view = rebuild_view(bundle)
    checks = [check_liveness, check_certificates, check_cert_nodes, check_key_update_audit, check_installs,
              check_convergence, check_xfer_bound, check_history_len, *APP_CHECKS[scn["app"]["kind"]]]
    if scn["acl"]["mode"] == "quorum":
        checks.append(check_ac_at_most_one)
    return [c(bundle, view) for c in checks]
