"""The wire gate, case by case from the table itself.

Every field of every message kind in WIRE is sent missing and with a bool in
its place (a wrong type for every entry, an int's included), and so is every
field of a nested table and an element of a typed list; a signature map is
also sent as a raw dict in place of its QuorumCert. Each malformed message
goes from a probe process to a replica, which must count exactly one drop,
and to a client whose matching session waits in the phase that kind
answers, which must not change. Neither may raise or send anything.
"""

import operator

import pytest
from authority_history import check_authority_history

from dynbla.access_control import AcClient, AccessControl, AcStore
from dynbla.dbla import (
    GENESIS_CERT,
    WIRE,
    AcCert,
    ClientHub,
    DblaClient,
    DblaStore,
    DynamicObject,
    DynamicReplica,
    InputValue,
    OutputCert,
    QuorumCert,
    accept_all,
    fits,
    wire_ok,
)
from dynbla.fscrypto import FsSig, LedgerFsOracle
from dynbla.lattice import ADD, Config, FinSet, History, canon, genesis_config
from dynbla.maxreg import MaxRegClient, MaxRegStore
from dynbla.simnet import HoldRule, Msg, Simulator, Trigger

RIDS = ("r1", "r2", "r3", "r4")
GENESIS = genesis_config(RIDS)
# the anchor the waiting sessions use: the probe z is one of its replicas
ANCHOR = Config((ADD, r) for r in (*RIDS, "z"))
IV = InputValue(FinSet({"a"}), {"kind": "any"})
SIG = FsSig("z", ANCHOR.height(), b"junk")
_URB = {"origin": "z", "config": ANCHOR}

# one well-formed (object id, body) per kind
SAMPLES = {
    "urb.init": ("grp", _URB),
    "urb.echo": ("grp", {"inner": _URB, "sig": b"junk"}),
    "urb.cert": ("grp", {"inner": _URB, "cert": {}}),
    "hist.new": ("grp", {"hist": History([GENESIS, ANCHOR]), "cert": {"kind": "any"}}),
    "bla.propose": ("obj", {"sn": 1, "config": ANCHOR, "values": [IV]}),
    "bla.confirm": ("obj", {"sn": 1, "config": ANCHOR, "packs": QuorumCert({})}),
    "mr.set": ("mr", {"sn": 1, "config": ANCHOR, "v": 1, "cert": {"kind": "any"}}),
    "mr.get": ("mr", {"sn": 1, "config": ANCHOR}),
    "ac.req": ("acl", {"sn": 1, "config": ANCHOR, "slot": "s", "value": "x"}),
    "ac.confirm": ("acl", {"sn": 1, "config": ANCHOR, "slot": "s", "value": "x", "approvals": QuorumCert({})}),
    "xfer.read": ("grp", {"sn": 1, "config": GENESIS}),
    "bla.presp": ("obj", {"sn": 1, "values": [IV], "sig": SIG}),
    "bla.cresp": ("obj", {"sn": 1, "sig": SIG}),
    "mr.setresp": ("mr", {"sn": 1, "sig": SIG}),
    "mr.getresp": ("mr", {"sn": 1, "cell": None}),
    "ac.approve": ("acl", {"sn": 1, "sig": SIG}),
    "ac.deny": ("acl", {"sn": 1}),
    "ac.cresp": ("acl", {"sn": 1, "sig": SIG}),
    "xfer.resp": ("grp", {"sn": 1, "payload": {}}),
}

# the phase of the session that takes each reply
PHASES = {
    "bla.presp": "refine",
    "bla.cresp": "confirm",
    "mr.setresp": "set",
    "mr.getresp": "get",
    "ac.approve": "req",
    "ac.deny": "req",
    "ac.cresp": "confirm",
}


def mutations(body, table, path=""):
    """(label, malformed copy of body) for every field of table, recursively."""
    for name, entry in table.items():
        where = path + name
        yield f"{where}:missing", {k: v for k, v in body.items() if k != name}
        yield f"{where}:bool", {**body, name: True}
        if type(entry) is list:
            yield f"{where}:bool-element", {**body, name: [*body[name], True]}
            continue
        if type(entry) is not dict:
            continue
        for label, inner in mutations(body[name], entry, where + "."):
            yield label, {**body, name: inner}


CASES = [
    (kind, label, body)
    for kind, (_, good) in SAMPLES.items()
    for label, body in mutations(good, WIRE[kind])
]
CASES += [(kind, "body:none", None) for kind in SAMPLES]
# a signature map sent as a raw dict, not as a QuorumCert
CASES += [(kind, f"{name}:dict", {**SAMPLES[kind][1], name: {}})
          for kind, name in (("bla.confirm", "packs"), ("ac.confirm", "approvals"))]


class Probe:
    def bind(self, api):
        self.api = api

    def on_deliver(self, frm, msg):
        pass


def world(check_value=accept_all):
    oracle = LedgerFsOracle()
    sim = Simulator(5, oracle)
    obj = DynamicObject("obj", GENESIS, check_value=check_value, check_history=check_authority_history(oracle, "grp"))
    ac = AccessControl("acl", "quorum")
    roster = [*RIDS, "p", "z"]
    replicas = {}
    for r in RIDS:
        stores = [DblaStore("la", obj), MaxRegStore("mr", "mr", accept_all), AcStore("ac", ac)]
        replicas[r] = DynamicReplica("grp", GENESIS, stores, obj.check_history, roster)
        sim.spawn(r, replicas[r])
    hub = ClientHub("grp", GENESIS, obj.check_history, roster)
    DblaClient(hub, obj)
    MaxRegClient(hub, "mr", accept_all)
    AcClient(hub, ac)
    sim.spawn("p", hub)
    probe = Probe()
    sim.spawn("z", probe)
    return sim, replicas, hub, probe


def waiting(hub, kind):
    """Put the session that answers kind in its phase, anchored at ANCHOR."""
    obj, _ = SAMPLES[kind]
    for s in hub.sessions:
        if s.object_id == obj and kind in PHASES:
            s.phase, s.anchor, s.sn, s.got = PHASES[kind], ANCHOR, 1, {}
            s._done = lambda *result: pytest.fail(f"a {kind} finished an operation")


def client_state(hub):
    return hub.history, [(s.phase, dict(s.got)) for s in hub.sessions]


def deliver(kind, body):
    """Send one message from the probe to r1 and p; return the world after the run."""
    sim, replicas, hub, probe = world()
    waiting(hub, kind)
    before = client_state(hub)
    obj, _ = SAMPLES[kind]
    msg = Msg(kind, obj, body)

    def send():
        probe.api.send("r1", msg)
        probe.api.send("p", msg)

    sim.add_external(Trigger(at=0), "invoke", send, to="z", desc="probe")
    assert sim.run()["verdict"] == "quiescent"
    return sim, replicas["r1"], hub, before


def test_every_kind_has_a_sample_that_fits():
    assert set(SAMPLES) == set(WIRE)
    for kind, (obj, body) in SAMPLES.items():
        assert wire_ok(Msg(kind, obj, body)), kind
    # a token taken from a value, read-only, fits where a token dict does
    for kind in ("hist.new", "mr.set"):
        obj, body = SAMPLES[kind]
        assert wire_ok(Msg(kind, obj, {**body, "cert": IV.cert})), kind


@pytest.mark.parametrize(
    "kind, label, body", CASES, ids=[f"{kind}-{label}" for kind, label, _ in CASES]
)
def test_malformed_message_is_one_drop_at_a_replica_and_ignored_at_a_client(kind, label, body):
    obj, _ = SAMPLES[kind]
    assert not wire_ok(Msg(kind, obj, body))
    sim, r1, hub, before = deliver(kind, body)
    assert sim.metrics["sent"] == 2          # the probe's two; no reply, forward or echo
    assert r1.dropped == 1
    assert r1.buffered == []
    assert client_state(hub) == before


def test_a_waiting_session_takes_a_well_formed_reply():
    # the control for the cases above: the same delivery of a well-formed
    # getresp is counted by the waiting session
    sim, r1, hub, before = deliver("mr.getresp", SAMPLES["mr.getresp"][1])
    assert client_state(hub) != before
    (mr,) = [s for s in hub.sessions if s.object_id == "mr"]
    assert mr.got == {"z": None}


def body_hash(msg):
    """The trace hash of msg's body as it is now, not as memoised on msg."""
    return msg.copy().mhash()


def recording(sim, replicas, hub, probe, script):
    """Corrupt r4 with script once a kick has made it correct, and record
    each delivery as (recipient, kind, hash of the body it is handed)."""
    seen = []
    for pid, proc in (*replicas.items(), ("p", hub), ("z", probe)):
        def take(frm, msg, pid=pid, on_deliver=proc.on_deliver):
            seen.append((pid, msg.desc, body_hash(msg)))
            on_deliver(frm, msg)
        proc.on_deliver = take

    def byzantine(adv, ev):
        seen.append(("r4", ev.msg.desc, body_hash(ev.msg)))
        script(adv, ev)

    sim.add_external(Trigger(at=0), "invoke", lambda: probe.api.send("r4", Msg("kick", "obj", {})), to="z")
    sim.add_external(Trigger(at=2), "adversary", lambda: sim.corrupt("r4", byzantine), to="r4")
    return seen


def delivered(sim):
    return [(line["to"], line["desc"], line["hash"]) for line in sim.trace if line["kind"] == "deliver"]


def answered(sim, to):
    return sorted(line["frm"] for line in sim.trace if line["kind"] == "deliver" and line["desc"] == "bla.presp"
                  and line["to"] == to)


def propose():
    return Msg("bla.propose", "obj", {"sn": 1, "config": GENESIS, "values": [IV]})


def test_a_script_that_edits_a_received_message_in_place_edits_only_its_copy():
    # r4 is delivered the probe's proposal first, deletes its sn in place and
    # passes it on to r3; r1 and r2, delivered the probe's object later, still
    # see it whole
    sim, replicas, hub, probe = world()
    msg = propose()

    def edit(adv, ev):
        if ev.msg.desc == "bla.propose":
            del ev.msg.body["sn"]
            adv.send("r4", "r3", ev.msg)

    seen = recording(sim, replicas, hub, probe, edit)
    sim.add_hold(HoldRule(frm={"z"}, to={"r1", "r2"}, desc="bla", until=Trigger(at=10)))
    sim.add_external(Trigger(at=3), "invoke", lambda: [probe.api.send(r, msg) for r in ("r4", "r1", "r2")], to="z")
    assert sim.run()["verdict"] == "quiescent"
    assert msg.body["sn"] == 1
    assert [replicas[r].dropped for r in ("r1", "r2", "r3")] == [0, 0, 1]
    assert answered(sim, "z") == ["r1", "r2"]
    assert seen == delivered(sim)
    proposals = {to: h for to, desc, h in seen if desc == "bla.propose"}
    assert proposals["r1"] == proposals["r2"] == proposals["r4"] == body_hash(propose()) != proposals["r3"]


def test_a_script_that_edits_a_message_after_sending_it_reaches_no_earlier_recipient():
    # r4 sends one object to r1 and r2, deletes its sn and sends it to r3,
    # then empties it; each recipient sees the body as it was at its send
    sim, replicas, hub, probe = world()
    sent = {}

    def send_then_edit(adv, ev):
        if ev.msg.desc != "go":
            return
        out = sent["out"] = propose()
        adv.send("r4", "r1", out)
        adv.send("r4", "r2", out)
        del out.body["sn"]
        adv.send("r4", "r3", out)
        out.body.clear()

    seen = recording(sim, replicas, hub, probe, send_then_edit)
    sim.add_external(Trigger(at=3), "invoke", lambda: probe.api.send("r4", Msg("go", "obj", {})), to="z")
    assert sim.run()["verdict"] == "quiescent"
    assert sent["out"].body == {}
    assert [replicas[r].dropped for r in ("r1", "r2", "r3")] == [0, 0, 1]
    assert answered(sim, "r4") == ["r1", "r2"]
    assert seen == delivered(sim)
    proposals = {to: h for to, desc, h in seen if desc == "bla.propose"}
    assert proposals["r1"] == proposals["r2"] == body_hash(propose()) != proposals["r3"]


def _proposal_of(cert):
    return Msg("bla.propose", "obj", {"sn": 1, "config": GENESIS, "values": [InputValue(FinSet({"a"}), cert)]})


def _output_cert():
    # anchored at genesis, with an input value that carries a token
    return OutputCert([InputValue(FinSet({"b"}), {"kind": "any"})], History([GENESIS]), GENESIS_CERT,
                      QuorumCert({"r1": SIG}), QuorumCert({}))


def _admin_cert():
    return AcCert("admin", "acl", "s", FinSet({"a"}), None, {"d1": "aa"}, {})


# what a script tries on the input value of a proposal it is delivered, and
# the error that refuses it
VALUE_EDITS = {
    "iv.value": (_output_cert, lambda iv: setattr(iv, "value", FinSet({"forged"})), AttributeError),
    "iv.value.elems": (_output_cert, lambda iv: setattr(iv.value, "elems", frozenset({"forged"})), AttributeError),
    "iv.cert": (_output_cert, lambda iv: setattr(iv, "cert", {"kind": "any"}), AttributeError),
    "iv.cert[kind]": (lambda: GENESIS_CERT, lambda iv: operator.setitem(iv.cert, "kind", "forged"), TypeError),
    "cert.hist_cert[kind]": (_output_cert, lambda iv: operator.setitem(iv.cert.hist_cert, "kind", "forged"),
                             TypeError),
    "cert.values[0].cert[kind]": (_output_cert,
                                  lambda iv: operator.setitem(iv.cert.values[0].cert, "kind", "forged"), TypeError),
    "cert.packs": (_output_cert, lambda iv: setattr(iv.cert, "packs", QuorumCert({"r9": SIG})), AttributeError),
    "cert.values": (_output_cert, lambda iv: setattr(iv.cert, "values", ()), AttributeError),
    "admin.approvals[d9]": (_admin_cert, lambda iv: operator.setitem(iv.cert.approvals, "d9", "bb"), TypeError),
    "admin.approvals": (_admin_cert, lambda iv: setattr(iv.cert, "approvals", {"d9": "bb"}), AttributeError),
    "admin.value": (_admin_cert, lambda iv: setattr(iv.cert, "value", FinSet({"forged"})), AttributeError),
}


@pytest.mark.parametrize("edit", sorted(VALUE_EDITS))
def test_a_script_cannot_edit_a_value_object_it_is_sent(edit):
    # r4 is delivered the probe's proposal first, whose input value shares
    # its certificate with every copy, and tries the edit; it is refused, and
    # r1, delivered the probe's object later, stores the value that was sent
    # under the sent hash
    make, change, error = VALUE_EDITS[edit]
    sim, replicas, hub, probe = world()
    msg = _proposal_of(make())
    sent, encoded = body_hash(msg), msg.body["values"][0].canon()
    refused = []

    def try_edit(adv, ev):
        if ev.msg.desc == "bla.propose":
            with pytest.raises(error):
                change(ev.msg.body["values"][0])
            refused.append(edit)

    seen = recording(sim, replicas, hub, probe, try_edit)
    sim.add_hold(HoldRule(frm={"z"}, to={"r1"}, desc="bla", until=Trigger(at=10)))
    sim.add_external(Trigger(at=3), "invoke", lambda: [probe.api.send(r, msg) for r in ("r4", "r1")], to="z")
    assert sim.run()["verdict"] == "quiescent"
    assert refused == [edit]
    assert seen == delivered(sim)
    assert [h for to, desc, h in seen if desc == "bla.propose"] == [sent, sent]
    stored = list(replicas["r1"].stores[0].vals.values())
    assert [iv.value for iv in stored] == [FinSet({"a"})]
    assert [canon(["iv", iv.value, iv.cert]) for iv in stored] == [encoded]
    assert body_hash(_proposal_of(make())) == sent
    assert GENESIS_CERT == {"kind": "genesis"}


# what only a Byzantine sender sends: (recipient, body), a bla.presp to the
# client p or a bla.propose to r1. A presp carrying a value the object's
# check refuses, a presp whose values differ from the client's set (it holds
# IV), and a request at the served configuration for an object no store of
# the replica holds.
BYZANTINE_ONLY = {
    "presp-invalid-value": ("p", {"sn": 1, "values": [InputValue(FinSet({"x"}), {"kind": "forged"})], "sig": SIG}),
    "presp-other-values": ("p", {"sn": 1, "values": [], "sig": SIG}),
    "request-no-store-takes": ("r1", {"sn": 1, "config": GENESIS, "values": [IV]}),
}


@pytest.mark.parametrize("case", sorted(BYZANTINE_ONLY))
def test_a_reply_or_request_that_only_a_byzantine_sender_makes_is_ignored_or_dropped(case):
    # r4, corrupted, sends the message on a go from the probe; the waiting
    # client ignores a presp, and r1 counts a request no store takes as one
    # drop; neither answers
    to, body = BYZANTINE_ONLY[case]
    msg = Msg("bla.presp", "obj", body) if to == "p" else Msg("bla.propose", "nobody", body)
    sim, replicas, hub, probe = world(check_value=lambda value, cert: cert == {"kind": "any"})
    waiting(hub, "bla.presp")
    (client,) = [s for s in hub.sessions if isinstance(s, DblaClient)]
    client.vals = {IV.canon(): IV}
    before = client_state(hub)

    def script(adv, ev):
        if ev.msg.desc == "go":
            adv.send("r4", to, msg)

    seen = recording(sim, replicas, hub, probe, script)
    sim.add_external(Trigger(at=3), "invoke", lambda: probe.api.send("r4", Msg("go", "obj", {})), to="z")
    assert sim.run()["verdict"] == "quiescent"
    assert (to, msg.desc) in [(pid, desc) for pid, desc, _ in seen]
    assert client_state(hub) == before and client.restarts == 0 and client.vals == {IV.canon(): IV}
    assert replicas["r1"].dropped == (to == "r1")
    assert [line for line in sim.trace if line["frm"] in ("p", "r1") and line["kind"] == "deliver"] == []


def _proposal_with_packs():
    return _proposal_of(_output_cert())


def _confirm_with_approvals():
    body = {"sn": 1, "config": GENESIS, "slot": "s", "value": "x", "approvals": QuorumCert({"r1": SIG})}
    return Msg("ac.confirm", "acl", body)


# kind: (a message of that kind, the quorum certificate it carries)
QUORUM_CERTS = {
    "bla.propose": (_proposal_with_packs, lambda msg: msg.body["values"][0].cert.packs),
    "ac.confirm": (_confirm_with_approvals, lambda msg: msg.body["approvals"]),
}


@pytest.mark.parametrize("kind", sorted(QUORUM_CERTS))
def test_a_script_cannot_add_a_signer_to_a_quorum_certificate_it_is_sent(kind):
    # r4 is delivered the probe's message first and tries to add r9 to the
    # signatures of a quorum certificate in it; r1, delivered the probe's
    # object later, reads the signers that were sent, under the sent hash
    make, quorum = QUORUM_CERTS[kind]
    sim, replicas, hub, probe = world()
    msg = make()
    sent = body_hash(msg)
    refused, signers = [], []

    def edit(adv, ev):
        if ev.msg.desc == kind:
            with pytest.raises(TypeError):
                quorum(ev.msg).sigs["r9"] = SIG
            refused.append(kind)

    seen = recording(sim, replicas, hub, probe, edit)
    r1_deliver = replicas["r1"].on_deliver

    def r1_reads(frm, m):
        if m.desc == kind:
            signers.append(sorted(quorum(m).sigs))
        r1_deliver(frm, m)

    replicas["r1"].on_deliver = r1_reads
    sim.add_hold(HoldRule(frm={"z"}, to={"r1"}, until=Trigger(at=10)))
    sim.add_external(Trigger(at=3), "invoke", lambda: [probe.api.send(r, msg) for r in ("r4", "r1")], to="z")
    assert sim.run()["verdict"] == "quiescent"
    assert refused == [kind]
    assert signers == [["r1"]]
    assert seen == delivered(sim)
    assert [h for to, desc, h in seen if desc == kind] == [sent, sent]
    assert [line["frm"] for line in sim.trace if line["kind"] == "deliver" and line["to"] == "z"] == ["r1"]


def test_a_quorum_certificate_refuses_rebinding():
    qc = QuorumCert({"r1": SIG})
    for name in ("sigs", "other"):
        with pytest.raises(AttributeError):
            setattr(qc, name, {})
        with pytest.raises(AttributeError):
            delattr(qc, name)
    assert dict(qc.sigs) == {"r1": SIG}


def test_fits_checks_lists_of_tables_and_str_keyed_maps():
    table = {"rows": {str: {"h": int}}, "hist": [{"cid": str}], "st": {str: int}}
    good = {"rows": {"r1": {"h": 1}}, "hist": [{"cid": "c"}], "st": {"r1": 2}}
    assert fits(good, table) and fits({**good, "rows": {}, "hist": [], "st": {}}, table)
    for bad in ({**good, "rows": {"r1": {"h": "1"}}}, {**good, "rows": {1: {"h": 1}}}, {**good, "rows": []},
                {**good, "hist": [{"cid": 1}]}, {**good, "hist": [5]}, {**good, "st": {"r1": True}}):
        assert not fits(bad, table), bad
