"""The wire gate, case by case from the table itself.

Every field of every message kind in WIRE is sent missing and with a bool in
its place (a wrong type for every entry, an int's included), and so is every
field of a nested table and an element of a typed list. Each malformed message goes from a probe process to a
replica, which must count exactly one drop, and to a client whose matching
session waits in the phase that kind answers, which must not change. Neither
may raise or send anything.
"""

import pytest
from authority_history import check_authority_history

from dynbla.access_control import AcClient, AccessControl, AcStore
from dynbla.dbla import (
    WIRE,
    ClientHub,
    DblaClient,
    DblaStore,
    DynamicObject,
    DynamicReplica,
    InputValue,
    accept_all,
    fits,
    wire_ok,
)
from dynbla.fscrypto import FsSig, LedgerFsOracle
from dynbla.lattice import ADD, Config, FinSet, History, genesis_config
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
    "bla.confirm": ("obj", {"sn": 1, "config": ANCHOR, "packs": {}}),
    "mr.set": ("mr", {"sn": 1, "config": ANCHOR, "v": 1, "cert": {"kind": "any"}}),
    "mr.get": ("mr", {"sn": 1, "config": ANCHOR}),
    "ac.req": ("acl", {"sn": 1, "config": ANCHOR, "slot": "s", "value": "x"}),
    "ac.confirm": ("acl", {"sn": 1, "config": ANCHOR, "slot": "s", "value": "x", "approvals": {}}),
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


class Probe:
    def bind(self, api):
        self.api = api

    def on_deliver(self, frm, msg):
        pass


def world():
    oracle = LedgerFsOracle()
    sim = Simulator(5, oracle)
    obj = DynamicObject("obj", GENESIS, check_value=accept_all, check_history=check_authority_history(oracle, "grp"))
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


def test_a_script_that_edits_a_message_in_place_leaves_a_later_recipient_a_drop():
    # one message object reaches every recipient: r1 takes it, then Byzantine
    # r4 deletes its sn, so the copy held for r2 no longer fits when it lands
    sim, replicas, hub, probe = world()
    msg = Msg("bla.propose", "obj", {"sn": 1, "config": GENESIS, "values": [IV]})

    def edit(adv, ev):
        if ev.msg is msg:
            del ev.msg.body["sn"]

    sim.add_hold(HoldRule(frm={"z"}, to={"r4"}, desc="bla", until=Trigger(at=5)))
    sim.add_hold(HoldRule(frm={"z"}, to={"r2"}, desc="bla", until=Trigger(at=20)))
    sim.add_external(Trigger(at=0), "invoke", lambda: probe.api.send("r4", Msg("kick", "obj", {})), to="z")
    sim.add_external(Trigger(at=2), "adversary", lambda: sim.corrupt("r4", edit), to="r4")
    sim.add_external(Trigger(at=3), "invoke", lambda: [probe.api.send(r, msg) for r in ("r1", "r4", "r2")], to="z")
    assert sim.run()["verdict"] == "quiescent"
    assert "sn" not in msg.body
    assert (replicas["r1"].dropped, replicas["r2"].dropped) == (0, 1)
    assert sim.metrics["sent"] == 5          # the probe's four and r1's presp; r2 answers nothing


def test_a_parked_request_edited_in_place_is_dropped_when_regated():
    sim, replicas, hub, probe = world()
    r2 = replicas["r2"]
    msg = Msg("bla.propose", "obj", {"sn": 1, "config": ANCHOR, "values": [IV]})
    r2.on_deliver("z", msg)
    assert r2.buffered == [("z", msg)]      # ANCHOR is above r2's history: parked
    del msg.body["config"]
    r2._regate()
    assert r2.buffered == [] and r2.dropped == 1


def test_fits_checks_lists_of_tables_and_str_keyed_maps():
    table = {"rows": {str: {"h": int}}, "hist": [{"cid": str}], "st": {str: int}}
    good = {"rows": {"r1": {"h": 1}}, "hist": [{"cid": "c"}], "st": {"r1": 2}}
    assert fits(good, table) and fits({**good, "rows": {}, "hist": [], "st": {}}, table)
    for bad in ({**good, "rows": {"r1": {"h": "1"}}}, {**good, "rows": {1: {"h": 1}}}, {**good, "rows": []},
                {**good, "hist": [{"cid": 1}]}, {**good, "hist": [5]}, {**good, "st": {"r1": True}}):
        assert not fits(bad, table), bad
