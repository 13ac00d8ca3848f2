"""The responder filter shared by every QuorumSession: each client session
and a replica's state transfer (XferSession)."""

import pytest

import dynbla.access_control
import dynbla.dbla
import dynbla.maxreg
from dynbla.access_control import AccessControl, AcClient, appr_payload
from dynbla.dbla import (
    ClientHub,
    DblaClient,
    DblaStore,
    DynamicObject,
    DynamicReplica,
    InputValue,
    open_input,
    presp_payload,
)
from dynbla.fscrypto import FsSig, LedgerFsOracle
from dynbla.lattice import ADD, Config, FinSet, History, genesis_config
from dynbla.maxreg import MaxRegClient, setresp_payload
from dynbla.simnet import Api, Msg

RIDS = ("r1", "r2", "r3", "r4")


class CountingOracle(LedgerFsOracle):
    def __init__(self):
        super().__init__()
        self.verified = 0

    def fs_verify(self, msg, pid, sig, ts):
        self.verified += 1
        return super().fs_verify(msg, pid, sig, ts)


class StubApi:
    pid = "c"

    def __init__(self, oracle):
        self.oracle = oracle

    def send(self, to, msg):
        pass

    def send_all(self, tos, msg):
        pass


def _dbla(hub, done):
    s = DblaClient(hub, DynamicObject("obj", hub.genesis, check_value=open_input(lambda v: type(v) is FinSet)))
    s.propose(FinSet({"a"}), {"kind": "any"}, done)

    def reply(sig, sn):
        return Msg("bla.presp", "obj", {"values": s._sorted_vals(), "sig": sig, "sn": sn})

    return s, reply, lambda: presp_payload("obj", s.anchor, s._sorted_vals())


def _maxreg(hub, done):
    s = MaxRegClient(hub, DynamicObject("mr", hub.genesis, check_value=open_input(lambda v: type(v) is int)))
    s.write(5, {"kind": "any"}, done)

    def reply(sig, sn):
        return Msg("mr.setresp", "mr", {"sig": sig, "sn": sn})

    return s, reply, lambda: setresp_payload("mr", s.anchor, 5)


def _ac(hub, done):
    s = AcClient(hub, AccessControl("ac", "quorum"))
    s.request("slot", "x", done)

    def reply(sig, sn):
        return Msg("ac.approve", "ac", {"sig": sig, "sn": sn})

    return s, reply, lambda: appr_payload("ac", s.anchor, "slot", "x")


# where each session's first signed round gets its expected payload
PAYLOAD_OF = {_dbla: (dynbla.dbla, "presp_payload"), _maxreg: (dynbla.maxreg, "setresp_payload"),
              _ac: (dynbla.access_control, "appr_payload")}
SESSIONS = pytest.mark.parametrize("make", [_dbla, _maxreg, _ac], ids=["dbla", "maxreg", "ac"])


def client_world():
    oracle = CountingOracle()
    for pid in RIDS + ("r5", "x9"):
        oracle.register(pid)
    genesis = genesis_config(RIDS)
    hub = ClientHub("grp", genesis, DynamicObject("h", genesis).check_history, list(RIDS) + ["r5", "c"])
    hub.bind(StubApi(oracle))
    return oracle, hub, genesis


@SESSIONS
def test_responder_filter_counts_only_fresh_signed_member_replies(make):
    oracle, hub, genesis = client_world()
    returned = []
    session, reply, payload = make(hub, lambda *out: returned.append(out))
    h = genesis.height()

    def signed(frm, sn=None):
        sig = oracle.fs_sign(frm, payload(), h)
        return reply(sig, session.sn if sn is None else sn)

    assert session.on_deliver("r1", signed("r1"))
    assert list(session.got) == ["r1"]
    before = (dict(session.got), session.phase, session.sn)
    filtered = [
        ("r2", signed("r2", sn=session.sn - 1)),  # stale sn
        ("x9", signed("x9")),  # not a member of the anchor
        ("r1", signed("r1")),  # already counted
    ]
    for frm, msg in filtered:
        checked = oracle.verified
        assert session.on_deliver(frm, msg)
        assert oracle.verified == checked  # dropped before any signature check
        assert (session.got, session.phase, session.sn) == before
    assert session.on_deliver("r2", reply(FsSig("r2", h, b"\x00" * 32), session.sn))  # bad signature
    assert (session.got, session.phase, session.sn) == before
    assert returned == []

    # two more genuine replies make a quorum of the four replicas
    session.on_deliver("r2", signed("r2"))
    session.on_deliver("r3", signed("r3"))
    assert returned or session.phase == "confirm"


@SESSIONS
def test_a_reply_signed_over_the_previous_rounds_payload_is_not_counted_after_a_restart(make):
    oracle, hub, genesis = client_world()
    session, reply, payload = make(hub, lambda *out: None)
    old = payload()
    session.on_deliver("r1", reply(oracle.fs_sign("r1", old, genesis.height()), session.sn))
    assert list(session.got) == ["r1"]

    # adopting a longer history restarts the session at its top configuration
    c1 = genesis.join(Config([(ADD, "r5")]))
    hub.history = History([genesis, c1])
    hub._adopted()
    assert (session.anchor, session.got) == (c1, {})
    assert payload() != old
    h1 = c1.height()
    for frm in ("r1", "r2"):
        assert session.on_deliver(frm, reply(oracle.fs_sign(frm, old, h1), session.sn))
    assert session.got == {}
    session.on_deliver("r2", reply(oracle.fs_sign("r2", payload(), h1), session.sn))
    assert list(session.got) == ["r2"]


@SESSIONS
def test_a_rounds_payload_is_built_once(make, monkeypatch):
    oracle, hub, genesis = client_world()
    module, name = PAYLOAD_OF[make]
    build = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(module, name, counting)
    session, reply, payload = make(hub, lambda *out: None)
    pl, h, sn = payload(), genesis.height(), session.sn
    calls.clear()
    # a bad signature and two good replies, short of the round's quorum of three
    session.on_deliver("r1", reply(FsSig("r1", h, b"\x00" * 32), sn))
    session.on_deliver("r2", reply(oracle.fs_sign("r2", pl, h), sn))
    session.on_deliver("r3", reply(oracle.fs_sign("r3", pl, h), sn))
    assert list(session.got) == ["r2", "r3"] and session.sn == sn
    assert len(calls) == 1


class RecordingSim:
    """What a replica's Api reaches of its simulator, recording every message
    it sends in sent."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.sent = []

    def _send(self, frm, tos, msg):
        self.sent.extend((to, msg) for to in tos)

    def trace_aux(self, kind, pid, desc, detail):
        pass

    def note_fact(self, name):
        pass


def joining_replica():
    """r5, joining genesis r1-r4 as C1, has adopted [genesis, C1] and reads genesis."""
    oracle = LedgerFsOracle()
    for pid in RIDS + ("r5", "x9"):
        oracle.register(pid)
    genesis = genesis_config(RIDS)
    c1 = genesis.join(Config([(ADD, "r5")]))
    store = DblaStore("obj", DynamicObject("obj", genesis, check_value=open_input(lambda v: type(v) is FinSet)))
    rep = DynamicReplica("grp", genesis, [store], lambda h, cert: True, [*RIDS, "r5"])
    api = RecordingSim(oracle)
    rep.bind(Api(api, "r5"))
    rep.history = History([genesis, c1])
    rep._advance_xfer()
    assert (rep.xfer.phase, rep.xfer.anchor) == ("read", genesis)
    assert [(to, m.desc, m.body["config"]) for to, m in api.sent] == [(r, "xfer.read", genesis) for r in RIDS]
    return rep, api, store, genesis, c1


def resp(sn, tag):
    iv = InputValue(FinSet({tag}), {"kind": "any"})
    return Msg("xfer.resp", "grp", {"sn": sn, "payload": {"obj": [iv]}})


def held(store):
    return {tag for iv in store.vals.values() for tag in iv.value.elems}


def test_state_transfer_counts_one_fresh_reply_per_member():
    rep, api, store, genesis, c1 = joining_replica()
    sn = rep.xfer.sn
    rep.on_deliver("r1", resp(sn, "r1"))
    for frm, msg in [
        ("r2", resp(sn - 1, "stale")),      # stale sn
        ("x9", resp(sn, "x9")),             # not a member of genesis
        ("r1", resp(sn, "again")),          # already counted
    ]:
        rep.on_deliver(frm, msg)
    assert held(store) == {"r1"} and list(rep.xfer.got) == ["r1"]
    rep.on_deliver("r2", resp(sn, "r2"))
    del api.sent[:]
    rep.on_deliver("r3", resp(sn, "r3"))
    # a quorum of genesis: transferred, so r5 announces its completion for C1
    # to the other replicas of C1 and takes its own announcement locally,
    # echoing it to them
    assert held(store) == {"r1", "r2", "r3"}
    assert rep.xfer.transferred == {genesis} and not rep.xfer.busy()
    assert rep.ccurr == c1
    assert [(to, m.desc) for to, m in api.sent] == [(r, d) for d in ("urb.init", "urb.echo") for r in RIDS]
    assert api.sent[0][1].body == {"origin": "r5", "config": c1}
    assert not rep.api.local
    assert rep.xfer_targets_sent == {genesis.cid()}
    assert rep.dropped == 0


def test_state_transfer_abandoned_by_an_install_ignores_late_replies():
    # C1 installs from others' votes while r5 still reads genesis: the read
    # is abandoned, and a reply to it no longer merges
    rep, api, store, genesis, c1 = joining_replica()
    sn = rep.xfer.sn
    rep.install_votes[c1] = {"r1", "r2", "r3", "r4"}
    rep._check_installs()
    assert rep.ccurr == c1 and not rep.xfer.busy()
    rep.on_deliver("r1", resp(sn, "late"))
    assert held(store) == set() and rep.xfer.transferred == set()
