"""The responder filter shared by every client session (QuorumSession)."""

import pytest

from dynbla.access_control import AccessControl, AcClient, appr_payload
from dynbla.dbla import ClientHub, DblaClient, DynamicObject, accept_all, presp_payload
from dynbla.fscrypto import FsSig, LedgerFsOracle
from dynbla.lattice import FinSet, genesis_config
from dynbla.maxreg import MaxRegClient, setresp_payload
from dynbla.simnet import Msg

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


def _dbla(hub, done):
    s = DblaClient(hub, DynamicObject("obj", hub.genesis, check_value=accept_all))
    s.propose(FinSet({"a"}), {"kind": "any"}, done)

    def reply(sig, sn):
        return Msg("bla.presp", "obj", {"values": s._sorted_vals(), "sig": sig, "sn": sn})

    return s, reply, lambda: presp_payload("obj", s.anchor, s._sorted_vals())


def _maxreg(hub, done):
    s = MaxRegClient(hub, "mr", accept_all)
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


@pytest.mark.parametrize("make", [_dbla, _maxreg, _ac], ids=["dbla", "maxreg", "ac"])
def test_responder_filter_counts_only_fresh_signed_member_replies(make):
    oracle = CountingOracle()
    for pid in RIDS + ("x9",):
        oracle.register(pid)
    genesis = genesis_config(RIDS)
    hub = ClientHub("grp", genesis, DynamicObject("h", genesis).check_history, list(RIDS) + ["c"])
    hub.bind(StubApi(oracle))
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
