"""The replica's answers, kind by kind from the stores' SERVES tables.

A probe sends each request kind a store serves to a replica at its
installed configuration. The replica answers exactly once, with the
request's sn, and signs at that configuration's height. Once its keys
moved past that height it withholds every signed answer, which is what
starves a superseded configuration's quorum, while unsigned answers (a
max-register read, an access-control denial) still go out.
"""

import pytest

from dynbla.access_control import AcStore
from dynbla.dbla import REQUESTS, WIRE, DblaStore
from dynbla.fscrypto import FsSig
from dynbla.maxreg import MaxRegStore
from dynbla.simnet import Msg, Trigger
from test_wire import GENESIS, SAMPLES, world

SERVED = [kind for store in (DblaStore, MaxRegStore, AcStore) for kind in store.SERVES]
# the answer to each request kind
ANSWERS = {
    "bla.propose": "bla.presp",
    "bla.confirm": "bla.cresp",
    "mr.set": "mr.setresp",
    "mr.get": "mr.getresp",
    "ac.req": "ac.approve",
    "ac.confirm": "ac.cresp",
}
SN = 7


def ask(kind, rekey=False, deny=False):
    """Send one kind from the probe z to r1 at GENESIS; return what z got."""
    sim, replicas, hub, probe = world()
    r1 = replicas["r1"]
    got = []
    probe.on_deliver = lambda frm, msg: got.append((frm, msg))
    if rekey:
        sim.oracle.update_fs_keys("r1", GENESIS.height() + 1)
    if deny:
        (acl,) = [s for s in r1.stores if isinstance(s, AcStore)]
        acl.approved["s"] = "another value"
    obj, body = SAMPLES[kind]
    msg = Msg(kind, obj, {**body, "sn": SN, "config": GENESIS})
    sim.add_external(Trigger(at=0), "invoke", lambda: probe.api.send("r1", msg), to="z", desc="probe")
    assert sim.run()["verdict"] == "quiescent"
    assert r1.dropped == 0 and r1.buffered == []
    return got


def signed(kind) -> bool:
    return "sig" in WIRE[ANSWERS[kind]]


def test_the_stores_serve_every_request_but_the_transfer_read():
    assert set(SERVED) == set(ANSWERS) == REQUESTS - {"xfer.read"}
    assert len(SERVED) == len(set(SERVED))      # one store per kind


@pytest.mark.parametrize("kind", SERVED)
def test_a_request_gets_one_answer_signed_at_its_configuration(kind):
    obj, _ = SAMPLES[kind]
    got = ask(kind)
    assert len(got) == 1
    frm, answer = got[0]
    assert (frm, answer.desc, answer.obj, answer.body["sn"]) == ("r1", ANSWERS[kind], obj, SN)
    if signed(kind):
        sig = answer.body["sig"]
        assert isinstance(sig, FsSig) and (sig.signer, sig.ts) == ("r1", GENESIS.height())


@pytest.mark.parametrize("kind", [k for k in SERVED if signed(k)])
def test_a_replica_past_the_configurations_keys_withholds_a_signed_answer(kind):
    got = ask(kind, rekey=True)
    assert got == []


def test_a_replica_past_the_configurations_keys_still_answers_a_read():
    got = ask("mr.get", rekey=True)
    assert [(m.desc, m.body["sn"]) for _, m in got] == [("mr.getresp", SN)]


def test_a_replica_past_the_configurations_keys_still_denies():
    # quorum mode: a slot approved for another value is denied, unsigned
    got = ask("ac.req", rekey=True, deny=True)
    assert [(m.desc, m.body) for _, m in got] == [("ac.deny", {"sn": SN})]
