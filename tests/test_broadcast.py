import pytest

from dynbla.broadcast import RbEndpoint, UrbEndpoint
from dynbla.fscrypto import LedgerFsOracle
from dynbla.lattice import ADD, Config
from dynbla.simnet import HoldRule, Msg, Simulator, Trigger


class RbNode:
    def __init__(self, roster):
        self.roster = roster
        self.delivered = []

    def bind(self, api):
        self.api = api
        self.rb = RbEndpoint(api, self.roster, self.on_rb)

    def on_rb(self, origin, desc, obj, body):
        self.delivered.append((origin, desc, body.get("n")))

    def on_deliver(self, frm, msg):
        self.rb.handle(frm, msg)


class UrbNode:
    def __init__(self):
        self.delivered = []

    def bind(self, api):
        self.api = api
        self.urb = UrbEndpoint(api, self.on_urb)

    def on_urb(self, origin, desc, obj, body, config):
        self.delivered.append((origin, desc, body.get("n")))

    def on_deliver(self, frm, msg):
        self.urb.handle(frm, msg)


def rb_world(seed, n=5):
    sim = Simulator(seed, LedgerFsOracle())
    roster = [f"p{i}" for i in range(n)]
    nodes = {p: RbNode(roster) for p in roster}
    for p, node in nodes.items():
        sim.spawn(p, node)
    return sim, nodes


def test_rb_delivers_everywhere_exactly_once():
    sim, nodes = rb_world(1)
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["p0"].rb.broadcast("x.note", "t", {"n": 1}), to="p0")
    assert sim.run(5000)["verdict"] == "quiescent"
    for node in nodes.values():
        assert node.delivered == [("p0", "x.note", 1)]
    n = len(nodes)
    assert sim.metrics["sent"] <= n + n * n


def test_rb_identical_content_is_deduplicated():
    sim, nodes = rb_world(2)
    def go():
        nodes["p0"].rb.broadcast("x.note", "t", {"n": 1})
        nodes["p0"].rb.broadcast("x.note", "t", {"n": 1})
        nodes["p0"].rb.broadcast("x.note", "t", {"n": 2})
    sim.add_external(Trigger(at=0), "invoke", go, to="p0")
    sim.run(10000)
    for node in nodes.values():
        assert sorted(d[2] for d in node.delivered) == [1, 2]


def test_rb_survives_partial_origin_send():
    # origin reaches only p1; epidemic re-forwarding covers the rest
    sim, nodes = rb_world(3)
    sim.add_hold(HoldRule(frm={"p0"}, to={"p2", "p3", "p4"}, desc="rb.fwd", until=None))
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["p0"].rb.broadcast("x.note", "t", {"n": 9}), to="p0")
    sim.run(5000)
    for p in ("p1", "p2", "p3", "p4"):
        assert nodes[p].delivered == [("p0", "x.note", 9)]


class CountingOracle(LedgerFsOracle):
    def __init__(self):
        super().__init__()
        self.plain_verifies = 0

    def plain_verify(self, msg, pid, data):
        self.plain_verifies += 1
        return super().plain_verify(msg, pid, data)


def urb_world(seed, n=4, oracle=None):
    sim = Simulator(seed, oracle or LedgerFsOracle())
    roster = [f"r{i}" for i in range(1, n + 1)]
    config = Config((ADD, r) for r in roster)
    nodes = {r: UrbNode() for r in roster}
    for r, node in nodes.items():
        sim.spawn(r, node)
    return sim, nodes, config


def test_urb_all_correct_deliver_once():
    sim, nodes, config = urb_world(3)
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["r1"].urb.broadcast(config, "done", "t", {"n": 5}), to="r1")
    assert sim.run(5000)["verdict"] == "quiescent"
    for node in nodes.values():
        assert node.delivered == [("r1", "done", 5)]


def test_urb_tolerates_one_silent_byzantine():
    sim, nodes, config = urb_world(4)
    sim.api("r4").send("r4", Msg("t.noop", "t", {}))
    sim.run(2)
    sim.corrupt("r4", lambda api, ev: None)
    sim.add_external(Trigger(at=2), "invoke", lambda: nodes["r1"].urb.broadcast(config, "done", "t", {"n": 5}), to="r1")
    sim.run(5000)
    for r in ("r1", "r2", "r3"):
        assert nodes[r].delivered == [("r1", "done", 5)]


def test_urb_forged_echoes_do_not_count():
    sim, nodes, config = urb_world(5)
    node = nodes["r1"]
    inner = {"origin": "r2", "desc": "done", "body": {"n": 1}, "config": config}
    for forger in ("r2", "r3", "r4"):
        node.on_deliver(forger, Msg("urb.echo", "t", {"inner": inner, "sig": b"junk"}))
    assert node.delivered == []
    bad_cert = {r: b"junk" for r in ("r2", "r3", "r4")}
    node.on_deliver("r2", Msg("urb.cert", "t", {"inner": inner, "cert": bad_cert}))
    assert node.delivered == []


def test_urb_uniformity_after_early_deliverer_turns_byzantine():
    # whoever delivers first has already re-forwarded the echo certificate,
    # so corrupting it immediately afterwards cannot block the others
    sim, nodes, config = urb_world(7)
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["r1"].urb.broadcast(config, "done", "t", {"n": 2}), to="r1")
    first = None
    while sim.step() is not None:
        delivered = [r for r, node in nodes.items() if node.delivered]
        if delivered and first is None:
            first = delivered[0]
            sim.corrupt(first, lambda api, ev: None)
    assert first is not None
    for r, node in nodes.items():
        if r != first:
            assert node.delivered == [("r1", "done", 2)]


def test_urb_certified_message_is_not_verified_again():
    oracle = CountingOracle()
    sim, nodes, config = urb_world(5, oracle=oracle)
    node = nodes["r1"]
    inner = {"origin": "r2", "desc": "done", "body": {"n": 1}, "config": config}
    payload = node.urb._echo_payload(node.urb._mid(inner, "t"))
    sigs = {r: oracle.plain_sign(r, payload) for r in ("r1", "r2", "r3", "r4")}
    for r in ("r2", "r3", "r4"):
        node.on_deliver(r, Msg("urb.echo", "t", {"inner": inner, "sig": sigs[r]}))
    assert node.delivered == [("r2", "done", 1)]
    verified, queued = oracle.plain_verifies, len(sim.pending)
    node.on_deliver("r1", Msg("urb.echo", "t", {"inner": inner, "sig": sigs["r1"]}))
    cert = {r: sigs[r] for r in ("r1", "r3", "r4")}
    node.on_deliver("r3", Msg("urb.cert", "t", {"inner": inner, "cert": cert}))
    assert oracle.plain_verifies == verified
    assert len(sim.pending) == queued
    assert node.delivered == [("r2", "done", 1)]


@pytest.mark.parametrize("seed", range(5))
def test_urb_verifies_only_until_certified(seed):
    # every replica delivers once; each verifies at most its first quorum of
    # echoes plus one certificate's signatures before it is certified
    oracle = CountingOracle()
    sim, nodes, config = urb_world(seed, oracle=oracle)
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["r1"].urb.broadcast(config, "done", "t", {"n": 5}), to="r1")
    assert sim.run(5000)["verdict"] == "quiescent"
    for node in nodes.values():
        assert node.delivered == [("r1", "done", 5)]
    n, q = len(nodes), 3
    assert oracle.plain_verifies <= n * (q + q)


def count_mids(monkeypatch, cls):
    calls = []
    orig = cls._mid

    def counted(self, *args):
        calls.append(args)
        return orig(self, *args)

    monkeypatch.setattr(cls, "_mid", counted)
    return calls


def test_rb_identifies_each_broadcast_once(monkeypatch):
    # every rb.fwd goes to the whole roster and every first receipt forwards
    # again, yet only the first delivery of the origin's message derives the id
    calls = count_mids(monkeypatch, RbEndpoint)
    sim, nodes = rb_world(2)
    def go():
        nodes["p0"].rb.broadcast("x.note", "t", {"n": 1})
        nodes["p0"].rb.broadcast("x.note", "t", {"n": 1})
        nodes["p0"].rb.broadcast("x.note", "t", {"n": 2})
    sim.add_external(Trigger(at=0), "invoke", go, to="p0")
    assert sim.run(10000)["verdict"] == "quiescent"
    for node in nodes.values():
        assert sorted(d[2] for d in node.delivered) == [1, 2]
    n = len(nodes)
    assert sim.metrics["delivered"] == 3 * n + 2 * n * n
    assert len(calls) == 3


def test_urb_identifies_each_broadcast_once(monkeypatch):
    calls = count_mids(monkeypatch, UrbEndpoint)
    sim, nodes, config = urb_world(3)
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["r1"].urb.broadcast(config, "done", "t", {"n": 5}), to="r1")
    assert sim.run(5000)["verdict"] == "quiescent"
    for node in nodes.values():
        assert node.delivered == [("r1", "done", 5)]
    assert sim.metrics["delivered"] > 2 * len(nodes) ** 2
    assert len(calls) == 1


def test_adversary_cannot_supply_a_broadcast_id():
    # a corrupted process sends other content under the id of p0's coming
    # broadcast; the recipients derive ids themselves and still deliver it
    sim, nodes = rb_world(4)
    sim.api("p4").send("p4", Msg("t.noop", "t", {}))
    sim.run(1)
    sim.corrupt("p4", lambda api, ev: None)
    real = nodes["p0"].rb._mid("p0", "x.note", "t", {"n": 1})

    def forge():
        for pid in ("p0", "p1", "p2", "p3"):
            fake = Msg("rb.fwd", "t", {"origin": "p4", "desc": "x.note", "body": {"n": 6}})
            fake.mid = real
            sim.adv_api.send("p4", pid, fake)

    sim.add_external(Trigger(at=1), "adversary", forge, to="p4")
    sim.add_external(Trigger(at=40), "invoke", lambda: nodes["p0"].rb.broadcast("x.note", "t", {"n": 1}), to="p0")
    sim.run(10000)
    for p in ("p0", "p1", "p2", "p3"):
        assert sorted(d[2] for d in nodes[p].delivered) == [1, 6]
