from collections import Counter

import pytest

from dynbla.broadcast import UrbEndpoint
from dynbla.dbla import GENESIS_CERT
from dynbla.fscrypto import LedgerFsOracle
from dynbla.lattice import ADD, Config, History
from dynbla.simnet import HoldRule, Msg, Simulator, Trigger
from test_reconfig import build, grown, update_at

# -- the history envelope: followers relay what they adopt -------------------

RIDS = ("r1", "r2", "r3", "r4", "r5")


def follower_world(seed):
    """Replicas r1-r5 (genesis r1-r4) and hubs u, v; u adds r5 at step 0, so
    its hub broadcasts the certified history [genesis, +r5] once."""
    ns = build(seed, RIDS, ("u", "v"), genesis_rids=RIDS[:4])
    update_at(ns, Trigger(at=0), "u", grown(ns.genesis, "r5"))
    return ns


def followers(ns):
    return {**ns.replicas, **ns.hubs}


def adopts(ns) -> Counter:
    return Counter(l["frm"] for l in ns.sim.trace if l["kind"] == "upcall" and l["desc"] == "adopt")


def rb_sends(ns) -> Counter:
    """rb.fwd deliveries by sender: every send, in a run that holds and halts nothing."""
    return Counter(l["frm"] for l in ns.sim.trace if l["kind"] == "deliver" and l["desc"] == "rb.fwd")


def test_rb_delivers_everywhere_exactly_once():
    ns = follower_world(1)
    assert ns.sim.run()["verdict"] == "quiescent"
    ((h, _),) = ns.returns["u"]
    assert adopts(ns) == Counter(followers(ns).keys())
    assert all(f.history == h for f in followers(ns).values())


def test_rb_identical_content_is_deduplicated():
    # the origin broadcasts the history again and another hub broadcasts it
    # too; no follower adopts twice, and nobody relays what it did not adopt
    ns = follower_world(2)

    def again(cid):
        ((h, th),) = ns.returns["u"]
        ns.hubs[cid].update_history(h, th)

    for cid in ("u", "v"):
        ns.sim.add_external(Trigger(fact="ret:u", offset=1), "invoke", lambda cid=cid: again(cid), to=cid)
    assert ns.sim.run()["verdict"] == "quiescent"
    assert adopts(ns) == Counter(followers(ns).keys())
    n = len(followers(ns))
    assert sum(rb_sends(ns).values()) == 3 * n + n * n


def test_rb_survives_partial_origin_send():
    # the origin's hub reaches only r2 (not even itself); r2's relay covers the rest
    ns = follower_world(3)
    ns.sim.add_hold(HoldRule(frm={"u"}, to=set(followers(ns)) - {"r2"}, desc="rb.fwd", until=None))
    ns.sim.run()
    ((h, _),) = ns.returns["u"]
    assert adopts(ns) == Counter(followers(ns).keys())
    assert all(f.history == h for f in followers(ns).values())


def test_rb_sends_the_roster_once_per_broadcast_and_adopter():
    # the origin sends to the whole roster, self included, and so does every
    # adopter, the origin again among them: rb.fwd sends = n * (1 + adopters)
    ns = follower_world(2)
    assert ns.sim.run()["verdict"] == "quiescent"
    n = len(followers(ns))
    assert sum(adopts(ns).values()) == n
    assert rb_sends(ns) == Counter({p: n * (2 if p == "u" else 1) for p in followers(ns)})


def test_no_correct_process_relays_a_forged_or_stale_history():
    ns = build(4, RIDS, ("u", "v"), genesis_rids=RIDS[:4])
    ns.sim.api("r4").send("r4", Msg("t.noop", "grp", {}))
    ns.sim.run(1)
    ns.sim.corrupt("r4", lambda api, ev: None)
    fake = History([ns.genesis, grown(ns.genesis, "r5")])
    forged = [
        (fake, GENESIS_CERT),
        (fake, {"kind": "authority", "sig": "00"}),
        (fake, {"kind": "any"}),
        (History([ns.genesis]), GENESIS_CERT),     # stale: the history every follower holds
    ]

    def forge():
        for h, cert in forged:
            msg = Msg("rb.fwd", "grp", {"origin": "r4", "desc": "hist.new", "body": {"hist": h, "cert": cert}})
            for pid in followers(ns):
                ns.sim.adv_api.send("r4", pid, msg)

    ns.sim.add_external(Trigger(at=1), "adversary", forge, to="r4")
    assert ns.sim.run()["verdict"] == "quiescent"
    assert rb_sends(ns) == Counter({"r4": len(forged) * len(followers(ns))})
    assert not adopts(ns)


# -- uniform broadcast -----------------------------------------------------------


class UrbNode:
    def __init__(self, roster):
        self.roster = roster
        self.delivered = []

    def bind(self, api):
        self.api = api
        self.urb = UrbEndpoint(api, self.roster, self.on_urb)

    def on_urb(self, origin, desc, obj, body, config):
        self.delivered.append((origin, desc, body.get("n")))

    def on_deliver(self, frm, msg):
        self.urb.handle(frm, msg)


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
    nodes = {r: UrbNode(roster) for r in roster}
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
    # corrupted r4 sends other content under the id of r1's coming broadcast;
    # the recipients derive ids themselves, so they echo each broadcast under
    # its own id and deliver both
    sim, nodes, config = urb_world(4)
    sim.api("r4").send("r4", Msg("t.noop", "t", {}))
    sim.run(1)
    sim.corrupt("r4", lambda api, ev: None)
    real = nodes["r1"].urb._mid({"origin": "r1", "desc": "done", "body": {"n": 1}, "config": config}, "t")

    def forge():
        fake = Msg("urb.init", "t", {"origin": "r4", "desc": "done", "body": {"n": 6}, "config": config})
        fake.mid = real
        for r in ("r1", "r2", "r3"):
            sim.adv_api.send("r4", r, fake)

    sim.add_external(Trigger(at=1), "adversary", forge, to="r4")
    sim.add_external(Trigger(at=40), "invoke", lambda: nodes["r1"].urb.broadcast(config, "done", "t", {"n": 1}), to="r1")
    sim.run(10000)
    for r in ("r1", "r2", "r3"):
        assert sorted(d[2] for d in nodes[r].delivered) == [1, 6]


@pytest.mark.parametrize("kind", ["urb.init", "urb.echo", "urb.cert"])
def test_urb_naming_a_process_outside_the_roster_is_dropped(kind):
    # the configuration names "ghost", which is no process: an echo or a
    # certificate sent on would go to an unknown destination and stop the run
    ns = build(3, RIDS[:4], ())
    r1 = ns.replicas["r1"]
    config = ns.genesis.join(Config([(ADD, "ghost")]))
    inner = {"origin": "r4", "desc": "xfer.done", "body": {}, "config": config}
    payload = r1.urb._echo_payload(r1.urb._mid(inner, "grp"))
    sigs = {r: ns.oracle.plain_sign(r, payload) for r in RIDS[:4]}     # a quorum of config
    if kind == "urb.init":
        deliveries = [("r4", Msg(kind, "grp", inner))]
    elif kind == "urb.echo":
        deliveries = [(r, Msg(kind, "grp", {"inner": inner, "sig": sig})) for r, sig in sigs.items()]
    else:
        deliveries = [("r4", Msg(kind, "grp", {"inner": inner, "cert": sigs}))]
    for frm, msg in deliveries:
        r1.on_deliver(frm, msg)
    assert ns.sim.metrics["sent"] == 0
    assert r1.dropped == len(deliveries)
    assert r1.install_votes == {}
