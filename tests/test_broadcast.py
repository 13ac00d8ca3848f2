from collections import Counter

import pytest

from dynbla.broadcast import UrbEndpoint
from dynbla.dbla import GENESIS_CERT
from dynbla.fscrypto import LedgerFsOracle
from dynbla.harness.attacks import SCRIPTS
from dynbla.harness.checks import run_checks
from dynbla.harness.runner import run_scenario
from dynbla.harness.scenario import FAMILIES
from dynbla.lattice import ADD, Config, FinSet, History
from dynbla.simnet import HoldRule, Msg, Simulator, Trigger
from test_reconfig import build, grown, propose_at, update_at

# -- history gossip: followers relay what they adopt -------------------------

RIDS = ("r1", "r2", "r3", "r4", "r5")


def follower_world(seed):
    """Replicas r1-r5 (genesis r1-r4) and hubs u, v; u adds r5 at step 0, so
    its hub adopts the certified history [genesis, +r5] and sends it once."""
    ns = build(seed, RIDS, ("u", "v"), genesis_rids=RIDS[:4])
    update_at(ns, Trigger(at=0), "u", grown(ns.genesis, "r5"))
    return ns


def followers(ns):
    return {**ns.replicas, **ns.hubs}


def adopt_lines(ns) -> list:
    return [l for l in ns.sim.trace if l["kind"] == "upcall" and l["desc"] == "adopt"]


def adopts(ns) -> Counter:
    return Counter(l["frm"] for l in adopt_lines(ns))


def rb_sends(ns) -> Counter:
    """hist.new deliveries by sender: every send, in a run that holds and halts nothing."""
    return Counter(l["frm"] for l in ns.sim.trace if l["kind"] == "deliver" and l["desc"] == "hist.new")


def relays(ns, n) -> Counter:
    """hist.new sends when each follower sends once per adoption: to all
    n - 1 others for a history with no sender (the certifying hub's, or one
    given to update_history), to the n - 2 others but the sender for a
    hist.new."""
    deliveries = {l["step"]: l for l in ns.sim.trace if l["kind"] == "deliver"}
    out = Counter()
    for l in adopt_lines(ns):
        d = deliveries.get(l["step"], {})
        out[l["frm"]] += n - 2 if (d.get("desc"), d.get("to")) == ("hist.new", l["frm"]) else n - 1
    return out


def test_rb_delivers_everywhere_exactly_once():
    ns = follower_world(1)
    assert ns.sim.run()["verdict"] == "quiescent"
    ((h, _),) = ns.returns["u"]
    assert adopts(ns) == Counter(followers(ns).keys())
    assert all(f.history == h for f in followers(ns).values())


def test_rb_identical_content_is_deduplicated():
    # the origin's hub sends the history to the rest of the roster again and
    # another hub does too; no follower adopts twice, and nobody relays what
    # it did not adopt: each extra broadcast adds n - 1 sends to its hub's
    ns = follower_world(2)

    def again(cid):
        ((h, th),) = ns.returns["u"]
        ns.hubs[cid].rb.broadcast("grp", {"hist": h, "cert": th})

    for cid in ("u", "v"):
        ns.sim.add_external(Trigger(fact="ret:u", offset=1), "invoke", lambda cid=cid: again(cid), to=cid)
    assert ns.sim.run()["verdict"] == "quiescent"
    assert adopts(ns) == Counter(followers(ns).keys())
    n = len(followers(ns))
    assert rb_sends(ns) == relays(ns, n) + Counter({"u": n - 1, "v": n - 1})


def test_update_history_of_a_held_history_returns_and_sends_nothing():
    ns = follower_world(2)
    returned = []

    def again():
        ((h, th),) = ns.returns["u"]
        assert ns.hubs["v"].history == h
        ns.hubs["v"].update_history(h, th, done=lambda: returned.append(ns.sim.now()))

    # fires once the network is idle, so v has adopted the history by gossip
    ns.sim.add_external(Trigger(fact="ret:u", offset=10**6), "invoke", again, to="v")
    assert ns.sim.run()["verdict"] == "quiescent"
    n = len(followers(ns))
    assert returned and adopts(ns) == Counter(followers(ns).keys())
    assert rb_sends(ns) == relays(ns, n)


def test_the_certifying_hub_adopts_at_the_step_its_update_returns():
    # u adopts the history its agreement certified, and returns, on the
    # reply that completed the agreement, not on a copy it sent itself
    ns = follower_world(1)
    assert ns.sim.run()["verdict"] == "quiescent"
    (step,) = [l["step"] for l in adopt_lines(ns) if l["frm"] == "u"]
    assert step == ns.sim.facts["ret:u"]
    (delivery,) = [l for l in ns.sim.trace if l["kind"] == "deliver" and l["step"] == step]
    assert (delivery["to"], delivery["desc"]) == ("u", "bla.cresp")


def test_rb_survives_partial_origin_send():
    # the origin's hub adopts at once, but its relay reaches only r2; r2's
    # relay covers the rest
    ns = follower_world(3)
    ns.sim.add_hold(HoldRule(frm={"u"}, to=set(followers(ns)) - {"r2"}, desc="hist.new", until=None))
    ns.sim.run()
    ((h, _),) = ns.returns["u"]
    assert adopts(ns) == Counter(followers(ns).keys())
    assert all(f.history == h for f in followers(ns).values())


def test_rb_sends_the_roster_once_per_broadcast_and_adopter():
    # every adopter sends once, to none but the rest of the roster: the
    # origin's hub to all n - 1 others, any other adopter to the n - 2 that
    # are not the process it adopted from
    ns = follower_world(2)
    assert ns.sim.run()["verdict"] == "quiescent"
    n = len(followers(ns))
    assert sum(adopts(ns).values()) == n
    assert rb_sends(ns) == Counter({p: n - 1 if p == "u" else n - 2 for p in followers(ns)})


def test_an_adopter_relays_to_all_but_itself_and_its_sender():
    # r1 is sent no history while the others adopt [genesis, +r5]; handed
    # it by r3, r1 relays it to the n - 2 followers that are not r1 or r3
    ns = follower_world(2)
    ns.sim.add_hold(HoldRule(to={"r1"}, desc="hist.new", until=None))
    ns.sim.run()
    ((h, th),) = ns.returns["u"]
    assert ns.replicas["r1"].history != h and not ns.sim.pending
    ns.replicas["r1"].on_deliver("r3", Msg("hist.new", "grp", {"hist": h, "cert": th}))
    assert ns.replicas["r1"].history == h
    relayed = [ev.to for ev in ns.sim.pending if ev.msg.desc == "hist.new"]
    assert sorted(relayed) == sorted(set(followers(ns)) - {"r1", "r3"})


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
            msg = Msg("hist.new", "grp", {"hist": h, "cert": cert})
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

    def on_urb(self, origin, config):
        self.delivered.append(origin)

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
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["r1"].urb.broadcast(config, "t"), to="r1")
    assert sim.run(5000)["verdict"] == "quiescent"
    for node in nodes.values():
        assert node.delivered == ["r1"]


def test_urb_tolerates_one_silent_byzantine():
    sim, nodes, config = urb_world(4)
    sim.api("r4").send("r4", Msg("t.noop", "t", {}))
    sim.run(2)
    sim.corrupt("r4", lambda api, ev: None)
    sim.add_external(Trigger(at=2), "invoke", lambda: nodes["r1"].urb.broadcast(config, "t"), to="r1")
    sim.run(5000)
    for r in ("r1", "r2", "r3"):
        assert nodes[r].delivered == ["r1"]


def test_urb_forged_echoes_do_not_count():
    sim, nodes, config = urb_world(5)
    node = nodes["r1"]
    inner = {"origin": "r2", "config": config}
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
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["r1"].urb.broadcast(config, "t"), to="r1")
    first = None
    while sim.step() is not None:
        delivered = [r for r, node in nodes.items() if node.delivered]
        if delivered and first is None:
            first = delivered[0]
            sim.corrupt(first, lambda api, ev: None)
    assert first is not None
    for r, node in nodes.items():
        if r != first:
            assert node.delivered == ["r1"]


def test_urb_certified_message_is_not_verified_again():
    oracle = CountingOracle()
    sim, nodes, config = urb_world(5, oracle=oracle)
    node = nodes["r1"]
    inner = {"origin": "r2", "config": config}
    payload = node.urb._echo_payload(("r2", "t", config))
    sigs = {r: oracle.plain_sign(r, payload) for r in ("r1", "r2", "r3", "r4")}
    for r in ("r2", "r3", "r4"):
        node.on_deliver(r, Msg("urb.echo", "t", {"inner": inner, "sig": sigs[r]}))
    assert node.delivered == ["r2"]
    verified, queued = oracle.plain_verifies, len(sim.pending)
    node.on_deliver("r1", Msg("urb.echo", "t", {"inner": inner, "sig": sigs["r1"]}))
    cert = {r: sigs[r] for r in ("r1", "r3", "r4")}
    node.on_deliver("r3", Msg("urb.cert", "t", {"inner": inner, "cert": cert}))
    assert oracle.plain_verifies == verified
    assert len(sim.pending) == queued
    assert node.delivered == ["r2"]


def sent_once_to_the_others(sim, frm, msg):
    """Send one message object from frm to every other node of a five-node world."""
    for r in ("r1", "r2", "r3", "r4", "r5"):
        if r != frm:
            sim.api(frm).send(r, msg)


def test_a_forged_echo_or_certificate_is_refused_at_every_recipient():
    # r5 sends each forgery, one object, to r1-r4: an echo under r1's
    # signature, an echo under a junk one, a certificate one signature short
    # of a quorum and a quorum certificate with one junk signature
    oracle = CountingOracle()
    sim, nodes, config = urb_world(5, n=5, oracle=oracle)
    inner = {"origin": "r2", "config": config}
    payload = nodes["r1"].urb._echo_payload(("r2", "t", config))
    sigs = {r: oracle.plain_sign(r, payload) for r in ("r1", "r2", "r3", "r4")}
    forged = [
        Msg("urb.echo", "t", {"inner": inner, "sig": sigs["r1"]}),
        Msg("urb.echo", "t", {"inner": inner, "sig": b"junk"}),
        Msg("urb.cert", "t", {"inner": inner, "cert": {r: sigs[r] for r in ("r1", "r2", "r3")}}),
        Msg("urb.cert", "t", {"inner": inner, "cert": {**sigs, "r4": b"junk"}}),
    ]
    for msg in forged:
        sent_once_to_the_others(sim, "r5", msg)
    assert sim.run(5000)["verdict"] == "quiescent"
    assert sim.metrics["delivered"] == sim.metrics["sent"] == 4 * len(forged)
    for r in ("r1", "r2", "r3", "r4"):
        urb = nodes[r].urb
        assert (nodes[r].delivered, urb._echoes, urb._certed) == ([], {}, set())
    # each forgery is judged once: an echo's one signature, the short
    # certificate's none, the forged one's up to its junk signature
    assert oracle.plain_verifies == 1 + 1 + 0 + 4
    assert [msg.urb[2] for msg in forged] == [False] * len(forged)


def test_a_valid_certificate_costs_one_verification_per_signature_not_per_delivery():
    oracle = CountingOracle()
    sim, nodes, config = urb_world(6, n=5, oracle=oracle)
    inner = {"origin": "r2", "config": config}
    payload = nodes["r1"].urb._echo_payload(("r2", "t", config))
    cert = {r: oracle.plain_sign(r, payload) for r in ("r1", "r2", "r3", "r4")}
    sent_once_to_the_others(sim, "r5", Msg("urb.cert", "t", {"inner": inner, "cert": cert}))
    assert sim.run(5000)["verdict"] == "quiescent"
    for r in ("r1", "r2", "r3", "r4"):
        assert nodes[r].delivered == ["r2"]
    # the forwards carry the verdict their sender reached
    assert oracle.plain_verifies == len(cert)


def test_each_echo_is_verified_once_whatever_its_recipients():
    oracle = CountingOracle()
    sim, nodes, config = urb_world(7, n=7, oracle=oracle)
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["r1"].urb.broadcast(config, "t"), to="r1")
    assert sim.run(20000)["verdict"] == "quiescent"
    echoes = sum(1 for line in sim.trace if line["kind"] == "deliver" and line["desc"] == "urb.echo")
    assert all(node.delivered == ["r1"] for node in nodes.values())
    assert echoes > 2 * len(nodes) and oracle.plain_verifies <= len(nodes)


def quorum_cert(oracle, node, origin, config, signers=("r2", "r3", "r4")):
    payload = node.urb._echo_payload((origin, "t", config))
    return {r: oracle.plain_sign(r, payload) for r in signers}


def test_a_certificate_taken_whole_is_not_forwarded_back_to_its_sender():
    oracle = LedgerFsOracle()
    sim, nodes, config = urb_world(5, oracle=oracle)
    inner = {"origin": "r2", "config": config}
    cert = quorum_cert(oracle, nodes["r1"], "r2", config)
    nodes["r1"].on_deliver("r3", Msg("urb.cert", "t", {"inner": inner, "cert": cert}))
    assert nodes["r1"].delivered == ["r2"]
    assert sorted((ev.to, ev.msg.desc) for ev in sim.pending) == [("r2", "urb.cert"), ("r4", "urb.cert")]


def test_a_certified_id_is_not_echoed():
    # r1 holds the certificate for r2's id before r2's own init arrives: it
    # sends no echo, while r3, which holds none, echoes to every replica
    oracle = LedgerFsOracle()
    sim, nodes, config = urb_world(5, oracle=oracle)
    inner = {"origin": "r2", "config": config}
    cert = quorum_cert(oracle, nodes["r1"], "r2", config)
    nodes["r1"].on_deliver("r4", Msg("urb.cert", "t", {"inner": inner, "cert": cert}))
    queued = len(sim.pending)
    nodes["r1"].on_deliver("r2", Msg("urb.init", "t", inner))
    assert len(sim.pending) == queued
    nodes["r3"].on_deliver("r2", Msg("urb.init", "t", inner))
    echoes = [ev.to for ev in sim.pending if ev.frm == "r3" and ev.msg.desc == "urb.echo"]
    assert sorted(echoes) == sorted(nodes)


@pytest.mark.parametrize("seed", range(5))
def test_urb_verifies_only_until_certified(seed):
    # every replica delivers once; each verifies at most its first quorum of
    # echoes plus one certificate's signatures before it is certified
    oracle = CountingOracle()
    sim, nodes, config = urb_world(seed, oracle=oracle)
    sim.add_external(Trigger(at=0), "invoke", lambda: nodes["r1"].urb.broadcast(config, "t"), to="r1")
    assert sim.run(5000)["verdict"] == "quiescent"
    for node in nodes.values():
        assert node.delivered == ["r1"]
    n, q = len(nodes), 3
    assert oracle.plain_verifies <= n * (q + q)


def test_adversary_cannot_supply_a_broadcast_id():
    # a message carries no id of its own: recipients identify a broadcast by
    # its content, so corrupted r4's init for the configuration r1 is about
    # to broadcast in is a broadcast of its own, and both are delivered
    sim, nodes, config = urb_world(4)
    sim.api("r4").send("r4", Msg("t.noop", "t", {}))
    sim.run(1)
    sim.corrupt("r4", lambda api, ev: None)
    fake = Msg("urb.init", "t", {"origin": "r4", "config": config})
    assert not hasattr(fake, "mid")

    def forge():
        for r in ("r1", "r2", "r3"):
            sim.adv_api.send("r4", r, fake)

    sim.add_external(Trigger(at=1), "adversary", forge, to="r4")
    sim.add_external(Trigger(at=40), "invoke", lambda: nodes["r1"].urb.broadcast(config, "t"), to="r1")
    sim.run(10000)
    for r in ("r1", "r2", "r3"):
        assert sorted(nodes[r].delivered) == ["r1", "r4"]


@pytest.mark.parametrize("seed", range(20))
def test_an_init_edited_in_place_is_not_delivered_as_another_origins(seed):
    # one init object reaches every replica; Byzantine r4 renames its origin
    # to r2 when it lands there, and later recipients read the edited body
    sim, nodes, config = urb_world(seed)
    sim.api("r4").send("r4", Msg("t.noop", "t", {}))
    sim.run(1)

    def edit(adv, ev):
        if ev.msg.desc == "urb.init":
            ev.msg.body["origin"] = "r2"

    sim.corrupt("r4", edit)
    sim.add_external(Trigger(at=1), "invoke", lambda: nodes["r1"].urb.broadcast(config, "t"), to="r1")
    sim.run(5000)
    for r in ("r1", "r2", "r3"):
        assert set(nodes[r].delivered) <= {"r1"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_member_cannot_announce_install_votes_for_others(seed):
    # r1-r4 hand over to r5-r8; corrupted r8 sends r5-r7 one urb.init for C1
    # in the name of each new member before anyone holds C1's history. Had
    # r5-r7 echoed them, they would install C1 on adopting it, with no state
    # transfer, and q's proposal at C1 would miss p's {a}
    rids = tuple(f"r{i}" for i in range(1, 9))
    ns = build(seed, rids, ("p", "q", "u"), genesis_rids=rids[:4], app=True)
    c1 = grown(ns.genesis, *rids[4:], drops=rids[:4])
    ns.sim.api("r8").send("r8", Msg("t.noop", "grp", {}))
    ns.sim.run(1)
    ns.sim.corrupt("r8", lambda adv, ev: None)

    def forge():
        for origin in rids[4:]:
            msg = Msg("urb.init", "grp", {"origin": origin, "config": c1})
            for r in rids[4:7]:
                ns.sim.adv_api.send("r8", r, msg)

    ns.sim.add_external(Trigger(at=1), "adversary", forge, to="r8")
    propose_at(ns, Trigger(at=1), "p", FinSet({"a"}))
    update_at(ns, Trigger(fact="appret:p", offset=1), "u", c1)
    propose_at(ns, Trigger(fact=f"inst:h{c1.height()}", offset=400), "q", FinSet({"b"}))
    assert ns.sim.run()["verdict"] == "quiescent"
    for r in rids[4:7]:
        assert c1 in ns.replicas[r].installed
        assert ns.replicas[r].xfer_targets_sent == {ns.genesis.cid()}
    (wq, _), = ns.returns[("app", "q")]
    assert wq == FinSet({"a", "b"})


@pytest.mark.parametrize("kind", ["urb.init", "urb.echo", "urb.cert"])
def test_urb_naming_a_process_outside_the_roster_is_dropped(kind):
    # the configuration names "ghost", which is no process: an echo or a
    # certificate sent on would go to an unknown destination and stop the run
    ns = build(3, RIDS[:4], ())
    r1 = ns.replicas["r1"]
    config = ns.genesis.join(Config([(ADD, "ghost")]))
    inner = {"origin": "r4", "config": config}
    payload = r1.urb._echo_payload(("r4", "grp", config))
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


def urb_flood_run(monkeypatch, k):
    """reconfig-dbla seed 0 with r4 corrupted at step 20; if k, on its first
    delivery after that r4 sends every other replica k urb.echos, each
    validly signed by r4, for ids no process broadcast (fabricated origins)."""
    fabricated = [f"ghost{i}" for i in range(k)]

    def flood_script(ctx):
        sent = []

        def script(adv, ev):
            if sent:
                return
            sent.append(True)
            genesis, obj = ctx.replicas["r1"].genesis, ctx.replicas["r1"].group
            for origin in fabricated:
                payload = ctx.replicas["r1"].urb._echo_payload((origin, obj, genesis))
                inner = {"origin": origin, "config": genesis}
                msg = Msg("urb.echo", obj, {"inner": inner, "sig": ctx.oracle.plain_sign("r4", payload)})
                for r in ("r1", "r2", "r3", "r5"):
                    adv.send("r4", r, msg)

        return script

    monkeypatch.setitem(SCRIPTS, "urb-flood", flood_script)
    scn = dict(FAMILIES["reconfig-dbla"](0))
    scn["adversary"] = {"corruptions": [{"pid": "r4", "script": "urb-flood", "at": 20}], "holds": []}
    rep = run_scenario(scn)
    assert rep.verdict == "quiescent" and all(ok for _, ok, _ in run_checks(rep.bundle()))
    assert rep.final["corruptions"][0]["applied"]
    return rep, set(fabricated)


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_a_flood_of_fabricated_echoes_stays_in_the_echo_entries(monkeypatch, k):
    # each fabricated id costs a correct replica one _echoes entry holding
    # r4's signature, and nothing else: the id is never echoed or
    # certified, and the endpoint grows no other structure
    base, _ = urb_flood_run(monkeypatch, 0)
    rep, fabricated = urb_flood_run(monkeypatch, k)
    fields = {"api", "roster", "deliver", "_echoed", "_echoes", "_certed"}
    for r in ("r1", "r2", "r3", "r5"):
        urb, before = rep.ctx.replicas[r].urb, base.ctx.replicas[r].urb
        assert set(vars(urb)) == fields
        # the endpoint keys each id by its echo payload
        group, genesis = rep.ctx.replicas[r].group, rep.ctx.replicas[r].genesis
        keys = {urb._echo_payload((origin, group, genesis)) for origin in fabricated}
        junk = {key: sigs for key, sigs in urb._echoes.items() if key in keys}
        assert len(junk) == k
        assert all(list(sigs) == ["r4"] for sigs in junk.values())
        assert not (urb._echoed | urb._certed) & keys
        assert urb._echoed == before._echoed and urb._certed == before._certed
        assert len(urb._echoes) - k == len(before._echoes)
