import json
from types import SimpleNamespace

import pytest

from dynbla.access_control import AcClient, AcStore, AccessControl, make_ac_input_check
from dynbla.dbla import (
    GENESIS_CERT,
    AcCert,
    DblaClient,
    DblaStore,
    DynamicObject,
    InputValue,
    OutputCert,
    open_input,
    verify_output,
)
from dynbla.fscrypto import FsSig, LedgerFsOracle, LedgerVerifier
from dynbla.lattice import ADD, REMOVE, Config, FinSet, History, genesis_config
from dynbla.reconfig import ReconfigClient, ReconfigGroup, make_hist_input_check, wrap_conf_cert
from dynbla.simnet import Msg, Simulator, Trigger

OPEN_CONFIGS = open_input(lambda v: type(v) is Config)


def build(seed, rids, cids, genesis_rids=None, app=False, acl_mode=None):
    ns = SimpleNamespace()
    ns.oracle = LedgerFsOracle()
    ns.sim = Simulator(seed, ns.oracle)
    ns.genesis = genesis_config(genesis_rids or rids)
    conf_check = OPEN_CONFIGS
    ns.ac = None
    if acl_mode:
        ns.ac = AccessControl("grp/acl", acl_mode)
        conf_check = make_ac_input_check(ns.ac, ns.oracle)
    ns.grp = ReconfigGroup("grp", ns.genesis, ns.oracle, conf_input_check=conf_check)
    ns.app_obj = None
    if app:
        ns.app_obj = DynamicObject("grp/obj", ns.genesis, check_value=open_input(lambda v: type(v) is FinSet),
                                   check_history=ns.grp.certifies)
    roster = list(rids) + list(cids)
    ns.replicas = {}
    for r in rids:
        extra = []
        if app:
            extra.append(DblaStore("obj", ns.app_obj))
        if ns.ac is not None:
            extra.append(AcStore("acl", ns.ac))
        rep = ns.grp.make_replica(roster, extra_stores=extra)
        ns.replicas[r] = rep
        ns.sim.spawn(r, rep)
    ns.hubs, ns.rcs, ns.apps, ns.acls = {}, {}, {}, {}
    for c in cids:
        hub = ns.grp.make_hub(roster)
        ns.hubs[c] = hub
        ns.rcs[c] = ReconfigClient(hub, ns.grp)
        if app:
            ns.apps[c] = DblaClient(hub, ns.app_obj)
        if ns.ac is not None:
            ns.acls[c] = AcClient(hub, ns.ac)
        ns.sim.spawn(c, hub)
    ns.returns = {}
    return ns


def update_at(ns, trigger, cid, config, cert=None):
    cert = {"kind": "any"} if cert is None else cert

    def fire():
        def done(h, th):
            ns.returns.setdefault(cid, []).append((h, th))
            ns.sim.note_fact(f"ret:{cid}")

        ns.rcs[cid].update_config(config, cert, done)

    ns.sim.add_external(trigger, "invoke", fire, to=cid, desc="update_config")


def propose_at(ns, trigger, cid, value):
    def fire():
        def done(w, oc):
            ns.returns.setdefault(("app", cid), []).append((w, oc))
            ns.sim.note_fact(f"appret:{cid}")

        ns.apps[cid].propose(value, {"kind": "any"}, done)

    ns.sim.add_external(trigger, "invoke", fire, to=cid, desc="propose")


def grown(base, *adds, drops=()):
    updates = set(base.updates)
    for r in adds:
        updates.add((ADD, r))
    for r in drops:
        updates.add((REMOVE, r))
    return Config(updates)


def test_single_update_config_installs_and_verifies():
    rids = ("r1", "r2", "r3", "r4", "r5")
    ns = build(3, rids, ("u",), genesis_rids=rids[:4])
    c1 = grown(ns.genesis, "r5")
    update_at(ns, Trigger(at=0), "u", c1)
    assert ns.sim.run()["verdict"] == "quiescent"

    h, th = ns.returns["u"][0]
    assert h == History([ns.genesis, c1])
    assert ns.grp.check_history(h, th)
    assert verify_output(ns.grp.hist_obj, ns.oracle, h, th)

    for r in rids:
        rep = ns.replicas[r]
        assert rep.history == h
        assert rep.ccurr == c1 and rep.cinst == c1
        assert ns.oracle.st(r) == c1.height()


def test_app_values_survive_reconfiguration():
    rids = ("r1", "r2", "r3", "r4", "r5")
    ns = build(5, rids, ("p", "q", "u"), genesis_rids=rids[:4], app=True)
    c1 = grown(ns.genesis, "r5")
    propose_at(ns, Trigger(at=0), "p", FinSet({"a"}))
    update_at(ns, Trigger(fact="appret:p", offset=1), "u", c1)
    propose_at(ns, Trigger(fact=f"inst:h{c1.height()}", offset=5), "q", FinSet({"b"}))
    assert ns.sim.run()["verdict"] == "quiescent"

    wq, cq = ns.returns[("app", "q")][0]
    assert FinSet({"a", "b"}).leq(wq)
    assert cq.anchor() == c1
    assert verify_output(ns.app_obj, ns.oracle, wq, cq)


@pytest.mark.parametrize("seed", [2, 4, 9])
def test_concurrent_updates_converge(seed):
    rids = ("r1", "r2", "r3", "r4", "r5", "r6")
    ns = build(seed, rids, ("u1", "u2"), genesis_rids=rids[:4])
    update_at(ns, Trigger(at=0), "u1", grown(ns.genesis, "r5"))
    update_at(ns, Trigger(at=0), "u2", grown(ns.genesis, "r6"))
    assert ns.sim.run()["verdict"] == "quiescent"

    h1, th1 = ns.returns["u1"][0]
    h2, th2 = ns.returns["u2"][0]
    assert h1.contained_in(h2) or h2.contained_in(h1)
    final = h2 if h1.contained_in(h2) else h1
    assert {"r5", "r6"} <= final.max_element().replicas()

    histories = {rep.history for rep in ns.replicas.values()}
    assert histories == {final}
    for rep in ns.replicas.values():
        assert rep.cinst == final.max_element()


def test_two_chained_updates_with_removal():
    rids = ("r1", "r2", "r3", "r4", "r5", "r6")
    ns = build(7, rids, ("p", "q", "s", "u"), genesis_rids=rids[:4], app=True)
    c1 = grown(ns.genesis, "r5")
    c2 = grown(c1, "r6", drops=("r1",))

    propose_at(ns, Trigger(at=0), "p", FinSet({"a"}))
    update_at(ns, Trigger(fact="appret:p", offset=1), "u", c1)
    propose_at(ns, Trigger(fact=f"inst:h{c1.height()}", offset=3), "q", FinSet({"b"}))
    update_at(ns, Trigger(fact="appret:q", offset=1), "s", c2)
    propose_at(ns, Trigger(fact=f"inst:h{c2.height()}", offset=3), "p", FinSet({"c"}))
    assert ns.sim.run()["verdict"] == "quiescent"

    w, oc = ns.returns[("app", "p")][1]
    assert FinSet({"a", "b", "c"}).leq(w)
    assert oc.anchor() == c2
    assert "r1" not in c2.replicas()

    # removed replica followed the history (keys moved on) but stops at its last config
    r1 = ns.replicas["r1"]
    assert r1.history.max_element() == c2
    assert r1.ccurr == c1
    assert ns.oracle.st("r1") == c2.height()
    assert ns.oracle.fs_sign("r1", b"stale", c1.height()) is None


def test_access_controlled_reconfiguration():
    rids = ("r1", "r2", "r3", "r4", "r5")
    ns = build(11, rids, ("u",), genesis_rids=rids[:4], acl_mode="sanity")
    c1 = grown(ns.genesis, "r5")

    def fire():
        def got_cert(cert):
            assert cert is not None
            ns.sim.note_fact("cert-ok")

            def done(h, th):
                ns.returns.setdefault("u", []).append((h, th))

            ns.rcs["u"].update_config(c1, cert, done)

        ns.acls["u"].request("next", c1, got_cert)

    ns.sim.add_external(Trigger(at=0), "invoke", fire, to="u", desc="acl-then-update")
    assert ns.sim.run()["verdict"] == "quiescent"
    h, th = ns.returns["u"][0]
    assert h.max_element() == c1
    assert ns.grp.check_history(h, th)

    # the certificate chain, AcCert included, survives the trace boundary and
    # re-verifies offline in a view with empty caches
    back = OutputCert.from_jsonable(json.loads(json.dumps(th.to_jsonable())))
    assert back.canon() == th.canon()
    offline = LedgerVerifier(ns.oracle.dump_ledger())
    view = ReconfigGroup("grp", ns.genesis, offline, conf_input_check=make_ac_input_check(ns.ac, offline))
    assert view.check_history(h, back)


def test_uncertified_config_rejected_when_acl_gates():
    rids = ("r1", "r2", "r3", "r4")
    ns = build(1, rids, ("u",), acl_mode="sanity")
    with pytest.raises(ValueError):
        ns.rcs["u"].update_config(grown(ns.genesis, "r9"), {"kind": "any"}, lambda h, th: None)


def test_noop_update_keeps_genesis():
    rids = ("r1", "r2", "r3", "r4")
    ns = build(2, rids, ("u",))
    update_at(ns, Trigger(at=0), "u", ns.genesis)
    assert ns.sim.run()["verdict"] == "quiescent"
    h, th = ns.returns["u"][0]
    assert h == History([ns.genesis])
    assert not [l for l in ns.sim.trace if l["kind"] == "upcall" and l["desc"] == "install"]
    assert ns.grp.check_history(h, th)


def test_hist_input_check_rejects_malformed():
    oracle = LedgerFsOracle()
    genesis = genesis_config(["r1", "r2", "r3", "r4"])
    grp = ReconfigGroup("grp", genesis, oracle, OPEN_CONFIGS)
    check = grp.hist_obj._check_value
    c1 = grown(genesis, "r5")
    assert not check(History([genesis, c1]), {"kind": "confout", "oc": {}})
    assert not check(History([c1]), {"kind": "other"})
    assert not check(History([c1]), {"kind": "confout", "oc": {"bogus": 1}})
    assert not check(FinSet({"x"}), {"kind": "confout", "oc": {}})


def test_hist_input_check_takes_the_conf_output_object():
    rids = ("r1", "r2", "r3", "r4", "r5")
    ns = build(5, rids, ("u",), genesis_rids=rids[:4])
    c1 = grown(ns.genesis, "r5")
    outs = []
    ns.sim.add_external(
        Trigger(at=0),
        "invoke",
        lambda: ns.rcs["u"].conf.propose(c1, {"kind": "any"}, lambda c, tc: outs.append((c, tc))),
        to="u",
        desc="conf-propose",
    )
    assert ns.sim.run()["verdict"] == "quiescent"
    ((cprime, tc),) = outs
    assert cprime == c1
    check = ns.grp.hist_obj._check_value
    assert check(History([c1]), wrap_conf_cert(tc))
    assert not check(History([c1]), tc.to_jsonable())
    assert not check(History([ns.genesis]), tc)


@pytest.mark.parametrize("sender", ["u", "r1"], ids=["from-hub", "from-replica"])
def test_forged_history_never_adopted(sender):
    rids = ("r1", "r2", "r3", "r4", "r5")
    ns = build(4, rids, ("u", "v"), genesis_rids=rids[:4])
    fake = History([ns.genesis, grown(ns.genesis, "r5")])
    assert not ns.grp.check_history(fake, GENESIS_CERT)
    assert not ns.grp.check_history(fake, {"kind": "authority", "sig": "00"})

    # a broadcast of the forged pair, by a hub or by a replica, leaves every
    # follower of the group at genesis: hubs and replicas share one rule
    follower = {**ns.hubs, **ns.replicas}[sender]
    ns.sim.add_external(
        Trigger(at=0),
        "invoke",
        lambda: follower.rb.broadcast("grp", {"hist": fake, "cert": GENESIS_CERT}),
        to=sender,
        desc="forged-history",
    )
    assert ns.sim.run()["verdict"] == "quiescent"
    followers = [*ns.hubs.values(), *ns.replicas.values()]
    assert all(f.history == History([ns.genesis]) and f.hist_cert == GENESIS_CERT for f in followers)
    assert not [l for l in ns.sim.trace if l["kind"] == "upcall" and l["desc"] == "adopt"]


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_a_flood_of_parked_requests_keeps_one_per_sender(k):
    # corrupted r4 sends r1 k xfer.reads for fabricated higher configurations:
    # each would park, but r1 keeps only the latest of r4's parked reads
    rids = ("r1", "r2", "r3", "r4")
    ns = build(6, rids, ("u",))
    ns.sim.api("r4").send("r4", Msg("t.noop", "grp", {}))
    ns.sim.run(1)
    ns.sim.corrupt("r4", lambda api, ev: None)

    def flood():
        for i in range(k):
            read = Msg("xfer.read", "grp", {"sn": i, "config": grown(ns.genesis, f"x{i}")})
            ns.sim.adv_api.send("r4", "r1", read)

    ns.sim.add_external(Trigger(at=1), "adversary", flood, to="r4")
    assert ns.sim.run()["verdict"] == "quiescent"
    delivered = [l["hash"] for l in ns.sim.trace if l["kind"] == "deliver" and l["desc"] == "xfer.read"]
    assert len(delivered) == k
    ((frm, msg),) = ns.replicas["r1"].buffered
    assert frm == "r4" and msg.mhash() == delivered[-1]


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_a_flood_of_junk_certificates_leaves_the_verification_caches_as_they_were(k):
    # corrupted r4 sends r1 k hist.news whose certificates are distinct junk:
    # each names an input value no configuration agreement certified. Failed
    # verifications are not cached, so the caches end as they began
    rids = ("r1", "r2", "r3", "r4")
    ns = build(6, rids, ("u",))
    objs = (ns.grp.conf_obj, ns.grp.hist_obj)
    sizes = [(len(o._vcache), len(o._ocache)) for o in objs]
    ns.sim.api("r4").send("r4", Msg("t.noop", "grp", {}))
    ns.sim.run(1)
    ns.sim.corrupt("r4", lambda api, ev: None)
    fake = History([ns.genesis, grown(ns.genesis, "x")])

    def flood():
        for i in range(k):
            iv = InputValue(History([grown(ns.genesis, f"x{i}")]), {"kind": "any"})
            junk = OutputCert([iv], History([ns.genesis]), GENESIS_CERT, {}, {})
            ns.sim.adv_api.send("r4", "r1", Msg("hist.new", "grp", {"hist": fake, "cert": junk}))

    ns.sim.add_external(Trigger(at=1), "adversary", flood, to="r4")
    assert ns.sim.run()["verdict"] == "quiescent"
    assert ns.replicas["r1"].history == History([ns.genesis])
    assert [(len(o._vcache), len(o._ocache)) for o in objs] == sizes


@pytest.mark.parametrize("acl_mode", [None, "sanity"])
def test_a_certificate_a_script_builds_from_dict_maps_is_verified_and_refused(acl_mode):
    # corrupted r4 sends r1 a certificate whose signature maps it built as
    # raw dicts of junk signatures: without an access list, a hist.new whose
    # certificate names a configuration output; with a sanity list, a
    # proposal whose grant is the certificate. Each certificate holds its
    # maps as QuorumCerts, so r1 checks the signatures in them and refuses
    # the certificate, and the run stays quiescent
    rids = ("r1", "r2", "r3", "r4")
    ns = build(6, rids, ("u",), acl_mode=acl_mode)
    ns.sim.api("r4").send("r4", Msg("t.noop", "grp", {}))
    ns.sim.run(1)
    ns.sim.corrupt("r4", lambda api, ev: None)
    g, x = ns.genesis, grown(ns.genesis, "x")
    junk = {r: FsSig(r, g.height(), b"junk") for r in rids[:3]}
    if acl_mode is None:
        conf = OutputCert([InputValue(x, {"kind": "any"})], History([g]), GENESIS_CERT, junk, junk)
        cert = OutputCert([InputValue(History([x]), conf)], History([g]), GENESIS_CERT, junk, junk)
        msg = Msg("hist.new", "grp", {"hist": History([g, x]), "cert": cert})
    else:
        grant = AcCert("sanity", "grp/acl", "s", x, g, junk, junk)
        msg = Msg("bla.propose", "grp/conf", {"sn": 1, "config": g, "values": [InputValue(x, grant)]})
    ns.sim.add_external(Trigger(at=1), "adversary", lambda: ns.sim.adv_api.send("r4", "r1", msg), to="r4")
    assert ns.sim.run()["verdict"] == "quiescent"
    assert [l["frm"] for l in ns.sim.trace if l["kind"] == "deliver" and l["desc"] == msg.desc] == ["r4"]
    r1 = ns.replicas["r1"]
    assert r1.history == History([g]) and r1.dropped == 0
    assert [iv.value for iv in r1.stores[0].snapshot_sorted()] == [g]
