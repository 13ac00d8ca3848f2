import pytest
from authority_history import check_authority_history, make_authority_history_cert

from dynbla.access_control import (
    AcCert,
    AcClient,
    AcStore,
    AccessControl,
    appr_payload,
    make_ac_input_check,
    make_admin_cert,
    verify_cert,
)
from dynbla.dbla import ClientHub, DynamicObject, DynamicReplica
from dynbla.fscrypto import LedgerFsOracle
from dynbla.lattice import ADD, Config, History, genesis_config
from dynbla.simnet import HoldRule, Msg, Simulator, Trigger


class World:
    def __init__(self, seed=7, mode="sanity", rids=("r1", "r2", "r3", "r4"), cids=("a",), genesis_rids=None, decide=None):
        self.oracle = LedgerFsOracle()
        self.sim = Simulator(seed, self.oracle)
        self.genesis = genesis_config(genesis_rids or rids)
        self.ac = AccessControl("ac", mode)
        hobj = DynamicObject("ac", self.genesis, check_history=check_authority_history(self.oracle, "grp"))
        roster = list(rids) + list(cids)
        self.replicas = {}
        for r in rids:
            rep = DynamicReplica("grp", self.genesis, [AcStore("ac", self.ac, decide=decide)], hobj.check_history, roster)
            self.replicas[r] = rep
            self.sim.spawn(r, rep)
        self.hubs = {}
        self.clients = {}
        for c in cids:
            hub = ClientHub("grp", self.genesis, hobj.check_history, roster)
            self.hubs[c] = hub
            self.clients[c] = AcClient(hub, self.ac)
            self.sim.spawn(c, hub)
        self.returns = {}

    def request(self, trigger, cid, slot, value):
        def fire():
            def done(cert):
                self.returns.setdefault(cid, []).append(cert)
                self.sim.note_fact(f"ret:{cid}")

            self.clients[cid].request(slot, value, done)

        self.sim.add_external(trigger, "invoke", fire, to=cid, desc="ac-request")

    def update_history(self, trigger, cid, hist):
        cert = make_authority_history_cert(self.oracle, "grp", hist)
        self.sim.add_external(
            trigger, "invoke", lambda: self.hubs[cid].update_history(hist, cert), to=cid, desc="update_history"
        )

    def grown(self, *more):
        updates = set(self.genesis.updates)
        for r in more:
            updates.add((ADD, r))
        return Config(updates)


def test_sanity_grant_verifies():
    w = World(mode="sanity")
    w.request(Trigger(at=0), "a", "s", "x")
    assert w.sim.run()["verdict"] == "quiescent"
    cert = w.returns["a"][0]
    assert cert is not None
    assert len(cert.approvals.sigs) >= w.ac.needed(w.genesis) == 2
    assert w.genesis.is_quorum(cert.cacks.sigs.keys())
    assert verify_cert(w.ac, w.oracle, cert)
    # sanity approvals leave no memory behind
    assert all(rep.stores[0].approved == {} for rep in w.replicas.values())


def test_sanity_denied_by_local_predicate():
    w = World(mode="sanity", decide=lambda slot, v: v != "bad")
    w.request(Trigger(at=0), "a", "s", "bad")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.returns["a"][0] is None


def test_quorum_conflicting_requests_get_at_most_one_cert():
    granted = 0
    for seed in range(12):
        w = World(seed=seed, mode="quorum", cids=("a", "b"))
        w.request(Trigger(at=0), "a", "s", "x")
        w.request(Trigger(at=0), "b", "s", "y")
        assert w.sim.run()["verdict"] == "quiescent"
        certs = [c for c in (w.returns["a"][0], w.returns["b"][0]) if c is not None]
        assert len(certs) <= 1
        granted += len(certs)
        for cert in certs:
            assert verify_cert(w.ac, w.oracle, cert)
    assert granted > 0


def test_quorum_split_first_arrivals_deny_both():
    w = World(seed=1, mode="quorum", cids=("a", "b"))
    w.sim.add_hold(HoldRule(frm={"a"}, to={"r3", "r4"}, desc="ac.req", until=Trigger(at=60)))
    w.sim.add_hold(HoldRule(frm={"b"}, to={"r1", "r2"}, desc="ac.req", until=Trigger(at=80)))
    w.request(Trigger(at=0), "a", "s", "x")
    w.request(Trigger(at=0), "b", "s", "y")
    w.sim.run()
    assert w.returns["a"][0] is None
    assert w.returns["b"][0] is None


def test_quorum_same_value_reapproved():
    w = World(mode="quorum", cids=("a", "b"))
    w.request(Trigger(at=0), "a", "s", "x")
    w.request(Trigger(fact="ret:a", offset=1), "b", "s", "x")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.returns["a"][0] is not None
    assert w.returns["b"][0] is not None


def test_quorum_memory_transfers_to_new_configuration():
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=3, mode="quorum", rids=rids, cids=("a", "b", "u"), genesis_rids=rids[:4])
    c1 = w.grown("r5")
    w.request(Trigger(at=0), "a", "s", "x")
    w.update_history(Trigger(fact="ret:a", offset=1), "u", History([w.genesis, c1]))
    w.request(Trigger(fact=f"inst:h{c1.height()}", offset=5), "b", "s", "y")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.returns["a"][0] is not None
    assert w.returns["b"][0] is None
    assert w.replicas["r5"].stores[0].approved.get("s") == "x"


@pytest.mark.parametrize("first", ["ac.approve", "ac.deny"])
def test_a_member_answers_a_request_once(first):
    # r4 answers twice, approving with a valid signature and denying, and r3
    # denies. r4 counts once, by its first answer: as an approver, two
    # denials are not yet decisive and r1's and r2's approvals complete the
    # quorum; as a denier, it and r3 deny the request
    w = World(mode="quorum")
    w.sim.add_hold(HoldRule(frm={"a"}, desc="ac.req", until=None))
    w.request(Trigger(at=0), "a", "s", "x")
    w.sim.run()
    client, hub = w.clients["a"], w.hubs["a"]
    assert client.phase == "req"

    def answer(r, desc):
        body = {"sn": client.sn}
        if desc == "ac.approve":
            body["sig"] = w.oracle.fs_sign(r, appr_payload("ac", w.genesis, "s", "x"), w.genesis.height())
        hub.on_deliver(r, Msg(desc, "ac", body))

    second = "ac.deny" if first == "ac.approve" else "ac.approve"
    for r, desc in [("r4", first), ("r4", second), ("r3", "ac.deny")]:
        answer(r, desc)
    if first == "ac.deny":
        assert w.returns["a"] == [None]
        return
    answer("r1", "ac.approve")
    assert "a" not in w.returns and client.phase == "req"
    answer("r2", "ac.approve")
    assert client.phase == "confirm"
    w.sim.run()     # stalled: the held requests are never released
    (cert,) = w.returns["a"]
    assert cert is not None and set(cert.approvals.sigs) == {"r1", "r2", "r4"}
    assert verify_cert(w.ac, w.oracle, cert)


def test_request_restarts_after_adoption():
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=5, mode="sanity", rids=rids, cids=("a", "u"), genesis_rids=rids[:4])
    c1 = w.grown("r5")
    w.sim.add_hold(HoldRule(frm={"a"}, desc="ac.req", until=Trigger(fact=f"inst:h{c1.height()}", offset=10)))
    w.request(Trigger(at=0), "a", "s", "x")
    w.update_history(Trigger(at=1), "u", History([w.genesis, c1]))
    assert w.sim.run()["verdict"] == "quiescent"
    cert = w.returns["a"][0]
    assert cert is not None and cert.config == c1
    assert w.clients["a"].restarts >= 1


def test_verify_cert_negatives():
    w = World(mode="sanity")
    w.request(Trigger(at=0), "a", "s", "x")
    w.sim.run()
    cert = w.returns["a"][0]
    assert verify_cert(w.ac, w.oracle, cert)

    other = AcCert(cert.mode, cert.object_id, cert.slot, "y", cert.config, cert.approvals, cert.cacks)
    assert not verify_cert(w.ac, w.oracle, other)

    thin = dict(cert.cacks.sigs)
    thin.pop(sorted(thin)[0])
    assert not verify_cert(
        w.ac, w.oracle, AcCert(cert.mode, cert.object_id, cert.slot, cert.value, cert.config, cert.approvals, thin)
    )

    stranger = Config(frozenset({(ADD, "z1"), (ADD, "z2"), (ADD, "z3")}))
    assert not verify_cert(
        w.ac, w.oracle, AcCert(cert.mode, cert.object_id, cert.slot, cert.value, stranger, cert.approvals, cert.cacks)
    )

    wrong_mode = AccessControl("ac", "quorum")
    assert not verify_cert(wrong_mode, w.oracle, cert)
    assert not verify_cert(w.ac, w.oracle, {"not": "a cert"})


def test_admin_cert_thresholds():
    oracle = LedgerFsOracle()
    ac = AccessControl("ac", "admin", admins=("d1", "d2", "d3", "d4"))
    assert ac.admin_threshold() == 2
    cert = make_admin_cert(oracle, ac, "s", "x", ["d1", "d2"])
    assert verify_cert(ac, oracle, cert)
    lone = make_admin_cert(oracle, ac, "s", "x", ["d1"])
    assert not verify_cert(ac, oracle, lone)
    outsider = make_admin_cert(oracle, ac, "s", "x", ["d1", "nope"])
    assert not verify_cert(ac, oracle, outsider)
    tampered = AcCert("admin", "ac", "s", "y", None, cert.approvals, {})
    assert not verify_cert(ac, oracle, tampered)


@pytest.mark.parametrize("hexsig", ["zz", "0", 5, None], ids=["not-hex", "odd-length", "int", "none"])
def test_admin_cert_with_a_malformed_signature_is_refused_not_raised(hexsig):
    oracle = LedgerFsOracle()
    ac = AccessControl("ac", "admin", admins=("d1", "d2", "d3", "d4"))
    good = make_admin_cert(oracle, ac, "s", "x", ["d1", "d2"])
    bad = AcCert("admin", "ac", "s", "x", None, {**good.approvals, "d3": hexsig}, {})
    assert not verify_cert(ac, oracle, bad)


def test_byzantine_client_cannot_crash_a_replica_with_an_admin_cert():
    # a well-formed bla.propose whose input value carries an admin grant
    # with a non-hex signature reaches the value check of a correct replica
    from dynbla.dbla import InputValue
    from dynbla.harness.runner import build_world
    from dynbla.harness.scenario import validate
    from dynbla.simnet import Msg

    scn = validate({"version": 1, "name": "t", "genesis": ["r1", "r2", "r3", "r4"], "clients": ["c", "z"],
                    "acl": {"mode": "admin", "admins": ["d1", "d2", "d3", "d4"]}})
    ctx = build_world(scn)
    target = ctx.genesis.join(Config([(ADD, "r5")]))
    iv = InputValue(target, AcCert("admin", "g/acl", "s", target, None, {"d1": "zz", "d2": "zz"}, {}))
    ctx.sim.add_external(Trigger(at=0), "invoke", lambda: ctx.sim.api("z").send("z", Msg("noop", "g", {})), to="z")
    ctx.sim.run(2)
    ctx.sim.corrupt("z", lambda adv, ev: None)
    ctx.sim.adv_api.send("z", "r1", Msg("bla.propose", "g/conf", {"sn": 1, "config": ctx.genesis, "values": [iv]}))
    assert ctx.sim.run()["verdict"] == "quiescent"
    assert iv.canon() not in ctx.replicas["r1"].stores[0].vals


def test_input_check_binds_value_and_round_trips():
    w = World(mode="sanity")
    w.request(Trigger(at=0), "a", "s", "x")
    w.sim.run()
    cert = w.returns["a"][0]
    check = make_ac_input_check(w.ac, w.oracle)
    assert check("x", cert)
    assert not check("y", cert)
    # certificates are objects; their JSON form is for trace files only
    assert not check("x", cert.to_jsonable())
    assert not check("x", {"garbage": True})
    back = AcCert.from_jsonable(cert.to_jsonable())
    assert back.canon() == cert.canon()


def test_admin_mode_has_no_store_or_client():
    ac = AccessControl("ac", "admin", admins=("d1",))
    with pytest.raises(ValueError):
        AcStore("ac", ac)
    oracle = LedgerFsOracle()
    sim = Simulator(1, oracle)
    genesis = genesis_config(["r1", "r2", "r3", "r4"])
    hub = ClientHub("grp", genesis, DynamicObject("ac", genesis).check_history, ["a"])
    with pytest.raises(ValueError):
        AcClient(hub, ac)
