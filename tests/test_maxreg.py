import pytest
from authority_history import check_authority_history, make_authority_history_cert

from dynbla.dbla import (
    OPEN_CERT,
    ClientHub,
    DynamicObject,
    DynamicReplica,
    InputValue,
    check_plain_input,
    make_plain_input_cert,
    open_input,
)
from dynbla.fscrypto import LedgerFsOracle
from dynbla.lattice import ADD, Config, History, genesis_config
from dynbla.maxreg import MaxRegClient, MaxRegStore
from dynbla.simnet import HoldRule, Msg, Simulator, Trigger


class Probe:
    def __init__(self):
        self.got = []

    def bind(self, api):
        self.api = api

    def on_deliver(self, frm, msg):
        self.got.append((frm, msg))


def is_int(v) -> bool:
    return type(v) is int


class World:
    def __init__(self, seed=7, rids=("r1", "r2", "r3", "r4"), cids=("p",), genesis_rids=None, plain_inputs=False):
        self.oracle = LedgerFsOracle()
        self.sim = Simulator(seed, self.oracle)
        self.genesis = genesis_config(genesis_rids or rids)
        self.obj = DynamicObject("mr", self.genesis, check_value=(
            check_plain_input(self.oracle, "mr", is_int) if plain_inputs else open_input(is_int)))
        hobj = DynamicObject("mr", self.genesis, check_history=check_authority_history(self.oracle, "grp"))
        roster = list(rids) + list(cids)
        self.replicas = {}
        for r in rids:
            rep = DynamicReplica(
                "grp", self.genesis, [MaxRegStore("mr", self.obj)], hobj.check_history, roster
            )
            self.replicas[r] = rep
            self.sim.spawn(r, rep)
        self.hubs = {}
        self.clients = {}
        for c in cids:
            hub = ClientHub("grp", self.genesis, hobj.check_history, roster)
            self.hubs[c] = hub
            self.clients[c] = MaxRegClient(hub, self.obj)
            self.sim.spawn(c, hub)
        self.returns = {}

    def cell(self, rid):
        return self.replicas[rid].stores[0].cell

    def write(self, trigger, cid, v, cert=OPEN_CERT):
        def fire():
            def done(ack):
                self.returns.setdefault(cid, []).append(("write", v, ack))
                self.sim.note_fact(f"ret:{cid}")

            self.clients[cid].write(v, cert, done)

        self.sim.add_external(trigger, "invoke", fire, to=cid, desc="write")

    def read(self, trigger, cid):
        def fire():
            def done(v, ack):
                self.returns.setdefault(cid, []).append(("read", v, ack))
                self.sim.note_fact(f"ret:{cid}")

            self.clients[cid].read(done)

        self.sim.add_external(trigger, "invoke", fire, to=cid, desc="read")

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


def test_read_after_writes_returns_largest():
    w = World(cids=("a", "b", "c"))
    w.write(Trigger(at=0), "a", 5)
    w.write(Trigger(at=0), "b", 3)
    w.read(Trigger(fact="ret:a", offset=1), "c")
    assert w.sim.run()["verdict"] == "quiescent"
    kind, v, ack = w.returns["c"][0]
    assert kind == "read" and v >= 5
    assert ack["v"] == v and w.genesis.is_quorum(ack["acks"].sigs.keys())


def test_read_on_fresh_register_returns_none():
    w = World(cids=("c",))
    w.read(Trigger(at=0), "c")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.returns["c"][0] == ("read", None, None)


def test_write_back_repairs_partial_write():
    w = World(seed=11, cids=("a", "c"))
    w.sim.add_hold(HoldRule(frm={"a"}, to={"r4"}, desc="mr.set"))
    w.write(Trigger(at=0), "a", 9)
    w.read(Trigger(fact="ret:a", offset=1), "c")
    res = w.sim.run()
    # the held copy stays buffered forever, so the run cannot go quiescent
    assert res["verdict"] == "stalled"
    assert w.returns["a"][0][1] == 9
    assert w.returns["c"][0][1] == 9
    assert w.cell("r4") is not None and w.cell("r4").value == 9


def test_uncertified_write_gets_no_ack_and_no_cell():
    w = World(cids=("c",), plain_inputs=True)
    probe = Probe()
    w.sim.spawn("z", probe)
    bogus = {"kind": "plain", "signer": "z", "sig": "00"}
    w.sim.add_external(
        Trigger(at=0),
        "invoke",
        lambda: probe.api.send("r1", Msg("mr.set", "mr", {"iv": InputValue(7, bogus), "sn": 1, "config": w.genesis})),
        to="z",
        desc="bogus-set",
    )
    w.sim.run()
    assert probe.got == []
    assert w.cell("r1") is None


def test_certified_write_round_trip():
    w = World(cids=("a", "c"), plain_inputs=True)
    cert = make_plain_input_cert(w.oracle, "mr", "a", 4)
    w.write(Trigger(at=0), "a", 4, cert=cert)
    w.read(Trigger(fact="ret:a", offset=1), "c")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.returns["c"][0][1] == 4


def test_value_survives_reconfiguration():
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=3, rids=rids, cids=("a", "c", "u"), genesis_rids=rids[:4])
    c1 = w.grown("r5")
    w.write(Trigger(at=0), "a", 7)
    w.update_history(Trigger(fact="ret:a", offset=1), "u", History([w.genesis, c1]))
    w.read(Trigger(fact=f"inst:h{c1.height()}", offset=5), "c")
    assert w.sim.run()["verdict"] == "quiescent"
    kind, v, ack = w.returns["c"][0]
    assert v == 7
    assert ack["cid"] == c1.cid()
    assert w.cell("r5") is not None and w.cell("r5").value == 7


def test_write_in_flight_restarts_at_new_configuration():
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=5, rids=rids, cids=("a", "u"), genesis_rids=rids[:4])
    c1 = w.grown("r5")
    hold = HoldRule(frm={"a"}, desc="mr.set", until=Trigger(fact=f"inst:h{c1.height()}", offset=10))
    w.sim.add_hold(hold)
    w.write(Trigger(at=0), "a", 6)
    w.update_history(Trigger(at=1), "u", History([w.genesis, c1]))
    assert w.sim.run()["verdict"] == "quiescent"
    kind, v, ack = w.returns["a"][0]
    assert ack["cid"] == c1.cid() and ack["h"] == c1.height()
    assert w.clients["a"].restarts >= 1


def test_reads_are_monotone():
    w = World(seed=8, cids=("a", "b", "c"))
    w.write(Trigger(at=0), "a", 2)
    w.read(Trigger(fact="ret:a", offset=1), "b")
    w.read(Trigger(fact="ret:b", offset=1), "c")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.returns["c"][0][1] >= w.returns["b"][0][1] >= 2


def test_client_rejects_uncertified_write():
    w = World(cids=("a",), plain_inputs=True)
    with pytest.raises(ValueError):
        w.clients["a"].write(3, {"kind": "plain", "signer": "a", "sig": "00"}, lambda ack: None)


def test_bool_cell_from_a_byzantine_replica_does_not_count():
    # True passes isinstance(_, int) but the run's object admits only ints,
    # so taking it as the largest cell would stall the read in its
    # write-back round. As a list the cell does not fit the wire; as an
    # InputValue the object refuses it
    for cell in ([True, OPEN_CERT], InputValue(True, OPEN_CERT)):
        w = World(cids=("c",))

        def evil(adv, ev, cell=cell):
            if ev.msg.desc == "mr.get":
                body = {"sn": ev.msg.body["sn"], "cell": cell}
                adv.send("r4", ev.frm, Msg("mr.getresp", "mr", body))

        probe = Probe()
        w.sim.spawn("z", probe)
        w.sim.add_external(Trigger(at=0), "invoke", lambda: probe.api.send("r4", Msg("kick", "mr", {})), to="z",
                           desc="kick")
        w.sim.add_external(Trigger(at=3), "adversary", lambda: w.sim.corrupt("r4", evil), to="r4", desc="corrupt")
        w.read(Trigger(at=4), "c")
        assert w.sim.run()["verdict"] == "quiescent"
        assert w.returns.get("c") == [("read", None, None)]
        # nor may state transfer plant it in a joining replica
        store = MaxRegStore("mr", w.obj)
        store.xfer_merge(cell)
        assert store.cell is None
