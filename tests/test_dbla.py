import base64
import json

import pytest
from authority_history import check_authority_history, make_authority_history_cert
from hypothesis import example, given, strategies as st

from dynbla.dbla import (
    GENESIS_CERT,
    AcCert,
    ClientHub,
    DblaClient,
    DblaStore,
    DynamicObject,
    DynamicReplica,
    InputValue,
    OutputCert,
    QuorumCert,
    check_plain_input,
    join_values,
    make_plain_input_cert,
    open_input,
    verify_output,
)
from dynbla.fscrypto import FsSig, LedgerFsOracle, LedgerVerifier
from dynbla.lattice import ADD, REMOVE, Config, FinSet, History, canon, genesis_config
from dynbla.maxreg import MaxRegStore
from dynbla.simnet import HoldRule, Msg, Simulator, Trigger, trace_hash


class Probe:
    """Bare automaton for poking replicas with raw messages."""

    def __init__(self):
        self.got = []

    def bind(self, api):
        self.api = api

    def on_deliver(self, frm, msg):
        self.got.append((frm, msg))


class World:
    def __init__(
        self, seed=7, rids=("r1", "r2", "r3", "r4"), cids=("p",), genesis_rids=None, plain_inputs=False, maxreg=False
    ):
        self.oracle = LedgerFsOracle()
        self.sim = Simulator(seed, self.oracle)
        self.genesis = genesis_config(genesis_rids or rids)
        self.obj = DynamicObject(
            "obj",
            self.genesis,
            check_value=(check_plain_input(self.oracle, "obj", lambda v: type(v) is FinSet) if plain_inputs
                         else open_input(lambda v: type(v) is FinSet)),
            check_history=check_authority_history(self.oracle, "grp"),
        )
        roster = list(rids) + list(cids)
        self.replicas = {}
        for r in rids:
            stores = [DblaStore("la", self.obj)]
            if maxreg:
                stores.append(MaxRegStore("mr", DynamicObject("mr", self.genesis, check_value=open_input(
                    lambda v: type(v) is int))))
            rep = DynamicReplica("grp", self.genesis, stores, self.obj.check_history, roster)
            self.replicas[r] = rep
            self.sim.spawn(r, rep)
        self.hubs = {}
        self.clients = {}
        for c in cids:
            hub = ClientHub("grp", self.genesis, self.obj.check_history, roster)
            self.hubs[c] = hub
            self.clients[c] = DblaClient(hub, self.obj)
            self.sim.spawn(c, hub)
        self.returns = {}

    def propose(self, trigger, cid, value, cert=None):
        cert = {"kind": "any"} if cert is None else cert

        def fire():
            def done(w, oc):
                self.returns.setdefault(cid, []).append((w, oc))
                self.sim.note_fact(f"ret:{cid}")

            self.clients[cid].propose(value, cert, done)

        self.sim.add_external(trigger, "invoke", fire, to=cid, desc="propose")

    def update_history(self, trigger, cid, hist):
        cert = make_authority_history_cert(self.oracle, "grp", hist)

        def fire():
            self.hubs[cid].update_history(hist, cert, done=lambda: self.sim.note_fact(f"uret:{cid}"))

        self.sim.add_external(trigger, "invoke", fire, to=cid, desc="update_history")

    def grown(self, *more):
        updates = set(self.genesis.updates)
        for r in more:
            updates.add((ADD, r))
        return Config(updates)


def test_single_propose_returns_verifiable_join():
    w = World(cids=("p",))
    val = FinSet({"a"})
    w.propose(Trigger(at=0), "p", val)
    res = w.sim.run()
    assert res["verdict"] == "quiescent"
    out, cert = w.returns["p"][0]
    assert out == val
    assert cert.anchor() == w.genesis
    assert verify_output(w.obj, w.oracle, out, cert)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
def test_concurrent_outputs_comparable_and_inclusive(seed):
    cids = tuple(f"p{i}" for i in range(1, 6))
    w = World(seed=seed, cids=cids)
    mine = {}
    for i, c in enumerate(cids):
        mine[c] = FinSet({f"x{i}"})
        w.propose(Trigger(at=0), c, mine[c])
    assert w.sim.run()["verdict"] == "quiescent"
    outs = {}
    for c in cids:
        out, cert = w.returns[c][0]
        assert mine[c].leq(out)
        assert verify_output(w.obj, w.oracle, out, cert)
        outs[c] = out
    vals = list(outs.values())
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert vals[i].leq(vals[j]) or vals[j].leq(vals[i])


def test_verify_output_rejects_tampering():
    w = World(cids=("p",))
    w.propose(Trigger(at=0), "p", FinSet({"a"}))
    w.sim.run()
    out, cert = w.returns["p"][0]
    assert verify_output(w.obj, w.oracle, out, cert)

    assert not verify_output(w.obj, w.oracle, FinSet({"a", "zz"}), cert)

    short = dict(cert.cacks.sigs)
    short.pop(sorted(short)[0])
    assert not verify_output(
        w.obj, w.oracle, out, OutputCert(cert.values, cert.history, cert.hist_cert, cert.packs, short)
    )

    swapped = dict(cert.packs.sigs)
    pids = sorted(swapped)
    swapped[pids[0]] = FsSig(pids[0], 0, b"\x00" * 16)
    assert not verify_output(
        w.obj, w.oracle, out, OutputCert(cert.values, cert.history, cert.hist_cert, swapped, cert.cacks)
    )

    fake_hist = History([w.genesis, w.grown("r9")])
    assert not verify_output(
        w.obj, w.oracle, out, OutputCert(cert.values, fake_hist, cert.hist_cert, cert.packs, cert.cacks)
    )

    extra = list(cert.values) + [InputValue(FinSet({"zz"}), {"kind": "any"})]
    assert not verify_output(
        w.obj, w.oracle, FinSet({"a", "zz"}), OutputCert(extra, cert.history, cert.hist_cert, cert.packs, cert.cacks)
    )

    assert not verify_output(w.obj, w.oracle, out, {"not": "a cert"})


def test_verify_output_refuses_values_that_join_to_no_history():
    # two one-configuration histories that are not comparable have no join:
    # a certificate whose values they are is refused, and nothing raises
    w = World(cids=("p",))
    a, b = History([w.grown("x")]), History([w.grown("y")])
    with pytest.raises(ValueError):
        a.join(b)
    values = [InputValue(a, {"kind": "any"}), InputValue(b, {"kind": "any"})]
    cert = OutputCert(values, History([w.genesis]), GENESIS_CERT, {}, {})
    for out in (a, b, History([w.genesis])):
        assert not verify_output(w.obj, w.oracle, out, cert)


def test_a_certificate_built_from_dict_maps_holds_them_as_quorum_certs():
    # a copy of a verified output with its maps rebuilt as raw dicts is the
    # same certificate: it verifies and writes the same JSON
    w = World(cids=("p",))
    w.propose(Trigger(at=0), "p", FinSet({"a"}))
    w.sim.run()
    out, cert = w.returns["p"][0]
    assert QuorumCert.of(cert.packs) is cert.packs
    alike = OutputCert(cert.values, cert.history, cert.hist_cert, dict(cert.packs.sigs), dict(cert.cacks.sigs))
    assert type(alike.packs) is type(alike.cacks) is QuorumCert
    assert verify_output(w.obj, w.oracle, out, alike)
    assert alike.to_jsonable() == cert.to_jsonable()


def test_output_cert_jsonable_round_trip():
    w = World(cids=("p",))
    w.propose(Trigger(at=0), "p", FinSet({"a"}))
    w.sim.run()
    out, cert = w.returns["p"][0]
    back = OutputCert.from_jsonable(cert.to_jsonable())
    assert back.canon() == cert.canon()
    assert verify_output(w.obj, w.oracle, out, back)


@pytest.mark.parametrize("token", [{"kind": "ocert", "ref": 0}, {"kind": "ocert", "oc": {}}, {"ackind": "sanity"}])
def test_a_token_shaped_like_a_certificate_round_trips_as_a_token(token):
    # a slot's key, not a token's content, names a certificate's kind: a
    # token that reads like a shared reference, an inline node or an access
    # grant is written under "c" or "hcert" and read back as itself, beside
    # a nested certificate under "r" and "href" and a grant under "a" and "hac"
    g = History([genesis_config(["r1"])])
    grant = AcCert("admin", "acl", "s", 3, None, {"a1": "00"}, {})
    inner = OutputCert([InputValue(FinSet({"a"}), token), InputValue(FinSet({"b"}), grant)], g, token, {}, {})
    cert = OutputCert([InputValue(FinSet({"c"}), token), InputValue(FinSet({"d"}), inner)], g, inner, {}, {})
    js = cert.to_jsonable()
    assert [{k: v for k, v in e.items() if k != "v"} for e in js["values"]] == [{"c": token}, {"r": 0}]
    assert js["href"] == 0 and "hcert" not in js
    (entry,) = js["shared"]
    assert entry["hcert"] == token and entry["values"][0]["c"] == token and "shared" not in entry
    assert entry["values"][1]["a"] == grant.to_jsonable()
    text = json.dumps(js)
    back = OutputCert.from_jsonable(json.loads(text))
    assert back.canon() == cert.canon() and json.dumps(back.to_jsonable()) == text
    assert back.values[0].cert == token and back.hist_cert.hist_cert == token
    assert back.hist_cert.values[1].cert == grant
    # and a grant as the history certificate
    held = OutputCert([InputValue(FinSet({"e"}), token)], g, grant, {}, {})
    js = held.to_jsonable()
    assert js["hac"] == grant.to_jsonable() and "shared" not in js
    assert OutputCert.from_jsonable(json.loads(json.dumps(js))).canon() == held.canon()


def test_output_verdict_is_not_reused_by_another_oracle():
    w = World(cids=("p",))
    w.propose(Trigger(at=0), "p", FinSet({"a"}))
    w.sim.run()
    out, cert = w.returns["p"][0]
    assert verify_output(w.obj, LedgerVerifier(w.oracle.dump_ledger()), out, cert)
    # each fresh verifier may land at the address of a freed one
    for _ in range(50):
        assert not verify_output(w.obj, LedgerVerifier([]), out, cert)


def test_reconfig_transfer_carries_values_and_updates_keys():
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=13, rids=rids, cids=("p", "q", "u"), genesis_rids=rids[:4])
    c1 = w.grown("r5")
    h1 = History([w.genesis, c1])

    w.propose(Trigger(at=0), "p", FinSet({"a"}))
    w.update_history(Trigger(fact="ret:p", offset=1), "u", h1)
    w.propose(Trigger(fact=f"inst:h{c1.height()}", offset=5), "q", FinSet({"b"}))

    res = w.sim.run()
    assert res["verdict"] == "quiescent"

    for r in rids:
        rep = w.replicas[r]
        assert rep.history == h1
        assert rep.ccurr == c1 and rep.cinst == c1
        assert c1 in rep.installed
        assert w.oracle.st(r) == c1.height()
        # watermark forbids signing for the superseded configuration
        assert w.oracle.fs_sign(r, b"late", w.genesis.height()) is None

    out_q, cert_q = w.returns["q"][0]
    assert FinSet({"a", "b"}).leq(out_q)
    assert cert_q.anchor() == c1
    assert verify_output(w.obj, w.oracle, out_q, cert_q)

    # transferred value set reached the joining replica
    assert any(iv.value == FinSet({"a"}) for iv in w.replicas["r5"].stores[0].vals.values())


def test_client_blind_to_new_history_restarts_after_release():
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=5, rids=rids, cids=("q", "u"), genesis_rids=rids[:4])
    c1 = w.grown("r5")
    h1 = History([w.genesis, c1])

    w.sim.add_hold(HoldRule(to={"q"}, desc="hist.new", until=Trigger(fact=f"inst:h{c1.height()}", offset=30)))
    w.update_history(Trigger(at=0), "u", h1)
    w.propose(Trigger(fact=f"inst:h{c1.height()}", offset=2), "q", FinSet({"b"}))

    res = w.sim.run()
    assert res["verdict"] == "quiescent"
    out, cert = w.returns["q"][0]
    assert cert.anchor() == c1
    assert w.clients["q"].restarts >= 1
    assert any(rep.dropped > 0 for rep in w.replicas.values())
    assert verify_output(w.obj, w.oracle, out, cert)


def test_xfer_read_buffered_until_target_is_superseded():
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=3, rids=rids, cids=("u",), genesis_rids=rids[:4])
    probe = Probe()
    w.sim.spawn("z", probe)
    c1 = w.grown("r5")
    h1 = History([w.genesis, c1])

    w.sim.add_external(
        Trigger(at=0),
        "invoke",
        lambda: probe.api.send("r1", Msg("xfer.read", "grp", {"sn": 9, "config": w.genesis})),
        to="z",
        desc="probe",
    )
    w.sim.run(max_steps=4)
    assert probe.got == []
    assert any(m.desc == "xfer.read" for _, m in w.replicas["r1"].buffered)

    w.update_history(Trigger(at=4), "u", h1)
    assert w.sim.run()["verdict"] == "quiescent"
    resp = [m for _, m in probe.got if m.desc == "xfer.resp"]
    assert resp and resp[0].body["sn"] == 9


def test_install_upcall_once_per_replica():
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=2, rids=rids, cids=("u",), genesis_rids=rids[:4])
    c1 = w.grown("r5")
    w.update_history(Trigger(at=0), "u", History([w.genesis, c1]))
    assert w.sim.run()["verdict"] == "quiescent"
    installs = [l for l in w.sim.trace if l["kind"] == "upcall" and l["desc"] == "install"]
    assert sorted(l["to"] for l in installs) == sorted(rids)
    assert all(l["detail"]["h"] == c1.height() for l in installs)


def test_byzantine_replica_garbage_is_ignored():
    w = World(seed=9, cids=("p",), plain_inputs=True)
    good = make_plain_input_cert(w.oracle, "obj", "p", FinSet({"a"}))

    def evil(adv, ev):
        if ev.msg.desc == "bla.propose":
            bogus = InputValue(FinSet({"zz"}), {"kind": "plain", "signer": "p", "sig": "00"})
            adv.send(
                "r4",
                ev.frm,
                Msg(
                    "bla.presp",
                    "obj",
                    {"values": [bogus], "sig": FsSig("r4", 0, b"\x00" * 8), "sn": ev.msg.body["sn"]},
                ),
            )

    probe = Probe()
    w.sim.spawn("z", probe)
    w.sim.add_external(
        Trigger(at=0), "invoke", lambda: probe.api.send("r4", Msg("kick", "obj", {})), to="z", desc="kick"
    )
    w.sim.add_external(Trigger(at=3), "adversary", lambda: w.sim.corrupt("r4", evil), to="r4", desc="corrupt")
    w.propose(Trigger(at=8), "p", FinSet({"a"}), cert=good)

    assert w.sim.run()["verdict"] == "quiescent"
    out, cert = w.returns["p"][0]
    assert out == FinSet({"a"})
    assert "r4" not in cert.packs.sigs
    assert verify_output(w.obj, w.oracle, out, cert)


@pytest.mark.parametrize(
    "msg",
    [
        Msg("bla.propose", "obj", None),
        Msg("bla.propose", "obj", {"sn": 1, "config": "c"}),
        Msg("xfer.read", "grp", None),
        Msg("xfer.read", "grp", {"sn": 1, "config": ["r1"]}),
    ],
    ids=["propose-no-body", "propose-bad-config", "xfer-no-body", "xfer-bad-config"],
)
def test_malformed_request_is_a_counted_drop(msg):
    w = World(cids=())
    probe = Probe()
    w.sim.spawn("z", probe)
    w.sim.add_external(Trigger(at=0), "invoke", lambda: probe.api.send("r1", msg), to="z", desc="probe")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.replicas["r1"].dropped == 1
    assert w.replicas["r1"].buffered == []
    assert probe.got == []


_WITH_Z = Config((ADD, r) for r in ("r1", "r2", "r3", "r4", "z"))
_HIST = History([genesis_config(("r1", "r2", "r3", "r4")), _WITH_Z])
_MISSING = object()


@pytest.mark.parametrize("sn", [_MISSING, None, "1", True, [1]], ids=["no-sn", "none", "str", "bool", "list"])
@pytest.mark.parametrize(
    "desc, obj, fields",
    [
        ("bla.propose", "obj", {"values": []}),
        ("bla.confirm", "obj", {"packs": QuorumCert({})}),
        ("mr.set", "mr", {"iv": InputValue(1, {"kind": "any"})}),
        ("mr.get", "mr", {}),
        ("xfer.read", "grp", {}),
    ],
    ids=["propose", "confirm", "mr-set", "mr-get", "xfer-read"],
)
def test_request_without_int_sn_is_a_counted_drop(desc, obj, fields, sn):
    # every request here is servable: it names the installed configuration,
    # or for xfer.read the superseded genesis
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=4, rids=rids, cids=("u",), genesis_rids=rids[:4], maxreg=True)
    c1 = w.grown("r5")
    w.update_history(Trigger(at=0), "u", History([w.genesis, c1]))
    assert w.sim.run()["verdict"] == "quiescent"
    r1 = w.replicas["r1"]
    assert r1.cinst == c1
    dropped = r1.dropped

    body = {**fields, "config": w.genesis if desc == "xfer.read" else c1}
    if sn is not _MISSING:
        body["sn"] = sn
    probe = Probe()
    w.sim.spawn("z", probe)
    w.sim.add_external(
        Trigger(at=w.sim.next_step), "invoke", lambda: probe.api.send("r1", Msg(desc, obj, body)), to="z", desc="probe"
    )
    assert w.sim.run()["verdict"] == "quiescent"
    assert r1.dropped == dropped + 1
    assert r1.buffered == []
    assert probe.got == []




def _inner(**fields):
    inner = {"origin": "r2", "config": _WITH_Z}
    inner.update(fields)
    return {k: v for k, v in inner.items() if v is not _MISSING}


@pytest.mark.parametrize(
    "msg",
    [
        Msg("hist.new", "grp", None),
        Msg("hist.new", "grp", {"cert": {}}),
        Msg("hist.new", "grp", {"hist": _HIST}),
        Msg("hist.new", "grp", {"hist": [_WITH_Z], "cert": {}}),
        Msg("hist.new", "grp", {"hist": _HIST, "cert": "c"}),
        Msg("urb.init", "grp", None),
        Msg("urb.init", "grp", _inner(config=_MISSING)),
        Msg("urb.init", "grp", _inner(config="c")),
        Msg("urb.init", "grp", _inner(origin=["r2"])),
        Msg("urb.echo", "grp", None),
        Msg("urb.echo", "grp", {"sig": b""}),
        Msg("urb.echo", "grp", {"inner": _inner()}),
        Msg("urb.echo", "grp", {"inner": _inner(origin=_MISSING), "sig": b""}),
        Msg("urb.cert", "grp", {"inner": _inner(config="c"), "cert": {}}),
        Msg("urb.cert", "grp", {"inner": _inner()}),
        Msg("urb.cert", "grp", {"inner": _inner(), "cert": ["r1"]}),
    ],
    ids=[
        "hist-no-body", "hist-no-hist", "hist-no-cert", "hist-hist-list", "hist-cert-str",
        "urb-init-no-body", "urb-init-no-config", "urb-init-config-str", "urb-init-origin-list",
        "urb-echo-no-body", "urb-echo-no-inner", "urb-echo-no-sig", "urb-echo-inner-no-origin",
        "urb-cert-config-str", "urb-cert-no-cert", "urb-cert-cert-list",
    ],
)
def test_malformed_broadcast_is_ignored(msg):
    w = World(cids=())
    probe = Probe()
    w.sim.spawn("z", probe)
    w.sim.add_external(Trigger(at=0), "invoke", lambda: probe.api.send("r1", msg), to="z", desc="probe")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.sim.metrics["sent"] == 1       # no forward, echo or certificate
    assert w.replicas["r1"].dropped == 1    # the wire gate counts it
    assert probe.got == []


def test_client_ignores_hist_new_without_history():
    w = World(cids=("p",))
    probe = Probe()
    w.sim.spawn("z", probe)
    msg = Msg("hist.new", "grp", {"cert": {}})
    w.sim.add_external(Trigger(at=0), "invoke", lambda: probe.api.send("p", msg), to="z", desc="probe")
    assert w.sim.run()["verdict"] == "quiescent"
    assert w.hubs["p"].history == w.obj.genesis_history


def test_adversary_cannot_send_an_unencodable_body():
    w = World(cids=())
    probe = Probe()
    w.sim.spawn("z", probe)
    probe.api.send("z", Msg("noop", "grp", {}))
    w.sim.run(1)
    w.sim.corrupt("z", lambda api, ev: None)
    with pytest.raises(ValueError):
        w.sim.adv_api.send("z", "r1", Msg("hist.new", "grp", {"hist": 1.5, "cert": {}}))
    assert len(w.sim.pending) == 0


@pytest.mark.parametrize(
    "msg",
    [
        Msg(["bla.presp"], "obj", {"values": [], "sig": None, "sn": 1}),
        Msg(7, "obj", {"sn": 1}),
        Msg("bla.presp", 7, {"values": [], "sig": None, "sn": 1}),
    ],
    ids=["desc-list", "desc-int", "obj-int"],
)
def test_adversary_cannot_send_a_non_str_desc_or_obj(msg):
    # at a client a list desc used to raise in QuorumSession.on_deliver, and
    # with a hold rule matching the sender an int desc raised in HoldRule.matches
    w = World(cids=("p",))
    probe = Probe()
    w.sim.spawn("z", probe)
    w.sim.add_hold(HoldRule(frm={"z"}, desc="zz"))
    probe.api.send("z", Msg("noop", "grp", {}))
    w.sim.run(1)
    w.sim.corrupt("z", lambda api, ev: None)
    with pytest.raises(ValueError, match="must be str"):
        w.sim.adv_api.send("z", "p", msg)
    assert len(w.sim.pending) == 0 and w.sim.metrics["held"] == 0
    assert w.sim.run()["verdict"] == "quiescent"


@pytest.mark.parametrize(
    "cert",
    [
        {"kind": "plain", "signer": "p", "sig": "zz"},
        {"kind": "plain", "signer": "p", "sig": 5},
        {"kind": "plain", "signer": 5, "sig": "00"},
        {"kind": "plain", "sig": "00"},
    ],
    ids=["sig-not-hex", "sig-int", "signer-int", "no-signer"],
)
def test_malformed_plain_signatures_are_refused_not_raised(cert):
    oracle = LedgerFsOracle()
    assert not check_plain_input(oracle, "obj", lambda v: type(v) is FinSet)(FinSet({"a"}), cert)
    authority = {**cert, "kind": "authority"}
    assert not check_authority_history(oracle, "grp")(History([genesis_config(["r1"])]), authority)


def test_a_plain_signed_value_outside_the_objects_lattice_is_refused():
    # a plain signature vouches for who proposed a value, not for its type:
    # the set object's check keeps its lattice predicate
    w = World(cids=("p",), plain_inputs=True)
    assert not w.obj.check_value(InputValue(5, make_plain_input_cert(w.oracle, "obj", "p", 5)))
    ok = FinSet({"a"})
    assert w.obj.check_value(InputValue(ok, make_plain_input_cert(w.oracle, "obj", "p", ok)))


def test_invalid_input_cert_rejected_at_propose():
    w = World(cids=("p",), plain_inputs=True)
    with pytest.raises(ValueError):
        w.clients["p"].propose(FinSet({"a"}), {"kind": "plain", "signer": "p", "sig": "00"}, lambda *a: None)


_SIG_MAPS = st.dictionaries(
    st.text(max_size=4),
    st.builds(FsSig, st.text(max_size=4), st.integers(min_value=0, max_value=2**40), st.binary(max_size=16)),
    max_size=6,
)


@given(_SIG_MAPS)
@example({})
def test_a_quorum_cert_encodes_and_round_trips_as_its_signature_map(m):
    qc = QuorumCert(m)
    shown = repr(qc)
    assert qc.canon() == canon(m) == canon(dict(qc.sigs))
    js = qc.to_jsonable()
    assert list(js["sigs"]) == list(m)
    back = QuorumCert.from_jsonable(json.loads(json.dumps(js)))
    assert back.canon() == qc.canon() and dict(back.sigs) == m
    # the encoding is memoised: set once, by no assignment or argument, and no part of repr
    assert qc._canon is qc.canon()
    assert repr(qc) == shown and "_canon" not in shown
    with pytest.raises(TypeError):
        QuorumCert(m, _canon=b"forged")
    with pytest.raises(AttributeError):
        qc._canon = b"forged"
    assert qc.canon() == canon(m)
    # a certificate that holds it encodes the same after a JSON round trip,
    # and a message copy shares it, memo and all
    cert = OutputCert([InputValue(FinSet({"a"}), {"kind": "any"})], History([genesis_config(["r1"])]),
                      GENESIS_CERT, qc, m)
    assert OutputCert.from_jsonable(json.loads(json.dumps(cert.to_jsonable()))).canon() == cert.canon()
    msg = Msg("bla.confirm", "obj", {"sn": 1, "packs": qc})
    copy = msg.copy()
    assert copy.body["packs"] is qc and copy.mhash() == msg.mhash()


def test_a_uniform_quorum_writes_its_height_once_and_its_signers_only_as_keys():
    w = World(cids=("p",))
    w.propose(Trigger(at=0), "p", FinSet({"a"}))
    w.sim.run()
    _, cert = w.returns["p"][0]
    h = cert.anchor().height()
    for qc in (cert.packs, cert.cacks):
        # each 32-byte ledger signature in 44 characters of base64, not 64 of hex
        assert qc.to_jsonable() == {"ts": h, "sigs": {p: base64.b64encode(s.data).decode()
                                                      for p, s in qc.sigs.items()}}
        assert {len(s) for s in qc.to_jsonable()["sigs"].values()} == {44}
    # a signature whose signer is not its key, or whose height is not the
    # first signature's, keeps its whole JSON
    odd = QuorumCert({"r1": FsSig("r1", 2, b"\x01"), "r2": FsSig("r9", 2, b"\x02"), "r3": FsSig("r3", 5, b"\x03")})
    assert odd.to_jsonable() == {"ts": 2, "sigs": {"r1": "AQ==", "r2": {"signer": "r9", "ts": 2, "data": "Ag=="},
                                                   "r3": {"signer": "r3", "ts": 5, "data": "Aw=="}}}
    assert QuorumCert({}).to_jsonable() == {"ts": 0, "sigs": {}}


# a signature's data, b"\xff\x00" ("/wA="), written otherwise: without its
# "=", with a character a lenient decoder skips, with nonzero trailing bits,
# with a newline, or with more than one "=" block
@pytest.mark.parametrize("written", ["/wA", "/w*A=", "/wB=", "/wA=\n", "/wA=/wA="])
def test_a_quorum_reads_back_only_the_exact_base64_of_each_signature(written):
    assert QuorumCert.from_jsonable({"ts": 1, "sigs": {"r1": "/wA="}}).sigs["r1"].data == b"\xff\x00"
    for form in ({"r1": written}, {"r1": {"signer": "r1", "ts": 1, "data": written}}):
        with pytest.raises(ValueError):
            QuorumCert.from_jsonable({"ts": 1, "sigs": form})
    with pytest.raises(TypeError):
        QuorumCert.from_jsonable({"ts": 1, "sigs": {"r1": {"signer": "r1", "ts": 1, "data": 255}}})


# a chain of comparable configurations, for histories, and one beside it;
# nodes drawn from these share configurations
_CHAIN = [genesis_config(["r1"]), genesis_config(["r1", "r2"]), Config([(ADD, "r1"), (ADD, "r2"), (REMOVE, "r1")])]
_HISTORIES = st.sets(st.sampled_from(_CHAIN), min_size=1).map(History)
_INPUTS = st.one_of(
    st.builds(FinSet, st.sets(st.text(max_size=3), max_size=3)),
    st.sampled_from([*_CHAIN, genesis_config(["r3"])]),
    _HISTORIES,
    st.integers(),
    st.text(max_size=3),
)
_TOKENS = st.sampled_from([GENESIS_CERT, {"kind": "any"}, {"kind": "ocert", "ref": 0}, {"kind": "ocert", "oc": {}},
                           {"ackind": "sanity"}, {"l": [1, True, None]}])
_GRANTS = st.sampled_from([AcCert("admin", "acl", "s", 3, None, {"a1": "00"}, {}),
                           AcCert("sanity", "acl", "s", "x", _CHAIN[1], {"r1": FsSig("r1", 2, b"\x00")}, {})])


# quorums of height h, some of whose signatures name another signer or
# height than their key and h, and whose data is short, or as long as a
# ledger (32 bytes) or an Ed25519 (64 bytes) signature, besides the
# arbitrary maps
_QUORUMS = _SIG_MAPS | st.builds(
    lambda h, sigs: {p: FsSig(p if s is None else s, h if t is None else t, d) for p, s, t, d in sigs},
    st.integers(min_value=0, max_value=9),
    st.lists(st.tuples(st.sampled_from(["r1", "r2", "r3", "r4"]), st.none() | st.text(max_size=2),
                       st.none() | st.integers(min_value=0, max_value=9),
                       st.binary(max_size=8) | st.binary(min_size=32, max_size=32)
                       | st.binary(min_size=64, max_size=64)), max_size=4),
)


def _output_certs(children):
    return st.builds(
        lambda ivs, hist, hcert, packs, cacks: OutputCert([InputValue(v, c) for v, c in ivs], hist, hcert, packs,
                                                          cacks),
        st.lists(st.tuples(_INPUTS, children), min_size=1, max_size=3), _HISTORIES, children, _QUORUMS, _QUORUMS)


_CERTS = st.recursive(st.one_of(_TOKENS, _GRANTS), _output_certs, max_leaves=6)


@given(_output_certs(_CERTS))
def test_certificate_json_round_trips_over_arbitrary_dags(cert):
    # whatever its signature maps (signers that are not their keys, mixed
    # heights, none at all) and however its nodes share certificates and
    # configurations, a returned certificate reads back as itself, and
    # writes the same JSON again
    text = json.dumps(cert.to_jsonable())
    back = OutputCert.from_jsonable(json.loads(text))
    assert back.canon() == cert.canon()
    assert json.dumps(back.to_jsonable()) == text


def test_a_node_the_memo_holds_needs_its_configurations_in_each_return_that_names_it():
    # a node decoded from one return's JSON is a memo hit in another's that
    # shares its fields, as a live run's returns do; that return's "cfgs"
    # must still write every configuration the node names, as a file's must
    g = History([genesis_config(["r1"])])
    x = genesis_config(["r9"])
    inner = OutputCert([InputValue(x, {"kind": "any"})], g, GENESIS_CERT, {}, {})
    outer = OutputCert([InputValue(FinSet({"a"}), inner)], g, GENESIS_CERT, {}, {})
    memo = {}
    assert OutputCert.from_jsonable(outer.to_jsonable(), memo).canon() == outer.canon()
    again = outer.to_jsonable()
    assert OutputCert.from_jsonable(again, memo).canon() == outer.canon()
    del again["cfgs"][x.cid()]
    with pytest.raises(KeyError, match=x.cid()):
        OutputCert.from_jsonable(again, memo)


def test_offline_ledger_verifier_accepts_outputs():
    w = World(cids=("p",))
    w.propose(Trigger(at=0), "p", FinSet({"a"}))
    w.sim.run()
    out, cert = w.returns["p"][0]
    offline = LedgerVerifier(w.oracle.dump_ledger())
    assert verify_output(w.obj, offline, out, cert)
    short = dict(cert.cacks.sigs)
    short.pop(sorted(short)[0])
    bad = OutputCert(cert.values, cert.history, cert.hist_cert, cert.packs, short)
    assert not verify_output(w.obj, offline, out, bad)


def _run_full_stack(seed):
    rids = ("r1", "r2", "r3", "r4", "r5")
    w = World(seed=seed, rids=rids, cids=("p", "q", "u"), genesis_rids=rids[:4])
    c1 = w.grown("r5")
    w.propose(Trigger(at=0), "p", FinSet({"a"}))
    w.update_history(Trigger(fact="ret:p", offset=1), "u", History([w.genesis, c1]))
    w.propose(Trigger(fact=f"inst:h{c1.height()}", offset=5), "q", FinSet({"b"}))
    w.sim.run()
    return trace_hash(w.sim.trace)


def test_full_stack_deterministic():
    assert _run_full_stack(21) == _run_full_stack(21)
