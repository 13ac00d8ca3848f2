"""Dynamic Byzantine lattice agreement.

Client side: every session (lattice agreement here, the max-register and
access control elsewhere) is a QuorumSession. It anchors at the hub's
highest adopted configuration, fans each round out to that configuration's
replicas, counts at most one valid reply per member for the current round,
and restarts when the hub adopts a longer history. Propose is two such
rounds. Phase one refines a value set against one configuration until a
quorum signs byte-identical copies; phase two has a quorum countersign the
collected acks with forward-secure keys at the configuration's height. The
pair of quorums makes the output self-verifying and, via the key
watermarks, impossible to anchor at a superseded configuration after its
keys moved on.

Both process kinds check every message where it enters the process against
one table, WIRE: the fields each message kind must carry and their exact
types. A replica counts a message that does not fit as dropped, a client
ignores it, and every handler past that gate reads fields directly. A sent
message is immutable (simnet.Msg), so the verdict is reached once per
message object, whatever the number of its recipients, and a parked request
is routed again without a second check.

Client hubs and replicas follow the group's history through one rule, in
their shared base Follower: a gossiped hist.new is adopted only if its
history strictly extends the current one and check_history accepts its
certificate, and a follower relays the same hist.new for what it adopts,
and nothing else, to the rest of the roster but the process it came from.
A hub that certifies a history itself adopts it through the same rule. A
group's check_history is the history agreement's output check, whose
verdicts are cached in one place, the output cache of verify_output.

Replica side (DynamicReplica): one router, _route, serves, parks or drops
every request. It serves requests only at its installed, current,
highest-known configuration; adopting a longer history immediately
raises the signing watermark; joining a higher configuration runs state
transfer (read a quorum of every configuration from the current one up to,
not including, the target) before announcing completion; a quorum of
completion announcements installs the configuration. State transfer is a
QuorumSession too (XferSession): each read is one round at the
configuration it reads, so every quorum round starts in QuorumSession._round.

The replica core is value-agnostic: per-object stores plug in, so the
max-register and access-control objects reuse the same gating, answering
and transfer machinery. A store (Store) declares SERVES, a table from
request kind to a handler that updates the store and names its answer, and
snapshots/merges its state for transfer. DynamicReplica.reply sends every
answer and is the one place a replica fs-signs, at the height of the
configuration the request names. A superseded configuration's quorum starves
because _route drops every request below the replica's highest known
configuration, where its signing watermark already stands; the watermark is
what keeps a corrupted retired replica (attacks.retainer_script) from signing.

Certificates stay objects from creation to verification: tokens
(lattice.Token: genesis, any, plain, authority), AcCert, or another
agreement's OutputCert.
They become JSON only in the operation returns of a trace, each through its
own class's to_jsonable / from_jsonable, and no byte repeats what a key or
a table entry already says. An OutputCert's JSON is a self-contained DAG
(OutputCert.to_jsonable): every nested certificate is written once, in the
root's "shared" table, and named by index wherever it occurs, so a chain of
k reconfigurations writes its 2k certificate nodes once each and not once
per path; every configuration is written once, in the root's "cfgs" table,
and named by cid. A nested AcCert is written through its own to_jsonable /
from_jsonable, and a token dict as itself; the key of its slot, never the
token's content, says which. A quorum writes its height once and each
signature as its data, in base64, under its signer (QuorumCert.to_jsonable),
and reads back only the exact base64 of each signature's bytes. An
object, a max-register's writes and cells included, admits an input value
only through its own check, DynamicObject.check_value: a value of the
object's lattice under the open token (OPEN_CERT), an access grant, or an
output of another agreement. A verified grant or output has each field of
the type its JSON takes, so no return holds one that JSON cannot write.

A quorum's forward-secure signatures over one payload are one QuorumCert,
the one place that map is encoded, written, read and verified; a
certificate holds any map it is built from as one. Admin grants' plain
signatures and URB echo certificates are not such quorums: an admin
grant's are a Token, and URB's a dict in the message. Input values,
signatures and certificates are read-only values (lattice.Value), and
each freezes (lattice.freeze) any dict, list or set it is built from, so
a message copy shares them whole.

An OutputCert encodes as its digest frame (lattice.merkle_frame): the
SHA-256 of its node body, in which a nested OutputCert (the history
certificate, or an input value's certificate) appears as its own 37-byte
frame. Message hashes, signed payloads and the verification caches' keys
therefore stay the size of one node however long the chain of earlier
certificates is, while the frame still commits to every byte of that chain.
Verification is unchanged: it recurses into every sub-certificate, once per
distinct certificate and DynamicObject.
"""

from __future__ import annotations

import functools
import weakref
from binascii import a2b_base64, b2a_base64
from collections import deque

from .broadcast import RbEndpoint, UrbEndpoint
from .fscrypto import FsSig
from .lattice import (Config, FinSet, History, Token, Value, _set_attr, canon, freeze, merkle_frame,
                      value_from_jsonable, value_to_jsonable)
from .simnet import Api, Msg

GENESIS_CERT = freeze({"kind": "genesis"})
# the open token: the certificate of an input no one vouches for beyond its type
OPEN_CERT = freeze({"kind": "any"})


class InputValue(Value):
    """A proposed value with its certificate, both read-only."""

    __slots__ = ("value", "cert", "_canon")

    def __init__(self, value, cert):
        _set_attr(self, "value", freeze(value))
        _set_attr(self, "cert", freeze(cert))

    def _encode(self) -> bytes:
        return canon(["iv", self.value, self.cert])


class DynamicObject:
    """Wiring for one dynamic object: id, genesis, validity predicates."""

    def __init__(self, object_id: str, genesis: Config, check_value=None, check_history=None, genesis_values=()):
        self.object_id = object_id
        self.genesis = genesis
        self.genesis_history = History([genesis])
        self.genesis_values = list(genesis_values)
        self._check_value = check_value
        self._check_history = check_history
        # successes only: a flood of distinct junk must not grow them
        self._vcache: set[bytes] = set()
        self._ocache: set = set()

    def check_value(self, iv: InputValue) -> bool:
        """iv is a genesis value, or it passes the object's check, which admits
        only values of its lattice. Every input value a replica stores, a
        client collects or a verifier accepts is admitted here."""
        key = iv.canon()
        if key in self._vcache:
            return True
        ok = iv in self.genesis_values or bool(self._check_value and self._check_value(iv.value, iv.cert))
        if ok:
            self._vcache.add(key)
        return ok

    def check_history(self, h: History, cert) -> bool:
        if h == self.genesis_history and cert == GENESIS_CERT:
            return True
        return bool(self._check_history and self._check_history(h, cert))


# -- signed payloads ------------------------------------------------------


def input_value_payload(object_id: str, value) -> bytes:
    return canon(["input", object_id, value])


def make_plain_input_cert(oracle, object_id: str, signer: str, value) -> dict:
    sig = oracle.plain_sign(signer, input_value_payload(object_id, value))
    return {"kind": "plain", "signer": signer, "sig": sig.hex()}


def plain_verify_hex(oracle, payload: bytes, signer, hexsig) -> bool:
    """A plain signature given in hex verifies; a non-str signer or
    signature, or one that is not hex, does not."""
    if type(signer) is not str or type(hexsig) is not str:
        return False
    try:
        return oracle.plain_verify(payload, signer, bytes.fromhex(hexsig))
    except ValueError:
        return False


def check_plain_input(oracle, object_id: str, admits):
    """open_input's signed twin: a value that admits(value) accepts, under a plain signature over it."""
    def check(value, cert) -> bool:
        return (
            isinstance(cert, dict)
            and cert.get("kind") == "plain"
            and admits(value)
            and plain_verify_hex(oracle, input_value_payload(object_id, value), cert.get("signer"), cert.get("sig"))
        )

    return check


def open_input(admits):
    """An unguarded object's input check: a value that admits(value) accepts, under exactly the open token."""
    return lambda value, cert: cert == OPEN_CERT and admits(value)


def presp_payload(object_id: str, config: Config, values: list[InputValue]) -> bytes:
    return canon(["presp", object_id, config, [iv.canon() for iv in values]])


def cresp_payload(object_id: str, config: Config, packs: QuorumCert) -> bytes:
    return canon(["cresp", object_id, config, packs])


def join_values(values: list[InputValue]):
    return functools.reduce(lambda a, b: a.join(b), (iv.value for iv in values))


# -- certificates ------------------------------------------------------------


class QuorumCert(Value):
    """{signer: FsSig} over one payload: an output's two rounds, a sanity or
    quorum grant's approvals and cacks, a write's acks. Its map is a Token;
    it encodes as the map, and is written as {"ts": h, "sigs": {signer:
    b64}}, since a correct quorum's signatures all have their key as
    signer and the quorum's configuration's height as ts. Each signature's
    data is written in standard padded base64, two thirds the size of hex;
    the signed payloads and canon() are unchanged."""

    __slots__ = ("sigs", "_canon")

    def __init__(self, sigs):
        _set_attr(self, "sigs", freeze(sigs))

    @classmethod
    def of(cls, sigs) -> QuorumCert:
        """sigs if it is a QuorumCert, else one over its map."""
        return sigs if type(sigs) is cls else cls(sigs)

    def _encode(self) -> bytes:
        return canon(self.sigs)

    def to_jsonable(self) -> dict:
        """{"ts": h, "sigs": {signer: b64}}, in the map's order. h is the
        first signature's height (0 for none). A signature whose signer is
        its key and whose height is h, of h's own type (True == 1), is its
        data alone, in base64; any other keeps its whole {"signer", "ts",
        "data"} JSON, data in base64 too, so every map reads back as
        itself."""
        sigs = self.sigs
        ts = next(iter(sigs.values())).ts if sigs else 0
        return {"ts": ts, "sigs": {p: _b64(s.data) if s.signer == p and s.ts == ts and type(s.ts) is type(ts)
                                   else {"signer": s.signer, "ts": s.ts, "data": _b64(s.data)}
                                   for p, s in sigs.items()}}

    @classmethod
    def from_jsonable(cls, d) -> QuorumCert:
        """Inverse of to_jsonable. A signature's data that is not the exact
        base64 of its bytes raises ValueError, so a quorum has one JSON."""
        ts = d["ts"]
        return cls({p: FsSig(p, ts, _from_b64(s)) if type(s) is str
                    else FsSig(s["signer"], s["ts"], _from_b64(s["data"])) for p, s in d["sigs"].items()})

    def verify(self, oracle, config: Config, payload: bytes, need: int) -> bool:
        """At least need replicas of config, and no one else, signed payload
        with forward-secure keys at config's height."""
        if type(self.sigs) is not Token or not set(self.sigs) <= config.replicas() or len(self.sigs) < need:
            return False
        ts = config.height()
        return all(oracle.fs_verify(payload, pid, sig, ts) for pid, sig in self.sigs.items())


def _b64(data: bytes) -> str:
    """data in standard padded base64 (RFC 4648, section 4)."""
    return b2a_base64(data, newline=False).decode("ascii")


def _from_b64(s) -> bytes:
    """The bytes whose _b64 is s. Any other str, with a character outside
    the alphabet, a missing "=" or nonzero trailing bits, raises ValueError,
    and a number, list, dict or None TypeError."""
    return _exact(a2b_base64(s), s, _b64, "base64")


def _exact(value, written, form, what: str):
    """value, read from written, if form(value) is written: what makes the
    JSON of a returned certificate one string per value. Any other written
    raises ValueError."""
    if form(value) != written:
        raise ValueError(f"{written!r} is not the {what} of the value it reads as")
    return value


class OutputCert(Value):
    """An agreement output's proof: its input values, the history it is
    anchored in, that history's certificate and the two rounds' quorums."""

    __slots__ = ("values", "history", "hist_cert", "packs", "cacks", "_canon", "_parts")

    def __init__(self, values, history: History, hist_cert, packs, cacks):
        _set_attr(self, "values", tuple(values))
        _set_attr(self, "history", history)
        _set_attr(self, "hist_cert", freeze(hist_cert))
        _set_attr(self, "packs", QuorumCert.of(packs))
        _set_attr(self, "cacks", QuorumCert.of(cacks))
        _set_attr(self, "_parts", None)

    def anchor(self) -> Config:
        return self.history.max_element()

    def node(self) -> bytes:
        """The node body; nested certificates appear as their digest frames."""
        return canon(["ocert", list(self.values), self.history, self.hist_cert, self.packs, self.cacks])

    def _encode(self) -> bytes:
        return merkle_frame(self.node())

    def fields_jsonable(self):
        """The JSON of this node's own fields, built once: its history and
        input values, each configuration named by its cid, its packs and
        cacks, and {cid: the configuration's JSON} for every configuration
        those name. Every returned certificate that holds this one shares
        these objects, and the decode memo keys on them."""
        if self._parts is None:
            cfgs = {}
            hist = [_cid_jsonable(c, cfgs) for c in self.history.configs]
            _set_attr(self, "_parts", ([_value_jsonable(iv.value, cfgs) for iv in self.values], hist,
                                       self.packs.to_jsonable(), self.cacks.to_jsonable(), cfgs))
        return self._parts

    def to_jsonable(self):
        """This certificate's node JSON, as a self-contained DAG.

        Every nested certificate is written once, as an entry of "shared",
        after the entries it names itself; there is no "shared" key when
        none is nested. A slot's key names its kind: an input value is
        {"v": value} with "c" for a token written as itself, "r" for the
        index of a shared entry or "a" for an AcCert's JSON, and the node's
        history certificate is "hcert", "href" or "hac" in the same roles.
        A node names each configuration by its cid, in its history and in
        a configuration ({"cfg": cid}) or history ({"hist": [cid, ...]})
        input value, and the root's "cfgs" table writes each configuration
        the DAG names once, as {cid: its JSON}. So a node's JSON is the
        same whichever root holds it.
        """
        refs, shared, cfgs = {}, [], {}
        out = _node_jsonable(self, refs, shared, cfgs)
        if shared:
            out["shared"] = shared
        out["cfgs"] = cfgs
        return out

    @classmethod
    def from_jsonable(cls, d, memo=None) -> "OutputCert":
        """Inverse of to_jsonable. A shared index that is not an exact int
        naming an earlier entry of "shared", a cid that "cfgs" does not
        hold and a slot with none of its keys raise KeyError; an entry of
        "cfgs" whose key is not its configuration's cid raises ValueError.

        With a memo dict, shared across calls, a configuration is decoded
        once per cid whose entries are alike, live or loaded, and a node
        once per identity of its fields' JSON objects (see fields_jsonable)
        and of the certificates and configurations it names: the returns of
        a live run share those objects, so a node that many of them hold is
        decoded and framed once, while a trace read from a file is decoded
        return by return. The memo keeps each decoded dict and certificate,
        and so every object keyed by id, alive while it is in use.
        """
        cfgs = {cid: _config_from_jsonable(cid, e, memo) for cid, e in d["cfgs"].items()}
        table = {}
        for i, entry in enumerate(d.get("shared", ())):
            table[i] = _node_from_jsonable(entry, table, cfgs, memo)
        return _node_from_jsonable(d, table, cfgs, memo)


# The keys of a certificate slot, by what it holds: a token written as
# itself, the index of a shared entry, an AcCert's JSON.
VALUE_SLOT = ("c", "r", "a")
HIST_SLOT = ("hcert", "href", "hac")


def _cid_jsonable(c: Config, cfgs: dict) -> str:
    """c's cid, with c's JSON entered in cfgs under it."""
    cid = c.cid()
    if cid not in cfgs:
        cfgs[cid] = c.to_jsonable()["cfg"]
    return cid


def _value_jsonable(v, cfgs: dict):
    """An input value's JSON, its configurations named by cid."""
    if type(v) is Config:
        return {"cfg": _cid_jsonable(v, cfgs)}
    if type(v) is History:
        return {"hist": [_cid_jsonable(c, cfgs) for c in v.configs]}
    return value_to_jsonable(v)


def _node_jsonable(cert: OutputCert, refs: dict, shared: list, cfgs: dict) -> dict:
    vs, hist, packs, cacks, named = cert.fields_jsonable()
    out = {
        "values": [{"v": v, **_slot_jsonable(iv.cert, VALUE_SLOT, refs, shared, cfgs)}
                   for v, iv in zip(vs, cert.values)],
        "hist": hist,
        **_slot_jsonable(cert.hist_cert, HIST_SLOT, refs, shared, cfgs),
        "packs": packs,
        "cacks": cacks,
    }
    cfgs.update(named)
    return out


def _slot_jsonable(cert, keys: tuple, refs: dict, shared: list, cfgs: dict) -> dict:
    """A certificate's slot, under the one of keys that names its kind.
    refs maps the frames of the entries written to shared to their index."""
    token, ref, ac = keys
    if isinstance(cert, OutputCert):
        key = cert.canon()
        if key not in refs:
            entry = _node_jsonable(cert, refs, shared, cfgs)
            refs[key] = len(shared)
            shared.append(entry)
        return {ref: refs[key]}
    return {ac: cert.to_jsonable()} if isinstance(cert, AcCert) else {token: cert}


def _config_from_jsonable(cid, entry, memo) -> Config:
    """The configuration a "cfgs" entry writes, refused unless cid is its
    cid; with a memo, built once per cid and entries alike."""
    hit = None if memo is None else memo.get(("cfg", cid))
    if hit is not None and hit[0] == entry:
        return hit[1]
    config = _exact(Config.from_jsonable({"cfg": entry}), cid, Config.cid, "cid")
    if memo is not None:
        memo["cfg", cid] = (entry, config)
    return config


def _cids(d) -> list:
    """The cids a node's JSON names: its history's and its input values'."""
    out = list(d["hist"])
    for v in d["values"]:
        v = v["v"]
        if type(v) is dict:
            out += [v["cfg"]] if "cfg" in v else v.get("hist", ())
    return out


def _value_from_jsonable(v, cfgs: dict):
    """Inverse of _value_jsonable, naming configurations from cfgs."""
    if type(v) is dict:
        if "cfg" in v:
            return cfgs[v["cfg"]]
        if "hist" in v:
            return History([cfgs[c] for c in v["hist"]])
    return value_from_jsonable(v)


def _node_from_jsonable(d, table: dict, cfgs: dict, memo) -> OutputCert:
    named = [_slot_from_jsonable(v, VALUE_SLOT, table) for v in d["values"]]
    hcert = _slot_from_jsonable(d, HIST_SLOT, table)
    if memo is not None:
        # every configuration the node names is looked up in this return's
        # own table, whichever return's JSON the node was first decoded from
        key = (id(d["hist"]), id(d["packs"]), id(d["cacks"]), *[id(v["v"]) for v in d["values"]],
               *map(id, named), id(hcert), *[id(cfgs[c]) for c in _cids(d)])
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
    cert = OutputCert(
        [InputValue(_value_from_jsonable(v["v"], cfgs), c) for v, c in zip(d["values"], named)],
        History([cfgs[c] for c in d["hist"]]),
        hcert,
        QuorumCert.from_jsonable(d["packs"]),
        QuorumCert.from_jsonable(d["cacks"]),
    )
    if memo is not None:
        memo[key] = (d, cert)
    return cert


def _slot_from_jsonable(d, keys: tuple, table: dict):
    """The certificate in d's slot, which has keys. table maps the index of
    each earlier shared entry to its certificate, so a reference that is not
    an exact int naming one (a bool, a float or a str) is a KeyError."""
    token, ref, ac = keys
    if ref in d:
        i = d[ref]
        return table[i if type(i) is int else None]
    return AcCert.from_jsonable(d[ac]) if ac in d else d[token]


class AcCert(Value):
    """An access-control grant (see access_control) for one slot's value. An
    admin grant's approvals and cacks are {admin: hex} Tokens, a sanity or
    quorum grant's QuorumCerts."""

    __slots__ = ("mode", "object_id", "slot", "value", "config", "approvals", "cacks", "_canon")

    def __init__(self, mode: str, object_id: str, slot, value, config: Config | None, approvals, cacks):
        own = freeze if mode == "admin" else QuorumCert.of
        _set_attr(self, "mode", mode)
        _set_attr(self, "object_id", object_id)
        _set_attr(self, "slot", freeze(slot))
        _set_attr(self, "value", freeze(value))
        _set_attr(self, "config", config)
        _set_attr(self, "approvals", own(approvals))
        _set_attr(self, "cacks", own(cacks))

    def _encode(self) -> bytes:
        return canon(["accert", self.mode, self.object_id, self.slot, self.value, self.config,
                      self.approvals, self.cacks])

    def to_jsonable(self):
        # admin approvals are plain signatures in hex, and admin certificates have no acks
        admin = self.mode == "admin"
        return {
            "ackind": self.mode,
            "oid": self.object_id,
            "slot": self.slot,
            "v": value_to_jsonable(self.value),
            "cfg": None if self.config is None else self.config.to_jsonable()["cfg"],
            "appr": dict(self.approvals) if admin else self.approvals.to_jsonable(),
            "cacks": {} if admin else self.cacks.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, d) -> "AcCert":
        admin = d["ackind"] == "admin"
        config = None if d["cfg"] is None else Config.from_jsonable({"cfg": d["cfg"]})
        approvals = d["appr"] if admin else QuorumCert.from_jsonable(d["appr"])
        cacks = {} if admin else QuorumCert.from_jsonable(d["cacks"])
        return cls(d["ackind"], d["oid"], d["slot"], value_from_jsonable(d["v"]), config, approvals, cacks)


def verify_output(obj: DynamicObject, oracle, w, cert) -> bool:
    """Pure check that (w, cert) is a legitimate output of this object."""
    if not isinstance(cert, OutputCert) or not cert.values:
        return False
    # keyed on the oracle itself, which the key keeps alive: a freed oracle's id is reused
    key = (oracle, canon(["oc", w, cert.canon()]))
    if key in obj._ocache:
        return True
    ok = _verify_output(obj, oracle, w, cert)
    if ok:
        obj._ocache.add(key)
    return ok


def _verify_output(obj, oracle, w, cert: OutputCert) -> bool:
    if not all(type(iv) is InputValue and obj.check_value(iv) for iv in cert.values):
        return False
    try:
        joined = join_values(list(cert.values))
    except ValueError:      # histories that are not comparable join to no history
        return False
    if canon(joined) != canon(w):
        return False
    if not obj.check_history(cert.history, cert.hist_cert):
        return False
    config = cert.anchor()
    vlist = sorted(cert.values, key=lambda iv: iv.canon())
    ppl = presp_payload(obj.object_id, config, vlist)
    if not cert.packs.verify(oracle, config, ppl, config.quorum_size()):
        return False
    cpl = cresp_payload(obj.object_id, config, cert.packs)
    return cert.cacks.verify(oracle, config, cpl, config.quorum_size())


# -- following the group's history ---------------------------------------------


class Follower:
    """A process that follows its group's history: a client hub or a replica.

    Both adopt a gossiped history through one rule, _on_rb: only a hist.new
    whose history strictly extends the current one and whose certificate
    check_history accepts. A follower relays what it adopts: the same
    hist.new goes to the rest of the roster but its sender, which holds it,
    before the adopt upcall is traced and the subclass reacts in _adopted;
    a history the follower certified itself has no sender and goes to all
    the rest. Certified histories are
    comparable, so a history skipped as not longer has a longer one already
    relayed, and a forged or stale one goes no further. A follower also
    hosts the QuorumSessions that round at its anchor().
    """

    def __init__(self, group: str, genesis: Config, check_history, roster):
        self.group = group
        self.genesis = genesis
        self.check_history = check_history
        self.roster = roster
        self.history = History([genesis])
        self.hist_cert = GENESIS_CERT
        self.sessions = []

    def bind(self, api):
        self.api = api
        self.rb = RbEndpoint(api, self.roster, self._on_rb)

    def add(self, session):
        self.sessions.append(session)
        return session

    def anchor(self) -> Config:
        return self.history.max_element()

    def _on_rb(self, frm, obj, body) -> None:
        """Adopt and relay a hist.new from frm, or from no one (None) for a
        history this process certified itself."""
        h, cert = body["hist"], body["cert"]
        if h == self.history or not self.history.contained_in(h):
            return
        if not self.check_history(h, cert):
            return
        self.history = h
        self.hist_cert = cert
        self.rb.broadcast(obj, body, skip=frm)
        self.api.upcall("adopt", {"hmax": h.max_element().height()})
        self._adopted()

    def _adopted(self) -> None:
        raise NotImplementedError


# -- client side ------------------------------------------------------------


class ClientHub(Follower):
    """Client process hosting protocol sessions that share one history."""

    def on_deliver(self, frm, msg):
        ok = msg.ok         # wire_ok's memo, read inline
        if not (ok or ok is None and wire_ok(msg)) or self.rb.handle(frm, msg):
            return
        for s in self.sessions:
            if s.on_deliver(frm, msg):
                return

    def update_history(self, h: History, cert, done=None) -> None:
        """Adopt h through _on_rb, the one rule; then, after the adopt upcall
        and the sessions' restarts, call done if h is held."""
        self._on_rb(None, self.group, {"hist": h, "cert": cert})
        if done and h.contained_in(self.history):
            done()

    def _adopted(self) -> None:
        for s in self.sessions:
            s.on_adopt()


class QuorumSession:
    """One protocol session hosted by a Follower: a client operation on a
    ClientHub, or a replica's state transfer (XferSession).

    An operation is a sequence of rounds. Each round has a fresh ``sn``,
    fans one request out to every replica of its anchor configuration and
    tallies the replies in ``got``: one entry per member that answered the
    current round, at most one each. A signed reply is checked against the
    round's expected payload, built once per round on the first reply that
    needs it. On a hub, adopting a longer history restarts the operation
    from its first round at the new anchor.

    Subclasses map each reply ``desc`` to (phase it answers, handler) in
    REPLIES; a client session defines ``_start``, the operation's first round,
    and a session whose replies are signed defines ``_expected``.

    The hub holds its sessions, and a session holds its hub only through a
    weak proxy, ``hub``: a session kept after its hub is gone raises
    ReferenceError when it starts a round or takes a reply.
    """

    REPLIES: dict = {}

    def __init__(self, hub: Follower, object_id: str):
        self.hub = weakref.proxy(hub)
        self.object_id = object_id
        self.sn = 0
        self.phase = "idle"
        self.anchor = None
        self.got: dict = {}
        self._payload = None
        self.restarts = 0
        self._done = None
        hub.add(self)

    def busy(self) -> bool:
        return self.phase != "idle"

    def _begin(self, done) -> None:
        if self.busy():
            raise RuntimeError("one operation at a time per client")
        self._done = done

    def _round(self, phase: str, desc: str, body: dict, anchor: Config | None = None) -> None:
        """Start a round at anchor, by default the hub's highest configuration."""
        self.sn += 1
        self.phase = phase
        self.anchor = self.hub.anchor() if anchor is None else anchor
        self.got = {}
        self._payload = None
        msg = Msg(desc, self.object_id, {**body, "sn": self.sn, "config": self.anchor})
        self.hub.api.send_all(self.anchor.sorted_replicas(), msg)

    def on_adopt(self) -> None:
        if self.busy():
            self.restarts += 1
            self._start()

    def on_deliver(self, frm, msg) -> bool:
        if msg.obj != self.object_id or msg.desc not in self.REPLIES:
            return False
        phase, handler = self.REPLIES[msg.desc]
        # one reply per member of the anchor, to the current round
        if self.phase == phase and msg.body["sn"] == self.sn:
            if frm in self.anchor.replicas() and frm not in self.got:
                handler(self, frm, msg)
        return True

    def _expected(self) -> bytes:
        """The payload a signed reply to the current round must sign."""
        raise NotImplementedError

    def _take_sig(self, frm, msg) -> bool:
        """Count frm's reply if it signs the round's payload at the anchor's
        height; the payload is built once per round."""
        payload = self._payload
        if payload is None:
            payload = self._payload = self._expected()
        sig = msg.body["sig"]
        if not self.hub.api.oracle.fs_verify(payload, frm, sig, self.anchor.height()):
            return False
        self.got[frm] = sig
        return True

    def _finish(self, *result) -> None:
        self.phase = "idle"
        done, self._done = self._done, None
        done(*result)


class DblaClient(QuorumSession):
    """One lattice-agreement session: refine to a quorum, then countersign."""

    def __init__(self, hub: ClientHub, obj: DynamicObject):
        super().__init__(hub, obj.object_id)
        self.obj = obj
        self.vals: dict[bytes, InputValue] = {iv.canon(): iv for iv in obj.genesis_values}
        self.cpacks: QuorumCert | None = None

    def propose(self, value, cert, done) -> None:
        self._begin(done)
        iv = InputValue(value, cert)
        if not self.obj.check_value(iv):
            raise ValueError("propose requires a verifiable input value")
        self.vals.setdefault(iv.canon(), iv)
        self._start()

    def _sorted_vals(self) -> list[InputValue]:
        return [self.vals[k] for k in sorted(self.vals)]

    def _start(self) -> None:
        self._round("refine", "bla.propose", {"values": self._sorted_vals()})

    def _on_presp(self, frm, msg) -> None:
        rvals = msg.body["values"]
        valid = [iv for iv in rvals if self.obj.check_value(iv)]
        new = [iv for iv in valid if iv.canon() not in self.vals]
        if new:
            for iv in new:
                self.vals[iv.canon()] = iv
            self.restarts += 1
            self._start()
            return
        if len(valid) != len(rvals):
            return
        if [iv.canon() for iv in rvals] != sorted(self.vals):
            return
        if self._take_sig(frm, msg) and self.anchor.is_quorum(self.got):
            self.cpacks = QuorumCert(self.got)
            self._round("confirm", "bla.confirm", {"packs": self.cpacks}, self.anchor)

    def _on_cresp(self, frm, msg) -> None:
        if self._take_sig(frm, msg) and self.anchor.is_quorum(self.got):
            vlist = self._sorted_vals()
            cert = OutputCert(vlist, self.hub.history, self.hub.hist_cert, self.cpacks, QuorumCert(self.got))
            self._finish(join_values(vlist), cert)

    def _expected(self) -> bytes:
        if self.phase == "refine":
            return presp_payload(self.object_id, self.anchor, self._sorted_vals())
        return cresp_payload(self.object_id, self.anchor, self.cpacks)

    REPLIES = {"bla.presp": ("refine", _on_presp), "bla.cresp": ("confirm", _on_cresp)}


# -- replica side ------------------------------------------------------------


class Store:
    """A replica's state for one object, answering the requests in SERVES.

    SERVES maps each request kind to handler(store, body), which returns
    None (no answer) or (reply desc, payload to fs-sign or None, reply
    body). DynamicReplica.reply signs and sends every answer.
    """

    SERVES: dict = {}
    object_id: str

    def handle(self, core, frm, msg) -> bool:
        if msg.obj != self.object_id or msg.desc not in self.SERVES:
            return False
        answer = self.SERVES[msg.desc](self, msg.body)
        if answer is not None:
            core.reply(frm, msg, *answer)
        return True


class DblaStore(Store):
    """Replica value-set store for one lattice-agreement object."""

    def __init__(self, store_id: str, obj: DynamicObject):
        self.store_id = store_id
        self.obj = obj
        self.object_id = obj.object_id
        self.vals: dict[bytes, InputValue] = {}
        for iv in obj.genesis_values:
            self.vals[iv.canon()] = iv

    def snapshot_sorted(self) -> list[InputValue]:
        return [self.vals[k] for k in sorted(self.vals)]

    def merge(self, ivs) -> None:
        for iv in ivs:
            if isinstance(iv, InputValue) and iv.canon() not in self.vals and self.obj.check_value(iv):
                self.vals[iv.canon()] = iv

    def _propose(self, body):
        self.merge(body["values"])
        vlist = self.snapshot_sorted()
        return "bla.presp", presp_payload(self.object_id, body["config"], vlist), {"values": vlist}

    def _confirm(self, body):
        # countersigning does not validate the acks; verifiers do
        return "bla.cresp", cresp_payload(self.object_id, body["config"], body["packs"]), {}

    SERVES = {"bla.propose": _propose, "bla.confirm": _confirm}

    def xfer_snapshot(self):
        return self.snapshot_sorted()

    def xfer_merge(self, payload) -> None:
        if isinstance(payload, list):
            self.merge(payload)


# -- the wire gate -------------------------------------------------------------

# Each kind's entry is a table, {field: shape}. A field's shape is one exact
# type, a tuple of them, [s] for a list of s's, {str: s} for a dict from str
# keys to s's, or a nested table for a dict; s is an exact type or a table.
# Every field is required; extra fields are ignored. Exact types keep a bool
# out of an int field and a subclass out of a certificate or configuration
# field.
CERTS = (dict, Token, OutputCert, AcCert)  # tokens, plain or frozen; access grants; agreement outputs
VALUES = (int, str, FinSet, Config, History)  # what an access request may guard
_URB = {"origin": str, "config": Config}      # an install announcement

WIRE = {
    # history gossip and the uniform broadcast of install announcements
    "hist.new": {"hist": History, "cert": CERTS},
    "urb.init": _URB,
    "urb.echo": {"inner": _URB, "sig": bytes},
    "urb.cert": {"inner": _URB, "cert": dict},
    # requests, served at "config" by DynamicReplica._route
    "bla.propose": {"sn": int, "config": Config, "values": [InputValue]},
    "bla.confirm": {"sn": int, "config": Config, "packs": QuorumCert},
    "mr.set": {"sn": int, "config": Config, "iv": InputValue},
    "mr.get": {"sn": int, "config": Config},
    "ac.req": {"sn": int, "config": Config, "slot": str, "value": VALUES},
    "ac.confirm": {"sn": int, "config": Config, "slot": str, "value": VALUES, "approvals": QuorumCert},
    "xfer.read": {"sn": int, "config": Config},
    # replies
    "bla.presp": {"sn": int, "values": [InputValue], "sig": FsSig},
    "bla.cresp": {"sn": int, "sig": FsSig},
    "mr.setresp": {"sn": int, "sig": FsSig},
    "mr.getresp": {"sn": int, "cell": (type(None), InputValue)},
    "ac.approve": {"sn": int, "sig": FsSig},
    "ac.deny": {"sn": int},
    "ac.cresp": {"sn": int, "sig": FsSig},
    "xfer.resp": {"sn": int, "payload": dict},
}
REQUESTS = frozenset(d for d, t in WIRE.items() if "sn" in t and "config" in t)
URB = frozenset(d for d in WIRE if d.startswith("urb."))


def fits(x, table: dict) -> bool:
    """x is a dict that carries every field of table at its shape."""
    if type(x) is not dict:
        return False
    for name, entry in table.items():
        v = x.get(name, fits)       # fits itself stands for a missing field
        kind = type(entry)
        if kind is type:
            if type(v) is not entry:
                return False
        elif kind is tuple:
            if type(v) not in entry:
                return False
        elif kind is list:
            if type(v) is not list:
                return False
            s = entry[0]
            for e in v:
                if type(e) is not s and (type(s) is type or not fits(e, s)):
                    return False
        elif str in entry:          # a dict from str keys
            if type(v) is not dict:
                return False
            s = entry[str]
            for k, e in v.items():
                if type(k) is not str or type(e) is not s and (type(s) is type or not fits(e, s)):
                    return False
        elif not fits(v, entry):    # a nested table
            return False
    return True


def wire_ok(msg: Msg) -> bool:
    """msg is of a kind in WIRE and its body fits that kind's entry.

    Checked once per message object, and the verdict memoised on it
    (``Msg.ok``): a sent message is immutable, so every recipient would
    reach the same verdict.
    """
    ok = msg.ok
    if ok is None:
        table = WIRE.get(msg.desc)
        ok = msg.ok = table is not None and fits(msg.body, table)
    return ok


class XferSession(QuorumSession):
    """A replica's state transfer: one round reads a quorum of one
    configuration's stores, merging each reply, and ends in transferred."""

    def __init__(self, replica: "DynamicReplica"):
        super().__init__(replica, replica.group)
        self.transferred: set[Config] = set()

    def read(self, target: Config) -> None:
        self._round("read", "xfer.read", {}, target)

    def _on_resp(self, frm, msg) -> None:
        payload = msg.body["payload"]
        for store in self.hub.stores:
            if store.store_id in payload:
                store.xfer_merge(payload[store.store_id])
        self.got[frm] = True
        if self.anchor.is_quorum(self.got):
            self.transferred.add(self.anchor)
            self.phase = "idle"
            self.hub._advance_xfer()

    REPLIES = {"xfer.resp": ("read", _on_resp)}


class LocalLoop(Api):
    """A replica's Api, except that a message to the replica itself is
    queued in local for DynamicReplica.on_deliver instead of sent: the
    simulator never schedules or traces it. It keeps the oracle, which
    every signed answer reads, as an attribute."""

    __slots__ = ("oracle", "local")

    def __init__(self, api: Api):
        self._sim, self.pid, self.oracle = api._sim, api.pid, api.oracle
        self.local: deque[Msg] = deque()

    def send(self, to: str, msg: Msg) -> None:
        if to == self.pid:
            self.local.append(msg)
        else:
            super().send(to, msg)

    def send_all(self, tos, msg: Msg) -> None:
        """Send msg to each of tos, named once each, as one send; the
        replica's own copy is queued locally."""
        pid = self.pid
        if pid in tos:
            self.local.append(msg)
            tos = [to for to in tos if to != pid]
        super().send_all(tos, msg)


class DynamicReplica(Follower):
    """Gating, history adoption, state transfer and installs; stores plug in.

    Who is sent what: an answer goes to its requester; an adopted history
    to the roster but this replica and its sender; a transfer read to every
    replica of the configuration read; an install announcement (urb.init)
    and the echo of one to every replica of the announced configuration;
    an echo certificate to those but this replica and the sender of a
    certificate taken whole.

    What the replica sends itself, its own transfer read, the answer to it,
    its own announcement and its echo, is not sent: its LocalLoop queues it,
    and on_deliver takes the queue in order once the delivery that filled
    it is done. Taking such a message inside the handler that sent it would
    re-enter _advance_xfer.
    """

    def __init__(self, group: str, genesis: Config, stores, check_history, roster):
        super().__init__(group, genesis, check_history, roster)
        self.stores = list(stores)
        self.ccurr = genesis
        self.cinst = genesis
        self.installed = {genesis}
        self.install_votes: dict[Config, set[str]] = {}
        self.buffered: list[tuple[str, Msg]] = []
        self.xfer = XferSession(self)
        self.xfer_targets_sent: set[str] = set()
        self.install_hook = None
        self.dropped = 0

    def bind(self, api):
        api = LocalLoop(api)
        super().bind(api)
        self.urb = UrbEndpoint(api, self.roster, self._on_urb)
        api.oracle.update_fs_keys(api.pid, self.genesis.height())

    def reply(self, frm, req: Msg, desc: str, payload, body: dict) -> None:
        """Answer req on its object with its sn; the one place a replica fs-signs.

        A payload is signed at the height of the configuration req names; if
        the oracle refuses (a watermark past that height, at which _route
        never serves), nothing is sent. A None payload is an unsigned answer.
        """
        if payload is not None:
            sig = self.api.oracle.fs_sign(self.api.pid, payload, req.body["config"].height())
            if sig is None:
                return
            body["sig"] = sig
        body["sn"] = req.body["sn"]
        self.api.send(frm, Msg(desc, req.obj, body))

    # -- delivery routing --------------------------------------------------

    def on_deliver(self, frm, msg) -> None:
        """Take one delivery, then the messages it and they sent this
        replica, in the order sent. Those are built here from gated
        content, and no other process runs before they are taken, so they
        skip the wire gate."""
        ok = msg.ok         # wire_ok's memo, read inline
        if not (ok or ok is None and wire_ok(msg)):
            self.dropped += 1
        else:
            self._take(frm, msg)
            local, pid = self.api.local, self.api.pid
            while local:
                self._take(pid, local.popleft())

    def _take(self, frm, msg) -> None:
        """Route one message: a request to _route, a urb.* straight to the
        uniform broadcast, anything else to state transfer or gossip. A
        reply that no replica takes, and a urb.* whose configuration leaves
        the roster, are dropped."""
        desc = msg.desc
        if desc in REQUESTS:
            self._route(frm, msg, first=True)
            return
        if desc in URB:
            taken = self.urb.handle(frm, msg)
        else:
            taken = self.xfer.on_deliver(frm, msg) or self.rb.handle(frm, msg)
        if not taken:
            self.dropped += 1

    def _route(self, frm, msg, first: bool) -> None:
        """Serve, park or drop one request.

        A request is servable at the highest known configuration once that
        configuration is installed; an xfer.read is servable once its target
        is superseded. On first receipt a servable request is served, on
        re-gating it is requeued. Otherwise xfer.reads and requests for the
        highest or a higher configuration park until history or installs
        change, at most one per sender, object and xfer or not: the latest
        replaces the one before. Stale and incomparable requests are
        dropped. The request already fits its entry in WIRE: on_deliver
        drops one that does not.
        A served request is answered through reply, the one place a replica
        fs-signs: by the store whose SERVES table takes it, or here for an
        xfer.read.
        """
        config = msg.body["config"]
        ch = self.anchor()
        if msg.desc == "xfer.read":
            servable = config != ch and config.leq(ch)
        else:
            servable = config == ch and self.cinst == config
        if not servable:
            if msg.desc == "xfer.read" or ch.leq(config):
                self._park(frm, msg)
            else:
                self.dropped += 1
        elif not first:
            self.api.requeue(frm, msg)
        elif msg.desc == "xfer.read":
            payload = {s.store_id: s.xfer_snapshot() for s in self.stores}
            self.reply(frm, msg, "xfer.resp", None, {"payload": payload})
        elif not any(store.handle(self, frm, msg) for store in self.stores):
            self.dropped += 1

    def _park(self, frm, msg) -> None:
        key = (frm, msg.obj, msg.desc == "xfer.read")
        self.buffered = [(f, m) for f, m in self.buffered if (f, m.obj, m.desc == "xfer.read") != key]
        self.buffered.append((frm, msg))

    def _regate(self) -> None:
        buffered, self.buffered = self.buffered, []
        for frm, msg in buffered:
            self._route(frm, msg, first=False)

    # -- history adoption ----------------------------------------------------

    def _adopted(self) -> None:
        # adopting a longer history immediately raises the signing watermark
        self.api.oracle.update_fs_keys(self.api.pid, self.anchor().height())
        self._check_installs()
        self._regate()
        self._advance_xfer()

    # -- installs --------------------------------------------------------------

    def _on_urb(self, origin, config: Config) -> None:
        if origin not in config.replicas():
            return
        self.install_votes.setdefault(config, set()).add(origin)
        self._check_installs()

    def _check_installs(self) -> None:
        hset = set(self.history.configs)
        for config in sorted(self.install_votes, key=lambda c: c.height()):
            if config in self.installed or config not in hset:
                continue
            if not config.is_quorum(self.install_votes[config]):
                continue
            self.installed.add(config)
            if self.cinst.leq(config) and self.cinst != config:
                self.cinst = config
            self.ccurr = self.ccurr.join(config)
            detail = {"h": config.height(), "cid": config.cid()}
            if self.install_hook is not None:
                detail.update(self.install_hook(self, config))
            self.api.upcall("install", detail)
            self.api.fact(f"inst:h{config.height()}")
            self._regate()
            self._advance_xfer()

    # -- state transfer ----------------------------------------------------------

    def _cnext(self) -> Config | None:
        pid = self.api.pid
        for config in reversed(self.history.configs):
            if pid in config.replicas():
                return config
        return None

    def _advance_xfer(self) -> None:
        xfer = self.xfer
        cnext = self._cnext()
        if cnext is None or cnext.leq(self.ccurr):
            xfer.phase = "idle"
            return
        remaining = [
            c
            for c in self.history.configs
            if c != cnext and self.ccurr.leq(c) and c not in xfer.transferred
        ]
        if not remaining:
            self.ccurr = cnext
            xfer.phase = "idle"
            self.urb.broadcast(cnext, self.group)
            return
        target = remaining[0]
        if not xfer.busy() or xfer.anchor != target:
            self.xfer_targets_sent.add(target.cid())
            xfer.read(target)
