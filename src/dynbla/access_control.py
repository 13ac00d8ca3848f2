"""Access control for proposals: who may put a value on the wire.

Three interchangeable modes issue the same certificate shape:

- "admin": a fixed admin set signs offline; no replica round. Tolerates a
  third of the admins being bad, so a certificate needs b+1 admin signatures.
- "sanity": each replica checks the value against a local predicate; b+1
  forward-secure approvals prove one correct replica vouched for it.
- "quorum": a full quorum must approve, and approving replicas remember the
  slot so they refuse conflicting values later. Quorum intersection then
  grants at most one certificate per slot. The approval memory rides state
  transfer into new configurations.

Replica-backed certificates are finished with a countersigning round, which
pins them to the configuration's key epoch the same way agreement outputs
are pinned. The certificate class, AcCert, lives in dbla beside OutputCert,
so an input value's certificate decodes there without an import cycle.
"""

from __future__ import annotations

from .dbla import AcCert, QuorumCert, QuorumSession, Store, plain_verify_hex
from .lattice import Config, Token, canon, fault_budget

MODES = ("admin", "sanity", "quorum")


class AccessControl:
    """Descriptor for one access-control object: mode and thresholds."""

    def __init__(self, object_id: str, mode: str, admins=()):
        if mode not in MODES:
            raise ValueError(f"unknown access-control mode {mode!r}")
        if mode == "admin" and not admins:
            raise ValueError("admin mode needs a non-empty admin set")
        self.object_id = object_id
        self.mode = mode
        self.admins = frozenset(admins)

    def needed(self, config: Config) -> int:
        if self.mode == "sanity":
            return config.fault_budget() + 1
        return config.quorum_size()

    def denials_decisive(self, config: Config) -> int:
        return len(config.replicas()) - self.needed(config) + 1

    def admin_threshold(self) -> int:
        return fault_budget(len(self.admins)) + 1


def appr_payload(object_id: str, config: Config, slot: str, value) -> bytes:
    return canon(["acappr", object_id, config, slot, value])


def accf_payload(object_id: str, config: Config, slot: str, value, approvals) -> bytes:
    return canon(["accf", object_id, config, slot, value, approvals])


def admin_payload(object_id: str, slot: str, value) -> bytes:
    return canon(["acadmin", object_id, slot, value])


def make_admin_cert(oracle, ac: AccessControl, slot: str, value, signers) -> AcCert:
    pl = admin_payload(ac.object_id, slot, value)
    sigs = {s: oracle.plain_sign(s, pl).hex() for s in signers}
    return AcCert("admin", ac.object_id, slot, value, None, sigs, {})


def verify_cert(ac: AccessControl, oracle, cert) -> bool:
    if not isinstance(cert, AcCert):
        return False
    if cert.mode != ac.mode or cert.object_id != ac.object_id:
        return False
    if ac.mode == "admin":
        # no signature binds an admin grant's slot, configuration or cacks,
        # so their types are checked here: a str, None and none
        pl = admin_payload(ac.object_id, cert.slot, cert.value)
        sigs = cert.approvals
        return (type(cert.slot) is str and cert.config is None and cert.cacks == {} and type(sigs) is Token
                and set(sigs) <= ac.admins and len(sigs) >= ac.admin_threshold()
                and all(plain_verify_hex(oracle, pl, pid, hexsig) for pid, hexsig in sigs.items()))
    config = cert.config
    if not isinstance(config, Config):
        return False
    apl = appr_payload(ac.object_id, config, cert.slot, cert.value)
    if not cert.approvals.verify(oracle, config, apl, ac.needed(config)):
        return False
    cpl = accf_payload(ac.object_id, config, cert.slot, cert.value, cert.approvals)
    return cert.cacks.verify(oracle, config, cpl, config.quorum_size())


def make_ac_input_check(ac: AccessControl, oracle):
    """Input-value predicate: the certificate must cover this exact value."""

    def check(value, cert) -> bool:
        return (
            isinstance(cert, AcCert)
            and canon(cert.value) == canon(value)
            and verify_cert(ac, oracle, cert)
        )

    return check


class AcStore(Store):
    """Replica endpoint for sanity/quorum approvals."""

    def __init__(self, store_id: str, ac: AccessControl, decide=None):
        if ac.mode == "admin":
            raise ValueError("admin mode has no replica store")
        self.store_id = store_id
        self.ac = ac
        self.object_id = ac.object_id
        self.decide = decide
        self.approved: dict[str, object] = {}

    def _decide(self, slot: str, value) -> bool:
        if self.ac.mode == "quorum" and slot in self.approved:
            return canon(self.approved[slot]) == canon(value)
        if self.decide is not None and not self.decide(slot, value):
            return False
        if self.ac.mode == "quorum":
            self.approved[slot] = value
        return True

    def _req(self, body):
        slot, value = body["slot"], body["value"]
        if not self._decide(slot, value):
            return "ac.deny", None, {}     # denials are unsigned
        return "ac.approve", appr_payload(self.object_id, body["config"], slot, value), {}

    def _confirm(self, body):
        pl = accf_payload(self.object_id, body["config"], body["slot"], body["value"], body["approvals"])
        return "ac.cresp", pl, {}

    SERVES = {"ac.req": _req, "ac.confirm": _confirm}

    def xfer_snapshot(self):
        if self.ac.mode != "quorum":
            return None
        return sorted((s, v) for s, v in self.approved.items())

    def xfer_merge(self, payload) -> None:
        if self.ac.mode != "quorum" or not isinstance(payload, list):
            return
        for item in payload:
            if isinstance(item, (tuple, list)) and len(item) == 2 and isinstance(item[0], str):
                self.approved.setdefault(item[0], item[1])


class AcClient(QuorumSession):
    """Certificate-request session: collect approvals, then countersign."""

    def __init__(self, hub, ac: AccessControl):
        if ac.mode == "admin":
            raise ValueError("admin certificates are made offline, not requested")
        super().__init__(hub, ac.object_id)
        self.ac = ac
        self._slot = None
        self._value = None
        self._approvals = None

    def request(self, slot: str, value, done) -> None:
        self._begin(done)
        self._slot, self._value = slot, value
        self._start()

    def _start(self) -> None:
        self._round("req", "ac.req", {"slot": self._slot, "value": self._value})

    def _on_deny(self, frm, msg) -> None:
        # denials are unsigned: a denier's entry in got is None
        self.got[frm] = None
        if sum(sig is None for sig in self.got.values()) >= self.ac.denials_decisive(self.anchor):
            self._finish(None)

    def _on_approve(self, frm, msg) -> None:
        if not self._take_sig(frm, msg):
            return
        approvals = {p: sig for p, sig in self.got.items() if sig is not None}
        if len(approvals) >= self.ac.needed(self.anchor):
            self._approvals = QuorumCert(approvals)
            body = {"slot": self._slot, "value": self._value, "approvals": self._approvals}
            self._round("confirm", "ac.confirm", body, self.anchor)

    def _on_cresp(self, frm, msg) -> None:
        if self._take_sig(frm, msg) and self.anchor.is_quorum(self.got):
            cert = AcCert(self.ac.mode, self.object_id, self._slot, self._value, self.anchor, self._approvals,
                          QuorumCert(self.got))
            self._finish(cert)

    def _expected(self) -> bytes:
        if self.phase == "req":
            return appr_payload(self.object_id, self.anchor, self._slot, self._value)
        return accf_payload(self.object_id, self.anchor, self._slot, self._value, self._approvals)

    REPLIES = {"ac.approve": ("req", _on_approve), "ac.deny": ("req", _on_deny),
               "ac.cresp": ("confirm", _on_cresp)}
