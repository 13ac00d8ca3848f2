"""Reliable broadcast primitives.

RbEndpoint: global gossip broadcast. Every process re-forwards each newly
seen message to the whole roster, so one correct recipient suffices for
eventual delivery everywhere. Message ids are recomputed from content;
duplicate content from the same origin is delivered once.

Both endpoints read bodies directly: the process hosting them passes on
only messages that fit the wire table, ``dbla.WIRE``, where an envelope's
inner body must fit the entry of the kind it names. Both identify each
message object once: the id is memoised in ``Msg.mid`` on first delivery
and handed on to the forwards, echoes and certificates derived from it.

UrbEndpoint: uniform broadcast within one configuration. Replicas echo a
plain-signed acknowledgment; a quorum of echoes forms a certificate that is
re-forwarded before local delivery, so a process that delivers and then
turns Byzantine has already propagated the certificate. Totality holds
while the configuration has an available quorum and is not superseded.
"""

from __future__ import annotations

from .lattice import Config, canon, digest
from .simnet import Msg


class RbEndpoint:
    def __init__(self, api, roster, deliver):
        self.api = api
        self.roster = sorted(roster)
        self.deliver = deliver
        self._seen: set[str] = set()

    def broadcast(self, desc: str, obj: str, body: dict) -> None:
        self._forward(self.api.pid, desc, obj, body)

    def _mid(self, origin, desc, obj, body) -> str:
        return digest(["rb", origin, desc, obj, body])[:16]

    def _forward(self, origin, desc, obj, body, mid=None) -> None:
        msg = Msg("rb.fwd", obj, {"origin": origin, "desc": desc, "body": body})
        msg.mid = mid
        for pid in self.roster:
            self.api.send(pid, msg)

    def handle(self, frm: str, msg: Msg) -> bool:
        if msg.desc != "rb.fwd":
            return False
        origin, desc, body = msg.body["origin"], msg.body["desc"], msg.body["body"]
        mid = msg.mid
        if mid is None:
            mid = msg.mid = self._mid(origin, desc, msg.obj, body)
        if mid not in self._seen:
            self._seen.add(mid)
            self._forward(origin, desc, msg.obj, body, mid)
            self.deliver(origin, desc, msg.obj, body)
        return True


class UrbEndpoint:
    def __init__(self, api, deliver):
        self.api = api
        self.deliver = deliver
        self._echoed: set[str] = set()
        self._echoes: dict[str, dict[str, bytes]] = {}
        self._certed: set[str] = set()

    def broadcast(self, config: Config, desc: str, obj: str, body: dict) -> None:
        inner = {"origin": self.api.pid, "desc": desc, "body": body, "config": config}
        msg = Msg("urb.init", obj, inner)
        for pid in sorted(config.replicas()):
            self.api.send(pid, msg)

    def _mid(self, inner, obj) -> str:
        return digest(["urb", inner["origin"], inner["desc"], obj, inner["body"], inner["config"]])[:16]

    def _echo_payload(self, mid: str) -> bytes:
        return canon(["urbecho", mid])

    def _certify(self, mid, inner, obj, cert) -> None:
        """Mark mid certified, forward its certificate, then deliver it.

        Both callers return early on a certified mid, so each is delivered once.
        """
        self._certed.add(mid)
        msg = Msg("urb.cert", obj, {"inner": inner, "cert": cert})
        msg.mid = mid
        for pid in sorted(inner["config"].replicas()):
            self.api.send(pid, msg)
        self.deliver(inner["origin"], inner["desc"], obj, inner["body"], inner["config"])

    def _msg_mid(self, msg: Msg, inner) -> str:
        mid = msg.mid
        if mid is None:
            mid = msg.mid = self._mid(inner, msg.obj)
        return mid

    def handle(self, frm: str, msg: Msg) -> bool:
        if msg.desc == "urb.init":
            inner = msg.body
            mid = self._msg_mid(msg, inner)
            if mid not in self._echoed:
                self._echoed.add(mid)
                sig = self.api.oracle.plain_sign(self.api.pid, self._echo_payload(mid))
                out = Msg("urb.echo", msg.obj, {"inner": inner, "sig": sig})
                out.mid = mid
                for pid in sorted(inner["config"].replicas()):
                    self.api.send(pid, out)
            return True
        if msg.desc == "urb.echo":
            inner, sig = msg.body["inner"], msg.body["sig"]
            config: Config = inner["config"]
            mid = self._msg_mid(msg, inner)
            if mid in self._certed:     # already forwarded and delivered
                return True
            if frm in config.replicas() and self.api.oracle.plain_verify(
                self._echo_payload(mid), frm, sig
            ):
                got = self._echoes.setdefault(mid, {})
                got.setdefault(frm, sig)
                if config.is_quorum(got.keys()):
                    self._certify(mid, inner, msg.obj, dict(got))
            return True
        if msg.desc == "urb.cert":
            inner, cert = msg.body["inner"], msg.body["cert"]
            config: Config = inner["config"]
            mid = self._msg_mid(msg, inner)
            if mid in self._certed:
                return True
            payload = self._echo_payload(mid)
            ok = config.is_quorum(cert.keys()) and all(
                self.api.oracle.plain_verify(payload, pid, sig)
                for pid, sig in cert.items()
            )
            if ok:
                self._certify(mid, inner, msg.obj, cert)
            return True
        return False
