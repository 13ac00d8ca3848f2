"""Broadcast primitives: the history envelope and uniform broadcast.

RbEndpoint: the rb.fwd envelope, {origin, desc, body} on an object, sent to
the whole roster. It keeps no state and relays nothing by itself: whether to
relay is the receiver's decision. A history follower (dbla.Follower) relays
exactly the histories it adopts, so the greatest certified history reaches
every correct process while forged and stale ones stop at their first
recipients.

Both endpoints read bodies directly: the process hosting them passes on
only messages that fit the wire table, ``dbla.WIRE``, where an envelope's
inner body must fit the entry of the kind it names.

UrbEndpoint: uniform broadcast within one configuration, used for install
announcements. Replicas echo a plain-signed acknowledgment; a quorum of
echoes forms a certificate that is re-forwarded before local delivery, so a
process that delivers and then turns Byzantine has already propagated the
certificate. Totality holds while the configuration has an available quorum
and is not superseded. Each message object is identified once: the id is
memoised in ``Msg.mid`` on first delivery and handed on to the echoes and
certificates derived from it. A message whose configuration has a replica
outside the roster is not taken: its echoes could not be sent there.
"""

from __future__ import annotations

from .lattice import Config, canon, digest
from .simnet import Msg


class RbEndpoint:
    def __init__(self, api, roster, deliver):
        self.api = api
        self.roster = sorted(roster)
        self.deliver = deliver

    def broadcast(self, origin: str, desc: str, obj: str, body: dict) -> None:
        msg = Msg("rb.fwd", obj, {"origin": origin, "desc": desc, "body": body})
        for pid in self.roster:
            self.api.send(pid, msg)

    def handle(self, frm: str, msg: Msg) -> bool:
        if msg.desc != "rb.fwd":
            return False
        self.deliver(msg.body["origin"], msg.body["desc"], msg.obj, msg.body["body"])
        return True


class UrbEndpoint:
    def __init__(self, api, roster, deliver):
        self.api = api
        self.roster = frozenset(roster)
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

    def handle(self, frm: str, msg: Msg) -> bool:
        if msg.desc == "urb.init":
            inner = msg.body
        elif msg.desc in ("urb.echo", "urb.cert"):
            inner = msg.body["inner"]
        else:
            return False
        config: Config = inner["config"]
        if not config.replicas() <= self.roster:
            return False
        mid = msg.mid
        if mid is None:
            mid = msg.mid = self._mid(inner, msg.obj)
        if msg.desc == "urb.init":
            if mid not in self._echoed:
                self._echoed.add(mid)
                sig = self.api.oracle.plain_sign(self.api.pid, self._echo_payload(mid))
                out = Msg("urb.echo", msg.obj, {"inner": inner, "sig": sig})
                out.mid = mid
                for pid in sorted(config.replicas()):
                    self.api.send(pid, out)
            return True
        if mid in self._certed:     # already forwarded and delivered
            return True
        payload = self._echo_payload(mid)
        if msg.desc == "urb.echo":
            sig = msg.body["sig"]
            if frm in config.replicas() and self.api.oracle.plain_verify(payload, frm, sig):
                got = self._echoes.setdefault(mid, {})
                got.setdefault(frm, sig)
                if config.is_quorum(got.keys()):
                    self._certify(mid, inner, msg.obj, dict(got))
            return True
        cert = msg.body["cert"]
        ok = config.is_quorum(cert.keys()) and all(
            self.api.oracle.plain_verify(payload, pid, sig)
            for pid, sig in cert.items()
        )
        if ok:
            self._certify(mid, inner, msg.obj, cert)
        return True
