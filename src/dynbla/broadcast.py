"""Broadcast primitives: history gossip and uniform broadcast.

RbEndpoint: history gossip, a bare hist.new {hist, cert} on an object, sent
to the rest of the roster. It keeps no state and relays nothing by itself:
whether to relay is the receiver's decision. A history follower
(dbla.Follower) relays the same hist.new for exactly the histories it
adopts, so the greatest certified history reaches every correct process
while forged and stale ones stop at their first recipients.

Both endpoints read bodies directly: the process hosting them passes on
only messages that fit the wire table, ``dbla.WIRE``.

UrbEndpoint: uniform broadcast within one configuration, used for install
announcements. A message is {origin, config} on an object, and its content
is its id: (origin, object, config), read from the body at every delivery.
A replica echoes only an origin's own urb.init, as in Bracha's reliable
broadcast (1987), with a plain-signed acknowledgment of its id. So neither
an init naming another member as origin nor an edit of a shared init gets
an announcement echoed for someone else; a forged urb.cert still can while
plain signatures are unkeyed hashes. A quorum of echoes forms a
certificate that is forwarded to the configuration's other replicas before
local delivery, so a process that delivers and then turns Byzantine has
already propagated the certificate.
Totality holds while the configuration has an available quorum and is not
superseded. A message whose configuration has a replica outside the roster
is not taken: its echoes could not be sent there.
"""

from __future__ import annotations

from .lattice import Config, canon
from .lattice import digest  # noqa: F401  unused here; bench/tracing.py patches broadcast.digest
from .simnet import Msg


class RbEndpoint:
    def __init__(self, api, roster, deliver):
        self.api = api
        self.roster = sorted(set(roster) - {api.pid})
        self.deliver = deliver

    def broadcast(self, obj: str, body: dict) -> None:
        msg = Msg("hist.new", obj, body)
        for pid in self.roster:
            self.api.send(pid, msg)

    def handle(self, frm: str, msg: Msg) -> bool:
        if msg.desc != "hist.new":
            return False
        self.deliver(msg.obj, msg.body)
        return True


class UrbEndpoint:
    def __init__(self, api, roster, deliver):
        self.api = api
        self.roster = frozenset(roster)
        self.deliver = deliver
        self._echoed: set[tuple] = set()
        self._echoes: dict[tuple, dict[str, bytes]] = {}
        self._certed: set[tuple] = set()

    def broadcast(self, config: Config, obj: str) -> None:
        msg = Msg("urb.init", obj, {"origin": self.api.pid, "config": config})
        for pid in sorted(config.replicas()):
            self.api.send(pid, msg)

    def _echo_payload(self, mid: tuple) -> bytes:
        return canon(["urbecho", *mid])

    def _certify(self, mid, inner, cert) -> None:
        """Mark mid certified, forward its certificate, then deliver it.

        Both callers return early on a certified mid, so each is delivered once.
        """
        self._certed.add(mid)
        origin, obj, config = mid
        msg = Msg("urb.cert", obj, {"inner": inner, "cert": cert})
        for pid in sorted(config.replicas() - {self.api.pid}):
            self.api.send(pid, msg)
        self.deliver(origin, config)

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
        mid = (inner["origin"], msg.obj, config)
        if msg.desc == "urb.init":
            if frm == mid[0] and mid not in self._echoed:
                self._echoed.add(mid)
                sig = self.api.oracle.plain_sign(self.api.pid, self._echo_payload(mid))
                out = Msg("urb.echo", msg.obj, {"inner": inner, "sig": sig})
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
                    self._certify(mid, inner, dict(got))
            return True
        cert = msg.body["cert"]
        ok = config.is_quorum(cert.keys()) and all(
            self.api.oracle.plain_verify(payload, pid, sig)
            for pid, sig in cert.items()
        )
        if ok:
            self._certify(mid, inner, cert)
        return True
