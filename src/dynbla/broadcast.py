"""Broadcast primitives: history gossip and uniform broadcast.

RbEndpoint: history gossip, a bare hist.new {hist, cert} on an object, sent
to the rest of the roster but the process the history came from, which
holds it. It keeps no state and relays nothing by itself: whether to relay
is the receiver's decision. A history follower (dbla.Follower) relays the
same hist.new for exactly the histories it adopts, so the greatest
certified history reaches every correct process while forged and stale
ones stop at their first recipients.

Both endpoints read bodies directly: the process hosting them passes on
only messages that fit the wire table, ``dbla.WIRE``.

UrbEndpoint: uniform broadcast within one configuration, used for install
announcements. A message is {origin, config} on an object, and its content
is its id: (origin, object, config). A sent message is immutable
(simnet.Msg), so its id, echo payload and signature verdict (an echo's
sender and plain signature, or a certificate's quorum of them) are computed
once per message object and memoised on it (``Msg.urb``). An echo carries
the id and payload of the init it answers; a certificate forward carries
them and the verdict, since its sender verified it or built it from
verified echoes.
Who is sent what:
- the origin sends urb.init to every replica of the configuration;
- a replica echoes only an origin's own urb.init, as in Bracha's reliable
  broadcast (1987), with a plain-signed acknowledgment of its id, to every
  replica of the configuration. So neither an init naming another member
  as origin nor an edit of a shared init gets an announcement echoed for
  someone else; a forged urb.cert still can while plain signatures are
  unkeyed hashes. A replica that has already certified the id does not
  echo: its certificate forward has reached every replica;
- a quorum of echoes, or a urb.cert whose quorum verifies, forms a
  certificate that is forwarded before local delivery, so a process that
  delivers and then turns Byzantine has already propagated it. It goes to
  the configuration's replicas but this one and, for a urb.cert, its
  sender.

The init and echoes go to the sending replica too: a replica
(dbla.DynamicReplica) takes what it sends itself as a local step, not a
delivery.

Each endpoint holds its host's deliver method weakly (simnet.weak_method):
the host holds the endpoint, and the endpoint does not hold its host.

Totality holds while the configuration has an available quorum and is not
superseded. A message whose configuration has a replica outside the roster
is not taken: its echoes could not be sent there.
"""

from __future__ import annotations

from .lattice import Config, canon
from .lattice import digest  # noqa: F401  unused here; bench/tracing.py patches broadcast.digest
from .simnet import Msg, weak_method


class RbEndpoint:
    def __init__(self, api, roster, deliver):
        self.api = api
        self.roster = sorted(set(roster) - {api.pid})
        self.deliver = weak_method(deliver)

    def broadcast(self, obj: str, body: dict, skip: str | None = None) -> None:
        """Send hist.new to the roster but this process and skip, the
        process the history came from."""
        self.api.send_all([pid for pid in self.roster if pid != skip], Msg("hist.new", obj, body))

    def handle(self, frm: str, msg: Msg) -> bool:
        if msg.desc != "hist.new":
            return False
        self.deliver(frm, msg.obj, msg.body)
        return True


class UrbEndpoint:
    def __init__(self, api, roster, deliver):
        self.api = api
        self.roster = frozenset(roster)
        self.deliver = weak_method(deliver)
        # keyed by an id's echo payload, whose hash is cached, not by the id
        self._echoed: set[bytes] = set()
        self._echoes: dict[bytes, dict[str, bytes]] = {}
        self._certed: set[bytes] = set()

    def broadcast(self, config: Config, obj: str) -> None:
        msg = Msg("urb.init", obj, {"origin": self.api.pid, "config": config})
        self.api.send_all(config.sorted_replicas(), msg)

    def _echo_payload(self, mid: tuple) -> bytes:
        return canon(["urbecho", *mid])

    def _certify(self, mid, payload, inner, cert, frm=None) -> None:
        """Mark mid certified, forward its certificate to the configuration's
        replicas but this one and frm, the sender of a certificate taken
        whole, then deliver it.

        Both callers return early on a certified mid, so each is delivered once.
        """
        self._certed.add(payload)
        origin, obj, config = mid
        msg = Msg("urb.cert", obj, {"inner": inner, "cert": cert})
        msg.urb = [mid, payload, True]     # verified, or assembled from verified echoes
        skip = (self.api.pid, frm)
        self.api.send_all([pid for pid in config.sorted_replicas() if pid not in skip], msg)
        self.deliver(origin, config)

    def _verify(self, frm: str, msg: Msg, config: Config, payload: bytes) -> bool:
        """An echo is signed by frm, one of the configuration's replicas; a
        certificate by a quorum of them."""
        oracle = self.api.oracle
        if msg.desc == "urb.echo":
            return frm in config.replicas() and oracle.plain_verify(payload, frm, msg.body["sig"])
        cert = msg.body["cert"]
        return config.is_quorum(cert.keys()) and all(
            oracle.plain_verify(payload, pid, sig) for pid, sig in cert.items()
        )

    def handle(self, frm: str, msg: Msg) -> bool:
        desc = msg.desc
        if desc == "urb.init":
            inner = msg.body
        elif desc in ("urb.echo", "urb.cert"):
            inner = msg.body["inner"]
        else:
            return False
        # [id, echo payload, signature verdict or None until needed]
        memo = msg.urb
        if memo is None:
            mid = (inner["origin"], msg.obj, inner["config"])
            memo = msg.urb = [mid, self._echo_payload(mid), None]
        mid, payload, ok = memo
        # once certified, the certificate forward has reached every replica
        # and been delivered; its configuration passed the roster test below
        if payload in self._certed:
            return True
        config: Config = mid[2]
        if not config.replicas() <= self.roster:
            return False
        if desc == "urb.init":
            if frm == mid[0] and payload not in self._echoed:
                self._echoed.add(payload)
                sig = self.api.oracle.plain_sign(self.api.pid, payload)
                out = Msg("urb.echo", msg.obj, {"inner": inner, "sig": sig})
                out.urb = [mid, payload, None]
                self.api.send_all(config.sorted_replicas(), out)
            return True
        if ok is None:
            ok = memo[2] = self._verify(frm, msg, config, payload)
        if not ok:
            return True
        if desc == "urb.echo":
            got = self._echoes.setdefault(payload, {})
            got.setdefault(frm, msg.body["sig"])
            if config.is_quorum(got.keys()):
                self._certify(mid, payload, inner, dict(got))
        else:
            self._certify(mid, payload, inner, msg.body["cert"], frm)
        return True
