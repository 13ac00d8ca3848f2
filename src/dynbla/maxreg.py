"""Dynamic max-register on the replicated core.

A max-register is a DynamicObject over ints, and obj.check_value admits
every write and every cell: a replica's cell, like each cell a client
counts, is the largest admitted InputValue, or None. A write collects a
quorum of forward-secure acks for its InputValue at one configuration. A
read collects a quorum of cells, then writes the largest value back at the
same configuration before returning it; the write-back is what makes reads
atomic. History growth restarts whichever round is in flight, and a
restarted read goes back to the get phase so that the get and the
write-back always share a configuration.
"""

from __future__ import annotations

from .dbla import DynamicObject, InputValue, QuorumCert, QuorumSession, Store
from .lattice import canon


def setresp_payload(object_id: str, config, v: int) -> bytes:
    return canon(["setresp", object_id, config, v])


class MaxRegStore(Store):
    """Replica cell for one max-register object."""

    def __init__(self, store_id: str, obj: DynamicObject):
        self.store_id = store_id
        self.obj = obj
        self.object_id = obj.object_id
        self.cell = None  # the largest admitted InputValue, or None

    def _keep(self, iv: InputValue) -> bool:
        """Whether the object admits iv; the cell becomes iv if it is larger."""
        ok = self.obj.check_value(iv)
        if ok and (self.cell is None or iv.value > self.cell.value):
            self.cell = iv
        return ok

    def _set(self, body):
        # an uncertified write earns no ack
        iv = body["iv"]
        return (("mr.setresp", setresp_payload(self.object_id, body["config"], iv.value), {})
                if self._keep(iv) else None)

    def _get(self, body):
        return "mr.getresp", None, {"cell": self.cell}

    SERVES = {"mr.set": _set, "mr.get": _get}

    def xfer_snapshot(self):
        return self.cell

    def xfer_merge(self, payload) -> None:
        if type(payload) is InputValue:
            self._keep(payload)


class MaxRegClient(QuorumSession):
    """Max-register session: a write is one set round, a read is a get round
    followed by a set round writing the largest value back."""

    def __init__(self, hub, obj: DynamicObject):
        super().__init__(hub, obj.object_id)
        self.obj = obj
        self._mode = None
        self._iv = None

    def write(self, v: int, cert, done) -> None:
        self._begin(done)
        iv = InputValue(v, cert)
        if not self.obj.check_value(iv):
            raise ValueError("write requires a certified integer")
        self._mode = "write"
        self._iv = iv
        self._start()

    def read(self, done) -> None:
        self._begin(done)
        self._mode = "read"
        self._start()

    def _start(self) -> None:
        if self._mode == "write":
            self._set_round()
        else:
            self._round("get", "mr.get", {})

    def _set_round(self) -> None:
        self._round("set", "mr.set", {"iv": self._iv})

    def _on_setresp(self, frm, msg) -> None:
        if self._take_sig(frm, msg) and self.anchor.is_quorum(self.got):
            v = self._iv.value
            ack = {"cid": self.anchor.cid(), "h": self.anchor.height(), "v": v, "config": self.anchor,
                   "acks": QuorumCert(self.got)}
            if self._mode == "write":
                self._finish(ack)
            else:
                self._finish(v, ack)

    def _on_getresp(self, frm, msg) -> None:
        cell = msg.body["cell"]
        # a cell the object refuses does not count toward the quorum
        if cell is None or self.obj.check_value(cell):
            self.got[frm] = cell
        if self.anchor.is_quorum(self.got):
            best = max((c for c in self.got.values() if c is not None), key=lambda c: c.value, default=None)
            if best is None:
                self._finish(None, None)
            else:
                self._iv = best
                self._set_round()

    def _expected(self) -> bytes:
        return setresp_payload(self.object_id, self.anchor, self._iv.value)

    REPLIES = {"mr.setresp": ("set", _on_setresp), "mr.getresp": ("get", _on_getresp)}
