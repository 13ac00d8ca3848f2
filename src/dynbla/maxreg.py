"""Dynamic max-register on the replicated core.

A write certifies its value and collects a quorum of forward-secure acks at
one configuration. A read collects a quorum of cells, then writes the largest
value back at the same configuration before returning it; the write-back is
what makes reads atomic. History growth restarts whichever round is in
flight, and a restarted read goes back to the get phase so that the get and
the write-back always share a configuration.
"""

from __future__ import annotations

from .dbla import QuorumCert, QuorumSession, Store
from .lattice import canon


def setresp_payload(object_id: str, config, v: int) -> bytes:
    return canon(["setresp", object_id, config, v])


def valid_cell(check_write, cell) -> bool:
    """cell is a (value, cert) pair whose integer value, an int as on the wire
    (not a bool), carries a valid write cert."""
    return (
        isinstance(cell, (tuple, list))
        and len(cell) == 2
        and type(cell[0]) is int
        and check_write(cell[0], cell[1])
    )


class MaxRegStore(Store):
    """Replica cell for one max-register object."""

    def __init__(self, store_id: str, object_id: str, check_write):
        self.store_id = store_id
        self.object_id = object_id
        self.check_write = check_write
        self.cell = None  # (value, cert) or None

    def _set(self, body):
        v, cert = body["v"], body["cert"]
        if not self.check_write(v, cert):
            return None  # uncertified writes earn no ack
        if self.cell is None or v > self.cell[0]:
            self.cell = (v, cert)
        return "mr.setresp", setresp_payload(self.object_id, body["config"], v), {}

    def _get(self, body):
        return "mr.getresp", None, {"cell": self.cell}

    SERVES = {"mr.set": _set, "mr.get": _get}

    def xfer_snapshot(self):
        return self.cell

    def xfer_merge(self, payload) -> None:
        cell = tuple(payload) if isinstance(payload, list) else payload
        if valid_cell(self.check_write, cell):
            if self.cell is None or cell[0] > self.cell[0]:
                self.cell = (cell[0], cell[1])


class MaxRegClient(QuorumSession):
    """Max-register session: a write is one set round, a read is a get round
    followed by a set round writing the largest value back."""

    def __init__(self, hub, object_id: str, check_write):
        super().__init__(hub, object_id)
        self.check_write = check_write
        self._mode = None
        self._val = None
        self._cert = None
        self._readv = None

    def write(self, v: int, cert, done) -> None:
        self._begin(done)
        if type(v) is not int or not self.check_write(v, cert):
            raise ValueError("write requires a certified integer")
        self._mode = "write"
        self._val, self._cert = v, cert
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
        self._round("set", "mr.set", {"v": self._val, "cert": self._cert})

    def _on_setresp(self, frm, msg) -> None:
        if self._take_sig(frm, msg) and self.anchor.is_quorum(self.got):
            ack = {
                "cid": self.anchor.cid(),
                "h": self.anchor.height(),
                "v": self._val,
                "config": self.anchor,
                "acks": QuorumCert(self.got),
            }
            if self._mode == "write":
                self._finish(ack)
            else:
                self._finish(self._readv, ack)

    def _on_getresp(self, frm, msg) -> None:
        cell = msg.body["cell"]
        if cell is None:
            self.got[frm] = None
        elif valid_cell(self.check_write, cell):
            self.got[frm] = (cell[0], cell[1])
        else:
            return  # garbage cells do not count toward the quorum
        if self.anchor.is_quorum(self.got):
            best = None
            for c in self.got.values():
                if c is not None and (best is None or c[0] > best[0]):
                    best = c
            if best is None:
                self._finish(None, None)
            else:
                self._readv, self._val, self._cert = best[0], best[0], best[1]
                self._set_round()

    def _expected(self) -> bytes:
        return setresp_payload(self.object_id, self.anchor, self._val)

    REPLIES = {"mr.setresp": ("set", _on_setresp), "mr.getresp": ("get", _on_getresp)}
