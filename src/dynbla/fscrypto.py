"""Forward-secure signing oracles.

A signer p holds a watermark st_p (initially 0). fs_sign(p, m, t) succeeds
only when t >= st_p; update_fs_keys(p, t) raises the watermark and destroys
the ability to sign below it. The watermark rule is enforced for every
caller, including scripted Byzantine processes.

Two interchangeable backends:

- LedgerFsOracle: a trusted issuer keeping a ledger of issued signatures;
  verification is ledger membership, so unissued bytes never verify.
- KeyChainFsOracle: one Ed25519 key per timestamp, derived from a one-way
  hash chain. Raising the watermark advances the chain, which physically
  destroys older private keys; public keys are cached on first use and stay
  available for verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .lattice import canon

KEY_CHAIN_SPAN = 65536


def _h(*parts: bytes) -> bytes:
    out = hashlib.sha256()
    for p in parts:
        out.update(len(p).to_bytes(4, "big"))
        out.update(p)
    return out.digest()


@dataclass(frozen=True)
class FsSig:
    signer: str
    ts: int
    data: bytes
    _canon: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def canon(self) -> bytes:
        if self._canon is None:
            object.__setattr__(self, "_canon", canon(["fsig", self.signer, self.ts, self.data]))
        return self._canon

    def to_jsonable(self):
        return {"signer": self.signer, "ts": self.ts, "data": self.data.hex()}

    @classmethod
    def from_jsonable(cls, d) -> "FsSig":
        return cls(d["signer"], d["ts"], bytes.fromhex(d["data"]))


class _FsOracleBase:
    def __init__(self):
        self._st: dict[str, int] = {}
        self.ledger: list[dict] = []
        self.audit_hook = None

    def register(self, pid: str) -> None:
        if pid not in self._st:
            self._st[pid] = 0
            self._on_register(pid)

    def st(self, pid: str) -> int:
        return self._st[pid]

    def processes(self):
        return list(self._st)

    def update_fs_keys(self, pid: str, ts: int) -> None:
        if ts > self._st[pid]:
            self._on_advance(pid, ts)
            self._st[pid] = ts

    def fs_sign(self, pid: str, msg: bytes, ts: int) -> FsSig | None:
        if ts < self._st[pid]:
            return None
        data = self._issue(pid, msg, ts)
        entry = {
            "signer": pid,
            "mhash": hashlib.sha256(msg).hexdigest(),
            "ts": ts,
            "sig": data.hex(),
        }
        if self.audit_hook is not None:
            entry.update(self.audit_hook())
        self.ledger.append(entry)
        return FsSig(pid, ts, data)

    def fs_verify(self, msg: bytes, pid: str, sig, ts: int) -> bool:
        if not isinstance(sig, FsSig) or sig.signer != pid or sig.ts != ts:
            return False
        return self._check(pid, msg, sig.data, ts)

    def plain_sign(self, pid: str, msg: bytes) -> bytes:
        return _h(b"plain", pid.encode(), msg)

    def plain_verify(self, msg: bytes, pid: str, data: bytes) -> bool:
        return isinstance(data, bytes) and data == _h(b"plain", pid.encode(), msg)

    def dump_ledger(self) -> list[dict]:
        return list(self.ledger)

    def _on_register(self, pid: str) -> None:
        pass

    def _on_advance(self, pid: str, ts: int) -> None:
        pass

    def _issue(self, pid: str, msg: bytes, ts: int) -> bytes:
        raise NotImplementedError

    def _check(self, pid: str, msg: bytes, data: bytes, ts: int) -> bool:
        raise NotImplementedError


class LedgerFsOracle(_FsOracleBase):
    """Trusted-issuer backend: verification is issuance-ledger membership."""

    def __init__(self):
        super().__init__()
        self._issued: dict[tuple[str, bytes, int], bytes] = {}

    def _issue(self, pid, msg, ts):
        key = (pid, hashlib.sha256(msg).digest(), ts)
        data = self._issued.get(key)
        if data is None:
            data = _h(b"fs-issue", pid.encode(), key[1], str(ts).encode())
            self._issued[key] = data
        return data

    def _check(self, pid, msg, data, ts):
        return self._issued.get((pid, hashlib.sha256(msg).digest(), ts)) == data


class KeyChainFsOracle(_FsOracleBase):
    """Hash-chain of per-timestamp Ed25519 keys with real deletion."""

    def __init__(self, span: int = KEY_CHAIN_SPAN):
        super().__init__()
        self.span = span
        self._chain: dict[str, tuple[int, bytes]] = {}
        self._pubs: dict[tuple[str, int], Ed25519PublicKey] = {}

    def _on_register(self, pid):
        self._chain[pid] = (0, _h(b"chain-seed", pid.encode()))

    def _on_advance(self, pid, ts):
        if ts >= self.span:
            raise ValueError(f"timestamp {ts} outside key-chain span {self.span}")
        self._chain[pid] = (ts, self._seed_at(pid, ts))

    def _seed_at(self, pid: str, ts: int) -> bytes:
        t0, seed = self._chain[pid]
        if ts < t0:
            raise KeyError(f"key chain for {pid} already advanced past {ts}")
        for _ in range(ts - t0):
            seed = _h(b"chain-step", seed)
        return seed

    def _priv_seed(self, pid: str, ts: int) -> bytes:
        return _h(b"chain-key", self._seed_at(pid, ts))

    def _priv(self, pid: str, ts: int) -> Ed25519PrivateKey:
        return Ed25519PrivateKey.from_private_bytes(self._priv_seed(pid, ts))

    def _issue(self, pid, msg, ts):
        if ts >= self.span:
            raise ValueError(f"timestamp {ts} outside key-chain span {self.span}")
        priv = self._priv(pid, ts)
        if (pid, ts) not in self._pubs:
            self._pubs[(pid, ts)] = priv.public_key()
        return priv.sign(msg)

    def _check(self, pid, msg, data, ts):
        pub = self._pubs.get((pid, ts))
        if pub is None:
            t0, _ = self._chain[pid]
            if ts < t0 or ts >= self.span:
                # the key was destroyed before anything was signed with it,
                # or never existed: no valid signature can exist
                return False
            pub = self._priv(pid, ts).public_key()
            self._pubs[(pid, ts)] = pub
        try:
            pub.verify(data, msg)
            return True
        except InvalidSignature:
            return False


class LedgerVerifier:
    """Re-verifies signatures offline from a dumped issuance ledger."""

    def __init__(self, entries: list[dict]):
        self._issued = {
            (e["signer"], e["mhash"], e["ts"]): bytes.fromhex(e["sig"])
            for e in entries
        }
        self.entries = entries

    def fs_verify(self, msg: bytes, pid: str, sig, ts: int) -> bool:
        if not isinstance(sig, FsSig) or sig.signer != pid or sig.ts != ts:
            return False
        key = (pid, hashlib.sha256(msg).hexdigest(), ts)
        return self._issued.get(key) == sig.data

    def plain_verify(self, msg: bytes, pid: str, data: bytes) -> bool:
        return isinstance(data, bytes) and data == _h(b"plain", pid.encode(), msg)
