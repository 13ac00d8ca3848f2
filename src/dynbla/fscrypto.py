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
  destroys older private keys; the public key of every key that signed is
  kept and stays available for verification. A signature claimed for a
  timestamp at which its signer never signed is refused at once: no key is
  derived for it and nothing is kept.

  Ed25519 signing is deterministic and correct (RFC 8032), so each oracle
  signs each (p, t, sha256(m)) once and never verifies with Ed25519 what it
  issued: it keeps the private key derived for (p, t), the signature issued
  for (p, t, sha256(m)), and the verdict for each signature it issued or
  verified successfully, keyed (p, t, sha256(m), signature). Any other
  signature, a forgery or a valid one this oracle did not issue, is checked
  with Ed25519; failed verifications are not kept, so junk cannot grow the
  cache. Raising p's watermark to t erases p's keys and signatures below t
  together with the chain seed; verdicts stay, as the public keys do.

  The Ed25519 bindings (`cryptography`) are loaded when a KeyChainFsOracle
  first derives a key, so a run on the ledger backend never loads them.
"""

from __future__ import annotations

import hashlib

from .lattice import Value, _set_attr, canon

KEY_CHAIN_SPAN = 65536


def _load_ed25519() -> None:
    """Bind Ed25519PrivateKey and InvalidSignature in this module, loading
    `cryptography` on the first call. Only KeyChainFsOracle._priv calls it,
    and its _check reaches Ed25519 only with a public key _priv made."""
    global Ed25519PrivateKey, InvalidSignature
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey


def _h(*parts: bytes) -> bytes:
    out = hashlib.sha256()
    for p in parts:
        out.update(len(p).to_bytes(4, "big"))
        out.update(p)
    return out.digest()


class FsSig(Value):
    """A forward-secure signature."""

    __slots__ = ("signer", "ts", "data", "_canon")

    def __init__(self, signer: str, ts: int, data: bytes):
        _set_attr(self, "signer", signer)
        _set_attr(self, "ts", ts)
        _set_attr(self, "data", data)

    def _encode(self) -> bytes:
        return canon(["fsig", self.signer, self.ts, self.data])


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

    def update_fs_keys(self, pid: str, ts: int) -> None:
        if ts > self._st[pid]:
            self._on_advance(pid, ts)
            self._st[pid] = ts

    def fs_sign(self, pid: str, msg: bytes, ts: int) -> FsSig | None:
        if ts < self._st[pid]:
            return None
        md = hashlib.sha256(msg).digest()
        data = self._issue(pid, msg, md, ts)
        entry = {
            "signer": pid,
            "mhash": md.hex(),
            "ts": ts,
            "sig": data.hex(),
        }
        if self.audit_hook is not None:
            entry.update(self.audit_hook())
        self.ledger.append(entry)
        return FsSig(pid, ts, data)

    def fs_verify(self, msg: bytes, pid: str, sig, ts: int) -> bool:
        if not isinstance(sig, FsSig) or sig.signer != pid or sig.ts != ts or type(sig.data) is not bytes:
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

    def _issue(self, pid: str, msg: bytes, md: bytes, ts: int) -> bytes:
        """Signature bytes for msg, whose SHA-256 digest is md."""
        raise NotImplementedError

    def _check(self, pid: str, msg: bytes, data: bytes, ts: int) -> bool:
        raise NotImplementedError


class LedgerFsOracle(_FsOracleBase):
    """Trusted-issuer backend: verification is issuance-ledger membership."""

    def __init__(self):
        super().__init__()
        self._issued: dict[tuple[str, bytes, int], bytes] = {}

    def _issue(self, pid, msg, md, ts):
        key = (pid, md, ts)
        data = self._issued.get(key)
        if data is None:
            data = _h(b"fs-issue", pid.encode(), md, str(ts).encode())
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
        # erased below the watermark by _on_advance
        self._keys: dict[str, dict[int, Ed25519PrivateKey]] = {}
        self._sigs: dict[str, dict[tuple[int, bytes], bytes]] = {}
        # signatures issued or verified successfully, keyed (pid, ts, sha256(msg), sig)
        self._verified: set[tuple[str, int, bytes, bytes]] = set()

    def _on_register(self, pid):
        self._chain[pid] = (0, _h(b"chain-seed", pid.encode()))
        self._keys[pid] = {}
        self._sigs[pid] = {}

    def _on_advance(self, pid, ts):
        if ts >= self.span:
            raise ValueError(f"timestamp {ts} outside key-chain span {self.span}")
        self._chain[pid] = (ts, self._seed_at(pid, ts))
        self._keys[pid] = {t: k for t, k in self._keys[pid].items() if t >= ts}
        self._sigs[pid] = {k: s for k, s in self._sigs[pid].items() if k[0] >= ts}

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
        keys = self._keys[pid]
        priv = keys.get(ts)
        if priv is None:
            _load_ed25519()
            priv = keys[ts] = Ed25519PrivateKey.from_private_bytes(self._priv_seed(pid, ts))
            self._pubs.setdefault((pid, ts), priv.public_key())
        return priv

    def _issue(self, pid, msg, md, ts):
        if ts >= self.span:
            raise ValueError(f"timestamp {ts} outside key-chain span {self.span}")
        sigs = self._sigs[pid]
        data = sigs.get((ts, md))
        if data is None:
            data = sigs[(ts, md)] = self._priv(pid, ts).sign(msg)
            self._verified.add((pid, ts, md, data))
        return data

    def _check(self, pid, msg, data, ts):
        key = (pid, ts, hashlib.sha256(msg).digest(), data)
        if key in self._verified:
            return True
        pub = self._pubs.get((pid, ts))
        if pub is None:
            # only a sign derives a key, so no valid signature exists
            return False
        try:
            pub.verify(data, msg)
        except InvalidSignature:
            return False
        self._verified.add(key)
        return True


class LedgerVerifier:
    """Re-verifies signatures offline from a dumped issuance ledger."""

    def __init__(self, entries: list[dict]):
        self._issued = {
            (e["signer"], e["mhash"], e["ts"]): bytes.fromhex(e["sig"])
            for e in entries
        }

    def fs_verify(self, msg: bytes, pid: str, sig, ts: int) -> bool:
        if not isinstance(sig, FsSig) or sig.signer != pid or sig.ts != ts:
            return False
        key = (pid, hashlib.sha256(msg).hexdigest(), ts)
        return self._issued.get(key) == sig.data

    def plain_verify(self, msg: bytes, pid: str, data: bytes) -> bool:
        return isinstance(data, bytes) and data == _h(b"plain", pid.encode(), msg)
