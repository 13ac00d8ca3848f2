"""Both signing backends must satisfy the same forward-security contract."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.serialization import Encoding, NoEncryption, PrivateFormat
from hypothesis import given, settings, strategies as st

from dynbla import fscrypto
from dynbla.fscrypto import (
    KEY_CHAIN_SPAN,
    FsSig,
    KeyChainFsOracle,
    LedgerFsOracle,
    LedgerVerifier,
    _h,
)


@pytest.fixture(params=["ledger", "keychain"])
def oracle(request):
    if request.param == "ledger":
        o = LedgerFsOracle()
    else:
        o = KeyChainFsOracle(span=128)
    for p in ("p1", "p2"):
        o.register(p)
    return o


def test_initial_timestamp_is_zero(oracle):
    assert oracle.st("p1") == 0
    assert oracle.fs_sign("p1", b"m", 0) is not None


def test_sign_below_watermark_is_refused(oracle):
    oracle.update_fs_keys("p1", 5)
    assert oracle.st("p1") == 5
    assert oracle.fs_sign("p1", b"m", 4) is None
    assert oracle.fs_sign("p1", b"m", 5) is not None
    # signing ahead of the watermark is allowed and does not move it
    assert oracle.fs_sign("p1", b"m", 9) is not None
    assert oracle.st("p1") == 5


def test_update_never_lowers_watermark(oracle):
    oracle.update_fs_keys("p1", 7)
    oracle.update_fs_keys("p1", 3)
    assert oracle.st("p1") == 7
    assert oracle.fs_sign("p1", b"m", 6) is None


def test_verify_round_trip_and_negatives(oracle):
    sig = oracle.fs_sign("p1", b"hello", 2)
    assert oracle.fs_verify(b"hello", "p1", sig, 2)
    assert not oracle.fs_verify(b"hellO", "p1", sig, 2)
    assert not oracle.fs_verify(b"hello", "p2", sig, 2)
    assert not oracle.fs_verify(b"hello", "p1", sig, 3)
    forged = FsSig("p1", 2, b"\x00" * 64)
    assert not oracle.fs_verify(b"hello", "p1", forged, 2)
    # data that is not bytes is refused, not handed to the backend, which
    # raises TypeError for it
    for data in (5, "00", None, (1,)):
        assert not oracle.fs_verify(b"hello", "p1", FsSig("p1", 2, data), 2)


def test_verify_is_stable(oracle):
    sig = oracle.fs_sign("p1", b"x", 1)
    first = oracle.fs_verify(b"x", "p1", sig, 1)
    oracle.fs_sign("p2", b"y", 0)
    oracle.update_fs_keys("p2", 9)
    assert oracle.fs_verify(b"x", "p1", sig, 1) == first is True


def test_signatures_do_not_cross_message_tags(oracle):
    # the same inner payload under two object tags yields unrelated bytes
    sig = oracle.fs_sign("p1", b"obj-a|payload", 1)
    assert not oracle.fs_verify(b"obj-b|payload", "p1", sig, 1)


def test_refusal_leaves_no_ledger_entry(oracle):
    oracle.update_fs_keys("p1", 4)
    before = len(oracle.ledger)
    assert oracle.fs_sign("p1", b"m", 1) is None
    assert len(oracle.ledger) == before


def test_ledger_records_issuance_with_audit_metadata(oracle):
    oracle.audit_hook = lambda: {"step": 42, "status": "C"}
    oracle.fs_sign("p2", b"m", 0)
    entry = oracle.ledger[-1]
    assert entry["signer"] == "p2" and entry["ts"] == 0
    assert entry["step"] == 42 and entry["status"] == "C"


def test_plain_signatures(oracle):
    sig = oracle.plain_sign("p1", b"payload")
    assert oracle.plain_verify(b"payload", "p1", sig)
    assert not oracle.plain_verify(b"payload!", "p1", sig)
    assert not oracle.plain_verify(b"payload", "p2", sig)
    assert not oracle.plain_verify(b"payload", "p1", b"\x01" * 32)


def test_keychain_constant_and_span_enforcement():
    assert KEY_CHAIN_SPAN == 65536
    o = KeyChainFsOracle(span=16)
    o.register("p")
    with pytest.raises(ValueError):
        o.fs_sign("p", b"m", 16)
    with pytest.raises(ValueError):
        o.update_fs_keys("p", 99)


def test_keychain_deletion_is_physical():
    o = KeyChainFsOracle(span=32)
    o.register("p")
    sig = o.fs_sign("p", b"m", 1)
    o.update_fs_keys("p", 8)
    # old signatures still verify (public keys stay published)
    assert o.fs_verify(b"m", "p", sig, 1)
    # but the private chain below the watermark is gone
    with pytest.raises(KeyError):
        o._priv_seed("p", 1)


def test_ledger_dump_supports_offline_verification():
    o = LedgerFsOracle()
    o.register("p1")
    sig = o.fs_sign("p1", b"msg", 2)
    plain = o.plain_sign("p1", b"doc")
    v = LedgerVerifier(o.dump_ledger())
    assert v.fs_verify(b"msg", "p1", sig, 2)
    assert not v.fs_verify(b"msg", "p1", FsSig("p1", 2, b"zz"), 2)
    assert not v.fs_verify(b"other", "p1", sig, 2)
    assert v.plain_verify(b"doc", "p1", plain)


# -- the keychain oracle's caches ----------------------------------------------


def _ref_key(pid: str, ts: int) -> Ed25519PrivateKey:
    seed = _h(b"chain-seed", pid.encode())
    for _ in range(ts):
        seed = _h(b"chain-step", seed)
    return Ed25519PrivateKey.from_private_bytes(_h(b"chain-key", seed))


class RefKeyChain:
    """Uncached keychain semantics: every key is derived from the chain's
    start and every signature and verification is computed afresh."""

    def __init__(self, span):
        self.span = span
        self.st = {}
        self.ledger = []
        self.published = set()  # (pid, ts) whose public key was ever taken

    def register(self, pid):
        self.st[pid] = 0

    def update_fs_keys(self, pid, ts):
        if ts > self.st[pid]:
            if ts >= self.span:
                raise ValueError(ts)
            self.st[pid] = ts

    def fs_sign(self, pid, msg, ts):
        if ts < self.st[pid]:
            return None
        if ts >= self.span:
            raise ValueError(ts)
        self.published.add((pid, ts))
        data = _ref_key(pid, ts).sign(msg)
        self.ledger.append({"signer": pid, "mhash": hashlib.sha256(msg).hexdigest(), "ts": ts, "sig": data.hex()})
        return FsSig(pid, ts, data)

    def fs_verify(self, msg, pid, sig, ts):
        if not isinstance(sig, FsSig) or sig.signer != pid or sig.ts != ts:
            return False
        if (pid, ts) not in self.published:
            if ts < self.st[pid] or ts >= self.span:
                return False
            self.published.add((pid, ts))
        try:
            _ref_key(pid, ts).public_key().verify(sig.data, msg)
        except InvalidSignature:
            return False
        return True


_PIDS = ("p1", "p2")
_MSGS = (b"a", b"b", b"c")
_SPAN = 16
_ts = st.integers(min_value=0, max_value=_SPAN + 1)
_op = st.one_of(
    st.tuples(st.just("sign"), st.sampled_from(_PIDS), st.sampled_from(_MSGS), _ts),
    st.tuples(st.just("update"), st.sampled_from(_PIDS), _ts),
    st.tuples(
        st.just("verify"),
        st.sampled_from(["genuine", "message", "signature", "ts", "pid", "foreign"]),
        st.integers(min_value=0, max_value=1000),
    ),
)


def _call(f, *args):
    try:
        return f(*args)
    except ValueError:
        return "ValueError"


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(st.lists(_op, max_size=60))
def test_keychain_matches_uncached_reference(ops):
    # other's signatures are valid ones o did not issue
    o, ref, other = KeyChainFsOracle(span=_SPAN), RefKeyChain(_SPAN), KeyChainFsOracle(span=_SPAN)
    for p in _PIDS:
        o.register(p)
        ref.register(p)
        other.register(p)
    issued = []  # (msg, sig)
    for op in ops:
        if op[0] == "sign":
            _, pid, msg, ts = op
            got = _call(o.fs_sign, pid, msg, ts)
            assert got == _call(ref.fs_sign, pid, msg, ts)
            if isinstance(got, FsSig):
                issued.append((msg, got))
        elif op[0] == "update":
            _, pid, ts = op
            assert _call(o.update_fs_keys, pid, ts) == _call(ref.update_fs_keys, pid, ts)
            assert o.st(pid) == ref.st[pid]
        elif issued:
            _, kind, i = op
            msg, sig = issued[i % len(issued)]
            pid, ts = sig.signer, sig.ts
            if kind == "message":
                msg = msg + b"!"
            elif kind == "signature":
                sig = FsSig(pid, ts, bytes([sig.data[0] ^ 1]) + sig.data[1:])
            elif kind == "ts":
                ts = (ts + 1) % _SPAN
                sig = FsSig(pid, ts, sig.data)
            elif kind == "pid":
                pid = "p2" if pid == "p1" else "p1"
                sig = FsSig(pid, ts, sig.data)
            elif kind == "foreign":
                msg = msg + b"?"  # o signs only _MSGS
                sig = other.fs_sign(pid, msg, ts)
            assert o.fs_verify(msg, pid, sig, ts) == ref.fs_verify(msg, pid, sig, ts)
    assert o.ledger == ref.ledger


def _private_keys(obj, seen=None):
    """Every Ed25519 private key reachable from obj's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Ed25519PrivateKey):
        return [obj]
    if isinstance(obj, dict):
        kids = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        kids = list(obj)
    elif hasattr(obj, "__dict__"):
        kids = list(vars(obj).values())
    else:
        return []
    return [k for kid in kids for k in _private_keys(kid, seen)]


def _raw(key):
    return key.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())


def test_keychain_erasure_covers_keys_and_signatures():
    o = KeyChainFsOracle(span=32)
    o.register("p")
    old = o.fs_sign("p", b"m", 1)
    ahead = o.fs_sign("p", b"m", 7)
    held = {_raw(k) for k in _private_keys(o)}
    assert _raw(_ref_key("p", 1)) in held  # the cache did keep the key

    o.update_fs_keys("p", 5)
    assert o.fs_sign("p", b"m", 1) is None
    below = {_raw(_ref_key("p", t)) for t in range(5)}
    assert not below & {_raw(k) for k in _private_keys(o)}
    assert all(t >= 5 for t in o._keys["p"])
    assert all(t >= 5 for t, _ in o._sigs["p"])
    assert o._chain["p"][0] == 5
    # what is still signable stays cached; the old signature still verifies
    assert o.fs_sign("p", b"m", 7) == ahead
    assert o.fs_verify(b"m", "p", old, 1)


class CountingPub:
    def __init__(self, pub):
        self.pub = pub
        self.calls = 0

    def verify(self, data, msg):
        self.calls += 1
        self.pub.verify(data, msg)


def _counting(o, pid, ts):
    pub = o._pubs[(pid, ts)] = CountingPub(o._pubs[(pid, ts)])
    return pub


def test_keychain_never_verifies_a_signature_it_issued_with_ed25519():
    o = KeyChainFsOracle(span=32)
    o.register("p")
    sig_a = o.fs_sign("p", b"a", 3)
    sig_b = o.fs_sign("p", b"b", 3)
    assert o.fs_sign("p", b"a", 3) == sig_a  # a repeat returns the same bytes
    pub = _counting(o, "p", 3)

    for _ in range(3):
        assert o.fs_verify(b"a", "p", sig_a, 3)
        assert o.fs_verify(b"b", "p", sig_b, 3)
    assert pub.calls == 0
    # erasing the key and the signing memo leaves the verdicts
    o.update_fs_keys("p", 5)
    assert 3 not in o._keys["p"] and not o._sigs["p"]
    for _ in range(3):
        assert o.fs_verify(b"a", "p", sig_a, 3)
    assert pub.calls == 0

    # a forgery, and issued bytes over another message, cost one check per try
    forged = FsSig("p", 3, bytes([sig_a.data[0] ^ 1]) + sig_a.data[1:])
    for n in range(1, 4):
        assert not o.fs_verify(b"a", "p", forged, 3)
        assert pub.calls == n
    for n in range(4, 6):
        assert not o.fs_verify(b"b", "p", sig_a, 3)
        assert pub.calls == n


def test_keychain_verifies_a_valid_signature_it_did_not_issue_once():
    o = KeyChainFsOracle(span=32)
    o.register("p")
    o.fs_sign("p", b"a", 3)
    other = KeyChainFsOracle(span=32)
    other.register("p")
    foreign = other.fs_sign("p", b"never signed here", 3)
    pub = _counting(o, "p", 3)

    for _ in range(3):
        assert o.fs_verify(b"never signed here", "p", foreign, 3)
    assert pub.calls == 1


def test_keychain_junk_leaves_no_key_or_verdict_behind():
    o = KeyChainFsOracle(span=32)
    o.register("p")
    for ts in (2, 9):
        assert not o.fs_verify(b"m", "p", FsSig("p", ts, b"\x00" * 64), ts)
    assert _private_keys(o) == []
    assert not o._verified


def test_keychain_junk_timestamps_derive_nothing(monkeypatch):
    o = KeyChainFsOracle()
    o.register("p")
    steps = 0

    def counting_h(*parts):
        nonlocal steps
        steps += parts[0] == b"chain-step"
        return _h(*parts)

    monkeypatch.setattr(fscrypto, "_h", counting_h)
    pubs = dict(o._pubs)
    for ts in range(65000, 65100):
        assert not o.fs_verify(b"m", "p", FsSig("p", ts, b"\x00" * 64), ts)
    assert o._pubs == pubs
    assert steps == 0


# Run in a fresh interpreter with the trace directory as argv[1]: a ledger
# run, its checks live and loaded and `dynbla check`, then a keychain run.
# Prints whether `cryptography` was loaded after each.
_FRESH_RUNS = """
import sys
from click.testing import CliRunner
from dynbla.fscrypto import FsSig, KeyChainFsOracle
from dynbla.harness import FAMILIES, cli, load_trace, run_checks, run_scenario, save_trace, validate

def run_and_check(scn, path):
    rep = run_scenario(validate(scn))
    assert rep.verdict == "quiescent" and all(ok for _, ok, _ in run_checks(rep.bundle()))
    save_trace(path, rep.bundle())
    assert all(ok for _, ok, _ in run_checks(load_trace(path)))
    r = CliRunner().invoke(cli.main, ["check", "--trace", path])
    assert r.exit_code == 0, r.output
    return rep

run_and_check(FAMILIES["dbla-smoke"](0), sys.argv[1] + "/ledger.trace")
# junk for a key the keychain never derived is refused without Ed25519
o = KeyChainFsOracle()
o.register("p")
assert not o.fs_verify(b"m", "p", FsSig("p", 3, bytes(64)), 3)
print("cryptography" in sys.modules)

scn = FAMILIES["reconfig-dbla"](7)
scn["oracle"] = "keychain"
o = run_and_check(scn, sys.argv[1] + "/keychain.trace").ctx.oracle
assert {len(e["sig"]) for e in o.dump_ledger()} == {128}
sig = o.fs_sign("p", b"fresh", o.st("p"))
o._pubs[("p", sig.ts)].verify(sig.data, b"fresh")
flipped = FsSig("p", sig.ts, bytes([sig.data[0] ^ 1]) + sig.data[1:])
assert not o.fs_verify(b"fresh", "p", flipped, sig.ts)
print("cryptography" in sys.modules)
"""


def test_only_the_keychain_oracle_loads_the_ed25519_backend(tmp_path):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    r = subprocess.run([sys.executable, "-c", _FRESH_RUNS, str(tmp_path)],
                       env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True"]
