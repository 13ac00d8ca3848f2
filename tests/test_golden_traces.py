"""Golden trace pins: every pinned run must reproduce its recorded trace.

Each pin records five facts of one deterministic run:

- ``hash``: the trace hash, which covers message hashes and the JSON of
  returned certificates, so it depends on how certificates are encoded;
- ``shape``: a SHA-256 over what the run did regardless of encoding: the
  trace lines with every ``hash``, ``cert`` and ``acks`` key removed at any
  depth, the ledger's (signer, ts, step) sequence and the ``final`` section;
- ``semantics``: a SHA-256 over what the run computed, whatever messages
  carried it: the verdict, each operation's return detail keyed by its
  index (``None`` if it never returned) with the same keys removed, and the
  installed configuration ids of every replica whose final status is
  correct;
- ``verdict`` and ``steps``.

``verdict`` and ``semantics`` are never re-recorded: a differing value
means the code is wrong.  ``hash`` is re-recorded by a deliberate encoding
change, and ``hash`` and ``shape`` by a change that only renames message
kinds or fields.  ``hash``, ``shape`` and ``steps`` may be re-recorded
together only by a change that stops sending messages their recipients
discard, such as a process's copy of its own broadcast, or by a change
that turns a process's message to itself into a local step, which the
simulator then no longer schedules or traces.  Any re-recording goes in a
commit of its own that leaves ``verdict`` and ``semantics`` untouched, and
``steps`` too unless it is of one of those last two kinds.

Print the pins of the current code with
``PYTHONPATH=src python tests/test_golden_traces.py``.  With ``--rerecord``
it rewrites ``hash``, ``shape`` and ``steps`` in the pin file instead and
prints how many pins, and which, each of the three changed; it writes
nothing and exits non-zero if any ``verdict`` or ``semantics`` would change.
"""

import functools
import gc
import hashlib
import json
import pathlib
import sys
from types import SimpleNamespace

import pytest
from test_lattice import walk_mhash

from dynbla.dbla import WIRE, OutputCert, fits, wire_ok
from dynbla.harness import ATTACKS, FAMILIES, run_scenario, validate
from dynbla.harness.checks import run_checks
from dynbla.simnet import BYZANTINE, Msg, PendingQueue, Simulator

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = pathlib.Path(__file__).with_name("golden_traces.json")
SEEDS = range(10)
ENCODED_KEYS = ("hash", "cert", "acks")
RERECORDED = ("hash", "shape", "steps")


def _keychain(scn):
    return validate({**scn, "oracle": "keychain"})


def golden_runs() -> dict:
    """Name -> zero-argument builder of the scenario to run."""
    runs = {}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        runs[f"file/{path.name}"] = lambda path=path: json.loads(path.read_text())
    for fam in ("dbla-smoke", "reconfig-dbla", "reconfig-maxreg", "ac-quorum-race"):
        for s in SEEDS:
            runs[f"{fam}/{s}"] = lambda fam=fam, s=s: FAMILIES[fam](s)
    for k in (1, 2, 3):
        for s in SEEDS:
            runs[f"chain-k{k}/{s}"] = lambda k=k, s=s: FAMILIES["chain"](s, k)
    for fam in ("reconfig-dbla", "reconfig-maxreg"):
        for s in SEEDS:
            runs[f"{fam}/keychain/{s}"] = lambda fam=fam, s=s: _keychain(FAMILIES[fam](s))
    for name in sorted(ATTACKS):
        for s in SEEDS:
            runs[f"{name}/{s}"] = lambda name=name, s=s: ATTACKS[name][0](s)
    for mask in range(16):
        runs[f"ac-pattern/{mask:04b}"] = lambda mask=mask: FAMILIES["ac-pattern"](mask)
    return runs


def _without_encoded(x):
    if isinstance(x, dict):
        return {k: _without_encoded(v) for k, v in x.items() if k not in ENCODED_KEYS}
    if isinstance(x, (list, tuple)):
        return [_without_encoded(v) for v in x]
    return x


def _digest(body) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def shape_of(rep) -> str:
    bundle = rep.bundle()
    body = {
        "trace": _without_encoded(bundle["trace"]),
        "ledger": [[e["signer"], e["ts"], e["step"]] for e in bundle["ledger"]],
        "final": bundle["final"],
    }
    return _digest(body)


def semantics_of(rep) -> str:
    replicas = rep.final["replicas"]
    return _digest({
        "verdict": rep.verdict,
        "returns": {str(op.idx): _without_encoded(op.result) for op in rep.ops},
        "installed": {p: r["installed"] for p, r in replicas.items() if rep.final["statuses"][p] == "C"},
    })


def pin_of(rep) -> dict:
    return {"hash": rep.hash, "shape": shape_of(rep), "semantics": semantics_of(rep),
            "verdict": rep.verdict, "steps": rep.steps}


RUNS = golden_runs()


def auditing(send, pop_weighted, audit):
    """Simulator._send and PendingQueue.pop_weighted, audited: a send
    memoises its message's trace hash and gate verdict, and a draw appends
    (desc, memoised, fresh) to audit for each of them, where fresh is what
    an encoding and a gate of the body make of it now, and for the hash once
    more, where fresh is the hash through the reference walkers."""
    def audited_send(sim, frm, tos, msg):
        msg.mhash()
        wire_ok(msg)
        send(sim, frm, tos, msg)

    def audited_pop(queue, rng, base):
        ev = pop_weighted(queue, rng, base)
        msg = ev[3]
        table = WIRE.get(msg.desc)
        audit.append((msg.desc, msg._hash, Msg(msg.desc, msg.obj, msg.body).mhash()))
        audit.append((msg.desc, msg._hash, walk_mhash(msg.desc, msg.obj, msg.body)))
        audit.append((msg.desc, msg.ok, table is not None and fits(msg.body, table)))
        return ev

    return audited_send, audited_pop


@functools.cache
def observed(name) -> SimpleNamespace:
    """What the tests below read of the pinned run name, which is run once
    per session with the cyclic collector disabled: its pin, the deliveries
    from a correct process to itself, each returned certificate's frame and
    JSON text, the audit of the message memos at each delivery, and the
    number of objects the cyclic collector finds once the report, checked
    and (for an attack) verified, is dropped."""
    to_jsonable = OutputCert.to_jsonable
    send, pop_weighted = Simulator._send, PendingQueue.pop_weighted
    returned = []
    audit = []

    def recording(cert):
        out = to_jsonable(cert)
        returned.append((cert.canon(), json.dumps(out)))
        return out

    gc.collect()
    gc.disable()
    try:
        OutputCert.to_jsonable = recording
        Simulator._send, PendingQueue.pop_weighted = auditing(send, pop_weighted, audit)
        try:
            rep = run_scenario(RUNS[name]())
        finally:
            OutputCert.to_jsonable = to_jsonable
            Simulator._send, PendingQueue.pop_weighted = send, pop_weighted
        pin = pin_of(rep)
        to_self = [l for l in rep.trace if l["kind"] == "deliver" and l["frm"] == l["to"] and BYZANTINE not in l["st"]]
        run_checks(rep.bundle())
        attack = ATTACKS.get(name.split("/")[0])
        if attack is not None:
            attack[1](rep)
        del rep
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return SimpleNamespace(pin=pin, to_self=to_self, returned=returned, audit=audit, garbage=garbage)


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_pins_cover_every_run(pins):
    assert sorted(pins) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_trace(name, pins):
    assert observed(name).pin == pins[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_correct_process_is_delivered_a_message_from_itself(name):
    # a replica takes what it sends itself as a local step, and no other
    # correct process sends itself anything
    assert not observed(name).to_self


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_process_edits_a_message_after_sending_it(name):
    # a message's trace hash and gate verdict are memoised when it is sent
    # (here, by the audit), and at each of its deliveries a fresh encoding
    # and gate of its body must agree with them: no sender edits what it
    # has sent, so a memo reached once holds for every recipient
    audit = observed(name).audit
    assert audit and [entry for entry in audit if entry[1] != entry[2]] == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_dropped_run_leaves_no_cyclic_garbage(name):
    # the report is the root of its world: dropping it after the checks and
    # the attack verifier frees everything by reference counting alone
    assert observed(name).garbage == 0


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_returned_certificate_decodes_to_its_frame(name):
    # and the decoded certificate encodes to the same JSON, so the written
    # form is a function of the certificate alone
    for frame, text in observed(name).returned:
        back = OutputCert.from_jsonable(json.loads(text))
        assert back.canon() == frame
        assert json.dumps(back.to_jsonable()) == text


def _dumps(pins) -> str:
    return json.dumps(pins, indent=1, sort_keys=True)


def rerecord() -> int:
    """Rewrite RERECORDED in every pin and print, for each of those fields,
    how many pins and which ones it changed; refuse if any other field would
    change or a run has no pin."""
    pins = json.loads(PINS.read_text())
    moved = []
    changed = {k: [] for k in RERECORDED}
    for name, build in RUNS.items():
        new = pin_of(run_scenario(build()))
        old = pins.get(name, {})
        if any(old.get(k) != v for k, v in new.items() if k not in RERECORDED):
            moved.append(name)
            continue
        for k in RERECORDED:
            if old.get(k) != new[k]:
                changed[k].append(name)
                old[k] = new[k]
    if moved:
        print(f"nothing written: verdict or semantics would change in {moved}", file=sys.stderr)
        return 1
    PINS.write_text(_dumps(pins) + "\n")
    for k, names in changed.items():
        print(f"{k}: {len(names)} of {len(RUNS)} pins changed" + "".join(f"\n  {n}" for n in sorted(names)))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--rerecord"]:
        sys.exit(rerecord())
    print(_dumps({name: pin_of(run_scenario(build())) for name, build in RUNS.items()}))
