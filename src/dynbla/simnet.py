"""Deterministic discrete-event network simulator.

One scheduled event per step, chosen by a seeded RNG with weight 1 + age so
that no deliverable message starves. Identical (scenario, seed) pairs yield
byte-identical traces; the RNG is consulted nowhere else.

Events sent in the same step weigh the same, so `PendingQueue` keeps them
in one batch, and the weighted draw costs one descent of O(log b) in the
number b of send-step batches, not of pending events. It picks the same
event as a prefix sum over the queue followed by `bisect_right` on
`randrange(total)`, and draws its number with `getrandbits` exactly as
`randrange` does. A pending event is a plain `(enq, frm, to, msg)` tuple;
`Event` is a named view of one, built only for a Byzantine script (with a
private copy of the message) and for iteration over the queue.

A send names its recipients, one or many (`Api.send_all`), and goes
through one path, `Simulator._send`: a fan-out of one message is one
enqueue of one event per recipient, in order, into one batch. A hold
applies to each recipient on its own, so a fan-out may be held for some
recipients and pending for the rest.

A step does no work for what cannot happen yet. The simulator keeps its
wake step: no unfired external and no hold with buffered messages is due
before it. A scan releases the first due hold, else fires the first due
external, each in registration order; one that fires nothing sets the wake
step to the earliest known due step. Steps before the wake step skip the
scan, but an idle network scans at it, so what is due there fires now by
the same rule. Registering an external or a hold, firing, releasing, a
first message held by a rule and a new fact set it back to 0, so the next
step scans again. A `Trigger` is a named tuple, so a registered one cannot
change under the wake step.

A process is idle (I) until its first delivery or invoke, then correct
(C); `corrupt` hands a correct process to a script as Byzantine (B). That
is the only fault (a crashed process is a silent one), so pending events
are only appended and drawn.

`trace_hash` is SHA-256 over the trace's lines, each followed by a newline.
A line is its dict as `json.dumps(line, sort_keys=True, separators=(",", ":"))`
writes it; `trace_line` writes the simulator's own lines (the keys `desc`,
`frm`, `hash`, `kind`, `st`, `step`, `to` and an optional `detail`) directly
in that form, and any other line through the same encoder. Lines are
joined and hashed a chunk at a time.

References run one way, from the simulator to what it runs: the
simulator holds each process's automaton, the automaton holds its Api,
and an Api or AdvApi holds the simulator only weakly. A world therefore
has no reference cycle through the simulator, and it is freed by
reference counting as soon as its owner drops it. An automaton kept
after the simulator is gone raises ReferenceError when it sends.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import weakref
from typing import NamedTuple

from .lattice import digest

DEFAULT_STEP_CAP = 200_000
MIN_SLOTS = 64

IDLE = "I"
CORRECT = "C"
BYZANTINE = "B"
# a trace line's "st", the statuses of its two ends ("-" for no process), as
# one shared string per pair: _ST[frm's][to's]
_ST = {a: {b: a + b for b in ("-", IDLE, CORRECT, BYZANTINE)} for a in ("-", IDLE, CORRECT, BYZANTINE)}


class Msg:
    """A message; one object may be sent to many recipients, by one sender.
    Sending it to many (`Api.send_all`) is one send: one enqueue, into one
    batch of the pending queue.

    A sent message is immutable: correct senders do not edit what they
    sent, a Byzantine script is handed a copy of each message it is
    delivered, and what it sends is copied and hashed at the send. So what
    depends only on the message and its sender is memoised on it, once per
    object: the trace hash (`mhash`), the wire gate's verdict (`ok`,
    `dbla.wire_ok`) and the uniform broadcast's id, echo payload and
    signature verdict (`urb`, `broadcast.UrbEndpoint`).

    A copy (`copy`) has containers of its own and shares every value object
    in them. Every value a message can carry is read-only
    (`lattice.Value`): the lattice values, input values, signatures,
    certificates and tokens (`lattice.Token`), so sharing one, with its
    memoised encoding, is safe.
    """

    __slots__ = ("desc", "obj", "body", "_hash", "ok", "urb")

    def __init__(self, desc: str, obj: str, body: dict):
        self.desc = desc
        self.obj = obj
        self.body = body
        self._hash = None
        self.ok = None
        self.urb = None

    def mhash(self) -> str:
        if self._hash is None:
            self._hash = digest(["m", self.desc, self.obj, self.body])[:16]
        return self._hash

    def copy(self) -> Msg:
        """A message equal to this one that shares no container with it and
        carries no memo of its own. A script is handed such a copy of each
        message it is delivered, and `AdvApi.send` sends one of what a
        script holds, which the script may have edited."""
        return Msg(self.desc, self.obj, _private(self.body))

    def __repr__(self):
        return f"Msg({self.desc}, obj={self.obj})"


def _private(x):
    """x with every dict, list, tuple and set in it copied; every other
    object, a leaf or a read-only value such as a `Config` or a `Token`, is
    shared."""
    t = type(x)
    if t is dict:
        return {k: _private(v) for k, v in x.items()}
    if t is list:
        return [_private(v) for v in x]
    if t is tuple:
        return tuple([_private(v) for v in x])
    if t is set:
        return set(x)       # its elements are hashable: shared like any leaf
    return x


class Event(NamedTuple):
    """A named view of a pending event; the queue holds plain tuples."""

    enq: int
    frm: str
    to: str
    msg: Msg


class PendingQueue:
    """Pending events in send order, drawn with weight 1 + age.

    An event is a plain `(enq, frm, to, msg)` tuple, and iteration yields
    `Event` views of them. Events with the same enqueue step sit in one
    batch, in send order, and the batches sit in send order too. Every
    weight changes each step, so the two Fenwick trees (Fenwick 1994) over
    the batches hold what does not: the live count and the sum of enqueue
    steps. At step base a prefix of batches weighs count * (1 + base) -
    sum(enq). A draw descends to the batch that holds its weight, in
    O(log b) for b batches, and every event of that batch weighs the same,
    so one division finds the event. The nodes the descent passes without
    stepping over are exactly the nodes whose range holds that batch, the
    ones a removal updates: the draw takes one event off their counts on
    the way down and the batch's enqueue step off the sums it collected,
    with no walk back up the tree.

    A node past the last batch is never read, so `extend`, which adds the
    events of one send step, updates one node when they join the newest
    batch, and fills one node from its children when they open a batch:
    O(1) amortized per call, whatever the number of events. When the
    batches fill the tree, or fewer events are live than an eighth of its
    nodes, the empty batches are dropped and the tree rebuilt, so memory
    stays proportional to the live events.
    """

    __slots__ = ("_batches", "_cap", "_top", "_cnt", "_enq", "_last", "_live", "_enq_total")

    def __init__(self):
        self._rebuild([])

    def _rebuild(self, batches: list) -> None:
        """Rebuild the tree over `batches`, all non-empty."""
        n = len(batches)
        cap = MIN_SLOTS
        while cap < 2 * n:
            cap *= 2
        # nodes 1 .. cap; only nodes 1 .. n are ever read
        cnt = [0] * (cap + 1)
        enq = [0] * (cap + 1)
        live = total = 0
        for i, b in enumerate(batches, 1):
            k, t = len(b), b[0][0]
            cnt[i] = k
            enq[i] = k * t
            live += k
            total += k * t
        for i in range(1, n + 1):
            j = i + (i & -i)
            if j <= n:
                cnt[j] += cnt[i]
                enq[j] += enq[i]
        self._batches = batches
        self._cap = cap
        self._top = 1 << (n.bit_length() - 1) if n else 0
        self._cnt = cnt
        self._enq = enq
        self._last = batches[-1][0][0] if batches else None
        self._live = live
        self._enq_total = total

    def __len__(self) -> int:
        return self._live

    def __iter__(self):
        return (Event._make(ev) for b in self._batches for ev in b)

    def extend(self, evs: list) -> None:
        """Add evs, events of one enqueue step at or after every pending
        one, in order: to the newest batch if it is of their step, else as
        one new batch. The queue may keep the list evs itself."""
        m = len(evs)
        if not m:
            return
        t = evs[0][0]
        s = m * t
        batches = self._batches
        if t == self._last:
            batches[-1].extend(evs)
            i = len(batches)
            self._cnt[i] += m
            self._enq[i] += s
        else:
            if len(batches) == self._cap:
                self._rebuild([b for b in batches if b])
                batches = self._batches
            batches.append(evs)
            self._last = t
            # open node j from its children j - 1, j - 1 - lowbit(j - 1), ...
            cnt, enq = self._cnt, self._enq
            j = len(batches)
            c, e = m, s
            k, stop = j - 1, j - (j & -j)
            while k > stop:
                c += cnt[k]
                e += enq[k]
                k -= k & -k
            cnt[j] = c
            enq[j] = e
            if not j & (j - 1):
                self._top = j
        self._live += m
        self._enq_total += s

    def pop_weighted(self, rng: random.Random, base: int) -> tuple:
        """Remove and return the event of weight 1 + (base - enq) that the
        prefix sum picks: the first whose running weight exceeds
        rng.randrange(total weight)."""
        w = 1 + base
        total = self._live * w - self._enq_total
        # rng.randrange(total), drawn as CPython's _randbelow draws it
        k = total.bit_length()
        r = rng.getrandbits(k)
        while r >= total:
            r = rng.getrandbits(k)
        cnt, enq, batches = self._cnt, self._enq, self._batches
        n = len(batches)
        # binary descent: pos ends as the longest run of batches of weight <= r,
        # and r as the weight drawn into batch pos, where each event weighs w - t;
        # a node not stepped over holds batch pos in its range, and loses one event
        pos = 0
        half = self._top
        path = []
        while half:
            nxt = pos + half
            if nxt <= n:
                d = cnt[nxt] * w - enq[nxt]
                if d <= r:
                    r -= d
                    pos = nxt
                else:
                    cnt[nxt] -= 1
                    path.append(nxt)
            half >>= 1
        batch = batches[pos]
        t = batch[0][0]
        ev = batch.pop(r // (w - t))
        for i in path:
            enq[i] -= t
        self._live -= 1
        self._enq_total -= t
        if self._live * 8 < self._cap > MIN_SLOTS:
            self._rebuild([b for b in batches if b])
        return ev


class Trigger(NamedTuple):
    """A not-before bound: an absolute step or a named fact plus offset."""

    at: int | None = None
    fact: str | None = None
    offset: int = 0

    def due(self, sim) -> int | None:
        if self.fact is not None:
            seen = sim.facts.get(self.fact)
            if seen is None:
                return None
            return seen + self.offset
        return self.at


class HoldRule:
    """Diverts matching sends into a buffer until the release trigger.
    A released rule leaves the simulator's holds, the only rules a send
    consults."""

    __slots__ = ("frm", "to", "desc", "until", "buffer")

    def __init__(self, frm: set | None = None, to: set | None = None, desc: str = "", until: Trigger | None = None):
        self.frm, self.to, self.desc, self.until, self.buffer = frm, to, desc, until, []

    def matches(self, frm, to, msg) -> bool:
        if self.frm is not None and frm not in self.frm:
            return False
        if self.to is not None and to not in self.to:
            return False
        return msg.desc.startswith(self.desc)


class _External(NamedTuple):
    trigger: Trigger
    kind: str
    fire: object
    to: str
    desc: str
    detail: dict | None


class _Proc:
    __slots__ = ("automaton", "api", "status", "script")

    def __init__(self, automaton, api):
        self.automaton, self.api, self.status, self.script = automaton, api, IDLE, None


class Api:
    """Per-process handle: a process can only send as itself.

    It holds its simulator through a weak proxy: the automaton that holds
    the Api does not keep the simulator alive, and every call raises
    ReferenceError once the simulator is gone.
    """

    __slots__ = ("_sim", "pid")

    def __init__(self, sim, pid):
        self._sim = weakref.proxy(sim)
        self.pid = pid

    @property
    def oracle(self):
        return self._sim.oracle

    def send(self, to: str, msg: Msg) -> None:
        self._sim._send(self.pid, (to,), msg)

    def send_all(self, tos, msg: Msg) -> None:
        """Send msg to each of tos, in order, as one send."""
        self._sim._send(self.pid, tos, msg)

    def requeue(self, frm: str, msg: Msg) -> None:
        """Locally redeliver a buffered message, keeping its original sender."""
        self._sim._requeue(frm, self.pid, msg)

    def upcall(self, desc: str, detail: dict | None = None) -> None:
        self._sim.trace_aux("upcall", self.pid, desc, detail)

    def fact(self, name: str) -> None:
        self._sim.note_fact(name)


class AdvApi:
    """Adversary handle: may act as any corrupted process, nothing more.
    Like Api, it holds its simulator through a weak proxy."""

    __slots__ = ("_sim",)

    def __init__(self, sim):
        self._sim = weakref.proxy(sim)

    def send(self, frm: str, to: str, msg: Msg) -> None:
        if self._sim.status(frm) != BYZANTINE:
            raise ValueError(f"adversary cannot send as non-corrupted {frm}")
        if type(msg.desc) is not str or type(msg.obj) is not str:
            raise ValueError(f"adversary message {msg.desc!r} for {msg.obj!r}: desc and obj must be str")
        # send a private copy, hashed now: a later edit by the script reaches no one
        msg = msg.copy()
        try:
            msg.mhash()
        except (TypeError, ValueError) as e:
            raise ValueError(f"adversary message {msg.desc!r} is not encodable: {e}") from None
        self._sim._send(frm, (to,), msg)


def weak_method(method):
    """A callable that calls the bound method through a weak reference to
    its object, so holding the callable does not keep that object alive.
    Calling it once the object is gone raises ReferenceError."""
    ref = weakref.WeakMethod(method)
    name = method.__qualname__

    def call(*args):
        bound = ref()
        if bound is None:
            raise ReferenceError(f"the object of {name} no longer exists")
        return bound(*args)

    return call


class Simulator:
    def __init__(self, seed: int, oracle):
        self.oracle = oracle
        self.rng = random.Random(seed)
        self._procs: dict[str, _Proc] = {}
        self.pending = PendingQueue()
        self.holds: list[HoldRule] = []         # not released yet, in registration order
        self.externals: list[_External] = []    # not fired yet, in registration order
        self.facts: dict[str, int] = {}
        self._wake = 0                          # no hold or external is due before this step
        self.trace: list[dict] = []
        self.next_step = 0
        self.latencies: list[int] = []
        # "dropped_halted" is always 0; it stays because every run's final records these counters
        self.metrics = {"sent": 0, "delivered": 0, "dropped_halted": 0, "held": 0, "requeued": 0}
        self.adv_api = AdvApi(self)

    # -- construction -----------------------------------------------------

    def spawn(self, pid: str, automaton) -> None:
        if pid in self._procs:
            raise ValueError(f"duplicate process id {pid}")
        api = Api(self, pid)
        self._procs[pid] = _Proc(automaton, api)
        self.oracle.register(pid)
        automaton.bind(api)

    def api(self, pid: str) -> Api:
        return self._procs[pid].api

    def add_external(self, trigger: Trigger, kind: str, fire, to: str = "-", desc: str = "", detail: dict | None = None) -> None:
        self.externals.append(_External(trigger, kind, fire, to, desc, detail))
        self._wake = 0

    def add_hold(self, rule: HoldRule) -> None:
        self.holds.append(rule)
        self._wake = 0

    # -- status -----------------------------------------------------------

    def status(self, pid: str) -> str:
        return self._procs[pid].status

    def statuses(self) -> dict[str, str]:
        return {p: r.status for p, r in sorted(self._procs.items())}

    def corrupt(self, pid: str, script) -> None:
        """Hand a correct process to script, called as script(adv_api, event) on each delivery to it,
        with a private copy of the delivered message."""
        proc = self._procs[pid]
        if proc.status != CORRECT:
            raise ValueError(f"cannot corrupt {pid} while {proc.status}")
        proc.status = BYZANTINE
        proc.script = script

    def note_fact(self, name: str) -> None:
        if name not in self.facts:
            self.facts[name] = self.next_step
            self._wake = 0

    def now(self) -> int:
        return self.next_step

    # -- messaging --------------------------------------------------------

    def _send(self, frm: str, tos, msg: Msg) -> None:
        """Send msg from frm to each of tos, in order: the first hold that
        matches a recipient buffers its event, and the events no hold takes
        are enqueued together. An unknown recipient raises ValueError, and
        then nothing is sent."""
        procs, now = self._procs, self.next_step
        # a plain loop: on Python 3.11 a comprehension is a call of its own,
        # which a send to one recipient would pay in full
        evs = []
        for to in tos:
            if to not in procs:
                raise ValueError(f"unknown destination {to}")
            evs.append((now, frm, to, msg))
        self.metrics["sent"] += len(evs)
        if self.holds:
            evs = [ev for ev in evs if not self._held(frm, ev[2], msg)]
        self.pending.extend(evs)

    def _held(self, frm: str, to: str, msg: Msg) -> bool:
        """Buffer the event in the first hold that matches it, if one does."""
        for rule in self.holds:
            if rule.matches(frm, to, msg):
                if not rule.buffer:
                    self._wake = 0      # its release may be due already
                rule.buffer.append((frm, to, msg))
                self.metrics["held"] += 1
                return True
        return False

    def _requeue(self, frm: str, to: str, msg: Msg) -> None:
        # holds were already applied on first receipt
        self.metrics["requeued"] += 1
        self.pending.extend([(self.next_step, frm, to, msg)])

    # -- tracing ----------------------------------------------------------

    def _trace(self, kind, frm, to, desc, st, detail=None):
        line = {
            "step": self.next_step,
            "kind": kind,
            "frm": frm,
            "to": to,
            "desc": desc,
            "hash": None,
            "st": st,
        }
        if detail is not None:
            line["detail"] = detail
        self.trace.append(line)

    def trace_aux(self, kind, pid, desc, detail=None):
        st = self._st(pid)
        self._trace(kind, pid, pid, desc, _ST[st][st], detail)

    def _st(self, pid):
        proc = self._procs.get(pid)
        return proc.status if proc else "-"

    # -- the loop ---------------------------------------------------------

    def _release(self, rule: HoldRule) -> str:
        events = rule.buffer
        rule.buffer = []
        self.holds.remove(rule)
        self._wake = 0
        now = self.next_step
        self.pending.extend([(now, frm, to, msg) for frm, to, msg in events])
        self._trace("adversary", "-", "-", "hold.release", _ST[self._st("-")][self._st("-")],
                    {"released": len(events), "desc": rule.desc})
        self.next_step += 1
        return "adversary"

    def _fire(self, i: int) -> str:
        ext = self.externals.pop(i)
        self._wake = 0
        self._trace(ext.kind, "-", ext.to, ext.desc, _ST[self._st("-")][self._st(ext.to)], ext.detail)
        if ext.kind == "invoke" and ext.to in self._procs:
            proc = self._procs[ext.to]
            if proc.status == IDLE:
                proc.status = CORRECT
        ext.fire()
        self.next_step += 1
        return ext.kind

    def _deliver(self) -> str:
        base = self.next_step
        ev = self.pending.pop_weighted(self.rng, base)
        enq, frm, to, msg = ev
        self.latencies.append(base - enq)
        self.metrics["delivered"] += 1
        # the deliver line, built in place with one lookup for each end
        procs = self._procs
        proc = procs[to]
        src = procs.get(frm)
        self.trace.append({
            "step": base,
            "kind": "deliver",
            "frm": frm,
            "to": to,
            "desc": msg.desc,
            "hash": msg.mhash(),
            "st": _ST[src.status if src else "-"][proc.status],
        })
        if proc.status == BYZANTINE:
            proc.script(self.adv_api, Event(enq, frm, to, msg.copy()))
        else:
            if proc.status == IDLE:
                proc.status = CORRECT
            proc.automaton.on_deliver(frm, msg)
        self.next_step += 1
        return "deliver"

    def _scan(self, now: int) -> str | None:
        """Release or fire what is due at now, by the one trigger rule; if
        nothing is, set the wake step."""
        wake = math.inf
        for rule in self.holds:
            if rule.buffer and rule.until is not None:
                due = rule.until.due(self)
                if due is not None:
                    if now >= due:
                        return self._release(rule)
                    if due < wake:
                        wake = due
        for i, ext in enumerate(self.externals):
            due = ext.trigger.due(self)
            if due is not None:
                if now >= due:
                    return self._fire(i)
                if due < wake:
                    wake = due
        self._wake = wake
        return None

    def step(self) -> str | None:
        """Take one step: scan from the wake step on, else deliver a drawn
        event, else, on an idle network, scan at the wake step. A Byzantine
        recipient's script gets an `Event` of the delivered event whose
        message is a private copy.
        """
        if self.next_step >= self._wake:
            kind = self._scan(self.next_step)
            if kind is not None:
                return kind
        if self.pending._live:
            return self._deliver()
        if self._wake < math.inf:
            return self._scan(self._wake)
        return None

    def run(self, max_steps: int = DEFAULT_STEP_CAP) -> dict:
        while self.next_step < max_steps:
            if self.step() is None:
                # nothing is pending, and nothing left has a known due step
                stalled = self.externals or any(r.buffer for r in self.holds)
                return {"verdict": "stalled" if stalled else "quiescent", "steps": self.next_step}
        return {"verdict": "cap", "steps": self.next_step}


_escape = json.encoder.encode_basestring_ascii
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_HASH_CHUNK = 1024      # lines encoded and hashed at a time, to bound the text held


def trace_line(line: dict) -> str:
    """One trace line as sorted, compact, ASCII-escaped JSON."""
    try:
        desc, frm, h, kind = line["desc"], line["frm"], line["hash"], line["kind"]
        st, step, to = line["st"], line["step"], line["to"]
    except (KeyError, TypeError):
        return _JSON.encode(line)
    n = len(line)
    if (
        (n == 7 or n == 8 and "detail" in line)
        and type(desc) is str and type(frm) is str and type(kind) is str
        and type(st) is str and type(to) is str and type(step) is int
        and (h is None or type(h) is str)
    ):
        detail = ',"detail":' + _JSON.encode(line["detail"]) if n == 8 else ""
        return (
            f'{{"desc":{_escape(desc)}{detail},"frm":{_escape(frm)},'
            f'"hash":{"null" if h is None else _escape(h)},"kind":{_escape(kind)},'
            f'"st":{_escape(st)},"step":{step},"to":{_escape(to)}}}'
        )
    return _JSON.encode(line)


def trace_hash(trace: list[dict]) -> str:
    out = hashlib.sha256()
    for i in range(0, len(trace), _HASH_CHUNK):
        out.update("".join([trace_line(line) + "\n" for line in trace[i:i + _HASH_CHUNK]]).encode())
    return out.hexdigest()
