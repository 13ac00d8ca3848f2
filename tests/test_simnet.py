"""Scheduler determinism, status transitions, fairness, quiescence."""

import bisect
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dynbla.fscrypto import LedgerFsOracle
from dynbla.lattice import genesis_config
from dynbla.simnet import (
    DEFAULT_STEP_CAP,
    MIN_SLOTS,
    Event,
    HoldRule,
    Msg,
    PendingQueue,
    Simulator,
    Trigger,
    trace_hash,
    trace_line,
)


class Echo:
    """Replies to every ping with a pong to the sender."""

    def bind(self, api):
        self.api = api

    def on_deliver(self, frm, msg):
        if msg.desc == "t.ping":
            self.api.send(frm, Msg("t.pong", "t", {"n": msg.body["n"]}))


class Collector:
    def bind(self, api):
        self.api = api
        self.got = []

    def on_deliver(self, frm, msg):
        self.got.append((frm, msg.desc, msg.body.get("n")))


class Flood:
    """Keeps count messages in flight to itself."""

    def __init__(self, rounds):
        self.rounds = rounds

    def bind(self, api):
        self.api = api

    def kick(self):
        self.api.send(self.api.pid, Msg("t.self", "t", {"i": 0}))

    def on_deliver(self, frm, msg):
        i = msg.body["i"]
        if i < self.rounds:
            self.api.send(self.api.pid, Msg("t.self", "t", {"i": i + 1}))


def build(seed, n_pings=6):
    sim = Simulator(seed, LedgerFsOracle())
    a, b = Collector(), Echo()
    sim.spawn("a", a)
    sim.spawn("b", b)
    for i in range(n_pings):
        sim.add_external(
            Trigger(at=0),
            "invoke",
            lambda i=i: sim.api("a").send("b", Msg("t.ping", "t", {"n": i})),
            to="a",
            desc=f"ping{i}",
        )
    return sim, a


def test_same_seed_same_trace():
    s1, _ = build(7)
    s2, _ = build(7)
    assert s1.run(1000)["verdict"] == "quiescent"
    assert s2.run(1000)["verdict"] == "quiescent"
    assert s1.trace == s2.trace
    assert trace_hash(s1.trace) == trace_hash(s2.trace)


def test_different_seeds_reorder_but_same_multiset():
    s1, a1 = build(1)
    s2, a2 = build(2)
    s1.run(1000)
    s2.run(1000)
    assert a1.got != a2.got
    assert sorted(a1.got) == sorted(a2.got)


def test_steps_are_dense_from_zero():
    sim, _ = build(3)
    sim.run(1000)
    primary = [ln for ln in sim.trace if ln["kind"] in ("deliver", "invoke", "adversary")]
    assert [ln["step"] for ln in primary] == list(range(len(primary)))


def test_status_transitions():
    sim = Simulator(0, LedgerFsOracle())
    sim.spawn("p", Collector())
    sim.spawn("q", Collector())
    with pytest.raises(ValueError):
        sim.corrupt("p", lambda api, ev: None)  # idle cannot turn byzantine
    sim.api("p").send("q", Msg("t.x", "t", {}))
    sim.run(10)
    assert sim.status("q") == "C"
    sim.corrupt("q", lambda api, ev: None)
    assert sim.status("q") == "B"
    with pytest.raises(ValueError):
        sim.corrupt("q", lambda api, ev: None)  # only a correct process turns byzantine


def test_byzantine_script_gets_deliveries_and_cannot_spoof():
    sim = Simulator(0, LedgerFsOracle())
    seen = []

    def script(api, ev):
        seen.append(ev.msg.desc)
        api.send("b", "v", Msg("t.fake", "t", {}))
        with pytest.raises(ValueError):
            api.send("v", "v", Msg("t.spoof", "t", {}))

    v = Collector()
    sim.spawn("a", Collector())
    sim.spawn("b", Collector())
    sim.spawn("v", v)
    sim.api("a").send("b", Msg("t.poke", "t", {}))
    sim.run(5)
    sim.corrupt("b", script)
    sim.api("a").send("b", Msg("t.poke2", "t", {}))
    sim.run(20)
    assert seen == ["t.poke2"]
    assert [(f, d) for (f, d, _) in v.got] == [("b", "t.fake")]


def test_adversary_resend_is_traced_under_its_new_hash():
    # a script that edits a message it received and passes it on is traced
    # with the hash of what it sent, not of what it received
    sim = Simulator(0, LedgerFsOracle())

    def script(api, ev):
        ev.msg.body["n"] = 666
        api.send("b", "v", ev.msg)

    for pid in ("a", "b", "v"):
        sim.spawn(pid, Collector())
    sim.api("a").send("b", Msg("t.poke", "t", {}))
    sim.run(5)
    sim.corrupt("b", script)
    sim.api("a").send("b", Msg("t.x", "t", {"n": 1}))
    sim.run(20)
    (line,) = [l for l in sim.trace if l["kind"] == "deliver" and l["to"] == "v"]
    assert line["hash"] == Msg("t.x", "t", {"n": 666}).mhash()


def test_trigger_is_a_not_before_bound_under_traffic():
    sim = Simulator(5, LedgerFsOracle())
    f = Flood(rounds=50)
    sim.spawn("f", f)
    sim.spawn("a", Collector())
    fired = []
    sim.add_external(Trigger(at=20), "invoke", lambda: fired.append(sim.now()), to="a", desc="op")
    f.kick()
    sim.run(1000)
    assert fired == [20]


def test_trigger_fast_fires_when_idle():
    sim = Simulator(5, LedgerFsOracle())
    sim.spawn("a", Collector())
    fired = []
    sim.add_external(Trigger(at=500), "invoke", lambda: fired.append(sim.now()), to="a", desc="op")
    out = sim.run(1000)
    assert fired == [0]
    assert out["verdict"] == "quiescent"


def test_fact_trigger_with_offset():
    sim = Simulator(5, LedgerFsOracle())
    f = Flood(rounds=80)
    sim.spawn("f", f)
    fired = []
    sim.add_external(Trigger(fact="go", offset=7), "invoke", lambda: fired.append(sim.now()), to="f", desc="op")
    f.kick()
    sim.add_external(Trigger(at=10), "invoke", lambda: sim.note_fact("go"), to="f", desc="noter")
    sim.run(1000)
    assert fired == [17]


def test_externals_ready_in_one_step_fire_in_registration_order():
    # under traffic: b and c are both due at step 5, a later; b and c fire at
    # steps 5 and 6 in the order they were registered
    sim = Simulator(1, LedgerFsOracle())
    f = Flood(rounds=50)
    sim.spawn("f", f)
    for name, at in (("a", 20), ("b", 5), ("c", 5)):
        sim.add_external(Trigger(at=at), "invoke", lambda: None, to="f", desc=name)
    f.kick()
    sim.run(2000)
    fired = [(l["step"], l["desc"]) for l in sim.trace if l["kind"] == "invoke"]
    assert fired == [(5, "b"), (6, "c"), (20, "a")]


def test_externals_fast_fired_when_idle_go_in_due_order():
    # on an idle network every external with a known bound fires at once,
    # earliest due first; an unknown fact stalls
    sim = Simulator(1, LedgerFsOracle())
    sim.spawn("a", Collector())
    for name, trig in (("never", Trigger(fact="x")), ("late", Trigger(at=100)),
                       ("early", Trigger(at=10)), ("after", Trigger(fact="seen", offset=40))):
        sim.add_external(trig, "invoke", lambda: None, to="a", desc=name)
    sim.note_fact("seen")
    assert sim.run(500) == {"verdict": "stalled", "steps": 3}
    assert [l["desc"] for l in sim.trace] == ["early", "after", "late"]


@pytest.mark.parametrize("hold_at, ext_at, first", [(10, 30, "hold.release"), (30, 10, "ext")])
def test_an_idle_network_fires_the_earliest_due_of_a_hold_and_an_external(hold_at, ext_at, first):
    # the idle network scans at the earlier due step, so whichever of the
    # buffered hold and the external is due first happens first
    sim = Simulator(1, LedgerFsOracle())
    sim.spawn("a", Collector())
    sim.spawn("c", Collector())
    sim.add_hold(HoldRule(to={"c"}, desc="t.h", until=Trigger(at=hold_at)))
    sim.api("a").send("c", Msg("t.h", "t", {}))
    sim.add_external(Trigger(at=ext_at), "invoke", lambda: None, to="a", desc="ext")
    assert not sim.pending
    assert sim.step() in ("adversary", "invoke")
    assert sim.trace[0]["desc"] == first and sim.trace[0]["step"] == 0
    assert sim.run(100)["verdict"] == "quiescent"
    assert sorted(l["desc"] for l in sim.trace) == ["ext", "hold.release", "t.h"]


def test_unreachable_fact_trigger_stalls():
    sim = Simulator(5, LedgerFsOracle())
    sim.spawn("a", Collector())
    sim.add_external(Trigger(fact="never"), "invoke", lambda: None, to="a", desc="op")
    out = sim.run(1000)
    assert out["verdict"] == "stalled"


def test_cap_verdict():
    sim = Simulator(5, LedgerFsOracle())
    f = Flood(rounds=10**9)
    sim.spawn("f", f)
    f.kick()
    out = sim.run(200)
    assert out["verdict"] == "cap"
    assert DEFAULT_STEP_CAP == 200_000


def test_age_boost_bounds_latency():
    # one early message competes with a sustained self-flood; the age boost
    # must deliver it within a small multiple of the queue size
    sim = Simulator(11, LedgerFsOracle())
    f = Flood(rounds=400)
    c = Collector()
    sim.spawn("f", f)
    sim.spawn("c", c)
    f.kick()
    sim.api("f").send("c", Msg("t.early", "t", {}))
    sim.run(2000)
    assert c.got
    assert max(sim.latencies) <= 10 * 2


def test_holds_divert_until_released():
    sim = Simulator(3, LedgerFsOracle())
    c = Collector()
    sim.spawn("a", Collector())
    sim.spawn("c", c)
    sim.add_hold(HoldRule(frm={"a"}, to={"c"}, desc="t.h", until=Trigger(fact="open")))
    sim.api("a").send("c", Msg("t.h", "t", {"n": 1}))
    sim.api("a").send("c", Msg("t.free", "t", {}))
    sim.run(50)
    assert [d for (_, d, _) in c.got] == ["t.free"]
    sim.note_fact("open")
    sim.run(50)
    assert [d for (_, d, _) in c.got] == ["t.free", "t.h"]


# -- the weighted draw against the O(n) prefix-sum reference -------------------

PIDS = ("a", "b", "c", "d")
OPS = ("send", "send", "send", "held", "requeue", "step", "step", "step", "open")


class Recorder:
    def bind(self, api):
        self.api = api
        self.got = []

    def on_deliver(self, frm, msg):
        self.got.append(msg)


def reference_pick(model, base, rng):
    """The draw the queue replaces: prefix sums of 1 + age, then bisect_right."""
    acc, total = [], 0
    for enq, _, _, _ in model:
        total += 1 + (base - enq)
        acc.append(total)
    return bisect.bisect_right(acc, rng.randrange(total))


def replay(seed, ops):
    """Apply ops to a Simulator and to a plain list of (enq, frm, to, msg) in
    send order; every delivery must be the event the reference draw picks."""
    sim = Simulator(seed, LedgerFsOracle())
    procs = {p: Recorder() for p in PIDS}
    for p, proc in procs.items():
        sim.spawn(p, proc)
    hold = HoldRule(to={"c"}, desc="t.held", until=Trigger(fact="open"))
    sim.add_hold(hold)
    rng = random.Random(seed)
    model, buffered = [], []
    for n, (op, frm, to) in enumerate(ops):
        now = sim.now()
        if op in ("send", "held"):
            msg = Msg("t.held" if op == "held" else "t.x", "t", {"n": n})
            held = hold in sim.holds and hold.matches(frm, to, msg)
            sim.api(frm).send(to, msg)
            if held:
                buffered.append((frm, to, msg))
            else:
                model.append((now, frm, to, msg))
        elif op == "requeue":
            msg = Msg("t.again", "t", {"n": n})
            sim.api(to).requeue(frm, msg)
            model.append((now, frm, to, msg))
        elif op == "open":
            sim.note_fact("open")
        elif op == "step":
            if buffered and "open" in sim.facts:
                model.extend((now, f, t, m) for f, t, m in buffered)
                buffered = []
                assert sim.step() == "adversary"
            elif model:
                _, _, dest, msg = model.pop(reference_pick(model, now, rng))
                assert sim.step() == "deliver"
                assert procs[dest].got[-1] is msg
            else:
                assert sim.step() is None
        assert len(sim.pending) == len(model)
        assert bool(sim.pending) == bool(model)
        assert [(e.enq, e.frm, e.to, e.msg) for e in sim.pending] == model
    assert sim.rng.getstate() == rng.getstate()
    return sim


# at least 200 examples; more under a profile that asks for more (ci)
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.lists(st.tuples(st.sampled_from(OPS), st.sampled_from(PIDS), st.sampled_from(PIDS)), max_size=300),
)
def test_draw_matches_prefix_sum_reference(seed, ops):
    replay(seed, ops)


@pytest.mark.parametrize("seed", range(3))
def test_draw_matches_reference_through_growth_and_drain(seed):
    # the queue grows to several hundred events through compactions, then
    # drains
    gen = random.Random(seed)

    def mix(n):
        return [(gen.choice(("send", "send", "requeue", "step", "step")), gen.choice(PIDS), gen.choice(PIDS))
                for _ in range(n)]

    ops = mix(3000) + [("step", "a", "a")] * 1000
    sim = replay(seed, ops)
    assert not sim.pending


class Fanout:
    """Relays each message to `width` processes until its hops run out, and
    logs every send it makes as (frm, to, msg)."""

    def __init__(self, log, gen, width=3):
        self.log, self.gen, self.width = log, gen, width

    def bind(self, api):
        self.api = api
        self.got = []

    def on_deliver(self, frm, msg):
        self.got.append(msg)
        hops = msg.body["hops"]
        if hops:
            for to in self.gen.sample(PIDS, self.width):
                send(self.api, self.log, to, hops - 1, self.gen)


def send(api, log, to, hops, gen):
    msg = Msg(gen.choice(("t.x", "t.held")), "t", {"hops": hops, "n": len(log)})
    log.append((api.pid, to, msg))
    api.send(to, msg)


@pytest.mark.parametrize("seed", range(3))
def test_draw_matches_reference_when_deliveries_fan_out(seed):
    # every delivery sends to several processes in its step, so send-step
    # batches hold several events; a hold on c is released while the queue
    # is full
    sim = Simulator(seed, LedgerFsOracle())
    gen, log = random.Random(seed), []
    procs = {p: Fanout(log, gen) for p in PIDS}
    for p, proc in procs.items():
        sim.spawn(p, proc)
    hold = HoldRule(to={"c"}, desc="t.held", until=Trigger(fact="open"))
    sim.add_hold(hold)
    rng = random.Random(seed)
    model, buffered, widest = [], [], 0

    def take(enq):
        # the sends of the last step, as the simulator files them
        nonlocal widest
        widest = max(widest, len(log))
        for frm, to, msg in log:
            if hold in sim.holds and hold.matches(frm, to, msg):
                buffered.append((frm, to, msg))
            else:
                model.append((enq, frm, to, msg))
        log.clear()

    for p in PIDS:
        send(sim.api(p), log, gen.choice(PIDS), 5, gen)
    take(0)
    while True:
        now = sim.now()
        if now == 120:
            sim.note_fact("open")
        if buffered and "open" in sim.facts:
            model.extend((now, f, t, m) for f, t, m in buffered)
            buffered = []
            assert sim.step() == "adversary"
        elif model:
            _, _, dest, msg = model.pop(reference_pick(model, now, rng))
            assert sim.step() == "deliver"
            assert procs[dest].got[-1] is msg
        else:
            assert sim.step() is None
            break
        take(now)
        assert [(e.enq, e.frm, e.to, e.msg) for e in sim.pending] == model
    assert hold not in sim.holds and widest > 1 and sim.now() > 200
    assert sim.rng.getstate() == rng.getstate()


FAN_PIDS = tuple(f"p{i:02d}" for i in range(13))
_fan_op = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(FAN_PIDS), st.tuples(st.sampled_from(FAN_PIDS))),
    st.tuples(st.just("fan"), st.sampled_from(FAN_PIDS), st.lists(st.sampled_from(FAN_PIDS), max_size=12).map(tuple)),
    st.just(("step",)),
)


# at least 200 examples; more under a profile that asks for more (ci)
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.lists(_fan_op, max_size=300))
def test_draw_matches_reference_when_a_fan_out_is_one_batch(seed, ops):
    # single sends, fan-outs of 0-12 recipients (a recipient may recur) and
    # draws: every delivery is the event the reference draw picks, a
    # fan-out's events end the newest batch, and each batch holds the
    # events of one send step
    sim = Simulator(seed, LedgerFsOracle())
    procs = {p: Recorder() for p in FAN_PIDS}
    for p, proc in procs.items():
        sim.spawn(p, proc)
    rng = random.Random(seed)
    model = []
    for n, (kind, *args) in enumerate(ops):
        now = sim.now()
        if kind == "step":
            if model:
                _, _, dest, msg = model.pop(reference_pick(model, now, rng))
                assert sim.step() == "deliver"
                assert procs[dest].got[-1] is msg
            else:
                assert sim.step() is None
        else:
            frm, tos = args
            msg = Msg("t.x", "t", {"n": n})
            if kind == "send":
                sim.api(frm).send(tos[0], msg)
            else:
                sim.api(frm).send_all(tos, msg)
            sent = [(now, frm, to, msg) for to in tos]
            model.extend(sent)
            if sent:
                assert sim.pending._batches[-1][-len(sent):] == sent
        batches = [b for b in sim.pending._batches if b]
        assert all(len({ev[0] for ev in b}) == 1 for b in batches)
        assert [b[0][0] for b in batches] == sorted({b[0][0] for b in batches})
        assert [(e.enq, e.frm, e.to, e.msg) for e in sim.pending] == model
    assert sim.metrics["sent"] == sum(len(args[1]) for kind, *args in ops if kind != "step")
    assert sim.rng.getstate() == rng.getstate()


def test_a_fan_out_under_a_hold_for_some_recipients_is_the_same_sends_one_at_a_time():
    # a hold on c and e (t.h only) and one from b: one fan-out each, or the
    # same sends one recipient at a time, hold, enqueue and trace alike
    def world(fan_out):
        sim = Simulator(7, LedgerFsOracle())
        for p in "abcde":
            sim.spawn(p, Collector())
        holds = [HoldRule(to={"c", "e"}, desc="t.h", until=Trigger(at=6)),
                 HoldRule(frm={"b"}, until=Trigger(fact="open"))]
        for rule in holds:
            sim.add_hold(rule)
        sends = [("a", "abcde", Msg("t.h", "t", {"n": 1})), ("a", "edcba", Msg("t.free", "t", {"n": 2})),
                 ("b", "acd", Msg("t.h", "t", {"n": 3})), ("d", "", Msg("t.h", "t", {"n": 4}))]
        for frm, tos, msg in sends:
            if fan_out:
                sim.api(frm).send_all(tuple(tos), msg)
            else:
                for to in tos:
                    sim.api(frm).send(to, msg)
        queued = ([[(f, t, m.body["n"]) for f, t, m in rule.buffer] for rule in holds],
                  [(e.enq, e.frm, e.to, e.msg.body["n"]) for e in sim.pending], dict(sim.metrics))
        sim.add_external(Trigger(at=20), "invoke", lambda: sim.note_fact("open"), to="e")
        assert sim.run()["verdict"] == "quiescent"
        return queued, trace_hash(sim.trace), [sim._procs[p].automaton.got for p in "abcde"]

    (held, pending, metrics), trace, got = world(fan_out=True)
    assert held == [[("a", "c", 1), ("a", "e", 1), ("b", "c", 3)], [("b", "a", 3), ("b", "d", 3)]]
    assert [to for _, _, to, _ in pending] == ["a", "b", "d", "e", "d", "c", "b", "a"]
    assert metrics["sent"] == 13 and metrics["held"] == 5
    assert ((held, pending, metrics), trace, got) == world(fan_out=False)


def test_a_fan_out_naming_an_unknown_recipient_sends_nothing():
    sim = Simulator(0, LedgerFsOracle())
    for p in "abc":
        sim.spawn(p, Collector())
    with pytest.raises(ValueError, match="unknown destination ghost"):
        sim.api("a").send_all(("b", "ghost", "c"), Msg("t.x", "t", {}))
    assert sim.metrics["sent"] == 0 and not sim.pending._live and not list(sim.pending)


def test_queue_memory_follows_live_events():
    # 1,000 one-event batches drain to 3 events: the empty batches are
    # dropped and the tree is back to its smallest size
    q = PendingQueue()
    msg = Msg("t.x", "t", {})
    for i in range(1000):
        q.extend([Event(i, "a", "b", msg)])
    assert len(q._batches) == 1000 and q._cap >= 1000
    rng = random.Random(0)
    while len(q) > 3:
        q.pop_weighted(rng, 1000)
    assert len(q._batches) <= MIN_SLOTS and q._cap == MIN_SLOTS
    assert len(q._cnt) == len(q._enq) == MIN_SLOTS + 1


def test_one_send_step_is_one_batch():
    q = PendingQueue()
    msg = Msg("t.x", "t", {})
    for enqs in ((0,), (0, 0), (), (1,), (1,), (3,)):
        q.extend([Event(enq, "a", "b", msg) for enq in enqs])
    assert [[ev.enq for ev in b] for b in q._batches] == [[0, 0, 0], [1, 1], [3]]


# -- the wake step against a scan of every step ---------------------------------

class ScanEveryStep(Simulator):
    """The step without a wake step: every step scans every hold and every
    unfired external, as the scheduler did before it kept one, and an idle
    network scans at the earliest known due step."""

    def step(self):
        def scan(now):
            for rule in self.holds:
                if rule.buffer and rule.until is not None and due_at(rule.until, now):
                    return self._release(rule)
            for i, ext in enumerate(self.externals):
                if due_at(ext.trigger, now):
                    return self._fire(i)
            return None

        def due_at(trigger, now):
            due = trigger.due(self)
            return due is not None and now >= due

        kind = scan(self.next_step)
        if kind is not None:
            return kind
        if self.pending:
            return self._deliver()
        dues = [r.until.due(self) for r in self.holds if r.buffer and r.until is not None]
        dues = [d for d in dues + [e.trigger.due(self) for e in self.externals] if d is not None]
        return scan(min(dues)) if dues else None


FACTS = ("f0", "f1", "f2")
DESCS = ("t.x", "t.held", "t.y")


def make_trigger(spec):
    return Trigger(at=spec[1]) if spec[0] == "at" else Trigger(fact=spec[1], offset=spec[2])


class Busy:
    """Relays each message to one to three processes until its hops run out,
    and now and then notes a fact or registers an external; its choices come
    from the world's gen."""

    def __init__(self, world):
        self.world = world

    def bind(self, api):
        self.api = api

    def on_deliver(self, frm, msg):
        gen = self.world.gen
        if msg.body["hops"]:
            for to in gen.sample(PIDS, gen.randint(1, 3)):
                self.world.send(self.api.pid, to, gen.choice(DESCS), msg.body["hops"] - 1)
        if gen.random() < 0.1:
            self.api.fact(gen.choice(FACTS))
        if gen.random() < 0.05:
            # an external registered mid-run, due a few steps on
            due = self.world.sim.now() + gen.randint(0, 20)
            self.world.register(("at", due), self.api.pid, [("fact", gen.choice(FACTS))])


class World:
    """One generated world on a simulator of class cls: every process sends
    at step 0, and its externals send, note facts or register further
    externals when they fire."""

    def __init__(self, cls, seed, externals, holds):
        self.sim = cls(seed, LedgerFsOracle())
        self.gen = random.Random(seed)
        self.sent = itertools.count()
        for p in PIDS:
            self.sim.spawn(p, Busy(self))
        for frm, to, desc, until in holds:
            self.sim.add_hold(HoldRule(frm=frm, to=to, desc=desc, until=until and make_trigger(until)))
        for trigger, to, effects in externals:
            self.register(trigger, to, effects)
        for p in PIDS:      # traffic from step 0, for externals and holds to come due under
            self.send(p, self.gen.choice(PIDS), self.gen.choice(DESCS), 4)

    def send(self, frm, to, desc, hops):
        self.sim.api(frm).send(to, Msg(desc, "t", {"hops": hops, "n": next(self.sent)}))

    def register(self, trigger, to, effects):
        self.sim.add_external(make_trigger(trigger), "invoke", lambda: self.apply(effects),
                              to=to, desc=f"ext{len(self.sim.trace)}")

    def apply(self, effects):
        for effect in effects:
            if effect[0] == "send":
                self.send(*effect[1:])
            elif effect[0] == "fact":
                self.sim.note_fact(effect[1])
            else:
                self.register(*effect[1:])


_pid = st.sampled_from(PIDS)
_trigger = st.one_of(
    st.tuples(st.just("at"), st.integers(min_value=0, max_value=150)),
    st.tuples(st.just("fact"), st.sampled_from(FACTS), st.integers(min_value=0, max_value=30)),
)
_effect = st.one_of(
    st.tuples(st.just("send"), _pid, _pid, st.sampled_from(DESCS), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("fact"), st.sampled_from(FACTS)),
)
_effects = st.lists(
    st.one_of(_effect, st.tuples(st.just("ext"), _trigger, _pid, st.lists(_effect, min_size=1, max_size=3))),
    min_size=1, max_size=3)
_external = st.tuples(_trigger, _pid, _effects)
_pids = st.one_of(st.none(), st.sets(_pid, min_size=1))
_hold = st.tuples(_pids, _pids, st.sampled_from(("t.", "t.held", "t.x")), st.one_of(st.none(), _trigger))


# at least 100 examples; more under a profile that asks for more (ci)
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.lists(_external, max_size=8), st.lists(_hold, max_size=3))
def test_step_matches_a_scan_of_every_step(seed, externals, holds):
    # holds are released by step, by fact or never, facts are noted by
    # deliveries and by externals, and externals register externals: the
    # wake step must skip only steps at which the scan would fire nothing
    runs = []
    for cls in (Simulator, ScanEveryStep):
        sim = World(cls, seed, externals, holds).sim
        out = sim.run(400)
        runs.append((out, sim.trace, sim.facts, sim.metrics, len(sim.externals),
                     [len(r.buffer) for r in sim.holds], sim.rng.getstate()))
    assert runs[0] == runs[1]


def test_step_matches_a_scan_when_a_fact_comes_under_traffic():
    # a fact noted by a delivery makes an external due while events are
    # pending: it fires offset steps later, not when the network goes idle
    externals = [(("fact", "f0", 3), "a", [("send", "a", "b", "t.x", 0)]),
                 (("at", 0), "a", [("send", "a", "b", "t.x", 4), ("send", "c", "d", "t.y", 4)])]
    holds = [({"a"}, None, "t.held", ("fact", "f1", 5)), (None, {"d"}, "t.y", ("at", 30))]
    for seed in range(20):
        runs = []
        for cls in (Simulator, ScanEveryStep):
            sim = World(cls, seed, externals, holds).sim
            runs.append((sim.run(400), sim.trace, sim.facts))
        assert runs[0] == runs[1]


# -- pending events are plain tuples, seen through Event views -------------------

def test_scripts_and_iteration_see_events():
    sim = Simulator(0, LedgerFsOracle())
    seen = []
    for pid in ("a", "b"):
        sim.spawn(pid, Collector())
    sim.api("a").send("b", Msg("t.poke", "t", {}))
    sim.run(5)
    sim.corrupt("b", lambda api, ev: seen.append(ev))
    msg = Msg("t.x", "t", {"n": 1})
    sim.api("a").send("b", msg)
    (ev,) = list(sim.pending)
    assert type(ev) is Event and ev == Event(1, "a", "b", msg) and ev.to == "b" and ev.msg is msg
    sim.run(20)
    (got,) = seen
    assert type(got) is Event and (got.enq, got.frm, got.to) == (1, "a", "b")
    # the script's message is a private copy, equal to the one sent
    assert got.msg is not msg and (got.msg.desc, got.msg.obj, got.msg.body) == ("t.x", "t", {"n": 1})
    assert got.msg.body is not msg.body and got.msg.mhash() == msg.mhash()


def test_a_message_copy_duplicates_every_container_and_shares_every_other_object():
    value = genesis_config(("a", "b"))
    body = {"d": {"l": [1, (2, [3])], "s": {4}}, "v": value, "b": b"x"}
    msg = Msg("t.x", "t", body)
    msg.mhash()

    def containers(m):
        d = m.body["d"]
        return [m.body, d, d["l"], d["l"][1], d["l"][1][1], d["s"]]

    copy = msg.copy()
    assert (copy.desc, copy.obj, copy.body) == ("t.x", "t", body)
    assert all(a is not b for a, b in zip(containers(copy), containers(msg)))
    assert copy.body["v"] is value and copy.body["b"] is body["b"]
    assert (copy._hash, copy.ok, copy.urb) == (None, None, None) and copy.mhash() == msg.mhash()


def test_a_released_hold_leaves_the_holds_and_holds_nothing_more():
    sim = Simulator(3, LedgerFsOracle())
    c = Collector()
    sim.spawn("a", Collector())
    sim.spawn("c", c)
    hold = HoldRule(frm={"a"}, to={"c"}, desc="t.h", until=Trigger(at=0))
    sim.add_hold(hold)
    sim.api("a").send("c", Msg("t.h", "t", {"n": 1}))
    assert sim.step() == "adversary"
    assert hold not in sim.holds and sim.holds == []
    sim.api("a").send("c", Msg("t.h", "t", {"n": 2}))
    assert sim.run(50)["verdict"] == "quiescent"
    assert c.got == [("a", "t.h", 1), ("a", "t.h", 2)] and sim.metrics["held"] == 1


def reference_trace_hash(trace):
    """One json.dumps per line: the format trace_hash must reproduce."""
    out = hashlib.sha256()
    for line in trace:
        out.update(json.dumps(line, sort_keys=True, separators=(",", ":")).encode())
        out.update(b"\n")
    return out.hexdigest()


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False),
)
_json = st.recursive(
    _json_leaf,
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=10,
)
_field = st.text(max_size=8)        # non-ASCII, quotes and control characters included
_line = st.fixed_dictionaries(
    {
        "step": st.one_of(st.integers(min_value=0), st.booleans()),
        "kind": st.sampled_from(["deliver", "invoke", "upcall", "return", "adversary"]),
        "frm": _field,
        "to": _field,
        "desc": st.one_of(_field, st.integers(), st.none()),
        "hash": st.one_of(st.none(), st.text(alphabet="0123456789abcdef", min_size=16, max_size=16), _field, st.integers()),
        "st": st.sampled_from(["CC", "CB", "-C", "IC", "--"]),
    },
    optional={"detail": _json, "extra": _json},
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_line, st.dictionaries(_field, _json, max_size=4)), max_size=20))
def test_trace_hash_matches_one_dumps_per_line(trace):
    assert trace_hash(trace) == reference_trace_hash(trace)


_LINE = {"step": 3, "kind": "deliver", "frm": "r1", "to": "c1", "desc": "bla.propose", "hash": "0f" * 8, "st": "CC"}


@pytest.mark.parametrize(
    "line",
    [
        _LINE,
        {**_LINE, "desc": "r\u00e9sum\u00e9 \u2603 \"q\"\n\ud83d\ude00"},
        {**_LINE, "hash": None},
        {**_LINE, "hash": 5},
        {**_LINE, "detail": {"result": {"b": [1, None, {"z": "\u00ff"}], "a": True}, "idx": 0}},
        {**_LINE, "desc": 7},
        {**_LINE, "step": True},
        {**_LINE, "extra": 1},
        {k: v for k, v in _LINE.items() if k != "st"},
        {**_LINE, "detail": None, "extra": [1.5]},
    ],
    ids=["plain", "non-ascii-desc", "hash-none", "hash-int", "nested-detail", "int-desc", "bool-step",
         "extra-key", "missing-key", "detail-and-extra"],
)
def test_trace_line_matches_json_dumps(line):
    assert trace_line(line) == json.dumps(line, sort_keys=True, separators=(",", ":"))
    assert trace_hash([line, line]) == reference_trace_hash([line, line])


def test_trace_hash_across_chunks():
    lines = [{**_LINE, "step": i, "hash": None if i % 3 else "ab" * 8} for i in range(2500)]
    lines[1500]["detail"] = {"idx": 1}
    for n in (1023, 1024, 1025, 2500):
        assert trace_hash(lines[:n]) == reference_trace_hash(lines[:n])
