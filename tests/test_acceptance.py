"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Each criterion runs at full scale (hundreds of seeds where stated) and
prints a single summary line; run with -s to watch them stream.  Sweeps
are cached so criteria that aggregate over earlier runs do not pay twice.
"""

from functools import lru_cache

from dynbla.harness.attacks import ATTACKS
from dynbla.harness.checks import run_checks
from dynbla.harness.runner import load_trace, run_scenario, save_trace
from dynbla.harness.scenario import FAMILIES, validate
from dynbla.lattice import FinSet, fault_budget, quorum_size

MASKS = [0b0001, 0b0011, 0b0111, 0b1111, 0b0101, 0b1001, 0b0110, 0b1110]


def emit(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def clean(rep):
    """All applicable checks pass and the run actually finished.

    Runs whose scenario holds some messages forever legitimately end
    "stalled" (the held deliveries stay parked); anything else must drain.
    """
    forever = any(h.get("until") is None
                  for h in rep.scenario["adversary"]["holds"])
    if rep.verdict != "quiescent" and not (forever and rep.verdict == "stalled"):
        return [("verdict", False, rep.verdict)]
    return [(n, ok, info) for n, ok, info in run_checks(rep.bundle()) if not ok]


@lru_cache(maxsize=None)
def sweep_smoke():
    bad, ops = [], 0
    for seed in range(1000):
        rep = run_scenario(FAMILIES["dbla-smoke"](seed))
        fails = clean(rep)
        if fails:
            bad.append((seed, fails))
        ops += sum(1 for r in rep.ops if r.returned_at is not None)
    return {"runs": 1000, "bad": bad, "ops_returned": ops, "ops_expected": 5000}


@lru_cache(maxsize=None)
def sweep_reconfig_dbla():
    bad, ops, installs = [], 0, 0
    for seed in range(500):
        rep = run_scenario(FAMILIES["reconfig-dbla"](seed))
        fails = clean(rep)
        if fails:
            bad.append((seed, fails))
        ops += sum(1 for r in rep.ops if r.returned_at is not None)
        installs += sum(1 for l in rep.trace
                        if l["kind"] == "upcall" and l["desc"] == "install")
    for seed in range(25):
        scn = FAMILIES["reconfig-dbla"](seed)
        scn["oracle"] = "keychain"
        rep = run_scenario(validate(scn))
        fails = clean(rep)
        if fails:
            bad.append((("keychain", seed), fails))
        ops += sum(1 for r in rep.ops if r.returned_at is not None)
    return {"runs": 525, "bad": bad, "ops_returned": ops,
            "ops_expected": 525 * 4, "installs": installs}


@lru_cache(maxsize=None)
def sweep_reconfig_maxreg():
    bad, ops = [], 0
    for seed in range(500):
        rep = run_scenario(FAMILIES["reconfig-maxreg"](seed))
        fails = clean(rep)
        if fails:
            bad.append((seed, fails))
        ops += sum(1 for r in rep.ops if r.returned_at is not None)
    return {"runs": 500, "bad": bad, "ops_returned": ops, "ops_expected": 3000}


def test_c01_dbla_static_membership_1000_seeds():
    s = sweep_smoke()
    emit("c01 dbla smoke x1000", not s["bad"],
         f"{s['runs'] - len(s['bad'])}/{s['runs']} runs clean, "
         f"first failures: {s['bad'][:3]}")


def test_c02_reconfiguration_with_key_update_audit_500_seeds():
    s = sweep_reconfig_dbla()
    ok = not s["bad"] and s["installs"] >= 500
    emit("c02 reconfig dbla x500 (+25 keychain)", ok,
         f"{s['runs'] - len(s['bad'])}/{s['runs']} runs clean, "
         f"{s['installs']} installs audited, first failures: {s['bad'][:3]}")


def test_c03_replaced_membership_attack_100_seeds():
    build, verify = ATTACKS["i-still-work-here"]
    bad = []
    for seed in range(100):
        rep = run_scenario(build(seed))
        fails = [(n, info) for n, ok, info in verify(rep) if not ok]
        fails += clean(rep)
        if fails:
            bad.append((seed, fails))
    emit("c03 i-still-work-here x100", not bad,
         f"{100 - len(bad)}/100 attack runs verified, first failures: {bad[:3]}")


def test_c04_stale_reader_attacks_100_seeds_each():
    bad = []
    for name in ("slow-reader-dbla", "slow-reader-maxreg"):
        build, verify = ATTACKS[name]
        for seed in range(100):
            rep = run_scenario(build(seed))
            fails = [(n, info) for n, ok, info in verify(rep) if not ok]
            fails += clean(rep)
            if fails:
                bad.append((name, seed, fails))
    emit("c04 slow-reader x100 each", not bad,
         f"{200 - len(bad)}/200 attack runs verified, first failures: {bad[:3]}")


def test_c05_maxreg_across_reconfiguration_500_seeds():
    s = sweep_reconfig_maxreg()
    emit("c05 reconfig maxreg x500", not s["bad"],
         f"{s['runs'] - len(s['bad'])}/{s['runs']} runs clean, "
         f"first failures: {s['bad'][:3]}")


def test_c06_liveness_aggregate():
    sweeps = [sweep_smoke(), sweep_reconfig_dbla(), sweep_reconfig_maxreg()]
    runs = sum(s["runs"] for s in sweeps)
    got = sum(s["ops_returned"] for s in sweeps)
    want = sum(s["ops_expected"] for s in sweeps)
    ok = runs >= 500 and got == want
    emit("c06 liveness aggregate", ok,
         f"{got}/{want} ops returned over {runs} adversary-free-quorum runs")


def test_c07_state_transfer_touches_linearly_many_configs():
    rows = []
    ok = True
    for k in (1, 2, 3, 5):
        worst = 0
        for seed in range(10):
            rep = run_scenario(FAMILIES["chain"](seed, k))
            fails = clean(rep)
            ok = ok and not fails
            worst = max(worst, len(rep.final["xfer_targets"]))
        ok = ok and 1 <= worst <= k + 1
        rows.append(f"k={k}: {worst} sources (cap {k + 1})")
    emit("c07 transfer chain bound", ok, "; ".join(rows))


def test_c08_guarded_slot_never_grants_twice():
    expected = {}
    for mask in MASKS:
        firsts = bin(mask).count("1")
        expected[mask] = (firsts >= 3, firsts <= 1)
    bad = []
    for mask in MASKS:
        rep = run_scenario(FAMILIES["ac-pattern"](mask))
        got = (rep.ops[0].result["granted"], rep.ops[1].result["granted"])
        if got != expected[mask] or clean(rep):
            bad.append((f"mask={mask:04b}", got, expected[mask]))
    grants = 0
    for seed in range(200):
        rep = run_scenario(FAMILIES["ac-quorum-race"](seed))
        if clean(rep):
            bad.append(("race", seed))
        grants += sum(1 for op in rep.ops if op.result["granted"])
    emit("c08 access control at-most-one", not bad,
         f"8 forced orders exact, 200 races ({grants} grants) conflict-free, "
         f"failures: {bad[:3]}")


def test_c09_traces_replay_byte_identical(tmp_path):
    combos = [("dbla-smoke", s) for s in range(30)]
    combos += [("reconfig-dbla", s) for s in range(10)]
    combos += [("reconfig-maxreg", s) for s in range(10)]
    bad = []
    for i, (fam, seed) in enumerate(combos):
        first, second = tmp_path / f"{i}a.trace", tmp_path / f"{i}b.trace"
        rep = run_scenario(FAMILIES[fam](seed))
        save_trace(first, rep.bundle())
        again = run_scenario(load_trace(first)["scenario"])
        save_trace(second, again.bundle())
        if rep.hash != again.hash or first.read_bytes() != second.read_bytes():
            bad.append((fam, seed))
    emit("c09 replay determinism x50", not bad,
         f"{len(combos) - len(bad)}/{len(combos)} trace pairs byte-identical, "
         f"failures: {bad}")


def test_c10_lattice_and_quorum_brute_force():
    import test_lattice as tl

    universe = ("a", "b", "c", "d")
    subs = tl.powerset(universe)
    pairs = 0
    for a in subs:
        for b in subs:
            assert FinSet(a).join(FinSet(b)) == FinSet(tl.oracle_join(a, b, universe))
            assert FinSet(a).leq(FinSet(b)) == (a <= b)
            pairs += 1

    groups = 0
    for n in range(1, 10):
        members = [f"r{i}" for i in range(n)]
        cfg = tl.conf(adds=members)
        for g in tl.powerset(members):
            assert cfg.is_quorum(g) == tl.oracle_is_quorum(g, members)
            groups += 1

    for n in range(1, 61):
        assert quorum_size(n) == min(k for k in range(1, n + 1) if k > 2 * n / 3)
        assert fault_budget(n) == max(f for f in range(n) if n >= 3 * f + 1)
        # two quorums overlap in more processes than the fault budget
        assert 2 * quorum_size(n) - n >= fault_budget(n) + 1

    emit("c10 lattice/quorum oracle", True,
         f"{pairs} join pairs, {groups} quorum groups, n<=60 size laws")
