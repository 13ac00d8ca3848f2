"""Scenario files: schema, validation and built-in scenario families.

A scenario is a plain dict (usually loaded from JSON) describing one
simulated run: which replicas exist at genesis, which clients there are,
what operations they invoke and when, and what the adversary does.  The
runner turns a validated scenario into a live world; everything below is
pure data so scenarios can be stored, diffed and replayed.
"""

from __future__ import annotations

import sys

from ..lattice import ADD, REMOVE, Config, fault_budget, genesis_config
from ..simnet import DEFAULT_STEP_CAP, Trigger

SCHEMA_VERSION = 1
APP_KINDS = ("dbla", "maxreg", "none")
ACL_MODES = ("none", "sanity", "quorum", "admin")
ORACLE_KINDS = ("ledger", "keychain")
OP_KINDS = ("propose", "write", "read", "update_config", "ac_request")
# The app kind each app op needs; the other ops run under any app kind
OP_APP = {"propose": "dbla", "write": "maxreg", "read": "maxreg"}
MAX_NESTING = 100           # the scenario dict is level 1; the schema itself nests 5 deep
# Leaves JSON reads back as the very object, which the copy shares
_SHARED = frozenset((str, bool, type(None)))
# The leaves JSON writes, each to what reads a subclass's leaf as its base type's value
_LEAVES = {str: str.__str__, int: int.__int__, float: float.__float__, bool: None, type(None): None}


class ScenarioError(ValueError):
    """A scenario dict failed validation."""


def parse_trigger(spec):
    """Build a simulator Trigger from the JSON form.

    {"at": n} fires no earlier than step n; {"after": fact, "offset": n}
    fires no earlier than n steps past the step where fact was noted.
    An empty spec means "as soon as possible".
    """
    if "after" in spec:
        return Trigger(fact=spec["after"], offset=int(spec.get("offset", 0)))
    return Trigger(at=int(spec.get("at", 0)))


def _check_trigger(spec, where, errors):
    if "after" in spec and "at" in spec:
        errors.append(f"{where}: give either 'at' or 'after', not both")
        return
    if "after" in spec:
        if not isinstance(spec["after"], str) or not spec["after"]:
            errors.append(f"{where}: 'after' must be a fact name")
        off = spec.get("offset", 0)
        if not isinstance(off, int) or isinstance(off, bool) or off < 0:
            errors.append(f"{where}: 'offset' must be a non-negative int")
    elif "at" in spec:
        at = spec["at"]
        if not isinstance(at, int) or isinstance(at, bool) or at < 0:
            errors.append(f"{where}: 'at' must be a non-negative int")


def update_of(op) -> Config:
    """The configuration an update_config op joins in: its adds and removes."""
    return Config([(ADD, r) for r in op.get("add", [])] + [(REMOVE, r) for r in op.get("remove", [])])


def _counts_from(corruption) -> int:
    """The least height of a configuration the corruption counts against.
    One scheduled on the install fact "inst:hH" strikes once a configuration
    of height H is installed, when every lower one is superseded."""
    after = str(corruption.get("after", ""))
    h = after[6:]
    # int() may refuse a numeral of thousands of digits; such a height counts against all
    return int(h) if after.startswith("inst:h") and h.isdecimal() and len(h) < 100 else 0


def _pids(x) -> bool:
    return isinstance(x, list) and all(isinstance(p, str) for p in x)


def _dicts(x) -> bool:
    return type(x) is list and all(type(d) is dict for d in x)


def _dict(x) -> bool:
    return type(x) is dict


def _part(d, key, default, ok, errors, problem):
    """d[key], filled with default when absent; an empty stand-in, and an
    error, when it is not ok."""
    val = d.setdefault(key, default)
    if ok(val):
        return val
    errors.append(problem)
    return type(default)()


def _copy(x, level, seen, bad, key=False):
    """x, or with key the dict key x, as JSON writes and reads it back: plain
    dicts and lists sharing x's leaves, a subclass's leaf as its base type's
    value. x is at level of nesting; seen holds the ids of the dicts, lists
    and tuples met. Each problem is appended to bad, rank first, and its part
    copies as None: 0, a dict, list or tuple held twice; 1, one past
    MAX_NESTING; 2, a leaf JSON cannot write; 3, one it reads back as
    another value, a tuple or a key that is not a str."""
    if key or not isinstance(x, (dict, list, tuple)):
        base = type(x) if type(x) in _LEAVES else next((t for t in type(x).__mro__ if t in _LEAVES), None)
        # the interpreter writes no int of more digits than its limit, which is at least 640, more
        # than an int of 1,920 bits has; x - x is nan for inf, -inf and nan
        why = ((2, f"is not JSON: it holds {'a key' if key else 'a value'} of type {type(x).__name__}") if base is None
               else (2, f"is not JSON: it holds an int of more than {n} digits")
               if base is int and x.bit_length() > 1920 and 0 < (n := sys.get_int_max_str_digits()) and abs(x) >= 10 ** n
               else (3, "reads back from JSON as another value: a key that is not a str") if key and base is not str
               else (2, f"is not JSON: it holds the float {float.__repr__(x)}") if base is float and x - x != 0
               else None)
        return bad.append(why) if why else x if type(x) is base else _LEAVES[base](x)
    held = id(x) in seen
    seen.add(id(x))
    if held or level > MAX_NESTING:
        return bad.append((0, "holds a dict or list twice, in two places or in a cycle") if held
                          else (1, f"nests more than {MAX_NESTING} deep"))
    if isinstance(x, dict):
        return {k if type(k) is str else _copy(k, level, seen, bad, True):
                v if type(v) in _SHARED else _copy(v, level + 1, seen, bad) for k, v in x.items()}
    out = [v if type(v) in _SHARED else _copy(v, level + 1, seen, bad) for v in x]
    return out if isinstance(x, list) else bad.append((3, "reads back from JSON as another value: a tuple"))


def validate(scn):
    """Check a scenario dict and return a normalized copy.

    Raises ScenarioError listing every problem found.  Normalization fills
    defaults (seed, app, acl, adversary, max_steps) so the runner can rely
    on all keys being present.  A part of the wrong shape (a list where a
    dict belongs, a process id that is not a string) is reported, and the
    checks that would read inside it are skipped.

    The copy is the scenario as JSON reads it back, the value save_trace
    writes and load_trace reads, made in one walk: its dicts and lists are
    its own, and it shares the input's leaves. A scenario JSON cannot write
    (bytes, a set, inf or nan) or reads back as another value (a tuple, a
    key that is not a str) is refused; before either, so is one that nests
    more than MAX_NESTING deep or holds a dict or list twice, which a
    scenario read from JSON never does.
    """
    if not isinstance(scn, dict):
        raise ScenarioError("scenario must be a dict")
    bad = []
    out = _copy(scn, 1, set(), bad)
    if bad:
        raise ScenarioError("scenario " + min(bad)[1])
    errors = []

    if out.get("version") != SCHEMA_VERSION:
        errors.append(f"version must be {SCHEMA_VERSION}")
    if not isinstance(out.get("name"), str) or not out.get("name"):
        errors.append("name must be a non-empty string")

    seed = out.setdefault("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errors.append("seed must be a non-negative int")

    genesis = out.get("genesis")
    if not _pids(genesis) or not genesis:
        errors.append("genesis must be a non-empty list of replica ids")
        genesis = []
    clients = out.get("clients")
    if not _pids(clients) or not clients:
        errors.append("clients must be a non-empty list of client ids")
        clients = []
    extra = _part(out, "extra_replicas", [], _pids, errors, "extra_replicas must be a list of replica ids")
    replicas = list(genesis) + list(extra)
    everyone = replicas + list(clients)
    if len(set(everyone)) != len(everyone):
        errors.append("process ids must be unique across genesis, extra_replicas and clients")
    if "-" in everyone:
        # a trace line names "-" where it has no process (simnet._ST)
        errors.append("process id '-' is refused: a trace line names no process by it")

    app = _part(out, "app", {"kind": "dbla"}, _dict, errors, "app must be a dict")
    if app.get("kind") not in APP_KINDS:
        errors.append(f"app.kind must be one of {APP_KINDS}")
    acl = _part(out, "acl", {"mode": "none"}, _dict, errors, "acl must be a dict")
    if acl.get("mode") not in ACL_MODES:
        errors.append(f"acl.mode must be one of {ACL_MODES}")
    if acl.get("mode") == "admin":
        admins = acl.get("admins")
        if not _pids(admins) or not admins:
            errors.append("acl.mode admin requires a non-empty acl.admins list")
    if out.setdefault("oracle", "ledger") not in ORACLE_KINDS:
        errors.append(f"oracle must be one of {ORACLE_KINDS}")

    ops = _part(out, "ops", [], _dicts, errors, "ops must be a list of dicts")
    known = set(everyone)
    for i, op in enumerate(ops):
        where = f"ops[{i}]"
        kind = op.get("op")
        if kind not in OP_KINDS:
            errors.append(f"{where}: op must be one of {OP_KINDS}")
            continue
        if op.get("client") not in clients:
            errors.append(f"{where}: client must be a declared client id")
        _check_trigger(op, where, errors)
        if kind in OP_APP and app.get("kind") != OP_APP[kind]:
            errors.append(f"{where}: {kind} needs app.kind {OP_APP[kind]}")
        if kind == "propose":
            val = op.get("value")
            if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
                errors.append(f"{where}: value must be a list of strings")
        elif kind == "write":
            v = op.get("value")
            if not isinstance(v, int) or isinstance(v, bool):
                errors.append(f"{where}: value must be an int")
        elif kind == "update_config":
            add = op.get("add", [])
            rem = op.get("remove", [])
            if not _pids(add) or not _pids(rem):
                errors.append(f"{where}: add and remove must be lists of replica ids")
                continue
            if not add and not rem:
                errors.append(f"{where}: update_config needs add or remove")
            for r in add + rem:
                if r not in replicas:
                    errors.append(f"{where}: unknown replica {r!r}")
        elif kind == "ac_request":
            if acl.get("mode") in ("none", "admin"):
                errors.append(f"{where}: ac_request needs acl.mode sanity or quorum")
            if not isinstance(op.get("slot"), str):
                errors.append(f"{where}: slot must be a string")
            if not isinstance(op.get("value"), str):
                errors.append(f"{where}: value must be a string")

    adv = _part(out, "adversary", {}, _dict, errors, "adversary must be a dict")
    corruptions = _part(adv, "corruptions", [], _dicts, errors, "adversary.corruptions must be a list of dicts")
    for i, c in enumerate(corruptions):
        where = f"adversary.corruptions[{i}]"
        if not isinstance(c.get("pid"), str) or c["pid"] not in known:
            errors.append(f"{where}: unknown pid")
        if not isinstance(c.get("script", "silent"), str):
            errors.append(f"{where}: script must be a name")
        c.setdefault("script", "silent")
        _check_trigger(c, where, errors)
    holds = _part(adv, "holds", [], _dicts, errors, "adversary.holds must be a list of dicts")
    for i, h in enumerate(holds):
        where = f"adversary.holds[{i}]"
        for side in ("frm", "to"):
            val = h.get(side)
            if val is not None and not (_pids(val) and set(val) <= known):
                errors.append(f"{where}: {side} must be a list of known pids or absent")
        if not isinstance(h.get("desc", ""), str):
            errors.append(f"{where}: desc must be a string prefix")
        until = h.get("until")
        if until is not None:
            if not isinstance(until, dict):
                errors.append(f"{where}: until must be a trigger dict or null")
            else:
                _check_trigger(until, where + ".until", errors)

    cap = out.setdefault("max_steps", DEFAULT_STEP_CAP)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap <= 0:
        errors.append("max_steps must be a positive int")

    # Availability: in every configuration the declared updates can reach,
    # in any order and any combination, the adversary may corrupt at most
    # that configuration's fault budget, and some replica must remain.
    # Concurrent updates are certified in an order no scenario fixes, so each
    # reachable join counts. Without corruptions or removals no reachable
    # configuration can break either rule, and none is enumerated.
    strikes = [(c["pid"], _counts_from(c)) for c in corruptions if c.get("pid") in replicas]
    updates = [update_of(op) for op in ops
               if op.get("op") == "update_config" and _pids(op.get("add", [])) and _pids(op.get("remove", []))]
    if genesis and (strikes or any(op == REMOVE for u in updates for op, _ in u.updates)):
        reach = {genesis_config(genesis)}
        for u in updates:
            reach |= {c.join(u) for c in reach}
        worst = {}
        for c in reach:
            hit = len({p for p, h in strikes if h <= c.height()} & c.replicas())
            worst[c.replicas()] = max(worst.get(c.replicas(), 0), hit)
        for members in sorted(worst, key=sorted):
            if not members:
                errors.append("update_config ops can reach a configuration with no replicas")
            elif worst[members] > fault_budget(len(members)):
                errors.append(f"adversary corrupts {worst[members]} of {sorted(members)}"
                              f" but the fault budget is {fault_budget(len(members))}")

    _part(out, "meta", {}, _dict, errors, "meta must be a dict")
    if errors:
        raise ScenarioError("; ".join(errors))
    return out


# ---------------------------------------------------------------------------
# Built-in families.  Each builder returns a validated scenario dict; the
# seed is baked in so a scenario file fully determines the run.


def make_scenario(name, seed, clients, ops, genesis=("r1", "r2", "r3", "r4"), **parts):
    """The validated scenario of this schema version, seed and genesis, with
    any other top-level parts (extra_replicas, app, acl, adversary, meta)
    as given and the rest filled by validate."""
    return validate({"version": SCHEMA_VERSION, "name": name, "seed": seed,
                     "genesis": list(genesis), "clients": clients, "ops": ops, **parts})


def dbla_smoke(seed, clients=5):
    """Static membership, several clients proposing distinct singletons."""
    cids = [f"p{i}" for i in range(1, clients + 1)]
    ops = [
        {"op": "propose", "client": c, "value": [f"x{i}"], "at": i % 3}
        for i, c in enumerate(cids)
    ]
    return make_scenario(f"dbla-smoke-{seed}", seed, cids, ops)


def reconfig_dbla(seed):
    """One membership change racing live proposals; odd seeds also remove r1."""
    remove = ["r1"] if seed % 2 else []
    h1 = 4 + 1 + len(remove)
    ops = [
        {"op": "propose", "client": "p", "value": ["a"], "at": 0},
        {"op": "update_config", "client": "u", "add": ["r5"], "remove": remove,
         "after": "op0:done", "offset": 1},
        {"op": "propose", "client": "q", "value": ["b"], "after": "op0:done", "offset": 2},
        {"op": "propose", "client": "p", "value": ["c"], "after": f"inst:h{h1}", "offset": 3},
    ]
    return make_scenario(f"reconfig-dbla-{seed}", seed, ["p", "q", "u"], ops, extra_replicas=["r5"])


def reconfig_maxreg(seed):
    """Max-register traffic across a membership change."""
    h1 = 5
    ops = [
        {"op": "write", "client": "a", "value": 3 + (seed % 4), "at": 0},
        {"op": "write", "client": "b", "value": 9, "at": 1},
        {"op": "update_config", "client": "u", "add": ["r5"], "after": "op0:done", "offset": 1},
        {"op": "read", "client": "a", "after": f"inst:h{h1}", "offset": 2},
        {"op": "write", "client": "b", "value": 12, "after": f"inst:h{h1}", "offset": 1},
        {"op": "read", "client": "b", "after": "op4:done", "offset": 1},
    ]
    return make_scenario(f"reconfig-maxreg-{seed}", seed, ["a", "b", "u"], ops,
                         extra_replicas=["r5"], app={"kind": "maxreg"})


def chain(seed, k):
    """k sequential membership changes, then a late joiner-backed proposal.

    Used to measure how many distinct configurations state transfer reads
    from: the whole run should touch at most k+1.
    """
    extra = [f"r{4 + i}" for i in range(1, k + 1)]
    ops = [{"op": "propose", "client": "p", "value": ["base"], "at": 0}]
    prev_fact = "op0:done"
    for i, r in enumerate(extra):
        ops.append({
            "op": "update_config", "client": "u", "add": [r],
            "after": prev_fact, "offset": 2,
        })
        prev_fact = f"inst:h{4 + i + 1}"
    ops.append({"op": "propose", "client": "q", "value": ["tail"],
                "after": prev_fact, "offset": 3})
    return make_scenario(f"chain-{k}-{seed}", seed, ["p", "q", "u"], ops, extra_replicas=extra)


def solo_join(seed):
    """A one-replica genesis joined by a second replica, with a proposal
    before the join and one after it."""
    ops = [
        {"op": "propose", "client": "p", "value": ["a"], "at": 0},
        {"op": "update_config", "client": "u", "add": ["r2"], "after": "op0:done", "offset": 1},
        {"op": "propose", "client": "p", "value": ["b"], "after": "op1:done", "offset": 1},
    ]
    return make_scenario(f"solo-join-{seed}", seed, ["p", "u"], ops, genesis=["r1"], extra_replicas=["r2"])


def _ac_race(name, seed, holds=(), **parts):
    """a asks for slot s with x and b with y, both at step 0, under holds."""
    ops = [
        {"op": "ac_request", "client": "a", "slot": "s", "value": "x", "at": 0},
        {"op": "ac_request", "client": "b", "slot": "s", "value": "y", "at": 0},
    ]
    return make_scenario(name, seed, ["a", "b"], ops, app={"kind": "none"}, acl={"mode": "quorum"},
                         adversary={"holds": list(holds)}, **parts)


def ac_quorum_race(seed):
    """Two clients race conflicting values for one guarded slot."""
    return _ac_race(f"ac-quorum-race-{seed}", seed)


def ac_pattern(mask, seed=0):
    """Force which request each replica sees first for a contested slot.

    Bit i of mask set means r(i+1) sees a's request first; the rest see b's
    first.  Holds release later, so in the end every replica sees both.
    """
    rids = ["r1", "r2", "r3", "r4"]
    first_a = [r for i, r in enumerate(rids) if mask & (1 << i)]
    first_b = [r for r in rids if r not in first_a]
    holds = []
    if first_a:
        holds.append({"frm": ["b"], "to": first_a, "desc": "ac.req", "until": {"at": 300}})
    if first_b:
        holds.append({"frm": ["a"], "to": first_b, "desc": "ac.req", "until": {"at": 400}})
    return _ac_race(f"ac-pattern-{mask:04b}", seed, holds, meta={"mask": mask})


FAMILIES = {
    "dbla-smoke": dbla_smoke,
    "reconfig-dbla": reconfig_dbla,
    "reconfig-maxreg": reconfig_maxreg,
    "chain": chain,
    "solo-join": solo_join,
    "ac-quorum-race": ac_quorum_race,
    "ac-pattern": ac_pattern,
}
