import base64
import copy
import functools
import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, event, example, given, settings, strategies as st
from test_dbla import _CERTS, _output_certs

from dynbla.access_control import admin_payload
from dynbla.dbla import GENESIS_CERT, OPEN_CERT, AcCert, InputValue, OutputCert, QuorumCert
from dynbla.fscrypto import FsSig, LedgerFsOracle, _FsOracleBase
from dynbla.harness import attacks, checks, cli, runner, scenario
from dynbla.harness.attacks import ATTACKS
from dynbla.harness.checks import run_checks
from dynbla.harness.runner import load_trace, read_ops, run_scenario, save_trace
from dynbla.harness.scenario import FAMILIES, ScenarioError, validate
from dynbla.lattice import Config, FinSet, History, genesis_config, value_from_jsonable
from dynbla.simnet import Msg, trace_hash

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

def passed(results, name):
    for n, ok, _ in results:
        if n == name:
            return ok
    raise AssertionError(f"check {name} did not run")


def names(results):
    return [n for n, _, _ in results]


# -- scenario validation ---------------------------------------------------------


def test_validate_fills_defaults():
    scn = validate({"version": 1, "name": "t", "genesis": ["r1"], "clients": ["c"]})
    assert scn["seed"] == 0
    assert scn["app"] == {"kind": "dbla"}
    assert scn["acl"] == {"mode": "none"}
    assert scn["oracle"] == "ledger"
    assert scn["adversary"] == {"corruptions": [], "holds": []}
    assert scn["max_steps"] > 0
    assert scn["meta"] == {}


def test_validate_does_not_mutate_input():
    raw = {"version": 1, "name": "t", "genesis": ["r1"], "clients": ["c"]}
    snap = copy.deepcopy(raw)
    validate(raw)
    assert raw == snap


class _Dict(dict):
    pass


class _List(list):
    pass


@pytest.mark.parametrize("scn", [
    _Dict(version=1, name="t", genesis=["r1"], clients=["c"]),
    {"version": 1, "name": "t", "genesis": ["r1"], "clients": ["c"], "adversary": _Dict()},
    {"version": 1, "name": "t", "genesis": ["r1"], "clients": ["c"],
     "adversary": {"corruptions": _List([{"pid": "c"}])}},
    {"version": 1, "name": "t", "genesis": ["r1"], "clients": ["c"],
     "adversary": {"corruptions": [_Dict(pid="c")]}},
], ids=["scenario", "adversary", "corruptions", "corruption"])
def test_validate_leaves_a_dict_or_list_subclass_it_fills_untouched(scn):
    # validate fills defaults in its JSON copy, which holds plain dicts and
    # lists only, so the caller's scenario is not edited
    snap = copy.deepcopy(scn)
    out = validate(scn)
    assert scn == snap and type(scn) is type(snap)
    assert all(type(c) in (dict, list) for c in _containers(out).values())


def _containers(x, found=None):
    """id -> object for every dict, list and set in x, looking inside tuples too."""
    found = {} if found is None else found
    if type(x) in (dict, list, set):
        found[id(x)] = x
    if type(x) in (dict, list, tuple):
        for v in x.values() if type(x) is dict else x:
            _containers(v, found)
    return found


def test_validate_output_shares_no_container_with_its_input():
    raw = {**FAMILIES["reconfig-dbla"](1),
           "meta": {"tags": ["a", {"b": [1, 2]}], "seen": ["r1", "r2"], "pair": [[3], 4]}}
    out = validate(raw)
    assert out == raw
    assert not _containers(raw).keys() & _containers(out).keys()
    snap = copy.deepcopy(raw)
    out["meta"]["tags"][1]["b"].append(3)
    out["meta"]["seen"].append("r9")
    out["meta"]["pair"][0].append(5)
    out["ops"][0]["value"].append("z")
    out["adversary"]["holds"].append({})
    assert raw == snap
    snap = copy.deepcopy(out)
    raw["meta"]["tags"][1]["b"].clear()
    raw["genesis"].append("r9")
    raw["app"]["kind"] = "maxreg"
    assert out == snap


def _every_built_scenario():
    """Every family at seeds 0-9, every attack at seeds 0-9 and every stored
    scenario file, as its builder or the file gives it."""
    for name, build in FAMILIES.items():
        for seed in range(10):
            if name == "chain":
                yield build(seed, 3)
            elif name == "ac-pattern":
                yield build(0b0101, seed)
            else:
                yield build(seed)
    for build, _ in ATTACKS.values():
        for seed in range(10):
            yield build(seed)
    for path in sorted(SCENARIOS.glob("*.json")):
        yield json.loads(path.read_text())


# The phrase of each class of refusal of a scenario JSON cannot copy, the
# first to report first
_REFUSALS = ("holds a dict or list twice", "nests more than", "is not JSON", "another value")


def _json_reference(scn):
    """(refusal, copy): the phrase of the class of validate's refusal of scn,
    or None and scn as JSON reads it back. The reference is the JSON round
    trip after a tree check: a dict, list or tuple held twice within
    MAX_NESTING + 1 levels is refused, else one at that level. A round trip
    that raises is not JSON, and one that reads back another value is
    refused; a non-finite float, which JSON writes as no number, is not
    JSON."""
    level, seen, held = [scn], {id(scn)}, 1
    for _ in range(scenario.MAX_NESTING):
        level = [v for c in level for v in (c.values() if isinstance(c, dict) else c)
                 if isinstance(v, (dict, list, tuple))]
        seen.update(map(id, level))
        held += len(level)
        if not level or len(seen) < held:
            break
    if level:
        return _REFUSALS[0] if len(seen) < held else _REFUSALS[1], None
    try:
        out = json.loads(json.dumps(scn))
    except (TypeError, ValueError):
        return _REFUSALS[2], None
    if _non_finite(scn):
        return _REFUSALS[2], None
    return (None, out) if out == scn else (_REFUSALS[3], None)


def _non_finite(x) -> bool:
    """Whether x holds inf, -inf or nan as a leaf, not as a key."""
    if isinstance(x, (dict, list, tuple)):
        return any(map(_non_finite, x.values() if isinstance(x, dict) else x))
    return isinstance(x, float) and not math.isfinite(x)


def _same(got, ref) -> bool:
    """got equals ref in value and in exact type at every node, keys included."""
    if type(got) is not type(ref):
        return False
    if type(ref) is dict:
        return (list(got) == list(ref) and all(type(k) is str for k in got)
                and all(map(_same, got.values(), ref.values())))
    if type(ref) is list:
        return len(got) == len(ref) and all(map(_same, got, ref))
    return got == ref


def _shares_leaves(got, src) -> bool:
    """got shares no dict or list with src, and shares each of src's leaves
    that is of the type JSON reads back."""
    if type(got) in (dict, list):
        return got is not src and all(map(_shares_leaves, *(
            (x.values() if isinstance(x, dict) else x) for x in (got, src))))
    return got is src or type(got) is not type(src)


def _check_copy(scn):
    """validate refuses scn as the reference does, or copies it as the
    reference does, sharing its leaves; the refusal's phrase or None."""
    refusal, ref = _json_reference(scn)
    try:
        out = validate(scn)
    except ScenarioError as e:
        assert refusal is not None and refusal in str(e), (refusal, str(e))
        assert [r for r in _REFUSALS if r in str(e)] == [refusal], str(e)
        return refusal
    assert refusal is None, refusal
    assert _same(out, ref)
    assert _shares_leaves(out, scn)
    return None


def test_validate_copies_every_built_scenario_as_json_reads_it_back():
    built = list(_every_built_scenario())
    assert len(built) == 10 * (len(FAMILIES) + len(ATTACKS)) + len(list(SCENARIOS.glob("*.json")))
    for scn in built:
        assert _check_copy(scn) is None


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    # ints of 4,299 to 4,301 digits, about the interpreter's default limit of 4,300
    st.builds(lambda e, d: 10 ** e + d, st.integers(4299, 4300), st.integers(-1, 1)), st.binary(max_size=2),
    st.sets(st.integers(), max_size=2), st.text(max_size=3).map(_Str), st.integers().map(_Int),
    st.floats().map(_Float))
_JSON_KEYS = st.one_of(st.text(max_size=3), st.text(max_size=3).map(_Str), st.integers(), st.booleans(),
                       st.none(), st.floats(), st.tuples(st.text(max_size=2)))
_JSON_TREES = st.recursive(_JSON_LEAVES, lambda kids: st.one_of(
    # the empty tuple is one object, so two of them would be a tuple held twice
    st.lists(kids, max_size=3), st.lists(kids, min_size=1, max_size=3).map(tuple),
    st.lists(kids, max_size=3).map(_List),
    st.dictionaries(st.text(max_size=3), kids, max_size=3), st.dictionaries(_JSON_KEYS, kids, max_size=3),
    st.dictionaries(st.text(max_size=3), kids, max_size=3).map(_Dict)), max_leaves=12)


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(meta=_JSON_TREES, planted=_JSON_TREES, twice=st.sampled_from([False, False, False, True]))
@example(meta=10 ** 4300 - 1, planted=_Int(-10 ** 4300 + 1), twice=False)
@example(meta=10 ** 4300, planted=None, twice=False)
@example(meta={10 ** 4300: 1}, planted=None, twice=False)
@example(meta={math.nan: 1, "x": math.inf}, planted=(b"",), twice=False)
@example(meta=[(), ()], planted=b"", twice=False)
@example(meta=[b"", ("x",)], planted=None, twice=True)
def test_validate_copies_a_planted_tree_as_json_reads_it_back(meta, planted, twice):
    # in meta and in an op, the two parts of a scenario that hold what a
    # caller plants; with twice, the op holds meta's very tree
    base = FAMILIES["dbla-smoke"](0)
    planted = meta if twice else planted
    event(_check_copy({**base, "meta": {"x": meta}, "ops": [{**base["ops"][0], "x": planted}, *base["ops"][1:]]})
          or "copied")


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, _Float("-inf")], ids=["inf", "-inf", "nan", "subclass"])
def test_validate_refuses_a_non_finite_float_and_names_it(x):
    # a trace would write it as Infinity or NaN, which no JSON parser that
    # follows RFC 8259 reads
    base = FAMILIES["dbla-smoke"](0)
    for scn in ({**base, "meta": {"x": x}}, {**base, "meta": {"y": [1.5, {"x": x}]}},
                {**base, "ops": [{**base["ops"][0], "x": x}, *base["ops"][1:]]}):
        for call in (validate, run_scenario):
            with pytest.raises(ScenarioError, match=f"not JSON: it holds the float {re.escape(float.__repr__(x))}$"):
                call(scn)


# Run in a fresh interpreter: one run and its checks, then the names of the
# modules the run needs no code of that are loaded
_FRESH_RUN = """
import sys
from dynbla.harness import FAMILIES, run_checks, run_scenario

rep = run_scenario(FAMILIES["dbla-smoke"](0))
assert rep.verdict == "quiescent" and all(ok for _, ok, _ in run_checks(rep.bundle()))
print(sorted({"dataclasses", "inspect"} & sys.modules.keys()))
"""


def test_a_run_and_its_checks_load_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # 1 MiB of a run's peak memory that nothing else in a run loads
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    r = subprocess.run([sys.executable, "-c", _FRESH_RUN], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["[]"]


@pytest.mark.parametrize("deep", [
    # the scenario is level 1 and meta level 2; _nested(n) is n + 1 lists
    lambda scn, levels: {**scn, "meta": {"deep": _nested(levels - 3)}},
    # the scenario, ops and the op are levels 1-3, and then levels - 3 dicts
    lambda scn, levels: {**scn, "ops": [{**scn["ops"][0],
                                         "x": functools.reduce(lambda v, _: {"x": v}, range(levels - 4), {})}]},
], ids=["lists-in-meta", "dicts-in-an-op"])
def test_validate_refuses_a_scenario_nested_past_its_bound(deep):
    scn = FAMILIES["dbla-smoke"](0)
    at_bound = deep(scn, scenario.MAX_NESTING)
    assert validate(at_bound) == at_bound
    with pytest.raises(ScenarioError, match=f"nests more than {scenario.MAX_NESTING} deep"):
        validate(deep(scn, scenario.MAX_NESTING + 1))


def _cycle():
    meta = {"tags": []}
    meta["tags"] += [meta, meta]        # copied once per path, so without end
    return meta


def _shared():
    hold = {"frm": ["p1"], "desc": "bla"}
    return {"holds": [hold, hold]}


@pytest.mark.parametrize("part", [
    lambda scn: {**scn, "meta": _cycle()},
    lambda scn: {**scn, "adversary": _shared()},
    lambda scn: {**scn, "ops": scn["ops"][:1] * 2},
    lambda scn: {**scn, "meta": _Dict(_shared())},
], ids=["cycle", "shared-hold", "shared-op", "shared-in-a-subclass"])
def test_validate_refuses_a_dict_or_list_held_twice(part):
    with pytest.raises(ScenarioError, match="holds a dict or list twice"):
        validate(part(FAMILIES["dbla-smoke"](0)))


def test_validate_refuses_a_tuple_held_twice():
    # the empty tuple is one object wherever it is written, but JSON writes
    # it once per path, as a list
    scn = {**FAMILIES["dbla-smoke"](0), "meta": {"a": (), "b": [(), ()]}}
    with pytest.raises(ScenarioError, match="holds a dict or list twice"):
        validate(scn)


@pytest.mark.parametrize("meta,msg", [
    ({"x": b"1"}, "not JSON"),
    ({"x": {"r1"}}, "not JSON"),
    ({("r1",): 1}, "not JSON"),
    ({1: "x"}, "another value"),
    ({"x": ("r1", 2)}, "another value"),
], ids=["bytes", "set", "tuple-key", "int-key", "tuple"])
def test_validate_refuses_what_a_trace_cannot_write_or_reads_back_as_another_value(tmp_path, meta, msg):
    # a run of such a scenario would either fail to save its trace or load
    # back a scenario other than the one it ran
    scn = {**FAMILIES["dbla-smoke"](0), "meta": meta}
    for call in (validate, run_scenario):
        with pytest.raises(ScenarioError, match=msg):
            call(scn)
    # the same scenario with a meta JSON writes runs, and reads back as run
    rep = run_scenario({**scn, "meta": {"x": ["r1", 2]}})
    save_trace(tmp_path / "t.trace", rep.bundle())
    assert load_trace(tmp_path / "t.trace")["scenario"] == rep.scenario


@pytest.mark.parametrize(
    "patch,msg",
    [
        ({"version": 2}, "version"),
        ({"name": ""}, "name"),
        ({"seed": -1}, "seed"),
        ({"genesis": []}, "genesis"),
        ({"clients": ["r1"]}, "unique"),
        ({"clients": ["-", "p"]}, "process id '-' is refused"),
        ({"genesis": ["r1", "-"]}, "process id '-' is refused"),
        ({"app": {"kind": "paxos"}}, "app.kind"),
        ({"acl": {"mode": "open"}}, "acl.mode"),
        ({"acl": {"mode": "admin"}}, "admins"),
        ({"oracle": "hsm"}, "oracle"),
        ({"max_steps": 0}, "max_steps"),
    ],
)
def test_validate_rejects(patch, msg):
    scn = {"version": 1, "name": "t", "genesis": ["r1", "r2"], "clients": ["c"]}
    scn.update(patch)
    with pytest.raises(ScenarioError, match=msg):
        validate(scn)


@pytest.mark.parametrize(
    "op,msg",
    [
        ({"op": "vote", "client": "c"}, "op must be one of"),
        ({"op": "propose", "client": "nobody", "value": ["x"]}, "declared client"),
        ({"op": "propose", "client": "c", "value": ["x"], "at": 1, "after": "f"}, "not both"),
        ({"op": "propose", "client": "c", "value": [1]}, "list of strings"),
        ({"op": "write", "client": "c", "value": 1}, "write needs app.kind maxreg"),
        ({"op": "read", "client": "c"}, "read needs app.kind maxreg"),
        ({"op": "update_config", "client": "c"}, "add or remove"),
        ({"op": "update_config", "client": "c", "add": ["r9"]}, "unknown replica"),
        ({"op": "ac_request", "client": "c", "slot": "s", "value": "v"}, "acl.mode"),
    ],
)
def test_validate_rejects_ops(op, msg):
    scn = {
        "version": 1,
        "name": "t",
        "genesis": ["r1", "r2", "r3", "r4"],
        "clients": ["c"],
        "ops": [op],
    }
    with pytest.raises(ScenarioError, match=msg):
        validate(scn)


@pytest.mark.parametrize(
    "patch,msg",
    [
        ({"ops": ["x"]}, "ops must be a list of dicts"),
        ({"ops": "abc"}, "ops must be a list of dicts"),
        ({"adversary": {"corruptions": [1]}}, "corruptions must be a list of dicts"),
        ({"adversary": {"holds": [None]}}, "holds must be a list of dicts"),
        ({"app": "dbla"}, "app must be a dict"),
        ({"acl": []}, "acl must be a dict"),
        ({"adversary": []}, "adversary must be a dict"),
        ({"genesis": [["r1"]]}, "genesis"),
        ({"clients": [{"c": 1}]}, "clients"),
        ({"extra_replicas": "r9"}, "extra_replicas"),
        ({"ops": [{"op": "update_config", "client": "c", "add": "r3"}]}, "add and remove"),
        ({"ops": [{"op": "update_config", "client": "c", "remove": [["r1"]]}]}, "add and remove"),
        ({"adversary": {"corruptions": [{"pid": ["r1"]}]}}, "unknown pid"),
        ({"adversary": {"holds": [{"to": [["r1"]]}]}}, "list of known pids"),
        ({"acl": {"mode": "admin", "admins": [["d1"]]}}, "admins"),
        ({"meta": []}, "meta must be a dict"),
    ],
    ids=["ops-str-item", "ops-str", "corruption-int", "hold-none", "app-str", "acl-list",
         "adversary-list", "genesis-nested", "client-dict", "extra-str", "add-str",
         "remove-nested", "pid-list", "hold-to-nested", "admins-nested", "meta-list"],
)
def test_validate_rejects_malformed_structure(patch, msg):
    scn = {"version": 1, "name": "t", "genesis": ["r1", "r2", "r3", "r4"], "clients": ["c"]}
    scn.update(patch)
    with pytest.raises(ScenarioError, match=msg):
        validate(scn)


def test_validate_collects_all_errors():
    scn = {"version": 9, "name": "", "genesis": [], "clients": []}
    with pytest.raises(ScenarioError) as exc:
        validate(scn)
    text = str(exc.value)
    assert "version" in text and "name" in text and "genesis" in text


def test_availability_budget_enforced():
    scn = {
        "version": 1,
        "name": "t",
        "genesis": ["r1", "r2", "r3", "r4"],
        "clients": ["c"],
        "adversary": {"corruptions": [
            {"pid": "r1", "script": "silent", "at": 0},
            {"pid": "r2", "script": "silent", "at": 0},
        ]},
    }
    with pytest.raises(ScenarioError, match="fault budget"):
        validate(scn)
    # eras shift the budget: after removing r1 and r2 the remaining pair
    # tolerates nobody, so corrupting a survivor is also rejected
    scn["adversary"]["corruptions"] = [{"pid": "r3", "script": "silent", "at": 0}]
    scn["ops"] = [{"op": "update_config", "client": "c", "remove": ["r1", "r2"], "at": 5}]
    with pytest.raises(ScenarioError, match="fault budget"):
        validate(scn)


def _silent(*pids, at):
    return {"corruptions": [{"pid": p, "script": "silent", "at": at} for p in pids]}


def test_budget_holds_in_every_order_the_updates_can_be_certified_in():
    # u1 and u2 race; if u2's removal is certified first, {r2, r3, r4}
    # tolerates nobody, and r2 is corrupted
    ops = [{"op": "update_config", "client": "u1", "add": ["r5", "r6", "r7"], "at": 0},
           {"op": "update_config", "client": "u2", "remove": ["r1"], "at": 0}]
    with pytest.raises(ScenarioError, match=r"fault budget is 0") as exc:
        scenario.make_scenario("era", 0, ["u1", "u2"], ops, extra_replicas=["r5", "r6", "r7"],
                               adversary=_silent("r2", at=1))
    assert "['r2', 'r3', 'r4']" in str(exc.value)
    # without the corruption every reachable configuration is fine
    scenario.make_scenario("era", 0, ["u1", "u2"], ops, extra_replicas=["r5", "r6", "r7"])


def test_budget_holds_in_the_join_of_a_remove_and_a_re_add():
    # the second update adds r7 back, but a removed replica never returns:
    # the join of both updates is {r1..r6}, whose budget is 1
    ops = [{"op": "update_config", "client": "u", "add": ["r8"], "remove": ["r7"], "at": 0},
           {"op": "update_config", "client": "u", "add": ["r7"], "remove": ["r8"], "after": "op0:done"}]
    genesis = [f"r{i}" for i in range(1, 8)]
    with pytest.raises(ScenarioError, match=r"fault budget is 1") as exc:
        scenario.make_scenario("re-add", 0, ["u"], ops, genesis=genesis, extra_replicas=["r8"],
                               adversary=_silent("r1", "r2", at=5))
    assert "corrupts 2 of ['r1', 'r2', 'r3', 'r4', 'r5', 'r6']" in str(exc.value)


def test_availability_exemptions():
    base = {
        "version": 1,
        "name": "t",
        "genesis": ["r1", "r2", "r3", "r4"],
        "clients": ["c"],
    }
    # an install-fact trigger marks the corruption as hitting a dead era
    scn = dict(base, adversary={"corruptions": [
        {"pid": "r1", "script": "silent", "after": "inst:h5"},
        {"pid": "r2", "script": "silent", "after": "inst:h5"},
    ]})
    validate(scn)


@pytest.mark.parametrize("update", [{"add": ["p"]}, {"remove": ["p"]}])
def test_update_config_cannot_add_or_remove_a_client(update):
    # p would count as a replica of the top configuration, a hub that never answers
    ops = [{"op": "propose", "client": "p", "value": ["a"], "at": 0},
           {"op": "update_config", "client": "u", **update, "after": "op0:done", "offset": 1},
           {"op": "propose", "client": "p", "value": ["b"], "after": "op1:done", "offset": 1}]
    with pytest.raises(ScenarioError, match="ops\\[1\\]: unknown replica 'p'"):
        scenario.make_scenario("client-as-replica", 0, ["p", "u"], ops)


def test_an_install_fact_corruption_counts_against_configurations_from_its_height_on():
    # r2 and r3 go silent once height 5 is installed: {r1..r5} tolerates one
    ops = [{"op": "update_config", "client": "u", "add": ["r5"], "at": 0},
           {"op": "propose", "client": "p", "value": ["b"], "after": "inst:h5", "offset": 5}]

    def build(*pids, after="inst:h5"):
        adversary = {"corruptions": [{"pid": r, "script": "silent", "after": after, "offset": 1} for r in pids]}
        return scenario.make_scenario("late-strike", 0, ["p", "u"], ops, extra_replicas=["r5"], adversary=adversary)

    with pytest.raises(ScenarioError, match=r"fault budget is 1") as exc:
        build("r2", "r3")
    assert "corrupts 2 of ['r1', 'r2', 'r3', 'r4', 'r5']" in str(exc.value)
    # one is within the budget, and no configuration of height 6 is reachable
    build("r2")
    build("r2", "r3", after="inst:h6")
    # a height int() would refuse to read counts against every configuration
    with pytest.raises(ScenarioError, match=r"corrupts 2 of \['r1', 'r2', 'r3', 'r4'\]"):
        build("r2", "r3", after="inst:h" + "9" * 5000)


def test_an_update_that_leaves_no_replica_is_refused():
    ops = [{"op": "update_config", "client": "u", "remove": ["r1", "r2", "r3", "r4"], "at": 0},
           {"op": "propose", "client": "p", "value": ["b"], "after": "op0:done", "offset": 1}]
    with pytest.raises(ScenarioError, match="a configuration with no replicas"):
        scenario.make_scenario("empty", 0, ["p", "u"], ops)
    # an update that keeps one replica is fine
    ops[0]["remove"] = ["r1", "r2", "r3"]
    scenario.make_scenario("one-left", 0, ["p", "u"], ops)


def test_families_all_validate():
    for name, build in FAMILIES.items():
        scn = build(3, 2) if name in ("chain", "ac-pattern") else build(3)
        assert scn["name"]
        assert validate(scn) == scn


# the ACL-gated reconfiguration files: reconfig-dbla under an access-control
# mode and oracle, named by their file stem
ACL_RECONFIG = {
    "acl-admin-reconfig": ({"mode": "admin", "admins": ["d1", "d2", "d3", "d4"]}, "ledger"),
    "acl-sanity-reconfig": ({"mode": "sanity"}, "keychain"),
    "acl-quorum-reconfig": ({"mode": "quorum"}, "ledger"),
}


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
def test_scenario_file_is_its_builders_output(path):
    scn = json.loads(path.read_text())
    stem, seed = path.stem, scn["seed"]
    if stem in ACL_RECONFIG:
        acl, oracle = ACL_RECONFIG[stem]
        built = validate({**FAMILIES["reconfig-dbla"](seed), "acl": acl, "oracle": oracle, "name": stem})
    elif stem.startswith("chain-"):
        built = FAMILIES["chain"](seed, int(stem.split("-")[1]))
    elif stem.startswith("ac-pattern-"):
        built = FAMILIES["ac-pattern"](int(stem.rsplit("-", 1)[1], 2), seed)
    elif stem in ATTACKS:
        built = ATTACKS[stem][0](seed)
    else:
        built = FAMILIES[stem](seed)
    assert scn == built


# -- runner ----------------------------------------------------------------------


def test_smoke_run_quiesces_and_checks_pass():
    rep = run_scenario(FAMILIES["dbla-smoke"](11))
    assert rep.verdict == "quiescent"
    assert all(ok for _, ok, _ in run_checks(rep.bundle()))
    table, _, _ = read_ops(rep.trace, len(rep.scenario["ops"]))
    assert list(table) == list(range(5))
    assert all(row.returned_at is not None for row in table.values())


def test_run_is_deterministic():
    a = run_scenario(FAMILIES["reconfig-dbla"](5))
    b = run_scenario(FAMILIES["reconfig-dbla"](5))
    assert a.hash == b.hash
    assert a.steps == b.steps
    c = run_scenario(FAMILIES["reconfig-dbla"](6))
    assert c.hash != a.hash


def test_reconfig_run_installs_and_audits():
    rep = run_scenario(FAMILIES["reconfig-dbla"](4))
    assert rep.verdict == "quiescent"
    bundle = rep.bundle()
    installs = [l for l in bundle["trace"]
                if l["kind"] == "upcall" and l["desc"] == "install"]
    assert installs, "no install ever happened"
    d = installs[-1]["detail"]
    assert {"h", "cid", "st", "status", "hist"} <= d.keys()
    results = run_checks(bundle)
    assert "safety.key_update_audit" in names(results)
    assert all(ok for _, ok, _ in results)


def test_maxreg_run_checks_pass():
    rep = run_scenario(FAMILIES["reconfig-maxreg"](2))
    results = run_checks(rep.bundle())
    assert passed(results, "safety.maxreg_atomic")
    assert all(ok for _, ok, _ in results)
    assert rep.ops[5].result["v"] == 12


def liveness(rep):
    return next(r for r in run_checks(rep.bundle()) if r[0] == "liveness.all_ops_return")


def test_liveness_skips_the_ops_of_a_corrupted_client():
    # p is corrupted a step after it proposes, so its op never returns; q's
    # corruption is refused while q is idle, and its op still counts
    ops = [{"op": "propose", "client": "p", "value": ["a"], "at": 2},
           {"op": "propose", "client": "q", "value": ["b"], "at": 5}]
    corruptions = [{"pid": "p", "script": "retainer", "at": 3}, {"pid": "q", "script": "silent", "at": 0}]
    rep = run_scenario(scenario.make_scenario("bad-client", 0, ["p", "q"], ops,
                                              adversary={"corruptions": corruptions}))
    assert [(c["pid"], c["applied"]) for c in rep.final["corruptions"]] == [("q", False), ("p", True)]
    assert rep.ops[0].returned_at is None and rep.ops[1].returned_at is not None
    assert liveness(rep) == ("liveness.all_ops_return", True, "1 ops, missing=[], errored=[]")
    # without p's corruption both ops are counted
    rep = run_scenario(scenario.make_scenario("bad-client", 0, ["p", "q"], ops,
                                              adversary={"corruptions": corruptions[1:]}))
    assert liveness(rep) == ("liveness.all_ops_return", True, "2 ops, missing=[], errored=[]")
    assert read_ops(rep.trace, 2)[2] == set()


def test_busy_op_fails_liveness():
    scn = FAMILIES["dbla-smoke"](1, clients=2)
    # same client, same step: the second invoke hits a busy hub
    scn["ops"].append({"op": "propose", "client": "p1", "value": ["dup"], "at": 0})
    rep = run_scenario(validate(scn))
    assert any(op.result == {"error": "busy"} for op in rep.ops)
    assert not passed(run_checks(rep.bundle()), "liveness.all_ops_return")


def test_run_report_ops_are_read_from_the_trace_after_the_run(monkeypatch):
    reads = []
    read = runner.read_ops
    monkeypatch.setattr(runner, "read_ops", lambda trace, count: reads.append(trace) or read(trace, count))
    scn = FAMILIES["dbla-smoke"](1, clients=2)
    scn["ops"].append({"op": "propose", "client": "p1", "value": ["dup"], "at": 0})
    rep = run_scenario(validate(scn))
    assert reads == []
    ops = rep.ops
    assert reads == [rep.trace]
    # an op's spec is its invoke line's detail: the scenario op, less its trigger, and its index
    assert [(op.idx, op.spec) for op in ops] == [
        (i, {"idx": i, **{k: v for k, v in spec.items() if k not in ("at", "after", "offset")}})
        for i, spec in enumerate(rep.scenario["ops"])]
    steps = {(l["kind"], l["detail"]["idx"]): l["step"] for l in rep.trace if l["kind"] in ("invoke", "return")}
    assert [(op.invoked_at, op.returned_at) for op in ops] == [
        (steps["invoke", i], steps["return", i]) for i in range(len(ops))]
    assert ops[2].result == {"error": "busy"}


def test_corrupting_idle_process_is_recorded_not_fatal():
    scn = FAMILIES["dbla-smoke"](3)
    scn["extra_replicas"] = ["r9"]
    scn["adversary"]["corruptions"] = [{"pid": "r9", "script": "silent", "at": 2}]
    rep = run_scenario(validate(scn))
    (rec,) = rep.final["corruptions"]
    assert rec["pid"] == "r9" and rec["applied"] is False
    assert rep.final["statuses"]["r9"] == "I"
    assert all(ok for _, ok, _ in run_checks(rep.bundle()))


def test_unknown_script_rejected():
    scn = FAMILIES["dbla-smoke"](3)
    scn["adversary"]["corruptions"] = [{"pid": "r1", "script": "mystery", "at": 0}]
    with pytest.raises(ScenarioError, match="unknown adversary script"):
        run_scenario(validate(scn))


def test_keychain_oracle_end_to_end():
    scn = FAMILIES["reconfig-dbla"](7)
    scn["oracle"] = "keychain"
    rep = run_scenario(validate(scn))
    assert rep.verdict == "quiescent"
    assert all(ok for _, ok, _ in run_checks(rep.bundle()))


def test_a_keychain_return_writes_each_signature_in_base64_and_verifies_from_a_file(tmp_path):
    scn = FAMILIES["reconfig-dbla"](7)
    scn["oracle"] = "keychain"
    path = tmp_path / "keychain.trace"
    save_trace(path, run_scenario(validate(scn)).bundle())
    loaded = load_trace(path)
    _, r = _last_update(loaded)
    # every quorum signature of the update's DAG is a 64-byte Ed25519
    # signature, written as 88 characters of base64 (128 in hex)
    nodes = [r["cert"], *r["cert"]["shared"]]
    sigs = [s for n in nodes for q in (n["packs"], n["cacks"]) for s in q["sigs"].values()]
    assert sigs and {len(s) for s in sigs} == {88}
    assert {len(base64.b64decode(s)) for s in sigs} == {64}
    # the returned certificate verifies from the file alone, as does every check
    view = checks.rebuild_view(loaded)
    assert view.grp.check_history(value_from_jsonable(r["hist"]), OutputCert.from_jsonable(r["cert"]))
    assert all(ok for _, ok, _ in run_checks(loaded))


# -- a world lives exactly as long as its root -------------------------------------


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees anything while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _update_held_forever(seed):
    # u's confirm round never reaches a replica: its update is still in
    # flight when the run stalls
    scn = FAMILIES["reconfig-dbla"](seed)
    scn["adversary"]["holds"] = [{"frm": ["u"], "desc": "bla.confirm"}]
    return validate(scn)


@pytest.mark.parametrize("build", [FAMILIES["reconfig-dbla"], _update_held_forever])
def test_dropping_the_report_frees_the_world(no_cyclic_gc, build):
    rep = run_scenario(build(0))
    ctx = rep.ctx
    refs = [weakref.ref(x) for x in (ctx.sim, ctx.replicas["r1"], ctx.hubs["u"], ctx.oracle, ctx)]
    del rep, ctx
    assert [r() for r in refs] == [None] * len(refs)


def test_the_world_outlives_its_report(no_cyclic_gc):
    scn = FAMILIES["reconfig-dbla"](0)
    rep = run_scenario(scn)
    expected = (rep.hash, rep.final)
    del rep
    ctx = run_scenario(scn).ctx
    assert (trace_hash(ctx.sim.trace), runner._final(ctx, [])) == expected
    assert all(ctx.oracle.st(r) > 0 for r in ctx.replicas)


def test_an_automaton_kept_without_its_world_cannot_send(no_cyclic_gc):
    rep = run_scenario(FAMILIES["reconfig-dbla"](0))
    r1 = rep.ctx.replicas["r1"]
    del rep
    with pytest.raises(ReferenceError):
        r1.api.send("r2", Msg("xfer.read", "g", {}))


def test_memory_does_not_grow_across_runs_without_the_cyclic_collector(no_cyclic_gc):
    tracemalloc.start()
    try:
        sizes = []
        for seed in range(20):
            run_scenario(FAMILIES["reconfig-dbla"](seed))
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[-1] - sizes[0] <= 0.5 * 2**20


# -- checks against doctored evidence ---------------------------------------------


class CountingList(list):
    """A trace that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("scn", [FAMILIES["reconfig-dbla"](4), FAMILIES["reconfig-maxreg"](2),
                                 FAMILIES["ac-quorum-race"](0), FAMILIES["chain"](0, 2)],
                         ids=lambda scn: scn["name"])
def test_run_checks_reads_the_trace_once(scn):
    bundle = run_scenario(scn).bundle()
    bundle["trace"] = CountingList(bundle["trace"])
    assert all(ok for _, ok, _ in run_checks(bundle))
    assert bundle["trace"].passes == 1


def doctor_return(bundle, idx, fn):
    for line in bundle["trace"]:
        if line["kind"] == "return" and line["detail"]["idx"] == idx:
            fn(line["detail"]["result"])
            return
    raise AssertionError(f"op {idx} has no return line")


def test_forged_output_value_fails_certificate_check():
    rep = run_scenario(FAMILIES["dbla-smoke"](8))
    bundle = rep.bundle()
    doctor_return(bundle, 0, lambda r: r["w"]["set"].append("forged"))
    assert not passed(run_checks(bundle), "safety.certificates_verify")


def test_lying_read_fails_maxreg_check():
    rep = run_scenario(FAMILIES["reconfig-maxreg"](2))
    bundle = rep.bundle()
    doctor_return(bundle, 5, lambda r: r.update(v=1, ack=None))
    assert not passed(run_checks(bundle), "safety.maxreg_atomic")


def test_tampered_ack_signature_fails_certificate_check():
    rep = run_scenario(FAMILIES["reconfig-maxreg"](2))
    bundle = rep.bundle()

    def flip(r):
        sigs = r["ack"]["acks"]["sigs"]
        sigs[sorted(sigs)[0]] = "00" * 8

    doctor_return(bundle, 0, flip)
    assert not passed(run_checks(bundle), "safety.certificates_verify")


def test_conflicting_grants_fail_ac_check():
    rep = run_scenario(FAMILIES["ac-quorum-race"](0))
    bundle = rep.bundle()
    loser = next(op.idx for op in rep.ops if not op.result["granted"])
    winner = next(op for op in rep.ops if op.result["granted"])
    fake = copy.deepcopy(winner.result)
    fake["value"] = "forged"
    doctor_return(bundle, loser, lambda r: r.update(fake))
    assert not passed(run_checks(bundle), "safety.ac_at_most_one")


@pytest.mark.parametrize("scn,idx,edit,check", [
    (FAMILIES["dbla-smoke"](8), 0, lambda r: r.update(w={"set": [["x"]]}), "safety.dbla_outputs"),
    (FAMILIES["reconfig-maxreg"](2), 5, lambda r: r.update(v="12"), "safety.maxreg_atomic"),
    (FAMILIES["ac-pattern"](0b0111), 0, lambda r: r.pop("slot"), "safety.ac_at_most_one"),
], ids=["unhashable-w", "string-read", "grant-without-slot"])
def test_a_return_missing_a_field_its_check_reads_is_a_violation(scn, idx, edit, check):
    bundle = run_scenario(scn).bundle()
    doctor_return(bundle, idx, edit)
    results = {name: (ok, info) for name, ok, info in run_checks(bundle)}
    assert results[check][0] is False and f"{idx}" in results[check][1]


def _set_last(history, cid):
    history[-1] = cid


def _reads_in_turn():
    """reconfig-maxreg with b's read invoked once a's read has returned."""
    scn = FAMILIES["reconfig-maxreg"](2)
    scn["ops"][5]["after"] = "op3:done"
    return scn


def _r2(bundle):
    return bundle["final"]["replicas"]["r2"]


@pytest.mark.parametrize("scn,edit,check,violation", [
    (FAMILIES["dbla-smoke"](8), lambda b: doctor_return(b, 0, lambda r: r["w"]["set"].remove("x0")),
     "safety.dbla_outputs", "(0, 'own value missing')"),
    (FAMILIES["dbla-smoke"](8), lambda b: doctor_return(b, 0, lambda r: r.update(w={"set": ["x0", "y"]})),
     "safety.dbla_outputs", "(0, 1, 'incomparable')"),
    (FAMILIES["dbla-smoke"](8), lambda b: doctor_return(b, 0, lambda r: r.update(w=5)),
     "safety.dbla_outputs", "(0, 'not a set')"),
    (FAMILIES["reconfig-dbla"](1), lambda b: _set_last(b["final"]["replicas"]["r1"]["history"], "forged"),
     "safety.replica_convergence", "('r1', 'r2', 'incomparable histories')"),
    (FAMILIES["reconfig-dbla"](1), lambda b: b["final"]["replicas"]["r1"]["history"].pop(),
     "safety.replica_convergence", "('r1', 'history not fully adopted')"),
    (FAMILIES["reconfig-dbla"](1), lambda b: _r2(b).update(cinst=_r2(b)["history"][0]),
     "safety.replica_convergence", "('r2', 'member did not install the top configuration')"),
    (FAMILIES["reconfig-dbla"](1), lambda b: _longest_install(b)["detail"]["st"].clear(),
     "safety.key_update_audit", "'fresh': 0, 'need': 3}"),
    (FAMILIES["reconfig-dbla"](1), lambda b: _r2(b)["installed"].append("forged"),
     "safety.installs_certified", "('r2', 'forged')"),
    (FAMILIES["reconfig-dbla"](1), lambda b: _r2(b).update(cinst="forged"),
     "safety.installs_certified", "('r2', 'gate out of history')"),
    (_reads_in_turn(), lambda b: doctor_return(b, 5, lambda r: r.update(v=9)),
     "safety.maxreg_atomic", "(3, 5, 'reads went backwards')"),
    (FAMILIES["ac-pattern"](0b0111),
     lambda b: doctor_return(b, 0, lambda r: _flip_sig(r["cert"]["appr"])),
     "safety.certificates_verify", "failed ops: [0]"),
], ids=["own-value-missing", "incomparable-outputs", "not-a-set", "incomparable-histories", "history-not-adopted",
        "top-not-installed", "stale-epoch", "install-in-no-history", "gate-out-of-history", "reads-backwards",
        "grant-cert-fails"])
def test_one_edit_of_a_live_bundle_fires_its_own_branch(scn, edit, check, violation):
    bundle = run_scenario(scn).bundle()
    assert passed(run_checks(bundle), check)
    edit(bundle)
    results = {name: (ok, info) for name, ok, info in run_checks(bundle)}
    assert results[check][0] is False and violation in results[check][1]


def test_the_transfer_bound_checks_every_run_against_its_invoked_updates():
    for scn, k in ((FAMILIES["dbla-smoke"](0), 0), (FAMILIES["reconfig-dbla"](1), 1), (FAMILIES["chain"](0, 2), 2)):
        bundle = run_scenario(scn).bundle()
        results = {name: (ok, info) for name, ok, info in run_checks(bundle)}
        assert results["perf.xfer_targets_linear"][0] and f"k={k}," in results["perf.xfer_targets_linear"][1]
        bundle["final"]["xfer_targets"] = [f"c{i}" for i in range(k + 2)]
        assert not passed(run_checks(bundle), "perf.xfer_targets_linear")


def _longest_install(bundle):
    installs = read_ops(bundle["trace"], len(bundle["scenario"]["ops"]))[1]
    return max(installs, key=lambda l: len(l["detail"]["hist"]))


@pytest.mark.parametrize("edit", ["return", "install", "malformed-return"])
def test_the_history_bound_fails_one_configuration_more_than_k_plus_one(edit):
    bundle = run_scenario(FAMILIES["chain"](0, 2)).bundle()
    results = {name: (ok, info) for name, ok, info in run_checks(bundle)}
    assert results["perf.history_len"][0] and "k=2, " in results["perf.history_len"][1]
    # the chain's last update returns, and some replica installs, a history of exactly k + 1
    (last,) = [l["detail"]["result"] for l in bundle["trace"] if l["kind"] == "return" and l["detail"]["idx"] == 2]
    assert len(last["hist"]["hist"]) == 3 and len(_longest_install(bundle)["detail"]["hist"]) == 3
    if edit == "return":
        doctor_return(bundle, 2, lambda r: r["hist"]["hist"].append(r["hist"]["hist"][-1] + [["+", "r9"]]))
    elif edit == "install":
        hist = _longest_install(bundle)["detail"]["hist"]
        hist.append({**hist[-1], "h": hist[-1]["h"] + 1})
    else:
        doctor_return(bundle, 2, lambda r: r.update(hist=5))
    results = {name: (ok, info) for name, ok, info in run_checks(bundle)}
    assert results["perf.history_len"][0] is False, results["perf.history_len"]


@pytest.mark.parametrize("meta", [{"k": 1000}, None], ids=["k-1000", "deleted"])
def test_the_transfer_bound_ignores_the_scenario_meta(tmp_path, chain3, meta):
    path = tmp_path / "chain3.trace"
    save_trace(path, chain3)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    if meta is None:
        del lines[0]["scenario"]["meta"]
    else:
        lines[0]["scenario"]["meta"] = meta
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))
    r = CliRunner().invoke(cli.main, ["check", "--trace", str(path)])
    assert r.exit_code == 0, r.output
    assert "PASS  perf.xfer_targets_linear  (k=3, " in r.output


def two_joins(seed):
    """u1 adds r5 at step 1 and u2 adds r6 at step 2, between two proposals."""
    return scenario.make_scenario(f"two-joins-{seed}", seed, ["p", "q", "u1", "u2"], [
        {"op": "propose", "client": "p", "value": ["a"], "at": 0},
        {"op": "update_config", "client": "u1", "add": ["r5"], "at": 1},
        {"op": "update_config", "client": "u2", "add": ["r6"], "at": 2},
        {"op": "propose", "client": "q", "value": ["b"], "after": "op2:done", "offset": 1},
    ], extra_replicas=["r5", "r6"])


def test_concurrent_updates_keep_every_bound():
    # an update's returned history can top out above its own target, when
    # the other update's configuration joined it; its certificate covers
    # every step up to that top
    for seed in range(10):
        results = run_checks(run_scenario(two_joins(seed)).bundle())
        assert [(name, info) for name, ok, info in results if not ok] == [], seed


# -- access-control patterns -------------------------------------------------------


def test_ac_majority_pattern_grants_first_seen():
    # three of four replicas see a's request first: a must win
    rep = run_scenario(FAMILIES["ac-pattern"](0b0111))
    assert rep.ops[0].result["granted"] is True
    assert rep.ops[1].result["granted"] is False
    assert passed(run_checks(rep.bundle()), "safety.ac_at_most_one")


def test_ac_split_pattern_denies_both():
    rep = run_scenario(FAMILIES["ac-pattern"](0b0101))
    assert rep.ops[0].result["granted"] is False
    assert rep.ops[1].result["granted"] is False


# -- trace files -------------------------------------------------------------------


def test_trace_roundtrip(tmp_path):
    rep = run_scenario(FAMILIES["reconfig-dbla"](9))
    path = tmp_path / "run.trace"
    save_trace(path, rep.bundle())
    bundle = load_trace(path)
    # the file's sections are the report's fields, and its bundle
    assert bundle.keys() == rep.bundle().keys()
    for section, value in bundle.items():
        assert value == getattr(rep, section) == rep.bundle()[section], section
    # offline: every check reruns from the file alone, signatures included
    assert all(ok for _, ok, _ in run_checks(bundle))


def test_load_trace_checks_each_line_against_one_shape(tmp_path, monkeypatch):
    """load_trace picks an event line's shape from its kind before it checks the line: one fits
    call per line of a stored scenario's trace, and the op and install lines against their own."""
    path = tmp_path / "run.trace"
    save_trace(path, run_scenario(json.loads((SCENARIOS / "reconfig-maxreg.json").read_text())).bundle())
    shapes, fits = [], runner.fits
    monkeypatch.setattr(runner, "fits", lambda line, shape: shapes.append(shape) or fits(line, shape))
    events = load_trace(path)["trace"]
    assert len(shapes) == len(path.read_text().splitlines())
    for key in ("invoke", "return", "install"):
        mine = sum(key == (line["desc"] if line["kind"] == "upcall" else line["kind"]) for line in events)
        assert mine and shapes.count(runner.TRACE_SHAPES["ev:" + key]) == mine, key


def test_trace_file_is_line_json(tmp_path):
    rep = run_scenario(FAMILIES["dbla-smoke"](1))
    path = tmp_path / "run.trace"
    save_trace(path, rep.bundle())
    with open(path) as f:
        lines = [json.loads(l) for l in f]
    assert lines[0]["t"] == "head"
    assert lines[0].keys() == {"t", "format", "version", "scenario", "verdict"}
    assert lines[0]["format"] == "dynbla-trace"
    assert lines[-1]["t"] == "hash"
    assert {l["t"] for l in lines} == {"head", "ev", "final", "ledger", "hash"}


def test_a_head_that_also_carries_a_seed_and_steps_loads_checks_and_replays(tmp_path):
    rep = run_scenario(FAMILIES["reconfig-dbla"](3))
    path = tmp_path / "run.trace"
    save_trace(path, rep.bundle())
    lines = path.read_text().splitlines()
    # earlier writers of this version copied the seed and the step count
    # into the head; the scenario and the events are what is read
    head = {**json.loads(lines[0]), "seed": 999, "steps": "x"}
    path.write_text("\n".join([json.dumps(head), *lines[1:]]) + "\n")
    assert load_trace(path)["steps"] == rep.steps
    for cmd in ("check", "replay"):
        r = CliRunner().invoke(cli.main, [cmd, "--trace", str(path)])
        assert r.exit_code == 0, r.output


@pytest.mark.parametrize("cmd", ["check", "replay"])
def test_a_run_stopped_at_its_cap_loads_at_max_steps_and_passes(tmp_path, cmd):
    # the last event is at max_steps - 1: the file ends at its cap, not past it
    rep = run_scenario({**FAMILIES["reconfig-dbla"](0), "max_steps": 200})
    assert rep.verdict == "cap"
    assert [(op.invoked_at is None, op.returned_at) for op in rep.ops] == [
        (False, 14), (False, 72), (False, 65), (True, None)]
    path = tmp_path / "run.trace"
    save_trace(path, rep.bundle())
    assert load_trace(path)["steps"] == rep.steps == 200
    r = CliRunner().invoke(cli.main, [cmd, "--trace", str(path)])
    if cmd == "replay":
        assert r.exit_code == 0, r.output
        return
    # ops 0-2 return within the cap and op 3 is never invoked: the cap fits
    # the verdict, and liveness counts the op the cap cut off
    assert "PASS  safety.replica_convergence" in r.output
    fails = [l for l in r.output.splitlines() if l.startswith("FAIL")]
    assert fails == ["FAIL  liveness.all_ops_return  (4 ops, missing=[3], errored=[])"], r.output
    assert r.exit_code == 1


def test_truncated_trace_rejected(tmp_path):
    rep = run_scenario(FAMILIES["dbla-smoke"](1))
    path = tmp_path / "run.trace"
    save_trace(path, rep.bundle())
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-2]) + "\n")
    with pytest.raises(ValueError, match="missing sections"):
        load_trace(path)


def test_trace_of_another_version_rejected(tmp_path):
    rep = run_scenario(FAMILIES["dbla-smoke"](1))
    path = tmp_path / "run.trace"
    save_trace(path, rep.bundle())
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["version"] == 8
    # version 2 signed certificates over another encoding, version 3 spells
    # out every copy of a nested certificate, version 4 writes history
    # inputs as sets of configurations, version 5 tells a nested
    # certificate from a token by the token's content, version 6 spells
    # out every signature and configuration, and version 7 writes
    # signatures in hex: all are refused too
    for old in (1, 2, 3, 4, 5, 6, 7):
        path.write_text("\n".join([json.dumps({**head, "version": old}), *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match=f"version {old}"):
            load_trace(path)
        # the commands end in the error exit instead of reporting false verdicts
        for cmd in ("check", "replay"):
            r = CliRunner().invoke(cli.main, [cmd, "--trace", str(path)])
            assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
            assert f"version {old}" in r.output
            assert "PASS" not in r.output and "FAIL" not in r.output


def _first(lines, kind):
    return next(l for l in lines if l.get("kind") == kind)


def _section(lines, t):
    return next(l for l in lines if l.get("t") == t)


def _install(lines):
    return next(l for l in lines if l.get("kind") == "upcall" and l.get("desc") == "install")


def _genesis_only(lines):
    """Every replica's final history edited to genesis alone, with nothing installed."""
    for f in _section(lines, "final")["replicas"].values():
        g = f["history"][0]
        f.update(history=[g], heights=f["heights"][:1], installed=[], ccurr=g, cinst=g, chighest=g)


# Each doctor edits a saved dbla-smoke trace's parsed lines in place (a
# reconfig-dbla one where it edits an install upcall): into a file that
# load_trace refuses, or into lines that check refuses or fails.
UNREADABLE = {
    "version-3-head": lambda lines: lines[0].update(version=3),
    "head-without-scenario": lambda lines: lines[0].pop("scenario"),
    "list-line": lambda lines: lines.insert(1, [1, 2]),
    "replica-final-without-history": lambda lines: _section(lines, "final")["replicas"]["r1"].pop("history"),
    "event-st-not-a-str": lambda lines: _section(lines, "ev").update(st=5),
    # each section once, in the order head, ev*, final, ledger, hash
    "line-of-unknown-section": lambda lines: lines.insert(1, {"t": "note"}),
    "final-appended-after-hash": lambda lines: lines.append(
        {**_section(lines, "final"), "xfer_targets": ["x"]}),
    "second-head": lambda lines: lines.insert(1, dict(lines[0])),
    "ev-after-final": lambda lines: lines.insert(-2, dict(_section(lines, "ev"))),
}
MALFORMED_OPS = {
    "list-result": lambda lines: _first(lines, "return")["detail"].update(result=[1, 2]),
    "event-without-kind": lambda lines: _first(lines, "invoke").pop("kind"),
    "return-without-idx": lambda lines: _first(lines, "return")["detail"].pop("idx"),
    "empty-list-cert": lambda lines: _first(lines, "return")["detail"]["result"].update(cert=[]),
    "final-without-replicas": lambda lines: _section(lines, "final").pop("replicas"),
    "propose-return-without-w": lambda lines: _first(lines, "return")["detail"]["result"].pop("w"),
    "head-scenario-without-genesis": lambda lines: lines[0]["scenario"].pop("genesis"),
    "ledger-entries-not-a-list": lambda lines: _section(lines, "ledger").update(entries=5),
    "install-without-st": lambda lines: _install(lines)["detail"].pop("st"),
    "install-hist-not-a-list": lambda lines: _install(lines)["detail"].update(hist=5),
    # the key-update audit reads the line's step only at a stale epoch
    "stale-install-without-step": lambda lines: (
        _install(lines).pop("step"), _install(lines)["detail"].update(st={})),
    "final-genesis-only": _genesis_only,
    "verdict-cap": lambda lines: lines[0].update(verdict="cap"),
    # a run stops at its cap, so no run writes an event at or past max_steps
    "events-past-max-steps": lambda lines: lines[0]["scenario"].update(
        max_steps=[l for l in lines if l.get("t") == "ev"][-1]["step"]),
}
ON_RECONFIG = {"install-without-st", "install-hist-not-a-list", "stale-install-without-step", "final-genesis-only"}
# What check prints for the doctors whose lines it reads; the rest end in
# the error exit.
MALFORMED_FAILS = {
    "empty-list-cert": "FAIL  safety.certificates_verify  (failed ops: [",
    "propose-return-without-w": "'malformed')",
    "final-genesis-only": "FAIL  safety.installs_certified  (violations: [('r1', ",
    "verdict-cap": "FAIL  safety.replica_convergence  (violations: [('head', 'verdict cap at steps=",
    "events-past-max-steps": "FAIL  safety.replica_convergence  (violations: [('head', 'verdict quiescent at steps=",
}


def _saved_lines(tmp_path_factory, family):
    path = tmp_path_factory.mktemp(family) / "run.trace"
    save_trace(path, run_scenario(FAMILIES[family](0)).bundle())
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def smoke_lines(tmp_path_factory):
    return _saved_lines(tmp_path_factory, "dbla-smoke")


@pytest.fixture(scope="module")
def reconfig_lines(tmp_path_factory):
    return _saved_lines(tmp_path_factory, "reconfig-dbla")


def _doctored(tmp_path, smoke_lines, doctor):
    lines = [json.loads(l) for l in smoke_lines]
    doctor(lines)
    path = tmp_path / "bad.trace"
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))
    return str(path)


@pytest.mark.parametrize("cmd", ["check", "replay"])
@pytest.mark.parametrize("doctor", list(UNREADABLE))
def test_an_unreadable_trace_file_ends_in_the_error_exit(tmp_path, smoke_lines, doctor, cmd):
    r = CliRunner().invoke(cli.main, [cmd, "--trace", _doctored(tmp_path, smoke_lines, UNREADABLE[doctor])])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert r.output.startswith("Error: ") and "PASS" not in r.output


def _nested(depth):
    v = []
    for _ in range(depth):
        v = [v]
    return v


def _deep_head(lines):
    head = json.loads(lines[0])
    head["scenario"]["meta"] = _nested(600)
    return [json.dumps(head).encode(), *lines[1:]]


# Each edits a saved dbla-smoke trace's lines, as bytes, into a file that
# json cannot read: a line that is not UTF-8, a line nested past the
# recursion limit, and a head scenario nested past validate's bound.
UNDECODABLE = {
    "not-utf-8": lambda lines: [b"\xff\xfe\x00" + lines[0], *lines[1:]],
    "nested-5000-deep": lambda lines: [lines[0], b"[" * 5000 + b"]" * 5000, *lines[1:]],
    "head-scenario-nested-600-deep": _deep_head,
}


@pytest.mark.parametrize("cmd", ["check", "replay"])
@pytest.mark.parametrize("doctor", list(UNDECODABLE))
def test_a_trace_file_json_cannot_read_ends_in_the_error_exit(tmp_path, smoke_lines, doctor, cmd):
    path = tmp_path / "bad.trace"
    path.write_bytes(b"".join(l + b"\n" for l in UNDECODABLE[doctor]([l.encode() for l in smoke_lines])))
    r = CliRunner().invoke(cli.main, [cmd, "--trace", str(path)])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert r.output.startswith("Error: ")
    assert not any(word in r.output for word in ("PASS", "FAIL", "Traceback")), r.output


@pytest.mark.parametrize("doctor", list(MALFORMED_OPS))
def test_malformed_op_lines_end_check_in_the_error_exit_or_a_fail(tmp_path, request, doctor):
    lines = request.getfixturevalue("reconfig_lines" if doctor in ON_RECONFIG else "smoke_lines")
    r = CliRunner().invoke(cli.main, ["check", "--trace", _doctored(tmp_path, lines, MALFORMED_OPS[doctor])])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    if doctor in MALFORMED_FAILS:
        assert MALFORMED_FAILS[doctor] in r.output and "Traceback" not in r.output
    else:
        assert r.output.startswith("Error: ") and "PASS" not in r.output


@pytest.mark.parametrize("oracle", ["ledger", "keychain"])
@pytest.mark.parametrize("acl", [{"mode": "sanity"}, {"mode": "quorum"},
                                 {"mode": "admin", "admins": ["d1", "d2", "d3", "d4"]}],
                         ids=lambda acl: acl["mode"])
@pytest.mark.parametrize("seed", range(6))
def test_acl_gated_reconfiguration_passes_every_check_live_and_from_file(tmp_path, seed, acl, oracle):
    # the update's configuration input is certified by access control, so
    # its returned certificate carries an AcCert that the file must restore
    rep = run_scenario({**FAMILIES["reconfig-dbla"](seed), "acl": acl, "oracle": oracle})
    (update,) = [op.result for op in rep.ops if op.spec["op"] == "update_config"]
    assert "denied" not in update and '"ackind"' in json.dumps(update["cert"])
    assert [name for name, ok, _ in run_checks(rep.bundle()) if not ok] == []
    path = tmp_path / "run.trace"
    save_trace(path, rep.bundle())
    assert [name for name, ok, _ in run_checks(load_trace(path)) if not ok] == []


def _member_flip(lines):
    """Every replica's member flipped and every transfer target dropped:
    a final that no check reads against the events."""
    final = _section(lines, "final")
    final["xfer_targets"] = []
    for f in final["replicas"].values():
        f.update(member=not f["member"], xfer_targets=[])


def test_a_final_no_check_reads_passes_check_but_not_replay(tmp_path, smoke_lines):
    path = _doctored(tmp_path, smoke_lines, _member_flip)
    assert CliRunner().invoke(cli.main, ["check", "--trace", path]).exit_code == 0
    r = CliRunner().invoke(cli.main, ["replay", "--trace", path])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert "PASS  replay.deterministic" in r.output
    assert "FAIL  replay.sections_equal" in r.output and "differ: ['final']" in r.output


@pytest.mark.parametrize("doctor, differ", [("verdict-cap", "['verdict']"), ("final-genesis-only", "['final']"),
                                            ("events-past-max-steps", "['verdict', 'steps', 'final', 'hash']")])
def test_replay_fails_an_edited_verdict_or_final(tmp_path, request, doctor, differ):
    lines = request.getfixturevalue("reconfig_lines" if doctor in ON_RECONFIG else "smoke_lines")
    r = CliRunner().invoke(cli.main, ["replay", "--trace", _doctored(tmp_path, lines, MALFORMED_OPS[doctor])])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert f"differ: {differ}" in r.output and "Traceback" not in r.output


def test_replay_reproduces_hash(tmp_path):
    rep = run_scenario(FAMILIES["reconfig-maxreg"](13))
    path = tmp_path / "run.trace"
    save_trace(path, rep.bundle())
    bundle = load_trace(path)
    again = run_scenario(bundle["scenario"])
    assert again.hash == bundle["hash"]


# -- attacks -----------------------------------------------------------------------


@pytest.mark.parametrize("oracle", ["ledger", "keychain"])
@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_attack_verifies(name, oracle):
    build, verify = ATTACKS[name]
    rep = run_scenario(validate({**build(5), "oracle": oracle}))
    signed = len(rep.ctx.oracle.ledger)
    results = verify(rep)
    for n, ok, info in results:
        assert ok, f"{name}: {n}: {info}"
    # verifying signs nothing
    assert len(rep.ctx.oracle.ledger) == signed
    # the standard safety checks hold under attack too
    assert all(ok for _, ok, _ in run_checks(rep.bundle()))


NEVER_ERASED_FAILS = {
    "slow-reader-dbla": {"attack.retained_keys_below_quorum"},
    "slow-reader-maxreg": {"attack.retained_keys_below_quorum"},
    "i-still-work-here": {"attack.old_keys_all_dead", "attack.stale_client_rescued",
                          "attack.values_carried_over"},
}


@pytest.mark.parametrize("oracle", ["ledger", "keychain"])
@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_attack_verifier_detects_keys_never_erased(name, oracle, monkeypatch):
    # no replica ever moves its watermark, so every retired key still signs
    monkeypatch.setattr(_FsOracleBase, "update_fs_keys", lambda self, pid, ts: None)
    build, verify = ATTACKS[name]
    rep = run_scenario(validate({**build(0), "oracle": oracle}))
    failed = {n for n, ok, _ in verify(rep) if not ok}
    assert failed == NEVER_ERASED_FAILS[name]


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_attack_verifier_reads_the_trace_once(name):
    build, verify = ATTACKS[name]
    rep = run_scenario(build(0))
    rep.trace = CountingList(rep.trace)
    assert all(ok for _, ok, _ in verify(rep))
    assert rep.trace.passes == 1


def test_retainer_junk_signature_rejected():
    from dynbla.fscrypto import LedgerFsOracle
    oracle = LedgerFsOracle()
    oracle.register("r1")
    sig = attacks._junk("r1", 4)
    assert not oracle.fs_verify(b"payload", "r1", sig, 4)


def test_attack_trace_checks_offline(tmp_path):
    build, _ = ATTACKS["slow-reader-dbla"]
    rep = run_scenario(build(2))
    path = tmp_path / "atk.trace"
    save_trace(path, rep.bundle())
    assert all(ok for _, ok, _ in run_checks(load_trace(path)))


# -- cli ---------------------------------------------------------------------------


def test_cli_run_family(tmp_path):
    out = tmp_path / "run.trace"
    r = CliRunner().invoke(cli.main, ["run", "--family", "dbla-smoke", "--seed", "4",
                                      "--trace", str(out)])
    assert r.exit_code == 0, r.output
    assert "PASS" in r.output and "FAIL" not in r.output
    assert out.exists()


@pytest.mark.parametrize("args", [["run", "--seed", "0"], ["sweep", "--seeds", "1"]], ids=["run", "sweep"])
def test_cli_chain_without_k_is_a_usage_error(args):
    r = CliRunner().invoke(cli.main, [*args, "--family", "chain"])
    assert r.exit_code == 2, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "--k" in r.output


@pytest.mark.parametrize("args,msg", [
    (["run", "--scenario", str(SCENARIOS / "dbla-smoke.json"), "--family", "chain"], "not both"),
    (["run"], "need --scenario FILE or --family NAME"),
    (["run", "--family", "paxos"], "unknown family 'paxos'"),
    (["sweep", "--family", "paxos"], "unknown family 'paxos'"),
], ids=["scenario-and-family", "neither", "run-unknown-family", "sweep-unknown-family"])
def test_cli_usage_errors(args, msg):
    r = CliRunner().invoke(cli.main, args)
    assert r.exit_code == 2 and isinstance(r.exception, SystemExit), r.output
    assert msg in r.output


@pytest.mark.parametrize("family,k,meta", [("chain", 2, {}), ("ac-pattern", 5, {"mask": 5})])
def test_cli_run_family_with_k(tmp_path, family, k, meta):
    out = tmp_path / "run.trace"
    r = CliRunner().invoke(cli.main, ["run", "--family", family, "--k", str(k), "--trace", str(out)])
    assert r.exit_code == 0 and "FAIL" not in r.output, r.output
    scn = load_trace(out)["scenario"]
    assert scn["meta"] == meta
    assert family != "chain" or scn["extra_replicas"] == ["r5", "r6"]


def test_cli_sweep_reports_each_failing_seed(monkeypatch):
    def failing_on_seed_1(bundle):
        return [("x.seed_not_1", bundle["scenario"]["seed"] != 1, "")]
    monkeypatch.setattr(cli, "run_checks", failing_on_seed_1)
    r = CliRunner().invoke(cli.main, ["sweep", "--family", "dbla-smoke", "--seeds", "3"])
    assert r.exit_code == 1, r.output
    assert r.output.splitlines() == ["seed 1: FAIL ['x.seed_not_1']", "dbla-smoke: 2/3 seeds clean"]


def test_cli_attack_trace_checks_offline(tmp_path):
    out = tmp_path / "atk.trace"
    rr = CliRunner()
    r = rr.invoke(cli.main, ["attack", "--name", "slow-reader-maxreg", "--seed", "1", "--trace", str(out)])
    assert r.exit_code == 0 and "FAIL" not in r.output, r.output
    r = rr.invoke(cli.main, ["check", "--trace", str(out)])
    assert r.exit_code == 0 and "PASS  trace.hash_consistent" in r.output, r.output


def test_cli_run_scenario_file_seed_override(tmp_path):
    out = tmp_path / "run.trace"
    r = CliRunner().invoke(cli.main, ["run", "--scenario", str(SCENARIOS / "dbla-smoke.json"),
                                      "--seed", "99", "--trace", str(out)])
    assert r.exit_code == 0, r.output
    head = json.loads(out.read_text().splitlines()[0])
    assert head["scenario"]["seed"] == 99
    assert "seed" not in head and "steps" not in head


def test_cli_run_scenario_file_negative_seed_is_refused(tmp_path):
    out = tmp_path / "run.trace"
    r = CliRunner().invoke(cli.main, ["run", "--scenario", str(SCENARIOS / "dbla-smoke.json"),
                                      "--seed", "-1", "--trace", str(out)])
    assert r.exit_code != 0
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "seed must be a non-negative int" in r.output
    assert not out.exists()


def _negative_seed_replay(tmp_path):
    path = tmp_path / "run.trace"
    save_trace(path, run_scenario(FAMILIES["dbla-smoke"](0)).bundle())
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["scenario"]["seed"] = -1
    path.write_text("\n".join([json.dumps(head), *lines[1:]]) + "\n")
    return ["replay", "--trace", str(path)]


@pytest.mark.parametrize("args", [
    lambda tmp_path: ["sweep", "--family", "dbla-smoke", "--seeds", "1", "--start", "-1"],
    lambda tmp_path: ["attack", "--name", "i-still-work-here", "--seed", "-1"],
    _negative_seed_replay,
], ids=["sweep", "attack", "replay"])
def test_cli_invalid_scenario_is_an_error_exit(tmp_path, args):
    r = CliRunner().invoke(cli.main, args(tmp_path))
    assert r.exit_code == 1, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "Error: seed must be a non-negative int" in r.output


@pytest.mark.parametrize("raw", [
    b'{"version": 1',
    b"\xff\xfe{}",
    b"[" * 5000 + b"]" * 5000,
    json.dumps({**FAMILIES["dbla-smoke"](0), "meta": _nested(600)}).encode(),
], ids=["not-json", "not-utf-8", "nested-5000-deep", "meta-nested-600-deep"])
def test_cli_run_of_a_scenario_file_json_cannot_read_is_an_error_exit(tmp_path, raw):
    p = tmp_path / "scn.json"
    p.write_bytes(raw)
    r = CliRunner().invoke(cli.main, ["run", "--scenario", str(p)])
    assert r.exit_code == 1 and isinstance(r.exception, SystemExit), r.output
    assert r.output.startswith("Error: ") and len(r.output.splitlines()) == 1, r.output


def test_an_op_whose_trigger_never_fires_fails_liveness(tmp_path):
    # op 1 waits for an install of height 9, which a run without updates never makes
    scn = validate({"version": 1, "name": "stalled", "genesis": ["r1", "r2", "r3", "r4"], "clients": ["p"],
                    "ops": [{"op": "propose", "client": "p", "value": ["a"], "at": 0},
                            {"op": "propose", "client": "p", "value": ["b"], "after": "inst:h9"}]})
    rep = run_scenario(scn)
    assert rep.verdict == "stalled"
    assert rep.ops[0].returned_at is not None and rep.ops[1].invoked_at is None
    results = {n: (ok, info) for n, ok, info in run_checks(rep.bundle())}
    assert results.pop("liveness.all_ops_return") == (False, "2 ops, missing=[1], errored=[]")
    assert all(ok for ok, _ in results.values()), results
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    r = CliRunner().invoke(cli.main, ["run", "--scenario", str(p)])
    assert r.exit_code == 1 and "FAIL  liveness.all_ops_return  (2 ops, missing=[1], errored=[])" in r.output


def test_cli_run_scenario_file(tmp_path):
    scn = FAMILIES["reconfig-dbla"](3)
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    r = CliRunner().invoke(cli.main, ["run", "--scenario", str(p)])
    assert r.exit_code == 0, r.output


def test_cli_check_and_replay(tmp_path):
    out = tmp_path / "run.trace"
    rr = CliRunner()
    assert rr.invoke(cli.main, ["run", "--family", "reconfig-maxreg", "--seed", "2",
                                "--trace", str(out)]).exit_code == 0
    r = rr.invoke(cli.main, ["check", "--trace", str(out)])
    assert r.exit_code == 0, r.output
    assert "trace.hash_consistent" in r.output
    r = rr.invoke(cli.main, ["replay", "--trace", str(out)])
    assert r.exit_code == 0, r.output


def test_cli_check_detects_tampering(tmp_path):
    out = tmp_path / "run.trace"
    rr = CliRunner()
    rr.invoke(cli.main, ["run", "--family", "dbla-smoke", "--seed", "4",
                         "--trace", str(out)])
    lines = out.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if '"t": "ev"' in l or '"t":"ev"' in l)
    lines[idx] = lines[idx].replace('"step": 0', '"step": 7')
    out.write_text("\n".join(lines) + "\n")
    r = rr.invoke(cli.main, ["check", "--trace", str(out)])
    assert r.exit_code != 0
    assert "trace.hash_consistent" in r.output


def test_cli_attack():
    r = CliRunner().invoke(cli.main, ["attack", "--name", "i-still-work-here",
                                      "--seed", "1"])
    assert r.exit_code == 0, r.output
    assert "attack.old_keys_all_dead" in r.output


def test_cli_sweep():
    r = CliRunner().invoke(cli.main, ["sweep", "--family", "dbla-smoke", "--seeds", "3"])
    assert r.exit_code == 0, r.output
    assert "3/3" in r.output


def test_cli_families():
    r = CliRunner().invoke(cli.main, ["families"])
    assert r.exit_code == 0
    for name in FAMILIES:
        assert name in r.output


# -- certificates as a Merkle DAG ------------------------------------------------


def _last_update(bundle):
    """(op index, result) of the run's last update_config return."""
    ops = read_ops(bundle["trace"], len(bundle["scenario"]["ops"]))[0].values()
    last = [op for op in ops if op.spec["op"] == "update_config"][-1]
    return last.idx, last.result


def _dag(cert):
    """The distinct certificates reachable from cert, keyed by canon()."""
    seen = {}
    stack = [cert]
    while stack:
        c = stack.pop()
        if c.canon() not in seen:
            seen[c.canon()] = c
            stack += [n for n in (*(iv.cert for iv in c.values), c.hist_cert) if isinstance(n, OutputCert)]
    return seen


def _flip_sig(quorum):
    """Flip one bit of the first signer's signature in a quorum's JSON."""
    sigs = quorum["sigs"]
    pid = sorted(sigs)[0]
    data = base64.b64decode(sigs[pid])
    sigs[pid] = base64.b64encode(bytes([data[0] ^ 1]) + data[1:]).decode()


def _below(cert, node):
    """The shared entry of the returned certificate cert that node, the root
    or an entry of it, names as its history certificate."""
    return cert["shared"][node["href"]]


def _spelled_out(cert):
    """cert's JSON with a shared entry of its own for every place a nested
    certificate is named, still in post-order: each copy written out once
    per path instead of once."""
    shared = []

    def copy_of(node):
        out = {k: v for k, v in node.items() if k != "shared"}
        out["values"] = [named(v, "r") for v in node["values"]]
        return named(out, "href")

    def named(slot, key):
        if key not in slot:
            return slot
        shared.append(copy_of(cert["shared"][slot[key]]))
        return {**slot, key: len(shared) - 1}

    return {**copy_of(cert), "shared": shared}


@pytest.fixture(scope="module")
def chain3():
    return run_scenario(FAMILIES["chain"](0, 3)).bundle()


def test_certificate_frame_commits_to_nested_certificates(chain3):
    _, r = _last_update(chain3)
    top = OutputCert.from_jsonable(r["cert"])
    assert all(len(c.canon()) == 37 and c.canon()[:1] == b"O" for c in _dag(top).values())

    def verifies(cert_json):
        view = checks.rebuild_view(chain3)
        return view.grp.check_history(value_from_jsonable(r["hist"]), OutputCert.from_jsonable(cert_json))

    assert verifies(r["cert"])
    # one signature of the history certificate two levels down, a shared
    # entry that more than one node names
    sig = copy.deepcopy(r["cert"])
    _flip_sig(_below(sig, _below(sig, sig))["packs"])
    # one configuration input of the configuration certificate two levels
    # down, renamed as another configuration of the table
    val = copy.deepcopy(r["cert"])
    below = _below(val, val)
    conf_cert = next(val["shared"][iv["r"]] for iv in below["values"] if "r" in iv)
    iv = next(iv for iv in conf_cert["values"] if "cfg" in iv["v"])
    cid = iv["v"]["cfg"]
    iv["v"] = {"cfg": next(c for c in val["cfgs"] if c != cid)}
    for bad in (sig, val):
        assert OutputCert.from_jsonable(bad).canon() != top.canon()
        assert not verifies(bad)
    # and that configuration's own table entry, edited, is refused
    entry = copy.deepcopy(r["cert"])
    entry["cfgs"][cid] = [*entry["cfgs"][cid], ["+", "r99"]]
    with pytest.raises(ValueError, match=cid):
        OutputCert.from_jsonable(entry)


def test_certificate_dag_grows_polynomially_and_so_does_its_json():
    ks = range(1, 7)
    nodes, written, largest, total, json_bytes = [], [], [], [], []
    for k in ks:
        _, r = _last_update(run_scenario(FAMILIES["chain"](0, k)).bundle())
        bodies = [len(c.node()) for c in _dag(OutputCert.from_jsonable(r["cert"])).values()]
        nodes.append(len(bodies))
        written.append(1 + len(r["cert"]["shared"]))
        largest.append(max(bodies))
        total.append(sum(bodies))
        json_bytes.append(len(json.dumps(r["cert"], sort_keys=True, separators=(",", ":"))))
    # one configuration and one history certificate per reconfiguration,
    # and the JSON writes each of them once
    assert nodes == written == [2 * k for k in ks]
    # a node body holds its own history and quorums, and only the frames of
    # the nodes below it; the chain adds a replica per reconfiguration, so
    # bodies grow linearly and their sum at most quadratically
    assert all(largest[k - 1] <= largest[0] * k for k in ks)
    assert all(total[k - 1] <= total[0] * k * k for k in ks)
    # so does the JSON, which writes each node once and names it by index
    assert all(json_bytes[k - 1] <= json_bytes[0] * k * k for k in ks)


def test_loaded_trace_checks_each_return_on_its_own(tmp_path, chain3):
    path = tmp_path / "chain3.trace"
    save_trace(path, chain3)
    loaded = load_trace(path)
    assert run_checks(loaded) == run_checks(chain3)
    assert all(ok for _, ok, _ in run_checks(loaded))
    # other returns hold their own untampered copies of the same
    # sub-certificate, which here is a shared entry of this return
    idx, r = _last_update(loaded)
    _flip_sig(_below(r["cert"], _below(r["cert"], r["cert"]))["packs"])
    results = {n: (ok, info) for n, ok, info in run_checks(loaded)}
    assert results["safety.certificates_verify"] == (False, f"failed ops: [{idx}]")
    assert all(ok for n, (ok, _) in results.items() if n != "safety.certificates_verify")


def test_a_live_bundle_decodes_each_node_once_and_a_loaded_one_return_by_return(tmp_path, chain3, monkeypatch):
    path = tmp_path / "chain3.trace"
    save_trace(path, chain3)
    dags = [_dag(OutputCert.from_jsonable(op.result["cert"])).keys()
            for op in read_ops(chain3["trace"], len(chain3["scenario"]["ops"]))[0].values()
            if op.spec["op"] in ("propose", "update_config")]
    built = []
    init = OutputCert.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(OutputCert, "__init__", counting)
    for bundle, decoded in ((chain3, len(set().union(*dags))), (load_trace(path), sum(map(len, dags)))):
        built.clear()
        view = checks.rebuild_view(bundle)
        assert checks.check_certificates(bundle, view)[1]
        assert len(built) == decoded


def test_check_certificates_decodes_each_configuration_once_live_or_loaded(tmp_path, monkeypatch):
    # the decode memo keys a configuration by its verified cid, which a
    # loaded trace's returns share as a live bundle's do
    bundle = run_scenario(FAMILIES["chain"](0, 10)).bundle()
    path = tmp_path / "chain10.trace"
    save_trace(path, bundle)
    cids = set().union(*[op.result["cert"]["cfgs"]
                         for op in read_ops(bundle["trace"], len(bundle["scenario"]["ops"]))[0].values()
                         if op.spec["op"] in ("propose", "update_config")])
    built = []
    from_jsonable = Config.from_jsonable.__func__

    def counting(cls, data):
        config = from_jsonable(cls, data)
        built.append(config.cid())
        return config

    monkeypatch.setattr(Config, "from_jsonable", classmethod(counting))
    for checked in (bundle, load_trace(path)):
        built.clear()
        view = checks.rebuild_view(checked)
        assert checks.check_certificates(checked, view)[1]
        assert sorted(built) == sorted(cids)


def test_a_copied_node_that_names_another_history_certificate_fails(chain3):
    # the decode memo keys a live node by its fields' objects and by what it
    # names, so a copy that keeps the fields and swaps what it names is
    # decoded anew
    bundle = copy.deepcopy(chain3)
    idx, r = _last_update(bundle)
    below = {k: v for k, v in _below(r["cert"], r["cert"]).items() if k != "href"}
    r["cert"]["shared"][r["cert"]["href"]] = {**below, "hcert": {"kind": "genesis"}}
    results = {name: (ok, info) for name, ok, info in run_checks(bundle)}
    assert results["safety.certificates_verify"] == (False, f"failed ops: [{idx}]")


# an index must name an earlier shared entry by an exact int, under a value's
# "r" or a node's "href"; the doctored index is the root's or that of the last
# shared entry that has the key, "own" and "len" stand for that entry's own
# index and the shared table's length, and "none" for a slot left with none
# of its keys
@pytest.mark.parametrize("key", ["r", "href"])
@pytest.mark.parametrize("where,ref", [
    ("root", "len"), ("root", -1), ("root", "none"),
    ("entry", "own"), ("entry", "len"), ("entry", -1), ("entry", True), ("entry", 0.0), ("entry", "0"), ("entry", None),
    ("entry", "none"),
])
def test_a_bad_ref_fails_only_its_op(chain3, key, where, ref):
    bundle = copy.deepcopy(chain3)
    idx, r = _last_update(bundle)
    cert = r["cert"]
    own = max(i for i, e in enumerate(cert["shared"]) if key in e or any(key in v for v in e["values"]))
    node = cert if where == "root" else cert["shared"][own]
    slot = node if key == "href" else next(v for v in node["values"] if key in v)
    if ref == "none":
        del slot[key]
    else:
        slot[key] = {"own": own, "len": len(cert["shared"])}.get(ref, ref)
    _fails_only(bundle, idx)


def _fails_only(bundle, idx):
    """Op idx, and nothing else, fails the bundle's checks."""
    results = {name: (ok, info) for name, ok, info in run_checks(bundle)}
    assert results["safety.certificates_verify"] == (False, f"failed ops: [{idx}]")
    assert all(ok for name, (ok, _) in results.items() if name != "safety.certificates_verify")


# the genesis configuration's "cfgs" entry, which nodes decoded from earlier
# returns name too: under a key that is not its cid, gone, under a non-str
# key, or hex where the configuration's updates belong
@pytest.mark.parametrize("edit", [
    lambda cfgs, cid: cfgs.update({"0" * 12: cfgs.pop(cid)}),
    lambda cfgs, cid: cfgs.pop(cid),
    lambda cfgs, cid: cfgs.update({7: cfgs.pop(cid)}),
    lambda cfgs, cid: cfgs.update({cid: "ab" * 6}),
], ids=["wrong-key", "missing-cid", "non-str-key", "hex-entry"])
def test_a_bad_cfgs_entry_fails_only_its_op(chain3, edit):
    bundle = copy.deepcopy(chain3)
    idx, r = _last_update(bundle)
    edit(r["cert"]["cfgs"], r["cert"]["hist"][0])
    _fails_only(bundle, idx)


B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


# the first signature of the root's packs, 32 bytes written as 43 characters
# and one "=", doctored: left in hex (which the alphabet reads, as other
# bytes), without its "=", with a character outside the alphabet that a
# lenient decoder skips, with a nonzero trailing bit that a lenient decoder
# drops, or as a non-str
@pytest.mark.parametrize("edit", [
    lambda s: base64.b64decode(s).hex(),
    lambda s: s[:-1],
    lambda s: s[:1] + "*" + s[1:],
    lambda s: s[:-2] + B64[B64.index(s[-2]) | 1] + "=",
    lambda s: int.from_bytes(base64.b64decode(s), "big"),
], ids=["hex", "missing-pad", "non-alphabet", "trailing-bits", "non-str"])
def test_a_doctored_signature_string_fails_only_its_op(chain3, edit):
    bundle = copy.deepcopy(chain3)
    idx, r = _last_update(bundle)
    # a copy: a live bundle's later returns share this node's JSON objects
    packs = r["cert"]["packs"] = copy.deepcopy(r["cert"]["packs"])
    sigs = packs["sigs"]
    pid = sorted(sigs)[0]
    assert sigs[pid].endswith("=") and not sigs[pid].endswith("==")
    sigs[pid] = edit(sigs[pid])
    _fails_only(bundle, idx)


def test_duplicate_shared_entries_verify_but_break_the_node_bound(chain3):
    bundle = copy.deepcopy(chain3)
    idx, r = _last_update(bundle)
    written = len(r["cert"]["shared"])
    r["cert"] = _spelled_out(r["cert"])
    assert len(r["cert"]["shared"]) > written
    results = {name: (ok, info) for name, ok, info in run_checks(bundle)}
    assert results["safety.certificates_verify"][0]
    ok, info = results["perf.cert_nodes_linear"]
    assert not ok and f"[({idx}, " in info
    assert all(ok for name, (ok, _) in results.items() if name != "perf.cert_nodes_linear")


# tokens that read like a certificate written by an encoding that tells a
# certificate's kind by a token's content: a shared reference, an inline
# node and an access grant
PLANTED = [{"kind": "ocert", "ref": 0}, {"kind": "ocert", "oc": {}}, {"ackind": "sanity"}]
ADMINS = ["d1"]


def _plant(monkeypatch, cert, value=FinSet({"evil"}), obj="obj", acl="none"):
    """A run in which client z proposes at step 0 and is corrupted at step
    1, and on its first delivery sends every replica a propose to g/<obj>
    (the app "obj", "conf" or "hist") whose one input value, value, carries
    cert; correct clients p and q propose later, and u adds r5 at step 40,
    under the access-control mode acl. Its bundle, and its op records by
    index."""
    def planting(ctx):
        sent = []

        def script(adv, ev):
            if sent:
                return
            sent.append(True)
            body = {"sn": 1, "config": ctx.replicas["r1"].genesis, "values": [InputValue(value, cert)]}
            for r in ("r1", "r2", "r3", "r4"):
                adv.send("z", r, Msg("bla.propose", f"g/{obj}", body))

        return script

    monkeypatch.setitem(attacks.SCRIPTS, "plant", planting)
    ops = [{"op": "propose", "client": "z", "value": ["z"], "at": 0},
           {"op": "propose", "client": "p", "value": ["a"], "at": 40},
           {"op": "propose", "client": "q", "value": ["b"], "at": 60},
           {"op": "update_config", "client": "u", "add": ["r5"], "at": 40}]
    adversary = {"corruptions": [{"pid": "z", "script": "plant", "at": 1}], "holds": []}
    rep = run_scenario(scenario.make_scenario("plant", 0, ["p", "q", "u", "z"], ops, extra_replicas=["r5"],
                                              acl={"mode": acl, "admins": ADMINS}, adversary=adversary))
    assert rep.verdict == "quiescent" and rep.final["corruptions"][0]["applied"]
    bundle = rep.bundle()
    return bundle, read_ops(bundle["trace"], len(ops))[0]


def _every_check_passes_live_and_from_a_file(tmp_path, bundle):
    path = tmp_path / "plant.trace"
    save_trace(path, bundle)
    for checked in (bundle, load_trace(path)):
        results = {name: (ok, info) for name, ok, info in run_checks(checked)}
        assert results["safety.certificates_verify"] == (True, "failed ops: []")
        assert all(ok for ok, _ in results.values())


@pytest.mark.parametrize("token", PLANTED)
def test_a_planted_token_shaped_like_a_certificate_is_refused(tmp_path, monkeypatch, token):
    # the app admits a value only under the open token, so the correct
    # clients return sets without "evil", and the run and every check
    # complete, live and from a file
    bundle, returns = _plant(monkeypatch, token)
    assert all("evil" not in returns[i].result["w"]["set"] for i in (1, 2))
    _every_check_passes_live_and_from_a_file(tmp_path, bundle)


_CFG = Config([("+", "r1")])
_R9 = Config([("+", "r9")])
_GENESIS = History([genesis_config(["r1", "r2", "r3", "r4"])])


@pytest.mark.parametrize("obj,value", [
    ("obj", 5), ("obj", "s"), ("obj", None), ("obj", _CFG), ("obj", History([_CFG])),
    ("conf", FinSet({"x"})), ("conf", 5), ("conf", _R9),
], ids=["app-int", "app-str", "app-none", "app-config", "app-history", "conf-set", "conf-int",
        "conf-outside-the-roster"])
def test_a_planted_value_outside_the_objects_lattice_is_refused(tmp_path, monkeypatch, obj, value):
    # under the open token, the app admits only sets of strs and the
    # configuration agreement only configurations of the scenario's
    # replicas, so no correct client joins the planted value with its own,
    # no correct replica sends to a process outside the roster, and the run
    # and every check complete, live and from a file
    bundle, returns = _plant(monkeypatch, OPEN_CERT, value, obj)
    assert all(set(returns[i].result["w"]["set"]) <= {"a", "b", "z"} for i in (1, 2))
    assert "r9" not in json.dumps(returns[3].result["hist"])
    _every_check_passes_live_and_from_a_file(tmp_path, bundle)


@pytest.mark.parametrize("clients", [["p"], ["p", "q"], ["p", "q", "z"]], ids=["p", "p-q", "p-q-z"])
def test_a_planted_configuration_naming_clients_as_replicas_is_refused(tmp_path, monkeypatch, clients):
    # the clients are in the roster, for gossip, but not among the
    # scenario's replicas, so the configuration agreement refuses genesis
    # plus any of them: no history names a client, both correct proposals
    # return, and the run and every check complete, live and from a file
    planted = _GENESIS.max_element().join(Config([("+", c) for c in clients]))
    bundle, returns = _plant(monkeypatch, OPEN_CERT, planted, "conf")
    assert all(returns[i].returned_at is not None for i in (1, 2))
    hist = value_from_jsonable(returns[3].result["hist"])
    assert all(c.replicas() <= {"r1", "r2", "r3", "r4", "r5"} for c in hist.configs)
    _every_check_passes_live_and_from_a_file(tmp_path, bundle)


@pytest.mark.parametrize("value,cert", [
    (FinSet({"evil"}), b"x"),
    (FinSet({"evil"}), FinSet({"q"})),
    (FinSet({"evil"}), {"k": ["a", b"x"]}),
    (FinSet({"evil"}), {1: "x"}),
    (FinSet({"evil"}), OutputCert([InputValue(FinSet({"a"}), {"kind": "any"})], History([_CFG]), GENESIS_CERT,
                                  {"r1": "junk"}, {})),
    (FinSet({"evil"}), OutputCert([InputValue(FinSet({"a"}), b"x")], History([_CFG]), GENESIS_CERT, {}, {})),
    (FinSet({b"evil"}), {"kind": "any"}),
], ids=["bytes", "finset", "bytes-in-a-token-list", "int-key", "junk-in-a-nested-quorum",
        "bytes-in-a-nested-input", "bytes-element"])
def test_a_planted_certificate_json_cannot_write_is_refused(tmp_path, monkeypatch, value, cert):
    # the app admits only a set of strs under the open token: no correct
    # process takes the planted value, so the run and every check complete,
    # live and from a file
    bundle, returns = _plant(monkeypatch, cert, value)
    assert all("evil" not in returns[i].result["w"]["set"] for i in (1, 2))
    _every_check_passes_live_and_from_a_file(tmp_path, bundle)


# planted certificate trees: builtins canon encodes (bytes, sets and int
# keys included), and values, signatures, quorums, grants and certificates
# whose fields are such junk or well formed. A FinSet's elements are of one
# type, as canon sorts them: AdvApi.send refuses a message it cannot encode
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3) | st.binary(max_size=3),
    lambda c: (st.lists(c, max_size=2) | st.dictionaries(st.text(max_size=2), c, max_size=2)
               | st.dictionaries(st.integers(), c, max_size=2)
               | st.frozensets(st.text(max_size=2) | st.binary(max_size=2), max_size=2)),
    max_leaves=4)
_VALUES = (st.sampled_from([FinSet({"evil"}), FinSet({b"a"}), _CFG, _R9, History([_CFG]), _GENESIS, 1, "x", None,
                             True]) | _JUNK)
_FS_SIGS = st.builds(FsSig, st.sampled_from(["r1", "r2"]) | _JUNK, st.integers(0, 9) | _JUNK,
                     st.binary(max_size=64) | _JUNK)
_SIG_MAPS = (st.dictionaries(st.sampled_from(["r1", "r2", "r3"]), _FS_SIGS | _JUNK, max_size=3)
             | st.dictionaries(st.integers(0, 3), _FS_SIGS, max_size=2) | _JUNK)


def _planted_nodes(children):
    return st.one_of(
        st.builds(OutputCert, st.lists(st.builds(InputValue, _VALUES, children) | _JUNK, max_size=2),
                  st.sampled_from([History([_CFG]), _GENESIS]) | _JUNK, children, _SIG_MAPS, _SIG_MAPS),
        st.builds(AcCert, st.sampled_from(["admin", "sanity", "quorum"]) | _JUNK, st.just("acl") | _JUNK, _JUNK,
                  _VALUES, st.none() | st.just(_CFG) | _JUNK, _SIG_MAPS, _SIG_MAPS),
        st.builds(QuorumCert, _SIG_MAPS),
        _FS_SIGS,
        st.builds(FinSet, st.frozensets(st.text(max_size=2), max_size=2) | st.frozensets(st.binary(max_size=2),
                                                                                     max_size=2)),
        st.lists(children, max_size=2),
        st.dictionaries(st.text(max_size=2), children, max_size=2),
    )


# well formed certificates, as the round-trip property draws them, alone
# and below junk
_TREES = _output_certs(_CERTS) | st.recursive(st.sampled_from([{"kind": "any"}, GENESIS_CERT]) | _JUNK | _CERTS,
                                              _planted_nodes, max_leaves=6)


def _forge_admin(slot, value, config, cacks, signers):
    """An admin grant over value for the run's access-control object, signed
    with plain_sign, which anyone can compute."""
    pl = admin_payload(runner.ACL_OBJ, slot, value)
    sigs = {s: LedgerFsOracle().plain_sign(s, pl).hex() for s in signers}
    return AcCert("admin", runner.ACL_OBJ, slot, value, config, sigs, cacks)


def _admin_grants(values):
    """Forged admin grants over one of values, signed by an admin or not;
    their slot, configuration and cacks well formed or junk."""
    return st.builds(_forge_admin, st.just("s") | _JUNK, values, st.none() | st.just(_CFG) | _JUNK,
                     st.just({}) | _SIG_MAPS, st.lists(st.sampled_from([*ADMINS, "d9"]), max_size=2, unique=True))


# a value, and a certificate for it: one the app or the configuration
# agreement admits, or a drawn value under the open token, a tree, or an
# admin grant over that value or another
_PLANTINGS = (st.sampled_from([(FinSet({"evil"}), OPEN_CERT), (_CFG, OPEN_CERT),
                               (_CFG, _forge_admin("s", _CFG, None, {}, ADMINS))])
              | _VALUES.flatmap(lambda v: st.tuples(st.just(v), st.just(OPEN_CERT) | _TREES
                                                    | _admin_grants(st.just(v) | _VALUES))))


def _recording_certs(monkeypatch) -> dict:
    """{id(JSON): canon} of every OutputCert written from now on."""
    written, to_jsonable = {}, OutputCert.to_jsonable

    def recording(cert):
        out = to_jsonable(cert)
        written[id(out)] = cert.canon()
        return out

    monkeypatch.setattr(OutputCert, "to_jsonable", recording)
    return written


def _at_genesis(values, quorum):
    """An output over values anchored at genesis, with quorum for both rounds."""
    return OutputCert(values, _GENESIS, GENESIS_CERT, quorum, quorum)


_GENESIS_INPUT = InputValue(_GENESIS.configs[0], GENESIS_CERT)


# the profile's examples: 100 by default, 2000 under the ci profile. The
# explicit ones reach a verifier past every check before it: an output over
# the configuration agreement's genesis input whose quorums are not maps, or
# whose input value is not one; an admin grant whose signatures are not a
# map, or whose slot, configuration or cacks are not a str, None and none
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@example(planting=(_GENESIS, _at_genesis([_GENESIS_INPUT], 5)), obj="hist", acl="none")
@example(planting=(_GENESIS, _at_genesis([_GENESIS_INPUT], ("r1", "r2", "r3"))), obj="hist", acl="none")
@example(planting=(History([_CFG]), _at_genesis([5], {})), obj="hist", acl="none")
@example(planting=(_CFG, AcCert("admin", runner.ACL_OBJ, "s", _CFG, None, ("d1",), {})), obj="conf", acl="admin")
@example(planting=(_CFG, _forge_admin(b"s", _CFG, None, {}, ADMINS)), obj="conf", acl="admin")
@example(planting=(_CFG, _forge_admin("s", _CFG, 5, {}, ADMINS)), obj="conf", acl="admin")
@example(planting=(_CFG, _forge_admin("s", _CFG, None, {"x": 1}, ADMINS)), obj="conf", acl="admin")
@given(_PLANTINGS, st.sampled_from(["obj", "conf", "hist"]), st.sampled_from(["none", "admin", "sanity", "quorum"]))
def test_a_planted_certificate_tree_raises_nothing_and_checks_alike_live_and_loaded(tmp_path_factory, planting,
                                                                                    obj, acl):
    # a value and its certificate planted into any object, under any
    # access-control mode: the object admits it only if its check verifies
    # it, both correct proposals hold a planted set or neither does, the run
    # raises nothing, every check passes, live and from a file, and each
    # correct return's certificate reads back from the file as the
    # certificate the run returned
    value, cert = planting
    with pytest.MonkeyPatch.context() as monkeypatch:
        written = _recording_certs(monkeypatch)
        bundle, returns = _plant(monkeypatch, cert, value, obj, acl)
    assert len({"evil" in returns[i].result["w"]["set"] for i in (1, 2)}) == 1
    view = checks.rebuild_view(bundle)
    target = {"obj": view.app_obj, "conf": view.grp.conf_obj, "hist": view.grp.hist_obj}[obj]
    event(f"g/{obj}, acl {acl}: {'admitted' if target.check_value(InputValue(value, cert)) else 'refused'}")
    path = tmp_path_factory.mktemp("plant") / "plant.trace"
    save_trace(path, bundle)
    loaded = load_trace(path)
    for checked in (bundle, loaded):
        assert [name for name, ok, _ in run_checks(checked) if not ok] == []
    back = read_ops(loaded["trace"], len(returns))[0]
    for i in (1, 2, 3):
        r = returns[i].result
        if "cert" in r:
            assert OutputCert.from_jsonable(back[i].result["cert"]).canon() == written[id(r["cert"])]


# -- offline view ------------------------------------------------------------------


def test_rebuild_view_uses_ledger_verifier():
    rep = run_scenario(FAMILIES["dbla-smoke"](6))
    bundle = rep.bundle()
    view = checks.rebuild_view(bundle)
    assert type(view.oracle).__name__ == "LedgerVerifier"
    # and it can still re-verify the run's certificates
    assert passed(run_checks(bundle), "safety.certificates_verify")

