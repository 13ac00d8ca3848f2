"""Brute-force oracles for the lattice layer.

The join/leq oracles enumerate upper bounds over an explicit universe and
take the least one; the quorum oracle counts. Spot values below were frozen
from the oracle output.
"""

import copy
import hashlib
import itertools
import json
import operator

import pytest
from hypothesis import example, given, strategies as st

from dynbla import lattice
from dynbla.dbla import GENESIS_CERT, AcCert, InputValue, OutputCert
from dynbla.fscrypto import FsSig
from dynbla.lattice import (
    ADD,
    REMOVE,
    Config,
    FinSet,
    History,
    Token,
    canon,
    digest,
    fault_budget,
    freeze,
    quorum_size,
)
from dynbla.simnet import Msg


def powerset(universe):
    out = []
    for k in range(len(universe) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(universe, k))
    return out


def oracle_join(a, b, universe):
    # least upper bound = intersection of all upper bounds, which must itself
    # be an upper bound for the lattice to be well defined
    ubs = [s for s in powerset(universe) if a <= s and b <= s]
    lub = frozenset(universe)
    for u in ubs:
        lub &= u
    assert lub in ubs
    return lub


def oracle_is_quorum(group, members):
    return set(group) <= set(members) and len(set(group)) > (2 / 3) * len(members)


def test_finset_join_leq_match_oracle_over_4_universe():
    universe = ("a", "b", "c", "d")
    subs = powerset(universe)
    assert len(subs) == 16
    for a in subs:
        for b in subs:
            expect = oracle_join(a, b, universe)
            got = FinSet(a).join(FinSet(b))
            assert got == FinSet(expect)
            assert FinSet(a).leq(FinSet(b)) == (a <= b)
            # leq(a, b) iff join(a, b) == b
            assert FinSet(a).leq(FinSet(b)) == (got == FinSet(b) if a <= b else FinSet(a).join(FinSet(b)) == FinSet(b))


def test_finset_frozen_values():
    assert FinSet({"1"}).join(FinSet({"2"})) == FinSet({"1", "2"})
    assert FinSet().join(FinSet({"x"})) == FinSet({"x"})
    assert FinSet().leq(FinSet())
    assert not FinSet({"x"}).leq(FinSet({"y"}))


@given(
    st.frozensets(st.text(max_size=3), max_size=6),
    st.frozensets(st.text(max_size=3), max_size=6),
    st.frozensets(st.text(max_size=3), max_size=6),
)
def test_finset_lattice_axioms(a, b, c):
    fa, fb, fc = FinSet(a), FinSet(b), FinSet(c)
    assert fa.join(fb) == fb.join(fa)
    assert fa.join(fa) == fa
    assert fa.join(fb).join(fc) == fa.join(fb.join(fc))
    assert fa.leq(fa.join(fb))
    if fa.leq(fb) and fb.leq(fa):
        assert fa == fb


def conf(adds=(), removes=()):
    return Config([(ADD, r) for r in adds] + [(REMOVE, r) for r in removes])


def test_config_replicas_filter_matches_oracle():
    c = conf(adds=["r1", "r2", "r3", "r4", "r5"], removes=["r3"])
    # oracle: added and not removed
    ups = set(c.updates)
    expect = {r for (op, r) in ups if op == ADD and (REMOVE, r) not in ups}
    assert c.replicas() == expect == {"r1", "r2", "r4", "r5"}
    assert c.height() == 6


def test_config_removed_id_stays_out():
    base = conf(adds=["r1", "r2"], removes=["r1"])
    readd = base.join(conf(adds=["r1"]))
    # joining another add of the same id cannot resurrect it
    assert readd.replicas() == {"r2"}


def test_config_strict_order_increases_height():
    c1 = conf(adds=["r1", "r2", "r3"])
    c2 = c1.join(conf(adds=["r4"], removes=["r1"]))
    assert c1.leq(c2) and c1 != c2
    assert c1.height() < c2.height()


def test_quorum_exhaustive_over_7_replicas():
    members = [f"r{i}" for i in range(1, 8)]
    c = conf(adds=members + ["gone"], removes=["gone"])
    assert c.replicas() == set(members)
    count = 0
    for k in range(len(members) + 1):
        for group in itertools.combinations(members, k):
            expect = oracle_is_quorum(group, members)
            assert c.is_quorum(group) == expect
            count += expect
    # frozen from the oracle: C(7,5) + C(7,6) + C(7,7)
    assert count == 29
    assert quorum_size(7) == 5


def test_quorum_frozen_sizes_and_budgets():
    # frozen from the counting oracle
    assert [quorum_size(n) for n in range(1, 8)] == [1, 2, 3, 3, 4, 5, 5]
    assert [fault_budget(n) for n in range(1, 8)] == [0, 0, 0, 1, 1, 1, 2]
    c4 = conf(adds=["a", "b", "c", "d"])
    quorums = [g for k in range(5) for g in itertools.combinations(sorted(c4.replicas()), k) if c4.is_quorum(g)]
    assert len(quorums) == 5  # C(4,3) + C(4,4)


def test_config_memoises_its_sorted_roster_and_quorum_size():
    c = conf(adds=["r3", "r10", "r1", "gone"], removes=["gone"])
    assert c.sorted_replicas() == ("r1", "r10", "r3") == tuple(sorted(c.replicas()))
    assert c.sorted_replicas() is c.sorted_replicas()
    assert c.quorum_size() == quorum_size(3) == 3


@pytest.mark.parametrize("value, name", [
    (FinSet({"a"}), "elems"),
    (conf(adds=["r1"]), "updates"),
    (conf(adds=["r1"]), "_replicas"),
    (History([conf(adds=["r1"])]), "configs"),
    (History([conf(adds=["r1"])]), "_canon"),
])
def test_lattice_values_refuse_rebinding(value, name):
    # a message copy shares them, so no holder may rebind or delete what
    # another reads; their encodings and memos are unchanged by the attempt
    encoded = canon(value)
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, frozenset({"forged"}))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before and canon(value) == encoded


def test_quorum_rejects_outsiders_and_duplicates():
    c = conf(adds=["r1", "r2", "r3"])
    assert not c.is_quorum(["r1", "r2", "zz"])
    assert not c.is_quorum(["r1", "r1", "r2"])
    assert c.is_quorum(["r1", "r2", "r3"])


def test_history_requires_pairwise_comparable():
    c0 = conf(adds=["r1", "r2", "r3", "r4"])
    c1 = c0.join(conf(adds=["r5"]))
    c2 = c1.join(conf(removes=["r1"]))
    h = History([c2, c0, c1])
    assert h.max_element() == c2
    assert [c.height() for c in h.configs] == [4, 5, 6]

    bad1 = c0.join(conf(adds=["x"]))
    bad2 = c0.join(conf(adds=["y"]))
    with pytest.raises(ValueError):
        History([c0, bad1, bad2])
    with pytest.raises(ValueError):
        History([])


def test_history_containment():
    c0 = conf(adds=["r1", "r2", "r3", "r4"])
    c1 = c0.join(conf(adds=["r5"]))
    h0 = History([c0])
    h1 = History([c0, c1])
    assert h0.contained_in(h1)
    assert not h1.contained_in(h0)


def test_history_join_is_union_of_comparable_histories():
    c0 = conf(adds=["r1"])
    c1 = c0.join(conf(adds=["r2"]))
    c2 = c1.join(conf(removes=["r1"]))
    assert History([c0]).join(History([c2])) == History([c0, c2])
    assert History([c0, c1]).join(History([c1, c2])) == History([c0, c1, c2])
    assert History([c1]).join(History([c1])) == History([c1])
    # the H frame over the configurations' frames in byte order
    assert History([c2, c0]).canon() == lattice._frame(b"H", b"".join(sorted([c0.canon(), c2.canon()])))
    with pytest.raises(ValueError):
        History([c0]).join(History([conf(adds=["r2"])]))
    with pytest.raises(ValueError):
        History([c0, c1]).join(History([c0.join(conf(adds=["r3"]))]))


def test_canon_is_order_insensitive_and_type_tagged():
    assert canon({"b": 1, "a": 2}) == canon({"a": 2, "b": 1})
    assert canon(frozenset({"x", "y"})) == canon(frozenset({"y", "x"}))
    assert canon([1, 2]) != canon([2, 1])
    assert canon("1") != canon(1)
    assert canon(b"") != canon("")
    assert canon(True) != canon(1)


def test_canon_version_pin():
    # frozen digest guards the encoding against accidental format drift
    sample = ["tag", 7, {"k": b"\x00\x01", "s": ["x"]}, frozenset({"b", "a"}), None]
    assert digest(sample) == "4ec5d7b338746af0189b9c99e17c7737e3f567bf7cf35b7d5b6244e4e5dac5fc"


def _frame(tag, payload):
    return tag + len(payload).to_bytes(4, "big") + payload


def reference_canon(x):
    """The plain encoding by exact type that canon must reproduce: a value of
    any other type, a subclass of a builtin too, encodes itself."""
    t = type(x)
    if x is None:
        return _frame(b"N", b"")
    if t is bool:
        return _frame(b"B", b"\x01" if x else b"\x00")
    if t is int:
        return _frame(b"I", str(x).encode())
    if t is str:
        return _frame(b"S", x.encode("utf-8"))
    if t is bytes:
        return _frame(b"Y", x)
    if t in (list, tuple):
        return _frame(b"L", b"".join(reference_canon(e) for e in x))
    if t in (set, frozenset):
        return _frame(b"E", b"".join(sorted(reference_canon(e) for e in x)))
    if t is dict:
        body = b"".join(reference_canon(k) + reference_canon(v) for k, v in sorted(x.items()))
        return _frame(b"D", body)
    enc = getattr(x, "canon", None)
    if enc is not None:
        return enc()
    raise TypeError(f"not canonically encodable: {type(x).__name__}")


class StrSub(str):
    pass


class IntSub(int):
    pass


class DictSub(dict):
    pass


class StrWithCanon(str):
    """A str subclass with canon(): encoded by it, like any other class."""

    def canon(self):
        return _frame(b"X", self.encode("utf-8"))


class Encoded:
    """A value that encodes itself."""

    def __init__(self, data: bytes):
        self.data = data

    def canon(self):
        return _frame(b"X", self.data)


class Opaque:
    pass


class LoudConfig(Config):
    """A slotted subclass that overrides canon(): its own method is used."""

    __slots__ = ()

    def canon(self):
        return _frame(b"X", super().canon())


class LoudFinSet(FinSet):
    """A subclass with a __dict__ that overrides canon()."""

    def canon(self):
        return _frame(b"X", super().canon())


class StaticCanon:
    """A slotted class whose canon is a staticmethod: x.canon() takes no x."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    canon = staticmethod(lambda: _frame(b"Q", b""))


def with_own_canon(base, data: bytes):
    """An instance whose canon is an instance attribute, on a class that has
    none (Opaque) or whose own one it shadows (Encoded)."""
    x = Opaque() if base is None else Encoded(base)
    x.canon = lambda: _frame(b"Z", data)
    return x


_ids = st.sampled_from(["r1", "r2", "r3", "r4", "r5"])
_configs = st.lists(st.tuples(st.sampled_from([ADD, REMOVE]), _ids), max_size=4).map(Config)
_finsets = st.frozensets(st.text(max_size=4), max_size=3).map(FinSet)
# prefixes of one update list are pairwise comparable
_histories = st.lists(st.tuples(st.just(ADD), _ids), min_size=1, max_size=4).map(
    lambda ups: History(Config(ups[: i + 1]) for i in range(len(ups)))
)
_sigs = st.builds(FsSig, _ids, st.integers(0, 9), st.binary(max_size=8))
_packs = st.dictionaries(_ids, _sigs, max_size=3)
_input_values = st.builds(InputValue, _finsets, st.just({"kind": "any"}))
_ac_certs = st.builds(
    AcCert, st.sampled_from(["sanity", "quorum"]), st.just("acl"), st.text(max_size=4),
    st.text(max_size=4), _configs, _packs, _packs,
)
_output_certs = st.builds(
    OutputCert, st.lists(_input_values, max_size=2), _histories,
    st.one_of(st.just(GENESIS_CERT), _ac_certs), _packs, _packs,
)
_library = st.one_of(
    _configs,
    _histories,
    _finsets,
    _input_values,
    _sigs,
    _ac_certs,
    _output_certs,
    _configs.map(lambda c: LoudConfig(c.updates)),
    _finsets.map(lambda f: LoudFinSet(f.elems)),
    st.binary(max_size=4).map(StaticCanon),
    st.builds(with_own_canon, st.one_of(st.none(), st.binary(max_size=4)), st.binary(max_size=8)),
)

_keys = st.text(max_size=6)
_hashable = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.text(max_size=8),
    st.binary(max_size=8),
)
_leaves = st.one_of(
    _hashable,
    _library,
    st.binary(max_size=8).map(Encoded),
    st.frozensets(_hashable, max_size=4),
    st.sets(_hashable, max_size=4),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_keys, kids, max_size=4),
    ),
    max_leaves=20,
)


@given(_trees)
def test_canon_matches_the_isinstance_chain(x):
    assert canon(x) == reference_canon(x)


@pytest.mark.parametrize("x", [1.5, Opaque(), [1, Opaque()], {"k": 1.5},
                               StrSub("a"), IntSub(1), DictSub(), [StrSub("a")]])
def test_canon_rejects_what_the_isinstance_chain_rejects(x):
    with pytest.raises(TypeError):
        reference_canon(x)
    with pytest.raises(TypeError):
        canon(x)


# The encoders canon used before its list and dict walkers dispatched each
# element without a call of canon, kept as the reference they must
# reproduce byte for byte.
def _walk_list(x) -> bytes:
    parts = []
    for e in x:
        parts.append(walk_canon(e))
    b = b"".join(parts)
    return b"L" + len(b).to_bytes(4, "big") + b


def _walk_dict(x) -> bytes:
    parts = []
    for e in itertools.chain.from_iterable(sorted(x.items())):
        parts.append(walk_canon(e))
    b = b"".join(parts)
    return b"D" + len(b).to_bytes(4, "big") + b


def _walk_int(x) -> bytes:
    b = str(x).encode()
    return b"I" + len(b).to_bytes(4, "big") + b


def _walk_set(x) -> bytes:
    return _frame(b"E", b"".join(sorted([walk_canon(e) for e in x])))


def _walk_own(x) -> bytes:
    enc = getattr(x, "canon", None)
    if enc is None:
        raise TypeError(f"not canonically encodable: {type(x).__name__}")
    return enc()


# builtins only: every other value, the library's value classes included,
# encodes through its canon() attribute
_WALK = {type(None): lambda x: _frame(b"N", b""), bool: lambda x: _frame(b"B", b"\x01" if x else b"\x00"),
         bytes: lambda x: _frame(b"Y", x), int: _walk_int, list: _walk_list, tuple: _walk_list,
         dict: _walk_dict, set: _walk_set, frozenset: _walk_set}


def walk_canon(x) -> bytes:
    if type(x) is str:
        return _frame(b"S", x.encode("utf-8"))
    return _WALK.get(type(x), _walk_own)(x)


def walk_mhash(desc, obj, body) -> str:
    """Msg(desc, obj, body).mhash() as digest(["m", desc, obj, body])[:16]
    computed it through the reference walkers."""
    return hashlib.sha256(b"1" + walk_canon(["m", desc, obj, body])).hexdigest()[:16]


class ListSub(list):
    pass


class BytesSub(bytes):
    pass


_ints = st.one_of(st.sampled_from([-1, 0, 1, 1023, 1024, 2**70, -(2**70)]), st.integers(-3000, 3000), st.integers())
_walk_leaves = st.one_of(
    _ints, st.booleans(), st.none(), st.text(max_size=6), st.binary(max_size=6), _library,
    st.sets(st.one_of(_ints, st.text(max_size=3), st.booleans()), max_size=4),
    st.frozensets(st.one_of(_ints, st.binary(max_size=3)), max_size=4),
)
_refused = st.sampled_from([IntSub(3), StrSub("a"), DictSub(), ListSub(), BytesSub(b"x"), 1.5])
_walk_trees = st.recursive(
    st.one_of(_walk_leaves, _refused),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_keys, kids, max_size=4),
    ),
    max_leaves=16,
)


@given(_walk_trees, st.text(max_size=8), st.text(max_size=8))
@example([-1, 0, 1023, 1024, 2**70, True, b"", {1, 1024}, {"k": [None]}], "bla.presp", "obj")
@example({"sn": IntSub(1)}, "bla.presp", "obj")
def test_canon_and_mhash_match_the_walkers_they_replace(x, desc, obj):
    # a builtin subclass anywhere is refused by both; anything else encodes
    # to the same bytes, alone and as a message body
    try:
        want = walk_canon(x)
    except TypeError:
        with pytest.raises(TypeError):
            canon(x)
        with pytest.raises(TypeError):
            Msg(desc, obj, x).mhash()
        return
    assert canon(x) == want
    assert Msg(desc, obj, x).mhash() == walk_mhash(desc, obj, x) == digest(["m", desc, obj, x])[:16]


def test_a_builtin_subclass_with_canon_encodes_through_it():
    x = StrWithCanon("a")
    assert canon(x) == _frame(b"X", b"a") == reference_canon(x)
    assert canon([x, {"k": x}]) == reference_canon([x, {"k": x}])
    assert canon(x) != canon("a")


# JSON-like bodies, arrays as tuples: freeze makes a list a tuple, which
# canon and JSON write as a list but == tells from one
_json_bodies = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6)),
    lambda kids: st.one_of(st.lists(kids, max_size=4).map(tuple), st.dictionaries(_keys, kids, max_size=4)),
    max_leaves=20,
)


def _containers(x):
    if type(x) in (Token, tuple):
        yield x
        for v in (x.values() if type(x) is Token else x):
            yield from _containers(v)


@given(_json_bodies)
@example({"kind": "genesis"})
@example({"sigs": {"r1": {"h": (1, "a")}}, "l": ((), {})})
def test_a_frozen_body_has_the_canon_json_and_equality_of_its_body_and_refuses_edits(x):
    frozen = freeze(x)
    assert canon(frozen) == canon(x)
    assert json.dumps(frozen, sort_keys=True) == json.dumps(x, sort_keys=True)
    assert copy.deepcopy(frozen) == x
    for c in _containers(frozen):
        with pytest.raises(TypeError):
            operator.setitem(c, next(iter(c), "k") if type(c) is Token else 0, None)
    assert not [c for c in _containers(x) if type(c) is dict]
    assert canon(freeze([x])) == canon([x]) and type(freeze([x])) is tuple


def test_lattice_values_round_trip_jsonable():
    c = conf(adds=["r1", "r2"], removes=["r2"])
    for v in (FinSet({"a", "b"}), c, History([c]), History([c, c.join(conf(adds=["r3"]))])):
        assert type(v).from_jsonable(v.to_jsonable()) == v


@pytest.mark.parametrize("k", [10, 100, 10_000])
def test_a_flood_of_distinct_strings_leaves_the_frame_table_within_its_cap(k):
    # every encoded str, as a value, a list element or a dict key, may enter
    # the table; whatever strings arrive, it holds at most _STR_CAP short ones
    for i in range(k):
        junk = f"junk-{k}-{i}"
        assert canon(junk) == reference_canon(junk)
        assert canon([junk, {junk: junk}]) == reference_canon([junk, {junk: junk}])
        assert len(lattice._strs) <= lattice._STR_CAP
    long = "x" * (lattice._STR_MAX + 1)
    assert canon(long) == reference_canon(long) and long not in lattice._strs
    assert all(type(s) is str and len(s) <= lattice._STR_MAX for s in lattice._strs)
