"""Join semi-lattices, configurations, quorums, histories.

Also home of the canonical byte encoding used for signing payloads, message
hashing and value dedup: every encodable value maps to one byte string,
independent of dict/set iteration order.

A certificate encodes as its digest frame (``merkle_frame``): tag ``O``,
length 32 and the SHA-256 of the certificate's node body, in which every
nested certificate again appears as its own frame. So encoding, hashing or
signing over a certificate costs the size of one node, not of the whole
chain of certificates below it, and the frame still commits to all of it,
as in a Merkle DAG (Merkle 1987).

Encoding is table-driven. canon dispatches on a value's exact type alone: a
table holds the encoders of the nine builtin types besides str and, entered
the first time a value of it is encoded, the canon() of each `Value` class;
a value of any other type, a subclass of a builtin included, encodes through
its own canon() or is refused with TypeError. The list and dict walkers
dispatch each element straight through that table, with no call of canon per
element. An exact str, the commonest value (ids, object names, message
kinds), is served from a table of ready frames, filled on first use and read
inline for list elements and dict keys and values; it keeps only short strs
and is cleared when full, so it stays within a fixed size whatever strings
arrive. That table is a cache: it changes no byte of the encoding, so no
caller can see another's use of it.

Every value a message can carry is read-only (`Value`), so a copy of a
message shares its values and no process can edit what another reads.
`Value` memoises canon() over each class's `_encode()`. A certificate
token or a signature map is a `Token`, a read-only dict, and `freeze`
makes a body of dicts, lists and sets read-only throughout.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

ADD = "+"
REMOVE = "-"

_CANON_VERSION = b"1"


def _frame(tag: bytes, payload: bytes) -> bytes:
    return tag + len(payload).to_bytes(4, "big") + payload


# Frames of exact strs, filled on first use. Ids, object names and message
# kinds come from a small vocabulary, so most strs encoded are hits. The
# table is cleared whenever it reaches _STR_CAP entries and keeps only strs
# of at most _STR_MAX characters, so whatever strings an adversary sends,
# it holds at most _STR_CAP short entries.
_STR_CAP = 1024
_STR_MAX = 64
_strs: dict[str, bytes] = {}
_str_get = _strs.get        # stays bound: the table is cleared, never replaced


def _new_str(x: str) -> bytes:
    b = x.encode("utf-8")
    f = b"S" + len(b).to_bytes(4, "big") + b
    if len(x) <= _STR_MAX:
        if len(_strs) >= _STR_CAP:
            _strs.clear()
        _strs[x] = f
    return f


# _list and _dict read the frame table inline for strs, over half of their
# elements, and dispatch any other element straight to its encoder, so no
# element costs a call of canon. Plain loops: on Python 3.11 a comprehension
# is a call of its own, and a dict's sorted keys cost less than its sorted
# items (its keys are distinct, so both give one order).
def _list(x) -> bytes:
    parts = []
    for e in x:
        parts.append((_str_get(e) or _new_str(e)) if type(e) is str else _enc_get(type(e), _own)(e))
    b = b"".join(parts)
    return b"L" + len(b).to_bytes(4, "big") + b


def _dict(x) -> bytes:
    parts = []
    for k in sorted(x):
        v = x[k]
        parts.append((_str_get(k) or _new_str(k)) if type(k) is str else _enc_get(type(k), _own)(k))
        parts.append((_str_get(v) or _new_str(v)) if type(v) is str else _enc_get(type(v), _own)(v))
    b = b"".join(parts)
    return b"D" + len(b).to_bytes(4, "big") + b


def _int(x) -> bytes:
    b = str(x).encode()
    return b"I" + len(b).to_bytes(4, "big") + b


def _bytes(x) -> bytes:
    return b"Y" + len(x).to_bytes(4, "big") + x


def _set(x) -> bytes:
    return _frame(b"E", b"".join(sorted([canon(e) for e in x])))


def _none(x) -> bytes:
    return _frame(b"N", b"")


def _bool(x) -> bytes:
    return _frame(b"B", b"\x01" if x else b"\x00")


def _own(x) -> bytes:
    """A value of no type in the table encodes itself, if it can. A Value's
    class enters the table here, so its next value is dispatched straight
    to the class's canon(): a Value holds no canon of its own."""
    enc = getattr(x, "canon", None)
    if enc is None:
        raise TypeError(f"not canonically encodable: {type(x).__name__}")
    if isinstance(x, Value):
        _enc[type(x)] = type(x).canon
    return enc()


# The dispatch table: one encoder per exact builtin type, and each Value
# class's canon, entered by _own on first use. Any other type, a subclass
# of a builtin too, encodes through its own canon().
_enc: dict[type, object] = {type(None): _none, bool: _bool, int: _int, bytes: _bytes, list: _list,
                             tuple: _list, set: _set, frozenset: _set, dict: _dict}
_enc_get = _enc.get


def canon(x) -> bytes:
    """Deterministic tag-length-value encoding. Dict keys must be strings.
    An exact str is served from the frame table, another exact builtin or a
    Value by the dispatch table, and any other value by its own canon()."""
    t = type(x)
    if t is str:
        f = _str_get(x)
        return f if f is not None else _new_str(x)
    return _enc_get(t, _own)(x)


def merkle_frame(body: bytes) -> bytes:
    """The fixed-size canonical encoding of a node whose body is body."""
    return _frame(b"O", hashlib.sha256(body).digest())


def digest(x) -> str:
    return hashlib.sha256(_CANON_VERSION + canon(x)).hexdigest()


def short_digest(x) -> str:
    return digest(x)[:12]


def quorum_size(n: int) -> int:
    """Smallest group size strictly greater than two thirds of n."""
    return (2 * n) // 3 + 1


def fault_budget(n: int) -> int:
    return (n - 1) // 3


_set_attr = object.__setattr__


class ReadOnlyError(AttributeError, TypeError):
    """An edit of a read-only value: an AttributeError for an attribute and
    a TypeError for an item, as Python's own read-only types raise."""


class Value:
    """A read-only value, as every value a message can carry is, so that a
    message copy shares it (`simnet.Msg.copy`) and no holder can edit what
    another reads. An edit raises ReadOnlyError; a class's own code sets its
    fields and memos through `_set_attr`.

    canon() is memoised here, over the class's own `_encode()`, in the slot
    `_canon` each class declares: the one place that memo is written. The
    slot stays unset until the first canon(). Two values are equal when
    they are of one class and encode alike.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise ReadOnlyError(f"{type(self).__name__} is read-only")

    __setattr__ = __delattr__ = _read_only

    def canon(self) -> bytes:
        try:
            return self._canon
        except AttributeError:
            c = self._encode()
            _set_attr(self, "_canon", c)
            return c

    def __eq__(self, other):
        return self is other or type(other) is type(self) and self.canon() == other.canon()

    def __hash__(self):
        return hash(self.canon())


class Token(dict, Value):
    """A read-only dict: a certificate token such as {"kind": "genesis"}, a
    quorum's or an admin grant's signature map. Its encoding, JSON, == and
    isinstance(..., dict) are the dict's; every mutator raises ReadOnlyError.
    Build one through freeze, which makes what it holds read-only too. What
    holds a token memoises its own encoding, so a token keeps none."""

    __slots__ = ()
    canon = _dict
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = Value._read_only

    def __reduce__(self):
        return (Token, (dict(self),))


def freeze(x):
    """x with every dict in it a Token, every list or tuple a tuple and every
    set a frozenset; anything else, a value object included, is x itself."""
    t = type(x)
    if t is dict:
        return Token({k: freeze(v) for k, v in x.items()})
    if t is list or t is tuple:
        return tuple([freeze(v) for v in x])
    if t is set:
        return frozenset(x)
    return x


class FinSet(Value):
    """Powerset lattice over opaque string ids."""

    __slots__ = ("elems", "_canon")

    def __init__(self, elems: Iterable[str] = ()):
        _set_attr(self, "elems", frozenset(elems))

    def join(self, other: "FinSet") -> "FinSet":
        return FinSet(self.elems | other.elems)

    def leq(self, other: "FinSet") -> bool:
        return self.elems <= other.elems

    def _encode(self) -> bytes:
        return _frame(b"F", b"".join([canon(e) for e in sorted(self.elems)]))

    def to_jsonable(self):
        return {"set": sorted(self.elems)}

    @classmethod
    def from_jsonable(cls, data) -> "FinSet":
        return cls(data["set"])

    def __repr__(self):
        return f"FinSet({sorted(self.elems)})"


class Config(Value):
    """A configuration: a set of (+id / -id) updates.

    Active replicas are the added-and-never-removed ids; a remove update wins
    over any add of the same id forever, so removed ids cannot come back.
    What derives from the updates is memoised on first use: the replicas,
    in sorted order too, the quorum size, the encoding and the id.
    """

    __slots__ = ("updates", "_canon", "_replicas", "_sorted", "_quorum", "_cid")

    def __init__(self, updates: Iterable[tuple[str, str]] = ()):
        ups = frozenset((str(op), str(r)) for op, r in updates)
        for op, _ in ups:
            if op not in (ADD, REMOVE):
                raise ValueError(f"bad update kind {op!r}")
        _set_attr(self, "updates", ups)
        for name in ("_replicas", "_sorted", "_quorum", "_cid"):
            _set_attr(self, name, None)

    def join(self, other: "Config") -> "Config":
        return Config(self.updates | other.updates)

    def leq(self, other: "Config") -> bool:
        return self.updates <= other.updates

    def replicas(self) -> frozenset[str]:
        if self._replicas is None:
            removed = {r for op, r in self.updates if op == REMOVE}
            _set_attr(self, "_replicas", frozenset(
                r for op, r in self.updates if op == ADD and r not in removed
            ))
        return self._replicas

    def sorted_replicas(self) -> tuple[str, ...]:
        """The replicas in sorted order: the order a fan-out sends in."""
        if self._sorted is None:
            _set_attr(self, "_sorted", tuple(sorted(self.replicas())))
        return self._sorted

    def height(self) -> int:
        return len(self.updates)

    def quorum_size(self) -> int:
        if self._quorum is None:
            _set_attr(self, "_quorum", quorum_size(len(self.replicas())))
        return self._quorum

    def fault_budget(self) -> int:
        return fault_budget(len(self.replicas()))

    def is_quorum(self, group: Iterable[str]) -> bool:
        g = set(group)
        return g <= self.replicas() and len(g) >= self.quorum_size()

    def _encode(self) -> bytes:
        return _frame(b"C", b"".join(sorted([canon(list(u)) for u in self.updates])))

    def cid(self) -> str:
        if self._cid is None:
            _set_attr(self, "_cid", short_digest(self))
        return self._cid

    def to_jsonable(self):
        return {"cfg": sorted(list(u) for u in self.updates)}

    @classmethod
    def from_jsonable(cls, data) -> "Config":
        return cls(tuple(u) for u in data["cfg"])

    def __eq__(self, other):
        return isinstance(other, Config) and self.updates == other.updates

    def __hash__(self):
        return hash(self.updates)

    def __repr__(self):
        return f"Config(h={self.height()}, replicas={sorted(self.replicas())})"


class History(Value):
    """A nonempty set of pairwise comparable configurations, kept sorted: the
    history agreement's lattice, whose join raises ValueError on no history."""

    __slots__ = ("configs", "_canon")

    def __init__(self, configs: Iterable[Config]):
        confs = sorted(set(configs), key=lambda c: (c.height(), c.canon()))
        if not confs:
            raise ValueError("history must be nonempty")
        for lo, hi in zip(confs, confs[1:]):
            if not lo.leq(hi):
                raise ValueError("history configurations must be pairwise comparable")
        _set_attr(self, "configs", tuple(confs))

    def max_element(self) -> Config:
        return self.configs[-1]

    def join(self, other: "History") -> "History":
        return History(self.configs + other.configs)

    def contained_in(self, other: "History") -> bool:
        return set(self.configs) <= set(other.configs)

    def _encode(self) -> bytes:
        return _frame(b"H", b"".join(sorted([c.canon() for c in self.configs])))

    def to_jsonable(self):
        return {"hist": [c.to_jsonable()["cfg"] for c in self.configs]}

    @classmethod
    def from_jsonable(cls, data) -> "History":
        return cls(Config(tuple(u) for u in ups) for ups in data["hist"])

    def __repr__(self):
        return f"History({[c.height() for c in self.configs]})"


def genesis_config(replicas: Iterable[str]) -> Config:
    return Config((ADD, r) for r in replicas)


VALUE_KINDS = {"set": FinSet, "cfg": Config, "hist": History}


def value_to_jsonable(v):
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        return v
    if v is None:
        return None
    return v.to_jsonable()


def value_from_jsonable(data):
    if data is None or isinstance(data, (int, str)):
        return data
    for key, cls in VALUE_KINDS.items():
        if key in data:
            return cls.from_jsonable(data)
    raise ValueError(f"unknown value encoding: {data!r}")
