"""Wire codec for protocol messages: dataclasses <-> length-prefixed bytes.

The sim transport passes payload objects by reference, so nothing in the
discrete-event path ever serializes.  The live TCP transport cannot: a
:class:`~repro.net.message.Message` must survive a real socket.  This
module keeps an explicit **registry** of every wire dataclass (and enum)
and encodes them as JSON with type tags, recursively, preserving tuples
and nested dataclasses so a decoded value compares equal to the original.

Encoding is compiled: registering a class builds its writer (field names
and pre-escaped ``"name":`` prefixes, or each enum member's text), and
:func:`encode` dispatches on the exact ``type(obj)`` to emit the bytes
``json.dumps`` gives for the tagged tree (pinned by tests/golden_codec/).
Decoding is one ``json.loads`` and a walk calling a constructor per tag.

Registration is deliberately explicit, not reflective: adding a new
protocol message without registering it here is an error the moment it
crosses a socket, and ``tests/test_codec.py`` fails fast at test time by
scanning the message modules for unregistered dataclasses.

Frame format used by the TCP transport: a 4-byte big-endian length
followed by that many bytes of the JSON document.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable

#: Frame header: payload byte length, unsigned 32-bit big-endian.
FRAME_HEADER = struct.Struct(">I")

#: Hard cap on a single frame (16 MiB) — a corrupt length prefix must
#: not make the reader allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class CodecError(ValueError):
    """Raised for unregistered types and malformed wire data."""


_DATACLASSES: dict[str, type] = {}
_ENUMS: dict[str, type] = {}
_bootstrapped = False

#: Optional :class:`repro.obs.perf.PerfRecorder`.  When ``None`` (the
#: default) ``encode``/``decode`` pay a single ``is None`` test; when a
#: harness installs one, every call is timed under its message type.
_PERF = None


def set_perf_recorder(recorder) -> None:
    """Install (or with ``None``, remove) the codec timing recorder.

    Module-level because the codec is a module-level registry: the live
    transports call :func:`encode`/:func:`decode` directly, so there is
    no per-connection object to hang a recorder on.
    """
    global _PERF
    _PERF = recorder


def _wire_label(obj: Any) -> str:
    """Histogram key for one encode/decode: the innermost message type."""
    kind = getattr(obj, "kind", None)
    return kind if isinstance(kind, str) else type(obj).__name__


def register(cls: type) -> type:
    """Register a wire dataclass or enum under its class name."""
    name = cls.__name__
    table = _ENUMS if issubclass(cls, enum.Enum) else _DATACLASSES
    if not issubclass(cls, enum.Enum) and not is_dataclass(cls):
        raise CodecError(f"{name} is neither a dataclass nor an Enum")
    existing = table.get(name)
    if existing is not None and existing is not cls:
        raise CodecError(f"codec name collision on {name!r}")
    table[name] = cls
    _WRITERS[cls] = _compile(cls)
    return cls


def registered_dataclasses() -> dict[str, type]:
    _ensure_bootstrap()
    return dict(_DATACLASSES)


def registered_enums() -> dict[str, type]:
    _ensure_bootstrap()
    return dict(_ENUMS)


def _ensure_bootstrap() -> None:
    """Register every built-in wire type.

    Imports happen lazily so :mod:`repro.net.codec` can be imported from
    low layers without dragging in core/baselines at module load.
    """
    global _bootstrapped
    if _bootstrapped:
        return
    _bootstrapped = True

    from repro.baselines.demarcation import BorrowGrant, BorrowRequest
    from repro.baselines.paxos import messages as paxos_messages
    from repro.baselines.raft import messages as raft_messages
    from repro.baselines.statemachine import TokenCommand
    from repro.core import messages as core_messages
    from repro.core.avantan.state import AcceptValue, Ballot
    from repro.core.entity import SiteTokenState
    from repro.core.requests import (
        ClientRequest,
        ClientResponse,
        RequestKind,
        RequestStatus,
    )
    from repro.net.message import Message
    from repro.net.regions import Region
    from repro.scale.batching import BatchEnvelope, BatchItem, EntityScoped
    from repro.storage.wal import LogEntry

    for cls in (
        # envelope
        Message,
        # client-facing transactions
        ClientRequest,
        ClientResponse,
        # Samya / Avantan (core.messages plus its value types)
        core_messages.ForwardedRequest,
        core_messages.SiteResponse,
        core_messages.ElectionGetValue,
        core_messages.ElectionOkValue,
        core_messages.ElectionReject,
        core_messages.AcceptValueMsg,
        core_messages.AcceptOk,
        core_messages.DecisionMsg,
        core_messages.DiscardRedistribution,
        core_messages.AbortRedistribution,
        core_messages.RecoveryQuery,
        core_messages.RecoveryReply,
        core_messages.TokenInfoRequest,
        core_messages.TokenInfoReply,
        Ballot,
        AcceptValue,
        SiteTokenState,
        # replicated-log baselines
        paxos_messages.Prepare,
        paxos_messages.Promise,
        paxos_messages.Accept,
        paxos_messages.Accepted,
        paxos_messages.AcceptNack,
        paxos_messages.Backfill,
        paxos_messages.Heartbeat,
        raft_messages.RequestVote,
        raft_messages.RequestVoteReply,
        raft_messages.AppendEntries,
        raft_messages.AppendEntriesReply,
        LogEntry,
        TokenCommand,
        # demarcation/escrow baseline
        BorrowRequest,
        BorrowGrant,
        # scale subsystem: batched envelopes and entity-scoped dispatch
        EntityScoped,
        BatchItem,
        BatchEnvelope,
        # enums reached through the above
        RequestKind,
        RequestStatus,
        Region,
    ):
        register(cls)


# -- encoding: one compiled writer per exact type ---------------------------


def _write(obj: Any) -> str:
    return _WRITERS.get(type(obj), _write_other)(obj)


def _write_float(value: float) -> str:
    text = float.__repr__(value)
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


def _write_set(obj: Any) -> str:
    # Items sort by the repr of their JSON tree, which json.loads rebuilds.
    items = sorted([_write(item) for item in obj], key=lambda text: repr(json.loads(text)))
    return '{"__set__":[' + ",".join(items) + "]}"


_WRITERS: dict[type, Callable[[Any], str]] = {
    str: _quote,
    int: int.__repr__,
    float: _write_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    tuple: lambda obj: '{"__tuple__":[' + ",".join([_write(v) for v in obj]) + "]}",
    list: lambda obj: "[" + ",".join([_write(v) for v in obj]) + "]",
    set: _write_set,
    frozenset: _write_set,
    dict: lambda obj: '{"__map__":['
    + ",".join(["[" + _write(k) + "," + _write(v) + "]" for k, v in obj.items()])
    + "]}",
}


def _write_other(obj: Any) -> str:
    """No exact-type writer: a primitive or container subclass encodes as
    its base, as json would; an enum or dataclass here is unregistered."""
    name = type(obj).__name__
    if isinstance(obj, enum.Enum):
        raise CodecError(f"enum {name} is not registered with the codec")
    if is_dataclass(obj) and not isinstance(obj, type):
        raise CodecError(f"{name} is not registered with the codec — add it to the registry")
    for base in (int, float, str, tuple, list, set, frozenset, dict):
        if isinstance(obj, base):
            return _WRITERS[base](obj)
    raise CodecError(f"cannot encode {name} for the wire")


def _compile(cls: type) -> Callable[[Any], str]:
    """An enum's writer looks up the member's finished text; a dataclass
    writer holds its field names and pre-escaped ``"name":`` prefixes."""
    if issubclass(cls, enum.Enum):
        head = '{"__enum__":' + _quote(cls.__name__) + ',"v":'
        return {member: head + _write(member.value) + "}" for member in cls}.__getitem__
    head = '{"__dc__":' + _quote(cls.__name__) + ',"f":{'
    names = [f.name for f in fields(cls)]
    keys = tuple(("," if i else "") + _quote(name) + ":" for i, name in enumerate(names))
    # Two pad names keep attrgetter's result a tuple; zip drops them.
    values = attrgetter(*names, "__class__", "__class__")
    return lambda obj, get=_WRITERS.get: head + "".join(
        [key + get(type(value), _write_other)(value) for key, value in zip(keys, values(obj))]
    ) + "}}"


# -- decoding: one json.loads, one constructor per tag ------------------------

_PLAIN = frozenset({str, int, float, bool, type(None)})


def _read(node: Any) -> Any:
    """One JSON node -> its value; only a ``"f"`` field map may be untagged."""
    if type(node) is list:
        return [item if type(item) in _PLAIN else _read(item) for item in node]
    if type(node) is not dict:
        return node
    for tag, build in _BUILDERS.items():
        if tag in node:
            try:
                return build(node[tag], node)
            except CodecError:
                raise
            except (LookupError, TypeError, ValueError, AttributeError) as exc:
                raise CodecError(f"malformed {tag} wire node: {exc!r}") from exc
    raise CodecError(f"malformed wire node: {sorted(node)}")


#: A failed lookup, field map or constructor surfaces as CodecError.
_BUILDERS: dict[str, Callable[[Any, dict], Any]] = {
    "__dc__": lambda name, node: _DATACLASSES[name](
        **{key: v if type(v) in _PLAIN else _read(v) for key, v in node["f"].items()}
    ),
    "__enum__": lambda name, node: _ENUMS[name](node["v"]),
    "__tuple__": lambda items, _: tuple(_read(items)),
    "__set__": lambda items, _: frozenset(_read(items)),
    "__map__": lambda pairs, _: {_read(k): _read(v) for k, v in pairs},
}


# -- public surface ---------------------------------------------------------


def encode(obj: Any) -> bytes:
    """Serialize any registered wire object to JSON bytes."""
    start = perf_counter() if _PERF is not None else 0.0
    _ensure_bootstrap()
    body = _write(obj).encode()
    if _PERF is not None:
        _PERF.observe("codec.encode", _wire_label(obj), perf_counter() - start)
    return body


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`; malformed data raises :class:`CodecError`."""
    start = perf_counter() if _PERF is not None else 0.0
    _ensure_bootstrap()
    try:
        obj = _read(json.loads(data.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed wire bytes: {exc}") from exc
    if _PERF is not None:
        _PERF.observe("codec.decode", _wire_label(obj), perf_counter() - start)
    return obj


def encode_frame(obj: Any) -> bytes:
    """``encode`` plus the 4-byte length prefix the TCP transport uses."""
    body = encode(obj)
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return FRAME_HEADER.pack(len(body)) + body


def decode_frame_length(header: bytes) -> int:
    """Validated payload length from a 4-byte frame header."""
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length
