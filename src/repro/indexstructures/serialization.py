"""Binary framing shared by index serialization and the write-ahead log.

Values are tagged, length-prefixed little-endian records.  Supported value
types are the ones file indices actually store: ints, floats, strings,
bytes, None, and flat tuples of those.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, List, Optional, Tuple

from repro.indexstructures.base import Index, IndexKind, make_index

_TAG_INT = 0
_TAG_FLOAT = 1
_TAG_STR = 2
_TAG_BYTES = 3
_TAG_NONE = 4
_TAG_TUPLE = 5

_pack_head = struct.Struct("<BI").pack   # tag + length (str, bytes, tuple)
_pack_int = struct.Struct("<Bq").pack
_pack_float = struct.Struct("<Bd").pack
_NONE = struct.pack("<B", _TAG_NONE)


def dump_value(value: Any) -> bytes:
    """Encode one value as a tagged binary record."""
    out: List[bytes] = []
    _encode(value, out)
    return b"".join(out)


def _encode(value: Any, out: List[bytes], kind: Optional[type] = None) -> None:
    # Dispatch on the exact type: one ``type()`` test per value instead
    # of an isinstance chain.  bool and subclasses of the supported types
    # come back round with ``kind`` set to their base type, so they
    # encode as the base type would (bools as 0/1, which is what
    # attribute predicates compare against).
    if kind is None:
        kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out.append(_pack_head(_TAG_STR, len(raw)))
        out.append(raw)
    elif kind is int:
        out.append(_pack_int(_TAG_INT, value))
    elif kind is tuple:
        out.append(_pack_head(_TAG_TUPLE, len(value)))
        for item in value:
            _encode(item, out)
    elif value is None:
        out.append(_NONE)
    elif kind is float:
        out.append(_pack_float(_TAG_FLOAT, value))
    elif kind is bytes:
        out.append(_pack_head(_TAG_BYTES, len(value)))
        out.append(value)
    else:
        for base in (int, float, str, bytes, tuple):
            if isinstance(value, base):
                return _encode(value, out, base)
        raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def load_value(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one record at ``offset``; return (value, next_offset)."""
    (tag,) = struct.unpack_from("<B", data, offset)
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_INT:
        (v,) = struct.unpack_from("<q", data, offset)
        return v, offset + 8
    if tag == _TAG_FLOAT:
        (v,) = struct.unpack_from("<d", data, offset)
        return v, offset + 8
    if tag == _TAG_STR:
        (n,) = struct.unpack_from("<I", data, offset)
        offset += 4
        return data[offset:offset + n].decode("utf-8"), offset + n
    if tag == _TAG_BYTES:
        (n,) = struct.unpack_from("<I", data, offset)
        offset += 4
        return bytes(data[offset:offset + n]), offset + n
    if tag == _TAG_TUPLE:
        (n,) = struct.unpack_from("<I", data, offset)
        offset += 4
        items: List[Any] = []
        for _ in range(n):
            item, offset = load_value(data, offset)
            items.append(item)
        return tuple(items), offset
    raise ValueError(f"unknown value tag: {tag}")


def dump_record(fields: Tuple[Any, ...]) -> bytes:
    """Encode a record (tuple of values) with a length prefix."""
    body = dump_value(fields)
    return struct.pack("<I", len(body)) + body


def iter_records(data: bytes) -> Iterator[Tuple[Any, ...]]:
    """Decode back-to-back :func:`dump_record` frames."""
    offset = 0
    while offset < len(data):
        (n,) = struct.unpack_from("<I", data, offset)
        offset += 4
        value, end = load_value(data, offset)
        if end != offset + n:
            raise ValueError("record length mismatch")
        offset = end
        yield value


def dump_index(index: Index) -> bytes:
    """Serialize any index to its generic on-disk form (kind + pairs)."""
    header = dump_value(index.kind.value)
    extra: Tuple[Any, ...] = ()
    if index.kind is IndexKind.KDTREE:
        extra = (index.dimensions,)  # type: ignore[attr-defined]
    chunks = [struct.pack("<I", len(header)), header, dump_value(extra)]
    pairs = list(index.items())
    chunks.append(struct.pack("<Q", len(pairs)))
    for key, value in pairs:
        chunks.append(dump_value(key if not isinstance(key, tuple) else tuple(key)))
        chunks.append(dump_value(value))
    return b"".join(chunks)


def load_index(data: bytes, page_hook=None) -> Index:
    """Rebuild an index from :func:`dump_index` output."""
    (hlen,) = struct.unpack_from("<I", data, 0)
    offset = 4
    kind_value, offset = load_value(data, offset)
    extra, offset = load_value(data, offset)
    kind = IndexKind(kind_value)
    kwargs = {}
    if kind is IndexKind.KDTREE and extra:
        kwargs["dimensions"] = extra[0]
    index = make_index(kind, page_hook=page_hook, **kwargs)
    (count,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    for _ in range(count):
        key, offset = load_value(data, offset)
        value, offset = load_value(data, offset)
        index.insert(key, value)
    return index
