"""The transaction envelope and the wellknown discovery payload.

Requests are three-field JSON objects: ``protocolHash`` (null for natural
language), ``protocolSources`` (download URIs, empty iff the hash is null),
and ``body`` (the payload, formatted per the referenced protocol or free
text). Responses carry a ``status`` of ``success``, ``failure`` or
``rejected``, plus a ``body`` except when rejected. ``failure`` is reserved
for errors outside the protocol's own error vocabulary; protocol-level
errors travel as ``success`` with the protocol's error message as body.

Canonical serialization emits keys in a fixed order with no insignificant
whitespace so golden files and logs stay stable. The encoders write that text
directly, quoting strings with the function ``json.dumps(..., ensure_ascii=
False)`` uses, so it equals compact ``json.dumps`` of the fields; they refuse
a body or source that is not a string, which every decoder would reject.
Decoders accept any key order but reject unknown keys to surface drift early.
A decoded response's ``status`` is the module's own ``STATUS_*`` constant, not
a fresh string, so the records that keep it share one object per status.

The ``/.wellknown`` payload is a plain JSON object that maps each supported
protocol hash to a non-empty list of sources, written with sorted keys; in
code it is a plain ``dict`` from end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring as _quote

from .documents import is_valid_hash

STATUS_SUCCESS = "success"
STATUS_FAILURE = "failure"
STATUS_REJECTED = "rejected"
VALID_STATUSES = frozenset({STATUS_SUCCESS, STATUS_FAILURE, STATUS_REJECTED})
_STATUS_CONSTANTS = {s: s for s in VALID_STATUSES}
_REQUEST_FIELDS = frozenset({"protocolHash", "protocolSources", "body"})
_RESPONSE_FIELDS = frozenset({"status", "body"})
_MISSING = object()


class EnvelopeError(Exception):
    """Base class for envelope encode/decode failures."""


class EncodeError(EnvelopeError):
    pass


class DecodeError(EnvelopeError):
    pass


@dataclass(frozen=True, slots=True)
class RequestEnvelope:
    protocol_hash: str | None = None
    protocol_sources: tuple[str, ...] = ()
    body: str = ""


@dataclass(frozen=True, slots=True)
class ResponseEnvelope:
    status: str
    body: str | None = None


def _check_request(env: RequestEnvelope) -> None:
    if env.protocol_hash is None and env.protocol_sources:
        raise EncodeError("protocolSources must be empty when protocolHash is null")
    if env.protocol_hash is not None:
        if not is_valid_hash(env.protocol_hash):
            raise EncodeError(f"protocolHash is not a 40-hex digest: {env.protocol_hash!r}")
        if not env.protocol_sources:
            raise EncodeError("protocolSources must be non-empty when protocolHash is set")


def _quote_body(body) -> str:
    if not isinstance(body, str):
        raise EncodeError(f"body must be a string, not {type(body).__name__}")
    return _quote(body)


def encode_request(env: RequestEnvelope) -> str:
    _check_request(env)
    sources = []
    for source in env.protocol_sources:
        if not isinstance(source, str):
            raise EncodeError(f"protocolSources must be strings, not {type(source).__name__}")
        sources.append(_quote(source))
    digest = "null" if env.protocol_hash is None else _quote(env.protocol_hash)
    return (f'{{"protocolHash":{digest},"protocolSources":[{",".join(sources)}],'
            f'"body":{_quote_body(env.body)}}}')


def _load_object(text: str, what: str) -> dict:
    """*text* decoded as a JSON object; any other text, nesting too deep
    for the decoder included, is a DecodeError."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DecodeError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DecodeError(f"{what} must be a JSON object")
    return raw


def decode_request(text: str) -> RequestEnvelope:
    raw = _load_object(text, "request")
    if not _REQUEST_FIELDS.issuperset(raw):
        raise DecodeError(f"unknown request fields: {sorted(raw.keys() - _REQUEST_FIELDS)}")
    sources = raw.get("protocolSources", _MISSING)
    if sources is _MISSING:
        raise DecodeError("missing request field: protocolSources")
    body = raw.get("body", _MISSING)
    if body is _MISSING:
        raise DecodeError("missing request field: body")

    # An absent protocolHash decodes like an explicit null (natural language).
    digest = raw.get("protocolHash")
    if digest is not None:
        if not is_valid_hash(digest):
            raise DecodeError(f"protocolHash must be null or a 40-hex digest, got {digest!r}")
        digest = digest.lower()

    if not isinstance(sources, list):
        raise DecodeError("protocolSources must be an array of strings")
    for source in sources:
        if not isinstance(source, str):
            raise DecodeError("protocolSources must be an array of strings")
    if digest is None:
        if sources:
            raise DecodeError("protocolSources must be empty when protocolHash is null")
    elif not sources:
        raise DecodeError("protocolSources must be non-empty when protocolHash is set")

    if not isinstance(body, str):
        raise DecodeError("body must be a string")

    return RequestEnvelope(digest, tuple(sources), body)


def encode_response(env: ResponseEnvelope) -> str:
    if env.status not in VALID_STATUSES:
        raise EncodeError(f"unknown status: {env.status!r}")
    if env.status == STATUS_REJECTED:
        if env.body is not None:
            raise EncodeError("rejected responses carry no body")
    if env.body is None:
        return f'{{"status":{_quote(env.status)}}}'
    return f'{{"status":{_quote(env.status)},"body":{_quote_body(env.body)}}}'


def decode_response(text: str) -> ResponseEnvelope:
    raw = _load_object(text, "response")
    if not _RESPONSE_FIELDS.issuperset(raw):
        raise DecodeError(f"unknown response fields: {sorted(raw.keys() - _RESPONSE_FIELDS)}")
    status = raw.get("status", _MISSING)
    if status is _MISSING:
        raise DecodeError("missing response field: status")

    # An unhashable status (a list, say) would make the lookup raise TypeError.
    known = _STATUS_CONSTANTS.get(status) if isinstance(status, str) else None
    if known is None:
        raise DecodeError(f"unknown status: {status!r}")
    body = raw.get("body")
    if body is not None:
        if not isinstance(body, str):
            raise DecodeError("body must be a string when present")
        if known == STATUS_REJECTED:
            raise DecodeError("rejected responses carry no body")

    return ResponseEnvelope(known, body)


# ── wellknown discovery payload ──────────────────────────────────────

def build_wellknown(wellknown: dict[str, list[str]]) -> str:
    payload = {}
    for digest, sources in sorted(wellknown.items()):
        if not is_valid_hash(digest):
            raise EncodeError(f"wellknown key is not a 40-hex digest: {digest!r}")
        if not sources:
            raise EncodeError(f"wellknown entry {digest} has an empty source list")
        payload[digest.lower()] = list(sources)
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


def parse_wellknown(text: str) -> dict[str, tuple[str, ...]]:
    raw = _load_object(text, "wellknown payload")
    wellknown = {}
    for digest, sources in raw.items():
        if not is_valid_hash(digest):
            raise DecodeError(f"wellknown key is not a 40-hex digest: {digest!r}")
        if (not isinstance(sources, list) or not sources
                or not all(isinstance(s, str) for s in sources)):
            raise DecodeError(f"wellknown entry {digest} must map to a non-empty string array")
        wellknown[digest.lower()] = tuple(sources)
    return wellknown
