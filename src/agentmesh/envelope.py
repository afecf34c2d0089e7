"""The transaction envelope and the wellknown discovery payload.

Requests are three-field JSON objects: ``protocolHash`` (null for natural
language), ``protocolSources`` (download URIs, empty iff the hash is null),
and ``body`` (the payload, formatted per the referenced protocol or free
text). Responses carry a ``status`` of ``success``, ``failure`` or
``rejected``, plus a ``body`` except when rejected. ``failure`` is reserved
for errors outside the protocol's own error vocabulary; protocol-level
errors travel as ``success`` with the protocol's error message as body.

Canonical serialization emits keys in a fixed order with no insignificant
whitespace so golden files and logs stay stable; decoders accept any key
order but reject unknown keys to surface drift early.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .documents import is_valid_hash

STATUS_SUCCESS = "success"
STATUS_FAILURE = "failure"
STATUS_REJECTED = "rejected"
VALID_STATUSES = frozenset({STATUS_SUCCESS, STATUS_FAILURE, STATUS_REJECTED})


class EnvelopeError(Exception):
    """Base class for envelope encode/decode failures."""


class EncodeError(EnvelopeError):
    pass


class DecodeError(EnvelopeError):
    pass


@dataclass(frozen=True)
class RequestEnvelope:
    protocol_hash: str | None = None
    protocol_sources: tuple[str, ...] = ()
    body: str = ""

    @property
    def is_natural_language(self) -> bool:
        return self.protocol_hash is None


@dataclass(frozen=True)
class ResponseEnvelope:
    status: str
    body: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def _check_request(env: RequestEnvelope) -> None:
    if env.protocol_hash is None and env.protocol_sources:
        raise EncodeError("protocolSources must be empty when protocolHash is null")
    if env.protocol_hash is not None:
        if not is_valid_hash(env.protocol_hash):
            raise EncodeError(f"protocolHash is not a 40-hex digest: {env.protocol_hash!r}")
        if not env.protocol_sources:
            raise EncodeError("protocolSources must be non-empty when protocolHash is set")


def encode_request(env: RequestEnvelope) -> str:
    _check_request(env)
    return _dumps({
        "protocolHash": env.protocol_hash,
        "protocolSources": list(env.protocol_sources),
        "body": env.body,
    })


def decode_request(text: str) -> RequestEnvelope:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise DecodeError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DecodeError("request must be a JSON object")

    extra = set(raw) - {"protocolHash", "protocolSources", "body"}
    if extra:
        raise DecodeError(f"unknown request fields: {sorted(extra)}")
    for key in ("protocolSources", "body"):
        if key not in raw:
            raise DecodeError(f"missing request field: {key}")

    # An absent protocolHash decodes like an explicit null (natural language).
    digest = raw.get("protocolHash")
    if digest is not None:
        if not isinstance(digest, str) or not is_valid_hash(digest):
            raise DecodeError(f"protocolHash must be null or a 40-hex digest, got {digest!r}")
        digest = digest.lower()

    sources = raw["protocolSources"]
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise DecodeError("protocolSources must be an array of strings")
    if digest is None and sources:
        raise DecodeError("protocolSources must be empty when protocolHash is null")
    if digest is not None and not sources:
        raise DecodeError("protocolSources must be non-empty when protocolHash is set")

    body = raw["body"]
    if not isinstance(body, str):
        raise DecodeError("body must be a string")

    return RequestEnvelope(protocol_hash=digest, protocol_sources=tuple(sources), body=body)


def encode_response(env: ResponseEnvelope) -> str:
    if env.status not in VALID_STATUSES:
        raise EncodeError(f"unknown status: {env.status!r}")
    if env.status == STATUS_REJECTED:
        if env.body is not None:
            raise EncodeError("rejected responses carry no body")
        return _dumps({"status": env.status})
    payload = {"status": env.status}
    if env.body is not None:
        payload["body"] = env.body
    return _dumps(payload)


def decode_response(text: str) -> ResponseEnvelope:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise DecodeError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DecodeError("response must be a JSON object")

    extra = set(raw) - {"status", "body"}
    if extra:
        raise DecodeError(f"unknown response fields: {sorted(extra)}")
    if "status" not in raw:
        raise DecodeError("missing response field: status")

    status = raw["status"]
    if status not in VALID_STATUSES:
        raise DecodeError(f"unknown status: {status!r}")
    body = raw.get("body")
    if body is not None and not isinstance(body, str):
        raise DecodeError("body must be a string when present")
    if status == STATUS_REJECTED and body is not None:
        raise DecodeError("rejected responses carry no body")

    return ResponseEnvelope(status=status, body=body)


# ── wellknown discovery payload ──────────────────────────────────────

@dataclass(frozen=True)
class WellknownMap:
    """Supported protocol hashes mapped to non-empty source lists."""

    entries: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @classmethod
    def from_dict(cls, mapping: dict[str, list[str]]) -> "WellknownMap":
        return cls(entries=tuple(sorted(
            (digest, tuple(sources)) for digest, sources in mapping.items()
        )))

    def sources_for(self, digest: str) -> tuple[str, ...]:
        for known, sources in self.entries:
            if known == digest:
                return sources
        return ()

    def __contains__(self, digest: str) -> bool:
        return any(known == digest for known, _ in self.entries)


def build_wellknown(wk: WellknownMap) -> str:
    payload = {}
    for digest, sources in sorted(wk.entries):
        if not is_valid_hash(digest):
            raise EncodeError(f"wellknown key is not a 40-hex digest: {digest!r}")
        if not sources:
            raise EncodeError(f"wellknown entry {digest} has an empty source list")
        payload[digest.lower()] = list(sources)
    return _dumps(payload)


def parse_wellknown(text: str) -> WellknownMap:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise DecodeError(f"wellknown payload is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DecodeError("wellknown payload must be a JSON object")

    entries = {}
    for digest, sources in raw.items():
        if not is_valid_hash(digest):
            raise DecodeError(f"wellknown key is not a 40-hex digest: {digest!r}")
        if (not isinstance(sources, list) or not sources
                or not all(isinstance(s, str) for s in sources)):
            raise DecodeError(f"wellknown entry {digest} must map to a non-empty string array")
        entries[digest.lower()] = sources
    return WellknownMap.from_dict(entries)
