"""Wire envelope encoding, decoding, golden bytes, and the wellknown map."""

import json
import os

import pytest
from hypothesis import given, strategies as st

from agentmesh.documents import compute_hash
from agentmesh.envelope import (STATUS_FAILURE, STATUS_REJECTED, STATUS_SUCCESS,
                                DecodeError, EncodeError, RequestEnvelope,
                                ResponseEnvelope, build_wellknown,
                                decode_request, decode_response, encode_request,
                                encode_response, parse_wellknown)
from agentmesh.catalog import WEATHER_PD_TEXT
from conftest import DEEP

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
WEATHER_HASH = compute_hash(WEATHER_PD_TEXT)


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8", newline="") as fh:
        return fh.read()


class TestGoldenFixtures:
    def test_natural_language_request(self):
        env = RequestEnvelope(
            None, (), "What is the weather forecast for London, UK on 2024-09-27?")
        assert encode_request(env) == golden("alice_nl_request.json")

    def test_protocol_request(self):
        env = RequestEnvelope(
            WEATHER_HASH,
            (f"mem://db1/pd/{WEATHER_HASH}",),
            '{"location": "London, UK", "date": "2024-09-27"}',
        )
        assert encode_request(env) == golden("alice_pd_request.json")

    def test_success_response(self):
        env = ResponseEnvelope(
            "success",
            'The weather forecast for London, UK, on 2024-09-27 is as follows: '
            '"Rainy, 11 degrees Celsius, with a precipitation of 12 mm."',
        )
        assert encode_response(env) == golden("bob_success_response.json")

    def test_goldens_decode_back(self):
        assert decode_request(golden("alice_nl_request.json")).protocol_hash is None
        decoded = decode_request(golden("alice_pd_request.json"))
        assert decoded.protocol_hash == WEATHER_HASH
        assert decode_response(golden("bob_success_response.json")).status == "success"


class TestEncodeRequest:
    def test_sources_without_hash_is_error(self):
        with pytest.raises(EncodeError):
            encode_request(RequestEnvelope(None, ("x",), "hi"))

    def test_hash_without_sources_is_error(self):
        with pytest.raises(EncodeError):
            encode_request(RequestEnvelope(WEATHER_HASH, (), "hi"))

    def test_malformed_hash_is_error(self):
        with pytest.raises(EncodeError):
            encode_request(RequestEnvelope("zz", ("s",), "hi"))

    def test_explicit_null_hash_emitted(self):
        assert encode_request(RequestEnvelope(None, (), "")).startswith('{"protocolHash":null')


class TestDecodeRequest:
    def test_missing_keys(self):
        with pytest.raises(DecodeError, match="protocolSources"):
            decode_request('{"protocolHash":"zz"}')

    def test_bad_hash(self):
        with pytest.raises(DecodeError, match="protocolHash"):
            decode_request('{"protocolHash":"zz","protocolSources":["s"],"body":""}')

    def test_hash_with_empty_sources_rejected(self):
        text = ('{"protocolHash":"%s","protocolSources":[],"body":""}' % WEATHER_HASH)
        with pytest.raises(DecodeError, match="non-empty"):
            decode_request(text)

    def test_null_hash_with_sources_rejected(self):
        with pytest.raises(DecodeError, match="empty"):
            decode_request('{"protocolHash":null,"protocolSources":["s"],"body":""}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(DecodeError, match="unknown"):
            decode_request('{"protocolHash":null,"protocolSources":[],"body":"","x":1}')

    def test_absent_hash_means_natural_language(self):
        env = decode_request('{"protocolSources":[],"body":"hello"}')
        assert env.protocol_hash is None

    def test_any_key_order_accepted(self):
        env = decode_request('{"body":"b","protocolSources":[],"protocolHash":null}')
        assert env.body == "b"

    def test_uppercase_hash_normalized(self):
        text = ('{"protocolHash":"%s","protocolSources":["s"],"body":""}'
                % WEATHER_HASH.upper())
        assert decode_request(text).protocol_hash == WEATHER_HASH


class TestResponses:
    def test_rejected_carries_only_status(self):
        assert encode_response(ResponseEnvelope("rejected")) == '{"status":"rejected"}'

    def test_rejected_with_body_is_encode_error(self):
        with pytest.raises(EncodeError):
            encode_response(ResponseEnvelope("rejected", "nope"))

    def test_unknown_status_encode(self):
        with pytest.raises(EncodeError):
            encode_response(ResponseEnvelope("maybe", "x"))

    def test_unknown_status_decode(self):
        with pytest.raises(DecodeError, match="maybe"):
            decode_response('{"status":"maybe"}')

    def test_rejected_with_body_is_decode_error(self):
        with pytest.raises(DecodeError):
            decode_response('{"status":"rejected","body":"x"}')

    def test_failure_round_trip(self):
        env = ResponseEnvelope("failure", "backend down")
        assert decode_response(encode_response(env)) == env

    @pytest.mark.parametrize("constant", [STATUS_SUCCESS, STATUS_FAILURE, STATUS_REJECTED])
    def test_decoded_status_is_the_module_constant(self, constant):
        assert decode_response(f'{{"status":"{constant}"}}').status is constant


_hashes = st.text("0123456789abcdef", min_size=40, max_size=40)
_bodies = st.text(max_size=200)
_sources = st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=3).map(tuple)


@given(body=_bodies)
def test_nl_request_round_trip(body):
    env = RequestEnvelope(None, (), body)
    assert decode_request(encode_request(env)) == env


@given(digest=_hashes, sources=_sources, body=_bodies)
def test_protocol_request_round_trip(digest, sources, body):
    env = RequestEnvelope(digest, sources, body)
    assert decode_request(encode_request(env)) == env


@given(status=st.sampled_from(["success", "failure"]), body=st.none() | _bodies)
def test_response_round_trip(status, body):
    env = ResponseEnvelope(status, body)
    assert decode_response(encode_response(env)) == env


def _canonical(fields: dict) -> str:
    """The canonical text as the encoders once produced it."""
    return json.dumps(fields, separators=(",", ":"), ensure_ascii=False)


# Quotes, backslashes, control characters, non-ASCII, the JavaScript line
# separators and lone surrogates, mixed with arbitrary code points.
_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "/", "é",
                            "\u2028", "\u2029", "\ud800", "\udfff", "\U0001f600"])
_awkward_text = st.text(_AWKWARD | st.characters(exclude_categories=()), max_size=60)


class TestCanonicalText:
    @given(digest=st.none() | st.text("0123456789abcdefABCDEF", min_size=40, max_size=40),
           sources=st.lists(_awkward_text.filter(bool), min_size=1, max_size=3).map(tuple),
           body=_awkward_text)
    def test_request_equals_compact_dumps(self, digest, sources, body):
        sources = () if digest is None else sources
        env = RequestEnvelope(digest, sources, body)
        assert encode_request(env) == _canonical(
            {"protocolHash": digest, "protocolSources": list(sources), "body": body})

    @given(status=st.sampled_from(["success", "failure", "rejected"]),
           body=st.none() | _awkward_text)
    def test_response_equals_compact_dumps(self, status, body):
        body = None if status == "rejected" else body
        fields = {"status": status} if body is None else {"status": status, "body": body}
        assert encode_response(ResponseEnvelope(status, body)) == _canonical(fields)

    @pytest.mark.parametrize("env", [
        RequestEnvelope(None, (), 5),
        RequestEnvelope(None, (), None),
        RequestEnvelope(WEATHER_HASH, ("mem://db1", b"mem://db2"), "hi"),
        RequestEnvelope(WEATHER_HASH, (None,), "hi"),
    ], ids=["int-body", "null-body", "bytes-source", "null-source"])
    def test_request_with_non_string_is_encode_error(self, env):
        with pytest.raises(EncodeError):
            encode_request(env)

    @pytest.mark.parametrize("body", [{"temperature": 22.5}, 3, ["x"]])
    def test_response_with_non_string_body_is_encode_error(self, body):
        with pytest.raises(EncodeError):
            encode_response(ResponseEnvelope("success", body))


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=20), inner,
                                                                max_size=4),
    max_leaves=12)
# Objects over the envelopes' own keys, so that each field check is reached.
_FIELD_NAMES = st.sampled_from(["protocolHash", "protocolSources", "body", "status", "other"])
_FIELD_VALUES = (_json | _hashes | st.sampled_from(["success", "failure", "rejected"])
                 | st.lists(st.text(max_size=10), max_size=2))
_objects = st.dictionaries(_FIELD_NAMES, _FIELD_VALUES, max_size=4)
_DECODERS = [decode_request, decode_response, parse_wellknown]


class TestDecodersRaiseOnlyDecodeError:
    """Any text decodes to an envelope (or wellknown map) or raises
    DecodeError, and nothing else."""

    @pytest.mark.parametrize("decode", _DECODERS)
    @given(value=_json | _objects)
    def test_any_json_value(self, decode, value):
        try:
            decode(json.dumps(value))
        except DecodeError:
            pass

    @pytest.mark.parametrize("decode", _DECODERS)
    @given(text=st.text(max_size=60))
    def test_any_text(self, decode, text):
        try:
            decode(text)
        except DecodeError:
            pass

    @pytest.mark.parametrize("decode", _DECODERS)
    @pytest.mark.parametrize("text", ['{"status": []}', '{"status": {}}', DEEP,
                                      '{"body": %s}' % DEEP],
                             ids=["list-status", "object-status", "deep", "deep-field"])
    def test_hostile_text(self, decode, text):
        with pytest.raises(DecodeError):
            decode(text)

    @given(env=st.builds(RequestEnvelope, st.none(), st.just(()), _awkward_text)
           | st.builds(RequestEnvelope, _hashes, st.lists(_awkward_text, min_size=1,
                                                          max_size=3).map(tuple), _awkward_text)
           | st.builds(ResponseEnvelope, st.sampled_from(["success", "failure"]),
                       st.none() | _awkward_text)
           | st.just(ResponseEnvelope("rejected")))
    def test_decode_inverts_encode(self, env):
        if isinstance(env, RequestEnvelope):
            assert decode_request(encode_request(env)) == env
        else:
            assert decode_response(encode_response(env)) == env


class TestWellknown:
    def test_empty_map(self):
        assert build_wellknown({}) == "{}"
        assert parse_wellknown("{}") == {}

    def test_round_trip_two_sources(self):
        sources = (f"https://db1/pd/{WEATHER_HASH}", "ipfs://Q")
        assert parse_wellknown(build_wellknown({WEATHER_HASH: list(sources)})) == {
            WEATHER_HASH: sources}

    def test_keys_are_written_sorted(self):
        low, high = "0" * 40, "f" * 40
        assert build_wellknown({high: ["b"], low: ["a"]}) == (
            '{"%s":["a"],"%s":["b"]}' % (low, high))

    def test_empty_source_list_rejected_on_parse(self):
        with pytest.raises(DecodeError):
            parse_wellknown('{"%s":[]}' % WEATHER_HASH)

    def test_empty_source_list_rejected_on_build(self):
        with pytest.raises(EncodeError):
            build_wellknown({WEATHER_HASH: []})

    def test_bad_key_rejected(self):
        with pytest.raises(DecodeError):
            parse_wellknown('{"nothex":["s"]}')
