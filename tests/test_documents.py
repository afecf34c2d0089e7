"""Document hashing, parsing, verification, and the file store."""

import os
import random

import pytest
from hypothesis import given, strategies as st

from agentmesh.documents import (DocumentError, ParseError, ProtocolMetadata,
                                 ProtocolReference, TamperError, compute_hash,
                                 extract_worked_example, is_valid_hash,
                                 load_document, normalize_hash, parse_document,
                                 render_document, save_document, verify_document,
                                 write_file_atomically)
from conftest import WEATHER_TEXT

# Reference digests from the standard SHA1 test vectors.
SHA1_EMPTY = "da39a3ee5e6b4b0d3255bfef95601890afd80709"
SHA1_ABC = "a9993e364706816aba3e25717850c26c9cd0d89d"


class TestComputeHash:
    def test_empty_string(self):
        assert compute_hash("") == SHA1_EMPTY

    def test_abc(self):
        assert compute_hash("abc") == SHA1_ABC

    def test_single_flip_changes_digest(self):
        text = WEATHER_TEXT
        flipped = text.replace("22.5", "22.6", 1)
        assert flipped != text
        assert compute_hash(flipped) != compute_hash(text)

    def test_deterministic_over_repeats(self):
        reference = compute_hash(WEATHER_TEXT)
        assert all(compute_hash(WEATHER_TEXT) == reference for _ in range(1000))

    def test_hash_shape(self):
        digest = compute_hash("anything")
        assert is_valid_hash(digest)
        assert len(digest) == 40 and digest == digest.lower()


class TestNormalizeHash:
    def test_uppercase_accepted_lowercase_out(self):
        assert normalize_hash(SHA1_ABC.upper()) == SHA1_ABC

    @pytest.mark.parametrize("bad", ["", "zz", "g" * 40, SHA1_ABC[:-1]])
    def test_rejects_malformed(self, bad):
        with pytest.raises(Exception):
            normalize_hash(bad)


class TestParseDocument:
    def test_weather_fixture_metadata(self):
        doc = parse_document(WEATHER_TEXT)
        assert doc.metadata.name == "Weather Forecast Query Protocol"
        assert doc.metadata.description.startswith("A protocol for querying the weather")
        assert doc.references == ()
        assert "Input Message" in doc.body

    def test_no_preamble_is_all_body(self):
        text = "just a free-form protocol description\nwith two lines\n"
        doc = parse_document(text)
        assert doc.metadata is None
        assert doc.references == ()
        assert doc.body == text

    def test_requires_line(self):
        dep = compute_hash("dependency")
        text = f"Requires: {dep} https://db1.example/pd\n\nbody text\n"
        doc = parse_document(text)
        assert doc.references == (ProtocolReference(dep, ("https://db1.example/pd",)),)
        assert doc.preamble + doc.body == text

    def test_requires_multiple_sources(self):
        dep = compute_hash("x")
        doc = parse_document(f"Requires: {dep} https://a/pd ipfs://Q\n\nbody\n")
        assert doc.references[0].sources == ("https://a/pd", "ipfs://Q")

    def test_requires_bad_hash_is_error(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_document("Requires: nothex https://a/pd\n\nbody\n")

    def test_requires_no_sources_is_error(self):
        dep = compute_hash("x")
        with pytest.raises(ParseError, match="no sources"):
            parse_document(f"Requires: {dep}\n\nbody\n")

    def test_empty_name_is_error(self):
        with pytest.raises(ParseError, match="empty protocol name"):
            parse_document("Name: \nbody\n")

    def test_description_without_name_is_error(self):
        with pytest.raises(ParseError, match="without a 'Name:'"):
            parse_document("Description: something\nbody\n")

    def test_preamble_plus_body_reconstructs_raw_text(self):
        doc = parse_document(WEATHER_TEXT)
        assert doc.preamble + doc.body == doc.raw_text == WEATHER_TEXT

    def test_serialize_is_identity(self):
        assert parse_document(WEATHER_TEXT).raw_text == WEATHER_TEXT


_names = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=1, max_size=40).map(lambda s: s.strip() or "x")
_bodies = st.text(max_size=300).filter(
    lambda s: not s.startswith(("Name: ", "Description: ", "Requires: ")))


@given(name=_names, description=_names, body=_bodies)
def test_render_parse_round_trip(name, description, body):
    text = render_document(body, ProtocolMetadata(name, description))
    doc = parse_document(text)
    assert doc.metadata == ProtocolMetadata(name, description)
    assert doc.body == body
    assert doc.preamble + doc.body == text
    assert doc.raw_text == text


@given(text=st.text(max_size=400))
def test_serialize_parse_identity_on_parseable_text(text):
    try:
        doc = parse_document(text)
    except ParseError:
        return
    assert doc.raw_text == text
    assert doc.preamble + doc.body == text


@given(body=_bodies, n_refs=st.integers(0, 3))
def test_render_with_references_round_trip(body, n_refs):
    refs = tuple(
        ProtocolReference(compute_hash(f"dep{i}"), (f"https://r{i}/pd", f"mem://db{i}/pd"))
        for i in range(n_refs))
    text = render_document(body, ProtocolMetadata("Some Protocol", "Does things."), refs)
    doc = parse_document(text)
    assert doc.references == refs
    assert doc.raw_text == text


class TestVerifyDocument:
    def test_accepts_true_digest(self):
        doc = verify_document(WEATHER_TEXT, compute_hash(WEATHER_TEXT))
        assert doc.metadata.name == "Weather Forecast Query Protocol"

    def test_accepts_uppercase_digest(self):
        verify_document(WEATHER_TEXT, compute_hash(WEATHER_TEXT).upper())

    def test_rejects_edited_text(self):
        edited = WEATHER_TEXT.replace("22.5", "22.6", 1)
        with pytest.raises(TamperError) as info:
            verify_document(edited, compute_hash(WEATHER_TEXT))
        assert info.value.expected == compute_hash(WEATHER_TEXT)
        assert info.value.actual == compute_hash(edited)

    def test_empty_document(self):
        doc = verify_document("", SHA1_EMPTY)
        assert doc.body == "" and doc.metadata is None

    def test_random_single_character_mutations_all_rejected(self):
        rng = random.Random(4242)
        digest = compute_hash(WEATHER_TEXT)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        rejected = 0
        for _ in range(100):
            pos = rng.randrange(len(WEATHER_TEXT))
            original = WEATHER_TEXT[pos]
            replacement = rng.choice([c for c in alphabet if c != original])
            mutated = WEATHER_TEXT[:pos] + replacement + WEATHER_TEXT[pos + 1:]
            try:
                verify_document(mutated, digest)
            except TamperError:
                rejected += 1
        assert rejected == 100


class TestWorkedExample:
    def test_weather_example(self):
        example = extract_worked_example(parse_document(WEATHER_TEXT))
        assert example == (
            {"date": "2023-10-01", "location": "New York"},
            {"temperature": 22.5, "precipitation": 5.0, "weatherCondition": "cloudy"},
        )

    def test_absent_example(self):
        assert extract_worked_example(parse_document("no example here\n")) is None

    def test_braces_and_quotes_inside_strings(self):
        text = ('Example\n\nInput:\n\n  {"note": "a } b { c", "quote": "say \\"hi}\\""}\n\n'
                'Output:\n\n  {"ok": "}{", "nested": {"x": "\\\\"}} trailing }\n')
        assert extract_worked_example(parse_document(text)) == (
            {"note": "a } b { c", "quote": 'say "hi}"'},
            {"ok": "}{", "nested": {"x": "\\"}},
        )

    def test_unterminated_example(self):
        text = 'Example\n\nInput:\n\n  {"a": 1}\n\nOutput:\n\n  {"b": "}"\n'
        assert extract_worked_example(parse_document(text)) is None


class TestFileStore:
    def test_save_load_round_trip(self, tmp_path):
        doc = parse_document(WEATHER_TEXT)
        path = save_document(doc, str(tmp_path))
        assert path.endswith(f"{doc.hash}.pd")
        assert load_document(path).raw_text == WEATHER_TEXT

    def test_failed_write_leaves_the_old_file(self, tmp_path, write_fails_halfway):
        path = tmp_path / "note.txt"
        path.write_text("before", encoding="utf-8")
        with pytest.raises(OSError, match="No space"):
            write_file_atomically(str(path), "after, at greater length")
        assert os.listdir(tmp_path) == ["note.txt"]
        assert path.read_text(encoding="utf-8") == "before"

    def test_load_detects_corruption(self, tmp_path):
        doc = parse_document(WEATHER_TEXT)
        path = save_document(doc, str(tmp_path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("tampered")
        with pytest.raises(TamperError):
            load_document(path)

    def test_load_rejects_non_utf8_bytes(self, tmp_path):
        path = tmp_path / f"{compute_hash(WEATHER_TEXT)}.pd"
        path.write_bytes(b"Name: \xff\xfe\n")
        with pytest.raises(DocumentError, match="UTF-8"):
            load_document(str(path))
