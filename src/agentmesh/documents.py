"""Content-addressed protocol documents.

A protocol document (PD) is a plain-text description of a communication
protocol, identified by the SHA1 digest of its exact UTF-8 bytes. The raw
text is never normalized: senders and receivers must exchange identical
bytes or the identification breaks.

A PD may start with a preamble of machine-readable lines:

    Name: <title>
    Description: <one-paragraph purpose>
    Requires: <40-hex-hash> <source-uri> [<source-uri> ...]

The preamble is the maximal leading run of such lines; everything after it
(including any blank separator line) is the free-text body. The ``Requires:``
line format is implementation-defined and versioned with this package; there
is no ecosystem-wide standard for cross-document references yet.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
from dataclasses import dataclass
from functools import cached_property

_HEX_RE = re.compile(r"^[0-9a-fA-F]{40}$")
_JSON_DECODER = json.JSONDecoder()

_NAME_PREFIX = "Name: "
_DESC_PREFIX = "Description: "
_REQ_PREFIX = "Requires: "


class DocumentError(Exception):
    """Base class for protocol-document failures."""


class ParseError(DocumentError):
    """A preamble line is malformed."""


class TamperError(DocumentError):
    """Document bytes do not match the expected digest."""

    def __init__(self, expected: str, actual: str):
        super().__init__(f"digest mismatch: expected {expected}, got {actual}")
        self.expected = expected
        self.actual = actual


def compute_hash(text: str) -> str:
    """SHA1 digest of the UTF-8 bytes of *text*, as lowercase hex."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def is_valid_hash(value: str) -> bool:
    return isinstance(value, str) and bool(_HEX_RE.match(value))


def normalize_hash(value: str) -> str:
    """Validate a digest string; comparisons are case-insensitive, canonical
    form is lowercase."""
    if not is_valid_hash(value):
        raise DocumentError(f"not a 40-character hex digest: {value!r}")
    return value.lower()


@dataclass(frozen=True)
class ProtocolMetadata:
    """Human/machine-readable title and purpose of a protocol."""

    name: str
    description: str = ""


@dataclass(frozen=True)
class ProtocolReference:
    """A dependency on another protocol document."""

    hash: str
    sources: tuple[str, ...]


@dataclass(frozen=True)
class ProtocolDocument:
    """A parsed protocol document.

    ``raw_text`` is the hash input and is preserved verbatim; ``preamble``
    holds the exact leading bytes consumed by metadata/reference parsing, so
    ``preamble + body == raw_text`` always holds. The digest is computed on
    first use and kept.
    """

    raw_text: str
    metadata: ProtocolMetadata | None = None
    references: tuple[ProtocolReference, ...] = ()
    body: str = ""
    preamble: str = ""

    @cached_property
    def hash(self) -> str:
        return compute_hash(self.raw_text)

    @property
    def name(self) -> str:
        return self.metadata.name if self.metadata else ""

    @property
    def description(self) -> str:
        return self.metadata.description if self.metadata else ""


def _split_keepends(text: str) -> list[str]:
    # str.splitlines also breaks on \r, \v etc.; only \n delimits lines here
    # so that exotic control characters survive round-trips untouched.
    parts = text.split("\n")
    lines = [part + "\n" for part in parts[:-1]]
    if parts[-1]:
        lines.append(parts[-1])
    return lines


def _parse_requires(content: str, lineno: int) -> ProtocolReference:
    tokens = content[len(_REQ_PREFIX):].split()
    if not tokens:
        raise ParseError(f"line {lineno}: 'Requires:' needs a hash and at least one source")
    if not is_valid_hash(tokens[0]):
        raise ParseError(f"line {lineno}: bad reference hash {tokens[0]!r} (want 40 hex chars)")
    if len(tokens) < 2:
        raise ParseError(f"line {lineno}: reference {tokens[0]} has no sources")
    return ProtocolReference(hash=tokens[0].lower(), sources=tuple(tokens[1:]))


def parse_document(text: str) -> ProtocolDocument:
    """Parse *text* into metadata, references, and body.

    Raises ParseError for malformed or duplicate preamble lines; anything
    that is not a recognized preamble line simply starts the body.
    """
    name: str | None = None
    description: str | None = None
    references: list[ProtocolReference] = []
    consumed = 0

    for lineno, line in enumerate(_split_keepends(text), start=1):
        content = line[:-1] if line.endswith("\n") else line
        if content.startswith(_NAME_PREFIX):
            if name is not None:
                raise ParseError(f"line {lineno}: duplicate 'Name:' line")
            name = content[len(_NAME_PREFIX):]
            if not name:
                raise ParseError(f"line {lineno}: empty protocol name")
        elif content.startswith(_DESC_PREFIX):
            if description is not None:
                raise ParseError(f"line {lineno}: duplicate 'Description:' line")
            description = content[len(_DESC_PREFIX):]
        elif content.startswith(_REQ_PREFIX):
            references.append(_parse_requires(content, lineno))
        else:
            break
        consumed += len(line)

    if description is not None and name is None:
        raise ParseError("'Description:' line without a 'Name:' line")

    metadata = ProtocolMetadata(name=name, description=description or "") if name else None
    return ProtocolDocument(
        raw_text=text,
        metadata=metadata,
        references=tuple(references),
        body=text[consumed:],
        preamble=text[:consumed],
    )


def render_document(
    body: str,
    metadata: ProtocolMetadata | None = None,
    references: tuple[ProtocolReference, ...] | list[ProtocolReference] = (),
) -> str:
    """Compose a canonical document text (Name, Description, Requires, body)."""
    lines = []
    if metadata is not None:
        if not metadata.name:
            raise ParseError("metadata requires a non-empty name")
        lines.append(f"{_NAME_PREFIX}{metadata.name}\n")
        if metadata.description:
            lines.append(f"{_DESC_PREFIX}{metadata.description}\n")
    for ref in references:
        if not ref.sources:
            raise ParseError(f"reference {ref.hash} has no sources")
        lines.append(f"{_REQ_PREFIX}{normalize_hash(ref.hash)} {' '.join(ref.sources)}\n")
    return "".join(lines) + body


def verify_document(text: str, expected: str) -> ProtocolDocument:
    """Parse *text* iff its digest equals *expected*.

    Raises TamperError on mismatch; callers must not store the document.
    """
    expected = normalize_hash(expected)
    actual = compute_hash(text)
    if actual != expected:
        raise TamperError(expected, actual)
    return parse_document(text)


# ── worked examples ──────────────────────────────────────────────────

def _json_object_after(text: str, start: int):
    """The JSON object that opens at the first ``{`` from *start*, or None."""
    opener = text.find("{", start)
    if opener < 0:
        return None
    try:
        return _JSON_DECODER.raw_decode(text, opener)[0]
    except ValueError:
        return None


def extract_worked_example(doc: ProtocolDocument):
    """Return the (input, output) objects of the document's worked example,
    or None when the document carries no usable example.

    Looks for an ``Example`` heading followed by ``Input:`` and ``Output:``
    JSON objects; this is the layout produced by render-based documents.
    """
    body = doc.body
    anchor = body.find("Example")
    if anchor < 0:
        return None
    in_pos = body.find("Input:", anchor)
    out_pos = body.find("Output:", anchor)
    if in_pos < 0 or out_pos < 0:
        return None
    example_in = _json_object_after(body, in_pos)
    example_out = _json_object_after(body, out_pos)
    if example_in is None or example_out is None:
        return None
    return example_in, example_out


# ── file store ───────────────────────────────────────────────────────

def document_filename(digest: str) -> str:
    return f"{normalize_hash(digest)}.pd"


def write_file_atomically(path: str, text: str) -> None:
    """Write *text* to *path* as UTF-8 through a temporary file beside it,
    renamed over *path* once complete, so that a write that fails leaves
    *path* as it was."""
    temp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(temp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def save_document(doc: ProtocolDocument, directory: str) -> str:
    """Write the document as ``<hash>.pd`` under *directory*; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, document_filename(doc.hash))
    write_file_atomically(path, doc.raw_text)
    return path


def load_document(path: str) -> ProtocolDocument:
    """Read a ``<hash>.pd`` file and verify its content against the filename.
    Raises DocumentError for bytes that are not UTF-8 or do not match."""
    digest = os.path.basename(path)
    if digest.endswith(".pd"):
        digest = digest[:-3]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8: {exc}") from exc
    return verify_document(text, digest)
