"""Properties of the HTTP/1.1 reader that both sides of the wire share.

A stream of framed messages must read the same whether ``recv`` hands it
over whole or cut at arbitrary segment boundaries: the same heads, the same
bodies and, for a stream cut short, the same ``_Malformed`` status. The
socket is a stand-in that returns preset segments, so no example starts a
thread or opens a connection.
"""

from hypothesis import given, settings, strategies as st

from agentmesh.transport import _content_length, _Malformed, _Reader


class _Segments:
    """A socket whose ``recv`` hands out preset segments, then EOF."""

    def __init__(self, segments: list[bytes]):
        self.segments = segments[::-1]

    def recv(self, size: int) -> bytes:
        if not self.segments:
            return b""
        segment = self.segments.pop()
        if len(segment) > size:
            self.segments.append(segment[size:])
        return segment[:size]


_NAMES = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)
_VALUES = st.text("".join(map(chr, range(0x20, 0x7f))) + "\t\xe9", max_size=16)


@st.composite
def _head(draw, start: str, framing: list[str]) -> bytes:
    """A start line and fields (``X-`` names, so that none frames the
    message), then *framing*, with one kind of line end and perhaps empty
    lines before it all."""
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    fields = draw(st.dictionaries(_NAMES, _VALUES, max_size=4))
    lines = [start, *(f"X-{name}: {value}" for name, value in fields.items()), *framing]
    return (draw(st.sampled_from(["", eol, eol * 2])) + eol.join(lines) + eol * 2).encode("latin-1")


@st.composite
def _request(draw) -> tuple[bytes, bytes]:
    """A request framed by Content-Length, and its body."""
    body = draw(st.binary(max_size=40))
    method = draw(st.sampled_from(["GET", "POST"]))
    return draw(_head(f"{method} /pd HTTP/1.1", [f"Content-Length: {len(body)}"])) + body, body


@st.composite
def _answer(draw, last: bool) -> tuple[bytes, bytes]:
    """An answer framed by length or by chunks, or, when it is the stream's
    *last*, perhaps by the end of the connection, sometimes after a 100; and
    its body."""
    body = draw(st.binary(max_size=40))
    framing = draw(st.sampled_from(["length", "chunked", "eof"] if last else ["length", "chunked"]))
    interim = draw(st.sampled_from([b"", b"HTTP/1.1 100 Continue\r\n\r\n"]))
    if framing == "length":
        head = draw(_head("HTTP/1.1 200 OK", [f"Content-Length: {len(body)}"]))
        return interim + head + body, body
    if framing == "eof":
        return interim + draw(_head("HTTP/1.1 200 OK", [])) + body, body
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(body) - 1)), max_size=3)))
    chunks = [body[i:j] for i, j in zip([0, *cuts], [*cuts, len(body)]) if body[i:j]]
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    encoded = b"".join(b"%x%s%s%s%s" % (len(chunk), draw(st.sampled_from([b"", b";ext=1"])), eol,
                                        chunk, eol) for chunk in chunks)
    trailer = draw(st.sampled_from([b"", b"X-Trailer: t" + eol]))
    head = draw(_head("HTTP/1.1 200 OK", ["Transfer-Encoding: chunked"]))
    return interim + head + encoded + b"0" + eol + trailer + eol, body


def _read_requests(reader: _Reader) -> list:
    """What the server's handler reads: heads and Content-Length bodies."""
    read = []
    try:
        while (head := reader.head()) is not None:
            line, fields = head
            read.append((line, dict(fields), bytes(reader.exactly(_content_length(fields) or 0))))
    except _Malformed as exc:
        read.append(exc.status)
    return read


def _read_answers(reader: _Reader) -> list:
    """What the client reads: answers, until the stream ends."""
    read = []
    try:
        while True:
            status, body, keep = reader.answer("GET")
            read.append((status, bytes(body), keep))
    except ConnectionError:
        read.append("closed")
    except _Malformed as exc:
        read.append(exc.status)
    return read


@st.composite
def _stream(draw, kind: str):
    """One to three messages as one stream, perhaps cut short; the same
    stream split into segments; and the messages' bodies, None when the
    stream was cut short."""
    if kind == "requests":
        messages = draw(st.lists(_request(), min_size=1, max_size=3))
    else:
        count = draw(st.integers(1, 3))
        messages = [draw(_answer(last=i == count - 1)) for i in range(count)]
    stream = b"".join(wire for wire, _ in messages)
    bodies = [body for _, body in messages]
    if draw(st.booleans()):
        stream, bodies = stream[:draw(st.integers(0, len(stream) - 1))], None
    cuts = []
    if len(stream) > 1:
        cuts = sorted(draw(st.sets(st.integers(1, len(stream) - 1), max_size=8)))
    return stream, [stream[i:j] for i, j in zip([0, *cuts], [*cuts, len(stream)])], bodies


def _read(kind: str, segments: list[bytes]) -> list:
    reader = _Reader(_Segments(segments))
    return (_read_requests if kind == "requests" else _read_answers)(reader)


@settings(deadline=None)  # a loaded machine must not fail an example
@given(st.data())
def test_requests_read_the_same_whole_or_in_segments(data):
    stream, segments, bodies = data.draw(_stream("requests"))
    whole = _read("requests", [stream])
    assert _read("requests", segments) == whole
    if bodies is not None:
        assert [read[2] for read in whole] == bodies


@settings(deadline=None)  # a loaded machine must not fail an example
@given(st.data())
def test_answers_read_the_same_whole_or_in_segments(data):
    stream, segments, bodies = data.draw(_stream("answers"))
    whole = _read("answers", [stream])
    assert _read("answers", segments) == whole
    if bodies is not None:
        assert [(status, body) for status, body, _ in whole[:-1]] == [(200, b) for b in bodies]
        assert whole[-1] == "closed"
