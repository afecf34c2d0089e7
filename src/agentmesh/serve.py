"""HTTP hosting for agents and registries.

Wraps any wire host (``handle_request``) in a threading TCP server that
speaks HTTP/1.1 through the transport's message codec, one ``_Reader`` per
connection (the socket and a buffer that ``recv`` fills, which keeps the
bytes after a request for the next one), so the same objects that back the
in-process transport can be exposed on a real socket: POST / for envelopes,
GET /.wellknown for discovery, and the registry's /pd and /share endpoints.
``transport.call_host`` hands each request to the host, as on ``mem://``.

Connections are kept open between requests (HTTP/1.1; an HTTP/1.0 request
only with ``Connection: keep-alive``); one that stays silent for
``IDLE_TIMEOUT_S`` is closed, which frees its handler thread. A request body
is framed by ``Content-Length`` alone (RFC 9112 §6.3). A request that the
server refuses never reaches the host: it gets an error answer and its
connection is closed, since the rest of the stream cannot be trusted to
start a request.

- 413: ``Content-Length`` above ``MAX_BODY_BYTES``; the body is not read.
- 400: a ``Content-Length`` that is not one number (two different values
  included), a body that ends before it, a body that is not UTF-8,
  ``Transfer-Encoding`` beside ``Content-Length``, a malformed head.
- 501: ``Transfer-Encoding`` alone, and any method but GET and POST.
- 414 and 431: a start line, or a header line, over ``transport.MAX_LINE``
  bytes; 431 also for more than ``transport.MAX_FIELDS`` fields.
- 505: an HTTP version other than 1.0 and 1.1.

Empty lines before a request line are ignored (RFC 9112 §2.2).
``Expect: 100-continue`` gets ``100 Continue`` before the body is read. Each
answer goes out in one write and carries ``Date``, made once a second. An
answer to a client that has already left is dropped without a word.

The one accept loop blocks on the listening socket and on a wake-up socket
pair that the server owns, so ``shutdown`` stops it at once rather than at
the next poll; each connection it accepts is served by a daemon thread.
"""

from __future__ import annotations

import selectors
import socket
import sys
import threading
import time
from http import HTTPStatus
from urllib.parse import urlsplit

from .transport import (PLAIN_TEXT, SENDER_HEADER, WireHost, _content_length, _Malformed,
                        _message, _Reader, _tokens, call_host)

# Far above any envelope or protocol document the simulated workloads send
# (the largest is under 2 KB).
MAX_BODY_BYTES = 1 << 20
# How long a handler waits on a silent connection before closing it. Far
# above the gaps between one client's requests in a simulated run, so that a
# client seldom sends on a connection the server is just closing.
IDLE_TIMEOUT_S = 60.0

_REASONS = {status.value: status.phrase for status in HTTPStatus}
# An HTTP date names days and months in English, whatever the locale.
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(second: int) -> str:
    """*second* of the epoch as an IMF-fixdate (RFC 9110 §5.6.7)."""
    t = time.gmtime(second)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _make_handler(host: WireHost, quiet: bool):
    dated = (0, "")  # the last second an answer went out in, and its Date

    class Handler:
        def __init__(self, connection: socket.socket, client_address):
            self.connection = connection
            self.client_address = client_address
            connection.settimeout(IDLE_TIMEOUT_S)
            # An answer is one write, but Nagle's algorithm would still hold
            # it back while the client has not acknowledged the connection's
            # last segment, which its delayed ACK can put off for up to 40 ms.
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
            self.reader = _Reader(connection)

        def handle(self):
            while self._handle_one():
                pass

        def _handle_one(self) -> bool:
            """Read one request and answer it; False when the connection is
            to be closed."""
            self.requestline = self.command = ""
            try:
                head = self.reader.head()
                if head is None:  # the client closed the connection
                    return False
                self.requestline, self.headers = head
                method, self.path = self._check_request_line()
            except _Malformed as exc:
                self.close_connection = True
                self._answer(exc.status, PLAIN_TEXT, f"bad request: {exc}")
                return False
            self._serve(method)
            return not self.close_connection

        def _check_request_line(self) -> tuple[str, str]:
            """The method and the target; sets ``command``,
            ``request_version`` and ``close_connection``."""
            words = self.requestline.split(" ")
            if len(words) != 3:
                raise _Malformed(400, f"malformed request line {self.requestline[:80]!r}")
            method, target, self.request_version = words
            self.command = method
            connection = _tokens(self.headers.get("Connection"))
            self.close_connection = "close" in connection or (
                self.request_version == "HTTP/1.0" and "keep-alive" not in connection)
            if self.request_version not in ("HTTP/1.0", "HTTP/1.1"):
                raise _Malformed(505 if self.request_version.startswith("HTTP/") else 400,
                                 f"unsupported version {self.request_version!r}")
            if method not in ("GET", "POST"):
                raise _Malformed(501, f"unsupported method {method!r}")
            return method, target

        def _read_body(self) -> str:
            fields = self.headers
            length = _content_length(fields) or 0
            if "transfer-encoding" in fields:
                raise _Malformed(501, "Transfer-Encoding is not supported")
            if length > MAX_BODY_BYTES:
                raise _Malformed(413, f"Content-Length {length} exceeds {MAX_BODY_BYTES}")
            if (length and self.request_version == "HTTP/1.1"
                    and _tokens(fields.get("Expect")) == ["100-continue"]):
                self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            return self.reader.exactly(length).decode("utf-8")

        def _serve(self, method: str) -> None:
            try:
                body = self._read_body()
            except ValueError as exc:  # _Malformed, and UnicodeDecodeError
                # The rest of the stream cannot be trusted to start a request.
                self.close_connection = True
                status = exc.status if isinstance(exc, _Malformed) else 400
                ctype, text = PLAIN_TEXT, f"bad request body: {exc}"
            else:
                status, ctype, text = call_host(host, method, urlsplit(self.path), body,
                                                self.headers.get(SENDER_HEADER))
            self._answer(status, ctype, text)

        def _answer(self, status: int, ctype: str, text: str) -> None:
            nonlocal dated
            if not quiet:  # logged before the answer leaves, as http.server does
                sys.stderr.write(f"{self.client_address[0]} - - "
                                 f"[{time.strftime('%d/%b/%Y %H:%M:%S')}] "
                                 f'"{self.requestline}" {status} -\n')
            second, date = dated
            if second != (now := int(time.time())):
                date = _http_date(now)
                dated = now, date
            payload = text.encode("utf-8")
            fields = {"Date": date, "Content-Type": ctype,
                      "Content-Length": str(len(payload))}
            if self.close_connection:
                fields["Connection"] = "close"
            if self.command == "HEAD":  # an answer to HEAD has no body (RFC 9110 §9.3.2)
                payload = b""
            self.connection.sendall(_message(f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
                                             fields, payload))

    return Handler


class HostServer:
    """A wire host bound to a TCP port; serve inline or in a daemon thread."""

    def __init__(self, host: WireHost, port: int = 0, bind: str = "127.0.0.1",
                 quiet: bool = True):
        self._handler = _make_handler(host, quiet)
        # With SO_REUSEADDR, so that a restarted server takes its port back at once.
        self._listener = socket.create_server((bind, port))
        address, self.port = self._listener.getsockname()[:2]
        self.url = f"http://{address}:{self.port}"
        # The served connections, so that shutdown can end the kept-alive ones.
        self._connections: set[socket.socket] = set()
        # shutdown writes a byte to the one end; the accept loop wakes on the other.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._thread: threading.Thread | None = None

    def serve_forever(self) -> None:
        """Accept connections until ``shutdown`` is called."""
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake_reader, selectors.EVENT_READ)
            while True:
                ready = {key.fileobj for key, _ in selector.select()}
                if self._wake_reader in ready:
                    return
                try:
                    connection, address = self._listener.accept()
                except OSError:  # the client has left, or no descriptor is free
                    continue
                self._connections.add(connection)  # before its thread starts: shutdown must see it
                try:
                    threading.Thread(target=self._serve_connection, args=(connection, address),
                                     name="HostServer connection", daemon=True).start()
                except RuntimeError:  # no thread can be started now
                    self._connections.discard(connection)
                    connection.close()

    def _serve_connection(self, connection: socket.socket, address) -> None:
        try:
            self._handler(connection, address).handle()
        except OSError:
            pass  # it timed out in silence, or the client left, perhaps before its answer
        finally:
            self._connections.discard(connection)
            try:  # SHUT_WR first, so that the peer reads EOF after the last answer
                connection.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the peer has gone
            connection.close()

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        """Stop serving, if started, end the open connections and release
        the socket; a second call does nothing. A handler thread waiting on
        an idle connection sees EOF and exits; a client's next request on it
        reconnects."""
        try:
            self._wake_writer.send(b"\0")
        except OSError:  # closed by an earlier call
            return
        if self._thread is not None:
            self._thread.join(timeout=5)
        for connection in list(self._connections):
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its thread has closed it already
        self._listener.close()
        self._wake_reader.close()
        self._wake_writer.close()
