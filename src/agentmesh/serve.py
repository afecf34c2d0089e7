"""HTTP hosting for agents and registries.

Wraps any wire host (``handle_request``) in a threading HTTP server so the
same objects that back the in-process transport can be exposed on a real
socket: POST / for envelopes, GET /.wellknown for discovery, and the
registry's /pd and /share endpoints.

Connections are kept open between requests (HTTP/1.1); one that stays
silent for ``IDLE_TIMEOUT_S`` is closed, which frees its handler thread. A
request body larger than ``MAX_BODY_BYTES`` is refused with 413 before it is
read. An answer to a client that has already left is dropped without a word.

The accept loop blocks on the listening socket and on a wake-up socket pair
that the server owns, so ``shutdown`` stops it at once rather than at the
next poll; it then ends the kept-alive connections and releases the port.
"""

from __future__ import annotations

import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .transport import PLAIN_TEXT, SENDER_HEADER, WireHost

# Far above any envelope or protocol document the simulated workloads send
# (the largest is under 2 KB).
MAX_BODY_BYTES = 1 << 20
# How long a handler waits on a silent connection before closing it. Far
# above the gaps between one client's requests in a simulated run, so that a
# client seldom sends on a connection the server is just closing.
IDLE_TIMEOUT_S = 60.0


class _BodyTooLarge(ValueError):
    pass


def _make_handler(host: WireHost, quiet: bool):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; without this, Nagle's
        # algorithm holds the body back until the client's delayed ACK of
        # the headers, which stalls every request on a kept-alive connection.
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_S

        def setup(self):
            super().setup()
            self.server.connections.add(self.connection)

        def finish(self):
            self.server.connections.discard(self.connection)
            super().finish()

        def _read_body(self) -> str:
            length = self.headers.get("Content-Length") or "0"
            if not (length.isascii() and length.isdigit()):
                raise ValueError(f"bad Content-Length: {length!r}")
            if int(length) > MAX_BODY_BYTES:
                raise _BodyTooLarge(f"Content-Length {length} exceeds {MAX_BODY_BYTES}")
            return self.rfile.read(int(length)).decode("utf-8")

        def _serve(self, method: str) -> None:
            parts = urlsplit(self.path)
            sender = self.headers.get(SENDER_HEADER)
            try:
                body = self._read_body()
            except ValueError as exc:  # also UnicodeDecodeError
                # The rest of the stream cannot be trusted to start a request.
                self.close_connection = True
                status = 413 if isinstance(exc, _BodyTooLarge) else 400
                ctype, text = PLAIN_TEXT, f"bad request body: {exc}"
            else:
                try:
                    status, ctype, text = host.handle_request(
                        method, parts.path, dict(parse_qsl(parts.query)), body, sender)
                except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the socket
                    status, ctype, text = 500, PLAIN_TEXT, f"internal error: {exc}"
            payload = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(payload)))
            if self.close_connection:
                self.send_header("Connection", "close")
            try:
                self.end_headers()
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                # The client left before its answer: the connection is closed.
                self.close_connection = True

        def do_GET(self):
            self._serve("GET")

        def do_POST(self):
            self._serve("POST")

        def log_message(self, fmt, *args):
            if not quiet:
                super().log_message(fmt, *args)

    return Handler


class HostServer:
    """A wire host bound to a TCP port; serve inline or in a daemon thread."""

    def __init__(self, host: WireHost, port: int = 0, bind: str = "127.0.0.1",
                 quiet: bool = True):
        self._httpd = ThreadingHTTPServer((bind, port), _make_handler(host, quiet))
        # The handlers' sockets, so that shutdown can end the kept-alive ones.
        self._httpd.connections = set()
        # shutdown writes a byte to the one end; the accept loop wakes on the other.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        address, port = self._httpd.server_address[:2]
        return f"http://{address}:{port}"

    def serve_forever(self) -> None:
        """Accept connections until ``shutdown`` is called."""
        with selectors.DefaultSelector() as selector:
            selector.register(self._httpd.socket, selectors.EVENT_READ)
            selector.register(self._wake_reader, selectors.EVENT_READ)
            while True:
                ready = {key.fileobj for key, _ in selector.select()}
                if self._wake_reader in ready:
                    return
                # The listener is readable and the server has no timeout,
                # so this accepts at once and hands the connection to a
                # handler thread.
                self._httpd.handle_request()

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
        for connection in list(self._httpd.connections):
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler has closed it already
        self._httpd.server_close()
        self._wake_reader.close()
        self._wake_writer.close()
