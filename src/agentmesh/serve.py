"""HTTP hosting for agents and registries.

Wraps any wire host (``handle_request``) in a threading HTTP server so the
same objects that back the in-process transport can be exposed on a real
socket: POST / for envelopes, GET /.wellknown for discovery, and the
registry's /pd and /share endpoints.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .transport import SENDER_HEADER, WireHost


def _make_handler(host: WireHost, quiet: bool):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _read_body(self) -> str:
            length = self.headers.get("Content-Length") or "0"
            if not (length.isascii() and length.isdigit()):
                raise ValueError(f"bad Content-Length: {length!r}")
            return self.rfile.read(int(length)).decode("utf-8")

        def _serve(self, method: str) -> None:
            parts = urlsplit(self.path)
            sender = self.headers.get(SENDER_HEADER)
            try:
                body = self._read_body()
            except ValueError as exc:  # also UnicodeDecodeError
                # The rest of the stream cannot be trusted to start a request.
                self.close_connection = True
                status, ctype, text = 400, "text/plain", f"bad request body: {exc}"
            else:
                try:
                    status, ctype, text = host.handle_request(
                        method, parts.path, dict(parse_qsl(parts.query)), body, sender)
                except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the socket
                    status, ctype, text = 500, "text/plain", f"internal error: {exc}"
            payload = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

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
        self._serving = False
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        address, port = self._httpd.server_address[:2]
        return f"http://{address}:{port}"

    def serve_forever(self) -> None:
        self._serving = True
        self._httpd.serve_forever()

    def start_background(self) -> None:
        self._serving = True
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        """Stop serving, if started, and release the socket."""
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
