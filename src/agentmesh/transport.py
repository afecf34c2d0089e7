"""Transport: in-process loopback and real HTTP behind one interface.

Hosts (agents, registries) implement ``handle_request(method, path, query,
body, sender_id)`` returning ``(status, content_type, text)``. A Network
routes client calls either to registered in-process hosts (``mem://name``
URLs, the deterministic default for simulations) or over real HTTP(S).
``Network.request`` returns the raw status and text; ``Network.call``
returns the text of a 200 answer and raises ``StatusError`` on any other.
Both transports hand a request to its host through ``call_host``, which
reads an empty path as ``/`` and answers a host that raises with 500.

HTTP(S) goes through ``HttpClient``. It keeps a lock-guarded list of idle
connections per origin (``scheme://host:port``), shared by every thread
that uses it, and never holds more idle connections than the peak number of
requests in flight to that origin. A pooled connection whose socket is
readable has been closed by its peer (after its idle timeout, or a restart)
and is discarded before anything is sent on it. The TCP connect is a step of
its own: only its failure (refused, timed out, unreachable or unresolvable,
also when connecting to a proxy) raises ``ConnectError``, and only then is a
request made again. Once a request's bytes went out it is never resent
(RFC 9110 §9.2.2); a read timeout or a dropped connection raises
``TransportError``. Answers are decoded as UTF-8, the encoding of the wire
in both directions. Proxies, the CA file and netrc credentials come from
the environment, read once per origin (``HttpClient._route``). No cookie is
kept and no redirect is followed.

The client and ``serve.HostServer`` share one HTTP/1.1 message codec (RFC
9112). Each connection has one ``_Reader``: the socket and a buffer that
``recv`` fills. It finds a head's blank line with one search and splits the
head in one pass, within the limits of ``http.client`` (lines of at most
``MAX_LINE`` bytes, at most ``MAX_FIELDS`` fields), and keeps the bytes
after a message for the next one; bodies framed by length, by chunks or by
the end of the connection are read from the same buffer. ``_message`` builds
a head with one join, and the head and its body go out in one ``sendall``.
The client opens its connections itself: the TCP connect, the proxy's
``CONNECT`` tunnel, and TLS through ``ssl``, imported only for an https
origin.

Deployments use HTTPS; plain HTTP and the mem scheme exist for tests and
simulation.
"""

from __future__ import annotations

import os
import re
import select
import socket
import threading
import time
from typing import Callable, NamedTuple, Protocol
from urllib.parse import SplitResult, parse_qsl, urlsplit

SENDER_HEADER = "X-Sender-Id"
# The hosts' text answers; the label lets outside clients decode them right.
PLAIN_TEXT = "text/plain; charset=utf-8"
ATTEMPTS = 3
BACKOFF_S = 0.1
TIMEOUT_S = 30.0
# http.client's limits on a head: the longest line and the most fields.
MAX_LINE = 65536
MAX_FIELDS = 100


class TransportError(Exception):
    """The peer could not be reached or answered with a transport error."""


class StatusError(TransportError):
    """The peer answered, with a status other than 200."""


class ConnectError(TransportError):
    """The TCP connection to the peer, or to its proxy, could not be opened:
    nothing was sent, so the request may be made again."""


def _connect_tcp(address: tuple[str, int], timeout: float) -> socket.socket:
    """The TCP connect, raising ConnectError on failure so that it is told
    apart from every later step (tunnel, TLS handshake, send)."""
    try:
        return socket.create_connection(address, timeout)
    except OSError as exc:
        raise ConnectError(f"cannot connect to {address[0]}:{address[1]}: {exc}") from exc


def _dropped(sock: socket.socket) -> bool:
    """True when an idle kept-alive socket is readable: its peer has closed
    it, or sent what nobody asked for, so it must not carry a request."""
    if hasattr(select, "poll"):  # select() cannot watch descriptors past FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


# ── HTTP/1.1 messages ────────────────────────────────────────────────

class _Malformed(ValueError):
    """A message that breaks HTTP/1.1 framing or this codec's limits;
    *status* is what a server answers to such a request."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status


class _Fields(dict):
    """A head's fields by lower-cased name. A repeated field's values are
    joined with ", " (RFC 9110 §5.3), so two different Content-Lengths read
    as one that is not a number."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


def _parse_fields(lines: list[str]) -> _Fields:
    fields = _Fields()
    for line in lines:
        name, colon, value = line.partition(":")
        # No whitespace before the colon, and no obsolete line folding
        # (RFC 9112 §5.1, §5.2).
        if not colon or not name or name != name.strip():
            raise _Malformed(400, f"malformed header line {line[:80]!r}")
        name, value = name.lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    return fields


def _check_line(size: int, number: int, status: int) -> None:
    """Raise when line *number* of a head (0: the start line), *size* bytes
    long with its LF, breaks a limit: *status* for a long start line, 431
    for a long header line or too many of them."""
    if number > MAX_FIELDS:
        raise _Malformed(431, f"more than {MAX_FIELDS} header fields")
    if size > MAX_LINE:
        what = "a header line" if number else "the start line"
        raise _Malformed(status if number == 0 else 431, f"{what} longer than {MAX_LINE} bytes")


def _blank_line(buf: bytearray, start: int) -> tuple[int, int]:
    """Where the lines before the first blank line found from *start* end,
    and where that blank line ends; (-1, -1) when none has arrived. A line
    ends with CRLF or a bare LF."""
    if start == 0 and buf.startswith((b"\n", b"\r\n")):
        return 0, buf.index(b"\n") + 1
    crlf = buf.find(b"\n\r\n", start)
    lf = buf.find(b"\n\n", start, len(buf) if crlf < 0 else crlf + 1)
    if lf >= 0:
        return lf, lf + 2
    return (crlf, crlf + 3) if crlf >= 0 else (-1, -1)


def _tokens(value: str | None) -> list[str]:
    """The lower-cased items of a comma-separated field value."""
    return [item.strip().lower() for item in value.split(",")] if value else []


def _content_length(fields: _Fields) -> int | None:
    """The body's length by ``Content-Length``, None without one. A message
    that also has ``Transfer-Encoding`` is refused (RFC 9112 §6.3)."""
    length = fields.get("content-length")
    if length is None:
        return None
    if "transfer-encoding" in fields:
        raise _Malformed(400, "both Transfer-Encoding and Content-Length")
    if not (length.isascii() and length.isdigit()):
        raise _Malformed(400, f"bad Content-Length: {length!r}")
    return int(length)


# What one recv asks for: more than any message of the simulated workloads.
RECV_SIZE = 65536


class _Reader:
    """One connection: its socket, and the bytes received on it that no
    message has taken yet, which stay for the next one. A head is found with
    one search for its blank line and split in one pass; a head that arrives
    in pieces is also checked against the limits line by line as it grows."""

    __slots__ = ("sock", "buf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        # A bytearray, so that receiving appends and taking a message drops
        # its bytes from the front, both without copying what stays.
        self.buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def _receive(self, size: int = RECV_SIZE) -> bool:
        """Append up to *size* bytes from the socket; False at EOF."""
        data = self.sock.recv(size)
        self.buf += data
        return bool(data)

    def head(self) -> tuple[str, _Fields] | None:
        """The next message's start line and fields; None at EOF before it.
        Empty lines before the start line are ignored (RFC 9112 §2.2), up to
        ``MAX_LINE`` bytes of them."""
        buf, skipped = self.buf, 0
        while not buf or buf[0] in b"\r\n":
            if buf:
                del buf[0]
                skipped += 1
                if skipped > MAX_LINE:
                    raise _Malformed(414, f"more than {MAX_LINE} bytes of empty lines")
            elif not self._receive():
                return None
        lines = self._lines(414)
        return lines[0].rstrip("\r"), _parse_fields(lines[1:])

    def _lines(self, status: int) -> list[str]:
        """The lines up to the next blank line, which is taken with them,
        decoded as Latin-1 and split at LF (a CR before it stays), within
        the limits that ``_check_line`` sets."""
        buf = self.buf
        start = checked = number = 0  # buf[:checked] holds *number* lines, all checked
        while (found := _blank_line(buf, start))[0] < 0:
            # Check each line as it completes, so that an endless line or
            # head fails as soon as it breaks a limit.
            while (lf := buf.find(b"\n", checked)) >= 0:
                _check_line(lf + 1 - checked, number, status)
                checked, number = lf + 1, number + 1
            if len(buf) - checked > MAX_LINE:
                _check_line(len(buf) - checked, number, status)
            start = max(len(buf) - 2, 0)
            if not self._receive():
                raise _Malformed(400, "the connection closed inside a head")
        end, after = found
        lines = buf[:end].decode("latin-1").split("\n") if end else []
        del buf[:after]
        if end >= MAX_LINE or len(lines) > MAX_FIELDS + 1:
            for number, line in enumerate(lines[:MAX_FIELDS + 2]):
                _check_line(len(line) + 1, number, status)
        return lines

    def exactly(self, size: int) -> bytearray:
        """The next *size* bytes, received at most a MiB at a time, so that a
        huge announced size takes no memory before its bytes arrive."""
        buf = self.buf
        while len(buf) < size:
            if not self._receive(min(size - len(buf), 1 << 20)):
                raise _Malformed(400, f"the body ends after {len(buf)} of {size} bytes")
        if len(buf) == size:
            self.buf = bytearray()
            return buf
        body = buf[:size]
        del buf[:size]
        return body

    def _chunk_line(self) -> bytearray:
        """The next line of a chunked body, without its line end."""
        buf, start = self.buf, 0
        while (lf := buf.find(b"\n", start)) < 0 and len(buf) <= MAX_LINE:
            start = len(buf)
            if not self._receive():
                raise _Malformed(400, "the connection closed inside a chunked body")
        if not 0 <= lf < MAX_LINE:
            raise _Malformed(400, f"a chunk line longer than {MAX_LINE} bytes")
        line = buf[:lf].rstrip(b"\r")
        del buf[:lf + 1]
        return line

    def _chunked(self) -> bytes:
        """A chunked body (RFC 9112 §7.1), its trailer fields read and dropped."""
        chunks = []
        while True:
            size = self._chunk_line().split(b";", 1)[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise _Malformed(400, f"bad chunk size {bytes(size[:20])!r}")
            if not int(size, 16):
                _parse_fields(self._lines(431))
                return b"".join(chunks)
            chunks.append(self.exactly(int(size, 16)))
            if self._chunk_line():
                raise _Malformed(400, "a chunk does not end with CRLF")

    def answer(self, method: str) -> tuple[int, bytes | bytearray, bool]:
        """Read one answer (RFC 9112 §6.3): its status, its body and whether
        its connection may carry another request. Interim 1xx answers are
        skipped; a 2xx answer to CONNECT has no body, since the tunnel
        starts after its head."""
        status = 100
        while 100 <= status < 200:
            head = self.head()
            if head is None:
                raise ConnectionError("the connection closed before the answer")
            line, fields = head
            version, _, rest = line.partition(" ")
            if not (version.startswith("HTTP/") and rest[:3].isdigit() and rest[3:4] in ("", " ")):
                raise _Malformed(400, f"malformed status line {line[:80]!r}")
            status = int(rest[:3])
        keep = version == "HTTP/1.1" and "close" not in _tokens(fields.get("connection"))
        if method == "HEAD" or status in (204, 304) or (method == "CONNECT" and status < 300):
            return status, b"", keep
        length = _content_length(fields)
        if length is not None:
            return status, self.exactly(length), keep
        if _tokens(fields.get("transfer-encoding"))[-1:] == ["chunked"]:
            return status, self._chunked(), keep
        while self._receive():  # the body runs to the end of the connection
            pass
        body, self.buf = self.buf, bytearray()
        return status, body, False


def _message(start: str, fields: dict[str, str], body: bytes) -> bytes:
    """One message, head and body, as the one buffer to send."""
    head = "\r\n".join([start, *map(": ".join, fields.items()), "", ""])
    # The join makes len(fields) + 2 line breaks; any other splits a line.
    if head.count("\n") != len(fields) + 2 or head.count("\r") != len(fields) + 2:
        raise ValueError(f"a line break inside an HTTP head line: {head!r}")
    return head.encode("latin-1") + body


class _Route(NamedTuple):
    """How requests to one origin travel."""

    connect: Callable[[float], _Reader]  # a new connection, with this timeout
    host: str  # the Host field: hostname[:port], the port left out when it is the default
    absolute_target: bool  # plain HTTP through a proxy: the target is the whole URL
    headers: dict[str, str]  # sent with every request: credentials for the peer or the proxy


# Characters a request target cannot hold (http.client refuses them too).
_UNSAFE_TARGET = re.compile("[\x00-\x20\x7f]")


class HttpClient:
    """One pool of kept-alive HTTP(S) connections, safe to share between
    threads. ``send`` makes one attempt; the caller decides on retries."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: dict[str, list[_Reader]] = {}
        self._routes: dict[str, _Route] = {}

    def send(self, method: str, parts: SplitResult, body: bytes,
             headers: dict[str, str], timeout: float) -> tuple[int, str]:
        """Send one request to the URL *parts* and return the status and the
        body, decoded as UTF-8. Raises ConnectError when the TCP connect
        failed, and TransportError for any later failure."""
        origin = f"{parts.scheme}://{parts.netloc}"
        conn = None
        try:
            route = self._route(origin, parts)
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
            if _UNSAFE_TARGET.search(target):
                raise ValueError(f"a control character or space in the target {target!r}")
            if route.absolute_target:
                target = f"{parts.scheme}://{route.host}{target}"
            request = _message(f"{method} {target} HTTP/1.1", {
                "Host": route.host, "Accept-Encoding": "identity", **route.headers, **headers,
                "Content-Length": str(len(body))}, body)
            conn = self._checkout(origin)
            if conn is None:
                conn = route.connect(timeout)
            elif conn.sock.gettimeout() != timeout:
                conn.sock.settimeout(timeout)
            conn.sock.sendall(request)
            status, data, keep = conn.answer(method)
        except (OSError, ValueError) as exc:
            if conn is not None:
                conn.close()
            raise TransportError(f"{method} {parts.geturl()} failed: {exc!r}") from exc
        # Bytes after the answer are no answer to this client's next request
        # (RFC 9112 §6.3): a connection that holds some is not reused.
        if keep and not conn.buf:
            with self._lock:
                self._idle.setdefault(origin, []).append(conn)
        else:
            conn.close()
        try:
            return status, data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TransportError(f"{method} {parts.geturl()}: the answer is not UTF-8") from exc

    def _checkout(self, origin: str) -> _Reader | None:
        """The most recently used idle connection to *origin* that its peer
        has not closed, or None."""
        with self._lock:
            idle = self._idle.get(origin)
            while idle:
                conn = idle.pop()
                if not _dropped(conn.sock):
                    return conn
                conn.close()
        return None

    def _route(self, origin: str, parts: SplitResult) -> _Route:
        """The route to *origin*, read from the environment on first use.

        - Proxy: ``urllib.request.getproxies_environment()`` for the scheme
          (or ``all``), unless ``proxy_bypass_environment`` matches the host;
          with no ``*_proxy`` variable set there is none, and
          ``urllib.request`` is not imported. The proxy is reached over
          plain TCP. Plain HTTP is sent to it with
          an absolute-form target; HTTPS is tunnelled with ``CONNECT``.
        - CA file: ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE``; without one,
          ``ssl.create_default_context()`` trusts the system store.
        - Credentials: the netrc file named by ``NETRC``, else ``~/.netrc``,
          sent as Basic auth.

        A change to the environment during the life of the client is not
        seen.
        """
        with self._lock:
            route = self._routes.get(origin)
            if route is None:
                route = self._routes[origin] = _read_route(parts)
            return route

    def close(self) -> None:
        """Close the idle connections, so that the peers' handler threads
        see EOF. A later request opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


def _read_route(parts: SplitResult) -> _Route:
    https = parts.scheme == "https"
    default_port = 443 if https else 80
    hostname, port = parts.hostname or "", parts.port or default_port
    if not hostname.isascii():
        hostname = hostname.encode("idna").decode("ascii")
    host = f"[{hostname}]" if ":" in hostname else hostname  # an IPv6 literal
    authority = f"{host}:{port}"
    if port != default_port:
        host = authority
    proxy = _proxy(parts.scheme, host)
    proxy_headers = {}
    if proxy:
        proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        address = proxy_parts.hostname, proxy_parts.port or 80
        if proxy_parts.username is not None:
            proxy_headers["Proxy-Authorization"] = _basic_auth(
                proxy_parts.username, proxy_parts.password or "")
    else:
        address = hostname, port
    headers = {}
    credentials = _netrc_credentials(parts.hostname or "")
    if credentials is not None:
        headers["Authorization"] = _basic_auth(*credentials)
    if https:
        import ssl

        context = ssl.create_default_context(
            cafile=os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE"))
    else:
        headers.update(proxy_headers)  # a plain-HTTP proxy reads them from each request

    def connect(timeout: float) -> _Reader:
        conn = _Reader(_connect_tcp(address, timeout))
        try:
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if https:
                if proxy:
                    conn.sock.sendall(_message(f"CONNECT {authority} HTTP/1.0",
                                               {"Host": authority, **proxy_headers}, b""))
                    status = conn.answer("CONNECT")[0]
                    if status != 200:
                        raise OSError(f"the proxy answered {status} to CONNECT {authority}")
                    if conn.buf:
                        raise OSError("the proxy sent bytes before the TLS handshake")
                conn = _Reader(context.wrap_socket(conn.sock, server_hostname=hostname))
        except BaseException:
            conn.close()
            raise
        return conn

    return _Route(connect, host, bool(proxy) and not https, headers)


def _proxy(scheme: str, host: str) -> str | None:
    """The proxy for *scheme* (or ``all``) from the environment, unless the
    no-proxy list matches *host*. ``urllib.request``, which reads them, is
    imported only when a ``*_proxy`` variable is set."""
    if not any(name[-6:].lower() == "_proxy" for name in os.environ):
        return None
    import urllib.request

    proxies = urllib.request.getproxies_environment()
    proxy = proxies.get(scheme) or proxies.get("all")
    if proxy and urllib.request.proxy_bypass_environment(host, proxies):
        return None
    return proxy


def _netrc_credentials(host: str) -> tuple[str, str] | None:
    """(login, password) for *host* from the netrc file named by ``NETRC``,
    else ``~/.netrc``; None when there is none or it cannot be read."""
    import netrc

    path = os.environ.get("NETRC") or os.path.expanduser("~/.netrc")
    try:
        entry = netrc.netrc(path).authenticators(host)
    except (OSError, netrc.NetrcParseError):
        return None
    if not entry:
        return None
    login, account, password = entry
    return (login or account or ""), (password or "")


def _basic_auth(user: str, password: str) -> str:
    import base64

    return "Basic " + base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")


class WireHost(Protocol):
    def handle_request(self, method: str, path: str, query: dict[str, str],
                       body: str, sender_id: str | None) -> tuple[int, str, str]: ...


def call_host(host: WireHost, method: str, parts: SplitResult, body: str,
              sender_id: str | None) -> tuple[int, str, str]:
    """*host*'s answer to a request for the URL *parts*: its query parsed, an
    empty path read as ``/`` (RFC 9110 §4.2.3), a raise answered with 500."""
    try:
        query = dict(parse_qsl(parts.query)) if parts.query else {}
        return host.handle_request(method, parts.path or "/", query, body, sender_id)
    except Exception as exc:  # noqa: BLE001 - a host's bug must not break its transport
        return 500, PLAIN_TEXT, f"internal error: {exc}"


class Network:
    """Routes requests by URL scheme: mem:// to in-process hosts, http(s)://
    to the wire. One instance is shared by all agents of a simulation."""

    def __init__(self):
        self._hosts: dict[str, WireHost] = {}
        self._client = HttpClient()

    def register(self, name: str, host: WireHost) -> None:
        self._hosts[name] = host

    def host(self, name: str) -> WireHost | None:
        return self._hosts.get(name)

    def request(self, method: str, url: str, body: str = "",
                sender_id: str | None = None) -> tuple[int, str]:
        parts = urlsplit(url)
        if parts.scheme == "mem":
            host = self._hosts.get(parts.netloc)
            if host is None:
                raise TransportError(f"no in-process host named {parts.netloc!r}")
            status, _ctype, text = call_host(host, method, parts, body, sender_id)
            return status, text
        if parts.scheme in ("http", "https"):
            return self._request_http(method, url, parts, body, sender_id)
        raise TransportError(f"unsupported URL scheme: {url!r}")

    def call(self, method: str, url: str, body: str = "",
             sender_id: str | None = None) -> str:
        """``request`` that returns the text on 200 and raises StatusError
        on any other status."""
        status, text = self.request(method, url, body, sender_id)
        if status != 200:
            raise StatusError(f"{method} {url} -> {status}: {text[:200]}")
        return text

    def _request_http(self, method, url, parts, body, sender_id) -> tuple[int, str]:
        headers = {"Content-Type": "application/json"}
        if sender_id:
            headers[SENDER_HEADER] = sender_id
        data = body.encode("utf-8")
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._client.send(method, parts, data, headers, TIMEOUT_S)
            except ConnectError as exc:
                if attempt >= ATTEMPTS:
                    raise TransportError(
                        f"request to {url} failed after {attempt} attempt(s): {exc}") from exc
            time.sleep(BACKOFF_S)

    def close(self) -> None:
        """Close the kept-alive connections, so that the peers' handler
        threads see EOF. A later request opens new ones."""
        self._client.close()
