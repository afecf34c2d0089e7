"""Transport: in-process loopback and real HTTP behind one interface.

Hosts (agents, registries) implement ``handle_request(method, path, query,
body, sender_id)`` returning ``(status, content_type, text)``. A Network
routes client calls either to registered in-process hosts (``mem://name``
URLs, the deterministic default for simulations) or over real HTTP(S).
``Network.request`` returns the raw status and text; ``Network.call``
returns the text of a 200 answer and raises ``StatusError`` on any other.
A host that raises is answered with 500 on both transports.

HTTP(S) goes through ``HttpClient``, a small client on the standard
library's ``http.client``. It keeps a lock-guarded list of idle connections
per origin (``scheme://host:port``), shared by every thread that uses it,
and never holds more idle connections than the peak number of requests in
flight to that origin. A pooled connection whose socket is readable has
been closed by its peer (after its idle timeout, or a restart) and is
discarded before anything is sent on it. The TCP connect is a step of its
own: only its failure (refused, timed out, unreachable or unresolvable,
also when connecting to a proxy) raises ``ConnectError``, and only then is a
request made again. Once a request's bytes went out it is never resent
(RFC 9110 §9.2.2); a read timeout or a dropped connection raises
``TransportError``. Answers are decoded as UTF-8, the encoding of the wire
in both directions. Proxies, the CA file and netrc credentials come from
the environment, read once per origin (``HttpClient._route``). No cookie is
kept and no redirect is followed.

Deployments use HTTPS; plain HTTP and the mem scheme exist for tests and
simulation.
"""

from __future__ import annotations

import os
import select
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Callable, NamedTuple, Protocol
from urllib.parse import SplitResult, parse_qsl, urlsplit

SENDER_HEADER = "X-Sender-Id"
# The hosts' text answers; the label lets outside clients decode them right.
PLAIN_TEXT = "text/plain; charset=utf-8"
ATTEMPTS = 3
BACKOFF_S = 0.1
TIMEOUT_S = 30.0


class TransportError(Exception):
    """The peer could not be reached or answered with a transport error."""


class StatusError(TransportError):
    """The peer answered, with a status other than 200."""


class ConnectError(TransportError):
    """The TCP connection to the peer, or to its proxy, could not be opened:
    nothing was sent, so the request may be made again."""


def _connect_tcp(address, timeout, source_address=None) -> socket.socket:
    """``http.client``'s TCP connect, raising ConnectError on failure so that
    it is told apart from every later step (tunnel, TLS handshake, send)."""
    try:
        return socket.create_connection(address, timeout, source_address)
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


class _Route(NamedTuple):
    """How requests to one origin travel."""

    connection: Callable[[], HTTPConnection]  # a new, unconnected connection
    absolute_target: bool  # plain HTTP through a proxy: the target is the whole URL
    headers: dict[str, str]  # sent with every request: credentials for the peer or the proxy


class HttpClient:
    """One pool of kept-alive HTTP(S) connections, safe to share between
    threads. ``send`` makes one attempt; the caller decides on retries."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: dict[str, list[HTTPConnection]] = {}
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
            conn = self._checkout(origin)
            if conn is None:
                conn = route.connection()
                conn.timeout = timeout
                conn.connect()
            else:
                conn.sock.settimeout(timeout)
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
            if route.absolute_target:
                target = origin + target
            conn.request(method, target, body, {**route.headers, **headers})
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, HTTPException, ValueError) as exc:
            if conn is not None:
                conn.close()
            raise TransportError(f"{method} {parts.geturl()} failed: {exc!r}") from exc
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(origin, []).append(conn)
        try:
            return resp.status, data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TransportError(f"{method} {parts.geturl()}: the answer is not UTF-8") from exc

    def _checkout(self, origin: str) -> HTTPConnection | None:
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
          (or ``all``), unless ``proxy_bypass_environment`` matches the host.
          The proxy is reached over plain TCP. Plain HTTP is sent to it with
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
    import urllib.request

    proxies = urllib.request.getproxies_environment()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if proxy and urllib.request.proxy_bypass_environment(parts.netloc, proxies):
        proxy = None
    proxy_headers = {}
    if proxy:
        proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        host, port = proxy_parts.hostname, proxy_parts.port or 80
        if proxy_parts.username is not None:
            proxy_headers["Proxy-Authorization"] = _basic_auth(
                proxy_parts.username, proxy_parts.password or "")
    else:
        host, port = parts.netloc, None  # http.client reads the port from the netloc
    headers = {}
    credentials = _netrc_credentials(parts.hostname or "")
    if credentials is not None:
        headers["Authorization"] = _basic_auth(*credentials)
    https = parts.scheme == "https"
    if https:
        import ssl

        context = ssl.create_default_context(
            cafile=os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE"))
    else:
        headers.update(proxy_headers)  # a plain-HTTP proxy reads them from each request

    def connection() -> HTTPConnection:
        if https:
            conn = HTTPSConnection(host, port, context=context)
            if proxy:
                conn.set_tunnel(parts.netloc, headers=proxy_headers)
        else:
            conn = HTTPConnection(host, port)
        conn._create_connection = _connect_tcp
        return conn

    return _Route(connection, bool(proxy) and not https, headers)


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
            return self._request_local(method, parts, body, sender_id)
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

    def _request_local(self, method, parts, body, sender_id) -> tuple[int, str]:
        host = self._hosts.get(parts.netloc)
        if host is None:
            raise TransportError(f"no in-process host named {parts.netloc!r}")
        query = dict(parse_qsl(parts.query))
        try:
            status, _ctype, text = host.handle_request(method, parts.path or "/", query, body, sender_id)
        except Exception as exc:  # noqa: BLE001 - answered as HostServer answers it
            return 500, f"internal error: {exc}"
        return status, text

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
