"""Transport: in-process loopback and real HTTP behind one interface.

Hosts (agents, registries) implement ``handle_request(method, path, query,
body, sender_id)`` returning ``(status, content_type, text)``. A Network
routes client calls either to registered in-process hosts (``mem://name``
URLs, the deterministic default for simulations) or over real HTTP(S) via
one requests session per Network, which keeps connections open between
calls. A request is retried only when it never reached the peer.

Deployments use HTTPS; plain HTTP and the mem scheme exist for tests and
simulation.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Protocol
from urllib.parse import parse_qsl, urlsplit

SENDER_HEADER = "X-Sender-Id"
ATTEMPTS = 3
BACKOFF_S = 0.1
TIMEOUT_S = 30.0


class TransportError(Exception):
    """The peer could not be reached or answered with a transport error."""


class StatusError(TransportError):
    """The peer answered, with a status other than 200."""


class NotFound(StatusError):
    """The peer answered 404."""


def connect_failed(exc: Exception) -> bool:
    """True when *exc*, raised by requests, shows that the request never
    left this host: the connection to the peer, or to its proxy, was refused
    or timed out. Any later failure may follow a request the peer received,
    and a POST must not be applied twice (RFC 9110 §9.2.2)."""
    from urllib3.exceptions import ConnectTimeoutError, ProxyError

    reason = getattr(exc.args[0] if exc.args else None, "reason", None)
    if isinstance(reason, ProxyError):
        reason = reason.original_error
    # urllib3's NewConnectionError (refused, unresolvable) is a ConnectTimeoutError.
    return isinstance(reason, ConnectTimeoutError)


class WireHost(Protocol):
    def handle_request(self, method: str, path: str, query: dict[str, str],
                       body: str, sender_id: str | None) -> tuple[int, str, str]: ...


class Network:
    """Routes requests by URL scheme: mem:// to in-process hosts, http(s)://
    to the wire. One instance is shared by all agents of a simulation."""

    def __init__(self):
        self._hosts: dict[str, WireHost] = {}
        self._lock = threading.Lock()
        self._session = None
        self._origins: dict[str, dict] = {}

    def register(self, name: str, host: WireHost) -> None:
        self._hosts[name] = host

    def host(self, name: str) -> WireHost | None:
        return self._hosts.get(name)

    # -- raw request --------------------------------------------------

    def request(self, method: str, url: str, body: str = "",
                sender_id: str | None = None) -> tuple[int, str]:
        parts = urlsplit(url)
        if parts.scheme == "mem":
            return self._request_local(method, parts, body, sender_id)
        if parts.scheme in ("http", "https"):
            return self._request_http(method, url, parts, body, sender_id)
        raise TransportError(f"unsupported URL scheme: {url!r}")

    def _request_local(self, method, parts, body, sender_id) -> tuple[int, str]:
        host = self._hosts.get(parts.netloc)
        if host is None:
            raise TransportError(f"no in-process host named {parts.netloc!r}")
        query = dict(parse_qsl(parts.query))
        status, _ctype, text = host.handle_request(method, parts.path or "/", query, body, sender_id)
        return status, text

    def _request_http(self, method, url, parts, body, sender_id) -> tuple[int, str]:
        import requests

        session, settings = self._http_state(f"{parts.scheme}://{parts.netloc}")
        headers = {"Content-Type": "application/json"}
        if sender_id:
            headers[SENDER_HEADER] = sender_id
        attempt = 0
        while True:
            attempt += 1
            try:
                resp = session.request(method, url, data=body.encode("utf-8"), headers=headers,
                                       timeout=TIMEOUT_S, **settings)
                return resp.status_code, resp.text
            except requests.RequestException as exc:
                if attempt >= ATTEMPTS or not connect_failed(exc):
                    raise TransportError(
                        f"request to {url} failed after {attempt} attempt(s): {exc}") from exc
            time.sleep(BACKOFF_S)

    def _http_state(self, origin: str):
        """The session, made on first use, and the proxies, CA bundle and
        netrc credentials that the environment gives *origin*.

        The session is shared by every thread that uses this Network, the
        HostServer handler threads included: its urllib3 connection pool is
        thread-safe, and its cookie jar accepts no cookies, so no request
        carries a cookie from an earlier answer. The environment is read
        once per origin (``scheme://host:port``), with the rules requests
        applies, and passed on every request with ``trust_env`` off, so that
        no request walks ``os.environ``; a change to the environment during
        the life of a Network is not seen.
        """
        with self._lock:
            if self._session is None:
                from http.cookiejar import DefaultCookiePolicy

                import requests

                self._session = requests.Session()
                self._session.trust_env = False
                self._session.cookies.set_policy(DefaultCookiePolicy(allowed_domains=()))
            settings = self._origins.get(origin)
            if settings is None:
                from requests.utils import get_environ_proxies, get_netrc_auth

                settings = self._origins[origin] = {
                    "proxies": get_environ_proxies(origin),
                    "verify": (os.environ.get("REQUESTS_CA_BUNDLE")
                               or os.environ.get("CURL_CA_BUNDLE") or True),
                    "auth": get_netrc_auth(origin),
                }
            return self._session, settings

    def close(self) -> None:
        """Close the kept-alive connections, so that the peers' handler
        threads see EOF. A later request opens new ones."""
        with self._lock:
            session, self._session = self._session, None
        if session is not None:
            session.close()

    # -- conveniences ---------------------------------------------------

    def fetch_text(self, url: str) -> str:
        """GET; returns the body on 200, raises NotFound/TransportError otherwise."""
        status, text = self.request("GET", url)
        if status == 404:
            raise NotFound(url)
        if status != 200:
            raise StatusError(f"GET {url} -> {status}: {text[:200]}")
        return text

    def post_text(self, url: str, body: str) -> str:
        status, text = self.request("POST", url, body)
        if status != 200:
            raise StatusError(f"POST {url} -> {status}: {text[:200]}")
        return text

    def post_envelope(self, base_url: str, request_json: str,
                      sender_id: str | None = None) -> str:
        """POST a request envelope to an agent's root endpoint."""
        status, text = self.request("POST", base_url.rstrip("/") + "/", request_json, sender_id)
        if status != 200:
            raise StatusError(f"POST {base_url} -> {status}: {text[:200]}")
        return text

    def fetch_wellknown(self, base_url: str) -> str:
        return self.fetch_text(base_url.rstrip("/") + "/.wellknown")
