"""Endpoint conformance over real sockets."""

import base64
import errno
import json
import os
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest
import requests

from agentmesh import catalog, serve, transport
from agentmesh.documents import compute_hash, verify_document
from agentmesh.envelope import parse_wellknown
from agentmesh.gateway import CostLedger
from agentmesh.registry import RegistryClient, RegistryStore
from agentmesh.runtime import BOOTSTRAP_HASH, Agent, AgentConfig, ToolDescriptor
from agentmesh.scripted import ScriptedBackend
from agentmesh.serve import HostServer
from agentmesh.transport import Network, TransportError
from conftest import DEEP, WEATHER_TEXT

WEATHER_HASH = compute_hash(WEATHER_TEXT)


@pytest.fixture(scope="module")
def agent_server():
    network = Network()
    weather = catalog.CATALOG["weather"]
    config = AgentConfig(
        agent_id="bob",
        tools=(ToolDescriptor("weather_db", "database", weather.purpose, "weather"),),
    )
    agent = Agent(config, ScriptedBackend(), CostLedger(), network)
    server = HostServer(agent)
    server.start_background()
    yield server
    server.shutdown()


@pytest.fixture(scope="module")
def registry_server():
    network = Network()
    registry = RegistryStore("db1", network)
    server = HostServer(registry)
    server.start_background()
    yield server, registry
    server.shutdown()


class TestAgentEndpoint:
    def test_post_natural_language(self, agent_server):
        body = json.dumps({"protocolHash": None, "protocolSources": [],
                           "body": "What is the weather forecast for London, UK on 2024-09-27?"})
        resp = requests.post(agent_server.url + "/", data=body,
                             headers={"Content-Type": "application/json"}, timeout=10)
        assert resp.status_code == 200
        payload = resp.json()
        assert payload["status"] == "success"
        assert "Rainy, 11 degrees Celsius" in payload["body"]

    def test_wellknown_lists_bootstrap(self, agent_server):
        resp = requests.get(agent_server.url + "/.wellknown", timeout=10)
        assert resp.status_code == 200
        wk = parse_wellknown(resp.text)
        assert BOOTSTRAP_HASH in wk

    def test_malformed_envelope_is_400(self, agent_server):
        resp = requests.post(agent_server.url + "/", data="not json", timeout=10)
        assert resp.status_code == 400

    def test_deeply_nested_envelope_is_400(self, agent_server):
        resp = requests.post(agent_server.url + "/", data=DEEP, timeout=10)
        assert resp.status_code == 400

    def test_unknown_path_404(self, agent_server):
        assert requests.get(agent_server.url + "/nowhere", timeout=10).status_code == 404

    def test_unknown_protocol_rejected_over_http(self, agent_server):
        ghost = compute_hash("missing")
        body = json.dumps({"protocolHash": ghost,
                           "protocolSources": ["http://127.0.0.1:1/pd/x"], "body": "{}"})
        resp = requests.post(agent_server.url + "/", data=body, timeout=15)
        assert resp.json() == {"status": "rejected"}


class TestRegistryEndpoint:
    def test_submit_then_fetch(self, registry_server):
        server, _ = registry_server
        resp = requests.post(server.url + "/pd", data=WEATHER_TEXT.encode("utf-8"),
                             timeout=10)
        assert resp.status_code == 200 and resp.text == WEATHER_HASH
        fetched = requests.get(f"{server.url}/pd/{WEATHER_HASH}", timeout=10)
        assert fetched.text == WEATHER_TEXT

    def test_query_endpoint(self, registry_server):
        server, registry = registry_server
        registry.submit(WEATHER_TEXT)
        rows = requests.get(server.url + "/pd", params={"query": "weather"},
                            timeout=10).json()
        assert rows and rows[0]["hash"] == WEATHER_HASH

    def test_unknown_hash_404(self, registry_server):
        server, _ = registry_server
        resp = requests.get(f"{server.url}/pd/{'0' * 40}", timeout=10)
        assert resp.status_code == 404

    def test_share_endpoint_runs(self, registry_server):
        server, _ = registry_server
        assert requests.post(server.url + "/share", data=b"", timeout=10).status_code == 200

    def test_non_ascii_document_round_trips(self, registry_server):
        """A /pd answer is UTF-8 text: the digest checks out on the
        transport's client, and an outside client decodes the same text."""
        server, _ = registry_server
        text = catalog.WEATHER_PD_TEXT.replace("forecast", "forécast", 1)
        assert text != catalog.WEATHER_PD_TEXT
        network = Network()
        try:
            client = RegistryClient(network, server.url)
            digest = client.submit(text)
            assert digest == compute_hash(text)
            fetched = network.call("GET", client.pd_url(digest))
            assert verify_document(fetched, digest).raw_text == text
        finally:
            network.close()
        fetched = requests.get(f"{server.url}/pd/{digest}", timeout=10)
        assert fetched.headers["Content-Type"] == "text/plain; charset=utf-8"
        assert fetched.text == text

    def test_network_call_verifies(self, registry_server):
        server, registry = registry_server
        registry.submit(WEATHER_TEXT)
        network = Network()
        try:
            text = network.call("GET", f"{server.url}/pd/{WEATHER_HASH}")
        finally:
            network.close()
        assert verify_document(text, WEATHER_HASH).raw_text == WEATHER_TEXT


class TestMalformedRequests:
    """A request whose body cannot be read gets a 400, and the server keeps
    serving."""

    @staticmethod
    def _raw_request(port: int, head: str, body: bytes = b"") -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(head.encode("ascii") + b"\r\n" + body)
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        return reply

    @pytest.mark.parametrize("length, body", [("abc", b""), ("-5", b""), ("2", b"\xff\xfe")],
                             ids=["not-a-number", "negative", "not-utf8"])
    def test_bad_body_gets_400(self, registry_server, length, body):
        server, _ = registry_server
        head = f"GET /pd HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {length}\r\n"
        reply = self._raw_request(server.port, head, body)
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert requests.get(server.url + "/pd", timeout=10).status_code == 200

    def test_oversized_body_gets_413_unread(self, registry_server):
        """The body is never sent: an answer at all shows it was not read."""
        server, _ = registry_server
        head = "POST /pd HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 1000000000000\r\n"
        reply = self._raw_request(server.port, head)
        assert reply.startswith(b"HTTP/1.1 413 "), reply
        assert b"Connection: close" in reply
        assert requests.get(server.url + "/pd", timeout=10).status_code == 200

    @pytest.mark.parametrize("fields, body, statuses", [
        ("Transfer-Encoding: chunked", b"4\r\nabcd\r\n0\r\n\r\n", (400, 501)),
        ("Content-Length: 4\r\nContent-Length: 9", b"abcdGET /x HTTP/1.1\r\n\r\n", (400,)),
        ("Content-Length: 5\r\nTransfer-Encoding: chunked", b"0\r\n\r\n", (400,)),
        ("Content-Length: 10", b"abc", (400,)),  # then the client half-closes
    ], ids=["chunked", "two-lengths", "length-and-chunked", "short-body"])
    def test_body_without_sound_framing_never_reaches_the_host(self, echo_server, fields,
                                                                body, statuses):
        """One error answer, the connection closed, and no request for the
        host: not the body as framed one way, nor a request smuggled in it."""
        server, host = echo_server
        head = f"POST /pd HTTP/1.1\r\nHost: 127.0.0.1\r\n{fields}\r\n"
        reply = self._raw_request(server.port, head, body)
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        assert int(reply[9:12]) in statuses, reply
        assert b"Connection: close" in reply
        assert host.bodies == []

    def test_too_many_header_fields_get_431(self, echo_server):
        server, host = echo_server
        fields = "\r\n".join(f"X-Field-{n}: {n}" for n in range(101))
        reply = self._raw_request(server.port, f"GET /pd HTTP/1.1\r\n{fields}")
        assert reply.startswith(b"HTTP/1.1 431 "), reply
        assert host.bodies == []

    def test_request_line_over_64_kib_gets_414(self, echo_server):
        server, host = echo_server
        # With its CRLF the line is 65537 bytes, all of which the server reads.
        reply = self._raw_request(server.port, "GET /" + "a" * 65530)
        assert reply.startswith(b"HTTP/1.1 414 "), reply
        assert host.bodies == []

    @pytest.mark.parametrize("method", ["PUT", "HEAD"])
    def test_other_methods_get_501(self, echo_server, method):
        server, host = echo_server
        reply = self._raw_request(server.port, f"{method} /pd HTTP/1.1\r\nHost: 127.0.0.1\r\n")
        assert reply.startswith(b"HTTP/1.1 501 "), reply
        assert host.bodies == []

    def test_http_1_0_connection_is_closed_after_its_answer(self, echo_server):
        server, _ = echo_server
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"GET /pd HTTP/1.0\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):  # a connection left open times out here
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 "), reply
        assert b"Connection: close" in reply

    def test_expect_100_continue_is_answered_before_the_body(self, echo_server):
        server, host = echo_server
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"POST /pd HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 4\r\n"
                         b"Expect: 100-continue\r\n\r\n")
            interim = b""
            while b"\r\n\r\n" not in interim and (chunk := sock.recv(4096)):
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(b"text")
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 "), reply
        assert reply.endswith(b"\r\n\r\ntext")
        assert host.bodies == ["text"]

    def test_every_answer_carries_a_date(self, echo_server):
        server, _ = echo_server
        for head in ("GET /pd HTTP/1.1\r\nConnection: close\r\n",
                     "GET /pd HTTP/1.1\r\nContent-Length: x\r\n"):
            reply = self._raw_request(server.port, head)
            assert b"\r\nDate: " in reply.partition(b"\r\n\r\n")[0], reply


def test_serving_loudly_logs_each_request(capfd):
    """``serve-agent`` and ``serve-registry`` log one line per request."""
    server = HostServer(_Fixed("up"), quiet=False)
    server.start_background()
    network = Network()
    try:
        assert network.request("GET", server.url + "/x?q=1") == (200, "up")
    finally:
        network.close()
        server.shutdown()
    assert re.search(r'^127\.0\.0\.1 - - \[.+\] "GET /x\?q=1 HTTP/1\.1" 200 ',
                     capfd.readouterr().err, re.MULTILINE)


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def connects(monkeypatch):
    """Counts the TCP connects the transport's client makes, by port."""
    opened = []
    connect = transport._connect_tcp

    def counted(address, *args):
        opened.append(address[1])
        return connect(address, *args)

    monkeypatch.setattr(transport, "_connect_tcp", counted)
    return opened


class _Fixed:
    """A wire host that answers every request with one text, and counts."""

    def __init__(self, text: str, release: threading.Event | None = None):
        self.text = text
        self.release = release
        self.handled = 0

    def handle_request(self, method, path, query, body, sender_id):
        self.handled += 1
        if self.release is not None:
            self.release.wait(5)
        return 200, "text/plain", self.text


class _Raises:
    """A wire host whose handler fails."""

    def handle_request(self, method, path, query, body, sender_id):
        raise RuntimeError("boom")


class TestHostFault:
    def test_both_transports_answer_500(self):
        network = Network()
        network.register("broken", _Raises())
        server = HostServer(_Raises())
        server.start_background()
        try:
            answers = [network.request("GET", f"{base}/x") for base in ("mem://broken", server.url)]
            for base in ("mem://broken", server.url):
                with pytest.raises(transport.StatusError, match="500"):
                    network.call("GET", f"{base}/x")
        finally:
            server.shutdown()
            network.close()
        assert answers == [(500, "internal error: boom")] * 2


class _Paths:
    """A wire host that answers with the path and query it was handed."""

    def handle_request(self, method, path, query, body, sender_id):
        return 200, "text/plain", f"{method} {path!r} {query}"


def test_empty_path_reads_as_root_on_both_transports():
    """RFC 9110 §4.2.3: an empty path is ``/``, for the in-process host and
    for an absolute-form request target on the wire."""
    network = Network()
    network.register("paths", _Paths())
    server = HostServer(_Paths())
    server.start_background()
    try:
        mem = [network.request("POST", url) for url in ("mem://paths", "mem://paths?a=1")]
        http = [TestMalformedRequests._raw_request(server.port, f"POST {target} HTTP/1.1\r\n")
                for target in (server.url, f"{server.url}?a=1")]
    finally:
        server.shutdown()
    assert mem == [(200, "POST '/' {}"), (200, "POST '/' {'a': '1'}")]
    for reply, (_, text) in zip(http, mem):
        assert reply.startswith(b"HTTP/1.1 200 ") and reply.endswith(text.encode()), reply


class TestNetworkOverHttp:
    def test_connection_is_kept_open(self, registry_server, connects):
        server, _ = registry_server
        network = Network()
        try:
            for _ in range(20):
                assert network.request("GET", server.url + "/pd")[0] == 200
        finally:
            network.close()
        assert connects == [server.port]

    def test_restarted_server_answers_on_a_new_connection(self):
        network = Network()
        first = HostServer(_Fixed("first"))
        first.start_background()
        port = first.port
        try:
            assert network.request("GET", first.url + "/") == (200, "first")
        finally:
            first.shutdown()
        second = HostServer(_Fixed("second"), port=port)
        second.start_background()
        try:
            assert network.request("GET", second.url + "/") == (200, "second")
        finally:
            network.close()
            second.shutdown()

    def test_post_is_not_replayed_after_a_read_timeout(self, monkeypatch):
        monkeypatch.setattr(transport, "TIMEOUT_S", 0.2)
        monkeypatch.setattr(transport, "BACKOFF_S", 0.01)
        release = threading.Event()
        host = _Fixed("late", release)
        server = HostServer(host)
        server.start_background()
        network = Network()
        try:
            with pytest.raises(TransportError):
                network.call("POST", server.url + "/pd", "text")
            assert host.handled == 1
        finally:
            release.set()
            network.close()
            server.shutdown()

    def test_refused_connection_is_retried(self, connects, monkeypatch):
        monkeypatch.setattr(transport, "BACKOFF_S", 0.01)
        network = Network()
        with pytest.raises(TransportError, match="3 attempt"):
            network.call("POST", f"http://127.0.0.1:{_closed_port()}/pd", "text")
        assert len(connects) == 3

    def test_proxy_environment_is_honoured(self, registry_server, monkeypatch):
        monkeypatch.setattr(transport, "BACKOFF_S", 0.01)
        server, _ = registry_server
        for name in ("NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        for name in ("HTTP_PROXY", "http_proxy"):
            monkeypatch.setenv(name, f"http://127.0.0.1:{_closed_port()}")
        with pytest.raises(TransportError):
            Network().call("GET", server.url + "/pd")
        for name in ("NO_PROXY", "no_proxy"):
            monkeypatch.setenv(name, "127.0.0.1")
        network = Network()
        try:
            assert network.request("GET", server.url + "/pd")[0] == 200
        finally:
            network.close()

    def test_no_cookie_is_kept(self):
        sent = []

        class SetsCookie(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                sent.append(self.headers.get("Cookie"))
                self.send_response(200)
                self.send_header("Set-Cookie", "session=abc; Path=/")
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, fmt, *args):
                pass

        httpd = _http_server(SetsCookie)
        network = Network()
        try:
            for _ in range(2):
                network.request("GET", f"http://127.0.0.1:{httpd.server_address[1]}/")
        finally:
            network.close()
            _stop(httpd)
        assert sent == [None, None]


class _Echo:
    """A wire host that answers each request with its body, and keeps the
    bodies it handled."""

    def __init__(self):
        self.bodies = []

    def handle_request(self, method, path, query, body, sender_id):
        self.bodies.append(body)
        return 200, "text/plain", body


@pytest.fixture
def echo_server():
    host = _Echo()
    server = HostServer(host)
    server.start_background()
    yield server, host
    server.shutdown()


def _http_server(handler: type[BaseHTTPRequestHandler]) -> ThreadingHTTPServer:
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True).start()
    return httpd


def _stop(httpd: ThreadingHTTPServer) -> None:
    httpd.shutdown()
    httpd.server_close()


def _handler_threads(existing):
    """The connection threads of HostServers started since *existing*."""
    return [t for t in threading.enumerate()
            if t not in existing and t.name == "HostServer connection"]


def _wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


class TestPool:
    """The client's pool of kept-alive connections, on real servers."""

    def test_connection_closed_by_the_server_is_found_before_the_send(
            self, monkeypatch, connects):
        monkeypatch.setattr(serve, "IDLE_TIMEOUT_S", 0.2)
        existing = set(threading.enumerate())
        host = _Echo()
        server = HostServer(host)
        server.start_background()
        network = Network()
        try:
            assert network.call("POST", server.url + "/", "one") == "one"
            # The server closes the pooled connection after its idle timeout.
            assert _wait_for(lambda: not _handler_threads(existing))
            assert network.call("POST", server.url + "/", "two") == "two"
        finally:
            network.close()
            server.shutdown()
        assert host.bodies == ["one", "two"]
        assert connects == [server.port, server.port]

    def test_post_is_not_resent_when_the_host_drops_it(self, connects):
        received = []

        class DropsAfterReading(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                received.append(self.rfile.read(int(self.headers["Content-Length"])))
                self.close_connection = True  # and no answer

            def log_message(self, fmt, *args):
                pass

        httpd = _http_server(DropsAfterReading)
        network = Network()
        try:
            with pytest.raises(TransportError):
                network.call("POST", f"http://127.0.0.1:{httpd.server_address[1]}/pd", "text")
        finally:
            network.close()
            _stop(httpd)
        assert received == [b"text"]
        assert connects == [httpd.server_address[1]]

    def test_threads_share_one_pool(self, connects):
        existing = set(threading.enumerate())
        host = _Echo()
        server = HostServer(host)
        server.start_background()
        network = Network()
        wrong = []

        def client(n):
            for i in range(50):
                body = f"{n}-{i}"
                if network.call("POST", server.url + "/", body) != body:
                    wrong.append(body)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            network.close()
        try:
            assert wrong == []
            assert sorted(host.bodies) == sorted(f"{n}-{i}" for n in range(8) for i in range(50))
            assert 1 <= len(connects) <= 8
            # close() left no idle connection open: every handler saw EOF.
            assert _wait_for(lambda: not _handler_threads(existing))
        finally:
            server.shutdown()

    def test_https_origin_is_tunnelled_through_the_proxy(self, monkeypatch):
        heads = []
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)

        def fake_proxy():
            while True:
                try:
                    sock, _ = listener.accept()
                except OSError:
                    return
                with sock:
                    head = b""
                    while b"\r\n\r\n" not in head and (chunk := sock.recv(4096)):
                        head += chunk
                    heads.append(head.decode("latin-1"))
                    sock.sendall(b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")

        proxy = threading.Thread(target=fake_proxy, daemon=True)
        proxy.start()
        for name in ("NO_PROXY", "no_proxy", "https_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTPS_PROXY", f"http://user:pw@127.0.0.1:{listener.getsockname()[1]}")
        network = Network()
        try:
            with pytest.raises(TransportError, match="502"):
                network.call("GET", "https://peer.example:8443/.wellknown")
        finally:
            network.close()
            listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
            listener.close()
            proxy.join(timeout=5)
        # One CONNECT, not retried: the TCP connect to the proxy succeeded.
        assert len(heads) == 1
        assert heads[0].startswith("CONNECT peer.example:8443 HTTP/1.0\r\n")
        assert "Proxy-Authorization: Basic dXNlcjpwdw==\r\n" in heads[0]

    def test_answer_that_is_not_utf8_raises(self):
        class AnswersLatin1(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; charset=iso-8859-1")
                self.send_header("Content-Length", "4")
                self.end_headers()
                self.wfile.write("café".encode("latin-1"))

            def log_message(self, fmt, *args):
                pass

        httpd = _http_server(AnswersLatin1)
        network = Network()
        try:
            with pytest.raises(TransportError, match="not UTF-8"):
                network.call("GET", f"http://127.0.0.1:{httpd.server_address[1]}/")
        finally:
            network.close()
            _stop(httpd)

    def test_netrc_credentials_are_sent(self, monkeypatch, tmp_path):
        seen = []

        class Records(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                seen.append(self.headers.get("Authorization"))
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, fmt, *args):
                pass

        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login alice password s3cret\n")
        monkeypatch.setenv("NETRC", str(netrc))
        httpd = _http_server(Records)
        network = Network()
        try:
            assert network.request("GET", f"http://127.0.0.1:{httpd.server_address[1]}/") == (200, "")
        finally:
            network.close()
            _stop(httpd)
        assert seen == ["Basic " + base64.b64encode(b"alice:s3cret").decode("ascii")]


class _RawPeer:
    """A peer that answers every request with the same raw bytes and then
    closes the connection, or with *keep_open* leaves it open without
    reading more; it keeps the head of each request. An answer given as a
    list of pieces goes out one piece per segment."""

    def __init__(self, answer: bytes | list[bytes], keep_open: bool = False):
        self.answer = [answer] if isinstance(answer, bytes) else answer
        self.open: list[socket.socket] | None = [] if keep_open else None
        self.heads: list[str] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            try:
                head = b""
                while b"\r\n\r\n" not in head and (chunk := sock.recv(4096)):
                    head += chunk
                self.heads.append(head.decode("latin-1"))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for number, piece in enumerate(self.answer):
                    if number:
                        time.sleep(0.05)
                    sock.sendall(piece)
            finally:
                if self.open is None:
                    sock.close()
                else:
                    self.open.append(sock)

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
        self.listener.close()
        self.thread.join(timeout=5)
        for sock in self.open or ():
            sock.close()


@pytest.fixture
def raw_peer():
    peers = []

    def start(answer: bytes | list[bytes]) -> _RawPeer:
        peers.append(_RawPeer(answer))
        return peers[-1]

    yield start
    for peer in peers:
        peer.close()


class TestAnswerFraming:
    """How the client reads answers that other servers may send."""

    def test_chunked_answer_is_decoded(self, raw_peer):
        peer = raw_peer(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                        b"5;name=value\r\nhello\r\n7\r\n, world\r\n0\r\nX-Trailer: t\r\n\r\n")
        network = Network()
        try:
            assert network.request("GET", f"http://127.0.0.1:{peer.port}/") == (200, "hello, world")
        finally:
            network.close()

    @pytest.mark.parametrize("interim", [b"HTTP/1.1 100 Continue\r\n\r\n",
                                         b"HTTP/1.1 103 Early Hints\r\nLink: </a.css>\r\n\r\n"],
                             ids=["100", "103"])
    def test_interim_answer_is_skipped(self, raw_peer, interim):
        peer = raw_peer(interim + b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        network = Network()
        try:
            assert network.request("GET", f"http://127.0.0.1:{peer.port}/") == (200, "ok")
        finally:
            network.close()

    def test_answer_without_a_length_is_read_to_eof_and_not_pooled(self, raw_peer):
        peer = raw_peer(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil the end")
        client = transport.HttpClient()
        try:
            assert client.send("GET", urlsplit(f"http://127.0.0.1:{peer.port}/"), b"", {},
                               5.0) == (200, "until the end")
            assert not any(client._idle.values())
        finally:
            client.close()

    @pytest.mark.parametrize("answer", [
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde",
    ], ids=["short", "two-lengths"])
    def test_answer_that_breaks_its_length_raises(self, raw_peer, answer):
        peer = raw_peer(answer)
        client = transport.HttpClient()
        try:
            with pytest.raises(TransportError):
                client.send("GET", urlsplit(f"http://127.0.0.1:{peer.port}/"), b"", {}, 5.0)
            assert not any(client._idle.values())
        finally:
            client.close()

    def test_host_field_is_hostname_and_port(self, raw_peer):
        peer = raw_peer(b"HTTP/1.1 204 No Content\r\n\r\n")
        network = Network()
        try:
            assert network.request("GET", f"http://127.0.0.1:{peer.port}/x") == (204, "")
        finally:
            network.close()
        assert peer.heads[0].startswith("GET /x HTTP/1.1\r\n")
        assert f"\r\nHost: 127.0.0.1:{peer.port}\r\n" in peer.heads[0]

    def test_userinfo_is_sent_neither_in_host_nor_to_the_proxy(self, raw_peer, monkeypatch):
        """A plain-HTTP proxy gets the absolute target, which names the
        host as the Host field does."""
        proxy = raw_peer(b"HTTP/1.1 204 No Content\r\n\r\n")
        for name in ("NO_PROXY", "no_proxy", "http_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.port}")
        network = Network()
        try:
            assert network.request("GET", "http://user:pw@peer.example:8080/y") == (204, "")
        finally:
            network.close()
        assert proxy.heads[0].startswith("GET http://peer.example:8080/y HTTP/1.1\r\n")
        assert "\r\nHost: peer.example:8080\r\n" in proxy.heads[0]

    def test_no_proxy_matches_a_url_with_userinfo(self, raw_peer, monkeypatch):
        monkeypatch.setattr(transport, "BACKOFF_S", 0.01)
        peer = raw_peer(b"HTTP/1.1 204 No Content\r\n\r\n")
        for name in ("no_proxy", "http_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{_closed_port()}")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        network = Network()
        try:
            assert network.request("GET", f"http://user:pw@127.0.0.1:{peer.port}/") == (204, "")
        finally:
            network.close()
        assert len(peer.heads) == 1


_STDLIB_ONLY = """
import sys
from agentmesh.gateway import LiveChatBackend, Message
from agentmesh.simulator import ScenarioConfig, run_scenario
from test_live_backend import _StubChatServer

result = run_scenario(ScenarioConfig(name="http", seed=3, n_users=2, total_queries=8,
                                     transport="http"))
assert [r.status for r in result.records] == ["success"] * 8
stub = _StubChatServer(usage={"prompt_tokens": 1, "completion_tokens": 1})
try:
    assert LiveChatBackend(stub.url, "k", "m").complete([Message("user", "hi")])[0] == "stub reply"
finally:
    stub.close()
print(sorted(name for name in ("requests", "urllib3") if name in sys.modules))
"""


def test_runtime_imports_neither_requests_nor_urllib3():
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests)]
    done = subprocess.run([sys.executable, "-c", _STDLIB_ONLY], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestClientGone:
    def test_answer_to_a_client_that_left_is_dropped_quietly(self, capfd):
        existing = set(threading.enumerate())
        release = threading.Event()
        host = _Fixed("late", release)
        server = HostServer(host)
        server.start_background()
        network = Network()
        try:
            client = socket.create_connection(("127.0.0.1", server.port), timeout=5)
            client.sendall(b"POST /pd HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                           b"Content-Length: 4\r\n\r\ntext")
            assert _wait_for(lambda: host.handled == 1)
            # Linger 0: the close resets the connection before the answer.
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
            release.set()
            assert _wait_for(lambda: not _handler_threads(existing))
            assert network.request("GET", server.url + "/") == (200, "late")
        finally:
            release.set()
            network.close()
            server.shutdown()
        assert "Traceback" not in capfd.readouterr().err


class TestIdleConnections:
    def test_idle_connection_is_closed_and_its_thread_freed(self, monkeypatch):
        monkeypatch.setattr(serve, "IDLE_TIMEOUT_S", 0.2)
        existing = set(threading.enumerate())
        server = HostServer(_Fixed("fresh"))
        server.start_background()
        network = Network()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as idle:
                assert _wait_for(lambda: len(_handler_threads(existing)) == 1)
                # The server closes its end: EOF, well before the 5 s timeout.
                assert idle.recv(1) == b""
                assert _wait_for(lambda: not _handler_threads(existing))
            assert network.request("GET", server.url + "/") == (200, "fresh")
        finally:
            network.close()
            server.shutdown()


class TestShutdown:
    def test_servers_stop_at_once(self):
        # As many as the desk simulation runs; it stops them one by one.
        servers = [HostServer(_Fixed("up")) for _ in range(23)]
        network = Network()
        try:
            for server in servers:
                server.start_background()
                assert network.request("GET", server.url + "/") == (200, "up")
            # Last started, first stopped: were a stop noticed only at the
            # server's next poll, each of these would wait about a whole poll.
            start = time.perf_counter()
            for server in reversed(servers):
                server.shutdown()
            elapsed = time.perf_counter() - start
            assert elapsed < 0.25, f"23 stops took {elapsed:.3f} s"
        finally:
            network.close()
            for server in servers:
                server.shutdown()

    @pytest.mark.parametrize("started", [True, False])
    def test_stop_frees_the_thread_and_the_port(self, started):
        existing = set(threading.enumerate())
        server = HostServer(_Fixed("up"))
        if started:
            server.start_background()
        serving = [t for t in threading.enumerate() if t not in existing]
        assert len(serving) == int(started)
        server.shutdown()
        server.shutdown()  # harmless
        assert not any(t.is_alive() for t in serving)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", server.port), timeout=5)


class TestAcceptLoop:
    """socketserver's fault handling, kept by the one accept loop."""

    def test_failed_accept_is_skipped(self, monkeypatch):
        server = HostServer(_Fixed("up"))
        server.start_background()
        accept, failed = socket.socket.accept, []

        def accept_failing_once(sock):
            if not failed:
                failed.append(sock.getsockname()[1])
                raise OSError(errno.EMFILE, "Too many open files")
            return accept(sock)

        monkeypatch.setattr(socket.socket, "accept", accept_failing_once)
        network = Network()
        try:
            assert network.request("GET", server.url + "/") == (200, "up")
        finally:
            network.close()
            server.shutdown()
        assert failed == [server.port]

    def test_connection_whose_thread_cannot_start_is_closed(self, monkeypatch):
        server = HostServer(_Fixed("up"))
        server.start_background()
        start, failed = threading.Thread.start, []

        def start_failing_once(thread):
            if not failed:
                failed.append(thread.name)
                raise RuntimeError("can't start new thread")
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_failing_once)
        network = Network()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as dropped:
                assert dropped.recv(1) == b""
            # The loop goes on accepting: the next connection is served.
            assert network.request("GET", server.url + "/") == (200, "up")
        finally:
            network.close()
            server.shutdown()
        assert failed == ["HostServer connection"]


def _read_to_eof(sock: socket.socket) -> bytes:
    reply = b""
    while chunk := sock.recv(4096):
        reply += chunk
    return reply


class TestReader:
    """The one reader of a connection, on both sides: heads that arrive in
    pieces or together, and line ends that are bare LFs."""

    def test_head_that_arrives_one_byte_per_segment_is_read(self, echo_server):
        server, host = echo_server
        request = b"POST /pd HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 4\r\n\r\nbody"
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in request:
                sock.sendall(bytes([byte]))
                time.sleep(0.001)
            sock.shutdown(socket.SHUT_WR)
            reply = _read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 200 "), reply
        assert reply.endswith(b"\r\n\r\nbody")
        assert host.bodies == ["body"]

    def test_pipelined_requests_are_answered_in_order(self, echo_server):
        server, host = echo_server
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"POST /pd HTTP/1.1\r\nContent-Length: 3\r\n\r\none"
                         b"POST /pd HTTP/1.1\r\nContent-Length: 3\r\nConnection: close\r\n\r\ntwo")
            reply = _read_to_eof(sock)
        first, second = reply.split(b"HTTP/1.1 200 OK\r\n")[1:]
        assert first.endswith(b"\r\n\r\none") and second.endswith(b"\r\n\r\ntwo"), reply
        assert host.bodies == ["one", "two"]

    def test_head_with_bare_lf_line_ends_is_answered(self, echo_server):
        server, _ = echo_server
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"POST /pd HTTP/1.1\nContent-Length: 2\nConnection: close\n\nhi")
            reply = _read_to_eof(sock)
        assert reply.startswith(b"HTTP/1.1 200 "), reply
        assert reply.endswith(b"\r\n\r\nhi")

    def test_answer_whose_body_comes_in_a_later_segment_is_read_whole(self, raw_peer):
        peer = raw_peer([b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n", b"hello", b" world"])
        network = Network()
        try:
            assert network.request("GET", f"http://127.0.0.1:{peer.port}/") == (200, "hello world")
        finally:
            network.close()

    @pytest.mark.parametrize("empty", ["\r\n", "\n", "\r\n\r\n"], ids=["crlf", "lf", "two"])
    def test_empty_lines_before_a_request_line_are_ignored(self, echo_server, empty):
        """RFC 9112 §2.2: a server ignores at least one empty line there."""
        server, host = echo_server
        reply = TestMalformedRequests._raw_request(
            server.port, f"{empty}POST /pd HTTP/1.1\r\nContent-Length: 2\r\n", b"ok")
        assert reply.startswith(b"HTTP/1.1 200 "), reply
        assert host.bodies == ["ok"]

    def test_empty_lines_beyond_the_line_limit_get_414(self, echo_server):
        server, host = echo_server
        reply = TestMalformedRequests._raw_request(
            server.port, "\r\n" * (transport.MAX_LINE // 2 + 1) + "GET /pd HTTP/1.1\r\n")
        assert reply.startswith(b"HTTP/1.1 414 "), reply
        assert host.bodies == []

    @pytest.mark.parametrize("answer", [b"HTTP/1.1 200 ", b"HTTP/1.1 200 OK\r\nX-Long: "],
                             ids=["status-line", "header-line"])
    def test_endless_line_fails_before_its_end(self, raw_peer, answer):
        """An answer line is refused once it passes the limit, not at its
        end, which here never comes before the peer closes."""
        peer = raw_peer(answer + b"a" * (transport.MAX_LINE + 4096))
        client = transport.HttpClient()
        try:
            with pytest.raises(TransportError, match=f"longer than {transport.MAX_LINE} bytes"):
                client.send("GET", urlsplit(f"http://127.0.0.1:{peer.port}/"), b"", {}, 5.0)
        finally:
            client.close()

    def test_line_break_in_a_field_value_is_not_sent(self, raw_peer):
        peer = raw_peer(b"HTTP/1.1 204 No Content\r\n\r\n")
        network = Network()
        try:
            with pytest.raises(TransportError, match="line break"):
                network.request("GET", f"http://127.0.0.1:{peer.port}/", sender_id="a\r\nX-Evil: 1")
        finally:
            network.close()
        assert peer.heads == []


def test_bytes_after_an_answer_are_not_taken_as_the_next_answer(connects):
    """RFC 9112 §6.3: a client must not read data after an answer as the
    answer to a request it sends later; such a connection is not reused."""
    peer = _RawPeer(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
                    b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nevil", keep_open=True)
    network = Network()
    try:
        url = f"http://127.0.0.1:{peer.port}/"
        assert [network.request("GET", url) for _ in range(2)] == [(200, "ok")] * 2
    finally:
        network.close()
        peer.close()
    assert len(peer.heads) == 2
    assert connects == [peer.port, peer.port]


@pytest.fixture(scope="module")
def tls_files(tmp_path_factory):
    """A throwaway CA, and two certificates it signed: one for 127.0.0.1 and
    localhost, one for another name."""
    pytest.importorskip("cryptography")
    import datetime
    import ipaddress

    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    directory = tmp_path_factory.mktemp("tls")
    now = datetime.datetime.now(datetime.timezone.utc)

    def certificate(subject, issuer, key, signing_key, names, ca):
        builder = (x509.CertificateBuilder()
                   .subject_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, subject)]))
                   .issuer_name(x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, issuer)]))
                   .public_key(key.public_key()).serial_number(x509.random_serial_number())
                   .not_valid_before(now - datetime.timedelta(days=1))
                   .not_valid_after(now + datetime.timedelta(days=1))
                   .add_extension(x509.BasicConstraints(ca=ca, path_length=None), critical=True))
        if names:
            builder = builder.add_extension(x509.SubjectAlternativeName(names), critical=False)
        return builder.sign(signing_key, hashes.SHA256())

    def write(name, cert, key=None):
        path = directory / f"{name}.pem"
        pem = cert.public_bytes(serialization.Encoding.PEM)
        if key is not None:
            pem += key.private_bytes(serialization.Encoding.PEM,
                                     serialization.PrivateFormat.PKCS8,
                                     serialization.NoEncryption())
        path.write_bytes(pem)
        return str(path)

    ca_key = ec.generate_private_key(ec.SECP256R1())
    ca = certificate("test CA", "test CA", ca_key, ca_key, None, True)
    files = {"ca": write("ca", ca)}
    for name, names in [("loopback", [x509.DNSName("localhost"),
                                      x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
                        ("other", [x509.DNSName("other.example")])]:
        key = ec.generate_private_key(ec.SECP256R1())
        files[name] = write(name, certificate(name, "test CA", key, ca_key, names, False), key)
    return files


class _TlsEcho:
    """An HTTPS peer on loopback that answers each request on a kept-alive
    connection with its body, one connection at a time."""

    def __init__(self, cert_file: str):
        import ssl

        self.context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
        self.context.load_cert_chain(cert_file)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                raw, _ = self.listener.accept()
            except OSError:
                return
            try:
                with self.context.wrap_socket(raw, server_side=True) as sock:
                    sock.settimeout(5)
                    data = b""
                    while True:
                        while b"\r\n\r\n" not in data and (chunk := sock.recv(4096)):
                            data += chunk
                        head, _, data = data.partition(b"\r\n\r\n")
                        if not head:
                            break
                        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
                        while len(data) < length:
                            data += sock.recv(4096)
                        body, data = data[:length], data[length:]
                        sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                                     % (len(body), body))
            except OSError:  # a failed handshake, or the client left
                raw.close()

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
        self.listener.close()
        self.thread.join(timeout=5)


class TestHttps:
    """TLS end to end: the client's own connect, on loopback."""

    @pytest.mark.parametrize("hostname", ["127.0.0.1", "localhost"])
    def test_https_answer_and_pooled_connection(self, tls_files, monkeypatch, connects,
                                                 hostname):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", tls_files["ca"])
        peer = _TlsEcho(tls_files["loopback"])
        network = Network()
        try:
            url = f"https://{hostname}:{peer.port}/"
            assert network.call("POST", url, "über") == "über"
            assert network.call("POST", url, "again") == "again"
        finally:
            network.close()
            peer.close()
        assert connects == [peer.port]

    def test_certificate_for_another_name_fails_once(self, tls_files, monkeypatch, connects):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", tls_files["ca"])
        peer = _TlsEcho(tls_files["other"])
        network = Network()
        try:
            with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
                network.call("POST", f"https://127.0.0.1:{peer.port}/", "text")
        finally:
            network.close()
            peer.close()
        assert connects == [peer.port]


def test_http_date_is_the_imf_fixdate():
    from email.utils import formatdate

    for second in (0, 951782400, 1700000000, 1798761599, int(time.time())):
        assert serve._http_date(second) == formatdate(second, usegmt=True)


_SMALL_FOOTPRINT = """
import sys
from agentmesh.simulator import ScenarioConfig, run_scenario

result = run_scenario(ScenarioConfig(name="http-desk", seed=3, n_users=4, server_replicas=1,
                                     total_queries=12, transport="http"))
assert [r.status for r in result.records] == ["success"] * 12
print(sorted(name for name in sys.argv[1:] if name in sys.modules))
"""


def _modules_loaded_by_a_desk_run_over_http(*names: str) -> str:
    """Run a small desk scenario over HTTP in a fresh interpreter, without a
    ``*_proxy`` variable, and report which of *names* it loaded."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {name: value for name, value in os.environ.items()
           if not name.lower().endswith("_proxy")}
    done = subprocess.run([sys.executable, "-c", _SMALL_FOOTPRINT, *names], capture_output=True,
                          text=True, timeout=120, env={**env, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_runtime_over_http_loads_no_client_library():
    """The client opens its own connections: without a ``*_proxy``
    variable, a desk run over HTTP loads neither ``http.client``, ``email``,
    ``ssl`` nor ``urllib.request``."""
    assert _modules_loaded_by_a_desk_run_over_http(
        "http.client", "email", "ssl", "urllib.request") == "[]"


def test_runtime_serves_without_the_stdlib_http_server():
    """HostServer speaks HTTP through the transport's codec and accepts its
    own connections; a desk run over HTTP loads neither ``http.server`` nor
    ``socketserver``."""
    assert _modules_loaded_by_a_desk_run_over_http("http.server", "socketserver") == "[]"
