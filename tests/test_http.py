"""Endpoint conformance over real sockets."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests
import urllib3.connection

from agentmesh import catalog, serve, transport
from agentmesh.documents import compute_hash
from agentmesh.envelope import parse_wellknown
from agentmesh.gateway import CostLedger
from agentmesh.registry import RegistryStore
from agentmesh.runtime import BOOTSTRAP_HASH, Agent, AgentConfig, ToolDescriptor
from agentmesh.scripted import ScriptedBackend
from agentmesh.serve import HostServer
from agentmesh.transport import Network, TransportError
from conftest import WEATHER_TEXT

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

    def test_network_fetch_text_verifies(self, registry_server):
        server, registry = registry_server
        registry.submit(WEATHER_TEXT)
        network = Network()
        from agentmesh.documents import verify_document
        text = network.fetch_text(f"{server.url}/pd/{WEATHER_HASH}")
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


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def connects(monkeypatch):
    """Counts the TCP connections urllib3 opens."""
    opened = []
    connect = urllib3.connection.HTTPConnection.connect

    def counted(self):
        opened.append(self.port)
        return connect(self)

    monkeypatch.setattr(urllib3.connection.HTTPConnection, "connect", counted)
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
                network.post_text(server.url + "/pd", "text")
            assert host.handled == 1
        finally:
            release.set()
            network.close()
            server.shutdown()

    def test_refused_connection_is_retried(self, connects, monkeypatch):
        monkeypatch.setattr(transport, "BACKOFF_S", 0.01)
        network = Network()
        with pytest.raises(TransportError, match="3 attempt"):
            network.post_text(f"http://127.0.0.1:{_closed_port()}/pd", "text")
        assert len(connects) == 3

    def test_proxy_environment_is_honoured(self, registry_server, monkeypatch):
        monkeypatch.setattr(transport, "BACKOFF_S", 0.01)
        server, _ = registry_server
        for name in ("NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        for name in ("HTTP_PROXY", "http_proxy"):
            monkeypatch.setenv(name, f"http://127.0.0.1:{_closed_port()}")
        with pytest.raises(TransportError):
            Network().fetch_text(server.url + "/pd")
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

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), SetsCookie)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        network = Network()
        try:
            for _ in range(2):
                network.request("GET", f"http://127.0.0.1:{httpd.server_address[1]}/")
        finally:
            network.close()
            httpd.shutdown()
            httpd.server_close()
        assert sent == [None, None]


class TestIdleConnections:
    def test_idle_connection_is_closed_and_its_thread_freed(self, monkeypatch):
        monkeypatch.setattr(serve, "IDLE_TIMEOUT_S", 0.2)
        existing = set(threading.enumerate())

        def handlers():
            return [t for t in threading.enumerate()
                    if t not in existing and "process_request_thread" in t.name]

        def wait_for(condition):
            deadline = time.monotonic() + 5
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.01)
            return condition()

        server = HostServer(_Fixed("fresh"))
        server.start_background()
        network = Network()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as idle:
                assert wait_for(lambda: len(handlers()) == 1)
                # The server closes its end: EOF, well before the 5 s timeout.
                assert idle.recv(1) == b""
                assert wait_for(lambda: not handlers())
            assert network.request("GET", server.url + "/") == (200, "fresh")
        finally:
            network.close()
            server.shutdown()
