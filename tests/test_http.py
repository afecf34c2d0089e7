"""Endpoint conformance over real sockets."""

import base64
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

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


def _http_server(handler: type[BaseHTTPRequestHandler]) -> ThreadingHTTPServer:
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True).start()
    return httpd


def _stop(httpd: ThreadingHTTPServer) -> None:
    httpd.shutdown()
    httpd.server_close()


def _handler_threads(existing):
    return [t for t in threading.enumerate()
            if t not in existing and "process_request_thread" in t.name]


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
