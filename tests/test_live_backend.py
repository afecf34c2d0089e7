"""LiveChatBackend against a local chat-completions stub."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from agentmesh import gateway
from agentmesh.gateway import BackendError, LiveChatBackend, Message, TokenUsage


class _StubChatServer:
    """Speaks just enough of the chat-completions shape for the client."""

    def __init__(self, fail_first: int = 0, usage: dict | None = None, fail_status: int = 503):
        self.requests: list[dict] = []
        self.fail_remaining = fail_first
        self.fail_status = fail_status
        self.usage = usage
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                payload = json.loads(self.rfile.read(length))
                stub.requests.append({"payload": payload,
                                      "auth": self.headers.get("Authorization")})
                if stub.fail_remaining > 0:
                    stub.fail_remaining -= 1
                    self.send_response(stub.fail_status)
                    self.end_headers()
                    return
                body = {"choices": [{"message": {"content": "stub reply"}}]}
                if stub.usage is not None:
                    body["usage"] = stub.usage
                data = json.dumps(body).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, fmt, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}/v1/chat/completions"
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


CONVERSATION = [Message("system", "be brief"), Message("user", "hello")]


@pytest.fixture
def short_backoff(monkeypatch):
    monkeypatch.setattr(gateway, "COMPLETION_BACKOFF_S", 0.01)


def test_reply_and_vendor_usage():
    stub = _StubChatServer(usage={"prompt_tokens": 12, "completion_tokens": 7})
    try:
        backend = LiveChatBackend(stub.url, "secret-key", "some-model")
        reply, usage = backend.complete(CONVERSATION)
    finally:
        stub.close()
    assert reply == "stub reply"
    assert usage == TokenUsage(12, 7)
    sent = stub.requests[0]
    assert sent["auth"] == "Bearer secret-key"
    assert sent["payload"]["model"] == "some-model"
    assert sent["payload"]["messages"] == [{"role": "system", "content": "be brief"},
                                           {"role": "user", "content": "hello"}]


def test_local_token_estimate_when_vendor_omits_usage():
    stub = _StubChatServer(usage=None)
    try:
        backend = LiveChatBackend(stub.url, "k", "m")
        _, usage = backend.complete(CONVERSATION)
    finally:
        stub.close()
    # ceil(len("be brief")/4) + ceil(len("hello")/4) = 2 + 2
    assert usage == TokenUsage(4, 3)


def test_bounded_retries_recover(short_backoff):
    stub = _StubChatServer(fail_first=2, usage={"prompt_tokens": 1, "completion_tokens": 1})
    try:
        backend = LiveChatBackend(stub.url, "k", "m")
        reply, _ = backend.complete(CONVERSATION)
    finally:
        stub.close()
    assert reply == "stub reply"
    assert len(stub.requests) == 3


def test_exhausted_retries_raise(short_backoff):
    stub = _StubChatServer(fail_first=99)
    try:
        backend = LiveChatBackend(stub.url, "k", "m")
        with pytest.raises(BackendError, match="3 attempts"):
            backend.complete(CONVERSATION)
    finally:
        stub.close()
    assert len(stub.requests) == 3


def test_client_error_is_not_retried(short_backoff):
    stub = _StubChatServer(fail_first=99, fail_status=400)
    try:
        backend = LiveChatBackend(stub.url, "k", "m")
        with pytest.raises(BackendError, match="400"):
            backend.complete(CONVERSATION)
    finally:
        stub.close()
    assert len(stub.requests) == 1
