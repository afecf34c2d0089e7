"""Registry storage, querying, peer sharing, and load-time integrity."""

import json
import os
import sys
import threading
import time

import pytest

from agentmesh import catalog, registry
from agentmesh.documents import compute_hash, verify_document
from agentmesh.registry import RegistryClient, RegistryIntegrityError, RegistryStore
from agentmesh.serve import HostServer
from agentmesh.transport import Network, StatusError
from conftest import DEEP, WEATHER_TEXT

WEATHER_HASH = compute_hash(WEATHER_TEXT)
TAXI_TEXT = catalog.pd_text(catalog.CATALOG["taxi"])


@pytest.fixture
def network():
    network = Network()
    yield network
    network.close()


def chain(network, peers_of=None):
    """DB1 -> DB2 -> DB3 directed chain (the propagation fixture)."""
    peers_of = peers_of or {"db1": ("mem://db2",), "db2": ("mem://db3",), "db3": ()}
    registries = {}
    for rid in ("db1", "db2", "db3"):
        registries[rid] = RegistryStore(rid, network, peers=peers_of[rid])
        network.register(rid, registries[rid])
    return registries


class TestSubmitGet:
    def test_submit_returns_digest(self, network):
        store = RegistryStore("db1", network)
        assert store.submit(WEATHER_TEXT) == WEATHER_HASH

    def test_idempotent_resubmission(self, network):
        store = RegistryStore("db1", network)
        store.submit(WEATHER_TEXT)
        assert store.submit(WEATHER_TEXT) == WEATHER_HASH
        assert len(store) == 1

    def test_empty_text_is_legal(self, network):
        store = RegistryStore("db1", network)
        digest = store.submit("")
        assert digest == compute_hash("")
        assert store.get(digest).raw_text == ""

    def test_two_texts_two_entries(self, network):
        store = RegistryStore("db1", network)
        store.submit("protocol one\n")
        store.submit("protocol two\n")
        assert len(store) == 2

    def test_get_unknown_is_none(self, network):
        assert RegistryStore("db1", network).get("0" * 40) is None

    def test_get_is_case_insensitive(self, network):
        store = RegistryStore("db1", network)
        store.submit(WEATHER_TEXT)
        assert store.get(WEATHER_HASH.upper()) is not None


class TestQuery:
    def _loaded(self, network):
        store = RegistryStore("db1", network)
        store.submit(WEATHER_TEXT)
        store.submit(catalog.pd_text(catalog.CATALOG["taxi"]))
        return store

    def test_keyword_match(self, network):
        rows = self._loaded(network).query("weather")
        assert [name for _, name, _ in rows] == ["Weather Forecast Query Protocol"]

    def test_keyword_is_case_insensitive(self, network):
        assert self._loaded(network).query("WEATHER")

    def test_no_match(self, network):
        assert self._loaded(network).query("submarine") == []

    def test_empty_filter_lists_all(self, network):
        assert len(self._loaded(network).query("")) == 2


CPP_TEXT = ("Name: C++ Build Protocol\n"
            "Description: Compile a C++ target and report whether the build passed.\n\n"
            "The request body is a JSON object naming the target.\n")
CSHARP_TEXT = ("Name: C# Interop Protocol\n"
               "Description: Call a method of a .NET assembly.\n\n"
               "The request body is a JSON object naming the method.\n")


class TestClientQuery:
    """The client's keyword reaches the registry as typed, over either scheme."""

    @pytest.fixture(params=["mem", "http"])
    def client(self, request, network):
        store = RegistryStore("db1", network)
        network.register("db1", store)
        for text in (WEATHER_TEXT, CPP_TEXT, CSHARP_TEXT):
            store.submit(text)
        if request.param == "mem":
            yield RegistryClient(network, "mem://db1")
            return
        server = HostServer(store)
        server.start_background()
        try:
            yield RegistryClient(network, server.url)
        finally:
            server.shutdown()

    @pytest.mark.parametrize("keyword, names", [
        ("c++", ["C++ Build Protocol"]),
        ("#", ["C# Interop Protocol"]),
        ("build protocol", ["C++ Build Protocol"]),
    ])
    def test_keyword_matches_as_typed(self, client, keyword, names):
        assert [name for _, name, _ in client.query(keyword)] == names


class _Recording:
    """Forwards to a wire host and records each request's method and path."""

    def __init__(self, host):
        self.host = host
        self.requests = []

    def handle_request(self, method, path, query, body, sender_id):
        self.requests.append((method, path))
        return self.host.handle_request(method, path, query, body, sender_id)


class _Answers:
    """A wire host that answers every request with one status and text."""

    def __init__(self, status: int, text: str):
        self.status = status
        self.text = text

    def handle_request(self, method, path, query, body, sender_id):
        return self.status, "text/plain", self.text


class _RefusesFirstPost:
    """Forwards to a wire host, but answers its first POST with a 503."""

    def __init__(self, host):
        self.host = host
        self.refused = False

    def handle_request(self, method, path, query, body, sender_id):
        if method == "POST" and not self.refused:
            self.refused = True
            return 503, "text/plain", "busy"
        return self.host.handle_request(method, path, query, body, sender_id)


class TestSharing:
    def test_one_round_reaches_direct_peer_only(self, network):
        registries = chain(network)
        registries["db1"].submit(WEATHER_TEXT)
        sent = registries["db1"].share_with_peers()
        assert sent == 1
        assert registries["db2"].get(WEATHER_HASH) is not None
        assert registries["db3"].get(WEATHER_HASH) is None

    def test_second_round_propagates_transitively(self, network):
        registries = chain(network)
        registries["db1"].submit(WEATHER_TEXT)
        registries["db1"].share_with_peers()
        registries["db2"].share_with_peers()
        assert registries["db3"].get(WEATHER_HASH) is not None

    def test_share_with_no_documents(self, network):
        registries = chain(network)
        assert registries["db1"].share_with_peers() == 0

    def test_unreachable_peer_skipped(self, network):
        store = RegistryStore("db1", network, peers=("mem://gone", "mem://db2"))
        network.register("db2", RegistryStore("db2", network))
        store.submit(WEATHER_TEXT)
        assert store.share_with_peers() == 1
        assert network.host("db2").get(WEATHER_HASH) is not None

    def test_second_round_with_nothing_new_transmits_nothing(self, network):
        registries = chain(network)
        registries["db1"].submit(WEATHER_TEXT)
        assert registries["db1"].share_with_peers() == 1
        assert registries["db1"].share_with_peers() == 0

    def test_peer_is_sent_only_what_it_lacks(self, network):
        store = RegistryStore("db1", network, peers=("mem://db2",))
        peer = RegistryStore("db2", network)
        recorder = _Recording(peer)
        network.register("db2", recorder)
        store.submit(WEATHER_TEXT)
        peer.submit(WEATHER_TEXT)
        assert store.share_with_peers() == 0
        assert recorder.requests == [("GET", "/pd")]
        store.submit(catalog.pd_text(catalog.CATALOG["taxi"]))
        assert store.share_with_peers() == 1
        assert recorder.requests[1:] == [("GET", "/pd"), ("POST", "/pd")]
        assert peer.hashes() == store.hashes()

    def test_refused_document_does_not_end_the_share(self, network):
        store = RegistryStore("db1", network, peers=("mem://db2",))
        peer = RegistryStore("db2", network)
        network.register("db2", _RefusesFirstPost(peer))
        taxi_text = catalog.pd_text(catalog.CATALOG["taxi"])
        store.submit(WEATHER_TEXT)
        store.submit(taxi_text)
        first, second = sorted(store.hashes())
        assert store.share_with_peers() == 1
        assert peer.hashes() == {second}
        assert store.share_with_peers() == 1
        assert peer.hashes() == {first, second}

    @pytest.mark.parametrize("failing", ["mem://gone", "mem://broken", "mem://other",
                                         "mem://deep"],
                             ids=["unreachable", "5xx", "not-a-listing", "deep"])
    def test_peer_whose_listing_fails_is_skipped(self, network, failing):
        store = RegistryStore("db1", network, peers=(failing, "mem://db2"))
        network.register("broken", _Answers(500, "internal error"))
        network.register("other", _Answers(200, "not json"))
        network.register("deep", _Answers(200, DEEP))
        network.register("db2", RegistryStore("db2", network))
        store.submit(WEATHER_TEXT)
        assert store.share_with_peers() == 1
        assert network.host("db2").get(WEATHER_HASH) is not None


def fresh_listing(store) -> str:
    """The full listing built from scratch from the stored documents."""
    docs = sorted((digest, store.get(digest)) for digest in store.hashes())
    return json.dumps([{"hash": digest, "name": doc.name, "description": doc.description}
                       for digest, doc in docs])


def listed(store) -> str:
    status, _, text = store.handle_request("GET", "/pd", {}, "", None)
    assert status == 200
    return text


def protocol_text(i: int) -> str:
    return f"Name: Protocol {i}\nDescription: Test protocol number {i}.\n\nBody {i}.\n"


class TestKeptListing:
    """The full listing a registry keeps equals one built from scratch."""

    def test_follows_submits(self, network):
        store = RegistryStore("db1", network)
        assert listed(store) == fresh_listing(store) == "[]"
        store.submit(WEATHER_TEXT)
        assert listed(store) == fresh_listing(store)
        store.submit(TAXI_TEXT)
        assert listed(store) == fresh_listing(store)
        before = listed(store)
        store.submit(WEATHER_TEXT)
        assert listed(store) == fresh_listing(store) == before
        assert [row[0] for row in store.query("")] == sorted(store.hashes())

    def test_disk_backed_load(self, tmp_path, network):
        root = str(tmp_path / "db")
        first = RegistryStore("db1", network, root=root)
        first.submit(TAXI_TEXT)
        first.submit(WEATHER_TEXT)
        again = RegistryStore("db1", network, root=root)
        assert listed(again) == fresh_listing(again) == listed(first)

    def test_concurrent_submits_and_listings(self, network):
        """Rounds of 4 submitting threads against 4 listing threads. A
        listing built from a snapshot taken before a submit, but kept after
        it, would stay until the next submit: each round ends by comparing."""
        store = RegistryStore("db1", network)
        done = threading.Event()
        reads = [0] * 4
        stale_rounds = []

        def read(k):
            while not done.is_set():
                listed(store)
                reads[k] += 1

        def settled(before):
            # Each reader has finished a listing it started after the round.
            deadline = time.monotonic() + 10
            while any(now < then + 2 for now, then in zip(reads, before)):
                assert time.monotonic() < deadline
                time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        try:
            for thread in readers:
                thread.start()
            for round_no in range(40):
                writers = [threading.Thread(target=store.submit,
                                            args=(protocol_text(4 * round_no + k),))
                           for k in range(4)]
                for thread in writers:
                    thread.start()
                for thread in writers:
                    thread.join(10)
                    assert not thread.is_alive()
                settled(list(reads))
                if listed(store) != fresh_listing(store):
                    stale_rounds.append(round_no)
        finally:
            done.set()
            for thread in readers:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert len(store) == 160 and not stale_rounds


class TestPeerListingReuse:
    """A share round parses a peer's listing only when its text changed."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        parse = registry.parse_listing

        def counting(text, source):
            calls.append(source)
            return parse(text, source)
        monkeypatch.setattr(registry, "parse_listing", counting)
        return calls

    def test_unchanged_listing_is_parsed_once(self, network, parses):
        store = RegistryStore("db1", network, peers=("mem://db2",))
        network.register("db2", RegistryStore("db2", network))
        store.submit(WEATHER_TEXT)
        assert store.share_with_peers() == 1
        assert store.share_with_peers() == 0
        assert store.share_with_peers() == 0
        assert len(parses) == 2

    def test_grown_listing_is_parsed_again(self, network, parses):
        store = RegistryStore("db1", network, peers=("mem://db2",))
        peer = RegistryStore("db2", network)
        network.register("db2", peer)
        store.submit(WEATHER_TEXT)
        peer.submit(WEATHER_TEXT)
        assert store.share_with_peers() == 0 and len(parses) == 1
        peer.submit(TAXI_TEXT)
        store.submit(protocol_text(1))
        assert store.share_with_peers() == 1 and len(parses) == 2
        assert peer.hashes() >= store.hashes()

    def test_peer_replaced_by_an_empty_store_is_refilled(self, network):
        store = RegistryStore("db1", network, peers=("mem://db2",))
        network.register("db2", RegistryStore("db2", network))
        store.submit(WEATHER_TEXT)
        store.submit(TAXI_TEXT)
        assert store.share_with_peers() == 2
        assert store.share_with_peers() == 0
        network.register("db2", RegistryStore("db2", network))
        assert store.share_with_peers() == 2
        assert network.host("db2").hashes() == store.hashes()


class TestDiskStore:
    def test_reload_round_trip(self, tmp_path, network):
        root = str(tmp_path / "db")
        store = RegistryStore("db1", network, root=root)
        store.submit(WEATHER_TEXT)
        again = RegistryStore("db1", network, root=root)
        assert again.get(WEATHER_HASH).raw_text == WEATHER_TEXT

    def test_document_whose_file_fails_is_not_kept(self, tmp_path, network):
        root = tmp_path / "db"
        store = RegistryStore("db1", network, root=str(root))
        network.register("db1", store)
        client = RegistryClient(network, "mem://db1")
        # A file where the root directory was: no one can write under it.
        root.rmdir()
        root.write_text("")
        with pytest.raises(StatusError, match="500"):
            client.submit(WEATHER_TEXT)
        assert store.get(WEATHER_HASH) is None and len(store) == 0
        root.unlink()
        root.mkdir()
        assert client.submit(WEATHER_TEXT) == WEATHER_HASH
        assert RegistryStore("db1", network, root=str(root)).get(WEATHER_HASH) is not None

    def test_write_faulted_halfway_leaves_no_file(self, tmp_path, network,
                                                  monkeypatch, write_fails_halfway):
        root = str(tmp_path / "db")
        store = RegistryStore("db1", network, root=root)
        with pytest.raises(OSError, match="No space"):
            store.submit(WEATHER_TEXT)
        assert os.listdir(root) == []
        monkeypatch.undo()
        assert len(RegistryStore("db1", network, root=root)) == 0
        store.submit(WEATHER_TEXT)
        assert RegistryStore("db1", network, root=root).get(WEATHER_HASH) is not None

    def test_load_time_integrity_check_passes_clean(self, tmp_path, network):
        root = str(tmp_path / "db")
        RegistryStore("db1", network, root=root).submit(WEATHER_TEXT)
        RegistryStore("db1", network, root=root)   # loads without error

    def test_load_time_integrity_check_fails_on_corruption(self, tmp_path, network):
        root = str(tmp_path / "db")
        RegistryStore("db1", network, root=root).submit(WEATHER_TEXT)
        victim = os.path.join(root, f"{WEATHER_HASH}.pd")
        with open(victim, "w", encoding="utf-8") as fh:
            fh.write(WEATHER_TEXT.replace("22.5", "99.9"))
        with pytest.raises(RegistryIntegrityError):
            RegistryStore("db1", network, root=root)

    def test_non_utf8_file_is_an_integrity_failure(self, tmp_path, network):
        root = tmp_path / "db"
        root.mkdir()
        (root / f"{WEATHER_HASH}.pd").write_bytes(b"Name: \xff\xfe\n")
        with pytest.raises(RegistryIntegrityError, match="UTF-8"):
            RegistryStore("db1", network, root=str(root))


class TestWireSurface:
    def test_post_and_get(self, network):
        store = RegistryStore("db1", network)
        network.register("db1", store)
        client = RegistryClient(network, "mem://db1")
        assert client.submit(WEATHER_TEXT) == WEATHER_HASH
        text = network.call("GET", client.pd_url(WEATHER_HASH))
        assert verify_document(text, WEATHER_HASH).raw_text == WEATHER_TEXT

    def test_get_unknown_404(self, network):
        network.register("db1", RegistryStore("db1", network))
        client = RegistryClient(network, "mem://db1")
        with pytest.raises(StatusError, match="404"):
            network.call("GET", client.pd_url("0" * 40))

    def test_query_endpoint(self, network):
        store = RegistryStore("db1", network)
        network.register("db1", store)
        store.submit(WEATHER_TEXT)
        client = RegistryClient(network, "mem://db1")
        rows = client.query("weather")
        assert rows[0][0] == WEATHER_HASH

    @pytest.mark.parametrize("listing", [
        "not json", "{}", "[1]", '[{"name": "x"}]',
        '[{"hash": 1, "name": "x", "description": "y"}]',
        pytest.param(DEEP, id="deep")])
    def test_malformed_listing_is_a_value_error(self, network, listing):
        network.register("db1", _Answers(200, listing))
        with pytest.raises(ValueError):
            RegistryClient(network, "mem://db1").query()

    def test_share_endpoint(self, network):
        registries = chain(network)
        registries["db1"].submit(WEATHER_TEXT)
        assert network.call("POST", "mem://db1/share") == "1"

    def test_bad_digest_path_is_400(self, network):
        network.register("db1", RegistryStore("db1", network))
        status, _ = network.request("GET", "mem://db1/pd/nothex")
        assert status == 400
