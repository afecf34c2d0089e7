"""Protocol database: hash-addressed document storage with peer sharing.

A registry stores protocol documents under their digests, answers metadata
queries, and periodically pushes its documents to peer registries (the
simulator triggers a share round every ``ScenarioConfig.share_period``
executed queries). A share round is digest-diff anti-entropy (Demers et al.,
"Epidemic Algorithms for Replicated Database Maintenance", PODC 1987): it
lists what each peer holds and posts only the documents that peer lacks.
Content addressing makes replication conflict-free: re-submitting identical
bytes is a no-op, and receivers re-derive the digest themselves, so a
tampered copy can never be stored under the original hash.

Wire surface (implementation-defined, documented in the README):
  POST /pd          raw document text -> digest
  GET  /pd/<hash>   raw document text, 404 when unknown
  GET  /pd?query=kw JSON list of {hash, name, description}
  POST /share       push to each peer what it lacks -> count transmitted
"""

from __future__ import annotations

import glob
import json
import logging
import os
import threading
from urllib.parse import quote

from .documents import (DocumentError, ProtocolDocument, is_valid_hash,
                        load_document, parse_document, save_document)
from .transport import PLAIN_TEXT, Network, StatusError, TransportError

logger = logging.getLogger(__name__)

_ROW_KEYS = ("hash", "name", "description")


class RegistryIntegrityError(Exception):
    """A stored file does not hash to its filename."""


class RegistryStore:
    """One protocol database, optionally disk-backed; *network* reaches its
    peers."""

    def __init__(self, registry_id: str, network: Network,
                 peers: tuple[str, ...] = (), root: str | None = None):
        self.registry_id = registry_id
        self.network = network
        self.peers = tuple(peers)
        self.root = root
        self._documents: dict[str, ProtocolDocument] = {}
        # The sorted (hash, name, description) rows and the JSON text of the
        # full listing, rebuilt on the first read after a submit changed
        # the set; both are built and stored under _lock.
        self._listing: tuple[tuple[tuple[str, str, str], ...], str] | None = None
        # Per peer, the last listing text parsed and the digests in it.
        self._peer_listings: dict[str, tuple[str, frozenset[str]]] = {}
        self._lock = threading.Lock()
        if root:
            self._load()

    def _load(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        for path in sorted(glob.glob(os.path.join(self.root, "*.pd"))):
            try:
                doc = load_document(path)
            except DocumentError as exc:
                raise RegistryIntegrityError(f"{path}: {exc}") from exc
            self._documents[doc.hash] = doc

    # -- operations -----------------------------------------------------

    def submit(self, text: str) -> str:
        """Store *text* under its computed digest; idempotent."""
        doc = parse_document(text)
        digest = doc.hash
        with self._lock:
            if digest not in self._documents:
                # On disk first: a document whose file could not be written
                # is not kept, so a resubmission tries the write again.
                if self.root:
                    save_document(doc, self.root)
                self._documents[digest] = doc
                self._listing = None
        return digest

    def get(self, digest: str) -> ProtocolDocument | None:
        with self._lock:
            return self._documents.get(digest.lower())

    def _kept_listing(self) -> tuple[tuple[tuple[str, str, str], ...], str]:
        """The sorted rows of every document and the JSON text of them."""
        with self._lock:
            if self._listing is None:
                rows = tuple((digest, doc.name, doc.description)
                             for digest, doc in sorted(self._documents.items()))
                self._listing = rows, json.dumps(
                    [dict(zip(_ROW_KEYS, row)) for row in rows])
            return self._listing

    def query(self, keyword: str = "") -> list[tuple[str, str, str]]:
        """Entries whose metadata name/description contain *keyword*
        (case-insensitive); empty keyword lists everything."""
        needle = keyword.lower()
        rows, _ = self._kept_listing()
        return [row for row in rows
                if not needle or needle in f"{row[1]} {row[2]}".lower()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    def hashes(self) -> set[str]:
        with self._lock:
            return set(self._documents)

    def share_with_peers(self) -> int:
        """Push to each peer the stored documents its listing lacks; returns
        the number of documents transmitted. A peer whose listing fails is
        skipped. A document the peer refuses (any answer but 200) is skipped,
        and the rest of a peer's share once a post cannot reach it."""
        rows, _ = self._kept_listing()
        transmitted = 0
        for peer in self.peers:
            client = RegistryClient(self.network, peer)
            try:
                held = self._held_by(peer, client.listing())
            except (TransportError, ValueError) as exc:
                logger.warning("registry %s: no listing from peer %s (%s)",
                               self.registry_id, peer, exc)
                continue
            for digest, _, _ in rows:
                if digest in held:
                    continue
                try:
                    client.submit(self.get(digest).raw_text)
                except StatusError as exc:
                    logger.warning("registry %s: peer %s refused %.8s (%s)",
                                   self.registry_id, peer, digest, exc)
                    continue
                except TransportError as exc:
                    logger.warning("registry %s: peer %s unreachable (%s)",
                                   self.registry_id, peer, exc)
                    break
                transmitted += 1
        return transmitted

    def _held_by(self, peer: str, text: str) -> frozenset[str]:
        """The digests in *peer*'s listing *text*; parsed only when it
        differs from the text parsed last time (a peer's listing changes
        only when it gains a document, or restarts)."""
        last = self._peer_listings.get(peer)
        if last is not None and last[0] == text:
            return last[1]
        held = frozenset(digest for digest, _, _ in parse_listing(text, peer))
        self._peer_listings[peer] = text, held
        return held

    # -- wire host --------------------------------------------------------

    def handle_request(self, method: str, path: str, query: dict[str, str],
                       body: str, sender_id: str | None) -> tuple[int, str, str]:
        if method == "POST" and path == "/pd":
            try:
                return 200, PLAIN_TEXT, self.submit(body)
            except DocumentError as exc:
                return 400, PLAIN_TEXT, str(exc)
        if method == "GET" and path.startswith("/pd/"):
            digest = path[len("/pd/"):]
            if not is_valid_hash(digest):
                return 400, PLAIN_TEXT, f"bad digest: {digest}"
            doc = self.get(digest)
            if doc is None:
                return 404, PLAIN_TEXT, "not found"
            return 200, PLAIN_TEXT, doc.raw_text
        if method == "GET" and path == "/pd":
            keyword = query.get("query", "")
            if not keyword:
                return 200, "application/json", self._kept_listing()[1]
            rows = [dict(zip(_ROW_KEYS, row)) for row in self.query(keyword)]
            return 200, "application/json", json.dumps(rows)
        if method == "POST" and path == "/share":
            return 200, PLAIN_TEXT, str(self.share_with_peers())
        return 404, PLAIN_TEXT, "not found"


class RegistryClient:
    """Talk to a registry over the network (mem:// or http://)."""

    def __init__(self, network: Network, base_url: str):
        self.network = network
        self.base_url = base_url.rstrip("/")

    def pd_url(self, digest: str) -> str:
        return f"{self.base_url}/pd/{digest}"

    def submit(self, text: str) -> str:
        return self.network.call("POST", f"{self.base_url}/pd", text)

    def listing(self, keyword: str = "") -> str:
        """The registry's answer to ``GET /pd``, as text."""
        url = f"{self.base_url}/pd"
        if keyword:
            url += f"?query={quote(keyword, safe='')}"
        return self.network.call("GET", url)

    def query(self, keyword: str = "") -> list[tuple[str, str, str]]:
        """The listing as (hash, name, description) rows; see
        ``parse_listing``."""
        return parse_listing(self.listing(keyword), self.base_url)


def parse_listing(text: str, source: str) -> list[tuple[str, str, str]]:
    """The (hash, name, description) rows of a registry listing. Raises
    ValueError for text that is not a JSON array of objects with string
    ``hash``, ``name`` and ``description``; *source* names the registry in
    the message."""
    try:
        rows = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"listing from {source} is nested too deeply") from exc
    if not isinstance(rows, list) or not all(
            isinstance(row, dict) and all(isinstance(row.get(key), str) for key in _ROW_KEYS)
            for row in rows):
        raise ValueError(f"malformed listing from {source}")
    return [(row["hash"], row["name"], row["description"]) for row in rows]
