"""Operator entry points.

Subcommands: serve-agent, serve-registry, run-sim, hash, fetch, report.
Machine-readable output goes to stdout, diagnostics to stderr. Exit codes:
0 success, 2 configuration problems, 3 port binding failures, 4 integrity
failures, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import faulthandler
import json
import os
import signal
import sys
from dataclasses import asdict, replace

from .documents import (DocumentError, TamperError, compute_hash, document_filename,
                        load_document, normalize_hash, save_document,
                        verify_document)
from .gateway import CostLedger, DEFAULT_PRICES, LiveChatBackend, parse_price_table
from .registry import RegistryIntegrityError, RegistryStore
from .runtime import Agent, AgentConfig
from .scripted import ScriptedBackend
from .serve import HostServer
from .simulator import (MODES, ScenarioConfig, chain_config, emit_report,
                        load_scenario_file, run_paired, run_scenario,
                        run_two_agent_demo, window_average)
from .transport import Network

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_BIND = 3
EXIT_INTEGRITY = 4


def _err(message: str) -> None:
    print(message, file=sys.stderr)


# ── hash / fetch ─────────────────────────────────────────────────────

def cmd_hash(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        _err(f"cannot read {args.file}: {exc}")
        return EXIT_CONFIG
    print(compute_hash(text))
    return EXIT_OK


def _fetch_verified(digest: str, store: str | None, source: str):
    """The document *digest* names, from *store* when a copy there verifies,
    else from *source*, filling the store. Returns ``(document, path in the
    store or None)``; raises TransportError, or DocumentError on bad bytes."""
    cached = os.path.join(store, document_filename(digest)) if store else None
    if cached and os.path.exists(cached):
        try:
            return load_document(cached), cached
        except (DocumentError, OSError) as exc:
            _err(f"cached copy rejected, fetching from the source: {exc}")
    network = Network()
    try:
        doc = verify_document(network.call("GET", source), digest)
    finally:
        network.close()
    if store:
        save_document(doc, store)
    return doc, cached


def cmd_fetch(args) -> int:
    try:
        digest = normalize_hash(args.hash)
    except DocumentError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    try:
        doc, cached = _fetch_verified(digest, args.store, args.source)
    except TamperError as exc:
        _err(f"integrity failure: {exc}")
        return EXIT_INTEGRITY
    except DocumentError as exc:
        _err(str(exc))
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001
        _err(f"fetch failed: {exc}")
        return EXIT_OTHER
    out = args.out or cached or document_filename(digest)
    if out != cached:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(doc.raw_text)
    print(out)
    return EXIT_OK


# ── serving ──────────────────────────────────────────────────────────

def _build_backend(raw: dict, model_id: str):
    kind = raw.get("backend", "scripted")
    if kind == "scripted":
        return ScriptedBackend()
    if kind == "live":
        endpoint = os.environ.get("AGENTMESH_LLM_URL")
        api_key = os.environ.get("AGENTMESH_LLM_KEY", "")
        if not endpoint:
            raise ValueError("live backend needs AGENTMESH_LLM_URL in the environment")
        return LiveChatBackend(endpoint, api_key, model_id)
    raise ValueError(f"unknown backend kind: {kind}")


def _serve(host, args, label: str) -> int:
    """Bind *host* to ``args.port`` on ``args.bind`` and serve it until
    Ctrl-C. Where the platform has SIGQUIT, it prints every thread's stack
    to stderr before its default action ends the process, so that a server
    that does not stop shows where it is stuck."""
    try:
        server = HostServer(host, port=args.port, bind=args.bind, quiet=False)
    except OSError as exc:
        _err(f"cannot bind port {args.port}: {exc}")
        return EXIT_BIND
    if hasattr(signal, "SIGQUIT"):
        faulthandler.register(signal.SIGQUIT, all_threads=True, chain=True)
    print(f"serving {label} on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return EXIT_OK


def cmd_serve_agent(args) -> int:
    prices = dict(DEFAULT_PRICES)
    if args.prices:
        try:
            with open(args.prices, "r", encoding="utf-8") as fh:
                prices = parse_price_table(json.load(fh))
        except (OSError, ValueError) as exc:
            _err(f"bad price table: {exc}")
            return EXIT_CONFIG

    # Building the agent checks its tools, peers and document store too.
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        config = AgentConfig.from_dict(raw)
        if config.model_id not in prices:
            raise ValueError(f"model_id has no price: {config.model_id!r}")
        backend = _build_backend(raw, config.model_id)
        agent = Agent(config, backend, CostLedger(prices), Network())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _err(f"bad agent config: {exc}")
        return EXIT_CONFIG
    return _serve(agent, args, f"agent {config.agent_id}")


def cmd_serve_registry(args) -> int:
    network = Network()
    peers = tuple(p for p in (args.peers.split(",") if args.peers else []) if p)
    try:
        registry = RegistryStore(args.id, network, peers=peers, root=args.root)
    except RegistryIntegrityError as exc:
        _err(f"integrity failure: {exc}")
        return EXIT_INTEGRITY
    except OSError as exc:
        _err(f"bad registry root: {exc}")
        return EXIT_CONFIG
    return _serve(registry, args, f"registry {args.id} ({len(registry)} documents)")


# ── simulation ───────────────────────────────────────────────────────

def _print_scenario(result, baseline=None) -> None:
    print(f"mode: {result.config.mode}")
    print(f"queries: {len(result.records)}")
    print(f"failed_queries: {result.failed_queries}")
    print(f"total_cost_usd: {result.total_cost:.6f}")
    print(f"model_invocations: {result.model_invocations}")
    print(f"distinct_pds: {result.final_pd_count}")
    if baseline is not None and result.total_cost > 0:
        print(f"baseline_total_cost_usd: {baseline.total_cost:.6f}")
        print(f"cost_ratio: {baseline.total_cost / result.total_cost:.3f}")


def cmd_run_sim(args) -> int:
    try:
        kind, params = load_scenario_file(args.scenario)
        if kind == "chain":
            config = chain_config(**params)
        elif kind == "network":
            config = ScenarioConfig.from_dict(params)
    except OSError as exc:
        _err(f"bad scenario file: {exc}")
        return EXIT_CONFIG
    except (TypeError, ValueError) as exc:
        _err(f"bad scenario config: {exc}")
        return EXIT_CONFIG

    if kind == "two_agent":
        report = run_two_agent_demo(**params)
        print(f"nl_exchanges: {report.nl_exchanges}")
        print(f"protocol_uses: {report.protocol_uses}")
        print(f"nl_cost_per_exchange_usd: {report.nl_cost_per_exchange:.6f}")
        print(f"setup_cost_usd: {report.setup_cost:.6f}")
        print(f"break_even_protocol_uses: {report.break_even_uses}")
        print(f"total_cost_usd: {report.total_cost:.6f}")
        print(f"nl_equivalent_cost_usd: {report.nl_equivalent_cost:.6f}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(asdict(report), indent=2) + "\n")
        return EXIT_OK

    if args.seed is not None:
        config = replace(config, seed=args.seed)
    mode = args.mode or config.mode
    if mode == "paired":
        agora, nl_only = run_paired(config)
        _print_scenario(agora, baseline=nl_only)
        if args.out:
            emit_report(agora, os.path.join(args.out, "agora"), baseline=nl_only)
            emit_report(nl_only, os.path.join(args.out, "natural_language_only"))
        return EXIT_OK

    result = run_scenario(replace(config, mode=mode))
    _print_scenario(result)
    if args.out:
        emit_report(result, args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.metrics, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        _err(f"cannot read {args.metrics}: {exc}")
        return EXIT_CONFIG
    if not rows:
        print("queries: 0")
        return EXIT_OK
    costs = [float(row["cost"]) for row in rows]
    print(f"queries: {len(rows)}")
    print(f"total_cost_usd: {float(rows[-1]['cumulative_cost']):.6f}")
    print(f"model_invocations: {sum(int(row['model_invocations']) for row in rows)}")
    print(f"distinct_pds: {rows[-1]['pd_count']}")
    averaged = window_average(costs)
    print(f"window_average_cost_final: {averaged[-1]:.8f}")
    return EXIT_OK


# ── entry point ──────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agentmesh",
                                     description="Agents, registries, and simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hash", help="print the digest of a protocol document file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_hash)

    p = sub.add_parser("fetch", help="download and verify a protocol document")
    p.add_argument("hash")
    p.add_argument("source")
    p.add_argument("--out", default=None)
    p.add_argument("--store", default=None, help="local document directory (cache)")
    p.set_defaults(fn=cmd_fetch)

    p = sub.add_parser("serve-agent", help="host an agent endpoint")
    p.add_argument("config")
    p.add_argument("--port", type=int, default=8700)
    p.add_argument("--bind", default="127.0.0.1")
    p.add_argument("--prices", default=None)
    p.set_defaults(fn=cmd_serve_agent)

    p = sub.add_parser("serve-registry", help="host a protocol database")
    p.add_argument("root", nargs="?", default=None)
    p.add_argument("--id", default="db1")
    p.add_argument("--port", type=int, default=8800)
    p.add_argument("--bind", default="127.0.0.1")
    p.add_argument("--peers", default=None, help="comma-separated peer base URLs")
    p.set_defaults(fn=cmd_serve_registry)

    p = sub.add_parser("run-sim", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--mode", default=None, choices=[*MODES, "paired"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run_sim)

    p = sub.add_parser("report", help="summarize a metrics.csv")
    p.add_argument("metrics")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - one-line diagnostic, nonzero exit
        _err(f"error: {exc}")
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
