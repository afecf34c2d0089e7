"""CLI subcommands, exit codes, and output determinism."""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from agentmesh.catalog import WEATHER_PD_TEXT
from agentmesh.cli import main
from agentmesh.documents import compute_hash
from agentmesh.gateway import DEFAULT_PRICES, CostLedger, parse_price_table
from agentmesh.registry import RegistryStore
from agentmesh.runtime import Agent, AgentConfig
from agentmesh.scripted import ScriptedBackend
from agentmesh.serve import HostServer
from agentmesh.simulator import ScenarioConfig, chain_config, run_scenario
from agentmesh.transport import Network

WEATHER_HASH = compute_hash(WEATHER_PD_TEXT)
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


class TestHashCommand:
    def test_digest_of_fixture(self, tmp_path, capsys):
        path = tmp_path / "weather.pd"
        path.write_text(WEATHER_PD_TEXT, encoding="utf-8", newline="")
        code, out, _ = run_cli("hash", str(path), capsys=capsys)
        assert code == 0
        assert out.strip() == WEATHER_HASH

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli("hash", str(tmp_path / "absent.pd"), capsys=capsys)
        assert code == 2
        assert err.strip()


@pytest.fixture
def pd_http_server():
    network = Network()
    registry = RegistryStore("db1", network)
    registry.submit(WEATHER_PD_TEXT)
    server = HostServer(registry)
    server.start_background()
    yield server
    server.shutdown()


class _TamperedHost:
    def handle_request(self, method, path, query, body, sender_id):
        return 200, "text/plain", WEATHER_PD_TEXT.replace("22.5", "99.9")


class TestFetchCommand:
    def test_fetch_verifies_and_writes(self, tmp_path, capsys, pd_http_server):
        out_path = tmp_path / "fetched.pd"
        code, out, _ = run_cli("fetch", WEATHER_HASH,
                               f"{pd_http_server.url}/pd/{WEATHER_HASH}",
                               "--out", str(out_path), capsys=capsys)
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == WEATHER_PD_TEXT

    def test_tampered_source_exit_4(self, tmp_path, capsys):
        server = HostServer(_TamperedHost())
        server.start_background()
        try:
            code, _, err = run_cli("fetch", WEATHER_HASH, f"{server.url}/pd/x",
                                   "--out", str(tmp_path / "x.pd"), capsys=capsys)
        finally:
            server.shutdown()
        assert code == 4
        assert "integrity" in err

    def test_cached_fetch_uses_no_network(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        (store / f"{WEATHER_HASH}.pd").write_text(WEATHER_PD_TEXT, encoding="utf-8",
                                                  newline="")
        # unreachable source: must not matter when the store already has it
        code, out, _ = run_cli("fetch", WEATHER_HASH, "http://127.0.0.1:1/pd/x",
                               "--store", str(store), capsys=capsys)
        assert code == 0
        assert out.strip().endswith(f"{WEATHER_HASH}.pd")

    def test_tampered_cache_is_fetched_again(self, tmp_path, capsys, pd_http_server):
        store = tmp_path / "store"
        store.mkdir()
        cached = store / f"{WEATHER_HASH}.pd"
        cached.write_text(WEATHER_PD_TEXT.replace("22.5", "99.9"), encoding="utf-8", newline="")
        out_path = tmp_path / "fetched.pd"
        code, out, err = run_cli("fetch", WEATHER_HASH,
                                 f"{pd_http_server.url}/pd/{WEATHER_HASH}",
                                 "--store", str(store), "--out", str(out_path), capsys=capsys)
        assert code == 0
        assert "cached copy rejected" in err
        assert out_path.read_text(encoding="utf-8") == WEATHER_PD_TEXT
        assert cached.read_text(encoding="utf-8") == WEATHER_PD_TEXT

    def test_tampered_cache_and_unreachable_source_exit_1(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        cached = store / f"{WEATHER_HASH}.pd"
        cached.write_bytes(b"\xff not utf-8")
        out_path = tmp_path / "fetched.pd"
        code, _, err = run_cli("fetch", WEATHER_HASH, "http://127.0.0.1:1/pd/x",
                               "--store", str(store), "--out", str(out_path), capsys=capsys)
        assert code == 1
        assert "fetch failed" in err
        assert not out_path.exists()
        assert cached.read_bytes() == b"\xff not utf-8"


class TestRunSim:
    def test_two_agent_summary_contains_break_even(self, capsys):
        code, out, _ = run_cli("run-sim", os.path.join(CONFIGS, "two_agent.json"),
                               capsys=capsys)
        assert code == 0
        assert "break_even_protocol_uses: 3" in out

    def test_two_agent_out_writes_json_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli("run-sim", os.path.join(CONFIGS, "two_agent.json"),
                             "--out", str(out_dir), capsys=capsys)
        assert code == 0
        summary = json.loads((out_dir / "summary.txt").read_text(encoding="utf-8"))
        assert summary["break_even_uses"] == 3
        assert summary["summary"]["total"] == summary["total_cost"]

    def test_paired_out_writes_both_modes(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"kind": "network", "name": "t", "seed": 3,
                                        "n_users": 4, "total_queries": 30}))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli("run-sim", str(scenario), "--mode", "paired",
                             "--out", str(out_dir), capsys=capsys)
        assert code == 0
        for mode in ("agora", "natural_language_only"):
            assert (out_dir / mode / "metrics.csv").exists(), mode
        assert "mode: natural_language_only" in \
            (out_dir / "natural_language_only" / "summary.txt").read_text()
        assert "cost_ratio_baseline_over_this:" in \
            (out_dir / "agora" / "summary.txt").read_text()

    def test_missing_scenario_exit_2(self, capsys):
        code, _, err = run_cli("run-sim", "no-such-file.json", capsys=capsys)
        assert code == 2

    def test_mode_counterfactual(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"kind": "network", "name": "t", "seed": 3,
                                        "n_users": 4, "total_queries": 30}))
        code, out, _ = run_cli("run-sim", str(scenario), "--mode",
                               "natural_language_only", capsys=capsys)
        assert code == 0
        assert "mode: natural_language_only" in out
        assert "distinct_pds: 0" in out

    def test_same_seed_identical_csv(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"kind": "network", "name": "t", "seed": 5,
                                        "n_users": 4, "total_queries": 30}))
        csvs = []
        for run_dir in ("a", "b"):
            out_dir = tmp_path / run_dir
            code, _, _ = run_cli("run-sim", str(scenario), "--out", str(out_dir),
                                 capsys=capsys)
            assert code == 0
            csvs.append((out_dir / "metrics.csv").read_text())
        assert csvs[0] == csvs[1]

    def test_paired_mode_prints_ratio(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"kind": "network", "name": "t", "seed": 3,
                                        "n_users": 4, "total_queries": 40}))
        code, out, _ = run_cli("run-sim", str(scenario), "--mode", "paired",
                               capsys=capsys)
        assert code == 0
        assert "cost_ratio:" in out

    def test_chain_takes_mode(self, capsys):
        chain = os.path.join(CONFIGS, "chain.json")
        code, out, _ = run_cli("run-sim", chain, "--mode", "natural_language_only",
                               capsys=capsys)
        assert code == 0
        assert "mode: natural_language_only" in out
        assert "distinct_pds: 0" in out
        code, out, _ = run_cli("run-sim", chain, "--mode", "paired", capsys=capsys)
        assert code == 0
        assert "mode: agora" in out
        assert "cost_ratio:" in out

    def test_chain_file_takes_the_chain_defaults_and_the_seed_flag(self, tmp_path, capsys):
        scenario = tmp_path / "chain.json"
        scenario.write_text(json.dumps({"kind": "chain", "orders": 9}))
        for flags, config in (((), chain_config()), (("--seed", "3"), chain_config(seed=3))):
            code, out, _ = run_cli("run-sim", str(scenario), *flags, capsys=capsys)
            assert code == 0
            assert f"total_cost_usd: {run_scenario(config).total_cost:.6f}\n" in out

    def test_summary_counts_failed_queries(self, tmp_path, capsys):
        raw = {"kind": "network", "name": "t", "seed": 3, "n_users": 4,
               "total_queries": 40, "failure_rate": 0.3}
        failed = sum(r.status != "success"
                     for r in run_scenario(ScenarioConfig.from_dict(raw)).records)
        assert failed > 0
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli("run-sim", str(scenario), "--out", str(out_dir), capsys=capsys)
        assert code == 0
        assert f"failed_queries: {failed}\n" in out
        assert f"failed_queries: {failed}\n" in (out_dir / "summary.txt").read_text()

    def test_bad_scenario_value_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        for raw in ({"kind": "network", "nonsense_key": 1},
                    {"kind": "chain", "orders": "many"},
                    {"kind": "chain", "order": 3},
                    {"kind": "chain", "orders": 0},
                    {"kind": "two_agent", "protocol_uses": "ten"},
                    {"kind": "two_agent", "nl_exchanges": -1},
                    {"kind": "two_agent", "calibrated": "no"},
                    {"kind": "two_agent", "seed": 3},
                    {"kind": "chian"},
                    {"kind": ["network"]},
                    {"kind": "network", "n_users": "four"},
                    {"kind": "network", "total_queries": -1},
                    {"kind": "network", "server_replicas": 0},
                    {"kind": "network", "share_period": 2.5},
                    {"kind": "network", "transport": "htp"},
                    {"kind": "network", "failure_rate": 1.5},
                    {"kind": "network", "failure_rate": "low"},
                    {"kind": "network", "n_users": 3, "total_queries": 2},
                    {"kind": "network", "task_filter": ["nope"]},
                    {"kind": "network", "registry_peers": {"db1": ["db9"]}},
                    {"kind": "network", "registry_peers": ["db1"]},
                    {"kind": "network", "registry_peers": {}},
                    {"kind": "network", "thresholds": {"server_negotiate_after": "x"}},
                    {"kind": "network", "prices": {"gpt-4o": {"prompt_per_million": 1.0}}},
                    {"kind": "network", "mode": "bogus"},
                    {"kind": "network", "mode": "paired"}):
            scenario.write_text(json.dumps(raw))
            code, _, err = run_cli("run-sim", str(scenario), capsys=capsys)
            assert code == 2, raw
            assert "bad scenario config" in err, raw


class TestReportCommand:
    def test_report_from_csv(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"kind": "network", "name": "t", "seed": 3,
                                        "n_users": 4, "total_queries": 30}))
        out_dir = tmp_path / "out"
        run_cli("run-sim", str(scenario), "--out", str(out_dir), capsys=capsys)
        code, out, _ = run_cli("report", str(out_dir / "metrics.csv"), capsys=capsys)
        assert code == 0
        assert "queries: 30" in out

    def test_missing_csv_exit_2(self, capsys):
        code, _, _ = run_cli("report", "absent.csv", capsys=capsys)
        assert code == 2


class TestServeCommands:
    def test_serve_agent_missing_config_exit_2(self, capsys):
        code, _, err = run_cli("serve-agent", "no-such-config.json", capsys=capsys)
        assert code == 2

    def test_serve_agent_unknown_key_exit_2(self, tmp_path, capsys, monkeypatch):
        not_a_dir = tmp_path / "not-a-dir"
        not_a_dir.write_text("", encoding="utf-8")
        ghost_tool = {"name": "ext", "kind": "external", "task_type": "weather", "peer": "ghost"}
        cases = (
            ("registry_ur", "http://127.0.0.1:8800", "registry_ur"),
            ("tools", [ghost_tool], "ghost"),                               # unknown peer
            ("tools", [{"name": "barometer", "kind": "database"}], "barometer"),
            ("pd_store", str(not_a_dir), "not-a-dir"),
            ("registry_url", 5, "registry_url"),
            ("pd_store", ["store"], "pd_store"),
            ("agent_id", 7, "agent_id"),
            ("model_id", "gpt-5-unpriced", "gpt-5-unpriced"),
            ("known_peers", {"bob": 5}, "known_peers"),
            ("known_peers", [["bob", "http://127.0.0.1:8801"]], "known_peers"),
        )
        monkeypatch.setattr(HostServer, "serve_forever",
                            lambda self: pytest.fail("served a bad config"))
        for key, value, named in cases:
            with open(os.path.join(CONFIGS, "agent_weather.json"), encoding="utf-8") as fh:
                raw = json.load(fh)
            raw[key] = value
            path = tmp_path / "agent.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            code, _, err = run_cli("serve-agent", str(path), "--port", "0", capsys=capsys)
            assert code == 2, named
            assert "bad agent config" in err and named in err

    def test_serve_agent_port_in_use_exit_3(self, tmp_path, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code, _, err = run_cli(
                "serve-agent", os.path.join(CONFIGS, "agent_weather.json"),
                "--port", str(port), capsys=capsys)
        finally:
            blocker.close()
        assert code == 3
        assert "bind" in err

    def test_serve_registry_corrupt_store_exit_4(self, tmp_path, capsys):
        for name, content in (("mismatch", b"wrong bytes"), ("non-utf8", b"Name: \xff\xfe\n")):
            root = tmp_path / name
            root.mkdir()
            (root / f"{WEATHER_HASH}.pd").write_bytes(content)
            code, _, err = run_cli("serve-registry", str(root), capsys=capsys)
            assert code == 4, name
            assert "integrity failure" in err, name

    def test_serve_agent_endpoint_live(self, tmp_path):
        """End to end through the console entry: wellknown answers."""
        port = _free_port()
        with _serve_agent(port, tmp_path) as proc:
            try:
                wk = _wellknown(port)
                assert wk is not None and wk.status_code == 200
                assert isinstance(wk.json(), dict)
            finally:
                # Ctrl-C: the blocked accept loop ends and the port is released.
                proc.send_signal(signal.SIGINT)
                try:
                    _, err = proc.communicate(timeout=10)
                except subprocess.TimeoutExpired:
                    pytest.fail("serve-agent did not exit within 10 s of SIGINT; "
                                f"its threads:\n{_stack_dump(proc)}")
        assert proc.returncode == 0, err

    @pytest.mark.skipif(not hasattr(signal, "SIGQUIT"), reason="the platform has no SIGQUIT")
    def test_serve_agent_dumps_its_threads_on_sigquit(self, tmp_path):
        port = _free_port()
        with _serve_agent(port, tmp_path) as proc:
            try:
                assert _wellknown(port) is not None
            finally:
                dump = _stack_dump(proc)
        assert proc.returncode == -signal.SIGQUIT, dump
        assert "thread 0x" in dump and 'File "' in dump and "serve_forever" in dump


def _serve_agent(port: int, cwd) -> subprocess.Popen:
    """``serve-agent`` with the weather config on *port*, run from *cwd* so
    that a core file its SIGQUIT may leave lands there."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.Popen(
        [sys.executable, "-m", "agentmesh.cli", "serve-agent",
         os.path.abspath(os.path.join(CONFIGS, "agent_weather.json")), "--port", str(port)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)


def _wellknown(port: int):
    """The server's ``/.wellknown`` answer, or None if it never answered."""
    import requests
    for _ in range(50):
        try:
            return requests.get(f"http://127.0.0.1:{port}/.wellknown", timeout=1)
        except requests.RequestException:
            time.sleep(0.1)
    return None


def _stack_dump(proc: subprocess.Popen) -> str:
    """Send SIGQUIT, which ``serve-agent`` answers by writing every thread's
    stack to stderr; return what stderr gave within 5 s, then end *proc*."""
    proc.send_signal(signal.SIGQUIT)
    try:
        _, err = proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    return err.decode("utf-8", "replace")


def _load_agent_config(path):
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    config = AgentConfig.from_dict(raw)
    Agent(config, ScriptedBackend(), CostLedger(), Network())


def _load_price_table(path):
    with open(path, encoding="utf-8") as fh:
        assert parse_price_table(json.load(fh)) == DEFAULT_PRICES


def _run_scenario_file(path):
    assert main(["run-sim", path]) == 0


CONFIG_READERS = {
    "agent_weather.json": _load_agent_config,
    "prices.json": _load_price_table,
    "chain.json": _run_scenario_file,
    "desk_scale.json": _run_scenario_file,
    "network_100.json": _run_scenario_file,
    "two_agent.json": _run_scenario_file,
}


def test_every_shipped_config_loads(capsys):
    """Each file under configs/ goes through the code that reads it."""
    names = sorted(os.listdir(CONFIGS))
    assert [name for name in names if name not in CONFIG_READERS] == []
    for name in names:
        CONFIG_READERS[name](os.path.join(CONFIGS, name))
    assert "failed_queries: 0" in capsys.readouterr().out


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
