"""Span recorder for the traced round, installed from outside the program.

Every public function and method of the package's layer modules is replaced
by a wrapper that records a span: id, parent id, name, start, end and
whether it raised. Each thread keeps its own stack of open spans. Over HTTP
the client wrapper sends its span id in a request header and the server-side
handler takes it as the parent, so a server span is a child of the client
request that caused it. Spans stay in memory and are written out at the end.

A span's self time is its duration minus the part of it that its children
cover. The layer metrics are derived from the spans and from a few counters
read off arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

import requests
import urllib3.connection

from agentmesh import catalog, serve

LAYERS = ("transport", "serve", "envelope", "documents", "routines", "runtime",
          "gateway", "scripted", "registry", "catalog", "workload", "simulator")
SPAN_HEADER = "X-Perfbench-Span"


class Recorder:
    """Spans are packed six doubles to a row in one array, so that recording
    hundreds of thousands of them allocates no Python object per span and
    leaves the program's heap as it was. One ``extend`` per span keeps rows
    whole when server threads record. The counters take no lock: in a closed
    loop only one thread runs the program at a time, the others wait on it."""

    FIELDS = ("id", "parent", "name", "start", "end", "ok")

    def __init__(self):
        self.rows = array("d")
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(self, name: str, fn, hook=None, parent_of=None):
        """*hook(args, kwargs, result)* runs after a successful call;
        *parent_of(args)* gives the parent span id (0 for none)."""
        rows, ids, stack_of, clock = self.rows, self._ids, self._stack, time.perf_counter
        name_index = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = parent_of(args) if parent_of else (stack[-1] if stack else 0)
            span_id = next(ids)
            stack.append(span_id)
            ok = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = 1
            finally:
                end = clock()
                stack.pop()
                rows.extend((span_id, parent, name_index, start, end, ok))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def freeze(self) -> None:
        """Stop recording (later calls, such as the checks, add nothing) and
        unpack the spans into (id, parent, name, start, end, ok) tuples."""
        rows, names = self.rows[:], self.names
        self.counters = Counter(self.counters)
        self.spans = [(int(rows[i]), int(rows[i + 1]), names[int(rows[i + 2])],
                       rows[i + 3], rows[i + 4], bool(rows[i + 5]))
                      for i in range(0, len(rows), 6)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.FIELDS) + "\n")
            for span_id, parent, name, start, end, ok in self.spans:
                fh.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f},{int(ok)}\n")


def _public_callables(module):
    """(owner, attribute, raw object, qualified name) for each public
    function, method, property, classmethod and staticmethod that *module*
    defines."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, name
        elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
              and not getattr(obj, "_is_protocol", False)):
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (property, classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield obj, attr, raw, f"{name}.{attr}"


def _wrapped(recorder, raw, name, hook):
    if isinstance(raw, property):
        return property(recorder.wrap(name, raw.fget, hook), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, classmethod):
        return classmethod(recorder.wrap(name, raw.__func__, hook))
    if isinstance(raw, staticmethod):
        return staticmethod(recorder.wrap(name, raw.__func__, hook))
    return recorder.wrap(name, raw, hook)


def _hooks(recorder: Recorder) -> dict:
    c = recorder.counters

    def network_request(args, kwargs, result):
        _network, method, url, *rest = args
        body = rest[0] if rest else kwargs.get("body", "")
        c["transport.bytes_out"] += len(body.encode("utf-8"))
        c["transport.bytes_in"] += len(result[1].encode("utf-8"))
        if url.startswith("mem://"):
            c["transport.attempts"] += 1

    def send_task(args, kwargs, result):
        c[f"runtime.path.{result[1]}"] += 1

    def ledger_total(args, kwargs, result):
        c["gateway.records_scanned"] += len(args[0])

    def share(args, kwargs, result):
        c["registry.share_transmitted"] += result

    return {
        "transport.Network.request": network_request,
        "runtime.Agent.send_task": send_task,
        "gateway.CostLedger.total": ledger_total,
        "registry.RegistryStore.share_with_peers": share,
    }


def install(recorder: Recorder) -> None:
    """Wrap every layer module's public callables, in every module that
    holds a reference to them, plus the HTTP client and server edges."""
    modules = [importlib.import_module(f"agentmesh.{layer}") for layer in LAYERS]
    hooks = _hooks(recorder)
    replaced = {}
    for layer, module in zip(LAYERS, modules):
        for owner, attr, raw, qualname in list(_public_callables(module)):
            name = f"{layer}.{qualname}"
            wrapped = _wrapped(recorder, raw, name, hooks.get(name))
            setattr(owner, attr, wrapped)
            if owner is module:
                replaced[id(raw)] = (raw, wrapped)
    # `from .x import f` binds f in the importer too; re-point those names
    # and the tool table the simulator copies from.
    package_modules = [m for n, m in sys.modules.items() if n.startswith("agentmesh.")]
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    for tool, fn in catalog.MOCK_TOOLS.items():
        catalog.MOCK_TOOLS[tool] = replaced[id(fn)][1]
    _install_http(recorder)


def _install_http(recorder: Recorder) -> None:
    c = recorder.counters
    send = requests.request

    def wire_call(method, url, **kwargs):
        c["transport.attempts"] += 1
        # Runs inside the wire span, so the server takes it as its parent.
        kwargs["headers"] = {**(kwargs.get("headers") or {}), SPAN_HEADER: str(recorder.current())}
        return send(method, url, **kwargs)

    requests.request = recorder.wrap("transport.wire", wire_call)

    connect = urllib3.connection.HTTPConnection.connect

    def counted_connect(self):
        c["transport.connections_opened"] += 1
        return connect(self)

    urllib3.connection.HTTPConnection.connect = counted_connect

    make_handler = serve._make_handler

    def traced_make_handler(host, quiet):
        base = make_handler(host, quiet)

        def parent_of(args):
            value = args[0].headers.get(SPAN_HEADER)
            return int(value) if value and value.isdigit() else 0

        class Handler(base):
            _serve = recorder.wrap("serve.handle", base._serve, parent_of=parent_of)

        return Handler

    serve._make_handler = traced_make_handler


# ── layer metrics ────────────────────────────────────────────────────

def _p50_us(values) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def layer_metrics(recorder: Recorder) -> dict[str, tuple[float, str]]:
    spans = recorder.spans
    children = defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append(span)

    self_by_layer = Counter()
    inclusive = defaultdict(list)
    failures = Counter()
    by_id = {}
    for span in spans:
        span_id, _parent, name, start, end, ok = span
        by_id[span_id] = span
        covered = 0.0
        reach = start
        for _c, _p, _n, c_start, c_end, _ok in sorted(children.get(span_id, ()), key=lambda s: s[3]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        self_by_layer[name.split(".", 1)[0]] += (end - start) - covered
        inclusive[name].append(end - start)
        if not ok:
            failures[name] += 1

    def count(name):
        return len(inclusive[name])

    def total(name):
        return sum(inclusive[name])

    # Client round trip minus the time the server's host spent on it.
    overheads = []
    for span in spans:
        if span[2] != "serve.handle" or span[1] not in by_id:
            continue
        client = by_id[span[1]]
        hosts = children.get(span[0], ())
        if client[2] == "transport.wire" and hosts:
            overheads.append((client[4] - client[3]) - (hosts[0][4] - hosts[0][3]))

    c = recorder.counters
    envelope_calls = sum(len(v) for k, v in inclusive.items() if k.startswith("envelope."))
    tool_calls = sum(len(inclusive[f"catalog.{tool}"]) for tool in catalog.MOCK_TOOLS)
    paths = ("protocol", "natural_language", "check_existing", "negotiate")
    return {
        "transport.requests": (count("transport.Network.request"), "count"),
        "transport.busy_s": (self_by_layer["transport"], "s"),
        "transport.request_p50_us": (_p50_us(inclusive["transport.Network.request"]), "us"),
        "transport.attempts": (c["transport.attempts"], "count"),
        "transport.connections_opened": (c["transport.connections_opened"], "count"),
        "transport.bytes_out": (c["transport.bytes_out"], "bytes"),
        "transport.bytes_in": (c["transport.bytes_in"], "bytes"),
        "serve.handled": (count("serve.handle"), "count"),
        "serve.overhead_p50_us": (_p50_us(overheads), "us"),
        "serve.shutdown_s": (total("serve.HostServer.shutdown"), "s"),
        "envelope.calls": (envelope_calls, "count"),
        "envelope.busy_s": (self_by_layer["envelope"], "s"),
        "documents.parses": (count("documents.parse_document"), "count"),
        "documents.hash_computations": (count("documents.compute_hash"), "count"),
        "documents.busy_s": (self_by_layer["documents"], "s"),
        "routines.executions": (count("routines.execute_routine"), "count"),
        "routines.failures": (failures["routines.execute_routine"], "count"),
        "routines.busy_s": (self_by_layer["routines"], "s"),
        "routines.execute_p50_us": (_p50_us(inclusive["routines.execute_routine"]), "us"),
        **{f"runtime.path.{p}": (c[f"runtime.path.{p}"], "count") for p in paths},
        "runtime.negotiations": (count("runtime.Agent.negotiate"), "count"),
        "runtime.syntheses": (count("runtime.Agent.synthesize_routine"), "count"),
        "runtime.suitability_checks": (count("runtime.Agent.check_suitability"), "count"),
        "runtime.dispatches": (count("runtime.Agent.dispatch"), "count"),
        "runtime.self_s": (self_by_layer["runtime"], "s"),
        "gateway.charges": (count("gateway.CostLedger.charge"), "count"),
        "gateway.total_reads": (count("gateway.CostLedger.total"), "count"),
        "gateway.records_scanned": (c["gateway.records_scanned"], "count"),
        "gateway.total_s": (total("gateway.CostLedger.total"), "s"),
        "scripted.completions": (count("scripted.ScriptedBackend.complete"), "count"),
        "scripted.busy_s": (self_by_layer["scripted"], "s"),
        "scripted.complete_p50_us": (_p50_us(inclusive["scripted.ScriptedBackend.complete"]), "us"),
        "registry.submits": (count("registry.RegistryStore.submit"), "count"),
        "registry.queries": (count("registry.RegistryStore.query"), "count"),
        "registry.share_rounds": (count("registry.RegistryStore.share_with_peers"), "count"),
        "registry.share_transmitted": (c["registry.share_transmitted"], "count"),
        "registry.share_s": (total("registry.RegistryStore.share_with_peers"), "s"),
        "catalog.tool_calls": (tool_calls, "count"),
        "catalog.classify_calls": (count("catalog.classify"), "count"),
        "catalog.busy_s": (self_by_layer["catalog"], "s"),
        "simulator.pd_count_s": (total("simulator.Scenario.pd_count"), "s"),
        "simulator.self_s": (self_by_layer["simulator"], "s"),
        "workload.generate_s": (total("workload.generate_workload"), "s"),
    }
