"""The serve-zipf workload: `python -m repro serve` under load.

The server runs in its default configuration (thread worker model,
256-entry response LRU).  Two client threads, each with its own
connection per request (the server speaks HTTP/1.0), replay one
seeded Zipf sequence of request bodies in a closed loop; thread ``j``
sends positions ``j, j+2, ...``.  Every cycle replays the same
sequence, after one untimed warm-up cycle that fills the cache.

Answers are checked after the timed phase against references computed
in this process before the server starts: the library's `analyze_*`
functions for `/v1/analyze`, `run_comparison` for `/v1/compare`,
`run_lints` for `/v1/lint`, and the benchmark's own evaluator for
`/v1/run`.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from urllib.parse import urlparse

import calibrate
import check
import gen
from metrics import SETUPS, latency_metrics, src_env

REQUESTS_PER_CYCLE = 1000
ZIPF_EXPONENT = 1.1
CONNECTIONS = 2
SERVER_MAX_VISITS = 250_000  # `repro serve`'s default budget


class Server:
    """One `python -m repro serve --port 0` child process."""

    def __init__(self, env: dict, cpu: int) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env, text=True, encoding="utf-8")
        try:
            # before the server has imported anything or started a thread
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.url = None
            for line in self.proc.stderr:  # blocks until the server speaks
                if line.startswith("listening on "):
                    self.url = line.split()[-1]
                    break
            self.ready = time.perf_counter()
            if self.url is None:
                raise RuntimeError("server exited before listening")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        parsed = urlparse(self.url)
        self.host, self.port = parsed.hostname, parsed.port
        self._drain = threading.Thread(target=self.proc.stderr.read,
                                       daemon=True)
        self._drain.start()

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (the server drains and exits 0), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)


def post(host: str, port: int, route: str, payload: bytes):
    """One request on a fresh connection: (status, body bytes)."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("POST", route, payload,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def run_cycle(server: Server, requests: list[tuple[str, bytes]]) -> dict:
    """Send every request once with ``CONNECTIONS`` closed-loop
    clients; per position: latency, status and response body."""
    latency = [0.0] * len(requests)
    started = [0.0] * len(requests)
    status = [0] * len(requests)
    bodies: list[bytes] = [b""] * len(requests)

    def client(first: int) -> None:
        clock = time.perf_counter
        for position in range(first, len(requests), CONNECTIONS):
            route, payload = requests[position]
            start = clock()
            try:
                code, body = post(server.host, server.port, route, payload)
            except (OSError, http.client.HTTPException) as exc:
                code, body = 0, str(exc).encode()  # counted as failed
            started[position] = start
            latency[position] = clock() - start
            status[position], bodies[position] = code, body

    cpu_start, wall_start = server.cpu_s(), time.perf_counter()
    threads = [threading.Thread(target=client, args=(j,))
               for j in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"latency": latency, "started": started, "status": status,
            "bodies": bodies, "start": wall_start,
            "wall_s": time.perf_counter() - wall_start,
            "cpu_s": server.cpu_s() - cpu_start}


def references(entries: list[tuple[str, dict, gen.Program]]) -> list:
    """The expected response content of each distinct body."""
    from repro.analysis.delta import delta_store
    from repro.analysis.direct import analyze_direct
    from repro.analysis.pushdown import analyze_pushdown
    from repro.analysis.semantic_cps import analyze_semantic_cps
    from repro.analysis.syntactic_cps import analyze_syntactic_cps
    from repro.anf import normalize
    from repro.api import run_comparison
    from repro.cps import cps_transform
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain
    from repro.domains.store import AbsStore
    from repro.lang.parser import parse
    from repro.lint import run_lints

    domain = ConstPropDomain()
    lattice = Lattice(domain)
    top = lattice.of_num(lattice.domain.top)
    out = []
    for route, body, program in entries:
        source = body["program"]
        if route == "/v1/run":
            out.append(gen.evaluate(source, body["assume"]))
            continue
        if route == "/v1/lint":
            report = run_lints(source, analyzer="direct", domain=domain,
                               initial={}, loop_mode="top",
                               max_visits=SERVER_MAX_VISITS)
            out.append(_plain(report.as_dict()))
            continue
        term = normalize(parse(source))
        initial = {name: top for name in program.free}
        common = {"initial": initial, "max_visits": SERVER_MAX_VISITS,
                  "engine": body["engine"]}
        if route == "/v1/compare":
            report = run_comparison(term, domain=domain, **common)
            expected = {
                "direct": report.direct.to_dict(),
                "semantic_cps": report.semantic.to_dict(),
                "syntactic_cps": report.syntactic.to_dict(),
                "verdicts": {
                    "direct_vs_syntactic": report.direct_vs_syntactic.value,
                    "semantic_vs_direct": report.semantic_vs_direct.value,
                    "semantic_vs_syntactic":
                        report.semantic_vs_syntactic.value,
                },
            }
            if report.pushdown is not None:
                expected["pushdown"] = report.pushdown.to_dict()
                expected["verdicts"]["pushdown_vs_direct"] = (
                    report.pushdown_vs_direct.value)
            out.append(_plain(expected))
            continue
        analyzer = body["analyzer"]
        if analyzer == "direct":
            result = analyze_direct(term, domain, **common)
        elif analyzer == "semantic-cps":
            result = analyze_semantic_cps(term, domain, **common)
        elif analyzer == "syntactic-cps":
            common["initial"] = dict(
                delta_store(AbsStore(lattice, initial)).items())
            result = analyze_syntactic_cps(cps_transform(term), domain,
                                           **common)
        else:
            result = analyze_pushdown(term, domain, **common)
        out.append(_plain(result.to_dict()))
    return out


def _plain(value):
    return json.loads(json.dumps(value, ensure_ascii=False))


def check_response(route: str, status: int, raw: bytes, expected):
    """None if the response carries the expected answer, else why not.
    The ``server_timing`` block is per request and never compared."""
    if status != 200:
        return f"HTTP {status}: {raw[:200]!r}"
    try:
        payload = json.loads(raw)
    except ValueError:
        return "response is not JSON"
    if payload.get("ok") is not True:
        return f"not ok: {payload.get('error')}"
    if route == "/v1/run":
        got = payload.get("value")
    elif route == "/v1/lint":
        got = payload.get("report")
    elif route == "/v1/analyze":
        got = payload.get("result")
    else:
        got = {key: value for key, value in payload.items()
               if key not in ("ok", "kind", "program", "server_timing")}
        rendered = json.dumps([got[key] for key in (
            "direct", "semantic_cps", "syntactic_cps", "pushdown")
            if key in got], ensure_ascii=False)
        problem = check.check_answer(rendered, {})
        if problem is not None:
            return problem
    if got != expected:
        return "answer differs from the library reference"
    return None


def run_serve(seed: int, cycles: int, traced: bool) -> dict:
    entries = gen.serve_bodies(seed)
    # the rank sequence is part of the fixed cost structure
    sequence = gen.zipf_sequence(random.Random("serve-zipf/sequence"),
                                 len(entries), REQUESTS_PER_CYCLE,
                                 ZIPF_EXPONENT)
    distinct = sorted(set(sequence))
    expected = dict(zip(distinct, references([entries[i] for i in distinct])))

    def encoded(timing: bool) -> list[tuple[str, bytes]]:
        out = []
        for index in sequence:
            route, body, _ = entries[index]
            if timing:
                body = {**body, "server_timing": True}
            out.append((route, json.dumps(body).encode("utf-8")))
        return out

    plain = encoded(False)
    env = src_env()
    # the server on one vCPU with the metronome, the client on the other
    server_cpu, client_cpu = calibrate.cpus()[0], calibrate.cpus()[-1]
    os.sched_setaffinity(0, {client_cpu})
    metronome = calibrate.Metronome(server_cpu)
    try:
        metronome.wait_for_samples()
        return _measure(seed, entries, sequence, expected, plain,
                        encoded(True) if traced else None, cycles, env,
                        server_cpu, metronome)
    finally:
        metronome.stop()


def _measure(seed, entries, sequence, expected, plain, timed, cycles, env,
             server_cpu, metronome) -> dict:
    traced = timed is not None

    def setup_s(server: Server) -> float:
        return (server.ready - server.start) * metronome.factor_between(
            server.start, server.ready)

    setups = []
    if not traced:
        for _ in range(SETUPS - 1):
            server = Server(env, server_cpu)
            try:
                setups.append(setup_s(server))
            finally:
                server.stop()
    server = Server(env, server_cpu)
    try:
        setups.append(setup_s(server))
        run_cycle(server, plain)  # warm-up: fills the response cache
        if traced:
            before = _metricsz(server)
            runs, traced_runs = [], []
            for _ in range(cycles):
                runs.append(run_cycle(server, plain))
                traced_runs.append(run_cycle(server, timed))
            after = _metricsz(server)
        else:
            runs = [run_cycle(server, plain) for _ in range(cycles)]
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    all_runs = runs + (traced_runs if traced else [])
    failed_positions: dict[int, str] = {}
    verdicts: dict[tuple[int, int, bytes], str | None] = {}
    failed = 0
    for run in all_runs:
        for position, index in enumerate(sequence):
            code, raw = run["status"][position], run["bodies"][position]
            key = (index, code, hashlib.sha1(raw).digest())
            if key not in verdicts:
                verdicts[key] = check_response(entries[index][0], code, raw,
                                               expected[index])
            if verdicts[key] is not None:
                failed += 1
                failed_positions.setdefault(position, verdicts[key])
    result = {
        "workload": "serve-zipf", "seed": seed, "cycles": cycles,
        "ops_per_cycle": len(sequence),
        "attempted": len(sequence) * len(all_runs),
        "failed": failed,
        "problems": sorted(
            f"position {p} ({entries[sequence[p]][0]}): {why}"
            for p, why in failed_positions.items()),
        "distinct_bodies": len(set(sequence)),
        "raw": {
            "wall_ops_per_s": len(sequence) * len(runs)
            / sum(run["wall_s"] for run in runs),
            "cycle_wall_s": [run["wall_s"] for run in runs],
        },
    }
    good = [p for p in range(len(sequence)) if p not in failed_positions]
    if not good:
        return result
    for run in runs:
        run["scaled"] = [
            latency * metronome.factor_between(start, start + latency)
            for start, latency in zip(run["started"], run["latency"])]
        run["scaled_cpu_s"] = run["cpu_s"] * metronome.factor_between(
            run["start"], run["start"] + run["wall_s"])
    op_s = [statistics.median(run["scaled"][p] for run in runs) for p in good]
    if traced:
        from tracing import serve_layers

        untraced = [statistics.median(run["latency"][p] for run in runs)
                    for p in good]
        layers, spans, own = serve_layers(
            sequence, entries, traced_runs, untraced, good, before, after)
        result.update(layers=layers, spans=spans, self_times=own)
        return result
    metrics, result["tail"] = latency_metrics(op_s, concurrency=CONNECTIONS)
    metrics["setup_s"] = statistics.median(setups)
    metrics["cpu_ms_per_op"] = 1000.0 * statistics.median(
        run["scaled_cpu_s"] for run in runs) / len(sequence)
    metrics["peak_rss_mb"] = peak_rss
    result["metrics"] = metrics
    result["setups_s"] = setups
    return result


def _metricsz(server: Server) -> dict | None:
    try:
        return server.get_json("/metricsz")
    except (OSError, ValueError):
        return None
