"""The HTTP/1.0 transport under ``repro serve``, over raw sockets.

Replies are byte-identical to the in-process `AnalysisService.process`
on every route; malformed requests get typed ``repro.serve.codes``
JSON errors; a body may arrive in pieces; a silent connection holds
only its own handler, and a dripping one only until `TIMEOUT_S` after
accept; drain finishes a request in flight and leaves no
handler thread behind; and a spawned server exits 0 on SIGTERM.
Every test runs under both worker models.
"""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.corpus.programs import corpus_listing
from repro.serve.jobs import ServiceDefaults
from repro.serve import transport
from repro.serve.server import AnalysisService
from repro.serve.transport import MAX_HEADERS, MAX_IDLE, MAX_LINE

SRC = Path(__file__).resolve().parents[2] / "src"


def _service(worker_model: str, **options) -> AnalysisService:
    options.setdefault("workers", 2)
    options.setdefault("queue_size", 8)
    return AnalysisService(
        port=0,
        defaults=ServiceDefaults(debug_hooks=True),
        worker_model=worker_model,
        **options,
    )


@pytest.fixture(scope="module", params=["thread", "process"])
def worker_model(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def service(worker_model):
    svc = _service(worker_model)
    yield svc
    svc.drain(timeout=10)


def _request(method: str, path: str, body: bytes = b"", **headers) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _exchange(port: int, *chunks: bytes, pause: float = 0.0):
    """Send ``chunks`` (pausing between them), read to EOF, and split
    the reply: ``(status, headers, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for position, chunk in enumerate(chunks):
            if position and pause:
                time.sleep(pause)
            sock.sendall(chunk)
        raw = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            raw += data
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    version, status, _reason = status_line.split(" ", 2)
    assert version == "HTTP/1.0"
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert int(headers["content-length"]) == len(body)
    return int(status), headers, body


def _post(port: int, route: str, payload) -> tuple:
    return _exchange(port, _request("POST", route, json.dumps(payload).encode()))


ROUTE_BODIES = [
    ("/v1/analyze", "analyze", {"corpus": "theorem-5.1", "analyzer": "direct"}),
    ("/v1/analyze", "analyze", {"program": "(((", "analyzer": "direct"}),
    ("/v1/run", "run", {"program": "(add1 41)"}),
    ("/v1/compare", "compare", {"corpus": "theorem-5.2-conditional"}),
    ("/v1/lint", "lint", {"corpus": "theorem-5.1", "analyzer": "direct"}),
]


class TestSameBytesAsInProcess:
    @pytest.mark.parametrize("route, kind, payload", ROUTE_BODIES)
    def test_post_routes(self, service, route, kind, payload):
        status, headers, body = _post(service.port, route, payload)
        assert (status, body.decode("utf-8")) == service.process(kind, payload)
        assert headers["content-type"] == "application/json; charset=utf-8"
        assert headers["traceparent"].startswith("00-")
        assert headers["date"].endswith("GMT")

    def test_batch_route(self, service):
        payload = {
            "requests": [
                {"kind": kind, "body": body} for _, kind, body in ROUTE_BODIES
            ]
        }
        status, _, body = _post(service.port, "/v1/batch", payload)
        assert (status, body.decode("utf-8")) == service.process_batch(payload)

    def test_get_corpus(self, service):
        status, _, body = _exchange(service.port, _request("GET", "/v1/corpus"))
        assert status == 200
        assert json.loads(body) == corpus_listing()

    def test_get_health_and_metrics(self, service):
        status, _, body = _exchange(service.port, _request("GET", "/healthz"))
        assert status == 200 and json.loads(body)["status"] == "ok"
        status, headers, body = _exchange(
            service.port, _request("GET", "/metricsz?format=prom")
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert b"serve_requests_total" in body

    def test_route_needs_no_socket(self, service):
        status, body, content_type, extra = service.route(
            "POST", "/v1/run", {}, b'{"program": "(add1 1)"}'
        )
        assert (status, body) == service.process("run", {"program": "(add1 1)"})
        assert content_type == "application/json; charset=utf-8"
        assert [name for name, _ in extra] == ["traceparent"]
        status, body, _, extra = service.route("GET", "/nowhere", {}, b"")
        assert status == 404 and extra == ()
        assert json.loads(body)["error"]["code"] == "not_found"


def _error_code(reply) -> tuple[int, str]:
    status, headers, body = reply
    assert headers["content-type"] == "application/json; charset=utf-8"
    payload = json.loads(body)
    assert payload["ok"] is False
    return status, payload["error"]["code"]


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "raw",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /healthz\r\n\r\n",
            b"GET /healthz FTP/1.0\r\n\r\n",
            b"POST /v1/run HTTP/1.0\r\nno colon here\r\n\r\n",
        ],
    )
    def test_malformed_request_line_or_header(self, service, raw):
        assert _error_code(_exchange(service.port, raw)) == (400, "bad_request")

    def test_unknown_method(self, service):
        reply = _exchange(service.port, _request("DELETE", "/v1/analyze"))
        assert _error_code(reply) == (404, "not_found")

    def test_oversize_request_line(self, service):
        raw = b"GET /" + b"a" * MAX_LINE + b" HTTP/1.0\r\n\r\n"
        assert _error_code(_exchange(service.port, raw)) == (400, "bad_request")

    def test_oversize_header_line(self, service):
        raw = _request("GET", "/healthz", X_Big="b" * MAX_LINE)
        assert _error_code(_exchange(service.port, raw)) == (400, "bad_request")

    def test_too_many_headers(self, service):
        headers = {f"X-H{i}": "1" for i in range(MAX_HEADERS)}
        raw = _request("GET", "/healthz", **headers)
        assert _error_code(_exchange(service.port, raw)) == (400, "bad_request")

    def test_as_many_headers_as_allowed(self, service):
        headers = {f"X-H{i}": "1" for i in range(MAX_HEADERS - 1)}
        status, _, _ = _exchange(service.port, _request("GET", "/healthz", **headers))
        assert status == 200  # Host plus 99 more

    @pytest.mark.parametrize("length", ["abc", "-5", "+3", "1_0", " "])
    def test_bad_content_length(self, service, length):
        raw = (
            b"POST /v1/run HTTP/1.0\r\nContent-Length: "
            + length.encode()
            + b"\r\n\r\n{}"
        )
        assert _error_code(_exchange(service.port, raw)) == (400, "bad_request")

    def test_body_shorter_than_content_length(self, service):
        with socket.create_connection(("127.0.0.1", service.port), timeout=30) as sock:
            sock.sendall(b"POST /v1/run HTTP/1.0\r\nContent-Length: 50\r\n\r\n{}")
            sock.shutdown(socket.SHUT_WR)
            raw = sock.makefile("rb").read()
        assert raw.startswith(b"HTTP/1.0 400 ")
        assert b'"bad_request"' in raw

    def test_invalid_json_body(self, service):
        reply = _exchange(service.port, _request("POST", "/v1/run", b"{not json"))
        assert _error_code(reply) == (400, "bad_request")


class TestConnections:
    def test_body_split_across_segments(self, service):
        payload = json.dumps({"program": "(add1 41)"}).encode()
        raw = _request("POST", "/v1/run", payload)
        cut = raw.index(b"\r\n\r\n") + 4
        status, _, body = _exchange(
            service.port, raw[:10], raw[10:cut], payload[:5], payload[5:],
            pause=0.05,
        )
        assert status == 200 and json.loads(body)["value"] == 42

    def test_silent_connection_does_not_block_others(self, service):
        with socket.create_connection(("127.0.0.1", service.port), timeout=30) as silent:
            silent.sendall(b"POST /v1/run HTTP/1.0\r\n")  # and then nothing
            started = time.monotonic()
            status, _, body = _post(service.port, "/v1/run", {"program": "(add1 1)"})
            assert status == 200 and json.loads(body)["value"] == 2
            assert time.monotonic() - started < 5

    def test_dripping_client_is_cut_at_the_deadline(
        self, worker_model, monkeypatch
    ):
        # TIMEOUT_S bounds the whole request, not each read: a client
        # sending a byte every 0.1 s is cut off about TIMEOUT_S after
        # accept, and drain does not wait for it to stop sending.
        monkeypatch.setattr(transport, "TIMEOUT_S", 1)
        svc = _service(worker_model)
        closed_after = []

        def drip(sock, started):
            for byte in _request("POST", "/v1/run", b"{}" * 40):
                try:
                    sock.sendall(bytes([byte]))
                    # wait 0.1 s, or less if the server closes first
                    if select.select([sock], [], [], 0.1)[0]:
                        if sock.recv(1) == b"":
                            break
                except OSError:  # reset: the server closed first
                    break
            else:
                return
            closed_after.append(time.monotonic() - started)

        sock = socket.create_connection(("127.0.0.1", svc.port), timeout=30)
        started = time.monotonic()
        dripper = threading.Thread(target=drip, args=(sock, started))
        try:
            dripper.start()
            time.sleep(0.2)
            assert svc.drain(timeout=10) is True
            drained_after = time.monotonic() - started
            dripper.join(timeout=30)
        finally:
            sock.close()
        assert drained_after < transport.TIMEOUT_S + 1.5
        assert closed_after and closed_after[0] < transport.TIMEOUT_S + 1.5

    def test_serves_on_when_no_spare_handler_starts(self, worker_model):
        svc = _service(worker_model)

        def no_thread():
            raise RuntimeError("can't start new thread")

        svc.transport._spawn = no_thread
        try:
            for n in range(3):  # the one handler returns to accept
                status, _, body = _post(
                    svc.port, "/v1/run", {"program": f"(add1 {n})"}
                )
                assert status == 200 and json.loads(body)["value"] == n + 1
        finally:
            svc.drain(timeout=10)

    def test_handlers_grow_with_load_and_shrink_after(self, worker_model):
        svc = _service(worker_model, workers=4, queue_size=8)

        def live() -> list:
            return [t for t in svc.transport._threads if t.is_alive()]

        try:
            replies = []

            def sleeper():
                replies.append(
                    _post(svc.port, "/v1/run",
                          {"program": "(add1 1)", "debug_sleep_ms": 1000})
                )

            clients = [threading.Thread(target=sleeper) for _ in range(8)]
            for client in clients:
                client.start()
            # one handler per request in flight, plus one in accept
            deadline = time.monotonic() + 0.8
            while len(live()) < 9 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(live()) >= 9
            for client in clients:
                client.join(timeout=30)
                assert not client.is_alive()
            assert [reply[0] for reply in replies] == [200] * 8
            # once the burst is over, at most MAX_IDLE stay parked
            deadline = time.monotonic() + 5
            while len(live()) > MAX_IDLE and time.monotonic() < deadline:
                time.sleep(0.01)
            assert 1 <= len(live()) <= MAX_IDLE
            handlers = list(svc.transport._threads)
        finally:
            svc.drain(timeout=10)
        assert not [thread for thread in handlers if thread.is_alive()]


class TestDrainOverTheWire:
    def test_drain_with_a_request_in_flight(self, worker_model):
        svc = _service(worker_model, workers=1, queue_size=4)
        replies = []
        client = threading.Thread(
            target=lambda: replies.append(
                _post(svc.port, "/v1/run",
                      {"program": "(add1 41)", "debug_sleep_ms": 400})
            )
        )
        client.start()
        time.sleep(0.15)
        assert svc.drain(timeout=10) is True
        client.join(timeout=10)
        assert not client.is_alive()
        status, _, body = replies[0]
        assert status == 200 and json.loads(body)["value"] == 42
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", svc.port), timeout=5)
        assert not [t for t in svc.transport._threads if t.is_alive()]

    def test_spawned_server_exits_zero_on_sigterm(self, worker_model):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--worker-model", worker_model, "--workers", "2"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            for line in proc.stderr:
                if line.startswith("listening on "):
                    port = int(line.split()[-1].rsplit(":", 1)[1])
                    break
            else:
                pytest.fail("server exited before listening")
            status, _, body = _post(port, "/v1/run", {"program": "(add1 2)"})
            assert status == 200 and json.loads(body)["value"] == 3
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
