"""The HTTP/1.0 transport under ``repro serve``.

One request per connection, served start to finish on one handler
thread:

- **accept** — handler threads call ``accept()`` on the listening
  socket themselves: there is no accept loop and no thread started
  per connection.  The handlers grow with concurrency: when the last
  idle handler takes a connection, it starts another before serving
  it, so one handler always waits in ``accept``.  After its reply a
  handler goes back to ``accept``, or exits when `MAX_IDLE` others
  already wait there.
- **read** — the request line, the headers (into a dict with
  lowercased names) and a ``Content-Length`` body, in one pass of
  ``readline`` over the socket, within `MAX_LINE` bytes a line,
  `MAX_HEADERS` header lines and `TIMEOUT_S` seconds from accept for
  the whole request (each receive waits only for what is left of it).
  A malformed request gets a ``bad_request`` JSON error from
  `repro.serve.codes`.
- **write** — the status line, ``Content-Type``, ``Content-Length``,
  the route's extra headers (``traceparent``), a ``Date`` formatted
  at most once a second, and the body, in one ``sendall``.

What a request means is the route's business: the transport hands it
``(method, path, headers, body)`` and writes the ``(status, body,
content_type, extra_headers)`` it returns.

`HttpTransport.close` stops accepting (``shutdown`` on the listening
socket wakes every handler blocked in ``accept`` on Linux), lets the
requests in flight finish, and joins every handler thread.
"""

from __future__ import annotations

import io
import socket
import sys
import threading
import time
import traceback
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable

from repro.serve.codes import ServeError, classify_exception
from repro.serve.pipeline import error_reply

#: Longest request or header line, in bytes (the stdlib server's bound).
MAX_LINE = 65536
#: Most header lines one request may carry.
MAX_HEADERS = 100
#: Seconds from accept to the end of the request, and the timeout of
#: the reply's write: a silent or dripping client holds one handler at
#: most this long, and cannot block drain for longer.
TIMEOUT_S = 30
#: A handler that finishes a request while this many others wait in
#: ``accept`` exits instead of joining them.
MAX_IDLE = 4

JSON_TYPE = "application/json; charset=utf-8"

#: ``(status, body, content_type, extra_headers)``
RouteReply = tuple[int, str, str, tuple]
Route = Callable[[str, str, dict, bytes], RouteReply]

_REASONS = {status.value: status.phrase for status in HTTPStatus}


def read_request(rfile) -> "tuple[str, str, str, dict, bytes] | None":
    """Read one request from the buffered socket reader ``rfile``:
    ``(method, path, version, headers, body)``, or None when the peer
    closed the connection before sending a request line.  Raises
    `ServeError` (``bad_request``) on a malformed or oversize request
    and `OSError` on a socket error or timeout."""
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise ServeError(
            "bad_request", f"request line is longer than {MAX_LINE} bytes"
        )
    words = line.decode("latin-1").split()
    if len(words) != 3 or not words[2].startswith("HTTP/"):
        raise ServeError(
            "bad_request", f"malformed request line: {line[:200]!r}"
        )
    method, path, version = words
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(line) > MAX_LINE:
            raise ServeError(
                "bad_request", f"header line is longer than {MAX_LINE} bytes"
            )
        name, colon, value = line.decode("latin-1").partition(":")
        name = name.strip()
        if not colon or not name:
            raise ServeError(
                "bad_request", f"malformed header line: {line[:200]!r}"
            )
        headers[name.lower()] = value.strip()
    else:
        raise ServeError(
            "bad_request", f"more than {MAX_HEADERS} header lines"
        )
    body = b""
    length = headers.get("content-length")
    if length is not None:
        if not (length.isascii() and length.isdigit()):
            raise ServeError(
                "bad_request", f"bad Content-Length: {length[:40]!r}"
            )
        expected = int(length)
        if expected:
            body = rfile.read(expected)
            if len(body) < expected:
                raise ServeError(
                    "bad_request",
                    f"request body ended after {len(body)} of "
                    f"{expected} bytes",
                )
    return method, path, version, headers, body


class _DeadlineReader(io.RawIOBase):
    """The raw reader under a request's buffered reader: each receive
    waits only for the time left before ``deadline``, so a client that
    sends a byte at a time cannot stretch the request past it."""

    def __init__(self, conn: socket.socket, deadline: float) -> None:
        self._conn = conn
        self._deadline = deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("the request did not arrive in time")
        self._conn.settimeout(remaining)
        return self._conn.recv_into(buffer)


class HttpTransport:
    """The listening socket and the handler threads that serve it.

    ``port=0`` binds an ephemeral port; read the resolved one from
    ``.port``.  ``verbose`` writes one line per request to stderr.
    """

    def __init__(
        self, host: str, port: int, route: Route, verbose: bool = False
    ) -> None:
        self._route = route
        self._verbose = verbose
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        #: Every handler started and not yet pruned (see `_spawn`).
        self._threads: set[threading.Thread] = set()
        #: Handlers waiting in ``accept``.
        self._idle = 0
        self._closing = False
        self._date = (0, "")
        with self._lock:
            self._spawn()

    # -- the handler threads -------------------------------------------

    def _spawn(self) -> None:
        """Start one more handler (lock held); `RuntimeError` when no
        thread can be started."""
        self._threads = {t for t in self._threads if t.is_alive()}
        thread = threading.Thread(
            target=self._handler,
            name=f"repro-serve-http-{len(self._threads)}",
            daemon=True,
        )
        thread.start()
        self._threads.add(thread)
        self._idle += 1

    def _handler(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                with self._lock:
                    if self._closing:
                        self._idle -= 1
                        return
                continue  # a connection aborted before it was accepted
            with self._lock:
                self._idle -= 1
                if not self._idle and not self._closing:
                    try:
                        self._spawn()
                    except RuntimeError:
                        pass  # this handler goes back to accept instead
            with conn:
                self._serve(conn, addr)
            with self._lock:
                if self._closing or self._idle >= MAX_IDLE:
                    return
                self._idle += 1

    def _serve(self, conn: socket.socket, addr) -> None:
        """Read one request from ``conn``, route it, write the reply."""
        reader = _DeadlineReader(conn, time.monotonic() + TIMEOUT_S)
        try:
            with io.BufferedReader(reader) as rfile:
                request = read_request(rfile)
        except ServeError as error:
            status, body = error_reply(error)
            reply: RouteReply = (status, body, JSON_TYPE, ())
            summary = str(error)
        except OSError:  # the peer went away or stayed silent too long
            return
        else:
            if request is None:
                return
            method, path, version, headers, body = request
            summary = f"{method} {path} {version}"
            try:
                reply = self._route(method, path, headers, body)
            except Exception as exc:  # the server must keep serving
                traceback.print_exc(file=sys.stderr)
                status, body = error_reply(classify_exception(exc))
                reply = (status, body, JSON_TYPE, ())
        if self._verbose:
            sys.stderr.write(f'{addr[0]} - "{summary}" {reply[0]} -\n')
        conn.settimeout(TIMEOUT_S)
        try:
            conn.sendall(self._encode(*reply))
        except OSError:
            pass

    def _encode(
        self, status: int, body: str, content_type: str, extra_headers
    ) -> bytes:
        """The whole reply, head and body, as one buffer."""
        data = body.encode("utf-8")
        head = [
            f"HTTP/1.0 {status} {_REASONS.get(status, '')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
        ]
        head += [f"{name}: {value}" for name, value in extra_headers]
        head.append(f"Date: {self._http_date()}")
        head.append("\r\n")
        return "\r\n".join(head).encode("latin-1") + data

    def _http_date(self) -> str:
        """The ``Date`` header value, formatted at most once a second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = formatdate(now, usegmt=True)
            self._date = (now, text)
        return text

    # -- shutdown ------------------------------------------------------

    def close(self) -> None:
        """Stop accepting, let requests in flight finish, and join every
        handler thread.  Idempotent."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            threads = list(self._threads)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # not connected: nothing to wake
            pass
        for thread in threads:
            thread.join()
        self._listener.close()
