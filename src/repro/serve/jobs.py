"""Request validation and execution for the service endpoints.

A request is validated and resolved against the server defaults into a
`PreparedRequest` whose ``spec`` is fully canonical: the program is
re-printed from its normalized term (so whitespace/comment variants of
the same program collide), options carry their resolved values, and
the sha256 of the sorted-JSON spec is the cross-request cache key.

Execution then runs the exact in-process API (the registry's one
analyzer dispatch, `repro.analysis.registry.run_analyzer`;
`repro.interp`; `repro.api.run_comparison`) — the service's responses
are byte-identical to what a local caller gets, which the differential
tests pin.

Analyzer and interpreter names come from the canonical registry
(`repro.analysis.registry`); the historical short spellings
(``semantic``/``syntactic``) are folded to their canonical names
*before* the spec is hashed, so alias requests share cache entries
with canonically-spelled ones.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field

from repro.analysis.common import (
    LOOP_MODES,
    check_unroll_bound,
    front_end_headroom,
)
from repro.analysis.registry import (
    ALIASES,
    ANALYZERS,
    ENGINES,
    INTERPRETERS,
    run_analyzer,
)
from repro.anf import normalize
from repro.api import analysis_initial, run_comparison
from repro.corpus.programs import PROGRAMS, CorpusProgram
from repro.cps import cps_transform
from repro.domains import DOMAINS, Lattice
from repro.incr.hash import term_hash
from repro.interp import run_direct, run_semantic_cps, run_syntactic_cps
from repro.interp.values import Env, Store
from repro.lang.ast import Term
from repro.lang.parser import parse
from repro.lang.pretty import pretty_flat
from repro.lang.syntax import free_variables
from repro.lint import LINT_ANALYZERS, run_lints
from repro.obs import trace as obs_trace
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, Sink
from repro.serve.codes import ServeError, classify_exception

#: How long a waiter outlasts the request deadline, so the worker's
#: own timeout classification wins when the budget expires
#: mid-execution.
WAIT_GRACE_SECONDS = 2.0

_COMMON_FIELDS = {
    "program", "corpus", "domain", "assume", "debug_sleep_ms",
    "server_timing",
}
_FIELDS_BY_KIND = {
    "analyze": _COMMON_FIELDS
    | {
        "analyzer",
        "k",
        "loop_mode",
        "unroll_bound",
        "max_visits",
        "cache",
        "engine",
        "term_hash",
    },
    "run": _COMMON_FIELDS | {"interpreter", "fuel"},
    "compare": _COMMON_FIELDS
    | {"loop_mode", "unroll_bound", "max_visits", "cache", "engine"},
    "lint": _COMMON_FIELDS
    | {
        "analyzer",
        "loop_mode",
        "unroll_bound",
        "max_visits",
        "fix",
        "syntactic_only",
    },
}


@dataclass(frozen=True)
class ServiceDefaults:
    """Server-side budgets applied when a request leaves them out.

    ``max_visits`` bounds each analyzer run (the CPS analyzers are
    worst-case exponential, Section 6.2); ``fuel`` bounds interpreter
    steps; ``timeout_seconds`` is the per-request wall-clock budget.
    ``debug_hooks`` gates the ``debug_sleep_ms`` request field used by
    the smoke tests to hold a worker busy.
    """

    max_visits: int = 250_000
    fuel: int = 1_000_000
    timeout_seconds: float = 30.0
    debug_hooks: bool = False


class Deadline:
    """A cooperative wall-clock budget.

    Checked between execution stages (the analyzers themselves are
    bounded by ``max_visits``/``fuel``); expiry raises the structured
    ``timeout`` error.
    """

    def __init__(self, seconds: float | None, clock=time.monotonic) -> None:
        self._clock = clock
        self.expires_at = None if seconds is None else clock() + seconds

    def remaining(self) -> float | None:
        """Seconds left, or None for an unbounded deadline."""
        if self.expires_at is None:
            return None
        return self.expires_at - self._clock()

    def check(self) -> None:
        """Raise ``timeout`` if the budget is spent."""
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            raise _timeout()

    def join(self, done: threading.Event) -> None:
        """Wait for ``done`` (a reply arriving from a worker) until the
        budget plus `WAIT_GRACE_SECONDS` runs out; then raise
        ``timeout``."""
        remaining = self.remaining()
        if not done.wait(
            None if remaining is None else remaining + WAIT_GRACE_SECONDS
        ):
            raise _timeout()


def _timeout() -> ServeError:
    return ServeError("timeout", "request exceeded its wall-clock budget")


@dataclass(frozen=True)
class PreparedRequest:
    """A validated request, resolved against the server defaults."""

    kind: str
    term: Term
    corpus: CorpusProgram | None
    spec: dict
    debug_sleep_ms: int = 0
    key: str | None = field(default=None)
    #: Transport-level option: when True the response body gains a
    #: per-request ``server_timing`` breakdown and ``trace_id``.  Not
    #: part of ``spec`` (and hence the cache key): the cached body is
    #: the timing-free payload and the breakdown is spliced in per
    #: request, so timing requests share cache entries with plain ones.
    server_timing: bool = False
    #: ``If-None-Match``-style conditional analysis: when the client's
    #: ``term_hash`` matches the canonical program's alpha-invariant
    #: hash, execution short-circuits to ``{"not_modified": true}``.
    #: Such requests never hit or fill the response cache (their body
    #: differs from the full response under the same spec key).
    not_modified: bool = False

    @property
    def cacheable(self) -> bool:
        """Debug-hook requests never hit or fill the cache."""
        return self.key is not None

    def replay_payload(self) -> dict:
        """A request body that reproduces this request exactly.

        Round-trips through `prepare_request` to the same cache key;
        this is what the access log stores and what ``repro loadgen
        --replay`` feeds back at a live server.
        """
        spec = self.spec
        payload: dict = {"domain": spec["domain"]}
        if spec["corpus"] is not None:
            payload["corpus"] = spec["corpus"]
        elif self.kind == "lint" and spec.get("source") is not None:
            # lint findings depend on the program as written, so the
            # raw source (not the canonical term) must replay.
            payload["program"] = spec["source"]
        else:
            payload["program"] = spec["term"]
        if spec["assume"]:
            payload["assume"] = dict(spec["assume"])
        if self.kind in ("analyze", "compare", "lint"):
            payload["loop_mode"] = spec["loop_mode"]
            payload["unroll_bound"] = spec["unroll_bound"]
            payload["max_visits"] = spec["max_visits"]
        if self.kind in ("analyze", "compare"):
            payload["cache"] = spec["cache"]
            payload["engine"] = spec["engine"]
        if self.kind == "analyze":
            payload["analyzer"] = spec["analyzer"]
            if spec["analyzer"] == "polyvariant":
                payload["k"] = spec["k"]
        if self.kind == "lint":
            payload["analyzer"] = spec["analyzer"]
            payload["fix"] = spec["fix"]
            payload["syntactic_only"] = spec["syntactic_only"]
        if self.kind == "run":
            payload["interpreter"] = spec["interpreter"]
            payload["fuel"] = spec["fuel"]
        return payload


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServeError("bad_request", message)


def _validate_fields(kind: str, payload: dict) -> None:
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - _FIELDS_BY_KIND[kind]
    _require(
        not unknown,
        f"unknown field(s) for {kind!r}: {sorted(unknown)}",
    )


def _resolve_term(payload: dict) -> tuple[Term, CorpusProgram | None]:
    source = payload.get("program")
    corpus_name = payload.get("corpus")
    _require(
        (source is None) != (corpus_name is None),
        "provide exactly one of 'program' (source text) or 'corpus' (name)",
    )
    if corpus_name is not None:
        _require(isinstance(corpus_name, str), "'corpus' must be a string")
        program = PROGRAMS.get(corpus_name)
        if program is None:
            raise ServeError(
                "not_found",
                f"unknown corpus program {corpus_name!r}; "
                f"see GET /v1/corpus or `python -m repro corpus`",
            )
        return program.term, program
    _require(isinstance(source, str), "'program' must be source text")
    with front_end_headroom():
        with obs_trace.span("prepare.parse"):
            tree = parse(source)
        with obs_trace.span("prepare.normalize"):
            term = normalize(tree)
            hash(term)
    return term, None


def _resolve_assume(payload: dict) -> dict[str, int]:
    assume = payload.get("assume") or {}
    _require(
        isinstance(assume, dict)
        and all(
            isinstance(name, str)
            and isinstance(value, int)
            and not isinstance(value, bool)
            for name, value in assume.items()
        ),
        "'assume' must map variable names to integers",
    )
    return dict(assume)


def _resolve_enum(payload: dict, name: str, allowed, default):
    value = payload.get(name, default)
    _require(
        value in allowed,
        f"{name!r} must be one of {sorted(allowed)}, got {value!r}",
    )
    return value


def _resolve_name(payload: dict, name: str, allowed, default):
    """Like `_resolve_enum` but folds registry aliases first, so e.g.
    ``"semantic"`` and ``"semantic-cps"`` canonicalize to one spec (and
    hence one cache key)."""
    value = payload.get(name, default)
    value = ALIASES.get(value, value) if isinstance(value, str) else value
    _require(
        value in allowed,
        f"{name!r} must be one of {sorted(allowed)} "
        f"(aliases: {sorted(ALIASES)}), got {value!r}",
    )
    return value


def _resolve_int(payload: dict, name: str, default, minimum=1, cap=None):
    """An integer field: absent takes ``default`` (which may be None,
    "unbounded"); present, even as JSON ``null``, it must be an integer
    of at least ``minimum``, clamped to ``cap``."""
    if name not in payload:
        return default
    value = payload[name]
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name!r} must be an integer",
    )
    _require(value >= minimum, f"{name!r} must be >= {minimum}")
    if cap is not None and value > cap:
        value = cap
    return value


def prepare_request(
    kind: str,
    payload: dict,
    defaults: ServiceDefaults | None = None,
) -> PreparedRequest:
    """Validate ``payload`` for endpoint ``kind`` and canonicalize it.

    Raises `ServeError` (``bad_request``/``not_found``/``parse_error``)
    on invalid input.
    """
    defaults = defaults or ServiceDefaults()
    _require(kind in _FIELDS_BY_KIND, f"unknown request kind {kind!r}")
    _validate_fields(kind, payload)
    try:
        term, corpus = _resolve_term(payload)
    except ServeError:
        raise
    except Exception as exc:  # ParseError and friends
        raise classify_exception(exc) from exc
    spec: dict = {
        "kind": kind,
        "corpus": corpus.name if corpus is not None else None,
        "domain": _resolve_enum(
            payload, "domain", tuple(DOMAINS), "constprop"
        ),
        "assume": dict(sorted(_resolve_assume(payload).items())),
    }
    if kind in ("analyze", "compare", "lint"):
        spec["loop_mode"] = _resolve_enum(
            payload, "loop_mode", LOOP_MODES,
            "top" if kind == "lint" else "reject",
        )
        try:
            spec["unroll_bound"] = check_unroll_bound(
                payload.get("unroll_bound", 32)
            )
        except ValueError as exc:
            raise ServeError("bad_request", str(exc)) from None
        spec["max_visits"] = _resolve_int(
            payload, "max_visits", defaults.max_visits,
            cap=defaults.max_visits,
        )
    if kind in ("analyze", "compare"):
        cache = payload.get("cache", False)
        _require(isinstance(cache, bool), "'cache' must be a boolean")
        spec["cache"] = cache
        # The engine is semantically invisible (differentially tested)
        # but still part of the cache key, so a differential client can
        # force both implementations to actually run.
        spec["engine"] = _resolve_enum(payload, "engine", ENGINES, "tree")
    if kind == "analyze":
        spec["analyzer"] = _resolve_name(
            payload, "analyzer", ANALYZERS, "direct"
        )
        spec["k"] = _resolve_int(payload, "k", 1, minimum=0)
        _require(
            "k" not in payload or spec["analyzer"] == "polyvariant",
            "'k' only applies to the polyvariant analyzer",
        )
    if kind == "lint":
        spec["analyzer"] = _resolve_name(
            payload, "analyzer", LINT_ANALYZERS, "direct"
        )
        for flag in ("fix", "syntactic_only"):
            value = payload.get(flag, False)
            _require(isinstance(value, bool), f"{flag!r} must be a boolean")
            spec[flag] = value
        # Lint findings depend on the program *as written* (spans,
        # structural rules), so the raw source joins the canonical
        # term in the spec and hence in the cache key.
        spec["source"] = payload.get("program")
    if kind == "run":
        spec["interpreter"] = _resolve_name(
            payload, "interpreter", INTERPRETERS, "direct"
        )
        spec["fuel"] = _resolve_int(
            payload, "fuel", defaults.fuel, cap=defaults.fuel
        )
        _require(
            spec["interpreter"] != "syntactic-cps" or not spec["assume"],
            "'assume' is not supported with the syntactic interpreter",
        )
    sleep_ms = _resolve_int(payload, "debug_sleep_ms", 0, minimum=0)
    _require(
        sleep_ms == 0 or defaults.debug_hooks,
        "'debug_sleep_ms' requires a server started with --debug-hooks",
    )
    server_timing = payload.get("server_timing", False)
    _require(
        isinstance(server_timing, bool), "'server_timing' must be a boolean"
    )
    not_modified = False
    if kind == "analyze":
        client_hash = payload.get("term_hash")
        _require(
            client_hash is None or isinstance(client_hash, str),
            "'term_hash' must be a string",
        )
        if client_hash is not None:
            not_modified = client_hash == term_hash(term)
    key = None
    with obs_trace.span("prepare.key"):
        # The canonical re-print is what makes whitespace and comment
        # variants of one program share a key.
        with front_end_headroom():
            spec["term"] = pretty_flat(term)
        if sleep_ms == 0 and not not_modified:
            digest = hashlib.sha256(
                json.dumps(spec, sort_keys=True).encode("utf-8")
            )
            key = digest.hexdigest()
    return PreparedRequest(
        kind=kind,
        term=term,
        corpus=corpus,
        spec=spec,
        debug_sleep_ms=sleep_ms,
        key=key,
        server_timing=server_timing,
        not_modified=not_modified,
    )


def cache_key(kind: str, payload: dict,
              defaults: ServiceDefaults | None = None) -> str | None:
    """The canonical cache key for a request (None = uncacheable)."""
    return prepare_request(kind, payload, defaults).key


def _analysis_initial(prep: PreparedRequest, lattice: Lattice) -> dict:
    """The initial abstract store: corpus assumptions, overridden by
    request constants, topped up with ⊤ for uncovered free variables
    (the CLI's convention)."""
    return analysis_initial(
        prep.term,
        lattice,
        prep.spec["assume"],
        base=(
            prep.corpus.initial_for(lattice)
            if prep.corpus is not None
            else None
        ),
    )


def _debug_sleep(prep: PreparedRequest, deadline: Deadline) -> None:
    remaining_ms = prep.debug_sleep_ms
    while remaining_ms > 0:
        deadline.check()
        slice_ms = min(remaining_ms, 20)
        time.sleep(slice_ms / 1000.0)
        remaining_ms -= slice_ms


def _execute_analyze(
    prep: PreparedRequest,
    deadline: Deadline,
    trace: Sink,
    metrics: Metrics | None,
) -> dict:
    spec = prep.spec
    program_hash = term_hash(prep.term)
    if prep.not_modified:
        return {
            "ok": True,
            "kind": "analyze",
            "analyzer": spec["analyzer"],
            "not_modified": True,
            "term_hash": program_hash,
        }
    domain = DOMAINS[spec["domain"]]()
    deadline.check()
    result = run_analyzer(
        spec["analyzer"],
        prep.term,
        engine=spec["engine"],
        domain=domain,
        initial=_analysis_initial(prep, Lattice(domain)),
        k=spec["k"],
        loop_mode=spec["loop_mode"],
        unroll_bound=spec["unroll_bound"],
        max_visits=spec["max_visits"],
        trace=trace,
        metrics=metrics,
        cache=spec["cache"],
    )
    if spec["analyzer"] == "polyvariant":
        result = result.collapse()
    return {
        "ok": True,
        "kind": "analyze",
        "analyzer": spec["analyzer"],
        "program": spec["term"],
        "term_hash": program_hash,
        "result": result.to_dict(),
    }


def _execute_lint(
    prep: PreparedRequest,
    deadline: Deadline,
    trace: Sink,
    metrics: Metrics | None,
) -> dict:
    spec = prep.spec
    domain = DOMAINS[spec["domain"]]()
    lattice = Lattice(domain)
    # Unlike the analyze endpoint, uncovered free variables are NOT
    # topped up with ⊤ — S102 exists to report exactly those.
    initial = (
        dict(prep.corpus.initial_for(lattice))
        if prep.corpus is not None
        else {}
    )
    for name, value in spec["assume"].items():
        initial[name] = lattice.of_const(value)
    deadline.check()
    program = prep.corpus if prep.corpus is not None else spec["source"]
    # Lint runs its own front end on the source (it reads spans).
    with front_end_headroom():
        report = run_lints(
            program,
            analyzer=spec["analyzer"],
            domain=domain,
            initial=initial,
            loop_mode=spec["loop_mode"],
            unroll_bound=spec["unroll_bound"],
            max_visits=spec["max_visits"],
            semantic=not spec["syntactic_only"],
            fix=spec["fix"],
            trace=trace,
            metrics=metrics,
        )
    return {
        "ok": True,
        "kind": "lint",
        "analyzer": spec["analyzer"],
        "program": spec["term"],
        "report": report.as_dict(),
    }


def _execute_run(
    prep: PreparedRequest, deadline: Deadline, trace: Sink
) -> dict:
    spec = prep.spec
    env, store = Env(), Store()
    for name, value in sorted(spec["assume"].items()):
        loc = store.new(name)
        store.bind(loc, value)
        env = env.bind(name, loc)
    missing = free_variables(prep.term) - set(spec["assume"])
    _require(
        not missing,
        f"unbound free variables: {sorted(missing)} (use 'assume')",
    )
    deadline.check()
    interpreter = spec["interpreter"]
    if interpreter == "direct":
        answer = run_direct(
            prep.term, env=env, store=store, fuel=spec["fuel"], trace=trace
        )
    elif interpreter == "semantic-cps":
        answer = run_semantic_cps(
            prep.term, env=env, store=store, fuel=spec["fuel"], trace=trace
        )
    else:
        answer = run_syntactic_cps(
            cps_transform(prep.term), fuel=spec["fuel"], trace=trace
        )
    value = answer.value
    if not isinstance(value, int) or isinstance(value, bool):
        value = repr(value)
    return {
        "ok": True,
        "kind": "run",
        "interpreter": interpreter,
        "program": spec["term"],
        "value": value,
    }


def _execute_compare(
    prep: PreparedRequest,
    deadline: Deadline,
    trace: Sink,
    metrics: Metrics | None,
) -> dict:
    spec = prep.spec
    domain = DOMAINS[spec["domain"]]()
    initial = _analysis_initial(prep, Lattice(domain))
    deadline.check()
    report = run_comparison(
        prep.term,
        domain=domain,
        initial=initial,
        loop_mode=spec["loop_mode"],
        unroll_bound=spec["unroll_bound"],
        max_visits=spec["max_visits"],
        trace=trace,
        metrics=metrics,
        cache=spec["cache"],
        engine=spec["engine"],
    )
    deadline.check()
    # Plan-engine comparisons are three-way (pushdown is tree-only), so
    # their bodies stay engine-differential with the tree engine's
    # classic columns.
    return {
        "ok": True,
        "kind": "compare",
        "program": spec["term"],
        **report.to_dict(),
    }


def execute_prepared(
    prep: PreparedRequest,
    deadline: Deadline | None = None,
    trace: Sink = NULL_SINK,
    metrics: Metrics | None = None,
) -> dict:
    """Run a prepared request and return the JSON-ready response body.

    Failures surface as `ServeError` with their structured code.
    """
    deadline = deadline or Deadline(None)
    # A no-op outside an active request trace; under one, this is the
    # `analyze` stage of the server_timing breakdown, with the
    # plan-compile span (if the plan engine compiles) nested below.
    attrs = {
        name: prep.spec[name]
        for name in ("analyzer", "engine")
        if prep.spec.get(name) is not None
    }
    with obs_trace.span("execute", kind=prep.kind, **attrs):
        try:
            if prep.debug_sleep_ms:
                _debug_sleep(prep, deadline)
            if prep.kind == "analyze":
                return _execute_analyze(prep, deadline, trace, metrics)
            if prep.kind == "lint":
                return _execute_lint(prep, deadline, trace, metrics)
            if prep.kind == "run":
                return _execute_run(prep, deadline, trace)
            return _execute_compare(prep, deadline, trace, metrics)
        except ServeError:
            raise
        except Exception as exc:
            raise classify_exception(exc) from exc


def execute_request(
    kind: str,
    payload: dict,
    defaults: ServiceDefaults | None = None,
    deadline: Deadline | None = None,
    trace: Sink = NULL_SINK,
    metrics: Metrics | None = None,
) -> dict:
    """Validate and run one request end to end (the in-process
    equivalent of POSTing to ``/v1/<kind>``)."""
    prep = prepare_request(kind, payload, defaults)
    return execute_prepared(
        prep, deadline=deadline, trace=trace, metrics=metrics
    )
