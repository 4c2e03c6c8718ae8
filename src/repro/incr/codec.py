"""Encoding analysis judgments and answers for the persistent store.

A persisted summary must survive two hostile boundaries:

- **Process death.** Nothing that depends on object identity —
  ``id()``-keyed memo keys, cached hashes — can be
  written to disk.  Summaries are serialized as JSON token trees whose
  only node references are *content digests plus positions*.
- **Program edits.** A summary recorded against one program object
  tree is replayed against a different one.  Replaying must hand the
  analyzer the *exact node objects of the new program* (the analyzers
  key their active paths and memos on object identity), so every node
  reference is resolved against the probe-time judgment: relative to
  the judgment's own sub-term (``rel``), through a closure found in
  the judgment's entry store (``sref``), or through a continuation
  frame of the judgment's kont (``kref``).  A reference that cannot
  be resolved that way makes the summary unusable here and the entry
  is skipped — never guessed.

Soundness inherits from PR 2's eval-memo argument: a summary is
persisted exactly when the in-memory memo stored it (the taint check
passed, so the answer was derived without consulting the judgment's
context), and its key carries everything the answer can depend on —
sub-term structure, the entire entry store, the kont, and the
analyzer's program-global top value (loop cuts inject it).  The
footprint travels as a set of *node digests*; a probe rejects a
persisted summary when any digest matches a node on the active path.
That is an over-approximation of PR 2's exact judgment-key check —
over-rejection only costs work (the analyzer recomputes, which is
bit-identical by the memo invariant), never correctness.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Hashable, Iterator, Mapping

from repro.analysis.common import (
    A_DEC,
    A_DECK,
    A_INC,
    A_INCK,
    A_STOP,
    AAnswer,
    AbsClo,
    AbsCo,
    AbsCpsClo,
    AFrame,
    AnalysisStats,
)
from repro.domains import constprop, interval, parity, sign, unit
from repro.domains.absval import AbsVal
from repro.domains.store import AbsStore
from repro.incr.hash import Path, TermHasher, iter_nodes, resolve_path

#: Layout version of everything this module writes; folded into every
#: store key so a codec change invalidates cleanly.
CODEC_SCHEMA = 2


class Unencodable(Exception):
    """The value cannot be represented portably; skip the entry."""


# ----------------------------------------------------------------------
# Domain elements
# ----------------------------------------------------------------------

_SINGLETONS: tuple[tuple[str, Any], ...] = (
    ("cp.bot", constprop.BOT),
    ("cp.top", constprop.TOP),
    ("iv.bot", interval.INT_BOT),
    ("par.bot", parity.PAR_BOT),
    ("par.even", parity.EVEN),
    ("par.odd", parity.ODD),
    ("par.top", parity.PAR_TOP),
    ("sg.bot", sign.SIGN_BOT),
    ("sg.neg", sign.NEG),
    ("sg.zero", sign.ZERO),
    ("sg.pos", sign.POS),
    ("sg.top", sign.SIGN_TOP),
    ("un.bot", unit.UNIT_BOT),
    ("un.top", unit.UNIT_TOP),
)
_SINGLETON_BY_ID = {id(obj): name for name, obj in _SINGLETONS}
_SINGLETON_BY_NAME = {name: obj for name, obj in _SINGLETONS}


def elem_token(elem: Hashable) -> Any:
    """A JSON token for a domain element.

    Domains compare their extremes by identity (``a is TOP``), so the
    decoder must hand back the module singletons — elements are
    encoded by *registry name*, never pickled.
    """
    name = _SINGLETON_BY_ID.get(id(elem))
    if name is not None:
        return ["s", name]
    if type(elem) is int:
        return ["i", elem]
    if isinstance(elem, interval.Interval):
        return ["iv", elem.lo, elem.hi]
    raise Unencodable(f"domain element {elem!r}")


def elem_decode(token: Any) -> Hashable:
    """Inverse of :func:`elem_token`."""
    kind = token[0]
    if kind == "s":
        return _SINGLETON_BY_NAME[token[1]]
    if kind == "i":
        return token[1]
    if kind == "iv":
        return interval.Interval(token[1], token[2])
    raise Unencodable(f"element token {token!r}")


def domain_token(domain: Any) -> str:
    """A stable identifier for a domain configuration."""
    token = domain.name
    bound = getattr(domain, "bound", None)
    if bound is not None:
        token += f"/{bound}"
    return token


# ----------------------------------------------------------------------
# Node tables
# ----------------------------------------------------------------------


class NodeTable:
    """Positions and digests for every node an analysis can judge.

    Roots are the program tree plus the body of every closure (or
    continuation) in the initial store — together they cover every
    node any derivation can reach, since new closures are only ever
    built from nodes of those trees.  Node objects are pinned so the
    ``id()``-keyed lookups stay stable for the table's lifetime.
    """

    def __init__(self, hasher: TermHasher | None = None) -> None:
        # `is not None`: an empty TermHasher is falsy (it has a
        # __len__), and a caller's shared one must still be kept.
        self.hasher = hasher if hasher is not None else TermHasher()
        #: id(node) -> (root index, path, node)
        self.by_id: dict[int, tuple[int, Path, Any]] = {}
        self.roots: list[Any] = []

    def add_root(self, root: Any) -> int:
        """Index ``root``'s sub-tree; returns its root index."""
        index = len(self.roots)
        self.roots.append(root)
        for path, node in iter_nodes(root):
            # First position wins: with hash-consed sharing a node can
            # appear at several positions, and any stable one will do
            # for digesting; identity-sensitive resolution never goes
            # through by_id alone.
            self.by_id.setdefault(id(node), (index, path, node))
        return index

    def add_store_roots(self, store: AbsStore) -> None:
        """Index the closure/kont bodies of an initial store."""
        for _, value in sorted(
            store.items(), key=lambda item: str(item[0])
        ):
            for clo in _closures_of_value(value):
                body = getattr(clo, "body", None)
                if body is not None and id(body) not in self.by_id:
                    self.add_root(body)

    def digest_of_id(self, node_id: int) -> str | None:
        """Hex structure digest for a node id the table knows."""
        info = self.by_id.get(node_id)
        if info is None:
            return None
        return self.hasher.hex(info[2])

    def node_of_id(self, node_id: int) -> Any | None:
        info = self.by_id.get(node_id)
        return None if info is None else info[2]


def _closures_of_value(value: AbsVal) -> Iterator[Hashable]:
    yield from value.clos
    yield from value.konts


# ----------------------------------------------------------------------
# The judgment codec
# ----------------------------------------------------------------------

_KONT_KINDS = ("semantic-cps",)


class JudgmentCodec:
    """Per-analyzer-run encoder/decoder for judgments and answers."""

    def __init__(self, analyzer: Any, table: NodeTable) -> None:
        self.analyzer = analyzer
        self.kind = analyzer.analyzer_name
        self.table = table
        self.hasher = table.hasher
        self.lattice = analyzer.lattice
        self._store_digests: dict[AbsStore, str] = {}
        self._kont_digests: dict[tuple, str] = {}
        self._clo_digests: dict[int, str] = {}
        self.top_hex = self._top_digest()

    # -- configuration ---------------------------------------------------

    def config_token(self) -> dict:
        """Everything the answer semantics depend on besides the
        judgment itself (folded into every store key)."""
        analyzer = self.analyzer
        token = {
            "codec": CODEC_SCHEMA,
            "analyzer": self.kind,
            "domain": domain_token(self.lattice.domain),
            "engine": "tree",
            "top": self.top_hex,
        }
        k = getattr(analyzer, "k", None)
        if k is not None:
            token["k"] = k
        loop_mode = getattr(analyzer, "loop_mode", None)
        if loop_mode is not None:
            token["loop_mode"] = loop_mode
        unroll = getattr(analyzer, "unroll_bound", None)
        if unroll is not None:
            token["unroll_bound"] = unroll
        return token

    def config_hex(self) -> str:
        return _digest_json(self.config_token())

    def _top_digest(self) -> str:
        top = self.analyzer.top_value
        try:
            return _digest_json(self._value_content(top))
        except Unencodable:
            return "unencodable"

    # -- content digests (store keys; need not be resolvable) ------------

    def _clo_content(self, clo: Hashable) -> Any:
        if isinstance(clo, AbsClo):
            return ["clo", clo.param, self.hasher.hex(clo.body)]
        if isinstance(clo, AbsCpsClo):
            return [
                "cpsclo", clo.param, clo.kparam, self.hasher.hex(clo.body)
            ]
        if isinstance(clo, AbsCo):
            return ["co", clo.param, self.hasher.hex(clo.body)]
        if clo is A_STOP:
            return ["stop"]
        if clo is A_INC or clo is A_DEC or clo is A_INCK or clo is A_DECK:
            return ["tag", clo.tag]
        if isinstance(clo, AFrame):
            return ["af", clo.name, self.hasher.hex(clo.body)]
        if type(clo).__name__ == "PolyClo":
            return [
                "pclo",
                clo.param,
                self.hasher.hex(clo.body),
                [[n, list(c)] for n, c in clo.env],
            ]
        raise Unencodable(f"closure {clo!r}")

    def clo_hex(self, clo: Hashable) -> str:
        got = self._clo_digests.get(id(clo))
        if got is None:
            got = _digest_json(self._clo_content(clo))
            self._clo_digests[id(clo)] = got
        return got

    def _value_content(self, value: AbsVal) -> Any:
        return [
            elem_token(value.num),
            sorted(self.clo_hex(c) for c in value.clos),
            sorted(self.clo_hex(k) for k in value.konts),
        ]

    def _store_key_token(self, key: Any) -> Any:
        if isinstance(key, str):
            return key
        if type(key).__name__ == "CtxVar":
            return ["cv", key.name, list(key.ctx)]
        raise Unencodable(f"store key {key!r}")

    def store_hex(self, store: AbsStore) -> str:
        got = self._store_digests.get(store)
        if got is None:
            content = sorted(
                (
                    json.dumps(self._store_key_token(k)),
                    self._value_content(v),
                )
                for k, v in store.items()
            )
            got = _digest_json(content)
            self._store_digests[store] = got
        return got

    def kont_hex(self, kont: tuple) -> str:
        got = self._kont_digests.get(kont)
        if got is None:
            got = _digest_json(
                [[f.name, self.hasher.hex(f.body)] for f in kont]
            )
            self._kont_digests[kont] = got
        return got

    # -- judgment keys ---------------------------------------------------

    def split_key(self, memo_key: tuple) -> tuple[int, tuple, AbsStore, Any]:
        """``(node id, kont, entry store, extra)`` from a memo key."""
        if self.kind == "semantic-cps":
            nid, kont, store = memo_key
            return nid, kont, store, None
        if self.kind == "direct-kcfa":
            nid, envfs, ctx, store = memo_key
            return nid, (), store, (envfs, ctx)
        nid, store = memo_key
        return nid, (), store, None

    def judgment_key(self, memo_key: tuple) -> tuple[str, str] | None:
        """``(subject digest, judgment digest)`` for a memo key, or
        None when the subject node is unknown to the table."""
        nid, kont, store, extra = self.split_key(memo_key)
        subject_hex = self.table.digest_of_id(nid)
        if subject_hex is None:
            return None
        parts: list[Any] = [subject_hex, self.store_hex(store)]
        if kont:
            parts.append(self.kont_hex(kont))
        if extra is not None:
            envfs, ctx = extra
            parts.append(sorted([n, list(c)] for n, c in envfs))
            parts.append(list(ctx))
        return subject_hex, _digest_json(parts)

    # -- node references (resolvable) ------------------------------------

    def _node_ref(
        self,
        node: Any,
        subject_pos: tuple[int, Path],
        store: AbsStore,
        kont: tuple,
    ) -> Any:
        pos = self.table.by_id.get(id(node))
        if pos is None:
            raise Unencodable("node outside the table")
        root, path, _ = pos
        s_root, s_path = subject_pos
        if root == s_root and path[: len(s_path)] == s_path:
            return ["rel", list(path[len(s_path):])]
        for index, frame in enumerate(kont):
            fpos = self.table.by_id.get(id(frame.body))
            if (
                fpos is not None
                and fpos[0] == root
                and path[: len(fpos[1])] == fpos[1]
            ):
                return ["kref", index, list(path[len(fpos[1]):])]
        for key, value in store.items():
            for clo in _closures_of_value(value):
                body = getattr(clo, "body", None)
                if body is None:
                    continue
                bpos = self.table.by_id.get(id(body))
                if (
                    bpos is not None
                    and bpos[0] == root
                    and path[: len(bpos[1])] == bpos[1]
                ):
                    return [
                        "sref",
                        self._store_key_token(key),
                        self.clo_hex(clo),
                        list(path[len(bpos[1]):]),
                    ]
        raise Unencodable("node not reachable from judgment")

    def _resolve_ref(
        self,
        token: Any,
        subject: Any,
        store: AbsStore,
        kont: tuple,
    ) -> Any:
        kind = token[0]
        try:
            if kind == "rel":
                return resolve_path(subject, tuple(token[1]))
            if kind == "kref":
                return resolve_path(kont[token[1]].body, tuple(token[2]))
            if kind == "sref":
                key = self._decode_store_key(token[1])
                value = store.get(key)
                for clo in _closures_of_value(value):
                    if (
                        getattr(clo, "body", None) is not None
                        and self.clo_hex(clo) == token[2]
                    ):
                        return resolve_path(clo.body, tuple(token[3]))
        except (IndexError, TypeError):
            raise Unencodable(f"dangling ref {token!r}") from None
        raise Unencodable(f"unresolvable ref {token!r}")

    def _decode_store_key(self, token: Any) -> Any:
        if isinstance(token, str):
            return token
        if token[0] == "cv":
            from repro.analysis.polyvariant import CtxVar

            return CtxVar(token[1], tuple(token[2]))
        raise Unencodable(f"store key token {token!r}")

    # -- values and answers ----------------------------------------------

    def _encode_clo(self, clo: Hashable, ctx: tuple) -> Any:
        if isinstance(clo, AbsClo):
            return ["clo", clo.param, self._node_ref(clo.body, *ctx)]
        if isinstance(clo, AbsCpsClo):
            return [
                "cpsclo",
                clo.param,
                clo.kparam,
                self._node_ref(clo.body, *ctx),
            ]
        if isinstance(clo, AbsCo):
            return ["co", clo.param, self._node_ref(clo.body, *ctx)]
        if clo is A_STOP:
            return ["stop"]
        if clo is A_INC or clo is A_DEC or clo is A_INCK or clo is A_DECK:
            return ["tag", clo.tag]
        if isinstance(clo, AFrame):
            return ["af", clo.name, self._node_ref(clo.body, *ctx)]
        if type(clo).__name__ == "PolyClo":
            return [
                "pclo",
                clo.param,
                self._node_ref(clo.body, *ctx),
                [[n, list(c)] for n, c in clo.env],
            ]
        raise Unencodable(f"closure {clo!r}")

    def _decode_clo(self, token: Any, ctx: tuple) -> Hashable:
        kind = token[0]
        if kind == "clo":
            return AbsClo(token[1], self._resolve_ref(token[2], *ctx))
        if kind == "cpsclo":
            return AbsCpsClo(
                token[1], token[2], self._resolve_ref(token[3], *ctx)
            )
        if kind == "co":
            return AbsCo(token[1], self._resolve_ref(token[2], *ctx))
        if kind == "stop":
            return A_STOP
        if kind == "tag":
            return {
                "inc": A_INC, "dec": A_DEC, "inck": A_INCK, "deck": A_DECK
            }[token[1]]
        if kind == "af":
            return AFrame(token[1], self._resolve_ref(token[2], *ctx))
        if kind == "pclo":
            from repro.analysis.polyvariant import PolyClo

            return PolyClo(
                token[1],
                self._resolve_ref(token[2], *ctx),
                tuple((n, tuple(c)) for n, c in token[3]),
            )
        raise Unencodable(f"closure token {token!r}")

    def encode_value(self, value: AbsVal, ctx: tuple) -> Any:
        if value == self.analyzer.top_value:
            return ["top"]
        return [
            "v",
            elem_token(value.num),
            [self._encode_clo(c, ctx) for c in _sorted_clos(self, value.clos)],
            [self._encode_clo(k, ctx) for k in _sorted_clos(self, value.konts)],
        ]

    def decode_value(self, token: Any, ctx: tuple) -> AbsVal:
        if token[0] == "top":
            return self.analyzer.top_value
        return AbsVal(
            elem_decode(token[1]),
            frozenset(self._decode_clo(t, ctx) for t in token[2]),
            frozenset(self._decode_clo(t, ctx) for t in token[3]),
        )

    def encode_store(
        self, out: AbsStore, entry: AbsStore, ctx: tuple
    ) -> Any:
        """Encode ``out`` as a delta over the judgment's entry store
        (stores only grow along a derivation); falls back to a full
        encoding if that ever fails to hold."""
        delta = []
        full = False
        for key, value in entry.items():
            if out.get(key) != value:
                full = True
                break
        items = (
            out.items()
            if full
            else (
                (k, v) for k, v in out.items() if entry.get(k) != v
            )
        )
        for key, value in items:
            delta.append(
                [
                    json.dumps(self._store_key_token(key)),
                    self.encode_value(value, ctx),
                ]
            )
        delta.sort(key=lambda pair: pair[0])
        return ["full" if full else "delta", delta]

    def decode_store(
        self, token: Any, entry: AbsStore, ctx: tuple
    ) -> AbsStore:
        table: dict[Any, AbsVal] = (
            {} if token[0] == "full" else dict(entry.items())
        )
        for key_json, value_token in token[1]:
            key = self._decode_store_key(json.loads(key_json))
            table[key] = self.decode_value(value_token, ctx)
        return AbsStore(self.lattice, table)

    def encode_answer(self, answer: Any, memo_key: tuple) -> Any:
        nid, kont, entry_store, _ = self.split_key(memo_key)
        info = self.table.by_id.get(nid)
        if info is None:
            raise Unencodable("judgment subject unknown")
        ctx = ((info[0], info[1]), entry_store, kont)
        if isinstance(answer, AAnswer):
            return [
                "aa",
                self.encode_value(answer.value, ctx),
                self.encode_store(answer.store, entry_store, ctx),
            ]
        if (
            isinstance(answer, tuple)
            and len(answer) == 2
            and isinstance(answer[0], AbsVal)
        ):
            return [
                "vs",
                self.encode_value(answer[0], ctx),
                self.encode_store(answer[1], entry_store, ctx),
            ]
        raise Unencodable(f"answer {answer!r}")

    def decode_answer(self, token: Any, memo_key: tuple) -> Any:
        nid, kont, entry_store, _ = self.split_key(memo_key)
        subject = self.table.node_of_id(nid)
        if subject is None:
            raise Unencodable("judgment subject unknown")
        ctx = (subject, entry_store, kont)
        value = self.decode_value(token[1], ctx)
        store = self.decode_store(token[2], entry_store, ctx)
        if token[0] == "aa":
            return AAnswer(value, store)
        return (value, store)

    # -- whole entries ---------------------------------------------------

    def encode_entry(
        self, memo_key: tuple, answer: Any, marks: frozenset[str]
    ) -> str:
        """Serialize one memo entry (answer + footprint digests)."""
        return json.dumps(
            {
                "a": self.encode_answer(answer, memo_key),
                "fp": sorted(marks),
            },
            separators=(",", ":"),
        )

    def decode_entry(
        self, payload: str, memo_key: tuple
    ) -> tuple[Any, frozenset[str]]:
        data = json.loads(payload)
        answer = self.decode_answer(data["a"], memo_key)
        return answer, frozenset(data["fp"])

    def footprint_marks(
        self, fp_keys: frozenset, fp_marks: frozenset[str]
    ) -> frozenset[str] | None:
        """The digest form of a footprint, or None when a key's node
        is unknown (the entry cannot be persisted safely)."""
        marks = set(fp_marks)
        for key in fp_keys:
            digest = self.table.digest_of_id(key[0])
            if digest is None:
                return None
            marks.add(digest)
        return frozenset(marks)


def _sorted_clos(codec: JudgmentCodec, clos: frozenset) -> list:
    return sorted(clos, key=codec.clo_hex)


def _digest_json(token: Any) -> str:
    payload = json.dumps(token, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:40]


# ----------------------------------------------------------------------
# Whole-run (root) summaries
# ----------------------------------------------------------------------

_STATS_FIELDS = (
    "visits",
    "loop_cuts",
    "max_depth",
    "returns_analyzed",
    "joins",
    "widenings",
    "max_store_size",
)


def encode_stats(stats: AnalysisStats) -> dict:
    return {name: getattr(stats, name) for name in _STATS_FIELDS}


def decode_stats(data: Mapping[str, int]) -> AnalysisStats:
    return AnalysisStats(**{name: data[name] for name in _STATS_FIELDS})
