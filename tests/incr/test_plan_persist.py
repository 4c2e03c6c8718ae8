"""Stores that still hold rows of kinds nothing writes any more.

Compiled plans and sub-term summaries are no longer persisted, but a
store file written while they were still holds their rows: kind
``"plan"`` under a ``plan/<codec>/<engine>/<store>`` cfg, and kind
``"sub"`` under a hex config digest with hex subject and judgment
digests.  Those rows must stay ordinary data: they survive reopening
the store, read back byte for byte, and show up under their own kind
in the summary (`tests/incr/test_store.py` checks that `gc` evicts
them).  Nothing bumps the schema for them, so a server restarted on
such a file keeps its ``resp`` rows.
"""

from repro.incr.store import KIND_RESPONSE, IncrStore

#: ``(cfg, kind, subject, judgment, payload)`` rows as the old plan
#: tier and the old sub-term summary recorder wrote them.
LEGACY_ROWS = (
    ("plan/1/2/1", "plan", "subject", "anf", '{"anf": 1}'),
    ("plan/1/2/1", "plan", "subject", "cps", '{"cps": 22}'),
    ("3f" * 20, "sub", "a1" * 20, "b2" * 20, '{"answer": [1, [], []]}'),
    ("3f" * 20, "sub", "c3" * 20, "d4" * 20, '{"answer": [2, [], []]}'),
)

#: A response row written alongside them.
RESPONSE_ROW = ("resp/0", KIND_RESPONSE, "key", "-", '{"ok": true}')


def _write_legacy_rows(store):
    for row in LEGACY_ROWS + (RESPONSE_ROW,):
        store.put(*row)


class TestTier:
    def test_rows_survive_reopen(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            _write_legacy_rows(store)
        with IncrStore(path) as store:
            for *key, payload in LEGACY_ROWS + (RESPONSE_ROW,):
                assert store.get(*key) == payload

    def test_store_summary_breaks_out_plan_kind(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            _write_legacy_rows(store)
        with IncrStore(path) as store:
            by_kind = store.summary()["by_kind"]
        for kind in ("plan", "sub", KIND_RESPONSE):
            payloads = [
                row[4]
                for row in LEGACY_ROWS + (RESPONSE_ROW,)
                if row[1] == kind
            ]
            assert by_kind[kind] == {
                "entries": len(payloads),
                "payload_bytes": sum(map(len, payloads)),
            }
