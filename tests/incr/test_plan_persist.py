"""Stores that still hold ``kind=plan`` rows.

Compiled plans are no longer persisted (`PlanCache` is in-memory
only), but a store file written while they were still holds rows of
kind ``"plan"`` under a ``plan/<codec>/<engine>/<store>`` cfg.  Those
rows must stay ordinary data: they survive reopening the store, read
back byte for byte, and show up under their own kind in the summary
(`tests/incr/test_store.py` checks that `gc` evicts them).
"""

from repro.incr.store import IncrStore

#: The cfg string and row kind the old plan tier wrote.
LEGACY_CFG = "plan/1/2/1"
LEGACY_KIND = "plan"


def _write_legacy_rows(store):
    store.put(LEGACY_CFG, LEGACY_KIND, "subject", "anf", '{"anf": 1}')
    store.put(LEGACY_CFG, LEGACY_KIND, "subject", "cps", '{"cps": 22}')


class TestTier:
    def test_rows_survive_reopen(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            _write_legacy_rows(store)
        with IncrStore(path) as store:
            anf = store.get(LEGACY_CFG, LEGACY_KIND, "subject", "anf")
            cps = store.get(LEGACY_CFG, LEGACY_KIND, "subject", "cps")
            assert anf == '{"anf": 1}'
            assert cps == '{"cps": 22}'

    def test_store_summary_breaks_out_plan_kind(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            _write_legacy_rows(store)
        with IncrStore(path) as store:
            by_kind = store.summary()["by_kind"]
            assert by_kind[LEGACY_KIND]["entries"] == 2
            assert by_kind[LEGACY_KIND]["payload_bytes"] == len(
                '{"anf": 1}'
            ) + len('{"cps": 22}')
