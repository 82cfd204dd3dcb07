"""CFG/dataflow rules (D1, D2, E1): every rule proven on a
known-bad/known-good pair, and every known-bad snippet shown to be
invisible to the ported pattern rules (``only=PORTED_IDS``) — the flat
linter could not express these orderings.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.lint import PORTED_IDS, lint_source

ROOT = Path(__file__).resolve().parents[2]


def ids_of(violations):
    return sorted({v.rule for v in violations})


PERSIST = "src/repro/persist/durable.py"
SERVICE = "src/repro/service/rebalance.py"


# ======================================================================
# D1 — log-before-apply
# ======================================================================
D1_BAD = (
    "class DurableIndex:\n"
    "    def insert(self, key, tid):\n"
    "        if self._fast_path:\n"
    "            return self.inner.insert(key, tid)\n"
    "        self._wal.append({'op': 'insert'})\n"
    "        return self.inner.insert(key, tid)\n"
)

D1_GOOD = (
    "class DurableIndex:\n"
    "    def insert(self, key, tid):\n"
    "        self._wal.append({'op': 'insert'})\n"
    "        return self.inner.insert(key, tid)\n"
)


class TestD1LogBeforeApply:
    def test_branch_skipping_append_flagged(self):
        vs = lint_source(D1_BAD, PERSIST)
        assert ids_of(vs) == ["D1"]
        [v] = vs
        assert v.line == 4  # the un-logged arm, not the logged one
        assert "log-before-apply" in v.message

    def test_append_dominating_apply_is_clean(self):
        assert lint_source(D1_GOOD, PERSIST) == []

    def test_apply_param_call_flagged_without_append(self):
        src = (
            "class DurableIndex:\n"
            "    def _log_apply(self, record, apply):\n"
            "        return apply()\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D1"]

    def test_append_only_on_one_branch_flagged(self):
        src = (
            "class DurableIndex:\n"
            "    def delete(self, key):\n"
            "        if self._wal is not None:\n"
            "            self._wal.append({'op': 'delete'})\n"
            "        return self.inner.delete(key)\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D1"]
        assert vs[0].line == 5

    def test_mutation_inside_lambda_is_an_argument_not_a_site(self):
        src = (
            "class DurableIndex:\n"
            "    def insert(self, key, tid):\n"
            "        return self._log_apply(\n"
            "            {'op': 'insert'},\n"
            "            lambda: self.inner.insert(key, tid))\n"
        )
        assert lint_source(src, PERSIST) == []

    def test_unlogged_apply_many_flagged(self):
        src = (
            "class DurableIndex:\n"
            "    def apply_many(self, ops, latency_sink=None):\n"
            "        return self.inner.apply_many(ops, latency_sink)\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D1"]
        assert "self.inner.apply_many()" in vs[0].message

    def test_apply_many_after_run_records_is_clean(self):
        src = (
            "class DurableIndex:\n"
            "    def apply_many(self, ops, latency_sink=None):\n"
            "        records = runs(ops)\n"
            "        first, *rest = records\n"
            "        self._wal.append(first)\n"
            "        for record in rest:\n"
            "            self._wal.append(record)\n"
            "        return self.inner.apply_many(ops, latency_sink)\n"
        )
        assert lint_source(src, PERSIST) == []

    def test_unlogged_inner_hook_flagged(self):
        src = (
            "class DurableIndex:\n"
            "    @classmethod\n"
            "    def apply_across(cls, requests):\n"
            "        inner = [(i.inner, ops, s) for i, ops, s in requests]\n"
            "        kind = type(inner[0][0])\n"
            "        kind.apply_across(inner)\n"
            "        return apply_grouped(inner)\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D1"]
        assert [v.line for v in vs] == [6, 7]
        assert "kind.apply_across()" in vs[0].message
        assert "apply_grouped()" in vs[1].message

    def test_own_hook_is_not_an_apply_site(self):
        src = (
            "class DurableIndex:\n"
            "    def apply_many(self, ops, latency_sink=None):\n"
            "        return self.apply_across([(self, ops, latency_sink)])\n"
        )
        assert lint_source(src, PERSIST) == []

    def test_durable_apply_across_without_appends_flagged(self):
        """The real ``DurableIndex`` with its WAL appends cut out: the
        inner pass of ``apply_across`` is no longer log-dominated."""
        source = (ROOT / PERSIST).read_text()
        assert lint_source(source, PERSIST) == []
        cut, n = re.subn(r"wal\.append\((\w+)\)", r"pass  # \1", source)
        assert n >= 3
        vs = [v for v in lint_source(cut, PERSIST) if v.rule == "D1"]
        assert "apply_grouped()" in {v.message.split()[0] for v in vs}
        assert any(v.message.startswith("apply()") for v in vs)

    def test_other_classes_are_exempt(self):
        src = D1_BAD.replace("DurableIndex", "CacheIndex")
        assert lint_source(src, PERSIST) == []


# ======================================================================
# D2 — commit-point-last
# ======================================================================
D2_BAD = (
    "import shutil\n"
    "def retire(dirpath, manifest):\n"
    "    shutil.rmtree(dirpath / 'gen-0')\n"
    "    write_manifest(dirpath, manifest)\n"
)

D2_GOOD = (
    "import shutil\n"
    "def retire(dirpath, manifest):\n"
    "    write_manifest(dirpath, manifest)\n"
    "    shutil.rmtree(dirpath / 'gen-0')\n"
)


class TestD2CommitPointLast:
    def test_removal_before_commit_flagged(self):
        vs = lint_source(D2_BAD, PERSIST)
        assert ids_of(vs) == ["D2"]
        assert vs[0].line == 3
        assert "commit-point-last" in vs[0].message

    def test_commit_dominating_removal_is_clean(self):
        assert lint_source(D2_GOOD, PERSIST) == []

    def test_removal_on_branch_around_commit_flagged(self):
        src = (
            "def checkpoint(dirpath, manifest, old):\n"
            "    if manifest is not None:\n"
            "        write_manifest(dirpath, manifest)\n"
            "    old.unlink()\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D2"]

    def test_pure_teardown_function_is_exempt(self):
        src = (
            "import shutil\n"
            "def destroy(dirpath):\n"
            "    shutil.rmtree(dirpath)\n"
        )
        assert lint_source(src, PERSIST) == []

    def test_rule_scoped_to_persist(self):
        assert lint_source(D2_BAD, "src/repro/core/sweeper.py") == []


# ======================================================================
# E1 — epoch discipline (dataflow generalization of P4)
# ======================================================================
E1_BAD = (
    "def grow(service, table, key):\n"
    "    pos = table.route(key)\n"
    "    service.split_shard(pos)\n"
    "    return service.shards[pos]\n"
)

E1_GOOD = (
    "def grow(service, table, key):\n"
    "    pos = table.route(key)\n"
    "    service.split_shard(pos)\n"
    "    pos = table.route(key)\n"
    "    return service.shards[pos]\n"
)


class TestE1EpochDiscipline:
    def test_ordinal_reused_across_bump_flagged(self):
        vs = lint_source(E1_BAD, SERVICE)
        assert ids_of(vs) == ["E1"]
        assert vs[0].line == 4
        assert "epoch" in vs[0].message

    def test_rederived_ordinal_is_clean(self):
        assert lint_source(E1_GOOD, SERVICE) == []

    def test_passing_ordinal_into_the_bumper_itself_is_clean(self):
        src = (
            "def shrink(service, table, key):\n"
            "    pos = table.ordinal_of(key)\n"
            "    service.merge_shards(pos, pos + 1)\n"
        )
        assert lint_source(src, SERVICE) == []

    def test_taint_propagates_through_derived_values(self):
        src = (
            "def grow(service, table, key):\n"
            "    pos = table.route(key)\n"
            "    hint = pos + 1\n"
            "    service.split_shard(pos)\n"
            "    return use(hint)\n"
        )
        vs = lint_source(src, SERVICE)
        assert ids_of(vs) == ["E1"]
        assert vs[0].line == 5

    def test_transitive_bumper_is_recognized(self):
        src = (
            "def _grow(service, pos):\n"
            "    service.split_shard(pos)\n"
            "def control(service, table, key):\n"
            "    pos = table.route(key)\n"
            "    _grow(service, pos)\n"
            "    return use(pos)\n"
        )
        vs = lint_source(src, SERVICE)
        assert ids_of(vs) == ["E1"]
        assert vs[0].line == 6

    def test_stable_shard_ids_are_not_tainted(self):
        src = (
            "def grow(service, table, key):\n"
            "    sid = table.id_at(table.route(key))\n"
            "    service.split_shard(sid)\n"
            "    return service.shard_by_id(sid)\n"
        )
        assert lint_source(src, SERVICE) == []

    def test_loop_carried_staleness_flagged(self):
        # The epoch bump happens on iteration N; the reuse is the same
        # statement on iteration N+1.  Only flow analysis sees this.
        src = (
            "def storm(service, table, keys):\n"
            "    pos = table.route(keys[0])\n"
            "    for key in keys:\n"
            "        service.split_shard(pos)\n"
        )
        vs = lint_source(src, SERVICE)
        assert ids_of(vs) == ["E1"]
        assert vs[0].line == 4

    def test_rule_scoped_like_p4(self):
        assert lint_source(E1_BAD, "src/repro/service/sharded.py") == []
        assert lint_source(E1_BAD, "src/repro/core/bf_tree.py") == []


# ======================================================================
# the flat rule set cannot express any of these orderings
# ======================================================================
@pytest.mark.parametrize("snippet,relpath", [
    (D1_BAD, PERSIST),
    (D2_BAD, PERSIST),
    (E1_BAD, SERVICE),
], ids=["D1", "D2", "E1"])
def test_ported_rules_alone_cannot_flag_flow_bugs(snippet, relpath):
    assert lint_source(snippet, relpath, only=PORTED_IDS) == []
