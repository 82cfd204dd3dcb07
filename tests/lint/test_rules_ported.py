"""Ported pattern rules (C/P/S/L/F/X): semantics preserved from the flat
linter, now with stable short ids, plus the protocol-surface regression
tests the first lint run forced onto the books.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import Violation, lint_files, lint_repo, lint_source
from repro.analysis.lint.rules_ast import PROTOCOL_SURFACE
from repro.api import Index, as_scalar, make_index, registered_backends

ROOT = Path(__file__).resolve().parents[2]


def ids_of(violations):
    return sorted({v.rule for v in violations})


# ======================================================================
# charge-discipline (C1/C2)
# ======================================================================
class TestChargeDiscipline:
    def test_read_page_without_sequential_flagged(self):
        vs = lint_source(
            "def fetch(dev, pids):\n"
            "    for pid in pids:\n"
            "        dev.read_page(pid)\n"
        )
        assert ids_of(vs) == ["C1"]
        assert vs[0].line == 3
        assert "sequential" in vs[0].message

    def test_literal_sequential_true_flagged(self):
        vs = lint_source("def f(dev, pid):\n"
                         "    dev.read_page(pid, sequential=True)\n")
        assert ids_of(vs) == ["C2"]
        assert "random positioning" in vs[0].message

    def test_run_pattern_is_clean(self):
        assert lint_source(
            "def fetch(dev, pids):\n"
            "    for i, pid in enumerate(pids):\n"
            "        dev.read_page(pid, sequential=i > 0)\n"
        ) == []

    def test_storage_layer_is_exempt(self):
        src = "def f(dev, pid):\n    dev.read_page(pid)\n"
        assert lint_source(src, "src/repro/storage/buffer_pool.py") == []
        assert lint_source(src, "src/repro/core/bf_tree.py") != []

    def test_tests_are_exempt(self):
        src = "def f(dev, pid):\n    dev.read_page(pid)\n"
        assert lint_source(src, "tests/test_device.py") == []

    def test_float_literal_in_cpu_charge_flagged(self):
        # The bug class: a page scan counting seconds (25e-9 per tuple)
        # into a counter the stack prices per tuple.
        vs = lint_source(
            "class T:\n"
            "    def scan(self, examined):\n"
            "        self._count(\"tuples_scanned\", examined * 25e-9)\n"
        )
        assert ids_of(vs) == ["C3"]
        assert vs[0].line == 3
        assert "price_list" in vs[0].message

    def test_unknown_counter_flagged(self):
        # A charge under a name simulated time never prices (a typo
        # fails only when that path runs), or a computed one.
        vs = lint_source("def f(self, kind, n):\n"
                         "    self._count(\"hash_probe\")\n"
                         "    self._count(kind + '_probes', n)\n",
                         "src/repro/storage/device.py")
        assert [(v.rule, v.line) for v in vs] == [("C3", 2), ("C3", 3)]
        assert "IOStats field" in vs[0].message

    def test_literal_field_count_is_clean(self):
        assert lint_source(
            "import math\n"
            "def f(self, n):\n"
            "    self._count(\"hash_probes\")\n"
            "    self._count(\"key_comparisons\", math.log2(n))\n"
        ) == []

    def test_float_literal_outside_src_is_exempt(self):
        src = "def f(self):\n    self._count('nonsense', 1.5)\n"
        assert lint_source(src, "tests/test_clock.py") == []
        assert lint_source(src, "benchmarks/bench_x.py") == []


# ======================================================================
# protocol-discipline (P1/P2/P3)
# ======================================================================
class TestProtocolDiscipline:
    @pytest.mark.parametrize("probe", [
        'getattr(ix, "supports_sharding", False)',
        'getattr(ix, "size_pages", 0)',
        'hasattr(ix, "search_many")',
        'hasattr(ix, "range_scan")',
    ])
    def test_duck_typing_protocol_surface_flagged(self, probe):
        assert ids_of(lint_source(f"def f(ix):\n    return {probe}\n")) == \
            ["P1"]

    def test_non_protocol_attribute_is_clean(self):
        assert lint_source(
            'def f(obj):\n    return getattr(obj, "spill_hint", 0)\n'
        ) == []

    def test_scalar_op_without_batch_counterpart_flagged(self):
        vs = lint_source(
            "class Bad:\n"
            "    def capabilities(self):\n"
            "        return None\n"
            "    def search(self, key):\n"
            "        return None\n"
        )
        assert ids_of(vs) == ["P2"]
        assert "search_many" in vs[0].message

    def test_batch_counterpart_inherited_from_mixin_is_clean(self):
        assert lint_source(
            "from repro.api.protocol import IndexBackend\n"
            "class Ok(IndexBackend):\n"
            "    def capabilities(self):\n"
            "        return None\n"
            "    def search(self, key):\n"
            "        return None\n"
        ) == []

    def test_non_index_class_with_search_is_clean(self):
        assert lint_source(
            "class TextFinder:\n"
            "    def search(self, needle):\n"
            "        return None\n"
        ) == []

    def test_registered_backend_missing_from_conformance(self, tmp_path):
        api = tmp_path / "src" / "repro" / "api"
        api.mkdir(parents=True)
        (api / "backends.py").write_text(
            'register("bf", build_bf)\nregister("ghost", build_ghost)\n'
        )
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_api_conformance.py").write_text(
            'EXPECTED_CAPS = {"bf": dict(ordered=True)}\n'
        )
        vs = lint_repo(tmp_path)
        assert ids_of(vs) == ["P3"]
        [v] = vs
        assert '"ghost"' in v.message and "EXPECTED_CAPS" in v.message


# ======================================================================
# topology-discipline (P4)
# ======================================================================
class TestShardCaching:
    SVC = "src/repro/service/rebalance.py"

    @pytest.mark.parametrize("body", [
        "self.hot = service.shards[0]",
        "self.view = service.shards",
        "self.first = self.service.shards[i]",
        "self.pair: tuple = (service.shards[0], service.shards[1])",
    ])
    def test_caching_shards_in_self_flagged(self, body):
        src = (
            "class Controller:\n"
            "    def observe(self, service, i):\n"
            f"        {body}\n"
        )
        vs = lint_source(src, self.SVC)
        assert ids_of(vs) == ["P4"]
        assert "epoch" in vs[0].message

    def test_transient_local_read_is_clean(self):
        src = (
            "class Controller:\n"
            "    def observe(self, service):\n"
            "        for shard in service.shards:\n"
            "            shard.index.n_leaves\n"
            "        hot = service.shards[0]\n"
            "        return hot.shard_id\n"
        )
        assert lint_source(src, self.SVC) == []

    def test_topology_owners_are_exempt(self):
        src = (
            "class ShardedIndex:\n"
            "    def _admit(self, shard):\n"
            "        self.shards = self.shards + [shard]\n"
        )
        assert lint_source(src, "src/repro/service/sharded.py") == []
        assert lint_source(src, "src/repro/service/routing.py") == []
        assert ids_of(lint_source(src, self.SVC)) == ["P4"]


# ======================================================================
# seed-discipline (S1/S2/S3)
# ======================================================================
class TestSeedDiscipline:
    @pytest.mark.parametrize("snippet,rule", [
        ("import numpy as np\nrng = np.random.default_rng()\n", "S1"),
        ("from numpy.random import default_rng\nrng = default_rng()\n",
         "S1"),
        ("import random\nr = random.Random()\n", "S2"),
        ("import random\nx = random.random()\n", "S3"),
        ("import random\nrandom.seed(42)\n", "S3"),
        ("import numpy as np\nx = np.random.rand(8)\n", "S3"),
    ])
    def test_unseeded_rng_flagged(self, snippet, rule):
        assert ids_of(lint_source(snippet)) == [rule]

    @pytest.mark.parametrize("snippet", [
        "import numpy as np\nrng = np.random.default_rng(42)\n",
        "import numpy as np\nrng = np.random.default_rng(seed=7)\n",
        "import random\nr = random.Random(17)\n",
        "import numpy as np\ndef f(rng):\n    return rng.random()\n",
    ])
    def test_seeded_rng_clean(self, snippet):
        assert lint_source(snippet) == []

    def test_seed_rule_applies_to_tests_too(self):
        vs = lint_source("import random\nx = random.random()\n",
                         "tests/test_something.py")
        assert ids_of(vs) == ["S3"]


# ======================================================================
# scalar-leak (L1)
# ======================================================================
class TestScalarLeak:
    def test_hasattr_item_flagged(self):
        vs = lint_source(
            'def unwrap(k):\n'
            '    return k.item() if hasattr(k, "item") else k\n'
        )
        assert ids_of(vs) == ["L1"]
        assert "as_scalar" in vs[0].message

    def test_helper_home_module_is_exempt(self):
        src = 'def unwrap(k):\n    return hasattr(k, "item")\n'
        assert lint_source(src, "src/repro/api/results.py") == []
        bare = "def unwrap(k):\n    return k.item()\n"
        assert lint_source(bare, "src/repro/api/results.py") == []

    def test_bare_item_flagged_under_src(self):
        vs = lint_source(
            "def plan(keys):\n"
            "    return [keys[i].item() for i in range(len(keys))]\n",
            "src/repro/service/router.py",
        )
        assert ids_of(vs) == ["L1"]
        assert vs[0].line == 2
        assert "as_scalar" in vs[0].message

    @pytest.mark.parametrize("src,relpath", [
        # the shared helper is the sanctioned unwrap
        ("from repro.api.results import as_scalar\n"
         "def plan(keys):\n    return [as_scalar(k) for k in keys]\n",
         "src/repro/service/router.py"),
        # indexed .item(i) reads one element; it is not scalar unwrapping
        ("def first(arr):\n    return arr.item(0)\n",
         "src/repro/core/bf_tree.py"),
        # tests may unwrap NumPy scalars freely
        ("def unwrap(k):\n    return k.item()\n", "tests/test_service.py"),
    ])
    def test_bare_item_clean_cases(self, src, relpath):
        assert lint_source(src, relpath) == []

    def test_as_scalar_normalizes_numpy(self):
        import numpy as np

        assert as_scalar(np.int64(7)) == 7
        assert type(as_scalar(np.int64(7))) is int
        assert type(as_scalar(np.float32(1.5))) is float
        assert as_scalar(np.array(3)) == 3
        assert as_scalar("plain") == "plain"
        assert as_scalar(11) == 11


# ======================================================================
# scalar-leak (L2)
# ======================================================================
class TestBoolIdentity:
    @pytest.mark.parametrize("expr,word", [
        ("flag is False", "is False"),
        ("flag is not True", "is not True"),
        ("True is flag", "is True"),
        ("0 < flag is False", "is False"),
    ])
    def test_identity_against_bool_literal_flagged(self, expr, word):
        vs = lint_source(f"def f(flag):\n    return {expr}\n",
                         "src/repro/core/bf_tree.py")
        assert ids_of(vs) == ["L2"]
        assert vs[0].line == 2
        assert f"'{word}'" in vs[0].message
        assert "np.bool_" in vs[0].message

    @pytest.mark.parametrize("src,relpath", [
        # truthiness, None identity and type identity are sound
        ("def f(flag):\n    return not flag\n", "src/repro/core/x.py"),
        ("def f(flag):\n    return flag is None or flag is not None\n",
         "src/repro/core/x.py"),
        ("def f(v):\n    return type(v) is bool and v\n",
         "src/repro/core/x.py"),
        # equality is not identity
        ("def f(flag):\n    return flag == False\n", "src/repro/core/x.py"),
        # tests may pin exact Python bools
        ("def f(flag):\n    assert flag is True\n", "tests/test_x.py"),
    ])
    def test_clean_cases(self, src, relpath):
        assert lint_source(src, relpath) == []


# ======================================================================
# format-discipline (F1/F2)
# ======================================================================
class TestFormatDiscipline:
    @pytest.mark.parametrize("snippet", [
        "import pickle\ndef load(path):\n"
        "    with open(path, 'rb') as f:\n"
        "        return pickle.load(f)\n",
        "import pickle\ndef load(blob):\n    return pickle.loads(blob)\n",
        "from pickle import loads\ndef load(blob):\n    return loads(blob)\n",
    ])
    def test_pickle_deserialization_flagged(self, snippet):
        vs = lint_source(snippet)
        assert ids_of(vs) == ["F1"]
        assert "persist" in vs[0].message

    @pytest.mark.parametrize("mode", ["wb", "ab", "xb", "rb+", "wb+", "bw"])
    def test_binary_write_open_flagged(self, mode):
        vs = lint_source(
            f"def dump(path, blob):\n"
            f"    with open(path, {mode!r}) as f:\n"
            f"        f.write(blob)\n"
        )
        assert ids_of(vs) == ["F2"]

    @pytest.mark.parametrize("snippet", [
        "def read(path):\n    return open(path, 'rb').read()\n",
        "def dump(path, text):\n"
        "    with open(path, 'w') as f:\n"
        "        f.write(text)\n",
        "def read(path):\n    return open(path).read()\n",
    ])
    def test_reads_and_text_writes_clean(self, snippet):
        assert lint_source(snippet) == []

    def test_persist_package_is_exempt(self):
        src = ("def dump(path, blob):\n"
               "    with open(path, 'wb') as f:\n"
               "        f.write(blob)\n")
        assert lint_source(src, "src/repro/persist/wal.py") == []
        assert lint_source(src, "src/repro/core/bf_tree.py") != []

    def test_tests_and_benchmarks_are_exempt(self):
        src = "import pickle\ndef f(b):\n    return pickle.loads(b)\n"
        assert lint_source(src, "tests/test_fixture.py") == []
        assert lint_source(src, "benchmarks/bench_x.py") == []


# ======================================================================
# plumbing
# ======================================================================
def test_violation_format_is_precise():
    v = Violation("S3", "seed-discipline", "src/x.py", 12, "boom")
    assert v.format() == "src/x.py:12: [S3 seed-discipline] boom"


def test_lint_files_orders_output(tmp_path):
    a = tmp_path / "src" / "a.py"
    a.parent.mkdir()
    a.write_text("import random\nx = random.random()\ny = random.random()\n")
    vs = lint_files([a], tmp_path)
    assert [v.line for v in vs] == [2, 3]


def test_syntax_error_reported_not_raised(tmp_path):
    bad = tmp_path / "src" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("def broken(:\n")
    vs = lint_files([bad], tmp_path)
    assert ids_of(vs) == ["PE"]


# ======================================================================
# regression: the protocol-surface violations the first lint run fixed
# ======================================================================
def test_every_backend_declares_supports_sharding(pk_relation):
    for name in registered_backends():
        index = make_index(name, pk_relation, "pk", unique=True, fpp=1e-3)
        assert isinstance(index.supports_sharding, bool)
        assert index.supports_sharding == (name in ("bf", "bplus"))


def test_every_backend_declares_size_pages(pk_relation):
    for name in registered_backends():
        index = make_index(name, pk_relation, "pk", unique=True, fpp=1e-3)
        assert isinstance(index.size_pages, int)
        assert index.size_pages >= 0


def test_protocol_surface_covers_sharding_and_size():
    assert "supports_sharding" in PROTOCOL_SURFACE
    assert "size_pages" in PROTOCOL_SURFACE
    assert "supports_sharding" in Index.__annotations__
    assert isinstance(Index.size_pages, property)


def test_protocol_surface_covers_checkpoint_hooks():
    assert "snapshot_state" in PROTOCOL_SURFACE
    assert "restore_state" in PROTOCOL_SURFACE
    vs = lint_source('def f(ix):\n    return hasattr(ix, "snapshot_state")\n')
    assert ids_of(vs) == ["P1"]
