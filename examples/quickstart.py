#!/usr/bin/env python
"""Quickstart: build a BF-Tree, probe it, and compare against a B+-Tree.

Walks through the library's core loop:

1. generate an ordered relation (the paper's synthetic relation R),
2. bulk load a BF-Tree at a chosen false-positive probability,
3. bind it to a simulated storage stack (index in memory, data on SSD),
4. replay a probe set through the batch-probe engine (``search_many``,
   which ``run_probes`` drives; a single ``search`` is a batch of one)
   and compare latency against the exact B+-Tree baseline,
5. run a range scan.

Run with::

    python examples/quickstart.py

See the root README.md for install instructions, the package-layout map
(core/storage/workloads/harness/service) and the sharded-service
quickstart (``repro serve-bench`` / ``run_service``).
"""

from repro import BFTree, BFTreeConfig, build_stack
from repro.baselines import BPlusTree
from repro.harness import run_probes, us
from repro.workloads import point_probes, synthetic


def main() -> None:
    # 1. An ordered relation: 64k tuples of 256 bytes, unique primary key.
    relation = synthetic.generate(n_tuples=65536)
    print(f"relation: {relation.ntuples} tuples, {relation.npages} pages "
          f"({relation.size_bytes / 2**20:.0f} MB)")

    # 2. A BF-Tree at 0.1% false-positive probability...
    bf_tree = BFTree.bulk_load(
        relation, "pk", BFTreeConfig(fpp=1e-3), unique=True
    )
    # ... and the exact baseline.
    bp_tree = BPlusTree.bulk_load(relation, "pk", unique=True)
    print(f"BF-Tree:  {bf_tree.size_pages} index pages, "
          f"height {bf_tree.height}")
    print(f"B+-Tree:  {bp_tree.size_pages} index pages, "
          f"height {bp_tree.height}")
    print(f"capacity gain: {bp_tree.size_pages / bf_tree.size_pages:.1f}x")

    # 3. A single probe, step by step, on an explicit storage stack.
    stack = build_stack("MEM/SSD")
    bf_tree.bind(stack)
    result = bf_tree.search(12345)
    print(f"\nsearch(12345): found={result.found} tid={result.tids} "
          f"pages_read={result.pages_read} "
          f"false_pages={result.false_pages} "
          f"latency={us(stack.elapsed()):.1f} us")
    bf_tree.unbind()

    # 4. A measured probe batch through the harness: run_probes replays
    #    the whole probe set as one search_many call, which tests each
    #    touched leaf's filters for all of its keys in one vectorized
    #    pass.  The simulated numbers equal probing key by key.
    probes = point_probes(relation, "pk", n_probes=500, hit_rate=1.0)
    for name, index in (("BF-Tree", bf_tree), ("B+-Tree", bp_tree)):
        stats = run_probes(index, probes, "MEM/SSD")
        print(f"{name}: avg latency {us(stats.avg_latency):.1f} us, "
              f"false reads/search {stats.false_reads_per_search:.3f}, "
              f"hit rate {stats.hit_rate:.0%} over {stats.n_probes} probes")

    # 5. Range scan: the BF-Tree walks its leaf chain; overhead is the
    #    boundary partitions read in full.
    bf_tree.bind(build_stack("MEM/SSD"))
    scan = bf_tree.range_scan(10_000, 12_000)
    print(f"\nrange_scan(10000, 12000): {scan.matches} tuples from "
          f"{scan.pages_read} pages across {scan.leaves_visited} leaves")
    bf_tree.unbind()


if __name__ == "__main__":
    main()
