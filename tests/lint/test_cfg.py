"""CFG construction, dominance, and dataflow-framework unit tests."""

import ast

from repro.analysis.lint.cfg import (
    EXC,
    NORMAL,
    build_cfg,
    iter_functions,
    walk_no_nested,
)
from repro.analysis.lint.dataflow import forward


def cfg_of(source):
    tree = ast.parse(source)
    _cls, func = next(iter_functions(tree))
    return build_cfg(func)


def node_at(cfg, line):
    [node] = [n for n in cfg.nodes if n.kind == "stmt" and n.line == line]
    return node


class TestConstruction:
    def test_straight_line_chain(self):
        cfg = cfg_of("def f():\n    a = 1\n    b = 2\n    return b\n")
        n2, n3, n4 = node_at(cfg, 2), node_at(cfg, 3), node_at(cfg, 4)
        assert cfg.succs[n2.idx] == {n3.idx: NORMAL}
        assert cfg.succs[n3.idx] == {n4.idx: NORMAL}
        assert cfg.succs[n4.idx] == {cfg.exit: NORMAL}

    def test_branch_and_join(self):
        cfg = cfg_of(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    return x\n"
        )
        head, join = node_at(cfg, 2), node_at(cfg, 6)
        assert set(cfg.succs[head.idx]) == {node_at(cfg, 3).idx,
                                            node_at(cfg, 5).idx}
        assert cfg.preds[join.idx] == {node_at(cfg, 3).idx,
                                       node_at(cfg, 5).idx}

    def test_loop_back_edge(self):
        cfg = cfg_of("def f(xs):\n    for x in xs:\n        use(x)\n")
        head, body = node_at(cfg, 2), node_at(cfg, 3)
        assert head.idx in cfg.succs[body.idx]
        assert cfg.exit in cfg.succs[head.idx]

    def test_call_gets_exception_edge_to_raise_exit(self):
        cfg = cfg_of("def f(x):\n    y = risky(x)\n    return y\n")
        node = node_at(cfg, 2)
        assert cfg.succs[node.idx].get(cfg.raise_exit) == EXC

    def test_plain_assignment_has_no_exception_edge(self):
        cfg = cfg_of("def f(x):\n    y = x\n    return y\n")
        node = node_at(cfg, 2)
        assert cfg.raise_exit not in cfg.succs[node.idx]

    def test_catch_all_handler_intercepts_raise(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    try:\n"
            "        y = risky(x)\n"
            "    except Exception:\n"
            "        y = 0\n"
            "    return y\n"
        )
        body = node_at(cfg, 3)
        assert cfg.raise_exit not in cfg.succs[body.idx]
        heads = [n for n in cfg.nodes if n.kind == "except"]
        assert len(heads) == 1
        assert cfg.succs[body.idx].get(heads[0].idx) == EXC

    def test_narrow_handler_still_reaches_raise_exit(self):
        cfg = cfg_of(
            "def f(x):\n"
            "    try:\n"
            "        y = risky(x)\n"
            "    except ValueError:\n"
            "        y = 0\n"
            "    return y\n"
        )
        body = node_at(cfg, 3)
        heads = [n for n in cfg.nodes if n.kind == "except"]
        assert cfg.succs[body.idx].get(heads[0].idx) == EXC
        assert cfg.succs[body.idx].get(cfg.raise_exit) == EXC

    def test_with_scopes_recorded(self):
        cfg = cfg_of(
            "def f(svc, sid):\n"
            "    with svc.locked(sid):\n"
            "        with quiet(svc):\n"
            "            replay(sid)\n"
            "    after(sid)\n"
        )
        inner = node_at(cfg, 4)
        assert inner.with_scopes == ("svc.locked", "quiet")
        assert node_at(cfg, 5).with_scopes == ()

    def test_lambda_bodies_not_walked(self):
        tree = ast.parse("x = run(lambda: inner.insert(1))\n")
        names = [n.func.attr for n in walk_no_nested(tree)
                 if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute)]
        assert names == []  # inner.insert is inside the lambda body


class TestDominance:
    def test_straight_line(self):
        cfg = cfg_of("def f():\n    a = 1\n    b = 2\n    return b\n")
        dom = cfg.dominators()
        assert node_at(cfg, 2).idx in dom[node_at(cfg, 4).idx]

    def test_neither_branch_arm_dominates_the_join(self):
        cfg = cfg_of(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    return x\n"
        )
        dom = cfg.dominators()
        join = node_at(cfg, 6).idx
        assert node_at(cfg, 3).idx not in dom[join]
        assert node_at(cfg, 5).idx not in dom[join]
        assert node_at(cfg, 2).idx in dom[join]

    def test_statement_guarded_by_if_does_not_dominate_after(self):
        cfg = cfg_of(
            "def f(c):\n"
            "    if c:\n"
            "        prepare()\n"
            "    commit()\n"
        )
        dom = cfg.dominators()
        assert node_at(cfg, 3).idx not in dom[node_at(cfg, 4).idx]

    def test_unreachable_code_is_vacuously_dominated(self):
        cfg = cfg_of(
            "def f():\n"
            "    return 1\n"
            "    apply()\n"
        )
        dom = cfg.dominators()
        dead = node_at(cfg, 3).idx
        # Dead code keeps the full universe, so "must be dominated by X"
        # rules skip it rather than flagging it.
        assert len(dom[dead]) == len(cfg.nodes)


class TestDataflowFramework:
    def test_facts_generated_at_unchanged_in_state_still_propagate(self):
        # Regression: the worklist must process every node at least
        # once.  A transfer that *generates* a fact at a node whose
        # in-state never changes from bottom must still reach its
        # successors.
        cfg = cfg_of("def f():\n    x = make()\n    use(x)\n    return x\n")
        gen = node_at(cfg, 2).idx

        def transfer(node, state, kind):
            new = dict(state)
            if node.idx == gen:
                new["x"] = 1
            return new

        ins = forward(cfg, transfer)
        assert ins[node_at(cfg, 3).idx] == {"x": 1}
        assert ins[cfg.exit] == {"x": 1}

    def test_join_takes_pointwise_max(self):
        cfg = cfg_of(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    return x\n"
        )
        lo, hi = node_at(cfg, 3).idx, node_at(cfg, 5).idx

        def transfer(node, state, kind):
            new = dict(state)
            if node.idx == lo:
                new["v"] = 1
            elif node.idx == hi:
                new["v"] = 2
            return new

        ins = forward(cfg, transfer)
        assert ins[node_at(cfg, 6).idx]["v"] == 2

    def test_edge_kind_sensitive_transfer(self):
        cfg = cfg_of("def f():\n    x = make()\n    return x\n")
        gen = node_at(cfg, 2).idx

        def transfer(node, state, kind):
            new = dict(state)
            if node.idx == gen and kind != EXC:
                new["x"] = 1
            return new

        ins = forward(cfg, transfer)
        assert ins[cfg.exit] == {"x": 1}
        assert ins[cfg.raise_exit] == {}

    def test_loop_fixpoint_terminates_and_converges(self):
        cfg = cfg_of(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        touch(x)\n"
            "    return 0\n"
        )
        body = node_at(cfg, 3).idx

        def transfer(node, state, kind):
            new = dict(state)
            if node.idx == body:
                new["n"] = min(new.get("n", 0) + 1, 5)
            return new

        ins = forward(cfg, transfer)
        assert ins[body]["n"] == 5  # saturated, not diverging
