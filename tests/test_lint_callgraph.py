"""Tests for the cross-module call graph (repro.lint.callgraph).

Small synthetic programs exercise each resolution strategy the graph
relies on: import aliases (absolute and relative), self/receiver-type
inference including chained attributes and annotated-return calls,
the bounded method-name fallback, callback-reference edges, and the
reachability/chain queries the dataflow rules are built on.
"""

import textwrap

from repro.lint.callgraph import Program, module_name_for_path


def program(files):
    return Program.from_sources(
        {path: textwrap.dedent(src) for path, src in files.items()})


def edge_pairs(prog):
    return {(e.caller, e.callee) for e in prog.iter_edges()}


# ----------------------------------------------------------------------
# Naming
# ----------------------------------------------------------------------
def test_module_name_for_path():
    assert module_name_for_path("repro/sim/engine.py") == "repro.sim.engine"
    assert module_name_for_path("repro/exec/__init__.py") == "repro.exec"
    assert module_name_for_path("top.py") == "top"


# ----------------------------------------------------------------------
# Resolution strategies
# ----------------------------------------------------------------------
def test_local_and_aliased_calls_resolve():
    prog = program({
        "repro/a.py": """
            def helper():
                return 1

            def caller():
                return helper()
        """,
        "repro/b.py": """
            from .a import helper as h

            def remote():
                return h()
        """,
    })
    pairs = edge_pairs(prog)
    assert ("repro.a.caller", "repro.a.helper") in pairs
    assert ("repro.b.remote", "repro.a.helper") in pairs


def test_function_level_relative_import_resolves():
    prog = program({
        "repro/pkg/deep.py": """
            def work():
                return 7
        """,
        "repro/pkg/user.py": """
            def go():
                from .deep import work
                return work()
        """,
    })
    assert ("repro.pkg.user.go", "repro.pkg.deep.work") in edge_pairs(prog)


def test_self_method_and_base_class_resolution():
    prog = program({
        "repro/c.py": """
            class Base:
                def shared(self):
                    return 0

            class Child(Base):
                def caller(self):
                    return self.shared()
        """,
    })
    assert ("repro.c.Child.caller", "repro.c.Base.shared") in edge_pairs(prog)


def test_constructor_assignment_infers_receiver_type():
    prog = program({
        "repro/d.py": """
            class Engine:
                def step(self):
                    return 1

            def run():
                eng = Engine()
                return eng.step()
        """,
    })
    pairs = edge_pairs(prog)
    assert ("repro.d.run", "repro.d.Engine.step") in pairs


def test_chained_attribute_receiver_resolves():
    """``self.testbed.sim.run()`` — the orchestrator pattern."""
    prog = program({
        "repro/e.py": """
            class Sim:
                def run(self):
                    return 1

            class Testbed:
                sim: Sim

            class Orchestrator:
                def __init__(self):
                    self.testbed = build()

                def go(self):
                    sim = self.testbed.sim
                    return sim.run()

            def build() -> Testbed:
                return Testbed()
        """,
    })
    assert ("repro.e.Orchestrator.go", "repro.e.Sim.run") in edge_pairs(prog)


def test_annotated_return_call_infers_type():
    prog = program({
        "repro/f.py": """
            class Thing:
                def poke(self):
                    return 1

            def make() -> Thing:
                return Thing()

            def use():
                return make().poke()
        """,
    })
    assert ("repro.f.use", "repro.f.Thing.poke") in edge_pairs(prog)


def test_name_fallback_links_small_owner_sets_only():
    files = {
        "repro/g.py": """
            class A:
                def rare(self):
                    return 1

            def use(x):
                return x.rare()
        """,
    }
    prog = program(files)
    assert ("repro.g.use", "repro.g.A.rare") in edge_pairs(prog)
    # Five owners of the same method name: above the fallback cap, no
    # edges (the over-approximation would glue the graph together).
    many = {
        "repro/h.py": "\n".join(
            [f"class C{i}:\n    def common(self):\n        return {i}\n"
             for i in range(5)]
            + ["def use(x):\n    return x.common()\n"]),
    }
    prog2 = Program.from_sources(many)
    assert not any(e.callee.endswith(".common") and not e.external
                   for e in prog2.iter_edges()
                   if e.caller == "repro.h.use")


def test_imported_class_receiver_is_external_not_name_matched():
    prog = program({
        "repro/j.py": """
            from multiprocessing.connection import Connection
            from multiprocessing.process import BaseProcess

            class Daemon:
                def start(self):
                    return 1

                def send(self, item):
                    return item

            def launch(process: BaseProcess, conn: Connection):
                child: BaseProcess = process
                child.start()
                conn.send(1)

            def guess(x):
                return x.start()
        """,
    })
    pairs = edge_pairs(prog)
    assert ("repro.j.launch",
            "multiprocessing.process.BaseProcess.start") in pairs
    assert ("repro.j.launch",
            "multiprocessing.connection.Connection.send") in pairs
    assert ("repro.j.launch", "repro.j.Daemon.start") not in pairs
    assert ("repro.j.launch", "repro.j.Daemon.send") not in pairs
    # An untyped receiver still takes the bounded name fallback.
    assert ("repro.j.guess", "repro.j.Daemon.start") in pairs


def test_external_calls_kept_as_external_edges():
    prog = program({
        "repro/i.py": """
            import time

            def now():
                return time.time()
        """,
    })
    edges = [e for e in prog.iter_edges() if e.caller == "repro.i.now"]
    assert [(e.callee, e.external) for e in edges] == [("time.time", True)]


def test_callback_reference_argument_creates_edge():
    """A function handed to ``sim.schedule`` is reachable through it."""
    prog = program({
        "repro/j.py": """
            class Sim:
                def schedule(self, at, fn):
                    self.fn = fn

            def on_fire():
                return 1

            def arm():
                sim = Sim()
                sim.schedule(10, on_fire)
        """,
    })
    pairs = edge_pairs(prog)
    assert ("repro.j.arm", "repro.j.on_fire") in pairs
    assert "repro.j.on_fire" in prog.reachable_from(["repro.j.arm"])


def test_nested_def_containment_edge():
    prog = program({
        "repro/k.py": """
            def outer():
                def inner():
                    return 2
                return inner
        """,
    })
    assert ("repro.k.outer", "repro.k.outer.inner") in edge_pairs(prog)


def test_module_scope_calls_attributed_to_pseudo_function():
    prog = program({
        "repro/l.py": """
            def setup():
                return 3

            VALUE = setup()
        """,
    })
    assert ("repro.l.<module>", "repro.l.setup") in edge_pairs(prog)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
CHAIN_FILES = {
    "repro/sim/a.py": """
        from ..util.b import step1

        def entry():
            return step1()
    """,
    "repro/util/b.py": """
        from .c import step2

        def step1():
            return step2()
    """,
    "repro/util/c.py": """
        import time

        def step2():
            return time.time()
    """,
}


def test_reachable_from_and_functions_reaching():
    prog = program(CHAIN_FILES)
    reach = prog.reachable_from(["repro.sim.a.entry"])
    assert {"repro.sim.a.entry", "repro.util.b.step1",
            "repro.util.c.step2"} <= reach
    reaching = prog.functions_reaching(["repro.util.c.step2"])
    assert "repro.sim.a.entry" in reaching


def test_call_chain_shortest_path():
    prog = program(CHAIN_FILES)
    chain = prog.call_chain("repro.sim.a.entry", "repro.util.c.step2")
    assert chain == ["repro.sim.a.entry", "repro.util.b.step1",
                     "repro.util.c.step2"]
    assert prog.call_chain("repro.util.c.step2", "repro.sim.a.entry") == []


# ----------------------------------------------------------------------
# Rendering (lint --graph)
# ----------------------------------------------------------------------
def test_to_dict_summary_and_text_render():
    prog = program(CHAIN_FILES)
    doc = prog.to_dict()
    assert doc["summary"]["modules"] == 3
    assert doc["summary"]["functions"] == 3
    assert any(e["caller"] == "repro.util.b.step1" for e in doc["edges"])
    text = prog.render_text()
    assert "repro.sim.a.entry" in text
    assert "~> time.time  [external]" in text
    assert "callgraph:" in text.splitlines()[-1]
