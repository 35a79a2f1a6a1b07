"""Shared fixtures: small programs used across the test suite."""

from __future__ import annotations

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.function import Module
from repro.ir.values import Reg


def build_rmw_loop(n: int = 10, base: int = 0x0800_0000) -> Module:
    """A loop with a read-modify-write on an array (Figure 4's shape)."""
    b = IRBuilder(Module("rmw_loop"))
    b.function("main", [])
    b.const(base, Reg("base"))
    b.const(n, Reg("n"))
    b.const(0, Reg("i"))
    loop = b.add_block("loop")
    body = b.add_block("body")
    done = b.add_block("done")
    b.br(loop)
    b.set_block(loop)
    c = b.cmp("slt", Reg("i"), Reg("n"))
    b.cbr(c, body, done)
    b.set_block(body)
    slot = b.and_(Reg("i"), 3)
    off = b.shl(slot, 3)
    addr = b.add(Reg("base"), off)
    v = b.load(addr)
    v2 = b.add(v, 5)
    b.store(v2, addr)
    b.add(Reg("i"), 1, Reg("i"))
    b.br(loop)
    b.set_block(done)
    s = b.load(Reg("base"))
    b.out(s)
    b.ret(s)
    return b.module


def build_straightline() -> Module:
    """Straight-line stores and loads with a WAR pair."""
    b = IRBuilder(Module("straight"))
    b.function("main", [])
    p = b.alloca(32)
    b.store(1, p, 0)
    b.store(2, p, 8)
    x = b.load(p, 0)
    y = b.load(p, 8)
    s = b.add(x, y)
    b.store(s, p, 0)  # WAR with the load of p+0
    z = b.load(p, 0)
    b.out(z)
    b.ret(z)
    return b.module


def build_call_chain() -> Module:
    """main -> double -> ret, exercising arg spills and call boundaries."""
    b = IRBuilder(Module("calls"))
    b.function("double", ["x"])
    r = b.mul(Reg("x"), 2)
    b.ret(r)
    b.function("main", [])
    a = b.const(21)
    r = b.call("double", [a], rd=Reg("r"))
    b.out(Reg("r"))
    b.ret(Reg("r"))
    return b.module


@pytest.fixture
def rmw_loop() -> Module:
    return build_rmw_loop()


@pytest.fixture
def straightline() -> Module:
    return build_straightline()


@pytest.fixture
def call_chain() -> Module:
    return build_call_chain()


#: Every experiment the figure tests read, at a size where each spec's
#: check claims the paper's shape (``n_insts >= 2000``).
FIGURE_NAMES = [
    "fig01", "fig06", "fig08", "fig13", "fig14", "fig15", "tab01", "fig17",
    "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
    "fig26", "fig27", "hw", "multicore",
]


@pytest.fixture(scope="session")
def figure_results():
    """One engine batch of :data:`FIGURE_NAMES` at 3000 instructions.

    One batch, so every normalized-slowdown figure shares its baseline
    points; the engine runs each spec's check on the way out.
    """
    from repro.harness.engine import Engine
    from repro.harness.figures import SPECS

    return Engine(n_insts=3000).run([SPECS[n] for n in FIGURE_NAMES])
