from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from combterp.errors import UnboundTagError
from combterp.store import Store
from combterp.syntax import VInt


class TestStore:
    def test_get_unbound_raises(self):
        with pytest.raises(UnboundTagError):
            Store().get("t")

    def test_set_then_get(self):
        s = Store()
        assert s.set("t", VInt(1)) == VInt(1)
        assert s.get("t") == VInt(1)

    def test_initial_bindings(self):
        s = Store({"t": VInt(9)})
        assert s.get("t") == VInt(9)

    def test_initial_dict_is_copied(self):
        init = {"t": VInt(1)}
        s = Store(init)
        s.set("t", VInt(2))
        assert init["t"] == VInt(1)

    def test_trace_records_order(self):
        s = Store({"a": VInt(0)})
        s.set("b", VInt(1))
        s.get("a")
        s.set("a", VInt(2))
        assert [(ev.kind, ev.tag, ev.value) for ev in s.trace] == [
            ("set", "b", VInt(1)), ("get", "a", VInt(0)), ("set", "a", VInt(2))]


ops = st.lists(st.tuples(st.sampled_from("gs"), st.integers(0, 2),
                         st.integers(0, 9)), max_size=30)


@given(ops)
def test_replay_matches_a_dict_oracle(ops):
    s = Store({"t0": VInt(0)})
    oracle = {"t0": VInt(0)}
    sets = []
    for kind, tag_i, n in ops:
        tag = f"t{tag_i}"
        if kind == "s":
            s.set(tag, VInt(n))
            oracle[tag] = VInt(n)
            sets.append((tag, VInt(n)))
        else:
            try:
                assert s.get(tag) == oracle[tag]
            except UnboundTagError:
                assert tag not in oracle
    assert s.bindings == oracle
    set_events = [(ev.tag, ev.value) for ev in s.trace if ev.kind == "set"]
    assert set_events == sets
    # the initial bindings updated by the trace's sets give the final store
    assert {"t0": VInt(0), **dict(set_events)} == s.bindings
