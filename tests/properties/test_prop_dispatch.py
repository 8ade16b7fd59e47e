"""Property: the task graph is completion-order independent.

Both drains land finished slots in one state machine
(:class:`repro.sim.dispatch._Graph`) in whatever order their executor
yields them. The determinism argument of the fused backend rests on
that machine being a pure function of the per-task results: for ANY
landing order that respects causality (a fan-out's subs land after the
fan-out, its reduction after the subs), the results must be the same
canonical list.

Hypothesis drives the machine with randomly shaped campaigns (a mix of
plain tasks and fan-outs of varying width) at a random dispatch grain,
landing the runnable slots in randomly drawn orders, and asserts the
output never moves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.dispatch import FanOut, TaskAddress, WorkItem, _Graph, _run_slot


def _sub(rng, address, payload):
    return f"s{address.run_index}.{address.cell_index}"


def _reduce(state, results, address):
    # The graph hands sub-results over in sub-item order, no matter the
    # landing order the property just exercised.
    assert results == [f"s{state}.{p}" for p in range(len(results))]
    return f"r{state}:" + ",".join(results)


def _top(rng, address, payload):
    """A plain task (``payload`` None) or a fan-out of width ``payload``."""
    i = address.run_index
    if payload is None:
        return f"v{i}"
    return FanOut(
        items=tuple(
            WorkItem(
                address=TaskAddress("prop", i, position),
                fn=_sub,
                payload=None,
                seed=0,
                spawn_index=position,
            )
            for position in range(payload)
        ),
        reduce_fn=_reduce,
        state=i,
    )


#: One campaign shape: ``None`` = a plain task, ``k`` = a fan-out of
#: width ``k``.
shapes = st.lists(
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    min_size=1,
    max_size=8,
)

#: The chunk size every batch of sibling slots is cut at.
grains = st.integers(min_value=1, max_value=4)


def _graph(shape_list, grain):
    items = [
        WorkItem(
            address=TaskAddress("prop", i),
            fn=_top,
            payload=shape,
            seed=0,
            spawn_index=i,
        )
        for i, shape in enumerate(shape_list)
    ]
    return _Graph(items, lambda n_items: grain, None)


def _expected(shape_list):
    out = []
    for i, shape in enumerate(shape_list):
        if shape is None:
            out.append(f"v{i}")
        else:
            subs = [f"s{i}.{p}" for p in range(shape)]
            out.append(f"r{i}:" + ",".join(subs))
    return out


@settings(max_examples=200, deadline=None)
@given(shape_list=shapes, grain=grains, data=st.data())
def test_any_completion_order_yields_canonical_results(
    shape_list, grain, data
):
    graph = _graph(shape_list, grain)
    # The frontier of causally-available slots, landed in an order
    # hypothesis chooses (and will shrink towards adversarial ones).
    available = list(graph.initial)
    while available:
        pick = data.draw(
            st.integers(min_value=0, max_value=len(available) - 1)
        )
        slot = available.pop(pick)
        available.extend(graph.land(slot, _run_slot(slot)))
    assert graph.results == _expected(shape_list)


@settings(max_examples=100, deadline=None)
@given(shape_list=shapes, grain=grains, data=st.data())
def test_done_is_monotone_and_only_true_at_the_end(shape_list, grain, data):
    graph = _graph(shape_list, grain)
    available = list(graph.initial)
    was_done = False
    while available:
        pick = data.draw(
            st.integers(min_value=0, max_value=len(available) - 1)
        )
        slot = available.pop(pick)
        available.extend(graph.land(slot, _run_slot(slot)))
        done = None not in graph.results
        assert done >= was_done
        # Every slot is filled exactly when nothing is left to run.
        assert done == (not available)
        was_done = done
