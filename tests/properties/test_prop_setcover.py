"""Property-based tests for the window sweep and set-cover solvers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from cover_oracle import best_window, greedy_set_cover
from paging_oracle import PoSchedule
from theory_oracle import greedy_approximation_bound

from repro.setcover.exact import exact_min_set_cover
from repro.setcover.greedy import greedy_window_cover


@st.composite
def fleets(draw, max_devices=25):
    """Random (phases, periods) arrays over a few ladder cycles."""
    n = draw(st.integers(min_value=1, max_value=max_devices))
    period_choices = [2048, 4096, 8192, 16384]
    periods = draw(
        st.lists(
            st.sampled_from(period_choices), min_size=n, max_size=n
        )
    )
    phases = [
        draw(st.integers(min_value=0, max_value=p - 1)) for p in periods
    ]
    return np.array(phases), np.array(periods)


@st.composite
def set_systems(draw):
    n_elements = draw(st.integers(min_value=1, max_value=10))
    universe = set(range(n_elements))
    n_sets = draw(st.integers(min_value=1, max_value=8))
    sets = [
        frozenset(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=n_elements - 1),
                    max_size=n_elements,
                )
            )
        )
        for _ in range(n_sets)
    ]
    # Guarantee coverability.
    sets.append(frozenset(universe))
    return universe, sets


class TestBestWindowProperties:
    @given(fleets(), st.integers(min_value=10, max_value=2048))
    @settings(max_examples=60, deadline=None)
    def test_best_window_is_optimal_among_po_anchored(self, fleet, window_len):
        """The sweep's count equals the max over windows ending at POs."""
        phases, periods = fleet
        horizon = 2 * int(periods.max())
        found = best_window(phases, periods, window_len, 0, horizon)
        from repro.drx.schedule import v_has_in, v_pos_in_window

        _devices, pos = v_pos_in_window(phases, periods, 0, horizon)
        brute_best = 0
        for po in np.unique(pos):
            s = max(0, int(po) - window_len + 1)
            if s > horizon - window_len:
                s = horizon - window_len
            count = int(v_has_in(phases, periods, s, s + window_len).sum())
            brute_best = max(brute_best, count)
        assert len(found.covered) == brute_best

    @given(fleets(), st.integers(min_value=10, max_value=2048))
    @settings(max_examples=60, deadline=None)
    def test_greedy_cover_partitions_fleet(self, fleet, window_len):
        phases, periods = fleet
        horizon = 2 * int(periods.max())
        cover = greedy_window_cover(phases, periods, window_len, 0, horizon)
        assert sorted(cover.members.tolist()) == list(range(len(phases)))
        # Greedy picks are non-increasing in size.
        sizes = list(cover.group_sizes)
        assert sizes == sorted(sizes, reverse=True)
        # Every window really covers its assigned devices.
        for g in range(cover.n_groups):
            for device in cover.members[cover.bounds[g] : cover.bounds[g + 1]]:
                sched_phase = int(phases[device])
                period = int(periods[device])
                assert PoSchedule(sched_phase, period).has_in(
                    int(cover.start[g]), int(cover.end[g])
                )


class TestSetCoverProperties:
    @given(set_systems())
    @settings(max_examples=60, deadline=None)
    def test_greedy_within_harmonic_bound_of_exact(self, system):
        universe, sets = system
        greedy = greedy_set_cover(universe, sets)
        exact = exact_min_set_cover(universe, sets)
        assert len(exact) <= len(greedy)
        # The solver seeds its search with this greedy and keeps it
        # unless a strictly smaller cover exists.
        if len(exact) == len(greedy):
            assert exact == greedy
        if universe:
            bound = greedy_approximation_bound(len(universe))
            assert len(greedy) <= bound * len(exact) + 1e-9

    @given(set_systems())
    @settings(max_examples=60, deadline=None)
    def test_solutions_actually_cover(self, system):
        universe, sets = system
        for solver in (greedy_set_cover, exact_min_set_cover):
            chosen = solver(universe, sets)
            covered = set()
            for index in chosen:
                covered |= sets[index]
            assert universe <= covered
