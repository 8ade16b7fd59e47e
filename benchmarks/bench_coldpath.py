"""A11 benchmark: the 10^6-device cold path, phase by phase.

Times the three cold-path phases the fused campaign pays before any
simulation work starts, with asserted wall-clock budgets:

* **generate** — :func:`~repro.traffic.generator.generate_fleet`
  straight into a staged shared-memory segment: the O(n) IMSI sampler
  plus fully vectorised column derivations, landing in the segment's
  own buffers (no heap fleet, no second copy);
* **publish** — sealing the staged segment: an extras copy plus a
  header write, not a column-by-column republish;
* **attach** — a fresh process-side mapping of the published segment
  plus one full read of every column, trusting the creator's
  validate-once IMSI scan instead of re-paying it per attach.

Budgets scale linearly with the fleet size from the 10^6 acceptance
bars (generate <= 3 s, publish <= 1.5 s, attach+touch <= 2 s) with a
floor that keeps tiny CI sizes out of timer noise. The bench also runs
one small fused campaign to surface the streamed per-phase timings
(:class:`~repro.sim.phases.PhaseTimer` via ``CellSummary``) in the
artifact, so ``BENCH_coldpath.json`` shows where a regression landed,
not just that one happened.

Tune with ``REPRO_BENCH_COLDPATH_DEVICES`` (default 200 000 — large
enough to exercise the rejection sampler past the direct-draw
threshold) and ``REPRO_BENCH_FUSED_WORKERS``.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import _env_int, emit, write_bench_artifact

from repro.devices import SharedFleet
from repro.devices.fleet import fleet_nbytes
from repro.multicast.coordination import MultiCellSpec
from repro.scenarios import run_scenario, scenario
from repro.sim.phases import merge_timings
from repro.traffic.generator import _DIRECT_DRAW_MAX, sample_imsis
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE

#: Acceptance budgets at 10^6 devices, scaled linearly by fleet size.
BUDGETS_AT_1M_S = {
    "generate_s": 3.0,
    "publish_s": 1.5,
    "attach_and_touch_s": 2.0,
}

#: Budget floors so scaled-down CI sizes aren't asserting timer noise.
BUDGET_FLOORS_S = {
    "generate_s": 1.0,
    "publish_s": 0.5,
    "attach_and_touch_s": 0.5,
}


def _budget(phase: str, n_devices: int) -> float:
    scaled = BUDGETS_AT_1M_S[phase] * n_devices / 1_000_000
    return max(BUDGET_FLOORS_S[phase], scaled)


def test_a11_coldpath_budgets(capsys):
    n_devices = _env_int("REPRO_BENCH_COLDPATH_DEVICES", 200_000)
    rng = np.random.default_rng(20180702)

    # Sampler alone, for the artifact's breakdown (the rejection path
    # from REPRO_BENCH_COLDPATH_DEVICES > _DIRECT_DRAW_MAX).
    t0 = time.perf_counter()
    imsis = sample_imsis(n_devices, np.random.default_rng(20180702))
    sample_s = time.perf_counter() - t0
    assert np.unique(imsis).size == n_devices

    from repro.traffic.generator import generate_fleet

    staged = SharedFleet.allocate(n_devices, extras=("attachments",))
    t0 = time.perf_counter()
    fleet = generate_fleet(
        n_devices, MODERATE_EDRX_MIXTURE, rng, out=staged.column_buffers()
    )
    generate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    staged.extra_buffer("attachments")[:] = 0
    shared = staged.seal(fleet)
    publish_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    attached = SharedFleet.attach(shared.descriptor, context="bench-coldpath")
    touched = 0.0
    for _, column in attached.fleet.columns():
        touched += float(np.nansum(column))
    attach_s = time.perf_counter() - t0
    assert touched != 0.0
    attached.close()
    shared.unlink()
    shared.close()

    measured = {
        "generate_s": generate_s,
        "publish_s": publish_s,
        "attach_and_touch_s": attach_s,
    }
    budgets = {phase: _budget(phase, n_devices) for phase in measured}

    # A tiny fused campaign surfaces the streamed per-phase timings —
    # the same PhaseTimer observability recorded runs carry in their
    # RunLog meta — so the artifact localises regressions by phase.
    campaign_spec = scenario("city-rollout").with_overrides(
        n_devices=_env_int("REPRO_BENCH_COLDPATH_CAMPAIGN_DEVICES", 400),
        n_runs=2,
        cells=MultiCellSpec(n_cells=4),
    )
    partials = []
    run_scenario(
        campaign_spec,
        backend="fused",
        workers=_env_int(
            "REPRO_BENCH_FUSED_WORKERS", min(4, os.cpu_count() or 1)
        ),
        on_partial=partials.append,
    )
    cell_timings = merge_timings(
        p.value.phase_timings for p in partials if p.kind == "sub"
    )

    path = write_bench_artifact(
        "coldpath",
        {
            "benchmark": "a11_coldpath",
            "n_devices": n_devices,
            "fleet_nbytes": fleet_nbytes(n_devices),
            "direct_draw_max": _DIRECT_DRAW_MAX,
            "sampler": (
                "rejection" if n_devices > _DIRECT_DRAW_MAX else "direct"
            ),
            "sample_imsis_s": sample_s,
            **measured,
            "budgets_s": budgets,
            "budgets_at_1m_s": BUDGETS_AT_1M_S,
            "fused_campaign_phase_timings": cell_timings,
        },
    )
    emit(
        capsys,
        f"cold path at {n_devices} devices: sample {sample_s:.3f}s, "
        f"generate {generate_s:.3f}s (budget {budgets['generate_s']:.2f}s), "
        f"publish {publish_s:.3f}s (budget {budgets['publish_s']:.2f}s), "
        f"attach+touch {attach_s:.3f}s (budget "
        f"{budgets['attach_and_touch_s']:.2f}s); fused campaign phases "
        f"{ {k: round(v, 3) for k, v in cell_timings.items()} }; "
        f"artifact {path}",
    )

    for phase, seconds in measured.items():
        assert seconds <= budgets[phase], (
            f"cold-path phase {phase} took {seconds:.2f}s at "
            f"{n_devices} devices — over its {budgets[phase]:.2f}s "
            f"budget (scaled from {BUDGETS_AT_1M_S[phase]:.1f}s at 10^6)"
        )
