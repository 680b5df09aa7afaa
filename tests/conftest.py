from __future__ import annotations

from hypothesis import strategies as st

from phasesim import IntervalSample, WorkloadSegment, WorkloadSpec


def build_stream(
    ths,
    utils=0.6,
    tau=100_000,
    core: str = "A0",
) -> list[IntervalSample]:
    """Samples whose per-cycle throughput follows ``ths`` exactly.

    ``utils`` is a scalar or a per-interval list; it lands in ``util_int``
    with ``util_fp`` zero, so it is also the effective utilization. ``tau``
    is likewise one length for every interval or a per-interval list.
    """
    if isinstance(utils, (int, float)):
        utils = [float(utils)] * len(ths)
    taus = [tau] * len(ths) if isinstance(tau, int) else tau
    samples = []
    start = 0
    for i, (th, u, t) in enumerate(zip(ths, utils, taus, strict=True)):
        samples.append(
            IntervalSample(
                index=i,
                start_cycle=start,
                tau=t,
                retired_instructions=int(round(th * t)),
                util_int=u,
                util_fp=0.0,
                source_core=core,
            )
        )
        start += t
    return samples


def event_kinds(events) -> list[tuple[int, str]]:
    return [(e.interval_index, e.kind.value) for e in events]


#: Segment kinds as (ipc_demand, fp_fraction, noise_amplitude). With the
#: default utilization bounds: in band on both core classes; under-utilized
#: on A (integer units at 0.25); over-utilized on B (its one fp unit
#: saturated); over-utilized on A as well; and two noisy kinds.
SEGMENT_KINDS = (
    (1.6, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (2.7, 0.5, 0.0),
    (4.0, 0.5, 0.0),
    (1.6, 0.0, 0.05),
    (2.2, 0.5, 0.2),
)


@st.composite
def workload_specs(draw) -> WorkloadSpec:
    """1-6 segments of the kinds above, each at least ``tau_min`` long and
    most of them cut off the 100 000-cycle grid."""
    kinds = draw(st.lists(st.sampled_from(SEGMENT_KINDS), min_size=1, max_size=6))
    segments = tuple(
        WorkloadSegment(draw(st.integers(100_000, 12_000_000)), *kind) for kind in kinds
    )
    return WorkloadSpec("drawn", segments, seed=draw(st.integers(0, 3)))
