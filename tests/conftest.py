from __future__ import annotations

from phasesim import IntervalSample


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
