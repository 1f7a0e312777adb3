"""Synthetic large-scale traces for shard-scale replay experiments.

The hand-written traces in :mod:`repro.sim.cloud` are a dozen events --
enough to pin scheduling semantics, useless for validating a sharding layer.
This generator produces 10^5-10^6-job traces with the statistical structure
cloud schedulers actually face:

* **Arrival processes** -- homogeneous Poisson (exponential inter-arrivals),
  a diurnal sinusoid-modulated Poisson (load peaks and troughs), or a
  heavy-tailed Pareto renewal process (bursts and lulls; the tail exponent
  keeps the mean rate finite so traces stay comparable across processes).
* **Zipf tenant popularity** -- a few tenants dominate, a long tail barely
  shows up; this is what makes warm-Shield affinity and weighted fair-share
  interesting at scale.
* **Session structure** -- each tenant cycles over a small pool of sessions,
  so repeated-session arrivals exist for the affinity machinery to exploit
  (and the shard router keeps each session's stream on one shard).
* **A small workload pool** -- jobs draw profiles/configs from the three
  paper accelerators, so a replay prices a handful of pairs, not every job.

The result is a columnar :class:`~repro.sim.cloud.Trace`: 32 bytes per job
in six numpy columns, with the tenant names, the ``num_tenants *
sessions_per_tenant`` session names and the profile pool as its tables.
Everything is driven by one :class:`random.Random` seed: the same seed
yields byte-identical traces on every platform, so benchmark gates and
property tests replay deterministically.
"""

from __future__ import annotations

import bisect
import math
import random

import numpy as np

from repro.errors import SimulationError
from repro.sim.cloud import Trace, default_profile_pool

__all__ = [
    "ARRIVAL_PROCESSES",
    "default_profile_pool",
    "generate_trace",
]

#: Supported arrival processes.
ARRIVAL_PROCESSES = ("poisson", "diurnal", "heavy_tailed")

#: Pareto tail exponent for ``heavy_tailed`` inter-arrivals.  1.5 gives
#: infinite variance (real burstiness) but a finite mean, so the scale factor
#: below can normalize the process to the requested mean rate.
PARETO_ALPHA = 1.5

#: Period of the ``diurnal`` rate modulation, in modelled seconds.
DIURNAL_PERIOD_S = 86_400.0


def _zipf_cumulative(n: int, s: float) -> list:
    """Cumulative Zipf(s) weights over ranks 1..n (for bisect sampling)."""
    cumulative = []
    total = 0.0
    for rank in range(1, n + 1):
        total += 1.0 / rank**s
        cumulative.append(total)
    return cumulative


def generate_trace(
    num_jobs: int,
    seed: int = 0,
    arrival: str = "poisson",
    rate_jobs_per_s: float = 50.0,
    num_tenants: int = 100,
    sessions_per_tenant: int = 4,
    zipf_s: float = 1.1,
    diurnal_amplitude: float = 0.8,
    priority_levels: int = 10,
    profile_pool: list | None = None,
) -> Trace:
    """Generate a ``num_jobs``-job columnar :class:`~repro.sim.cloud.Trace`.

    ``rate_jobs_per_s`` is the *mean* arrival rate for every process;
    ``zipf_s`` shapes tenant popularity (higher = more skew);
    ``diurnal_amplitude`` in [0, 1) scales the sinusoid for the ``diurnal``
    process.  Priorities are uniform over ``range(priority_levels)`` and
    fair-share weights cycle over 1/2/4 by tenant rank, so the priority and
    weighted-fair policies see real differentiation (a trace where every job
    is identical cannot distinguish policies -- the bug the seed's
    ``BENCH_sched.json`` policy table had).  Session ``k`` of tenant ``t``
    is row ``t * sessions_per_tenant + k`` of the session table.  Every
    size must be at least 1 and the pool non-empty; otherwise
    :class:`~repro.errors.SimulationError` is raised.
    """
    if num_jobs < 1:
        raise SimulationError("a generated trace needs at least one job")
    if arrival not in ARRIVAL_PROCESSES:
        raise SimulationError(
            f"unknown arrival process {arrival!r} (choose from {ARRIVAL_PROCESSES})"
        )
    if rate_jobs_per_s <= 0:
        raise SimulationError("rate_jobs_per_s must be positive")
    if not 0 <= diurnal_amplitude < 1:
        raise SimulationError("diurnal_amplitude must be in [0, 1)")
    if min(num_tenants, sessions_per_tenant, priority_levels) < 1:
        raise SimulationError(
            "num_tenants, sessions_per_tenant and priority_levels must be at least 1"
        )
    pool = tuple(profile_pool if profile_pool is not None else default_profile_pool())
    if not pool:
        raise SimulationError("profile_pool needs at least one (profile, config) pair")
    rng = random.Random(seed)
    tenants = tuple(f"tenant-{index:04d}" for index in range(num_tenants))
    sessions = tuple(
        f"{tenant}-s{index}" for tenant in tenants for index in range(sessions_per_tenant)
    )
    weights = np.array([float(2 ** (index % 3)) for index in range(num_tenants)])
    zipf = _zipf_cumulative(num_tenants, zipf_s)
    zipf_total = zipf[-1]
    # Mean inter-arrival of the Pareto renewal process is scale * a/(a-1);
    # solve for scale so the heavy-tailed trace matches the Poisson mean rate.
    pareto_scale = (PARETO_ALPHA - 1.0) / (PARETO_ALPHA * rate_jobs_per_s)
    pareto_exponent = -1.0 / PARETO_ALPHA
    two_pi_over_period = 2.0 * math.pi / DIURNAL_PERIOD_S
    # The loop calls random() and getrandbits() itself, restating CPython's
    # expovariate, paretovariate and randrange(n) draw for draw, at half the
    # interpreter work per job:
    #   expovariate(rate) = -log(1.0 - random()) / rate
    #   paretovariate(a)  = (1.0 - random()) ** (-1.0 / a)
    #   randrange(n)      = getrandbits(n.bit_length()), drawn again while >= n
    # math.log, as CPython uses: np.log rounds some values differently.  The
    # goldens in tests/sim/test_traces.py pin every stream.
    uniform, getrandbits = rng.random, rng.getrandbits
    log, bisect_left = math.log, bisect.bisect_left
    num_profiles = len(pool)
    profile_bits = num_profiles.bit_length()
    session_bits = sessions_per_tenant.bit_length()
    priority_bits = priority_levels.bit_length()
    poisson, diurnal = arrival == "poisson", arrival == "diurnal"
    now = 0.0
    arrivals, tenant, session, profile, priority = [], [], [], [], []
    for _ in range(num_jobs):
        if poisson:
            now += -log(1.0 - uniform()) / rate_jobs_per_s
        elif diurnal:
            # Inhomogeneous Poisson via local-rate exponentials: accurate as
            # long as inter-arrivals are short against the 24 h period.
            local_rate = rate_jobs_per_s * (
                1.0 + diurnal_amplitude * math.sin(two_pi_over_period * now)
            )
            now += -log(1.0 - uniform()) / local_rate
        else:  # heavy_tailed
            now += pareto_scale * (1.0 - uniform()) ** pareto_exponent
        tenant_index = bisect_left(zipf, uniform() * zipf_total)
        # The draws keep their historical order -- profile, session,
        # priority -- so a seed gives the same jobs it always gave.
        drawn_profile = getrandbits(profile_bits)
        while drawn_profile >= num_profiles:
            drawn_profile = getrandbits(profile_bits)
        drawn_session = getrandbits(session_bits)
        while drawn_session >= sessions_per_tenant:
            drawn_session = getrandbits(session_bits)
        drawn_priority = getrandbits(priority_bits)
        while drawn_priority >= priority_levels:
            drawn_priority = getrandbits(priority_bits)
        arrivals.append(now)
        tenant.append(tenant_index)
        profile.append(drawn_profile)
        session.append(tenant_index * sessions_per_tenant + drawn_session)
        priority.append(drawn_priority)
    tenant_column = np.array(tenant, dtype=np.int32)
    return Trace(
        arrival=np.array(arrivals, dtype=np.float64),
        tenant=tenant_column,
        session=np.array(session, dtype=np.int32),
        profile=np.array(profile, dtype=np.int32),
        priority=np.array(priority, dtype=np.int32),
        weight=weights[tenant_column],
        tenants=tenants,
        sessions=sessions,
        profiles=pool,
    )
