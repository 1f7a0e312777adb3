"""The acceptance demo: three concurrent tenants on a shared two-board fleet.

Each tenant runs a *different* accelerator; every tenant's shielded outputs
must match its own single-tenant unshielded baseline bit-for-bit, and the
service-wide host ledger must contain zero cross-tenant (or own-tenant)
plaintext.  This is the cloud-layer analogue of the seed's
FunctionalSimulator comparison, scaled to mixed multi-tenant traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators import (
    AffineTransformAccelerator,
    MatMulAccelerator,
    VectorAddAccelerator,
)
from repro.cloud import JobState, ShieldCloudService
from repro.sim.simulator import run_unshielded_baseline

SEED = 77


@pytest.fixture(scope="module")
def demo_world():
    tenants = {
        "alice": VectorAddAccelerator(8 * 1024),
        "bob": MatMulAccelerator(32),
        "carol": AffineTransformAccelerator(64),
    }
    service = ShieldCloudService(num_boards=2)
    sessions = {
        tenant: service.admit_tenant(tenant, accelerator)
        for tenant, accelerator in tenants.items()
    }
    inputs = {
        tenant: accelerator.prepare_inputs(seed=SEED)
        for tenant, accelerator in tenants.items()
    }
    jobs = {
        tenant: service.submit_job(sessions[tenant].session_id, inputs=inputs[tenant])
        for tenant in tenants
    }
    service.run_until_idle()
    return {
        "tenants": tenants,
        "service": service,
        "sessions": sessions,
        "inputs": inputs,
        "jobs": jobs,
    }


def _baseline(accelerator, inputs):
    return run_unshielded_baseline(accelerator, accelerator.build_shield_config(), inputs)


def test_all_jobs_complete(demo_world):
    for tenant, job in demo_world["jobs"].items():
        assert job.state is JobState.COMPLETED, (tenant, job.error)


def test_fleet_actually_shared(demo_world):
    """Three tenants fit on two boards only by time-multiplexing."""
    service = demo_world["service"]
    boards_touched = {job.board_name for job in demo_world["jobs"].values()}
    assert boards_touched == {"board-0", "board-1"}
    assert service.stats.shield_loads == 3
    assert sum(slot.shield_loads for slot in service.slots.values()) == 3


def test_outputs_match_single_tenant_baselines(demo_world):
    for tenant, accelerator in demo_world["tenants"].items():
        baseline = _baseline(accelerator, demo_world["inputs"][tenant])
        shielded = demo_world["jobs"][tenant].result
        assert baseline.outputs.keys() == shielded.outputs.keys()
        for key in baseline.outputs:
            assert np.array_equal(
                np.asarray(baseline.outputs[key]), np.asarray(shielded.outputs[key])
            ), (tenant, key)


def test_zero_cross_tenant_plaintext_leaks(demo_world):
    service = demo_world["service"]
    assert len(service.host_observations()) > 0
    for tenant, inputs in demo_world["inputs"].items():
        for plaintext in inputs.values():
            assert service.plaintext_exposures(plaintext) == [], tenant


def test_per_tenant_accounting_is_complete(demo_world):
    for tenant, session in demo_world["sessions"].items():
        assert session.usage.jobs_completed == 1, tenant
        assert session.usage.bytes_uploaded > 0
        assert session.usage.dram_bytes_written > 0
        assert session.usage.integrity_failures == 0
