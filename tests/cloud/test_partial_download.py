"""Partial-region downloads through the serving layer.

A tenant may ask for a slice of an output region via an
``(offset_chunks, length)`` spec in ``output_regions``.  This used to fail
MAC verification because the downloaded chunks were rebuilt with indices
starting at 0 regardless of the DMA offset -- the wrong bound address and IV
for every chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerators import VectorAddAccelerator
from repro.cloud import JobState, ShieldCloudService

_CHUNK = 512  # the vector-add accelerator's C_mem


@pytest.fixture(scope="module")
def finished_job():
    accelerator = VectorAddAccelerator(8 * 1024)  # 2 KiB per partition, 4 chunks
    service = ShieldCloudService(num_boards=1)
    session = service.admit_tenant("dana", accelerator)
    inputs = accelerator.prepare_inputs(seed=5)
    job = service.submit_job(
        session.session_id,
        inputs=inputs,
        output_regions={
            "c0": None,                   # whole region, from chunk 0
            "c1": (1, 2 * _CHUNK),        # chunks 1..2
            "c2": (3, _CHUNK),            # the last chunk alone
        },
    )
    service.run_until_idle()
    expected = {
        name: (
            np.frombuffer(inputs[f"a{part}"], dtype=np.int32)
            + np.frombuffer(inputs[f"b{part}"], dtype=np.int32)
        ).astype(np.int32).tobytes()
        for part, name in ((0, "c0"), (1, "c1"), (2, "c2"))
    }
    return service, session, job, expected


def test_job_completed(finished_job):
    _, _, job, _ = finished_job
    assert job.state is JobState.COMPLETED, job.error


def test_whole_region_download_unchanged(finished_job):
    _, _, job, expected = finished_job
    assert job.region_outputs["c0"] == expected["c0"]


def test_mid_region_slice_unseals_correctly(finished_job):
    _, _, job, expected = finished_job
    assert job.region_outputs["c1"] == expected["c1"][_CHUNK : 3 * _CHUNK]


def test_final_chunk_slice_unseals_correctly(finished_job):
    _, _, job, expected = finished_job
    assert job.region_outputs["c2"] == expected["c2"][3 * _CHUNK :]


@pytest.mark.parametrize(
    "spec", [(99, _CHUNK), (3, 2 * _CHUNK)], ids=["offset-past-end", "length-past-end"]
)
def test_out_of_range_download_fails_the_job(finished_job, spec):
    service, session, _, _ = finished_job
    job = service.submit_job(
        session.session_id,
        inputs=VectorAddAccelerator(8 * 1024).prepare_inputs(seed=5),
        output_regions={"c0": spec},
    )
    service.run_until_idle()
    assert job.state is JobState.FAILED
    assert "offset" in (job.error or "")
    # The board came back to the pool despite the failure.
    assert service.scheduler.free_boards == 1
