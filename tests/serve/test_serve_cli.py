"""The ``serve-demo`` CLI surface, end-to-end through :func:`repro.cli.main`."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.cloud import ShieldCloudService
from repro.errors import CloudError
from repro.obs import SERVE_STAGES
from repro.obs.exporters import read_jsonl


def test_serve_demo_completes_all_jobs():
    out = io.StringIO()
    args = ["serve-demo", "--boards", "2", "--jobs-per-tenant", "1"]
    assert main(args, out=out) == 0
    text = out.getvalue()
    assert "3 concurrent tenant streams" in text
    assert "completed jobs      : 3/3" in text
    assert "rejected jobs       : 0 (rate-limited 0, shed 0)" in text


def test_serve_demo_rate_limit_rejections_reach_trace_and_summary(tmp_path):
    trace_path = tmp_path / "serve.jsonl"
    out = io.StringIO()
    args = [
        "serve-demo", "--boards", "1",
        "--jobs-per-tenant", "2", "--rate-limit", "0.0001",
        "--trace", str(trace_path),
    ]
    assert main(args, out=out) == 0
    text = out.getvalue()
    assert "rate limit          : 0.0001 job(s)/s per tenant" in text
    assert "rejected: tenant" in text
    assert "(rate-limited 3, shed 0)" in text

    events = read_jsonl(trace_path)
    names = {event.name for event in events}
    assert set(SERVE_STAGES) <= names
    ratelimited = [e for e in events if e.kind == "mark" and e.name == "ratelimited"]
    assert len(ratelimited) == 3


def test_serve_demo_validates_flags():
    assert main(["serve-demo", "--boards", "0"], out=io.StringIO()) == 2
    assert main(
        ["serve-demo", "--jobs-per-tenant", "0"], out=io.StringIO()
    ) == 2
    assert main(["serve-demo", "--job-retention", "0"], out=io.StringIO()) == 2


@pytest.mark.parametrize("demo", ["cloud-demo", "serve-demo"])
def test_demos_reject_the_removed_fast_crypto_flag(demo):
    with pytest.raises(SystemExit) as exited:
        main([demo, "--fast-crypto"], out=io.StringIO())
    assert exited.value.code == 2


@pytest.mark.parametrize("value", [False, None])
def test_service_fast_crypto_keyword_only_accepts_true(value):
    with pytest.raises(CloudError):
        ShieldCloudService(num_boards=1, fast_crypto=value)
