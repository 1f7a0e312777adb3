"""Tenant sessions: one Data Owner, one Load Key, one Shield per tenant.

A tenant session is the cloud-side unit of isolation.  Admitting a tenant
mints a fresh, session-scoped trust domain:

* a per-session Shield Encryption Key pair (in a real deployment the IP
  Vendor's key embedded in the tenant's bitstream; here derived
  deterministically from the session id),
* a :class:`~repro.attestation.data_owner.DataOwner` holding the tenant's
  Data Encryption Key, never shared with the service, and
* a wrapped Load Key that is the *only* key material the untrusted serving
  layer ever touches.

Because every session re-derives region sub-keys from its own Data Encryption
Key, two tenants running the *same* accelerator configuration on the *same*
board produce unrelated ciphertext: cross-tenant reads of DRAM or host logs
yield nothing, and unsealing with the wrong tenant's key fails its MAC check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.attestation.data_owner import DataOwner
from repro.attestation.messages import LoadKeyDelivery
from repro.core.config import ShieldConfig
from repro.core.shield import ShieldStats
from repro.crypto.rsa import RsaPrivateKey


class SessionState(enum.Enum):
    """Lifecycle of a tenant session (admit -> attest/provision -> run -> teardown)."""

    ADMITTED = "admitted"
    PROVISIONED = "provisioned"
    CLOSED = "closed"


@dataclass
class TenantUsage:
    """Per-tenant accounting, accumulated across every job the session ran.

    The counters mirror :class:`~repro.core.shield.ShieldStats` plus the host
    runtime's transfer totals; they are kept per session so the isolation
    tests can assert that one tenant's traffic never appears on another
    tenant's bill.
    """

    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_rejected: int = 0
    accel_bytes_read: int = 0
    accel_bytes_written: int = 0
    dram_bytes_read: int = 0
    dram_bytes_written: int = 0
    chunks_fetched: int = 0
    chunks_written_back: int = 0
    integrity_failures: int = 0
    bytes_uploaded: int = 0
    bytes_downloaded: int = 0

    def absorb_shield_stats(self, stats: ShieldStats) -> None:
        self.accel_bytes_read += stats.accel_bytes_read
        self.accel_bytes_written += stats.accel_bytes_written
        self.dram_bytes_read += stats.dram_bytes_read
        self.dram_bytes_written += stats.dram_bytes_written
        self.chunks_fetched += stats.chunks_fetched
        self.chunks_written_back += stats.chunks_written_back
        self.integrity_failures += stats.integrity_failures


@dataclass
class TenantSession:
    """One admitted tenant: identity, key material, config, and accounting.

    ``load_key`` always wraps the session's *current* Data Encryption Key.
    The service rotates that key at every job load (fresh key, fresh wrap),
    because region sub-keys and chunk IVs restart with each Shield load:
    without rotation, two jobs sealing different inputs for the same region
    would reuse AES-CTR keystream, handing the untrusted host the XOR of two
    plaintexts.
    """

    session_id: str
    tenant: str
    accelerator: object
    shield_config: ShieldConfig
    data_owner: DataOwner
    shield_private_key: RsaPrivateKey
    load_key: LoadKeyDelivery
    state: SessionState = SessionState.ADMITTED
    #: Fair-share weight under the ``fair`` scheduling policy (> 0).
    weight: float = 1.0
    usage: TenantUsage = field(default_factory=TenantUsage)
    #: Shield statistics captured after each job (most recent last).
    job_stats: list = field(default_factory=list)
    #: Boards this session's Shield has been loaded onto, each once, in
    #: first-use order.
    boards_used: list = field(default_factory=list)

    def __repr__(self) -> str:  # Sessions hold key material; print identity only.
        return (
            f"TenantSession(session_id={self.session_id!r}, tenant={self.tenant!r}, "
            f"state={self.state.name}, weight={self.weight})"
        )

    @property
    def shield_id(self) -> str:
        return self.shield_config.shield_id

    @property
    def is_provisioned(self) -> bool:
        return self.state is SessionState.PROVISIONED

    @property
    def is_closed(self) -> bool:
        return self.state is SessionState.CLOSED
