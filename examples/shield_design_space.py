#!/usr/bin/env python3
"""Design-space exploration: ShEF's customizability as a first-class feature.

The paper's core argument is that a one-size-fits-all TEE either wastes area
or misses throughput targets, while the Shield lets each accelerator buy
exactly the protection it needs.  This example sweeps the configuration space
(S-box parallelism, key size, HMAC vs PMAC, engine counts, chunk size, replay
protection) for every evaluation workload using the analytical timing and area
models, and prints the Pareto-style summary an IP Vendor would use to choose.

Run with:  python examples/shield_design_space.py
"""

from __future__ import annotations

from repro.accelerators import (
    AffineTransformAccelerator,
    BitcoinAccelerator,
    ConvolutionAccelerator,
    DigitRecognitionAccelerator,
    DnnWeaverAccelerator,
    SdpStorageNodeAccelerator,
)
from repro.core.area import shield_utilization
from repro.core.merkle import merkle_extra_dram_bytes
from repro.core.timing import TimingModel
from repro.sim.reporting import format_table

WORKLOADS = (
    ("convolution", ConvolutionAccelerator(), {}),
    ("digit_recognition", DigitRecognitionAccelerator(), {}),
    ("affine", AffineTransformAccelerator(), {}),
    ("dnnweaver", DnnWeaverAccelerator(), {}),
    ("dnnweaver+PMAC", DnnWeaverAccelerator(), {"pmac_weights": True}),
    ("bitcoin", BitcoinAccelerator(), {}),
    ("sdp (8xPMAC)", SdpStorageNodeAccelerator(), {
        "num_aes_engines": 8, "mac_algorithm": "PMAC", "num_mac_engines": 8,
    }),
)


def main() -> None:
    model = TimingModel()
    rows = []
    for label, accelerator, extra in WORKLOADS:
        profile = accelerator.profile()
        for sbox in (4, 16):
            for key_bits in (128, 256):
                config = accelerator.paper_shield_config(
                    aes_key_bits=key_bits, sbox_parallelism=sbox, **extra
                )
                area = shield_utilization(config)
                rows.append(
                    {
                        "workload": label,
                        "config": f"AES-{key_bits}/{sbox}x",
                        "normalized_time": round(model.overhead(profile, config), 3),
                        "lut_percent": round(area["LUT"], 2),
                        "bram_percent": round(area["BRAM"], 2),
                    }
                )
    print("Shield design space across the evaluation workloads:\n")
    print(format_table(rows))

    # The cheapest configuration that keeps overhead under 1.5x for each workload.
    print("\ncheapest configuration meeting a 1.5x overhead budget:")
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    for workload, candidates in by_workload.items():
        feasible = [c for c in candidates if c["normalized_time"] <= 1.5]
        if feasible:
            best = min(feasible, key=lambda c: c["lut_percent"])
            print(f"  {workload:18s} -> {best['config']}  ({best['normalized_time']}x, {best['lut_percent']}% LUT)")
        else:
            cheapest = min(candidates, key=lambda c: c["normalized_time"])
            print(
                f"  {workload:18s} -> no config meets 1.5x; best is {cheapest['config']} "
                f"at {cheapest['normalized_time']}x (needs more engines or PMAC)"
            )

    # Replay-protection ablation: counters vs Merkle tree for a 1 MB region of 64 B chunks.
    chunks = (1 << 20) // 64
    print(
        f"\nreplay protection for a 1 MiB / 64 B-chunk region: "
        f"ShEF counters cost {4 * chunks // 1024} KiB on-chip and 0 extra DRAM bytes per access; "
        f"a Bonsai Merkle tree costs ~{merkle_extra_dram_bytes(chunks):.0f} extra DRAM bytes per access"
    )


if __name__ == "__main__":
    main()
