"""Benchmark-side tracing: spans around public calls, folded into a layer table.

The program under test is not instrumented.  :class:`SpanRecorder` replaces
the public functions and methods listed in :data:`PATCHES` with wrappers that
record one :class:`Span` per call (name, layer, start, end, parent, job) and
restores the originals afterwards.  Each thread keeps its own span stack,
because the storage workload runs job bodies on two board threads.  Spans
stay in memory until the run ends.

Where a caller did ``from x import f``, the name is patched in the importing
module too (``derive_subkey`` is looked up in ``core.sealing``,
``core.engines``, ...), otherwise those calls would escape the trace.

A layer's self time is its span's duration minus its child spans, both read
from the calling thread's CPU clock: the storage workload's two board threads
and the replay's shard threads take turns on the interpreter lock, and a
wall-clock span would also count the time another thread held it.  Per job,
the layer self times, ``other`` (CPU time in the code between traced calls:
the service's own orchestration, the benchmark's loop) and ``wait`` (the
rest of the job's wall time: queueing, lock hand-offs, idle threads) add up
to the job's wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    """One traced call, timed on the wall clock and on its thread's CPU clock."""

    __slots__ = ("layer", "parent", "job", "units", "start", "end", "cpu_start", "cpu_end", "children_cpu_s")

    def __init__(self, layer: str, parent, job):
        self.layer = layer
        self.parent = parent
        self.job = job
        self.units = None
        self.children_cpu_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def cpu_s(self) -> float:
        return self.cpu_end - self.cpu_start

    @property
    def self_s(self) -> float:
        return self.cpu_end - self.cpu_start - self.children_cpu_s

    @property
    def outermost(self) -> bool:
        """True unless the caller is a traced call of the same layer."""
        return self.parent is None or self.parent.layer != self.layer


def _arg(args, index, default=None):
    return args[index] if len(args) > index else default


def _job_of_result(args, result):
    return getattr(result, "job_id", None)


def _job_of_placed_result(args, result):
    return result.job.job_id if result is not None else None


def _job_of_placed_arg(args, result):
    return _arg(args, 1).job.job_id


def _nbytes(blob) -> int:
    return int(getattr(blob, "nbytes", None) or len(blob))


def _batch(arg) -> tuple:
    """(messages, bytes) of a list of blobs or an ``(n, length)`` array."""
    if hasattr(arg, "shape"):
        return (int(arg.shape[0]), int(arg.nbytes))
    return (len(arg), sum(len(item) for item in arg))


def _one(args, index):
    return (1, _nbytes(_arg(args, index, b"")))


def _many(args, index):
    return _batch(_arg(args, index, ()))


def _burst(args):
    return (1, int(_arg(args, 1).length_bytes))


# (module, attribute path, layer, job extractor, units extractor).  Units are
# (count, bytes) of the call's payload: messages for MAC, chunks for AES,
# one burst for AXI.
_KDF_IMPORTERS = (
    "repro.crypto.kdf",
    "repro.crypto.authenc",
    "repro.core.register_interface",
    "repro.core.sealing",
    "repro.core.engines",
)
PATCHES = (
    ("repro.serve.frontend", "AsyncShieldFrontend.submit_nowait", "serve", None, None),
    ("repro.cloud.service", "ShieldCloudService.submit_job", "cloud.submit", _job_of_result, None),
    ("repro.cloud.service", "ShieldCloudService.begin_next_job", "cloud.place", _job_of_placed_result, None),
    ("repro.cloud.service", "ShieldCloudService.finish_placed", "cloud.place", _job_of_placed_arg, None),
    ("repro.cloud.service", "ShieldCloudService.execute_placed", "other.execute_placed", _job_of_placed_arg, None),
    ("repro.core.shield", "Shield.__init__", "core.shield.load", None, None),
    ("repro.core.shield", "Shield.provision_load_key", "core.shield.rekey", None, None),
    ("repro.core.shield", "Shield.memory_read", "core.shield.io", None, None),
    ("repro.core.shield", "Shield.memory_write", "core.shield.io", None, None),
    ("repro.core.shield", "Shield.flush", "core.shield.io", None, None),
    ("repro.crypto.rsa", "RsaPrivateKey.from_seed", "crypto.rsa.keygen", None, None),
    ("repro.attestation.data_owner", "rsa_encrypt", "crypto.rsa", None, None),
    ("repro.core.key_store", "rsa_decrypt", "crypto.rsa", None, None),
    *((module, "derive_subkey", "crypto.kdf", None, None) for module in _KDF_IMPORTERS),
    ("repro.core.engines", "AesEngine.encrypt", "core.engines.aes", None, lambda a: _one(a, 2)),
    ("repro.core.engines", "AesEngine.decrypt", "core.engines.aes", None, lambda a: _one(a, 2)),
    ("repro.core.engines", "AesEngine.encrypt_many", "core.engines.aes", None, lambda a: _many(a, 2)),
    ("repro.core.engines", "AesEngine.decrypt_many", "core.engines.aes", None, lambda a: _many(a, 2)),
    ("repro.core.engines", "AesEngine.encrypt_many_array", "core.engines.aes", None, lambda a: _many(a, 2)),
    ("repro.core.engines", "AesEngine.decrypt_many_array", "core.engines.aes", None, lambda a: _many(a, 2)),
    ("repro.core.engines", "MacEngine.tag", "core.engines.mac", None, lambda a: _one(a, 1)),
    ("repro.core.engines", "MacEngine.verify", "core.engines.mac", None, lambda a: _one(a, 1)),
    ("repro.core.engines", "MacEngine.tag_many", "core.engines.mac", None, lambda a: _many(a, 1)),
    ("repro.core.engines", "MacEngine.verify_many", "core.engines.mac", None, lambda a: _many(a, 1)),
    ("repro.core.engines", "MacEngine.tag_many_array", "core.engines.mac", None, lambda a: _many(a, 1)),
    ("repro.core.engines", "MacEngine.verify_many_array", "core.engines.mac", None, lambda a: _many(a, 1)),
    *(
        ("repro.core.sealing", f"RegionSealer.{method}", "core.sealing", None, None)
        for method in (
            "__init__", "seal_chunk", "unseal_chunk", "seal_chunks", "seal_chunks_array",
            "seal_region_data", "unseal_region_data", "unseal_chunks",
        )
    ),
    *(
        ("repro.core.engine_set", f"RegionPipeline.{method}", "core.engine_set", None, None)
        for method in ("__init__", "read", "write", "flush")
    ),
    ("repro.hw.axi", "AxiPort.submit", "hw.axi", None, _burst),
    ("repro.hw.axi", "AxiPort.read_many", "hw.axi", None, None),
    ("repro.hw.axi", "AxiPort.write_many", "hw.axi", None, None),
    *(
        ("repro.host.runtime", f"ShefHostRuntime.{method}", "host.runtime", None, None)
        for method in ("deliver_load_key", "upload_region", "download_region")
    ),
    *(
        ("repro.attestation.data_owner", f"DataOwner.{method}", "attestation.data_owner", None, None)
        for method in (
            "generate_data_key", "wrap_load_key", "seal_input", "unseal_output",
            "unseal_output_with_versions", "sealed_chunks_from_device",
        )
    ),
    ("repro.accelerators.sdp", "SdpStorageNodeAccelerator.run", "accelerators", None, None),
    ("repro.accelerators.dnnweaver", "DnnWeaverAccelerator.run", "accelerators", None, None),
    *(
        ("repro.core.merkle", f"BonsaiMerkleCounterTree.{method}", "core.merkle", None, None)
        for method in (
            "__init__", "read_counter", "read_counters", "increment_counter", "increment_counters",
        )
    ),
    ("repro.sim.traces", "generate_trace", "sim.traces", None, None),
    ("repro.cloud.shard", "partition_trace", "cloud.shard.route", None, None),
    ("repro.cloud.shard", "ShardReplayReport.wait_percentile", "cloud.shard.merge", None, None),
    ("repro.cloud.shard", "replay_sharded", "other.replay_sharded", None, None),
    ("repro.sim.cloud", "CloudSimulator.replay_stats", "sim.cloud.replay", None, None),
)


class SpanRecorder:
    """Records spans around the calls in :data:`PATCHES` while installed."""

    def __init__(self):
        self.spans: list = []
        #: Job a span opened with no traced caller belongs to, when the
        #: workload runs one job at a time (fleet-replay's worker threads).
        self.ambient = None
        #: Traced calls the program no longer has (renamed or removed).
        self.missing: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, job=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(layer, parent, job if job is not None else (self.ambient if parent is None else None))
        self.spans.append(span)
        stack.append(span)
        span.cpu_start = time.thread_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        self._stack().pop()
        if span.parent is not None:
            span.parent.children_cpu_s += span.cpu_end - span.cpu_start

    @contextmanager
    def root(self, job=None):
        """A benchmark-side envelope span around one job."""
        span = self._open("other.job", job)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, layer: str, job_of, units):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            if units is not None:
                span.units = units(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if job_of is not None:
                job = job_of(args, result)
                if job is not None:
                    span.job = job
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced call for the duration of the block."""
        saved = []
        self.missing = []
        try:
            for module_name, path, layer, job_of, units in PATCHES:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name, None)
                namespace = vars(owner) if owner is not None else {}
                if attr not in namespace:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                original = namespace[attr]
                if isinstance(original, staticmethod):
                    patched = staticmethod(self._wrap(original.__func__, layer, job_of, units))
                else:
                    patched = self._wrap(original, layer, job_of, units)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def resolve_jobs(self) -> None:
        """Give every span a job: a call whose first traced callee named the
        job takes it (``submit_nowait`` learns its job from ``submit_job``),
        then callees inherit their caller's."""
        for span in self.spans:
            parent = span.parent
            if span.job is not None and parent is not None and parent.job is None:
                parent.job = span.job
        for span in self.spans:
            if span.job is None and span.parent is not None:
                span.job = span.parent.job


def _counts_units(span: Span) -> bool:
    """Count a call's payload once: a traced callee of the same layer that
    re-reports its caller's payload (``verify_many_array`` -> ``tag_many_array``)
    is skipped, one that splits it (``read_many`` -> ``submit``) is counted."""
    parent = span.parent
    return span.units is not None and (parent is None or parent.layer != span.layer or parent.units is None)


class LayerFold:
    """Per-layer totals over the spans of a set of measured jobs.

    ``windows`` maps each measured job to its ``(start, end)`` host window.
    """

    def __init__(self, spans: list, windows: dict):
        self.jobs = len(windows)
        self.wall_s = sum(end - start for start, end in windows.values())
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.count: dict = defaultdict(int)
        self.bytes: dict = defaultdict(int)
        #: (job, layer) -> (CPU seconds, wall seconds) of each outermost call.
        self.durations: dict = defaultdict(list)
        #: Spans of a job that started or ended outside the job's window.
        self.misattributed = 0
        for span in spans:
            if span.job not in windows:
                continue
            start, end = windows[span.job]
            self.self_s[span.layer] += span.self_s
            if span.outermost:
                self.calls[span.layer] += 1
                self.durations[span.job, span.layer].append((span.cpu_s, span.duration))
            if _counts_units(span):
                self.count[span.layer] += span.units[0]
                self.bytes[span.layer] += span.units[1]
            if span.start < start - 1e-6 or span.end > end + 1e-6:
                self.misattributed += 1

    @property
    def layer_s(self) -> float:
        """Self time of every named layer (the ``other.*`` envelopes excluded)."""
        return sum(seconds for layer, seconds in self.self_s.items() if not layer.startswith("other"))

    @property
    def other_s(self) -> float:
        return sum(seconds for layer, seconds in self.self_s.items() if layer.startswith("other"))

    @property
    def wait_s(self) -> float:
        """Job wall time in which no traced call of the job was on a CPU."""
        return self.wall_s - self.layer_s - self.other_s


#: Every per-layer metric: (name, unit, better).  A workload that never
#: enters a layer reports 0 for it.
PER_LAYER = (
    ("serve.wait_ms_per_job", "ms", "lower"),
    ("serve.submit_ms_per_job", "ms", "lower"),
    ("cloud.submit_ms_per_job", "ms", "lower"),
    ("cloud.place_ms_per_job", "ms", "lower"),
    ("cloud.shield_loads_per_job", "count", "lower"),
    ("cloud.evictions_per_job", "count", "lower"),
    ("cloud.affinity_hit_rate", "ratio", "higher"),
    ("core.shield.load_ms_per_job", "ms", "lower"),
    ("core.shield.rekey_ms_per_job", "ms", "lower"),
    ("core.shield.io_ms_per_job", "ms", "lower"),
    ("crypto.rsa.ms_per_job", "ms", "lower"),
    ("crypto.rsa.setup_s", "s", "lower"),
    ("crypto.kdf.ms_per_job", "ms", "lower"),
    ("crypto.kdf.calls_per_job", "count", "lower"),
    ("core.engines.aes.ms_per_job", "ms", "lower"),
    ("core.engines.aes.bytes_per_job", "B", "lower"),
    ("core.engines.aes.calls_per_job", "count", "lower"),
    ("core.engines.mac.ms_per_job", "ms", "lower"),
    ("core.engines.mac.messages_per_job", "count", "lower"),
    ("core.engines.mac.messages_per_call", "count", "higher"),
    ("core.engines.mac.bytes_per_job", "B", "lower"),
    ("core.sealing.ms_per_job", "ms", "lower"),
    ("core.engine_set.ms_per_job", "ms", "lower"),
    ("core.engine_set.buffer_hit_ratio", "ratio", "higher"),
    ("core.engine_set.chunks_fetched_per_job", "count", "lower"),
    ("core.engine_set.chunks_written_back_per_job", "count", "lower"),
    ("hw.axi.ms_per_job", "ms", "lower"),
    ("hw.axi.bursts_per_job", "count", "lower"),
    ("hw.axi.bytes_per_burst", "B", "higher"),
    ("host.runtime.ms_per_job", "ms", "lower"),
    ("attestation.data_owner.ms_per_job", "ms", "lower"),
    ("accelerators.ms_per_job", "ms", "lower"),
    ("core.merkle.calls_per_job", "count", "lower"),
    ("sim.traces.us_per_job", "us", "lower"),
    ("cloud.shard.route_us_per_job", "us", "lower"),
    ("cloud.shard.merge_us_per_job", "us", "lower"),
    ("cloud.shard.max_shard_share", "ratio", "lower"),
    ("sim.cloud.replay_us_per_job", "us", "lower"),
    ("sim.cloud.slowest_shard_s", "s", "lower"),
    ("sim.cloud.replay_overlap", "ratio", "higher"),
    ("sim.cloud.max_shard_utilization", "ratio", "lower"),
    ("sim.cloud.cold_loads", "count", "lower"),
    ("modelled_wait_p99_s", "modelled_s", "lower"),
    ("modelled_wait_p999_s", "modelled_s", "lower"),
    ("modelled_hit_rate", "ratio", "higher"),
    ("other.ms_per_job", "ms", "lower"),
    ("other.us_per_job", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Layers whose self time is reported per functional job, in ms.
_MS_LAYERS = {
    "serve.submit_ms_per_job": "serve",
    "cloud.submit_ms_per_job": "cloud.submit",
    "cloud.place_ms_per_job": "cloud.place",
    "core.shield.load_ms_per_job": "core.shield.load",
    "core.shield.rekey_ms_per_job": "core.shield.rekey",
    "core.shield.io_ms_per_job": "core.shield.io",
    "crypto.rsa.ms_per_job": "crypto.rsa",
    "crypto.kdf.ms_per_job": "crypto.kdf",
    "core.engines.aes.ms_per_job": "core.engines.aes",
    "core.engines.mac.ms_per_job": "core.engines.mac",
    "core.sealing.ms_per_job": "core.sealing",
    "core.engine_set.ms_per_job": "core.engine_set",
    "hw.axi.ms_per_job": "hw.axi",
    "host.runtime.ms_per_job": "host.runtime",
    "attestation.data_owner.ms_per_job": "attestation.data_owner",
    "accelerators.ms_per_job": "accelerators",
}

#: Layers whose self time is reported per simulated replay job, in us.
_US_LAYERS = {
    "sim.traces.us_per_job": "sim.traces",
    "cloud.shard.route_us_per_job": "cloud.shard.route",
    "cloud.shard.merge_us_per_job": "cloud.shard.merge",
    "sim.cloud.replay_us_per_job": "sim.cloud.replay",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(fold: LayerFold, extras: dict, simulated_jobs_per_job: int | None) -> dict:
    """Every :data:`PER_LAYER` metric except the set-up and overhead ones.

    ``simulated_jobs_per_job`` is the trace size of a replay request, or
    ``None`` for the functional workloads.
    """
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    jobs = max(fold.jobs, 1)
    if simulated_jobs_per_job is None:
        for name, layer in _MS_LAYERS.items():
            values[name] = fold.self_s[layer] * 1e3 / jobs
        values["serve.wait_ms_per_job"] = fold.wait_s * 1e3 / jobs
        values["other.ms_per_job"] = fold.other_s * 1e3 / jobs
        values["cloud.shield_loads_per_job"] = extras["shield_loads"] / jobs
        values["cloud.evictions_per_job"] = extras["evictions"] / jobs
        values["cloud.affinity_hit_rate"] = _ratio(
            extras["affinity_hits"], extras["affinity_hits"] + extras["shield_loads"]
        )
        values["crypto.kdf.calls_per_job"] = fold.calls["crypto.kdf"] / jobs
        values["core.engines.aes.bytes_per_job"] = fold.bytes["core.engines.aes"] / jobs
        values["core.engines.aes.calls_per_job"] = fold.calls["core.engines.aes"] / jobs
        values["core.engines.mac.messages_per_job"] = fold.count["core.engines.mac"] / jobs
        values["core.engines.mac.messages_per_call"] = _ratio(
            fold.count["core.engines.mac"], fold.calls["core.engines.mac"]
        )
        values["core.engines.mac.bytes_per_job"] = fold.bytes["core.engines.mac"] / jobs
        values["core.engine_set.buffer_hit_ratio"] = _ratio(
            extras["buffer_hits"], extras["buffer_hits"] + extras["buffer_misses"]
        )
        values["core.engine_set.chunks_fetched_per_job"] = extras["chunks_fetched"] / jobs
        values["core.engine_set.chunks_written_back_per_job"] = extras["chunks_written_back"] / jobs
        values["hw.axi.bursts_per_job"] = fold.count["hw.axi"] / jobs
        values["hw.axi.bytes_per_burst"] = _ratio(fold.bytes["hw.axi"], fold.count["hw.axi"])
        values["core.merkle.calls_per_job"] = fold.calls["core.merkle"] / jobs
        return values
    simulated = jobs * simulated_jobs_per_job
    for name, layer in _US_LAYERS.items():
        values[name] = fold.self_s[layer] * 1e6 / simulated
    # replay_sharded waits for its shard threads, so that wait is part of
    # the replay's unattributed time.
    values["other.us_per_job"] = (fold.other_s + fold.wait_s) * 1e6 / simulated
    slowest, overlap = [], []
    requests = {job for job, _ in fold.durations}
    for job in requests:
        shards = [cpu for cpu, _ in fold.durations[job, "sim.cloud.replay"]]
        phase = sum(wall for _, wall in fold.durations[job, "other.replay_sharded"]) - sum(
            wall for _, wall in fold.durations[job, "cloud.shard.route"]
        )
        slowest.append(max(shards, default=0.0))
        overlap.append(_ratio(sum(shards), phase))
    values["sim.cloud.slowest_shard_s"] = sum(slowest) / max(len(slowest), 1)
    values["sim.cloud.replay_overlap"] = sum(overlap) / max(len(overlap), 1)
    values["sim.cloud.max_shard_utilization"] = extras["max_shard_utilization"]
    values["sim.cloud.cold_loads"] = extras["cold_loads"]
    values["cloud.shard.max_shard_share"] = extras["max_shard_share"]
    for name in ("modelled_wait_p99_s", "modelled_wait_p999_s", "modelled_hit_rate"):
        values[name] = extras[name]
    return values
