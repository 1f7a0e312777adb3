"""The runtime half of the invariant tooling (armed by ``REPRO_SANITIZE=1``).

Static analysis catches what it can see; the sanitizer catches what it
cannot.  With ``REPRO_SANITIZE=1`` in the environment (or after
:func:`enable`):

* :func:`freeze` flips a shared backing array to ``writeable=False`` before
  its memoryview rows escape (the zero-copy seal/unseal buffers), so any
  later write through a live :class:`~repro.core.sealing.SealedChunk` row's
  backing storage raises immediately instead of silently corrupting
  ciphertext another consumer is still reading.
* :func:`assert_owner` (used by the ``@loop_owned`` decorator) binds each
  guarded object to the first thread that touches it and raises
  :class:`SanitizerError` when any *other* thread calls a loop-owned method
  -- the executable form of PR 7's "the event loop owns all scheduler state".

Everything here is stdlib-only and free when disabled: the product-code call
sites guard on :func:`enabled`, which is a plain module-global read.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "SanitizerError",
    "assert_owner",
    "disable",
    "enable",
    "enabled",
    "freeze",
    "release_owner",
]


class SanitizerError(AssertionError):
    """An invariant the sanitizer polices was violated at runtime."""


_enabled = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def enabled() -> bool:
    """Whether sanitizer checks are armed (``REPRO_SANITIZE=1`` or :func:`enable`)."""
    return _enabled


def enable() -> None:
    """Arm the sanitizer for this process (tests use this instead of the env var)."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


# -- zero-copy aliasing ------------------------------------------------------------


def freeze(array) -> None:
    """Make a shared backing array read-only while memoryview rows are live.

    ``array`` is any object with numpy's ``flags.writeable`` protocol; taking
    it duck-typed keeps this module numpy-free.  No-op when the sanitizer is
    disabled, so the fast path's buffers stay writable for legitimate reuse
    patterns outside sanitize mode.
    """
    if _enabled:
        array.flags.writeable = False


# -- thread confinement ------------------------------------------------------------

#: Attribute slot used to bind a guarded object to its owning thread.
_OWNER_ATTR = "_sanitizer_owner_ident"


def assert_owner(obj, method_name: str) -> None:
    """Bind ``obj`` to the calling thread on first use; fail on any other thread.

    Lazy binding matches both drive modes: the synchronous drain binds the
    main thread, the async front-end binds the event-loop thread at the first
    submit -- and an executor worker touching a loop-owned method afterwards
    raises :class:`SanitizerError` naming the method and both threads.
    """
    if not _enabled:
        return
    ident = threading.get_ident()
    owner = getattr(obj, _OWNER_ATTR, None)
    if owner is None:
        try:
            setattr(obj, _OWNER_ATTR, ident)
        except AttributeError:  # frozen/slotted objects cannot be bound
            pass
        return
    if owner != ident:
        raise SanitizerError(
            f"{type(obj).__name__}.{method_name} is owned by thread {owner} "
            f"but was called from thread {ident} "
            f"({threading.current_thread().name!r}); scheduler state must "
            "only be touched from the event loop"
        )


def release_owner(obj) -> None:
    """Unbind a guarded object (tests that legitimately hand an object over)."""
    if hasattr(obj, _OWNER_ATTR):
        delattr(obj, _OWNER_ATTR)
