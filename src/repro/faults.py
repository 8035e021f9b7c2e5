"""Fault-injection harness: named fault points with armable failures.

Production systems earn trust by *injecting* failures deliberately and
measuring that they degrade predictably -- the discipline the muBench-style
replication studies apply to service topologies, applied here to our own
stack.  This module is the arming panel: the persistence, source and
service layers each expose a **named fault point**, and tests (or the
``REPRO_FAULTS`` environment variable) arm those points with a failure
kind and probability.  ``tests/test_faults.py`` is the chaos suite that
drives every scenario to a typed error or a bit-identical recovery.

Fault points
------------
==================  ====================================================
``persist.write``   ``save_index``, immediately before the atomic commit
``persist.payload`` ``save_index``, once per payload file written
``source.read``     every ``DatasetSource`` block load / row gather
``service.dispatch``  ``QueryService`` dispatcher, per engine batch
==================  ====================================================

Failure kinds
-------------
* ``error`` -- raise :class:`FaultError` at the point.
* ``corrupt`` -- the point's *site* corrupts its payload (e.g. a byte is
  flipped in the file just written); only data-carrying points honor it.
* ``delay`` -- sleep ``param`` seconds (default 0.01) at the point.
* ``kill`` -- ``SIGKILL`` the process that evaluates the point (the
  crash-safety tests arm it on the persist points in a child process).

Arming
------
Programmatic (tests): :func:`arm` / :func:`disarm` / :func:`reset`.
Environmental: set
``REPRO_FAULTS=point:kind:prob[:param][,point:kind:prob[:param]...]``
before the process starts -- parsed at import time, so CLI subcommands
and spawned servers inherit the arming.

Overhead
--------
Disarmed, the harness costs instrumented sites **one module-attribute
read**: every site is written ``if faults.ARMED: faults.check(...)`` and
:data:`ARMED` is False unless at least one fault is armed.  No locks, no
dict lookups, no RNG draws on the disarmed path.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass

#: Fast gate read by instrumented sites; True iff any fault is armed.
ARMED = False

#: The instrumentable sites (arming an unknown point is a typo, not a
#: request, and raises).
FAULT_POINTS = (
    "persist.write",
    "persist.payload",
    "source.read",
    "service.dispatch",
)

#: The failure kinds :func:`arm` understands.
FAULT_KINDS = ("error", "corrupt", "delay", "kill")

#: Environment variable consulted at import time (and by
#: :func:`configure_from_env`).
ENV_VAR = "REPRO_FAULTS"


class FaultError(RuntimeError):
    """The typed error an ``error``-kind fault raises at its point."""


@dataclass
class FaultSpec:
    """One armed fault: where, what, how often.

    ``param`` is kind-specific: the sleep seconds for ``delay`` (default
    0.01); unused otherwise.  ``after`` skips the first N evaluations of
    the point (fire mid-run: the Nth payload write, the Nth block load),
    ``count`` bounds how many times the fault fires (None: unlimited);
    ``seen`` / ``fired`` count evaluations and firings.
    """

    point: str
    kind: str
    prob: float = 1.0
    param: float | None = None
    after: int = 0
    count: int | None = None
    seen: int = 0
    fired: int = 0


_specs: dict[str, FaultSpec] = {}
_rng = random.Random()
_lock = threading.Lock()


def _refresh_gate() -> None:
    global ARMED
    ARMED = bool(_specs)


def arm(
    point: str,
    kind: str,
    prob: float = 1.0,
    *,
    param: float | None = None,
    after: int = 0,
    count: int | None = None,
    seed: int | None = None,
) -> FaultSpec:
    """Arm one fault point (replacing any previous arming of it)."""
    if point not in FAULT_POINTS:
        raise ValueError(f"unknown fault point {point!r} (know {FAULT_POINTS})")
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r} (know {FAULT_KINDS})")
    if not (0.0 <= prob <= 1.0):
        raise ValueError(f"prob must be in [0, 1], got {prob}")
    spec = FaultSpec(
        point=point, kind=kind, prob=float(prob), param=param,
        after=int(after), count=count,
    )
    with _lock:
        if seed is not None:
            _rng.seed(seed)
        _specs[point] = spec
        _refresh_gate()
    return spec


def disarm(point: str | None = None) -> None:
    """Disarm one point (or, with None, every point)."""
    with _lock:
        if point is None:
            _specs.clear()
        else:
            _specs.pop(point, None)
        _refresh_gate()


def reset(*, seed: int = 0) -> None:
    """Disarm everything and reseed -- the chaos suite's clean slate."""
    with _lock:
        _specs.clear()
        _rng.seed(seed)
        _refresh_gate()


def active() -> dict[str, FaultSpec]:
    """Snapshot of the currently armed specs (keyed by point)."""
    with _lock:
        return dict(_specs)


def configure_from_env(value: str | None = None) -> list[FaultSpec]:
    """Arm from ``REPRO_FAULTS`` (or an explicit spec string).

    Format: comma-separated ``point:kind:prob[:param]`` entries, e.g.
    ``service.dispatch:delay:0.5:0.02,source.read:error:0.25``.  An empty
    / unset variable arms nothing.  Raises :class:`ValueError` on a
    malformed entry -- a typo'd chaos run must fail loudly, not run
    silently fault-free.
    """
    if value is None:
        value = os.environ.get(ENV_VAR, "")
    specs = []
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3, 4):
            raise ValueError(
                f"bad {ENV_VAR} entry {entry!r} "
                "(want point:kind[:prob[:param]])"
            )
        point, kind = parts[0], parts[1]
        prob = float(parts[2]) if len(parts) > 2 else 1.0
        param = float(parts[3]) if len(parts) > 3 else None
        specs.append(arm(point, kind, prob, param=param))
    return specs


def check(point: str) -> str | None:
    """Evaluate a fault point; called by instrumented sites when armed.

    Handles ``error`` (raises :class:`FaultError`), ``delay`` (sleeps)
    and ``kill`` (``SIGKILL``\\ s the process) internally.  Returns
    ``"corrupt"`` when the site should corrupt its own payload, None when
    nothing fires.  Sites gate the call on :data:`ARMED` so the disarmed
    path stays one attribute read.
    """
    with _lock:
        spec = _specs.get(point)
        if spec is None:
            return None
        spec.seen += 1
        if spec.seen <= spec.after:
            return None
        if spec.count is not None and spec.fired >= spec.count:
            return None
        if spec.prob < 1.0 and _rng.random() >= spec.prob:
            return None
        spec.fired += 1
        kind = spec.kind
        param = spec.param
    if kind == "error":
        raise FaultError(f"injected fault at {point}")
    if kind == "delay":
        time.sleep(param if param is not None else 0.01)
        return None
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return "corrupt" if kind == "corrupt" else None


def corrupt_file(path, *, offset: int | None = None) -> None:
    """Flip one byte of ``path`` in place (the ``corrupt`` kind's tool).

    Offset defaults to the middle of the file -- past any self-describing
    format header, inside the payload bytes a checksum must cover.
    """
    size = os.path.getsize(path)
    if size == 0:
        return
    if offset is None:
        offset = size // 2
    offset = min(max(int(offset), 0), size - 1)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


# Environment arming happens at import so every entry point -- CLI
# subcommands, spawned serve processes -- honors REPRO_FAULTS without
# plumbing.
if os.environ.get(ENV_VAR, "").strip():
    configure_from_env()


__all__ = [
    "ARMED",
    "FAULT_POINTS",
    "FAULT_KINDS",
    "ENV_VAR",
    "FaultError",
    "FaultSpec",
    "arm",
    "disarm",
    "reset",
    "active",
    "configure_from_env",
    "check",
    "corrupt_file",
]
