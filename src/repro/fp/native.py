"""Optional native (C) fast paths: the RZ squared-norm precompute and the
fused Step-3 threshold epilogue.

The NumPy implementations of :func:`repro.fp.rounding.rz_sum_squares` and
the general :func:`repro.fp.rounding.rz_sum` are vectorized but still pay
several full-array passes (FP16 cast, widening, chunk sums, truncation
chain), and :func:`repro.core.engine.threshold_epilogue` pays four per
strip.  This module JIT-builds ``_rz_native.c`` -- one fused pass over
the data per kernel -- with whatever C compiler the host has, and exposes
the kernels through :func:`rz_sum_squares_native`,
:func:`rz_sum_native` (which additionally bails back to NumPy when
its masked-truncation preconditions fail; see the C header comment) and
:func:`threshold_epilogue_native`.

Design rules:

* **Always optional.**  Any failure (no compiler, sandboxed tmp, odd
  platform) degrades to ``None`` and callers fall back to the NumPy path
  -- with one structured warning per process, because the fallback is
  correct but slower.  ``REPRO_NATIVE=0`` disables the build outright
  (and silently: it was asked for).
* **Bit-exact or absent.**  The C kernel implements the same verified bit
  algorithm as the NumPy path (see the header comment in ``_rz_native.c``);
  tests/test_fp_rounding.py cross-checks it against the oracle whenever the
  build succeeds.
* **Cached.**  The shared object lands in a private (0700, ownership
  checked) per-user cache directory, keyed by a hash of the C source and
  the compile environment (compiler, flags, CPU), so rebuilds only happen
  when one of them changes and no attacker-controlled path is ever
  dlopen'ed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro import log as _log

_logger = _log.get_logger("repro.fp.native")

_SOURCE = Path(__file__).with_name("_rz_native.c")

#: Compiler flags, part of the cache key.  ``-ffp-contract=off``: GCC's
#: default (``fast``) may fuse the epilogue's ``t - 2*g`` into an FMA, which
#: differs from NumPy's separately rounded multiply when ``2*g`` overflows.
_CFLAGS = (
    "-O3", "-march=native", "-fno-math-errno", "-ffp-contract=off",
    "-shared", "-fPIC",
)

#: Build/load attempted (the result may be None).
_tried = False
_lib: ctypes.CDLL | None = None


def _cache_dir() -> Path | None:
    """Private per-user build cache; never trust shared world-writable dirs.

    The shared object is later dlopen'ed, so the directory must be owned by
    us and not writable by others -- otherwise another local user could
    plant a library at the predictable path.
    """
    if not hasattr(os, "getuid"):
        # Non-POSIX platform: no meaningful ownership check is possible,
        # so the native path stays off and NumPy serves every call.
        return None
    base = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    try:
        base.mkdir(mode=0o700, exist_ok=True)
        st = base.stat()
        if st.st_uid != os.getuid() or (st.st_mode & 0o022):
            return None
    except OSError:
        return None
    return base


def _cpu_identity() -> str:
    # -march=native objects are not portable across machines sharing a
    # filesystem, and 'x86_64' alone does not distinguish microarchitectures:
    # fold in /proc/cpuinfo model+flags and the hostname so heterogeneous
    # nodes sharing a tempdir never dlopen each other's builds.
    cpu = f"{platform.machine()}\0{platform.node()}"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if not line.strip():
                    break  # end of the first processor block
                if line.startswith(("model name", "flags", "Features")):
                    cpu += "\0" + line.strip()
    except OSError:
        pass
    return cpu


def _command(source: str, out: str, flags: tuple[str, ...] = _CFLAGS) -> list[str]:
    return [os.environ.get("CC", "cc"), *flags, source, "-o", out, "-lm"]


def _so_path(cache: Path, src: str, command: list[str]) -> Path:
    """Cache path of the object ``command`` (the full compiler line, file
    paths blanked) builds from ``src`` on this CPU: a flags-only change must
    never dlopen the object an older flag list built."""
    key = "\0".join((src, *command, _cpu_identity()))
    return cache / f"rz_native_{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def _warn_unavailable(reason: str, detail: str = "") -> None:
    _logger.warning(
        "native kernels unavailable, using the NumPy fallbacks (slower, "
        "bit-identical); set REPRO_NATIVE=0 to silence",
        extra={"reason": reason, "detail": detail[-500:]},
    )


def _build() -> ctypes.CDLL | None:
    """Build (once per cache key) and load the kernels; called once per
    process by :func:`_get`, so a failure warns once."""
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return None
    try:
        src = _SOURCE.read_text()
    except OSError as exc:
        _warn_unavailable("source unreadable", str(exc))
        return None
    cache = _cache_dir()
    if cache is None:
        _warn_unavailable("no private build cache directory")
        return None
    so_path = _so_path(cache, src, _command("", ""))
    if not so_path.exists():
        tmp = so_path.with_suffix(f".{os.getpid()}.tmp")
        try:
            subprocess.run(
                _command(str(_SOURCE), str(tmp)),
                check=True, capture_output=True, timeout=60,
            )
            os.replace(tmp, so_path)  # atomic: concurrent builders agree
        except (OSError, subprocess.SubprocessError) as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            stderr = getattr(exc, "stderr", None) or b""
            _warn_unavailable(
                f"build failed: {exc}", stderr.decode(errors="replace")
            )
            return None
    try:
        lib = ctypes.CDLL(str(so_path))
        fn = lib.rz_sum_squares_f16grid
        fn.restype = None
        fn.argtypes = [
            ctypes.POINTER(ctypes.c_double),
            ctypes.c_longlong,
            ctypes.c_longlong,
            ctypes.c_longlong,
            ctypes.POINTER(ctypes.c_float),
        ]
        gen = lib.rz_sum_f64
        gen.restype = ctypes.c_longlong
        gen.argtypes = [
            ctypes.POINTER(ctypes.c_double),
            ctypes.c_longlong,
            ctypes.c_longlong,
            ctypes.c_longlong,
            ctypes.POINTER(ctypes.c_float),
        ]
        for epilogue in (lib.threshold_epilogue_f32, lib.threshold_epilogue_f64):
            epilogue.restype = ctypes.c_longlong
            epilogue.argtypes = (
                [ctypes.c_void_p] * 3  # gram, s_row, s_col
                + [ctypes.c_longlong] * 4  # row0, n_rows, m, c
                + [ctypes.c_double, ctypes.c_longlong, ctypes.c_longlong]
                + [ctypes.c_void_p] * 3  # rows, cols, dd (NULL: no distances)
                + [ctypes.POINTER(ctypes.c_longlong)]  # n_out
            )
        return lib
    except (OSError, AttributeError) as exc:
        _warn_unavailable("load failed", str(exc))
        return None


def _get() -> ctypes.CDLL | None:
    global _tried, _lib
    if not _tried:
        _lib = _build()
        _tried = True
    return _lib


def available() -> bool:
    """True when the native kernel built and loaded on this host."""
    return _get() is not None


def rz_sum_squares_native(points: np.ndarray, step: int) -> np.ndarray | None:
    """Fused native ``rz_sum_squares`` or ``None`` when unavailable.

    Accepts any 2-D array; inputs are staged to C-contiguous float64
    (a no-op for the common case).
    """
    lib = _get()
    if lib is None:
        return None
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or step < 1 or step >= 8:
        # The C loop sums chunk terms in ascending order, which matches
        # NumPy's reduction only below its 8-term pairwise threshold;
        # longer (non-default) steps stay on the NumPy path.
        return None
    n, d = pts.shape
    out = np.empty(n, dtype=np.float32)
    if n and d:
        lib.rz_sum_squares_f16grid(
            pts.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            n,
            d,
            step,
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
        )
    elif n:
        out[:] = 0.0
    return out


def rz_sum_native(values: np.ndarray, step: int) -> np.ndarray | None:
    """Fused native general ``rz_sum`` or ``None`` when unavailable.

    ``values`` is the float64 array with the reduction axis last (as
    :func:`repro.fp.rounding.rz_sum` arranges it); leading dimensions are
    flattened for the C pass and restored on the result.  Returns ``None``
    when the kernel is absent, the step is outside the ascending-order
    window (see :func:`rz_sum_squares_native`), or any chunk sum leaves
    the masked-truncation safe range -- the C kernel bails with the exact
    per-chunk conditions of ``_masked_reduce_safe``, and the caller's
    NumPy general path takes over.
    """
    lib = _get()
    if lib is None or step < 1 or step >= 8:
        return None
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if vals.ndim == 0 or vals.shape[-1] == 0:
        return None
    lead_shape = vals.shape[:-1]
    flat = vals.reshape(-1, vals.shape[-1])
    out = np.empty(flat.shape[0], dtype=np.float32)
    if flat.shape[0]:
        ok = lib.rz_sum_f64(
            flat.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
            flat.shape[0],
            flat.shape[1],
            step,
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_float)),
        )
        if not ok:
            return None
    return out.reshape(lead_shape)


class FillScratch:
    """Survivor buffers for epilogue fills, data pointers extracted once.

    ``cap`` slots of int64 ``rows`` / ``cols`` and float32 ``dd``.  A
    scratch reused across calls (one per thread) spares each call three
    allocations and three ``ctypes`` pointer extractions.
    """

    __slots__ = ("cap", "rows", "cols", "dd", "ptrs")

    def __init__(self, cap: int) -> None:
        self.cap = int(cap)
        self.rows = np.empty(self.cap, dtype=np.int64)
        self.cols = np.empty(self.cap, dtype=np.int64)
        self.dd = np.empty(self.cap, dtype=np.float32)
        self.ptrs = tuple(a.ctypes.data for a in (self.rows, self.cols, self.dd))


def threshold_epilogue_native(
    block: np.ndarray, s_row: np.ndarray, s_col: np.ndarray, eps2,
    clear_diagonal: bool, row0: int, scratch: FillScratch, distances: bool,
) -> tuple[int, int] | None:
    """One resumable fill of the fused Step-3 epilogue, or ``None``.

    Scans rows of the ``(g*m, c)`` view of ``block`` (``(g, m, c)``, norms
    ``(g, m, 1)`` / ``(g, 1, c)``) from ``row0`` and writes the survivors of
    ``(s_i + s_j) - 2*g <= eps2`` (the caller checks ``eps2 >= 0``) into
    the ``scratch`` buffers (at least ``c`` slots; float32 distances only
    when ``distances``).  Returns ``(next_row, n_written)``; done at
    ``next_row == g*m``.

    ``None`` -- the caller runs its NumPy strips -- when the kernel is
    absent or NumPy would not do this arithmetic in the block's own dtype
    on contiguous memory: not float32/float64, norms of another dtype, an
    ``eps2`` that promotes the comparison (a float64 scalar on a float32
    block; a Python float is weak and does not), a strided view, or a
    diagonal on a batched block.
    """
    lib = _get()
    g, m, c = block.shape
    if (
        lib is None
        or block.dtype not in (np.float32, np.float64)
        or s_row.dtype != block.dtype
        or s_col.dtype != block.dtype
        or np.result_type(block.dtype, eps2) != block.dtype
        or not (block.flags.c_contiguous and s_row.flags.c_contiguous
                and s_col.flags.c_contiguous)
        or (clear_diagonal and g != 1)
    ):
        return None
    fn = lib.threshold_epilogue_f32 if block.dtype == np.float32 else lib.threshold_epilogue_f64
    rows_p, cols_p, dd_p = scratch.ptrs
    n_out = ctypes.c_longlong(0)
    next_row = fn(
        block.ctypes.data, s_row.ctypes.data, s_col.ctypes.data,
        row0, g * m, m, c, float(block.dtype.type(eps2)), bool(clear_diagonal),
        scratch.cap, rows_p, cols_p, dd_p if distances else None,
        ctypes.byref(n_out),
    )
    return next_row, n_out.value
