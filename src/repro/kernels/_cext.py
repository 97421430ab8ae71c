"""Build-and-load glue for the C peeling kernels.

The compiled tier needs nothing but a system C toolchain.  ``load()``
compiles ``peel_kernels.c`` with ``$CC``/``cc``/``gcc``/``clang`` into
a per-user cache directory (keyed by a hash of the source, so edits
invalidate stale builds) and returns a :class:`ctypes.CDLL` with the
kernel entry points declared: the three peels and the three stable
sorts (shuffle argsort, shard CSR fill, CSR row sort).  Any failure — no compiler, a
compile error, a load error — raises; :mod:`repro.kernels.native`
catches it and falls back to the numpy kernels.

Environment knobs:

``REPRO_NATIVE_CACHE``
    Directory for the compiled shared library (default: a per-user
    directory under the system temp dir).
``CC``
    Compiler to use (default: first of ``cc``, ``gcc``, ``clang`` on
    PATH).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

_SOURCE = Path(__file__).with_name("peel_kernels.c")

_CFLAGS = ["-O3", "-shared", "-fPIC", "-fwrapv"]

# The library is compiled into a per-user cache on the machine that
# runs it, so host-specific codegen is safe; some toolchains (older
# clang on arm, odd cross setups) reject the flag, in which case the
# build retries without it.
_ARCH_FLAGS = ["-march=native"]


class NativeBuildError(RuntimeError):
    """The C backend could not be built or loaded."""


def find_compiler() -> Optional[str]:
    """Path of a usable C compiler, or None."""
    cc = os.environ.get("CC")
    if cc:
        found = shutil.which(cc)
        if found:
            return found
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_NATIVE_CACHE")
    if root:
        return Path(root)
    uid = os.getuid() if hasattr(os, "getuid") else "u"
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


def _lib_suffix() -> str:
    if sys.platform == "darwin":
        return ".dylib"
    if sys.platform.startswith("win"):
        return ".dll"
    return ".so"


def build_library(cache_dir: Optional[Path] = None) -> Path:
    """Compile (or reuse) the shared library; returns its path."""
    if not _SOURCE.exists():  # pragma: no cover - broken install
        raise NativeBuildError(f"kernel source missing: {_SOURCE}")
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = Path(cache_dir) if cache_dir is not None else _cache_dir()
    lib_path = cache / f"peel_kernels-{digest}{_lib_suffix()}"
    if lib_path.exists():
        return lib_path
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError("no C compiler found (tried $CC, cc, gcc, clang)")
    cache.mkdir(parents=True, exist_ok=True)
    # Build to a unique temp name and rename atomically: concurrent
    # processes may race the first build, and a half-written .so must
    # never be dlopen()ed.
    fd, tmp_name = tempfile.mkstemp(
        dir=str(cache), prefix="build-", suffix=_lib_suffix()
    )
    os.close(fd)
    try:
        proc = None
        for extra in (_ARCH_FLAGS, []):
            cmd = [compiler, *_CFLAGS, *extra, "-o", tmp_name, str(_SOURCE), "-lm"]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=120, check=False
            )
            if proc.returncode == 0:
                break
        if proc is None or proc.returncode != 0:
            raise NativeBuildError(
                f"C kernel build failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp_name, lib_path)
    except NativeBuildError:
        raise
    except Exception as exc:  # pragma: no cover - toolchain breakage
        raise NativeBuildError(f"C kernel build failed: {exc}") from exc
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return lib_path


_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_F64 = ctypes.c_double
_PI64 = ctypes.POINTER(ctypes.c_int64)
_PF64 = ctypes.POINTER(ctypes.c_double)


def _declare(lib: ctypes.CDLL) -> None:
    lib.repro_peel_undirected.restype = ctypes.c_int
    lib.repro_peel_undirected.argtypes = [
        _P, _P, _P,                    # indptr, indices, weights
        _I64, _F64, _F64, _F64,        # n, total_weight, factor, eps_slack
        _I64, _I64,                    # max_passes, nb
        _P, _P, _P,                    # deg, alive, best_alive
        _P, _P, _P, _P, _P,            # bucket_of, nxt, prv, head, frontier
        _P, _I64,                      # trace, trace_cap
        _PF64, _PI64, _PI64,           # best_density, best_pass, passes
    ]
    lib.repro_peel_atleast_k.restype = ctypes.c_int
    lib.repro_peel_atleast_k.argtypes = [
        _P, _P, _P,                    # indptr, indices, weights
        _I64, _F64, _F64, _F64, _F64,  # n, total_weight, factor, frac, slack
        _I64, _I32, _I64,              # k, stop_below_k, nb
        _P, _P, _P,                    # deg, alive, best_alive
        _P, _P, _P, _P, _P,            # bucket_of, nxt, prv, head, frontier
        _P, _I64,                      # trace, trace_cap
        _PF64, _PI64, _PI64,
    ]
    lib.repro_peel_directed.restype = ctypes.c_int
    lib.repro_peel_directed.argtypes = [
        _P, _P, _P, _P, _P, _P,        # out/in CSR triples
        _I64, _F64, _F64, _F64, _F64,  # n, W, ratio, 1+eps, slack
        _I32, _I64,                    # use_max_degree_rule, nb
        _P, _P,                        # out_to_t, in_from_s
        _P, _P, _P, _P,                # in_s, in_t, best_s, best_t
        _P, _P, _P, _P,                # S bucket_of, nxt, prv, head
        _P, _P, _P, _P,                # T bucket_of, nxt, prv, head
        _P, _P, _I64,                  # frontier, trace, trace_cap
        _PF64, _PI64, _PI64,
    ]
    lib.repro_stable_argsort_i64.restype = ctypes.c_int
    lib.repro_stable_argsort_i64.argtypes = [
        _P, _I64, _P,                  # keys, len, out
        _P, _I64,                      # scratch, scratch_len
    ]
    lib.repro_csr_fill.restype = ctypes.c_int
    lib.repro_csr_fill.argtypes = [
        _P, _I64, _P, _I64, _P, _I64,  # rows, cols, weights + byte strides
        _I64, _I64,                    # len, n
        _P, _P, _P, _P,                # indptr, cursor, indices, data
        _I64,                          # capacity
    ]
    lib.repro_csr_sort_rows.restype = ctypes.c_int
    lib.repro_csr_sort_rows.argtypes = [
        _P, _I64, _P, _P,              # indptr, n, indices, data
        _P, _P,                        # tmp_idx, tmp_val
    ]


def load(cache_dir: Optional[Path] = None) -> ctypes.CDLL:
    """Compile if needed, load, and declare the kernel library."""
    lib_path = build_library(cache_dir)
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as exc:  # pragma: no cover - corrupt cache
        raise NativeBuildError(f"cannot load {lib_path}: {exc}") from exc
    _declare(lib)
    return lib
