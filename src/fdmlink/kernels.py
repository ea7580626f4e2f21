"""The backend of ``run_scenario``'s block stepper.

The modem's whole-trace loops, ``slicer_loop`` and ``demod_loop``, live in
``_kernels_py`` only, and ``modem`` imports them from there.
``run_scenario`` advances its demodulator streams through
``block_stepper()``: the C ``step_block`` in ``_blockkernel.c`` where the
system ``cc`` can build it, else ``_kernels_py.step_block``, the same loop
written in Python, which gives the same doubles bit for bit.  The
docstrings of ``BlockContext`` and ``_kernels_py.step_block`` state the
contract both keep, and ``protocol.SlaveGroup``'s the modes of ``hears``;
the edge kinds, the checkpoint flag and those modes are codes of
``protocol``.
Nothing is compiled or loaded at import; the first ``block_stepper()`` call
compiles the source once into a cache keyed by its hash (the package's
``__pycache__``, else ``$XDG_CACHE_HOME/fdmlink`` or ``~/.cache/fdmlink``)
and loads it through ctypes.  Any build or load failure falls back to
Python; ``backend_name()`` and ``backend_detail()`` say which backend runs
and why.
"""

from __future__ import annotations

import ctypes
import os
import platform
import stat
import tempfile
from pathlib import Path
from typing import Callable

from . import _kernels_py
from ._kernels_py import BlockContext

__all__ = [
    "BlockContext",
    "KernelBuildError",
    "backend_detail",
    "backend_name",
    "block_stepper",
    "load_c",
]

SOURCE = Path(__file__).with_name("_blockkernel.c")
# no -ffast-math or -march=native: every double must match the Python stepper
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
BUILD_TIMEOUT_S = 120.0

Stepper = Callable[[BlockContext], int]

_stepper: Stepper | None = None
_detail = ""


class KernelBuildError(RuntimeError):
    """The C block kernel could not be built or loaded."""


def _cache_dirs() -> list[Path]:
    xdg = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return [Path(__file__).with_name("__pycache__"), Path(xdg) / "fdmlink"]


def _usable(directory: Path) -> bool:
    """An existing directory that not everyone can write to."""
    try:
        return not os.stat(directory).st_mode & stat.S_IWOTH
    except OSError:
        return False


def _build(path: Path) -> None:
    """Compile ``SOURCE`` to ``path`` through a temporary name in the same directory."""
    import subprocess  # here, not at the top: importing the simulator must stay cheap

    fd, tmp = tempfile.mkstemp(prefix=path.stem + "-", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
            check=True, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
        os.replace(tmp, path)
    except FileNotFoundError as exc:
        raise KernelBuildError("no C compiler: cc is not on PATH") from exc
    except subprocess.CalledProcessError as exc:
        first = (exc.stderr or "").strip().splitlines()
        raise KernelBuildError(f"cc failed: {first[0] if first else exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise KernelBuildError(f"cc took longer than {BUILD_TIMEOUT_S:g} s") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_c() -> tuple[Stepper, Path]:
    """The C ``step_block`` and the path of its shared library; builds it once.

    Raises ``KernelBuildError`` when the source is missing, no cache
    directory can be written, ``cc`` fails or the library does not load.
    """
    import hashlib  # here, not at the top: importing the simulator must stay cheap

    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise KernelBuildError(f"kernel source missing: {exc}") from exc
    digest = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()[:16]
    name = f"_blockkernel-{digest}-{platform.machine()}.so"
    dirs = _cache_dirs()
    path = next((d / name for d in dirs if _usable(d) and (d / name).is_file()), None)
    if path is None:
        errors = []
        for d in dirs:
            try:
                d.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                errors.append(str(exc))
                continue
            if not _usable(d):
                errors.append(f"{d} is writable by everyone")
                continue
            try:
                _build(d / name)
            except OSError as exc:
                errors.append(str(exc))
                continue
            path = d / name
            break
        else:
            raise KernelBuildError("no writable kernel cache: " + "; ".join(errors))
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(f"cannot load {path}: {exc}") from exc
    try:
        size, fn = lib.block_ctx_size, lib.step_block
    except AttributeError as exc:
        raise KernelBuildError(f"{path}: {exc}") from exc
    size.argtypes, size.restype = [], ctypes.c_int64
    if size() != ctypes.sizeof(BlockContext):
        raise KernelBuildError(f"{path}: struct layout differs from BlockContext")
    fn.argtypes = [ctypes.POINTER(BlockContext)]
    fn.restype = ctypes.c_int64
    return fn, path


def block_stepper() -> Stepper:
    """The ``step_block`` that ``run_scenario`` uses: C when it loads, else Python."""
    global _stepper, _detail
    if _stepper is None:
        try:
            fn, path = load_c()
        except KernelBuildError as exc:
            _stepper, _detail = _kernels_py.step_block, str(exc)
        else:
            _stepper, _detail = fn, str(path)
    return _stepper


def backend_name() -> str:
    """``"c"`` or ``"python"``: the backend of ``block_stepper()``, loading it if needed."""
    return "python" if block_stepper() is _kernels_py.step_block else "c"


def backend_detail() -> str:
    """The loaded library's path, or why the Python fallback runs."""
    block_stepper()
    return _detail
