"""The per-sample modem loops, as used by the rest of the package.

There is one implementation, the numpy/Python one in ``_kernels_py``;
``backend_name()`` names it for run reports.
"""

from __future__ import annotations

from ._kernels_py import demod_loop, slicer_loop

__all__ = ["backend_name", "demod_loop", "slicer_loop"]


def backend_name() -> str:
    return "python"
