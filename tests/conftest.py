import ctypes
from pathlib import Path

import numpy as np
import pytest

from specangles import PortableRng, SymmetricMatrix, core


def random_symmetric(n: int, seed: int) -> SymmetricMatrix:
    g = PortableRng(seed).gaussians(n * n).reshape(n, n)
    return SymmetricMatrix(g + g.T)


def random_psd(n: int, seed: int) -> SymmetricMatrix:
    g = PortableRng(seed).gaussians(n * n).reshape(n, n)
    return SymmetricMatrix(g @ g.T)


class KernelCalls(list):
    """Each call of either Jacobi kernel, in order, as (kernel, stack shape):
    ("two-sided", (k, n, n)) for the eigensolver and ("one-sided", (k, r, m))
    for the SVD, whose stack holds the matrices oriented with r <= m. An
    entry is added as the call starts; `counts` gets the Counts it returns."""

    def __init__(self):
        super().__init__()
        self.counts = []

    def clear(self):
        super().clear()
        self.counts.clear()

    def of(self, kernel):
        """The Counts of each returned call of `kernel`, in order."""
        return [found for (name, _), found in zip(self, self.counts, strict=True) if name == kernel]


@pytest.fixture
def kernel_calls(monkeypatch):
    """A KernelCalls of the calls of both kernels at the names `core` calls
    them by."""
    calls = KernelCalls()

    def count(name, kernel):
        original = getattr(core, name)

        def counted(a, *args):
            calls.append((kernel, a.shape))
            out = original(a, *args)
            calls.counts.append(out if kernel == "two-sided" else out[1])
            return out

        monkeypatch.setattr(core, name, counted)

    count("jacobi_sweeps", "two-sided")
    count("hestenes_sweeps", "one-sided")
    return calls


# The BLAS/LAPACK build and the OpenBLAS kernel set ("core") that pinned
# digests were taken under: haar_orthogonal calls LAPACK's QR and matrix
# products go through BLAS, whose summation order differs from core to core
# of one DYNAMIC_ARCH build, so pinned bytes hold for this build and core only.
PINNED_BUILD = ("scipy-openblas", "0.3.31.188.0")
PINNED_CORE = "SkylakeX"


def read_openblas_core() -> str | None:
    """The core numpy's bundled OpenBLAS runs on, as its
    `scipy_openblas_get_corename64_` names it (`OPENBLAS_CORETYPE` overrides
    the one it detects), or None where no such library can be read."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


@pytest.fixture
def openblas_core():
    """The running OpenBLAS core; skip, with the reason, where none can be read."""
    core = read_openblas_core()
    if core is None:
        pytest.skip("no OpenBLAS core name can be read from numpy's bundled library")
    return core


@pytest.fixture
def pinned_build_any_core():
    """Skip, with the reason, under any BLAS/LAPACK build but PINNED_BUILD."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy before 1.26 prints its config only
        pytest.skip("this numpy does not report its BLAS/LAPACK build")
    libs = [deps.get(lib, {}) for lib in ("blas", "lapack")]
    found = {(lib.get("name"), lib.get("version")) for lib in libs}
    if found != {PINNED_BUILD}:
        pytest.skip(f"digest pinned under BLAS/LAPACK {PINNED_BUILD}, not {found}")


@pytest.fixture
def pinned_build(pinned_build_any_core):
    """Skip, with the reason, under any BLAS/LAPACK build but PINNED_BUILD or
    on any OpenBLAS core but PINNED_CORE."""
    core = read_openblas_core()
    if core != PINNED_CORE:
        pytest.skip(f"digest pinned on OpenBLAS core {PINNED_CORE}, not {core}")
