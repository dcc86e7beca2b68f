import numpy as np
import pytest

from specangles import PortableRng, SymmetricMatrix, core


def random_symmetric(n: int, seed: int) -> SymmetricMatrix:
    g = PortableRng(seed).gaussians(n * n).reshape(n, n)
    return SymmetricMatrix(g + g.T)


def random_psd(n: int, seed: int) -> SymmetricMatrix:
    g = PortableRng(seed).gaussians(n * n).reshape(n, n)
    return SymmetricMatrix(g @ g.T)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Each call of either Jacobi kernel, in order, as (kernel, stack shape):
    ("two-sided", (k, n, n)) for the eigensolver and ("one-sided", (k, r, r))
    for the SVD, whose stack holds the square factors its QR preconditioning
    leaves of the (k, r, m) input, r <= m."""
    calls = []

    def count(name, kernel):
        original = getattr(core, name)

        def counted(a, *args):
            calls.append((kernel, a.shape))
            return original(a, *args)

        monkeypatch.setattr(core, name, counted)

    count("jacobi_sweeps", "two-sided")
    count("hestenes_sweeps", "one-sided")
    return calls


# The BLAS/LAPACK build that pinned digests were taken under: haar_orthogonal
# calls LAPACK's QR and matrix products go through BLAS, so pinned bytes hold
# for this build only.
PINNED_BUILD = ("scipy-openblas", "0.3.31.188.0")


@pytest.fixture
def pinned_build():
    """Skip, with the reason, under any BLAS/LAPACK build but PINNED_BUILD."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy before 1.26 prints its config only
        pytest.skip("this numpy does not report its BLAS/LAPACK build")
    libs = [deps.get(lib, {}) for lib in ("blas", "lapack")]
    found = {(lib.get("name"), lib.get("version")) for lib in libs}
    if found != {PINNED_BUILD}:
        pytest.skip(f"digest pinned under BLAS/LAPACK {PINNED_BUILD}, not {found}")
