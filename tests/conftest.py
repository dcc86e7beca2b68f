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
    """Shape of the stack passed to each call of the Jacobi kernel, in order."""
    calls = []
    original = core.jacobi_sweeps

    def counted(a, *args):
        calls.append(a.shape)
        return original(a, *args)

    monkeypatch.setattr(core, "jacobi_sweeps", counted)
    return calls
