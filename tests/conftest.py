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
    """Shape of the stack passed to each call of either Jacobi kernel, in
    order: (k, n, n) for the two-sided eigensolver, (k, r, m) with r <= m
    for the one-sided SVD."""
    calls = []

    def count(name):
        original = getattr(core, name)

        def counted(a, *args):
            calls.append(a.shape)
            return original(a, *args)

        monkeypatch.setattr(core, name, counted)

    count("jacobi_sweeps")
    count("hestenes_sweeps")
    return calls
