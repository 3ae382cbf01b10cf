import numpy as np
import pytest
from hypothesis import settings

from dynamap.lindblad import gell_mann_basis
from dynamap.maps import dissipator_superop, hamiltonian_superop, pauli

# property tests draw the same examples on every run, and none fails on a
# deadline when the machine is loaded; no example database is written
settings.register_profile("dynamap", derandomize=True, deadline=None, database=None)
settings.load_profile("dynamap")

SX = pauli("x")
SY = pauli("y")
SZ = pauli("z")
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_lindblad_generator(rng, dim=2, n_jumps=1, rate_scale=0.3):
    """Generator of a completely positive semigroup with random jumps."""
    gen = hamiltonian_superop(random_hermitian(rng, dim))
    for _ in range(n_jumps):
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gen = gen + rate_scale * rng.uniform(0.3, 1.0) * dissipator_superop(op / np.linalg.norm(op, 2))
    return gen


def assemble_tp_generator(h, coeff, basis):
    """Reference assembly of -i[h,.] + sum_ab c_ab (G_a . G_b - 1/2 {G_b G_a, .}).

    Written out directly from the Kronecker identities so library round-trip
    tests have an independent construction to compare against.
    """
    dim = h.shape[0]
    eye = np.eye(dim)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for a, ga in enumerate(basis):
        for b, gb in enumerate(basis):
            c = coeff[a, b]
            ba = gb @ ga
            gen = gen + c * (
                np.kron(gb.T, ga) - 0.5 * np.kron(eye, ba) - 0.5 * np.kron(ba.T, eye)
            )
    return gen


def random_tp_generator(rng, dim, definite=False):
    """Random trace-preserving, Hermiticity-preserving generator.

    With ``definite=False`` the coefficient matrix is indefinite, as for a
    generic time-local generator with information backflow.
    """
    basis = gell_mann_basis(dim)
    n = len(basis)
    h = random_hermitian(rng, dim)
    h = h - np.trace(h) / dim * np.eye(dim)
    c = random_hermitian(rng, n, scale=0.5)
    if definite:
        c = c @ c.conj().T
    return assemble_tp_generator(h, c, basis)


@pytest.fixture(scope="session")
def subohmic_run():
    """Shared desk-scale sub-ohmic source: eta (kmax=5) plus 500 maps."""
    import dynamap as dm
    from dynamap.models import builtin_model

    system, bath, _ = builtin_model("subohmic")
    eta = dm.eta_coefficients(bath, system.temperature, 0.08, 5)
    series = dm.quapi_propagate(system, eta, 500)
    return system, bath, eta, series
