from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from dynamap.errors import QuadratureFailure
from dynamap.lindblad import gell_mann_basis
from dynamap.maps import (
    DynamicalMapSeries,
    dissipator_superop,
    expm,
    hamiltonian_superop,
    pauli,
)
from dynamap.models import _segments, support_cutoff
from dynamap.propagators import QUAD_RTOL

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


def semigroup_series(gen, dt, steps):
    """Cumulative maps E_n = exp(n dt gen) for n = 1..steps."""
    return DynamicalMapSeries(
        dt=dt, t0=0.0, maps=np.stack([expm(gen, n * dt) for n in range(1, steps + 1)])
    )


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

    config = dm.preset_config("subohmic")
    system, bath = config.system, config.bath
    eta = dm.eta_coefficients(bath, system.temperature, 0.08, 5)
    series = dm.quapi_propagate(system, eta, 500)
    return system, bath, eta, series


# ---------------------------------------------------------------------------
# bath correlation function: the scipy reference for the influence coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _correlation_scale(sd):
    """Rough magnitude of C(0), used to set absolute quadrature floors."""
    wmax = support_cutoff(sd)
    if wmax == 0.0:
        return 0.0
    grid = np.linspace(0.0, wmax, 20001)
    return float(np.trapezoid(sd.profile(grid), grid))


def _segmented_quad(f, breakpoints, rtol, scale, **kwargs):
    """Sum of adaptive quadratures over consecutive breakpoint intervals."""
    from scipy.integrate import quad

    total = 0.0
    total_err = 0.0
    epsabs = max(1e-14, 1e-11 * scale)
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        val, err, *_ = quad(
            f, a, b, epsabs=epsabs, epsrel=rtol, limit=300, full_output=1, **kwargs
        )
        total += val
        total_err += err
    if total_err > max(3.0 * rtol * abs(total), 30.0 * epsabs * len(breakpoints)):
        raise QuadratureFailure(total_err)
    return total


def bath_correlation(sd, temperature, t):
    """C(t) = int_0^inf dw J(w) [coth(w/2T) cos(wt) - i sin(wt)], t >= 0.

    At T = 0 the coth factor is 1. The imaginary part never depends on the
    temperature. Integration runs up to the support cutoff of J, decade by
    decade (``dynamap.models._segments``), with the oscillatory weight handled
    by dedicated quadrature rules.
    """
    if t < 0:
        raise ValueError("bath correlations are evaluated for t >= 0")
    breaks = _segments(sd)
    if breaks.size < 2:
        return 0.0 + 0.0j
    scale = _correlation_scale(sd)
    rtol = QUAD_RTOL

    if temperature > 0:
        def sym_part(w):
            return float(sd.profile(w)) / np.tanh(w / (2.0 * temperature))
    else:
        def sym_part(w):
            return float(sd.profile(w))

    def plain(w):
        return float(sd.profile(w))

    if t == 0.0:
        re = _segmented_quad(sym_part, breaks, rtol, scale)
        return complex(re, 0.0)
    re = _segmented_quad(sym_part, breaks, rtol, scale, weight="cos", wvar=t)
    im = -_segmented_quad(plain, breaks, rtol, scale, weight="sin", wvar=t)
    return complex(re, im)
