from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from dynamap.errors import QuadratureFailure
from dynamap.lindblad import gell_mann_basis
from dynamap.maps import (
    _PADE,
    _THETA,
    DynamicalMapSeries,
    _ell,
    _onenorm,
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


def reference_expm(gen, dt):
    """exp(gen * dt) as ``maps.expm`` computed it before it worked in place:
    the same order and scaling choice and the same Pade sums, written as
    plain expressions, each power and temporary a fresh array. It is the
    bit-for-bit oracle of ``maps.expm``."""
    a = np.asarray(gen, dtype=complex) * dt
    eye = np.eye(a.shape[0], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d4 = _onenorm(a4) ** (1 / 4)
    d6 = _onenorm(a6) ** (1 / 6)

    def pade(powers):
        b = _PADE[2 * len(powers) - 1]
        u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
        v = sum(b[2 * j] * p for j, p in enumerate(powers))
        return np.linalg.solve(v - u, v + u)

    if max(d4, d6) < _THETA[3] and _ell(a, 3) == 0:
        return pade([eye, a2])
    if max(d4, d6) < _THETA[5] and _ell(a, 5) == 0:
        return pade([eye, a2, a4])
    a8 = a6 @ a2
    d8 = _onenorm(a8) ** (1 / 8)
    eta_3 = max(d6, d8)
    if eta_3 < _THETA[7] and _ell(a, 7) == 0:
        return pade([eye, a2, a4, a6])
    if eta_3 < _THETA[9] and _ell(a, 9) == 0:
        return pade([eye, a2, a4, a6, a8])

    eta_5 = min(eta_3, max(d8, _onenorm(a4 @ a6) ** (1 / 10)))
    s = max(int(np.ceil(np.log2(eta_5 / _THETA[13]))), 0) if eta_5 > 0 else 0
    s += _ell(a * 2.0**-s, 13)
    b = _PADE[13]
    a, a2, a4, a6 = a * 2.0**-s, a2 * 4.0**-s, a4 * 16.0**-s, a6 * 64.0**-s
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    out = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        out = out @ out
    return out


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
