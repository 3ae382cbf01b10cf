import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1, expi

from conftest import EXCITED, SX, SY, SZ, bath_correlation
from dynamap.errors import MemoryBudgetExceeded, NonDiagonalizableCoupling, QuadratureFailure
from dynamap.maps import expm, is_trace_preserving, vectorize, devectorize
from dynamap.models import (
    DrudeLorentzDensity,
    QDPhononDensity,
    SubOhmicDensity,
    SystemSpec,
    TabulatedDensity,
    _segments,
    build_embedding,
)
from dynamap import propagators
from dynamap.harness import preset_config
from dynamap.propagators import (
    InfluenceCoefficients,
    embedding_propagate,
    embedding_state,
    eta_coefficients,
    quapi_propagate,
    quapi_state,
    _dense_path,
    _dense_peak_bytes,
    _group_size,
    _readout,
)

SUB = SubOhmicDensity(alpha=0.2, s=0.7, omega_c=5.0)
DL = DrudeLorentzDensity(lam=0.1, gamma=1.0)
QD = QDPhononDensity(c_e=0.1271, c_h=-0.0635, omega_e=2.555, omega_h=2.938)
ZERO = TabulatedDensity(omegas=(0.0, 1.0), values=(0.0, 0.0))
# triangle with its kinks at decade breakpoints (peak 1, support cutoff 20)
TRIANGLE = TabulatedDensity(omegas=(0.0, 1.0, 10.0), values=(0.0, 0.5, 0.0))
_W9 = np.linspace(0.0, 8.0, 9)
KINKED = TabulatedDensity(
    omegas=tuple(_W9), values=tuple(0.3 * _W9 * np.exp(-_W9 / 2.0) * (_W9 < 8.0))
)


def drude_lorentz_correlation(sd, t):
    """C(t) at T = 0 for t > 0 in closed form, with J integrated to infinity:
    int_0^inf 2 lam gamma w e^{-i w t}/(w^2 + gamma^2) dw
    = -lam gamma [e^{-x} Ei(x) - e^{x} E1(x)] - i pi lam gamma e^{-x}, x = gamma t."""
    x = sd.gamma * np.asarray(t, dtype=float)
    scale = sd.lam * sd.gamma
    return -scale * (np.exp(-x) * expi(x) - np.exp(x) * exp1(x)) - 1j * np.pi * scale * np.exp(-x)


def truncate(coeffs, kmax):
    return InfluenceCoefficients(dt=coeffs.dt, kmax=kmax, eta=coeffs.eta[: kmax + 1])


def lag_product_dense(h_eig, dt, n_steps, kmax, self_phi, lag_phi, d2):
    """Reference dense recursion: every step multiplies the path tensor by
    the step kernel and then by each lag factor in turn, over all kmax + 1
    path variables, and sums out the oldest once the window is full."""
    self_factor = np.exp(-self_phi)
    lag_factor = [None] + [np.exp(-lag_phi[k]) for k in range(1, kmax + 1)]
    u_half = expm(-1j * h_eig, dt / 2.0)
    k_half = np.kron(u_half.conj(), u_half)
    k_full = np.kron((u_half @ u_half).conj(), u_half @ u_half)
    step_kernel = (k_full * lag_factor[1] * self_factor[:, None]).T
    maps = np.empty((n_steps, d2, d2), dtype=complex)
    tensor = k_half.T * self_factor[None, :]
    maps[0] = _readout(tensor, k_half)
    for n in range(2, n_steps + 1):
        hist = tensor.ndim - 1
        expanded = tensor[..., None] * step_kernel
        for k in range(2, hist + 1):
            shape = [1] * expanded.ndim
            shape[1 + hist - k] = shape[-1] = d2
            expanded = expanded * lag_factor[k].T.reshape(shape)
        tensor = expanded.sum(axis=1) if hist == kmax else expanded
        maps[n - 1] = _readout(tensor, k_half)
    return maps


def one_pass_dense(h_eig, dt, n_steps, kmax, self_phi, lag_phi, d2):
    """Reference dense recursion without groups: all D^2 basis operators
    through :func:`_dense_path` as one batch, every step read out whole."""
    k_half, path = _dense_path(h_eig, dt, n_steps, kmax, self_phi, lag_phi, d2)
    maps = np.empty((n_steps, d2, d2), dtype=complex)
    for n, tensor in enumerate(path(np.eye(d2, dtype=complex))):
        maps[n] = _readout(tensor, k_half)
    return maps


def mixing_case(dim, kmax):
    """A dense-branch system and influence coefficients. At D = 3 the
    coupling has three distinct eigenvalues and commutes neither with H_S
    nor with the computational basis."""
    if dim == 2:
        system = SystemSpec(h_s=0.6 * SX + 0.25 * SZ, coupling_op=0.5 * SZ)
    else:
        sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2.0)
        sz = np.diag([1.0, 0.0, -1.0])
        system = SystemSpec(
            h_s=0.6 * sx + 0.25 * sz + np.diag([0.0, 0.1, 0.0]),
            coupling_op=0.5 * sz + 0.15 * sx,
        )
    eta = np.array([(0.04 - 0.03j) / (k + 1) ** 1.5 for k in range(kmax + 1)])
    return system, InfluenceCoefficients(dt=0.1, kmax=kmax, eta=eta)


def exact_sum(values):
    """The exact rational sum of float values."""
    ratios = [float(v).as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)
    return Fraction(sum(num * (scale // den) for num, den in ratios), scale)


def assert_readout_rounded_once(tensor, k_half):
    """Each map entry sum_{h,l} k_half[a, l] tensor[b, h, l] of
    :func:`_readout` against its exact rational value: within half an ulp
    plus the accumulation error of the platform's long double (about a tenth
    of an ulp on x86-64)."""
    got = _readout(tensor, k_half)
    d2 = tensor.shape[-1]
    history = tensor.reshape(tensor.shape[0], -1, d2)
    unit = 0.5 * float(np.finfo(np.longdouble).eps)
    n_ops = history.shape[1] * d2 + d2
    for b in range(history.shape[0]):
        sums = [(exact_sum(history[b, :, l].real), exact_sum(history[b, :, l].imag))
                for l in range(d2)]
        norms = np.abs(history[b]).sum(axis=0)
        for a in range(k_half.shape[0]):
            re = im = Fraction(0)
            for l, (tr, ti) in enumerate(sums):
                kr, ki = Fraction(k_half[a, l].real), Fraction(k_half[a, l].imag)
                re += kr * tr - ki * ti
                im += kr * ti + ki * tr
            size = float(np.sum(2.0 * np.abs(k_half[a]) * norms))
            for part, exact in ((got[a, b].real, re), (got[a, b].imag, im)):
                bound = 0.5 * np.spacing(abs(float(exact))) + 2.0 * n_ops * unit * size
                assert abs(Fraction(part) - exact) <= Fraction(bound)


class TestEmbeddingPropagate:
    def test_decoupled_mode_gives_bare_unitary(self):
        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.0, decay=0.5, n_max=4)
        series = embedding_propagate(emb, 0.1, 30)
        for n in range(1, 31):
            u = expm(-1j * system.h_s, n * 0.1)
            assert np.max(np.abs(series.maps[n - 1] - np.kron(u.conj(), u))) < 1e-12

    def test_matches_direct_extended_exponential(self):
        from dynamap.models import build_embedding

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        dt = 0.1
        series = embedding_propagate(emb, dt, 60)
        for n in (1, 7, 23, 60):
            direct = emb.project @ expm(emb.generator, n * dt) @ emb.embed
            assert np.max(np.abs(series.maps[n - 1] - direct)) < 1e-10

    def test_composition_fails_but_extended_identity_holds(self):
        # non-Markovianity witness: E(t_{n+m}) != E(t_n) E(t_m) in general
        from dynamap.models import build_embedding

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        series = embedding_propagate(emb, 0.1, 40)
        composed = series.maps[19] @ series.maps[19]
        assert np.max(np.abs(series.maps[39] - composed)) > 1e-6

    def test_trace_and_hermiticity_preserved(self):
        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        series = embedding_propagate(emb, 0.1, 40)
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        for m in series.maps:
            assert is_trace_preserving(m)
            out = devectorize(m @ vectorize(rho))
            assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_embedding_state_at_grid_point(self):
        from dynamap.models import build_embedding

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        emb = build_embedding(system, mode_frequency=1.0, coupling=0.4, decay=0.5, n_max=6)
        series = embedding_propagate(emb, 0.1, 50)
        direct = embedding_state(emb, EXCITED, 5.0)
        powered = devectorize(series.maps[49] @ vectorize(EXCITED))
        assert np.max(np.abs(direct - powered)) < 1e-10


def two_block_embedding(upper: float, lower: float, gamma: float = 0.7):
    """An Embedding on N = 8 entries that is no system (x) mode product: a
    qubit Lindbladian L in the first 4 x 4 block, L - gamma I in the second,
    seeded couplings of size ``upper`` (second block into the first) and
    ``lower`` (first into the second); embed = [I; 0], project = [I, 0]."""
    from dynamap.maps import lindblad_generator
    from dynamap.models import Embedding

    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    lind = lindblad_generator(0.5 * SX + 0.3 * SZ, [sm, SZ], [0.4, 0.1])
    rng = np.random.default_rng(7)
    blocks = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    generator = np.block([[lind, upper * blocks[0]], [lower * blocks[1], lind - gamma * np.eye(4)]])
    eye = np.eye(4, dtype=complex)
    zero = np.zeros((4, 4), dtype=complex)
    return lind, Embedding(generator, np.vstack([eye, zero]), np.hstack([eye, zero]))


class TestEmbeddingBeyondProductSpace:
    def test_maps_and_state_from_generator_embed_project(self):
        from scipy.linalg import expm as scipy_expm

        lind, emb = two_block_embedding(upper=0.3, lower=0.3)
        dt, n_steps = 0.1, 50
        series = embedding_propagate(emb, dt, n_steps)
        assert series.maps.shape == (n_steps, 4, 4)
        for n in (1, 9, 27, 50):
            direct = emb.project @ scipy_expm(emb.generator * (n * dt)) @ emb.embed
            assert np.max(np.abs(series.maps[n - 1] - direct)) < 1e-10
        # the second block feeds back, so the maps are not L's semigroup
        assert np.max(np.abs(series.maps[-1] - scipy_expm(lind * (n_steps * dt)))) > 1e-3
        state = embedding_state(emb, EXCITED, n_steps * dt)
        powered = devectorize(series.maps[-1] @ vectorize(EXCITED))
        assert state.shape == (2, 2)
        assert np.max(np.abs(state - powered)) < 1e-10

    @pytest.mark.parametrize("upper,lower", [(0.3, 0.0), (0.0, 0.3)])
    def test_stationary_state_is_that_of_the_first_block(self, upper, lower):
        from scipy.linalg import null_space

        from dynamap.models import stationary_state

        lind, emb = two_block_embedding(upper, lower)
        kernel = devectorize(null_space(lind)[:, 0])
        expected = kernel / np.trace(kernel)
        rho = stationary_state(emb)
        assert np.max(np.abs(rho - expected)) < 1e-10
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


def window_integral(sd, temperature, dt, k):
    """eta_k from its definition, int (dt - |u|) C(k dt + u) du over the
    step window(s), by adaptive quadrature over bath_correlation."""
    corr = cache(lambda t: bath_correlation(sd, temperature, t))
    lo = 0.0 if k == 0 else -dt
    points = None if k == 0 else [0.0]
    re, im = (
        quad(lambda u: part((dt - abs(u)) * corr(k * dt + u)), lo, dt, points=points,
             epsabs=1e-14, epsrel=1e-10, limit=200)[0]
        for part in (np.real, np.imag)
    )
    return complex(re, im)


def quadpack_eta(sd, temperature, dt, k):
    """eta_k by QUADPACK per decade segment, as eta_coefficients computed it
    before its Filon rule: the windowed integrand whole where b (k+1) dt <
    20, above that the cos/sin-weighted pieces of J coth/w^2 and J/w^2."""
    breaks = _segments(sd)
    floor = max(1e-10 * abs(bath_correlation(sd, temperature, 0.0)) * dt**2, 1e-13)

    def sym(w):
        j = float(sd.profile(w))
        return j / np.tanh(w / (2.0 * temperature)) if temperature > 0 else j

    def odd(w):
        return float(sd.profile(w))

    def integrate(f, a, b, **weight):
        return quad(f, a, b, epsabs=0.1 * floor / breaks.size, epsrel=1e-12, limit=200,
                    **weight)[0]

    def piece(f, trig, m, a, b):
        if m == 0:
            return integrate(lambda w: f(w) / w**2, a, b) if trig == "cos" else 0.0
        return integrate(lambda w: f(w) / w**2, a, b, weight=trig, wvar=m * dt)

    def window(w):
        return (2.0 * np.sin(0.5 * w * dt) / w) ** 2

    total = 0.0j
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b * (k + 1) * dt < 20.0 and k == 0:
            total += complex(
                integrate(lambda w: 0.5 * sym(w) * window(w), a, b),
                integrate(lambda w: odd(w) * (np.sin(w * dt) - w * dt) / w**2, a, b),
            )
        elif b * (k + 1) * dt < 20.0:
            total += complex(
                integrate(lambda w: sym(w) * window(w) * np.cos(k * w * dt), a, b),
                -integrate(lambda w: odd(w) * window(w) * np.sin(k * w * dt), a, b),
            )
        elif k == 0:
            total += complex(
                piece(sym, "cos", 0, a, b) - piece(sym, "cos", 1, a, b),
                piece(odd, "sin", 1, a, b) - dt * integrate(lambda w: odd(w) / w, a, b),
            )
        else:
            total += complex(*(
                sign * (2.0 * piece(f, trig, k, a, b) - piece(f, trig, k - 1, a, b)
                        - piece(f, trig, k + 1, a, b))
                for f, trig, sign in ((sym, "cos", 1.0), (odd, "sin", -1.0))
            ))
    return total


WINDOW_CASES = [
    (SUB, 0.0, 0.08, 5),
    (DL, 0.0, 0.05, 5),
    (DL, 1.0, 0.05, 10),
    (QD, 0.0, 0.05, 8),
    (TRIANGLE, 0.5, 0.1, 10),
]
WINDOW_IDS = ["subohmic", "drude_lorentz", "drude_lorentz_T1", "qd_phonon", "tabulated_T0.5"]


class TestEtaCoefficients:
    def test_zero_density_gives_zero(self):
        coeffs = eta_coefficients(ZERO, 0.0, 0.1, 4)
        assert np.max(np.abs(coeffs.eta)) == 0.0

    @pytest.mark.parametrize("sd, temperature, dt, kmax", WINDOW_CASES, ids=WINDOW_IDS)
    def test_matches_window_integral_of_correlation(self, sd, temperature, dt, kmax):
        coeffs = eta_coefficients(sd, temperature, dt, kmax)
        for k in (0, 1, kmax):
            oracle = window_integral(sd, temperature, dt, k)
            assert abs(coeffs.eta[k] - oracle) <= 1e-7 * abs(oracle), k

    @pytest.mark.parametrize(
        "sd, temperature, dt, kmax",
        WINDOW_CASES + [(SUB, 0.0, 0.02, 250)],
        ids=WINDOW_IDS + ["criterion_7"],
    )
    def test_matches_quadpack_pieces(self, sd, temperature, dt, kmax):
        coeffs = eta_coefficients(sd, temperature, dt, kmax)
        for k in sorted({0, 1, kmax // 2, kmax}):
            oracle = quadpack_eta(sd, temperature, dt, k)
            assert abs(coeffs.eta[k] - oracle) <= 1e-10 * abs(oracle), k

    @pytest.mark.parametrize(
        "sd, temperature, dt, eta_rtol, reference",
        [
            # the algebraic tail is integrated over high-phase segments up to 4e12
            (DL, 0.0, 0.05, 1e-7, {
                0: (0.0009798636446459693386807385, -0.0003862350979561657963978184),
                1: (0.00126881721781369395228676, -0.0007472495004940500360010156),
                5: (0.0004426268270279565918911496, -0.0006117961462766393629334956),
            }),
            # J coth(w/2T) ~ w^(s-1) at the lower endpoint
            (SUB, 0.5, 0.08, 1e-7, {
                0: (0.02960395838356163454628102, -0.006112198046497099755234507),
                1: (0.04467188385805378050906206, -0.02839875335626275567894109),
                5: (-0.0002733946014885323089593136, -0.01424236057850667731065071),
            }),
            (QD, 0.0, 0.05, 1e-7, {
                0: (0.006322497744916327795353709, -0.0003832073311013695386806632),
                1: (0.01240914168803890830001764, -0.002277575378131958884433489),
                8: (0.001424665052126369459598397, -0.01085413917999610637713067),
            }),
            (KINKED, 0.0, 0.1, 1e-12, {
                0: (0.005148173979804524386162079, -0.0005725017355146989302356896),
                1: (0.009577755131287203943792046, -0.003288816989271561710342088),
                5: (-0.0001331826134376825347148819, -0.006659300551996948878453961),
            }),
        ],
        ids=["drude_lorentz", "subohmic_T0.5", "qd_phonon", "tabulated_9_nodes"],
    )
    def test_matches_mpmath(self, sd, temperature, dt, eta_rtol, reference, monkeypatch):
        # the references are the frequency integrals of the docstring over
        # [0, support_cutoff], by mpmath.quad at 30 digits on a partition of
        # quarter periods (for the table, its nodes); the Drude-Lorentz tail
        # above w = 200 by mpmath.quadosc on the exp(-i m dt w) pieces, with
        # dt int J/w in closed form up to the cutoff
        kmax = max(reference)
        monkeypatch.setattr(propagators, "ETA_RTOL", eta_rtol)
        coeffs = eta_coefficients(sd, temperature, dt, kmax)
        for k, (re, im) in reference.items():
            assert abs(coeffs.eta[k] - complex(re, im)) <= 1e-12 * abs(complex(re, im)), k

    def test_unreachable_eta_rtol_raises(self, monkeypatch):
        # J coth(w/2T) ~ w^-0.98 at w = 0: bisection towards the endpoint
        # removes a factor 2^-0.02 of the error per step, so no tolerance is
        # reached before the panels underflow
        sharp = SubOhmicDensity(alpha=0.2, s=0.02, omega_c=5.0)
        for eta_rtol in (1e-7, 1e-12):
            monkeypatch.setattr(propagators, "ETA_RTOL", eta_rtol)
            with pytest.raises(QuadratureFailure):
                eta_coefficients(sharp, 0.5, 0.08, 5)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 7.0, 39.99, 40.01, 250.0, 3e4])
    def test_legendre_moments_are_spherical_bessel(self, theta):
        # both branches of the moment table against 2 i^j j_j(theta)
        from scipy.special import spherical_jn

        order = np.arange(propagators._ORDER + 1)
        want = 2.0 * 1j**order * spherical_jn(order, theta)
        got = propagators._legendre_moments(np.array([theta]))[0]
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_drude_lorentz_closed_form_correlation(self):
        # the closed form integrates J to infinity, bath_correlation up to the
        # support cutoff w_max; the tail moves C(t) by about 1/(w_max t)
        # relative, 2.8e-10 at t = 1e-4
        for t in (1e-4, 1e-3, 1e-2, 0.05, 0.5):
            want = drude_lorentz_correlation(DL, t)
            assert abs(bath_correlation(DL, 0.0, t) - want) <= 5e-10 * abs(want)

    def test_diagonal_window_against_double_trapezoid(self):
        dt = 0.05
        coeffs = eta_coefficients(DL, 0.0, dt, 1)
        # triangular reduction of the ordered double window integral; C has a
        # logarithmic short-time singularity, so the trapezoid mesh is graded.
        # C(0) is finite only through the support cutoff and comes from
        # bath_correlation; every other node from the closed form
        taus = np.concatenate([[0.0], np.geomspace(1e-9 * dt, dt, 8001)])
        cvals = np.concatenate(
            [[bath_correlation(DL, 0.0, 0.0)], drude_lorentz_correlation(DL, taus[1:])]
        )
        oracle = np.trapezoid((dt - taus) * cvals, taus)
        assert abs(coeffs.eta[0] - oracle) <= 1e-6 * abs(oracle)

    def test_lag_window_against_double_trapezoid(self):
        dt = 0.08
        k = 3
        coeffs = eta_coefficients(SUB, 0.0, dt, k)
        n_grid = 161
        grid = np.linspace(0.0, dt, n_grid)
        # brute-force double integral over the window pair at lag k; the
        # integrand depends on u - v only, so evaluate C per diagonal
        deltas = {}
        for i in range(n_grid):
            for j in range(n_grid):
                deltas.setdefault(i - j, k * dt + grid[i] - grid[j])
        cvals = {key: bath_correlation(SUB, 0.0, t) for key, t in deltas.items()}
        cmat = np.array([[cvals[i - j] for j in range(n_grid)] for i in range(n_grid)])
        oracle = np.trapezoid(np.trapezoid(cmat, grid, axis=1), grid)
        assert abs(coeffs.eta[k] - oracle) <= 1e-5 * abs(oracle)

    def test_subohmic_lag_decay_is_algebraic(self):
        coeffs = eta_coefficients(SUB, 0.0, 0.1, 20)
        k = np.arange(4, 21)
        mags = np.abs(coeffs.eta[4:])
        slope = np.polyfit(np.log(k), np.log(mags), 1)[0]
        assert slope < -0.5

    def test_magnitudes_decay_overall(self):
        coeffs = eta_coefficients(SUB, 0.0, 0.08, 10)
        mags = np.abs(coeffs.eta)
        assert mags[-1] < mags[1]
        assert np.all(np.isfinite(coeffs.eta))


class TestQuapiPropagate:
    def test_zero_coupling_is_bare_unitary(self):
        system = preset_config("subohmic").system
        coeffs = eta_coefficients(ZERO, 0.0, 0.08, 3)
        series = quapi_propagate(system, coeffs, 40)
        for n in range(1, 41):
            u = expm(-1j * system.h_s, n * 0.08)
            assert np.max(np.abs(series.maps[n - 1] - np.kron(u.conj(), u))) < 1e-10

    def test_commuting_branch_matches_dense(self, subohmic_run):
        _, _, eta, _ = subohmic_run
        coeffs = truncate(eta, 4)
        system = SystemSpec(h_s=np.zeros((2, 2)), coupling_op=0.5 * SZ)
        commuting = quapi_propagate(system, coeffs, 8)
        # a numerically off-diagonal Hamiltonian forces the dense tensor path
        system_dense = SystemSpec(
            h_s=np.array([[0.0, 1e-300], [1e-300, 0.0]]), coupling_op=0.5 * SZ
        )
        dense = quapi_propagate(system_dense, coeffs, 8)
        assert np.max(np.abs(commuting.maps - dense.maps)) < 1e-12

    @pytest.mark.parametrize("h_s, commuting", [
        (0.6 * SX + 0.25 * SZ, False), (0.3 * SZ, True), (1e150 * SX, False),
        (1e154 * SX, False), (1.5e308 * (SX + SY), False), (1e300 * SZ + 1e-300 * SX, True),
    ], ids=["dense", "commuting", "1e150", "1e154", "1.5e308", "huge-diagonal"])
    def test_commuting_test_cannot_overflow(self, h_s, commuting):
        # the test's scale is finite for finite entries; a Frobenius norm
        # overflows from about 1.3e154 and then passes any off-diagonal
        system = SystemSpec(h_s=h_s, coupling_op=0.5 * SZ)
        coeffs = eta_coefficients(ZERO, 0.0, 0.1, 2)
        assert propagators._path_setup(system, coeffs)[4] is commuting

    def test_trace_preserving(self, subohmic_run, monkeypatch):
        _, _, _, series = subohmic_run
        monkeypatch.setattr("dynamap.maps.TRACE_TOL", 1e-8)
        for m in series.maps[::25]:
            assert is_trace_preserving(m)

    def test_hermiticity_preserved(self, subohmic_run):
        _, _, _, series = subohmic_run
        rho = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]], dtype=complex)
        for m in series.maps[::50]:
            out = devectorize(m @ vectorize(rho))
            assert np.max(np.abs(out - out.conj().T)) < 1e-10

    def test_memory_hierarchy_converges(self, subohmic_run):
        system, _, eta, _ = subohmic_run
        n_steps = 30
        final = {}
        for kmax in range(1, 6):
            series = quapi_propagate(system, truncate(eta, kmax), n_steps)
            final[kmax] = series.maps[-1]
        diffs = [np.linalg.norm(final[k + 1] - final[k]) for k in range(1, 5)]
        for a, b in zip(diffs[:-1], diffs[1:]):
            assert b <= a + 1e-10

    def test_subohmic_shape(self, subohmic_run):
        # fast decaying oscillation at early times, slow monotone decay later
        _, _, _, series = subohmic_run
        states = np.array([devectorize(m @ vectorize(EXCITED)) for m in series.maps])
        sz = np.einsum("nij,ji->n", states, SZ).real
        early = sz[: int(10 / 0.08)]
        assert early.min() < -0.05  # oscillates through zero
        late = sz[int(25 / 0.08) :]
        assert np.max(np.abs(late)) < 0.02  # decayed

    def test_memory_budget_guard(self, monkeypatch):
        system = preset_config("subohmic").system
        coeffs = InfluenceCoefficients(dt=0.08, kmax=3, eta=np.ones(4, dtype=complex))
        monkeypatch.setattr(propagators, "MEMORY_BUDGET", 100.0)
        with pytest.raises(MemoryBudgetExceeded):
            quapi_propagate(system, coeffs, 5)

    def test_memory_budget_is_peak_bytes(self, monkeypatch):
        # complex128 entries at D = 2, kmax = 3, 5 steps, all four basis
        # operators in one group: the path tensor and its spare, the influence
        # tables up to h = 2 and the oldest lag factor, one numpy loop buffer
        # (the tensor is below np.getbufsize()), two map series and 32 D^4
        # setup; float64 readout scratch for the 4 x 4^2 history rows of the
        # batch, read in one pass, and the ones vector for 4^2 rows
        system = preset_config("subohmic").system
        coeffs = InfluenceCoefficients(dt=0.08, kmax=3, eta=np.full(4, 0.01, dtype=complex))
        tensor = 4 ** 4
        peak = (16 * (2 * tensor + (4**2 + 4**3) + 4**2 + tensor + (2 * 5 + 32) * 4**2)
                + 8 * (4 * 4**2 * 2 * 4 + 4**2))
        # the default still admits kmax = 8 at D = 2; one operator at a time
        # it admits kmax = 13, and refuses kmax = 14
        assert _dense_peak_bytes(4, 8, 1000) <= propagators.MEMORY_BUDGET
        assert _dense_peak_bytes(4, 13, 1) <= propagators.MEMORY_BUDGET
        assert _dense_peak_bytes(4, 14, 1) > propagators.MEMORY_BUDGET
        monkeypatch.setattr(propagators, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(MemoryBudgetExceeded):
            quapi_propagate(system, coeffs, 5)
        monkeypatch.setattr(propagators, "MEMORY_BUDGET", peak)
        quapi_propagate(system, coeffs, 5)

    @pytest.mark.parametrize("kmax", [3, 6, 8])
    def test_memory_budget_bounds_traced_peak(self, kmax):
        # the guard's count against what the allocator sees: an upper bound,
        # and at most 1.5 times the traced peak once the window has filled.
        # kmax = 3 and 6 run the basis operators as one group, kmax = 8 one
        # at a time
        system = preset_config("subohmic").system
        coeffs = InfluenceCoefficients(
            dt=0.08, kmax=kmax, eta=np.full(kmax + 1, 0.01, dtype=complex)
        )
        n_steps = kmax + 4
        quapi_propagate(system, coeffs, n_steps)  # one-time imports and caches
        tracemalloc.start()
        try:
            quapi_propagate(system, coeffs, n_steps)
            _, observed = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        formula = _dense_peak_bytes(4, kmax, n_steps)
        assert observed <= formula <= 1.5 * observed

    @pytest.mark.parametrize(
        "dim, kmax",
        [(2, 1), (2, 2), (2, 5), (2, 8), (3, 1), (3, 2), (3, 4)],
        ids=["1", "2", "5", "8", "qutrit-1", "qutrit-2", "qutrit-4"],
    )
    @pytest.mark.parametrize("full_window", [False, True])
    def test_influence_tables_match_lag_products(self, monkeypatch, dim, kmax, full_window):
        # one step, or the fill phase, the switch to a full window and a few
        # full steps; for kmax = 1 the window is full from the second step on.
        # kmax = 8 is the depth of the deep-memory benchmark. At D = 3 the
        # middle block of a full-window step (9^(kmax-1)) differs in length
        # from every other axis
        n_steps = kmax + 4 if full_window else 1
        system, coeffs = mixing_case(dim, kmax)
        got = quapi_propagate(system, coeffs, n_steps).maps
        monkeypatch.setattr(propagators, "_propagate_dense", lag_product_dense)
        want = quapi_propagate(system, coeffs, n_steps).maps
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize(
        "dim, kmax, group",
        [(2, 5, 4), (2, 8, 1), (3, 4, 9), (3, 5, 1)],
        ids=["5", "8", "qutrit-4", "qutrit-5"],
    )
    def test_grouped_operators_match_one_batch(self, monkeypatch, dim, kmax, group):
        # the basis operators in groups of at most 1 MiB of full-window path
        # tensor (all together at D = 2, kmax = 5 and D = 3, kmax = 4; one at
        # a time at kmax = 8 and 5) give the maps of one batch of all D^2
        # operators bit for bit, through the fill phase and full steps
        assert _group_size(dim**2, kmax) == group
        system, coeffs = mixing_case(dim, kmax)
        got = quapi_propagate(system, coeffs, kmax + 4).maps
        monkeypatch.setattr(propagators, "_propagate_dense", one_pass_dense)
        want = quapi_propagate(system, coeffs, kmax + 4).maps
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_steps", [0, -1])
    @pytest.mark.parametrize("h_s", [0.6 * SX + 0.25 * SZ, 0.3 * SZ], ids=["dense", "commuting"])
    def test_fewer_than_one_step_rejected(self, n_steps, h_s):
        system = SystemSpec(h_s=h_s, coupling_op=0.5 * SZ)
        coeffs = InfluenceCoefficients(dt=0.1, kmax=2, eta=np.full(3, 0.01, dtype=complex))
        with pytest.raises(ValueError, match="n_steps must be at least 1"):
            quapi_propagate(system, coeffs, n_steps)

    def test_readout_rounded_once(self):
        # terms of similar phase, as in the propagator
        rng = np.random.default_rng(7)
        shape = (4,) * 5  # batch, three history variables, latest
        tensor = 1.0 + 0.2 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        k_half = 1.0 + 0.2 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert_readout_rounded_once(tensor, k_half)

    def test_readout_rounded_once_over_wide_cancelling_history(self):
        # 4^6 terms per entry, magnitudes over 2^-40..1, and the history's
        # second half the negated first half plus terms 2^-24 smaller, so
        # the sums cancel to a small fraction of their terms
        rng = np.random.default_rng(11)
        shape = (4, 512, 4)
        half = 2.0 ** rng.uniform(-40, 0, size=shape) * np.exp(2j * np.pi * rng.random(shape))
        small = 2.0**-24 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        tensor = np.concatenate([half, -half + small * np.abs(half)], axis=1)
        k_half = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert_readout_rounded_once(tensor.reshape((4,) * 7), k_half)

    @pytest.mark.parametrize("hist", [2, 6], ids=["one-pass", "chunked"])
    def test_readout_batch_equals_rows(self, hist):
        # each batch row is split by its own power of two: rows 2^20 apart
        # in magnitude read out together exactly as one by one. 4^6 history
        # rows take more than one pass through the scratch
        rng = np.random.default_rng(3)
        shape = (4,) + (4,) * hist + (4,)
        scale = 2.0 ** (20.0 * np.arange(-1, 3)).reshape((4,) + (1,) * (hist + 1))
        tensor = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        k_half = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = _readout(tensor, k_half)
        for r in range(4):
            assert np.array_equal(got[:, r], _readout(tensor[r : r + 1], k_half)[:, 0])

    def test_readout_of_zero_tensor_is_zero(self):
        k_half = np.full((4, 4), 0.5 + 0.5j)
        with np.errstate(all="raise"):
            got = _readout(np.zeros((4, 4, 4, 4), dtype=complex), k_half)
        assert np.array_equal(got, np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
    def test_readout_of_non_finite_entry_is_non_finite(self, bad):
        rng = np.random.default_rng(5)
        tensor = rng.normal(size=(4, 4, 4, 4)) + 0j
        tensor[1, 2, 3, 0] = bad
        k_half = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with np.errstate(all="ignore"):
            got = _readout(tensor, k_half)
        assert not np.all(np.isfinite(got[:, 1]))
        assert np.all(np.isfinite(np.delete(got, 1, axis=1)))

    def test_non_hermitian_coupling_rejected(self):
        system = object.__new__(SystemSpec)
        object.__setattr__(system, "h_s", np.zeros((2, 2), dtype=complex))
        object.__setattr__(system, "coupling_op", np.array([[0, 1], [0, 0]], dtype=complex))
        object.__setattr__(system, "temperature", 0.0)
        coeffs = InfluenceCoefficients(dt=0.1, kmax=1, eta=np.zeros(2, dtype=complex))
        with pytest.raises(NonDiagonalizableCoupling):
            quapi_propagate(system, coeffs, 3)


class TestQuapiState:
    """The one-state recursion against the map series it replaces:
    ``quapi_propagate(...).maps[n - 1] @ vec(rho_0)``."""

    @staticmethod
    def reference(system, coeffs, initial, n_steps):
        return devectorize(quapi_propagate(system, coeffs, n_steps).maps[n_steps - 1]
                           @ vectorize(initial))

    @pytest.mark.parametrize("name", ["subohmic", "drude_lorentz", "qd_phonon"])
    def test_presets_bit_equal_at_n_ref(self, name):
        from dynamap.harness import preset_config

        config = preset_config(name)
        coeffs = eta_coefficients(
            config.bath, config.system.temperature, config.dt, config.propagator.kmax
        )
        got = quapi_state(config.system, coeffs, config.initial, config.n_ref)
        want = self.reference(config.system, coeffs, config.initial, config.n_ref)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("coupling", [0.5 * SX + 0.2 * SZ, 0.5 * SX + 0.3 * SY + 0.2 * SZ],
                             ids=["real", "complex"])
    def test_non_diagonal_coupling_mixed_state(self, subohmic_run, coupling):
        # the basis change is no permutation here, so it rounds in another
        # order than the map series' (4 ulp measured); with a sigma_y part
        # it is complex and not its own inverse
        _, _, eta, _ = subohmic_run
        system = SystemSpec(h_s=0.5 * SX - 0.3 * SZ, coupling_op=coupling)
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        coeffs = truncate(eta, 4)
        for n_steps in (1, 3, 4, 5, 40):
            got = quapi_state(system, coeffs, rho, n_steps)
            assert np.max(np.abs(got - self.reference(system, coeffs, rho, n_steps))) <= 1e-14

    def test_commuting_branch(self, subohmic_run):
        _, _, eta, _ = subohmic_run
        system = SystemSpec(h_s=0.3 * SZ, coupling_op=0.5 * SZ)
        rho = np.array([[0.6, 0.3 + 0.2j], [0.3 - 0.2j, 0.4]], dtype=complex)
        coeffs = truncate(eta, 4)
        for n_steps in (1, 4, 30):
            got = quapi_state(system, coeffs, rho, n_steps)
            assert np.array_equal(got, self.reference(system, coeffs, rho, n_steps))
        # the coherence decays and rotates; populations stay put
        assert abs(got[0, 1]) < abs(rho[0, 1])
        assert np.allclose(np.diag(got), np.diag(rho), atol=1e-15)

    def test_memory_budget_is_peak_bytes_of_one_state(self, monkeypatch):
        # complex128 entries at D = 2, kmax = 3 for a batch of one: the path
        # tensor and its spare, the influence tables up to h = 2 and the
        # oldest lag factor, one numpy loop buffer, no map series and 32 D^4
        # setup; float64 readout scratch and ones vector for 4^2 history rows
        system = preset_config("subohmic").system
        coeffs = InfluenceCoefficients(dt=0.08, kmax=3, eta=np.full(4, 0.01, dtype=complex))
        peak = _dense_peak_bytes(4, 3, 0, batch=1)
        assert peak == (16 * (2 * 4**3 + (4**2 + 4**3) + 4**2 + 4**3 + 32 * 4**2)
                        + 8 * 4**2 * (2 * 4 + 1))
        monkeypatch.setattr(propagators, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(MemoryBudgetExceeded):
            quapi_state(system, coeffs, EXCITED, 5)
        monkeypatch.setattr(propagators, "MEMORY_BUDGET", peak)
        quapi_state(system, coeffs, EXCITED, 5)

    @pytest.mark.parametrize("kmax", [3, 6])
    def test_memory_budget_bounds_traced_peak_of_state(self, kmax):
        system = preset_config("subohmic").system
        coeffs = InfluenceCoefficients(
            dt=0.08, kmax=kmax, eta=np.full(kmax + 1, 0.01, dtype=complex)
        )
        n_steps = kmax + 4
        quapi_state(system, coeffs, EXCITED, n_steps)  # one-time imports and caches
        tracemalloc.start()
        try:
            quapi_state(system, coeffs, EXCITED, n_steps)
            _, observed = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert observed <= _dense_peak_bytes(4, kmax, 0, batch=1)


class TestStationarityBeforeEquilibration:
    def test_window_and_extrapolation_on_scale_separated_model(self):
        import dynamap as dm

        system = SystemSpec(h_s=0.5 * SX, coupling_op=0.5 * SZ)
        from dynamap.models import build_embedding

        emb = build_embedding(system, mode_frequency=1.0, coupling=0.1, decay=2.0, n_max=6)
        dt = 0.1
        series = embedding_propagate(emb, dt, 600)
        local = dm.local_maps(series)
        times, diffs = dm.stationarity_profile(local)
        states = np.array([devectorize(m @ vectorize(EXCITED)) for m in series.maps])
        sz = np.einsum("nij,ji->n", states, SZ).real
        window = (diffs < 1e-6) & (np.abs(sz[1 : 1 + len(diffs)]) > 1e-2)
        assert window.any()
        # pick a cutoff well inside the window and extrapolate to 10 tau_c
        idx = np.nonzero(window)[0]
        k = int(idx[idx.size // 2]) + 1
        tau_c = k * dt
        tl_states = dm.extrapolate_tl(local, EXCITED, k, int(round(10 * tau_c / dt)))
        oracle = embedding_state(emb, EXCITED, 10 * tau_c)
        err = abs(np.trace(SZ @ (tl_states[-1] - oracle)).real)
        assert err <= 1e-6
