import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_lindblad_generator
from dynamap.errors import DimensionMismatch, DynamapError
from dynamap.lindblad import RateSeries
from dynamap.maps import DynamicalMapSeries, expm
from dynamap.serialization import (
    read_map_series,
    read_tensor_series,
    write_local_flags,
    write_local_series,
    write_map_series,
    write_rates_csv,
    write_tensor_series,
    read_local_series,
)
from dynamap.timelocal import local_maps
from dynamap.ttm import decompose


def lindblad_series():
    rng = np.random.default_rng(42)
    maps = []
    acc = np.eye(4, dtype=complex)
    for _ in range(7):
        acc = expm(random_lindblad_generator(rng), 0.1) @ acc
        maps.append(acc)
    return DynamicalMapSeries(dt=0.1, t0=0.25, maps=np.stack(maps))


@pytest.fixture
def series():
    return lindblad_series()


@st.composite
def map_series_cases(draw):
    """N >= 1 random complex maps at D = 2 or 3, on any finite grid."""
    n = draw(st.integers(1, 6))
    d2 = draw(st.sampled_from([4, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = rng.normal(size=(n, d2, d2)) + 1j * rng.normal(size=(n, d2, d2))
    dt = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    t0 = draw(st.floats(allow_nan=False, allow_infinity=False))
    return DynamicalMapSeries(dt=dt, t0=t0, maps=maps)


class TestBinaryContainer:
    # the round trips run on the fixed Lindblad series and on random ones
    @given(series=map_series_cases())
    @example(series=lindblad_series())
    def test_map_series_round_trip_bit_exact(self, series, tmp_path_factory):
        path = tmp_path_factory.mktemp("dmap") / "maps.dmap"
        write_map_series(path, series)
        back = read_map_series(path)
        assert back.dt == series.dt
        assert back.t0 == series.t0
        assert back.maps.tobytes() == series.maps.tobytes()

    def test_header_layout(self, series, tmp_path):
        path = tmp_path / "maps.dmap"
        write_map_series(path, series)
        raw = path.read_bytes()
        assert raw[:4] == b"DMAP"
        assert int.from_bytes(raw[4:8], "little") == 1
        header = np.frombuffer(raw, dtype="<f8", count=4, offset=8)
        assert header[0] == 2.0  # D
        assert header[1] == 7.0  # N
        assert header[2] == 0.1  # dt
        assert header[3] == 0.25  # t0
        assert len(raw) == 8 + 32 + 7 * 16 * 16

    def test_column_major_payload(self, tmp_path):
        m = np.arange(16, dtype=float).reshape(4, 4) + 0j
        series = DynamicalMapSeries(dt=1.0, t0=0.0, maps=m[None, :, :])
        path = tmp_path / "one.dmap"
        write_map_series(path, series)
        body = np.frombuffer(path.read_bytes(), dtype="<c16", offset=40)
        assert np.array_equal(body.real[:4], [0.0, 4.0, 8.0, 12.0])  # first column

    def test_wrong_magic_rejected(self, series, tmp_path):
        path = tmp_path / "maps.dmap"
        write_map_series(path, series)
        with pytest.raises(DimensionMismatch):
            read_tensor_series(path)

    def test_truncated_file_rejected(self, series, tmp_path):
        path = tmp_path / "maps.dmap"
        write_map_series(path, series)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DimensionMismatch):
            read_map_series(path)

    def test_non_finite_map_rejected(self, series, tmp_path):
        # a numerical failure, not a cache miss (DimensionMismatch)
        path = tmp_path / "maps.dmap"
        write_map_series(path, series)
        path.write_bytes(path.read_bytes()[:-8] + np.float64(np.nan).tobytes())
        with pytest.raises(DynamapError, match="1 of 7 maps have a non-finite entry") as err:
            read_map_series(path)
        assert not isinstance(err.value, DimensionMismatch)

    @given(series=map_series_cases())
    @example(series=lindblad_series())
    def test_tensor_series_round_trip(self, series, tmp_path_factory):
        tensors = decompose(series)
        path = tmp_path_factory.mktemp("tten") / "tensors.tten"
        write_tensor_series(path, tensors)
        assert path.read_bytes()[:4] == b"TTEN"
        back = read_tensor_series(path)
        assert back.dt == tensors.dt
        assert back.tensors.tobytes() == tensors.tensors.tobytes()
        assert np.allclose(back.norms, tensors.norms)

    @given(series=map_series_cases())
    @example(series=lindblad_series())
    def test_local_series_round_trip(self, series, tmp_path_factory):
        local = local_maps(series)
        path = tmp_path_factory.mktemp("lmap") / "local.lmap"
        write_local_series(path, local)
        assert path.read_bytes()[:4] == b"LMAP"
        back = read_local_series(path, sv_ratios=local.sv_ratios, flagged=local.flagged)
        assert (back.dt, back.t0) == (local.dt, local.t0)
        assert back.maps.tobytes() == local.maps.tobytes()
        assert np.array_equal(back.flagged, local.flagged)

    def test_local_series_needs_one_flag_per_map(self, series, tmp_path):
        path = tmp_path / "local.lmap"
        write_local_series(path, local_maps(series))
        with pytest.raises(DimensionMismatch):
            read_local_series(path, sv_ratios=[1.0], flagged=[False])


class TestCsv:
    def test_flags_sidecar(self, series, tmp_path):
        local = local_maps(series)
        path = tmp_path / "flags.csv"
        write_local_flags(path, local)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,t,sigma_min_over_max,flagged"
        assert len(lines) == 1 + len(local)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(series.t0)
        assert first[3] in ("true", "false")

    def test_rates_rows_as_wide_as_header(self, tmp_path):
        rates = RateSeries(
            times=np.array([0.0, 0.1, 0.2]),
            rates=np.array([[0.3, 0.2, -0.1], [np.nan] * 3, [0.3, 0.2, 0.1]]),
            min_rate=np.array([-0.1, np.nan, 0.1]),
            flagged=np.array([False, True, False]),
        )
        path = tmp_path / "rates.csv"
        write_rates_csv(path, rates)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,gamma_1,gamma_2,gamma_3,min_rate,flagged"
        assert all(len(line.split(",")) == 6 for line in lines)
        assert lines[1] == "0.0,0.3,0.2,-0.1,-0.1,false"
        assert lines[2] == "0.1,,,,,true"
