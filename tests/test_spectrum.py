import math

import pytest
from hypothesis import example, given, strategies as st

from eprnet import (
    SPEED_OF_LIGHT_NM_THZ,
    ChannelGrid,
    RateVector,
    SpectrumProfile,
    channel_bandwidth,
    channel_center_frequency,
    channel_center_wavelength,
    generation_rates,
)

C = 299792.458  # nm * THz, independent copy for oracle arithmetic


def grids(max_channels: int = 64):
    return st.builds(
        ChannelGrid,
        st.integers(min_value=1, max_value=max_channels),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.5, max_value=5.0),
        st.floats(min_value=800.0, max_value=2000.0),
    )


class TestWavelengths:
    def test_edge_channels(self):
        grid = ChannelGrid()
        # 1550 - 99.5 * 0.2 and 1550 + 99.5 * 0.2
        assert channel_center_wavelength(grid, 1) == pytest.approx(1530.1, rel=1e-12)
        assert channel_center_wavelength(grid, 200) == pytest.approx(1569.9, rel=1e-12)

    def test_midpoint_symmetry(self):
        grid = ChannelGrid()
        mid = 0.5 * (channel_center_wavelength(grid, 100)
                     + channel_center_wavelength(grid, 101))
        assert mid == pytest.approx(1550.0, rel=1e-12)

    @pytest.mark.parametrize("x", [0, 201, -3])
    def test_out_of_range(self, x):
        with pytest.raises(IndexError):
            channel_center_wavelength(ChannelGrid(), x)

    @pytest.mark.parametrize("x", [2.5, 2.0, True])
    def test_non_int_index_rejected(self, x):
        # 2.5 would name a wavelength between channels 2 and 3.
        grid = ChannelGrid(4)
        with pytest.raises(IndexError, match=f"channel index {x} outside 1..4"):
            channel_center_wavelength(grid, x)
        with pytest.raises(IndexError, match="outside"):
            channel_center_frequency(grid, x)

    @given(grids())
    def test_pitch_spacing(self, grid):
        lams = [channel_center_wavelength(grid, x)
                for x in range(1, grid.channel_count + 1)]
        for a, b in zip(lams, lams[1:]):
            assert b - a == pytest.approx(grid.channel_pitch_nm, rel=1e-9)


class TestFrequencies:
    def test_edge_frequencies_quoted(self):
        grid = ChannelGrid()
        assert channel_center_frequency(grid, 1) == pytest.approx(195.9, abs=0.1)
        assert channel_center_frequency(grid, 200) == pytest.approx(191.1, abs=0.2)

    def test_edge_frequencies_formula(self):
        grid = ChannelGrid()
        assert channel_center_frequency(grid, 1) == pytest.approx(
            C / (1550.0 - 99.5 * 0.2), rel=1e-12)
        assert channel_center_frequency(grid, 200) == pytest.approx(
            C / (1550.0 + 99.5 * 0.2), rel=1e-12)

    def test_center_channel(self):
        grid = ChannelGrid(channel_count=199)  # odd count puts x=100 at 1550
        assert channel_center_frequency(grid, 100) == pytest.approx(
            C / 1550.0, rel=1e-12)
        assert C / 1550.0 == pytest.approx(193.4, abs=0.1)

    @given(grids())
    def test_strictly_decreasing(self, grid):
        freqs = [channel_center_frequency(grid, x)
                 for x in range(1, grid.channel_count + 1)]
        assert all(a > b for a, b in zip(freqs, freqs[1:]))


class TestBandwidth:
    def test_edge_bandwidths_quoted(self):
        grid = ChannelGrid()
        assert channel_bandwidth(grid, 1) == pytest.approx(12.8, abs=0.1)
        assert channel_bandwidth(grid, 200) == pytest.approx(12.2, abs=0.1)

    def test_edge_bandwidths_formula(self):
        grid = ChannelGrid()
        lam1 = 1550.0 - 99.5 * 0.2
        lam200 = 1550.0 + 99.5 * 0.2
        assert channel_bandwidth(grid, 1) == pytest.approx(
            C * 0.1 / lam1**2 * 1e3, rel=1e-12)
        assert channel_bandwidth(grid, 200) == pytest.approx(
            C * 0.1 / lam200**2 * 1e3, rel=1e-12)

    def test_width_linearity(self):
        narrow = ChannelGrid(channel_width_nm=0.1)
        wide = ChannelGrid(channel_width_nm=0.2)
        for x in (1, 77, 200):
            assert channel_bandwidth(wide, x) == pytest.approx(
                2 * channel_bandwidth(narrow, x), rel=1e-12)


class TestGenerationRates:
    def test_gaussian_edge_value(self):
        rates = generation_rates(ChannelGrid(), SpectrumProfile())
        offset = (1 - (200 + 1) / 2) * 0.2
        expected = math.exp(-4 * math.log(2) * offset**2 / 9.0**2)
        assert rates[0] == pytest.approx(expected, rel=1e-12)
        assert rates[0] == pytest.approx(1.3e-6, rel=0.05)

    def test_half_maximum(self):
        # channel 123 sits 4.5 nm (half the FWHM) from center
        rates = generation_rates(ChannelGrid(), SpectrumProfile())
        assert rates[122] == pytest.approx(0.5, rel=1e-12)

    def test_peak_scaling(self):
        base = generation_rates(ChannelGrid(), SpectrumProfile(peak_rate=1.0))
        scaled = generation_rates(ChannelGrid(), SpectrumProfile(peak_rate=2.5))
        for a, b in zip(base, scaled):
            assert b == pytest.approx(2.5 * a, rel=1e-12)

    @given(grids())
    @example(ChannelGrid(61, 0.5, 5.0, 800.0))  # edge channels 150 nm out
    def test_symmetry_and_bounds(self, grid):
        profile = SpectrumProfile()
        rates = generation_rates(grid, profile)
        m = grid.channel_count
        coeff = 4 * math.log(2) / profile.fwhm_nm ** 2
        for x in range(m):
            d = (x + 1 - (m + 1) / 2) * grid.channel_pitch_nm
            assert rates[x] == rates[m - 1 - x]
            # exp(-745) still rounds to the smallest subnormal double; only
            # a true rate below half of it may correctly round to 0.0.
            assert rates[x] > 0.0 or coeff * d * d > 745.0
            assert rates[x] <= profile.peak_rate
        assert rates.total <= m * profile.peak_rate

    @given(grids())
    def test_decay_from_center(self, grid):
        rates = list(generation_rates(grid, SpectrumProfile()))
        m = grid.channel_count
        half = (m + 1) / 2
        for x in range(1, m):
            if x + 1 <= half:  # both channels on the rising flank
                assert rates[x] >= rates[x - 1]


class TestRateGrid:
    """The grid the rates are computed on: an omitted width is derived."""

    def test_width_narrows_to_a_tighter_pitch(self):
        # 0.1 nm channels, or as wide as the pitch when it is tighter.
        assert ChannelGrid().channel_width_nm == 0.1
        assert ChannelGrid(200, None, 0.2) == ChannelGrid(200, 0.1, 0.2, 1550.0)
        assert ChannelGrid(40, channel_pitch_nm=0.3) == ChannelGrid(40, 0.1, 0.3, 1550.0)
        assert ChannelGrid(40, channel_pitch_nm=0.05) == ChannelGrid(40, 0.05, 0.05, 1550.0)

    @pytest.mark.parametrize("pitch", [0.0, -0.5, math.nan, math.inf])
    def test_bad_pitch_is_named(self, pitch):
        # The pitch is checked before the width it sets.
        with pytest.raises(ValueError, match="^channel_pitch_nm must be finite"):
            ChannelGrid(40, channel_pitch_nm=pitch)


class TestValidation:
    def test_grid_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ChannelGrid(channel_count=0)
        with pytest.raises(ValueError):
            ChannelGrid(channel_width_nm=0.0)
        with pytest.raises(ValueError, match="got 0.2 < 0.3$"):
            ChannelGrid(4, 0.3, 0.2)
        with pytest.raises(ValueError):
            ChannelGrid(center_wavelength_nm=-1.0)

    @pytest.mark.parametrize("field", ["channel_width_nm", "channel_pitch_nm",
                                       "center_wavelength_nm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_grid_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelGrid(**{field: value})

    @pytest.mark.parametrize("count", [2.5, 8.0, True, "8"])
    def test_grid_rejects_non_int_channel_count(self, count):
        # Unchecked, 2.5 fails later in generation_rates and True makes a
        # 1-channel grid.
        with pytest.raises(ValueError, match="channel_count must be an int"):
            ChannelGrid(channel_count=count)

    def test_grid_rejects_channel_at_or_below_zero_nm(self):
        # Channel 1 sits at 775 - 775 nm; its frequency would divide by 0.
        with pytest.raises(ValueError, match="channel 1"):
            ChannelGrid(3, 0.1, 775.0, 775.0)
        assert channel_center_wavelength(ChannelGrid(3, 0.1, 774.0, 775.0), 1) == 1.0

    def test_profile_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SpectrumProfile(fwhm_nm=0.0)
        with pytest.raises(ValueError):
            SpectrumProfile(peak_rate=-1.0)

    @pytest.mark.parametrize("field", ["fwhm_nm", "peak_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_profile_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SpectrumProfile(**{field: value})

    def test_profile_rejects_fwhm_whose_square_underflows(self):
        with pytest.raises(ValueError, match="fwhm_nm"):
            SpectrumProfile(fwhm_nm=1e-200)
        # The square is subnormal but not 0: 4 ln 2 over it overflows.
        with pytest.raises(ValueError, match="fwhm_nm"):
            SpectrumProfile(fwhm_nm=1e-160)
        SpectrumProfile(fwhm_nm=1e-150)

    def test_rate_vector_validation(self):
        with pytest.raises(ValueError):
            RateVector(())
        with pytest.raises(ValueError):
            RateVector((1.0, -0.5))
        with pytest.raises(ValueError):
            RateVector((float("nan"),))
        with pytest.raises(ValueError, match="index 1"):
            RateVector((1.0, math.inf))
        with pytest.raises(ValueError, match="finite total"):
            RateVector((1e308, 1e308))
        vec = RateVector((1.0, 2.0))
        assert len(vec) == 2
        assert vec[1] == 2.0
        assert vec.total == 3.0

    def test_total_sums_left_to_right(self):
        # A compensated sum (builtin sum() from Python 3.12) would give
        # 1.000000000000001 and move the sweep CSV bytes.
        assert RateVector((1.0,) + (1e-16,) * 10).total == 1.0

    @given(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 1e-16, 2.5]),
                    min_size=1, max_size=40))
    def test_descending_order(self, rates):
        vec = RateVector(tuple(rates))
        assert vec.descending == tuple(
            sorted(range(len(rates)), key=lambda x: (-rates[x], x)))

    def test_derived_orders_are_cached_and_ignored_by_equality(self):
        vec = RateVector((1.0, 3.0, 2.0))
        assert vec.descending is vec.descending
        assert vec == RateVector((1.0, 3.0, 2.0))
        assert hash(vec) == hash(RateVector((1.0, 3.0, 2.0)))

    def test_speed_of_light_constant(self):
        assert SPEED_OF_LIGHT_NM_THZ == C
