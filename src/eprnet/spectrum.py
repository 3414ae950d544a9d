"""Wavelength-channel grid and per-channel photon-pair generation rates.

The source emits a broadband spectrum that is carved into a fixed grid of
narrow wavelength channels, symmetric about a center wavelength.  Each
channel is used as an indivisible unit by the allocation strategies; this
module defines the grid geometry and evaluates the source's Gaussian
emission profile at each channel center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

SPEED_OF_LIGHT_NM_THZ = 299792.458
"""Speed of light expressed in nm*THz, so wavelength math stays in nm."""


def _check_positive(name: str, value: float) -> None:
    if not (0 < value < math.inf):  # also rejects NaN
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class ChannelGrid:
    """Uniform wavelength grid of indivisible channels.

    Channels are indexed 1..channel_count and placed symmetrically about
    ``center_wavelength_nm`` with spacing ``channel_pitch_nm``.  The pitch
    may exceed the channel width, leaving a guard band between channels.
    An omitted width is 0.1 nm, or the pitch when that is tighter.
    """

    channel_count: int = 200
    channel_width_nm: float | None = None
    channel_pitch_nm: float = 0.2
    center_wavelength_nm: float = 1550.0

    def __post_init__(self) -> None:
        if not isinstance(self.channel_count, int) or isinstance(self.channel_count, bool):
            raise ValueError(
                f"channel_count must be an int, got {self.channel_count!r}")
        if self.channel_count < 1:
            raise ValueError(f"channel_count must be >= 1, got {self.channel_count}")
        _check_positive("channel_pitch_nm", self.channel_pitch_nm)
        if self.channel_width_nm is None:
            object.__setattr__(self, "channel_width_nm", min(0.1, self.channel_pitch_nm))
        _check_positive("channel_width_nm", self.channel_width_nm)
        if self.channel_pitch_nm < self.channel_width_nm:
            raise ValueError(
                "channel_pitch_nm must be >= channel_width_nm, got "
                f"{self.channel_pitch_nm} < {self.channel_width_nm}"
            )
        _check_positive("center_wavelength_nm", self.center_wavelength_nm)
        bluest = channel_center_wavelength(self, 1)
        if bluest <= 0:
            raise ValueError(
                f"every channel center must be > 0 nm, got {bluest} nm for channel 1"
            )


@dataclass(frozen=True)
class SpectrumProfile:
    """Gaussian emission profile of the photon-pair source."""

    fwhm_nm: float = 9.0
    peak_rate: float = 1.0

    def __post_init__(self) -> None:
        _check_positive("fwhm_nm", self.fwhm_nm)
        if self.coeff == math.inf:
            raise ValueError(
                f"fwhm_nm is too small: 4 ln 2 / fwhm_nm^2 overflows, got {self.fwhm_nm}")
        if not (0 <= self.peak_rate < math.inf):  # also rejects NaN
            raise ValueError(f"peak_rate must be finite and >= 0, got {self.peak_rate}")

    @property
    def coeff(self) -> float:
        """4 ln 2 / fwhm^2, the exponent per nm^2 of detuning; inf if it overflows."""
        square = self.fwhm_nm * self.fwhm_nm
        return 4.0 * math.log(2.0) / square if square else math.inf


@dataclass(frozen=True)
class RateVector:
    """Per-channel generation rates, one entry per grid channel.

    The descending channel order that the allocation strategies read is
    built on first use and kept: it depends only on the rates, so every
    instance sharing this vector shares it.
    """

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("RateVector must hold at least one rate")
        for i, r in enumerate(self.rates):
            if not (0 <= r < math.inf):  # also rejects NaN
                raise ValueError(f"rate at index {i} must be finite and >= 0, got {r}")
        if self.total == math.inf:
            raise ValueError("rates must have a finite total")

    def __len__(self) -> int:
        return len(self.rates)

    def __iter__(self):
        return iter(self.rates)

    def __getitem__(self, index):
        return self.rates[index]

    @cached_property
    def total(self) -> float:
        """Left-to-right sum; builtin sum() compensates from Python 3.12 on."""
        return reduce(add, self.rates, 0.0)

    @cached_property
    def descending(self) -> tuple[int, ...]:
        """Channel indices by descending rate, ties by ascending index."""
        n = self.rates
        return tuple(sorted(range(len(n)), key=lambda x: (-n[x], x)))


def _check_index(grid: ChannelGrid, x: int) -> None:
    if (not isinstance(x, int) or isinstance(x, bool)
            or not 1 <= x <= grid.channel_count):
        raise IndexError(
            f"channel index {x} outside 1..{grid.channel_count}"
        )


def channel_center_wavelength(grid: ChannelGrid, x: int) -> float:
    """Center wavelength in nm of 1-indexed channel ``x``.

    The grid is symmetric: channel (m+1)/2 (or the midpoint of the two
    middle channels for even counts) sits at the center wavelength.
    """
    _check_index(grid, x)
    offset = (x - (grid.channel_count + 1) / 2) * grid.channel_pitch_nm
    return grid.center_wavelength_nm + offset


def channel_center_frequency(grid: ChannelGrid, x: int) -> float:
    """Center frequency in THz of channel ``x``."""
    return SPEED_OF_LIGHT_NM_THZ / channel_center_wavelength(grid, x)


def channel_bandwidth(grid: ChannelGrid, x: int) -> float:
    """Frequency width in GHz spanned by channel ``x``.

    Uses the small-bandwidth conversion c*dlambda/lambda^2 at the channel
    center, so red channels are slightly narrower in frequency than blue
    ones for the same wavelength width.
    """
    lam = channel_center_wavelength(grid, x)
    return SPEED_OF_LIGHT_NM_THZ * grid.channel_width_nm / (lam * lam) * 1e3


def generation_rates(grid: ChannelGrid, profile: SpectrumProfile) -> RateVector:
    """Evaluate the Gaussian profile at every channel center.

    The rates read only the channel count and pitch.  A sweep's grid is
    centered at 1550 nm: one reaching 0 nm is refused.

    Returns:
        RateVector of length ``grid.channel_count``; entry x-1 is the
        pair-generation rate of channel x, ``peak_rate`` at zero detuning
        and half that at one half-width (fwhm/2) detuning.
    """
    coeff = profile.coeff
    half = (grid.channel_count + 1) / 2
    rates = []
    for x in range(1, grid.channel_count + 1):
        # Detuning straight from the channel offset keeps the profile
        # exactly mirror-symmetric about the grid center.
        detuning = (x - half) * grid.channel_pitch_nm
        rates.append(profile.peak_rate * math.exp(-coeff * detuning * detuning))
    return RateVector(tuple(rates))


__all__ = [
    "SPEED_OF_LIGHT_NM_THZ", "ChannelGrid", "RateVector", "SpectrumProfile",
    "channel_bandwidth", "channel_center_frequency",
    "channel_center_wavelength", "generation_rates",
]
