"""Access-skew distributions over embedding keys.

* :class:`BandedSkewDistribution` — piecewise-uniform over rank bands,
  calibrated so the generated trace reproduces Table II exactly
  (top 0.05 % of entries -> 85.7 % of accesses, etc.). A *temperature*
  knob produces the "more skew" / "less skew" variants of Figure 11
  while keeping the total access count fixed, as the paper does.
* :func:`fit_exponential_rate` — the exponential-decay fit over sorted
  access frequencies that the paper draws in Figure 10.

Ranks are mapped to key ids through a deterministic pseudo-random
permutation so that hot keys are scattered across the id (and therefore
shard) space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.sharding import mix64
from repro.errors import ConfigError

#: (fraction of keys, fraction of accesses) per band, head first — the
#: increments of the paper's Table II plus the residual tail.
TABLE2_BANDS: tuple[tuple[float, float], ...] = (
    (0.0005, 0.857),  # top 0.05 %      -> 85.7 % cumulative
    (0.0005, 0.038),  # next, to 0.1 %  -> 89.5 %
    (0.0090, 0.062),  # next, to 1 %    -> 95.7 %
    (0.9900, 0.043),  # remaining 99 %  ->  4.3 %
)


class RankPermutation:
    """Deterministic bijection rank <-> key id over ``[0, n)``.

    Uses a fixed random permutation derived from the seed; hot ranks
    land on uniformly scattered key ids.
    """

    def __init__(self, num_keys: int, seed: int = 0):
        if num_keys <= 0:
            raise ConfigError(f"num_keys must be >= 1, got {num_keys}")
        rng = np.random.default_rng((seed, 0xC0FFEE))
        self._rank_to_key = rng.permutation(num_keys)

    def keys_for_ranks(self, ranks: np.ndarray) -> np.ndarray:
        return self._rank_to_key[ranks]

    @property
    def num_keys(self) -> int:
        return len(self._rank_to_key)


class BandedSkewDistribution:
    """Piecewise-uniform rank distribution matched to Table II.

    Args:
        num_keys: key-space size.
        bands: ``(key_fraction, access_mass)`` pairs, hottest first;
            fractions and masses must each sum to ~1.
        temperature: skew knob. Band masses are raised to this power and
            renormalised: ``t > 1`` concentrates accesses into the head
            ("more skew"), ``t < 1`` spreads them out ("less skew"),
            ``t = 1`` reproduces the bands exactly.
        seed: RNG seed (sampling and the rank permutation).
    """

    def __init__(
        self,
        num_keys: int,
        bands: tuple[tuple[float, float], ...] = TABLE2_BANDS,
        temperature: float = 1.0,
        seed: int = 0,
    ):
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        if num_keys < len(bands):
            raise ConfigError(
                f"num_keys must be >= {len(bands)} (one per band), got {num_keys}"
            )
        key_fracs = np.array([b[0] for b in bands], dtype=np.float64)
        masses = np.array([b[1] for b in bands], dtype=np.float64)
        if not math.isclose(key_fracs.sum(), 1.0, rel_tol=1e-6):
            raise ConfigError(f"band key fractions sum to {key_fracs.sum()}, want 1")
        if not math.isclose(masses.sum(), 1.0, rel_tol=1e-6):
            raise ConfigError(f"band masses sum to {masses.sum()}, want 1")
        masses = masses**temperature
        masses /= masses.sum()
        self.num_keys = num_keys
        self._band_mass = masses
        self._band_cum_mass = np.cumsum(masses)
        # Rank boundaries of each band; every band holds >= 1 rank: each
        # edge sits at least one past the previous one and leaves one
        # rank to every band after it.
        edges = np.round(np.cumsum(key_fracs) * num_keys).astype(np.int64)
        edges[-1] = num_keys
        floor = np.arange(1, len(bands) + 1)
        edges = np.minimum(
            np.maximum.accumulate(np.maximum(edges - floor, 0)), num_keys - len(bands)
        ) + floor
        self._band_hi = edges
        self._band_lo = np.concatenate([[0], edges[:-1]])
        self._rng = np.random.default_rng((seed, 0xBAD5EED))
        self._permutation = RankPermutation(num_keys, seed)

    def sample_ranks(self, n: int) -> np.ndarray:
        """Draw ``n`` ranks: pick a band by mass, then uniform inside."""
        u = self._rng.random(n)
        band = np.searchsorted(self._band_cum_mass, u, side="right")
        band = np.minimum(band, len(self._band_mass) - 1)
        lo = self._band_lo[band]
        hi = self._band_hi[band]
        return lo + (self._rng.random(n) * (hi - lo)).astype(np.int64)

    def sample_keys(self, n: int) -> np.ndarray:
        """Draw ``n`` key ids."""
        return self._permutation.keys_for_ranks(self.sample_ranks(n))

    def top_fraction_share(self, key_fraction: float) -> float:
        """Analytic access mass of the hottest ``key_fraction`` of keys.

        The Table II check: ``top_fraction_share(0.0005) == 0.857`` at
        temperature 1.
        """
        if not 0 < key_fraction <= 1:
            raise ConfigError(f"key_fraction must be in (0, 1], got {key_fraction}")
        target_rank = key_fraction * self.num_keys
        share = 0.0
        for i, mass in enumerate(self._band_mass):
            lo, hi = self._band_lo[i], self._band_hi[i]
            if target_rank >= hi:
                share += mass
            elif target_rank > lo:
                share += mass * (target_rank - lo) / (hi - lo)
        return share

    def with_temperature(self, temperature: float, seed: int = 0) -> "BandedSkewDistribution":
        """A skew variant over the same key space (Figure 11)."""
        bands = tuple(
            (float(hi - lo) / self.num_keys, float(mass))
            for lo, hi, mass in zip(self._band_lo, self._band_hi, self._band_mass)
        )
        return BandedSkewDistribution(
            self.num_keys, bands, temperature=temperature, seed=seed
        )


def fit_exponential_rate(frequencies: np.ndarray) -> tuple[float, float]:
    """Fit ``freq(r) = a * exp(-b * r/N)`` to sorted access frequencies.

    The paper's Figure 10 method: sort features by access frequency and
    fit an exponential-decay curve. Returns ``(a, b)`` from a linear
    least-squares fit in log space, weighted by frequency so the head —
    where virtually all accesses live — dominates the fit.

    Args:
        frequencies: access counts sorted descending (zeros are skipped).
    """
    freqs = np.asarray(frequencies, dtype=np.float64)
    if freqs.ndim != 1 or len(freqs) < 2:
        raise ConfigError("need a 1-D frequency array with >= 2 entries")
    n = len(freqs)
    mask = freqs > 0
    x = (np.arange(n)[mask]) / n
    y = np.log(freqs[mask])
    w = freqs[mask]
    sw = w.sum()
    mx = (w * x).sum() / sw
    my = (w * y).sum() / sw
    cov = (w * (x - mx) * (y - my)).sum()
    var = (w * (x - mx) ** 2).sum()
    if var == 0:
        raise ConfigError("degenerate frequency data (single rank)")
    slope = cov / var
    intercept = my - slope * mx
    return math.exp(intercept), -slope
