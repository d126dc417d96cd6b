"""Endpoint layer: attaching virtual-instance endpoints to router sites.

Figure 8 of the paper shows that the number of endpoints a router site
connects varies by orders of magnitude and is well fit by a **Weibull**
distribution.  This module provides that distribution (sampling, CDF, and
fitting), plus the :class:`EndpointLayout` that assigns endpoint identifiers
to sites — the second layer of the contracted topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import checks
from .graph import SiteNetwork

__all__ = [
    "WeibullEndpointModel",
    "EndpointLayout",
    "attach_endpoints",
]


@dataclass(frozen=True)
class WeibullEndpointModel:
    """Weibull model of endpoints-per-site (paper Fig. 8).

    A heavy-tailed shape (< 1) reproduces the paper's observation that site
    endpoint counts span orders of magnitude.  The *scale* parameter is the
    knob §6.1 sweeps to study different topology scales.

    Attributes:
        shape: Weibull shape parameter ``k`` (default 0.6, heavy-tailed).
        scale: Weibull scale parameter ``λ`` — roughly the typical endpoint
            count per site.
    """

    shape: float = 0.6
    scale: float = 1000.0

    def __post_init__(self) -> None:
        checks.positive("shape", self.shape)
        checks.positive("scale", self.scale)

    def sample_counts(
        self, num_sites: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one endpoint count per site (each at least 1)."""
        raw = rng.weibull(self.shape, size=num_sites) * self.scale
        return np.maximum(1, np.round(raw)).astype(np.int64)

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """CDF of the endpoint-count distribution."""
        # scipy.stats costs ~0.35 s to import and only the Fig. 8 study
        # needs it, so it loads on first use, not with the package.
        from scipy import stats

        return stats.weibull_min.cdf(x, self.shape, loc=0.0, scale=self.scale)

    def with_scale(self, scale: float) -> "WeibullEndpointModel":
        """The same shape at a different scale (the §6.1 sweep knob)."""
        return WeibullEndpointModel(shape=self.shape, scale=scale)

    @classmethod
    def fit(cls, counts: Sequence[int]) -> "WeibullEndpointModel":
        """Fit shape and scale to empirical per-site endpoint counts."""
        data = np.asarray(counts, dtype=float)
        if data.size == 0 or np.any(data <= 0):
            raise ValueError("counts must be positive and non-empty")
        from scipy import stats

        shape, _, scale = stats.weibull_min.fit(data, floc=0.0)
        return cls(shape=float(shape), scale=float(scale))


class EndpointLayout:
    """Endpoint-to-site assignment — the contracted topology's second layer.

    Endpoints are numbered globally ``0 .. num_endpoints-1``; each belongs
    to exactly one site (Figure 5's "singular and direct" connections).

    Endpoint -> site lookups gather from a per-endpoint table of site
    indices, built on first use in the smallest signed integer dtype that
    holds the site count (one byte per endpoint up to 127 sites).  The
    table stops at the first id of the last site with endpoints: every
    later id belongs to that site, and the gather clips to it, so one huge
    trailing site costs nothing.
    """

    def __init__(self, counts_by_site: Mapping[str, int]) -> None:
        self._sites: list[str] = []
        self._counts: list[int] = []
        self._first_id: dict[str, int] = {}
        self._site_index: dict[str, int] = {}
        next_id = 0
        for site, count in counts_by_site.items():
            checks.nonnegative(f"endpoint count at {site!r}", count)
            self._site_index[site] = len(self._sites)
            self._sites.append(site)
            self._counts.append(int(count))
            self._first_id[site] = next_id
            next_id += int(count)
        self._total = next_id
        self._starts = list(self._first_id.values())
        self._table: np.ndarray | None = None

    @property
    def sites(self) -> list[str]:
        return list(self._sites)

    @property
    def num_endpoints(self) -> int:
        """Total endpoints across all sites."""
        return self._total

    def count(self, site: str) -> int:
        """Endpoints attached to ``site``."""
        return self._counts[self._site_index[site]]

    def counts_by_site(self) -> dict[str, int]:
        return dict(zip(self._sites, self._counts))

    def endpoint_ids(self, site: str) -> range:
        """Global endpoint-id range attached to ``site``."""
        idx = self._site_index[site]
        start = self._starts[idx]
        return range(start, start + self._counts[idx])

    def site_of(self, endpoint_id: int) -> str:
        """The site an endpoint hangs off."""
        if not 0 <= endpoint_id < self._total:
            raise IndexError(f"endpoint {endpoint_id} out of range")
        table = self._site_table()
        return self._sites[table[min(endpoint_id, table.size - 1)]]

    def site_indices(self, endpoint_ids: np.ndarray) -> np.ndarray:
        """Index into :attr:`sites` of every endpoint in an id column.

        The columnar twin of :meth:`site_of`: one gather, in the table's
        dtype; ids must already lie in ``[0, num_endpoints)``.
        """
        return np.take(self._site_table(), endpoint_ids, mode="clip")

    def _site_table(self) -> np.ndarray:
        """Site index of every endpoint id up to the last site's first."""
        if self._table is None:
            counts = np.array(self._counts, dtype=np.int64)
            occupied = np.flatnonzero(counts)
            if occupied.size:
                # The last occupied site gets one entry; clipping maps
                # every id past it there.
                counts[occupied[-1]] = 1
            self._table = np.repeat(
                np.arange(
                    len(self._sites),
                    dtype=np.min_scalar_type(-len(self._sites)),
                ),
                counts,
            )
        return self._table

    def scaled(self, factor: float) -> "EndpointLayout":
        """A layout with every site's count scaled by ``factor`` (min 1)."""
        checks.positive("factor", factor)
        return EndpointLayout(
            {
                site: max(1, round(count * factor))
                for site, count in zip(self._sites, self._counts)
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EndpointLayout(sites={len(self._sites)}, "
            f"endpoints={self._total})"
        )


def attach_endpoints(
    network: SiteNetwork,
    model: WeibullEndpointModel | None = None,
    total_endpoints: int | None = None,
    seed: int = 0,
    sites: Sequence[str] | None = None,
) -> EndpointLayout:
    """Attach endpoints to the sites of ``network``.

    Per-site counts are Weibull-distributed (Fig. 8).  If
    ``total_endpoints`` is given, the sampled counts are rescaled so the
    layout totals approximately that many endpoints — this is how Table 2's
    per-topology endpoint totals (e.g. 120,000 for B4*) are hit.

    Args:
        network: The site layer.
        model: Endpoint-count distribution; defaults to the TWAN fit.
        total_endpoints: Approximate layout total after rescaling.
        seed: RNG seed.
        sites: Restrict attachment to these sites (e.g. excluding transit
            relays that host no tenants); others get zero endpoints.
    """
    model = model or WeibullEndpointModel()
    rng = np.random.default_rng(seed)
    eligible = list(sites) if sites is not None else network.sites
    for site in eligible:
        if not network.has_site(site):
            raise ValueError(f"unknown site {site!r}")
    counts = model.sample_counts(len(eligible), rng)
    if total_endpoints is not None:
        if total_endpoints < len(eligible):
            raise ValueError("need at least one endpoint per eligible site")
        factor = total_endpoints / float(counts.sum())
        counts = np.maximum(1, np.round(counts * factor)).astype(np.int64)
    by_site = dict.fromkeys(network.sites, 0)
    by_site.update(dict(zip(eligible, counts.tolist())))
    return EndpointLayout(by_site)
