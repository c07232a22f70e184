"""Kernel FLOP/byte model and node-level performance model (paper Sec. 5.1).

The FLOP and traffic counts are derived from the *actual shapes of this
library's kernels* (which match SeisSol's: batched small GEMMs over modal
coefficient matrices of size ``B_N x 9``).  Node performance is then a
roofline evaluation with a NUMA term:

* the **predictor** (Cauchy-Kowalewski) touches only element-local data —
  first-touch allocation makes it NUMA-local, so its performance is the
  GEMM-efficiency-limited compute roof regardless of rank placement;
* the **corrector** gathers neighbor data through the unstructured face
  graph; with one rank spanning several NUMA domains a fraction of those
  gathers crosses NUMA boundaries at remote-access bandwidth, which is the
  strong NUMA effect the paper measures on AMD Rome (Sec. 5.1) and the
  reason multiple MPI ranks per node win (Sec. 6.3).

Calibration: three dimensionless constants (small-GEMM efficiency, gather
traffic inflation, remote NUMA bandwidth ratio) are fitted to the paper's
five measured numbers on the Rome node (~8% rms residual); other rank
placements, NUMA-extrapolated limits and other orders are *predicted*.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.basis import basis_size
from .machine import NodeSpec

__all__ = ["KernelCounts", "kernel_counts", "NodePerformanceModel", "dof_count"]

_DP = 8  # bytes per double


def dof_count(n_elements: int, order: int) -> int:
    """Degrees of freedom: B_N basis functions x 9 quantities per element."""
    return n_elements * basis_size(order) * 9


@dataclass(frozen=True)
class KernelCounts:
    """FLOPs and memory traffic per element update, split by kernel."""

    order: int
    flops_predictor: float
    flops_volume: float
    flops_surface: float
    bytes_predictor: float
    bytes_volume: float
    bytes_surface: float
    #: fraction of corrector (volume+surface) traffic that is neighbor data
    neighbor_traffic_fraction: float

    @property
    def flops_corrector(self) -> float:
        return self.flops_volume + self.flops_surface

    @property
    def flops_total(self) -> float:
        return self.flops_predictor + self.flops_corrector


def kernel_counts(order: int, variant: str = "batched") -> KernelCounts:
    """Count FLOPs/bytes of one full element update at degree ``order``.

    ``variant`` names a *counting convention*, not a runtime switch.
    ``"batched"`` counts the dense SeisSol-shaped chain (the form of the
    quadrature-form reference kernels in ``tests/reference_kernels.py``)
    that the Rome / Fig. 6 / T1 / T3 calibration is fitted to:

    * predictor: N Cauchy-Kowalewski levels, each 3 x [(B x B) @ (B x Q) +
      (B x Q) @ (Q x Q)] plus the Taylor time integration;
    * volume: 3 stiffness GEMMs of the same shapes;
    * surface: per face, trace extraction (nq x B) @ (B x Q) for both
      sides, two (Q x Q) flux applications at nq points, and the
      back-projection (B x nq) @ (nq x Q).

    ``variant="fused"`` counts what this repo executes, the compiled
    contraction chains of :mod:`repro.kernels.fusion`: degree-truncated
    Cauchy-Kowalewski levels (level ``k`` maps ``basis_size(N-k)`` modes
    to ``basis_size(N-k-1)``) and the face-basis surface form on
    ``F = (N+1)(N+2)/2`` rows in the quantity-major layout: per interior
    face the two elements' ``(Q, B) @ (B, F)`` traces, both sides' fluxes
    through the flux table's factors (``(r, 2Q) @ (2Q, F)``, ``(2Q, r) @
    (r, F)``, ``r = 6``) and the plus side's ``(Q, F) @ (F, F)`` change of
    face basis, and per face-side one ``(Q, F) @ (F, B)`` lift; an element
    update owns four face-sides, i.e. two faces' worth.  Its star
    products and tables hold the 108 nonzero star entries, and its
    predictor writes the compact levels 1..N at their own widths.
    """
    N = order
    B = basis_size(order)
    Q = 9  # quantities: 6 stresses + 3 velocities
    nq = (order + 2) ** 2  # face quadrature points

    level = 3 * (2.0 * B * B * Q + 2.0 * B * Q * Q)
    star, flux = 3 * Q * Q, 2 * Q * Q  # table doubles: per element, face-side
    if variant == "batched":
        fl_pred = N * level + (N + 1) * 2.0 * B * Q  # + time integration
        derivs = (N + 1) * B * Q
        per_face = 2 * (2.0 * nq * B * Q) + 2 * (2.0 * nq * Q * Q) + 2.0 * nq * B * Q
        fl_surf = 4 * per_face
    elif variant == "fused":
        # truncated CK: level k reads sizes[k] modes, writes sizes[k+1]
        sizes = [basis_size(N - k) for k in range(N + 1)]
        star = 6 * 9 + 3 * 18  # the star rows' nonzero blocks
        fl_pred = sum(
            3 * 2.0 * sizes[k + 1] * sizes[k] * Q + 2.0 * star * sizes[k + 1]
            for k in range(N)
        ) + (N + 1) * 2.0 * B * Q
        derivs = Q * sum(sizes[1:])
        # per face: both traces onto the F face modes, both sides' fluxes
        # through the (r, 2Q) and (2Q, r) factors and the plus side's
        # change of basis; per face-side: its gathered lift
        F, r = basis_size(N, dim=2), 6
        per_face = (2 * (2.0 * Q * B * F) + 2 * 2.0 * (2 * Q) * r * F
                    + 2.0 * Q * F * F)
        fl_surf = 2 * per_face + 4 * (2.0 * Q * F * B)
        flux = (2 * Q) * r  # a face's 2 * 2Q * r doubles over its 2 sides
    else:
        raise ValueError(f"unknown kernel variant {variant!r}")
    fl_vol = 3 * 2.0 * B * B * Q + 2.0 * star * B

    by_pred = _DP * (B * Q + derivs + star)  # read Q + write derivs + star
    by_vol = _DP * (2 * B * Q + star)  # read I, accumulate, star
    # surface: own I + 4 neighbor I + the flux tables of 4 face-sides + update
    by_surf_own = _DP * (B * Q + B * Q)
    by_surf_neigh = _DP * (4 * B * Q + 4 * flux)
    by_surf = by_surf_own + by_surf_neigh
    neigh_frac = by_surf_neigh / (by_vol + by_surf)

    return KernelCounts(
        order=order,
        flops_predictor=fl_pred,
        flops_volume=fl_vol,
        flops_surface=fl_surf,
        bytes_predictor=float(by_pred),
        bytes_volume=float(by_vol),
        bytes_surface=float(by_surf),
        neighbor_traffic_fraction=float(neigh_frac),
    )


@dataclass
class NodePerformanceModel:
    """Roofline + NUMA node model calibrated on the Sec. 5.1 measurements.

    Parameters
    ----------
    node:
        Hardware description.
    order:
        Polynomial degree (paper: 5).
    gemm_efficiency:
        Fraction of peak reachable by the small-GEMM kernels (compute roof).
    gather_inefficiency:
        Traffic inflation of the unstructured neighbor gathers (cache-line
        waste, per-face flux-matrix streams, latency-limited access).
    remote_bw_ratio:
        Remote-to-local NUMA bandwidth ratio for cross-domain gathers.

    The three constants are calibrated against the paper's five measured
    Rome numbers (Sec. 5.1) with ~8% rms residual; see
    ``benchmarks/bench_t1_numa_nodelevel.py``.
    """

    node: NodeSpec
    order: int = 5
    gemm_efficiency: float = 0.61
    gather_inefficiency: float = 3.0
    remote_bw_ratio: float = 0.15
    #: counting convention of :func:`kernel_counts` the model evaluates
    #: ("batched" or "fused"); must match the benchmarked execution path,
    #: or measured GFLOP/s and the roofline disagree by the fusion factor
    variant: str = "batched"

    def __post_init__(self):
        self.counts = kernel_counts(self.order, variant=self.variant)
        c = self.counts
        own_proj = 2 * _DP * basis_size(self.order) * 9
        self._neigh_bytes = (c.bytes_surface - own_proj) * self.gather_inefficiency
        self._own_bytes = c.bytes_volume + own_proj
        self._corr_bytes = self._own_bytes + self._neigh_bytes
        self._gather_share = self._neigh_bytes / self._corr_bytes

    # ------------------------------------------------------------------
    def _kernel_perf(self, flops, bytes_, peak, bw) -> float:
        """Roofline: attainable GFLOP/s for one kernel."""
        ai = flops / bytes_
        return min(self.gemm_efficiency * peak, ai * bw)

    def predictor_gflops(self, n_numa_used: int | None = None) -> float:
        """Predictor-only rate (GFLOP/s) on ``n_numa_used`` NUMA domains."""
        n = self.node.n_numa if n_numa_used is None else n_numa_used
        peak = self.node.peak_gflops * n / self.node.n_numa
        bw = self.node.numa_bw_gbs * n
        c = self.counts
        return self._kernel_perf(c.flops_predictor, c.bytes_predictor, peak, bw)

    def corrector_gflops(self, n_numa_used: int | None = None, ranks_per_node: int = 1) -> float:
        """Corrector-only rate (GFLOP/s) with the NUMA gather penalty."""
        n = self.node.n_numa if n_numa_used is None else n_numa_used
        peak = self.node.peak_gflops * n / self.node.n_numa
        bw = self.node.numa_bw_gbs * n

        domains_per_rank = max(n / ranks_per_node, 1.0)
        cross_frac = self._gather_share * (1.0 - 1.0 / domains_per_rank)
        bw_corr = bw * (1.0 - cross_frac + cross_frac * self.remote_bw_ratio)
        return self._kernel_perf(
            self.counts.flops_corrector, self._corr_bytes, peak, bw_corr
        )

    def full_gflops(self, n_numa_used: int | None = None, ranks_per_node: int = 1) -> float:
        """Predictor+corrector rate with the NUMA gather penalty.

        With ``ranks_per_node`` ranks, each rank's working set spans
        ``n_numa / ranks`` domains; the fraction of neighbor gathers that
        crosses a NUMA boundary shrinks accordingly.
        """
        n = self.node.n_numa if n_numa_used is None else n_numa_used
        peak = self.node.peak_gflops * n / self.node.n_numa
        bw = self.node.numa_bw_gbs * n
        c = self.counts

        domains_per_rank = max(n / ranks_per_node, 1.0)
        cross_frac = self._gather_share * (1.0 - 1.0 / domains_per_rank)
        bw_corr = bw * (1.0 - cross_frac + cross_frac * self.remote_bw_ratio)

        t_pred = c.flops_predictor / self._kernel_perf(
            c.flops_predictor, c.bytes_predictor, peak, bw
        )
        t_corr = c.flops_corrector / self._kernel_perf(
            c.flops_corrector, self._corr_bytes, peak, bw_corr
        )
        return c.flops_total / (t_pred + t_corr)

    def numa_extrapolated_limit(self, measured_single_numa: float | None = None, full: bool = False) -> float:
        """The paper's 'extrapolate single-NUMA result x n_numa' number."""
        if measured_single_numa is None:
            measured_single_numa = (
                self.full_gflops(n_numa_used=1, ranks_per_node=1)
                if full
                else self.predictor_gflops(n_numa_used=1)
            )
        return measured_single_numa * self.node.n_numa

    def efficiency(self, gflops: float) -> float:
        return gflops / self.node.peak_gflops
