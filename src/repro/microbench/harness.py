"""Microbenchmark harness: machine → signature (§5).

"Each parallel platform has a signature that is defined by the set of
metrics determined by various microbenchmarks."  The harness runs the
full suite against a simulated :class:`~repro.mpisim.runtime.Machine`
and assembles a :class:`~repro.noise.signature.MachineSignature`, using
either raw empirical distributions (method 2 of §5) or fitted
parametric families (method 1, via :mod:`repro.noise.fitting`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.microbench.bandwidth import BandwidthResult, run_bandwidth
from repro.microbench.ftq import FTQResult, run_ftq
from repro.microbench.mraz import MrazResult, run_mraz
from repro.microbench.pingpong import PingPongResult, run_pingpong
from repro.mpisim.runtime import Machine
from repro.noise.distributions import RandomVariable, ZERO
from repro.noise.empirical import Empirical
from repro.noise.models import NO_NOISE
from repro.noise.signature import MachineSignature

__all__ = ["MicrobenchReport", "measure_machine"]

_MIN_MEANINGFUL = 1e-9


@dataclass(frozen=True)
class MicrobenchReport:
    """Raw results of the full suite on one machine.

    ``ftq_by_rank`` is populated by per-rank measurement
    (``measure_machine(..., per_rank=True)``) on heterogeneous machines;
    rank 0's result doubles as the default ``ftq``.
    """

    machine_name: str
    ftq: FTQResult
    pingpong: PingPongResult
    bandwidth: BandwidthResult
    mraz: MrazResult
    ftq_by_rank: tuple = ()

    def _distribution(self, samples: np.ndarray, method: str) -> RandomVariable:
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0 or float(arr.max()) <= _MIN_MEANINGFUL:
            return ZERO
        if method == "empirical":
            return Empirical(arr)
        if method == "fit":
            from repro.noise.fitting import fit_best

            return fit_best(arr).distribution
        raise ValueError(f"method must be 'empirical' or 'fit', got {method!r}")

    def to_signature(self, method: str = "empirical") -> MachineSignature:
        """Assemble the machine signature from the measured samples.

        δ_os comes from FTQ per-quantum losses, δ_λ from ping-pong
        half-RTT jitter, the per-byte rate from bandwidth-run residuals.
        ``os_quantum`` records the FTQ quantum so the analyzer can apply
        the noise distribution per quantum of observed interval rather
        than once per edge (the interval-scaled extension).
        """
        by_rank = {}
        for rank, ftq in enumerate(self.ftq_by_rank):
            by_rank[rank] = self._distribution(np.asarray(ftq.loss), method)
        return MachineSignature(
            os_noise=self._distribution(np.asarray(self.ftq.loss), method),
            latency=self._distribution(self.pingpong.jitter_samples(), method),
            per_byte=self._distribution(self.bandwidth.per_byte_samples(), method),
            os_noise_by_rank=by_rank,
            name=f"{self.machine_name} ({method})",
            os_quantum=self.ftq.quantum,
        )

    def summary(self) -> str:
        return (
            f"machine {self.machine_name}: "
            f"ftq mean loss {self.ftq.mean_loss():.1f} cy/quantum, "
            f"latency {self.pingpong.latency_estimate():.1f} cy "
            f"(jitter mean {self.pingpong.jitter_samples().mean():.1f}), "
            f"bandwidth {self.bandwidth.bandwidth_estimate():.3f} B/cy, "
            f"mraz interval var {self.mraz.variance():.1f}"
        )


def measure_machine(
    machine: Machine,
    seed: int = 0,
    ftq_quanta: int = 1024,
    ftq_quantum: float = 10_000.0,
    pingpong_iterations: int = 256,
    bandwidth_iterations: int = 64,
    bandwidth_bytes: int = 1_048_576,
    mraz_messages: int = 512,
    per_rank: bool = False,
) -> MicrobenchReport:
    """Run the full microbenchmark suite against ``machine``.

    FTQ probes rank 0's noise model directly (single-node benchmark);
    with ``per_rank=True`` it is repeated on every node so heterogeneous
    machines (e.g. unsynchronized per-rank daemons) yield per-rank
    δ_os overrides in the signature.  The messaging probes run between
    ranks 0 and 1.
    """
    noise = machine.noise
    per_node = list(noise) if isinstance(noise, tuple) else [noise] * machine.nprocs
    per_node = [n if n is not None else NO_NOISE for n in per_node]
    ftq = run_ftq(per_node[0], quanta=ftq_quanta, quantum=ftq_quantum, seed=seed)
    ftq_by_rank: tuple = ()
    if per_rank:
        ftq_by_rank = tuple(
            run_ftq(per_node[r], quanta=ftq_quanta, quantum=ftq_quantum, seed=seed + 100 + r)
            for r in range(machine.nprocs)
        )
    pp = run_pingpong(machine, iterations=pingpong_iterations, seed=seed + 1)
    bw = run_bandwidth(
        machine, iterations=bandwidth_iterations, nbytes=bandwidth_bytes, seed=seed + 2
    )
    mz = run_mraz(machine, messages=mraz_messages, seed=seed + 3)
    return MicrobenchReport(
        machine_name=machine.name,
        ftq=ftq,
        pingpong=pp,
        bandwidth=bw,
        mraz=mz,
        ftq_by_rank=ftq_by_rank,
    )
