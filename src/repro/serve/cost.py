"""Per-batch service-time tables priced from the backends' cycle models.

Everything the serving layer decides — admission, shedding, batch
sizing, early batch close, brownout degradation — is priced against the
*same* :meth:`Backend.price_conv` cycle curves the rest of the repo
reproduces from the paper, summed over the model's unique conv layers at
each batch size.  That is the point of the exercise: the batcher's
"optimal batch" is whatever batch the measured (simulated) Fig. 10
batch-efficiency curve says amortizes best, not a hand-tuned constant.

A :class:`CostTable` is immutable once built: ``service_us[b-1]`` is the
full-model service time for a batch of ``b`` images, plus a fixed
``overhead_us`` per dispatch (launch/queue overhead the per-conv model
does not include).  Helper views:

* :meth:`service` — total time to run one batch of ``b``;
* :meth:`per_image` — amortized per-image cost at batch ``b``, the
  quantity batching exists to minimize;
* :meth:`best_batch` — the batch size (<= a cap) with the lowest
  per-image cost, i.e. where the efficiency curve bottoms out.

The serve loop asks these questions tens of thousands of times per
replay, so construction answers them once: :attr:`CostTable.total_us`
holds every ``service(b)`` and a per-cap table holds every
``best_batch`` answer.  The views are plain indexes into those tuples,
computed with the same float expressions, so no decision can move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..backends import get_backend
from ..errors import ReproError
from ..models import get_model_layers
from ..obs import log as obs_log


@dataclass(frozen=True)
class CostTable:
    """Priced service time of one (backend, model, bits) per batch size."""

    backend: str
    model: str
    bits: int
    #: full-model service microseconds, indexed ``[batch-1]``
    service_us: Tuple[float, ...]
    #: fixed per-dispatch overhead added to every batch
    overhead_us: float = 0.0
    #: ``service(b)`` per batch size, indexed ``[batch-1]`` (derived)
    total_us: Tuple[float, ...] = field(
        init=False, repr=False, compare=False)
    #: ``best_batch(cap)`` per cap, indexed ``[cap-1]`` (derived)
    _best_by_cap: Tuple[int, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.service_us:
            raise ReproError("cost table needs at least one batch size")
        total = tuple(us + self.overhead_us for us in self.service_us)
        # running argmin of (per_image(b), b): a later b replaces the
        # incumbent only when strictly cheaper, so ties keep the smallest
        best, best_by_cap = 1, []
        for b, service in enumerate(total, 1):
            if service / b < total[best - 1] / best:
                best = b
            best_by_cap.append(best)
        object.__setattr__(self, "total_us", total)
        object.__setattr__(self, "_best_by_cap", tuple(best_by_cap))

    @property
    def max_batch(self) -> int:
        return len(self.service_us)

    def service(self, batch: int) -> float:
        """Microseconds to serve one batch of ``batch`` images."""
        if not 1 <= batch <= len(self.total_us):
            raise ReproError(
                f"batch {batch} outside table range 1..{self.max_batch}")
        return self.total_us[batch - 1]

    def per_image(self, batch: int) -> float:
        return self.service(batch) / batch

    def best_batch(self, cap: int | None = None) -> int:
        """Batch size with the lowest per-image cost (ties: smallest)."""
        n = len(self._best_by_cap)
        hi = n if cap is None else max(1, min(cap, n))
        return self._best_by_cap[hi - 1]

    @classmethod
    def build(
        cls,
        backend: str,
        model: str = "resnet50",
        *,
        bits: int = 4,
        max_batch: int = 16,
        overhead_us: float = 0.0,
    ) -> "CostTable":
        """Price the full model at every batch size ``1..max_batch``.

        Prewarms the backend's memo caches across all (spec, batch)
        combinations first (parallel, best-effort), then sums the serial
        re-read — the same warm-then-read pattern the bench harness uses,
        so building a 16-entry gpu table costs well under a second.
        """
        if max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {max_batch}")
        be = get_backend(backend)
        layers = get_model_layers(model, batch=1)
        work = [
            (spec.with_batch(b), bits, None)
            for b in range(1, max_batch + 1)
            for spec in layers
        ]
        be.prewarm(work)
        service = []
        for b in range(1, max_batch + 1):
            total_s = sum(
                be.price_conv(spec.with_batch(b), bits).seconds
                for spec in layers)
            service.append(total_s * 1e6)
        table = cls(
            backend=backend, model=model, bits=bits,
            service_us=tuple(service), overhead_us=overhead_us)
        obs_log.info(
            "cost_table_built", logger="repro.serve.cost",
            backend=backend, model=model, bits=bits, max_batch=max_batch,
            b1_us=round(service[0], 2),
            per_image_best_us=round(table.per_image(table.best_batch()), 2),
            best_batch=table.best_batch(),
        )
        return table
