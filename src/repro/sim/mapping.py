"""Mappings: the scheduler's output format.

A :class:`Mapping` assigns every layer of every DNN in a mix to one
computing component.  Contiguous runs of layers on the same device form
*pipeline stages*; the number of stages is the quantity OmniBoost's
losing-state rule caps at the platform's device count.

Mappings are value objects: hashable, comparable and immutable, so they
can key caches and deduplicate MCTS tree nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..models.graph import ModelGraph

if TYPE_CHECKING:  # the workloads package imports this module
    from ..workloads.mix import Workload

__all__ = ["Mapping", "Stage", "reference_mapping"]


class Stage(Tuple[int, int, int]):
    """A contiguous run of layers on one device.

    A named-tuple-light over ``(device_id, start, end)`` where ``start``
    is inclusive and ``end`` exclusive, matching Python slicing.
    """

    __slots__ = ()

    def __new__(cls, device_id: int, start: int, end: int) -> "Stage":
        if start < 0 or end <= start:
            raise ValueError(f"invalid stage bounds [{start}, {end})")
        return super().__new__(cls, (device_id, start, end))

    @property
    def device_id(self) -> int:
        return self[0]

    @property
    def start(self) -> int:
        return self[1]

    @property
    def end(self) -> int:
        return self[2]

    @property
    def num_layers(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stage(dev={self.device_id}, layers=[{self.start}:{self.end}))"


class Mapping:
    """Per-layer device assignments for every DNN in a mix.

    Parameters
    ----------
    assignments:
        One tuple of device ids per DNN, aligned with the mix order;
        ``assignments[i][j]`` is the device of layer ``j`` of DNN ``i``.
    """

    def __init__(self, assignments: Sequence[Sequence[int]]) -> None:
        if not assignments:
            raise ValueError("a mapping must cover at least one DNN")
        self.assignments: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(d) for d in row) for row in assignments
        )
        for index, row in enumerate(self.assignments):
            if not row:
                raise ValueError(f"DNN #{index} has an empty assignment")
            if any(device < 0 for device in row):
                raise ValueError(f"DNN #{index} assigns a negative device id")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def single_device(
        cls, models: Sequence[ModelGraph], device_id: int
    ) -> "Mapping":
        """Map every layer of every DNN to one device (the GPU baseline)."""
        return cls([[device_id] * model.num_layers for model in models])

    @classmethod
    def from_split_points(
        cls,
        models: Sequence[ModelGraph],
        splits: Sequence[Sequence[Tuple[int, int]]],
    ) -> "Mapping":
        """Build a mapping from per-DNN ``(device, run_length)`` segments.

        ``splits[i]`` lists segments in layer order; run lengths must
        sum to the DNN's layer count.  This is the natural encoding for
        the paper's motivational set-ups ("first 4 layers on GPU, the
        remaining on big CPU").
        """
        rows: List[List[int]] = []
        for model, segments in zip(models, splits):
            row: List[int] = []
            for device_id, run_length in segments:
                if run_length <= 0:
                    raise ValueError(
                        f"model {model.name!r}: segment run lengths must be positive"
                    )
                row.extend([device_id] * run_length)
            if len(row) != model.num_layers:
                raise ValueError(
                    f"model {model.name!r}: segments cover {len(row)} layers, "
                    f"model has {model.num_layers}"
                )
            rows.append(row)
        if len(rows) != len(models):
            raise ValueError("splits must provide one segment list per model")
        return cls(rows)

    # ------------------------------------------------------------------
    # Validation & structure
    # ------------------------------------------------------------------
    def validate(self, models: Sequence[ModelGraph], num_devices: int) -> None:
        """Raise ``ValueError`` unless this mapping fits ``models`` exactly."""
        if len(self.assignments) != len(models):
            raise ValueError(
                f"mapping covers {len(self.assignments)} DNNs, mix has {len(models)}"
            )
        for model, row in zip(models, self.assignments):
            if len(row) != model.num_layers:
                raise ValueError(
                    f"model {model.name!r} has {model.num_layers} layers, "
                    f"mapping assigns {len(row)}"
                )
            bad = [device for device in row if device >= num_devices]
            if bad:
                raise ValueError(
                    f"model {model.name!r}: device ids {sorted(set(bad))} out of "
                    f"range for a {num_devices}-device platform"
                )

    def stages(self, dnn_index: int) -> List[Stage]:
        """Pipeline stages (contiguous same-device runs) of one DNN."""
        row = self.assignments[dnn_index]
        stages: List[Stage] = []
        start = 0
        for position in range(1, len(row) + 1):
            if position == len(row) or row[position] != row[start]:
                stages.append(Stage(row[start], start, position))
                start = position
        return stages

    def num_stages(self, dnn_index: int) -> int:
        """Number of pipeline stages of one DNN."""
        row = self.assignments[dnn_index]
        return 1 + sum(1 for a, b in zip(row, row[1:]) if a != b)

    @property
    def max_stages(self) -> int:
        """Largest stage count across the mix (the losing-state metric)."""
        return max(self.num_stages(i) for i in range(len(self.assignments)))

    @property
    def num_dnns(self) -> int:
        return len(self.assignments)

    def devices_used(self) -> Tuple[int, ...]:
        """Sorted ids of devices that receive at least one layer."""
        used = {device for row in self.assignments for device in row}
        return tuple(sorted(used))

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.assignments == other.assignments

    def __hash__(self) -> int:
        return hash(self.assignments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        summary = "; ".join(
            "".join(str(device) for device in row) for row in self.assignments
        )
        return f"Mapping({summary})"


def reference_mapping(workload: "Workload", num_devices: int) -> Mapping:
    """The deterministic scoring mapping: DNNs striped whole across devices.

    DNN ``i`` runs entirely on device ``i % num_devices``.  Single-device
    rows are always legal (one stage per DNN <= any stage cap), and
    striping is the cheapest proxy for "this board's devices share the
    mix" — the fleet placer ranks boards with it and SLO admission
    prices mixes with it, three orders of magnitude cheaper than
    searching.
    """
    return Mapping(
        [
            (index % num_devices,) * model.num_layers
            for index, model in enumerate(workload.models)
        ]
    )
