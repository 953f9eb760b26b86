"""Declarative parameter grids.

A :class:`ParameterGrid` describes a sweep as the cartesian product of a few
axes (any :class:`~repro.experiments.config.ScenarioConfig` field: workload,
method, n_ranks, seed, schedule, …) over a base of fixed fields, with
optional per-axis-value overrides (e.g. different ``workload_options`` per
workload).  ``expand()`` yields the concrete ``ScenarioConfig`` set in a
deterministic order; duplicate configs produced by overrides collapse to one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.campaign.store import scenario_key
from repro.experiments.config import ScenarioConfig


@dataclass
class ParameterGrid:
    """Cartesian sweep definition over ``ScenarioConfig`` fields.

    Parameters
    ----------
    axes:
        Mapping of config field name → sequence of values to sweep.  The
        product is taken in the given axis order (first axis varies slowest).
    base:
        Fixed config fields shared by every point (e.g. ``workload``,
        ``schedule``, ``cluster``).
    overrides:
        ``{axis: {value: {field: override, ...}}}`` — extra fields applied
        when ``axis`` takes ``value``.  Used e.g. to give each workload its
        own ``workload_options`` or scale list in a mixed-workload sweep.
        Overrides are applied after the axes, in axis order, so a later
        axis's override wins over an earlier one.

    Example
    -------
    >>> grid = ParameterGrid(
    ...     axes={"workload": ("hpl", "cg"), "method": ("GP", "NORM"),
    ...           "n_ranks": (16, 32), "seed": (1, 2)},
    ...     base={"schedule": one_shot(2.0)},
    ...     overrides={"workload": {
    ...         "hpl": {"workload_options": {"problem_size": 6000}, "max_group_size": 8},
    ...         "cg": {"workload_options": {"na": 30000}},
    ...     }},
    ... )
    >>> len(grid.expand())
    16
    """

    axes: Mapping[str, Sequence[object]]
    base: Mapping[str, object] = field(default_factory=dict)
    overrides: Mapping[str, Mapping[object, Mapping[str, object]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        valid = set(ScenarioConfig.__dataclass_fields__)
        for name in list(self.axes) + list(self.base):
            if name not in valid:
                raise ValueError(f"unknown ScenarioConfig field {name!r}")
        for axis in self.overrides:
            if axis not in self.axes:
                raise ValueError(f"override for non-axis {axis!r}")
            for value, fields in self.overrides[axis].items():
                if not any(value == axis_value for axis_value in self.axes[axis]):
                    raise ValueError(
                        f"override for {axis}={value!r}, which is not among the "
                        f"axis values {tuple(self.axes[axis])!r}")
                for name in fields:
                    if name not in valid:
                        raise ValueError(f"unknown ScenarioConfig field {name!r} in override")

    def __len__(self) -> int:
        out = 1
        for values in self.axes.values():
            out *= len(values)
        return out

    def expand(self) -> List[ScenarioConfig]:
        """All concrete scenario configs of the sweep, deterministic order."""
        names = list(self.axes)
        out: List[ScenarioConfig] = []
        seen = set()
        for point in itertools.product(*(self.axes[name] for name in names)):
            fields: Dict[str, object] = dict(self.base)
            fields.update(zip(names, point))
            for axis, value in zip(names, point):
                fields.update(self.overrides.get(axis, {}).get(value, {}))
            config = ScenarioConfig(**fields)
            key = scenario_key(config)
            if key not in seen:
                seen.add(key)
                out.append(config)
        return out
