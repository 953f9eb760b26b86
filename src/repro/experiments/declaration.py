"""One declaration per experiment.

An experiment is a parameter grid plus a function of its results, and its
results are read back from one table (the PyExperimenter model).  An
:class:`Experiment` holds exactly that: a grid builder ``configs(**grid)``
and a pure ``tables(results)``; :meth:`Experiment.run` executes one grid
through the default campaign.  Every paper figure and table is declared
this way (:data:`repro.experiments.figures.FIGURES`).

A :class:`StoredExperiment` is also served by the observatory: every config
its grid builds carries its ``stamp`` as the cluster name, and
:meth:`StoredExperiment.from_store` aggregates the stamped ``done`` rows of
any store the same way, which is what ``/api/tables/<name>`` serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping

from repro.campaign.executor import get_default_campaign
from repro.campaign.export import stored_results
from repro.campaign.store import CampaignStore, scenario_key
from repro.experiments.config import ScenarioConfig


@dataclass(frozen=True)
class Experiment:
    """A grid builder and the tables computed from its results."""

    configs: Callable[..., List[ScenarioConfig]]
    tables: Callable[[List], Dict[str, object]]

    def run(self, **grid) -> Dict[str, object]:
        """Run (or fetch) one grid through the default campaign, aggregated.

        A config the grid repeats runs and counts once.
        """
        unique = {scenario_key(c): c for c in self.configs(**grid)}
        return self.tables(get_default_campaign().run(list(unique.values())))


@dataclass(frozen=True)
class StoredExperiment(Experiment):
    """An experiment the observatory serves from any store.

    Every config of its grid carries ``stamp`` as its cluster name.
    ``tables(results)`` returns a dict with at least ``results`` (what its
    tables were computed from); ``served`` maps each table name the
    observatory serves to the key of that dict holding the table.
    """

    stamp: str
    served: Mapping[str, str]

    def from_store(self, store: CampaignStore) -> Dict[str, object]:
        """The same tables over a store's ``done`` rows carrying ``stamp``."""
        return self.tables(stored_results(store, cluster_name=self.stamp))
