"""Experiment registry: one entry per figure of the paper's evaluation.

Every experiment knows how to build its workload (WebKit-like or Meteo-like
synthetic data), which measurements (approach × input size) it performs and
what series the paper plots, so the harness can print the same rows/series
the paper reports.  The expected *shape* of each figure (who wins, by what
rough factor) is recorded alongside; the reporting module prints it beside
the measurements and writes it into each figure's JSON report.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from time import perf_counter
from typing import Callable, Sequence

from ..baselines.temporal_alignment import ta_left_outer_join, ta_wuo, ta_wuon
from ..core.joins import nj_wn, nj_wuo, nj_wuon, tp_left_outer_join
from ..datasets import meteo_pair, webkit_pair
from ..relation import EquiJoinCondition, TPRelation, ThetaCondition

#: Runs of each series at each size; a measurement is the fastest of them.
ROUNDS = 3


@dataclass(frozen=True, slots=True)
class Measurement:
    """An approach on a dataset at one input size: its fastest timed run.

    ``collector_ms`` and ``gen2_collections`` are the cyclic collector's
    share of that run's ``seconds``: its time in any generation and its
    full passes.
    """

    experiment: str
    dataset: str
    series: str
    size: int
    seconds: float
    output_count: int
    collector_ms: float = 0.0
    gen2_collections: int = 0


class CollectorMeter:
    """The cyclic collector's activity inside one ``with`` block.

    A :data:`gc.callbacks` hook is registered for the block only; the
    collector's policy (enabled, thresholds, frozen objects) is left as the
    process set it.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2_collections = 0
        self._started = 0.0

    def __enter__(self) -> "CollectorMeter":
        gc.callbacks.append(self._observe)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._observe)

    def _observe(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        self.seconds += perf_counter() - self._started
        if info["generation"] == 2:
            self.gen2_collections += 1


@dataclass(frozen=True)
class SeriesSpec:
    """One series of a figure (e.g. "NJ" or "TA")."""

    name: str
    run: Callable[[TPRelation, TPRelation, ThetaCondition], Sequence]


@dataclass(frozen=True)
class ExperimentSpec:
    """One figure of the paper's evaluation."""

    experiment_id: str
    title: str
    dataset: str
    series: tuple[SeriesSpec, ...]
    default_sizes: tuple[int, ...]
    paper_sizes: tuple[int, ...]
    expected_shape: str
    workload: Callable[[int, int], tuple[TPRelation, TPRelation]] = field(repr=False, default=None)  # type: ignore[assignment]

    def build_workload(self, size: int, seed: int = 0) -> tuple[TPRelation, TPRelation, ThetaCondition]:
        """Materialise the positive/negative relations and θ for one size."""
        positive, negative = self.workload(size, seed)
        key = positive.schema.attributes[0]
        theta = EquiJoinCondition(positive.schema, negative.schema, ((key, key),))
        return positive, negative, theta

    def run(self, sizes: Sequence[int] | None = None, seed: int = 0) -> list[Measurement]:
        """Run every series at every size and return the measurements.

        Each series runs :data:`ROUNDS` times per size and reports its
        fastest run, collector figures included.
        """
        measurements: list[Measurement] = []
        for size in sizes if sizes is not None else self.default_sizes:
            positive, negative, theta = self.build_workload(size, seed)
            for series in self.series:
                runs = [self._time(series, size, positive, negative, theta) for _ in range(ROUNDS)]
                measurements.append(min(runs, key=attrgetter("seconds")))
        return measurements

    def _time(self, series: SeriesSpec, size: int, positive, negative, theta) -> Measurement:
        """One timed run of ``series`` on the workload of one size."""
        with CollectorMeter() as collector:
            started = perf_counter()
            result = series.run(positive, negative, theta)
            elapsed = perf_counter() - started
        return Measurement(
            experiment=self.experiment_id,
            dataset=self.dataset,
            series=series.name,
            size=size,
            seconds=elapsed,
            output_count=len(result),
            collector_ms=collector.seconds * 1000,
            gen2_collections=collector.gen2_collections,
        )


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def _spec(experiment_id, title, dataset, series, default_sizes, paper_sizes, shape, workload):
    return ExperimentSpec(
        experiment_id=experiment_id,
        title=title,
        dataset=dataset,
        series=series,
        default_sizes=default_sizes,
        paper_sizes=paper_sizes,
        expected_shape=shape,
        workload=workload,
    )


_WUO_SERIES = (SeriesSpec("NJ", nj_wuo), SeriesSpec("TA", ta_wuo))
# A series times the whole call, so NJ-WN is the overlap join plus the
# negating sweep (no LAWAU gaps, no copy of WUO).
_NEGATING_SERIES = (
    SeriesSpec("NJ-WN", nj_wn),
    SeriesSpec("NJ-WUON", nj_wuon),
    SeriesSpec("TA", ta_wuon),
)
# Fig. 7 measures the joins without probability materialisation; TA runs the
# union-based plan with the nested loops the paper reports for it.
_OUTER_SERIES = (
    SeriesSpec("NJ", partial(tp_left_outer_join, compute_probabilities=False)),
    SeriesSpec(
        "TA", partial(ta_left_outer_join, compute_probabilities=False, nested_loop=True)
    ),
)

EXPERIMENTS: dict[str, ExperimentSpec] = {
    "fig5a": _spec(
        "fig5a", "WUO: overlapping and unmatched windows (WebKit)", "webkit",
        _WUO_SERIES, (1000, 2000, 4000, 8000), (50_000, 100_000, 150_000, 200_000),
        "Both approaches grow roughly linearly; NJ is ~2-4x faster because TA "
        "executes the conventional outer join twice.", webkit_pair,
    ),
    "fig5b": _spec(
        "fig5b", "WUO: overlapping and unmatched windows (Meteo)", "meteo",
        _WUO_SERIES, (1000, 2000, 4000, 8000), (50_000, 100_000, 150_000, 200_000),
        "Same trend as fig5a but higher absolute runtimes (non-selective θ); "
        "NJ stays ~2-4x faster.", meteo_pair,
    ),
    "fig6a": _spec(
        "fig6a", "Negating windows (WebKit)", "webkit",
        _NEGATING_SERIES, (1000, 2000, 4000, 8000), (40_000, 80_000, 120_000, 160_000, 200_000),
        "NJ-WUON is ~4-10x faster than TA; NJ-WN (negating only) is ~12-20x "
        "faster. NJ-WN here times the overlap join plus the negating sweep, not "
        "the sweep over a given WUO, so it leads NJ-WUON by LAWAU's cost only.",
        webkit_pair,
    ),
    "fig6b": _spec(
        "fig6b", "Negating windows (Meteo)", "meteo",
        _NEGATING_SERIES, (1000, 2000, 4000, 8000), (40_000, 80_000, 120_000, 160_000, 200_000),
        "Same ordering as fig6a with higher absolute runtimes (and the same "
        "NJ-WN measurement).", meteo_pair,
    ),
    "fig7a": _spec(
        "fig7a", "TP left outer join (WebKit)", "webkit",
        _OUTER_SERIES, (250, 500, 1000, 2000), (40_000, 80_000, 120_000, 160_000, 200_000),
        "TA's union-based plan degenerates to nested loops and duplicate "
        "elimination; NJ wins by one to two orders of magnitude.", webkit_pair,
    ),
    "fig7b": _spec(
        "fig7b", "TP left outer join (Meteo)", "meteo",
        _OUTER_SERIES, (250, 500, 1000, 2000), (40_000, 80_000, 120_000, 160_000, 200_000),
        "Non-selective θ narrows the gap relative to fig7a; NJ remains ~4-10x "
        "faster and both absolute runtimes are higher.", meteo_pair,
    ),
}

#: Grouped aliases accepted by the CLI.
EXPERIMENT_GROUPS: dict[str, tuple[str, ...]] = {
    "fig5": ("fig5a", "fig5b"),
    "fig6": ("fig6a", "fig6b"),
    "fig7": ("fig7a", "fig7b"),
    "all": tuple(EXPERIMENTS),
}


def resolve_experiments(name: str) -> list[ExperimentSpec]:
    """Resolve an experiment or group name to the specs to run."""
    if name in EXPERIMENTS:
        return [EXPERIMENTS[name]]
    if name in EXPERIMENT_GROUPS:
        return [EXPERIMENTS[key] for key in EXPERIMENT_GROUPS[name]]
    raise KeyError(
        f"unknown experiment {name!r}; available: "
        f"{sorted(EXPERIMENTS) + sorted(EXPERIMENT_GROUPS)}"
    )
