"""End-to-end experiment pipeline: the paper's evaluation (§4) as code.

:class:`ExperimentContext` memoises datasets and trained models for one
*scale* (``smoke`` / ``small`` / ``paper``); the ``run_table1/2/3``
functions regenerate the corresponding tables, each planned as a family
of specs (:func:`table_specs`).
Benchmarks and examples are thin wrappers around this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.aggregation import AggregationSpec
from repro.core.features import FeatureSpec
from repro.core.finetune import FinetuneMode
from repro.core.model import NTTConfig
from repro.core.pretrain import PretrainResult, TrainSettings
from repro.datasets.generation import DatasetBundle
from repro.datasets.windows import WindowConfig
from repro.netsim.scenarios import ScenarioConfig, ScenarioKind

__all__ = [
    "ExperimentScale",
    "ExperimentContext",
    "get_scale",
    "TABLE1_VARIANTS",
    "table_specs",
    "table_rows",
    "run_table",
    "run_table1",
    "run_table2",
    "run_table3",
    "format_rows",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Everything that differs between smoke / small / paper runs."""

    name: str
    window: WindowConfig
    n_runs: int
    pretrain_settings: TrainSettings
    finetune_settings: TrainSettings
    fine_fraction: float = 0.1
    #: aggregation variants for the Table 1 ablations, keyed by name.
    aggregation_variants: dict = field(default_factory=dict)
    #: optional architecture override (set by :mod:`repro.api` specs);
    #: ``None`` selects the per-scale default config.
    model: NTTConfig | None = None

    def scenario(self, kind: str, seed: int = 0) -> ScenarioConfig:
        """Build any *registered* scenario at this scale.

        ``kind`` is a name in :data:`repro.api.registry.SCENARIOS` —
        the three Fig. 4 setups plus every plugin registered through
        ``@register_scenario``.
        """
        from repro.api.registry import SCENARIOS

        return SCENARIOS.build(kind, scale=self.name, seed=seed)

    def model_config(
        self,
        features: FeatureSpec | None = None,
        aggregation: AggregationSpec | None = None,
    ) -> NTTConfig:
        if self.model is not None:
            base = self.model
        elif self.name == "paper":
            base = NTTConfig.paper()
        elif self.name == "smoke":
            base = NTTConfig.smoke()
        else:
            base = NTTConfig.small()
        from dataclasses import replace

        overrides = {}
        if features is not None:
            overrides["features"] = features
        if aggregation is not None:
            overrides["aggregation"] = aggregation
        return replace(base, **overrides) if overrides else base


def _smoke_scale() -> ExperimentScale:
    return ExperimentScale(
        name="smoke",
        window=WindowConfig(window_len=64, stride=4),
        n_runs=1,
        pretrain_settings=TrainSettings.smoke(),
        finetune_settings=TrainSettings.smoke(),
        aggregation_variants={
            "multi": AggregationSpec.from_pairs([(4, 9), (4, 4), (12, 1)]),
            "none": AggregationSpec.none(20),
            "fixed": AggregationSpec.fixed(count=20, block=3),
        },
    )


def _small_scale() -> ExperimentScale:
    return ExperimentScale(
        name="small",
        window=WindowConfig(window_len=512, stride=8),
        n_runs=2,
        pretrain_settings=TrainSettings(epochs=15),
        finetune_settings=TrainSettings(epochs=10),
        aggregation_variants={
            "multi": AggregationSpec.multi_timescale_512(),
            "none": AggregationSpec.none(44),
            "fixed": AggregationSpec.fixed(count=42, block=12),
        },
    )


def _paper_scale() -> ExperimentScale:
    return ExperimentScale(
        name="paper",
        window=WindowConfig(window_len=1024, stride=16),
        n_runs=10,
        pretrain_settings=TrainSettings(epochs=30),
        finetune_settings=TrainSettings(epochs=20),
        aggregation_variants={
            "multi": AggregationSpec.multi_timescale_paper(),
            "none": AggregationSpec.none(48),
            "fixed": AggregationSpec.fixed_paper(),
        },
    )


_SCALES = {"smoke": _smoke_scale, "small": _small_scale, "paper": _paper_scale}


def get_scale(name: str | None = None) -> ExperimentScale:
    """Resolve a scale by name, defaulting to ``$REPRO_BENCH_SCALE`` or
    ``small``."""
    if name is None:
        name = os.environ.get("REPRO_BENCH_SCALE", "small")
    try:
        return _SCALES[name]()
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(_SCALES)}") from None


class ExperimentContext:
    """Shared state for one scale: its store and a key → artifact memo.

    Dataset generation and pre-training dominate experiment wall time;
    the three table runners share their results through this context.
    Two layers of caching apply, both addressed by the planned task key
    that the producing stage reads and writes under:

    * in-memory — the memo holds bundles and trained models (never
      traces, which the ``traces`` stage streams to disk), so repeated
      requests on one context return the same object;
    * on-disk — when constructed with an
      :class:`~repro.api.store.ArtifactStore`, artifacts are
      content-addressed by everything that produced them, so a fresh
      context (even in a new process) with the same spec is served from
      disk instead of re-simulating / re-training.

    Artifacts are requested through the
    :class:`~repro.api.experiment.Experiment` facade; :meth:`bundle`
    and :meth:`pretrained` are shorthands for it.
    """

    def __init__(self, scale: ExperimentScale, store=None, seed: int = 0):
        self.scale = scale
        self.store = store
        self.seed = seed
        self._memo: dict[str, object] = {}

    def scenario_config(self, kind: str) -> "ScenarioConfig":
        """The resolved scenario config for a registered scenario name."""
        return self.scale.scenario(kind, seed=self.seed)

    def recall(self, key: str, getter: str | None = None):
        """The artifact stored under ``key``: the memo first, then (and
        memoised on a hit) the store's ``getter`` method; ``None`` when
        neither holds it."""
        artifact = self._memo.get(key)
        if artifact is None and getter is not None and self.store is not None:
            artifact = getattr(self.store, getter)(key)
            if artifact is not None:
                self._memo[key] = artifact
        return artifact

    def remember(self, key: str, artifact) -> None:
        """Memoise an artifact under its planned key."""
        self._memo[key] = artifact

    def _experiment(self):
        from repro.api.experiment import Experiment
        from repro.runtime.plan import spec_for_scale

        return Experiment(spec_for_scale(self.scale, seed=self.seed), context=self)

    def bundle(self, kind: str) -> DatasetBundle:
        """The windowed dataset for one scenario (memoised; store-backed)."""
        return self._experiment().bundle(kind)

    def pretrained(self, precision: str = "float64") -> PretrainResult:
        """The shared fully-featured pre-trained NTT (memoised; store-backed)."""
        return self._experiment().pretrained(precision=precision)


# -- the paper's tables -------------------------------------------------------------
#
# Each table is a spec family: every cell is one spec whose ``pipeline``
# names the stage that produces the cell and whose ``stage_params`` pick
# its variant.  The family plans as one campaign through
# ``plan_campaign`` — shared work (traces, bundles, the pre-trained
# model) deduplicates by key, the journal records the stage selection,
# and ``repro resume`` finishes an interrupted table — and each cell is
# read back as the task of its stage that its spec planned.

#: Table 1's ablation rows → symbolic variant tokens.
TABLE1_VARIANTS = {
    "no_aggregation": {"aggregation": "none"},
    "fixed_aggregation": {"aggregation": "fixed"},
    "without_packet_size": {"features": "without_size"},
    "without_delay": {"features": "without_delay"},
}


def _cell(spec, stage: str, scenario: str, **params):
    """One table cell: ``spec`` planning ``stage`` on ``scenario``."""
    return spec.with_overrides(
        scenario=scenario,
        pipeline=(stage,),
        stage_params={stage: params} if params else None,
    )


def _table1_cells(spec) -> dict:
    fraction = spec.to_scale().fine_fraction
    case1 = ScenarioKind.CASE1

    def per_task(row: str, stage: str, **tokens) -> dict:
        return {
            (row, task): _cell(spec, stage, case1, task=task, fraction=fraction, **tokens)
            for task in ("delay", "mct")
        }

    cells = {**per_task("ntt_pretrained", "finetune"), **per_task("ntt_from_scratch", "scratch")}
    for scenario in (ScenarioKind.PRETRAIN, case1):
        cells[("baselines", scenario)] = _cell(spec, "baselines", scenario)
    for row, tokens in TABLE1_VARIANTS.items():
        cells.update(per_task(row, "finetune", **tokens))
    return cells


def _table1_rows(cells: dict, outcome) -> dict:
    results = _results(cells, outcome)

    def ntt_row(row: str) -> dict:
        pretrained = outcome.result_for(cells[(row, "delay")], "pretrain")
        return {
            "pretrain_delay_mse": None
            if row == "ntt_from_scratch"
            else pretrained["test_mse_seconds2"],
            "finetune_delay_mse": results[(row, "delay")]["test_mse"],
            "finetune_mct_mse": results[(row, "mct")]["test_mse"],
        }

    rows = {row: ntt_row(row) for row in ("ntt_pretrained", "ntt_from_scratch")}
    # Naive baselines, evaluated on both test sets (the fine-tuning
    # fraction keeps the full test split, so case-1 numbers compare).
    pretrain_baselines = results[("baselines", ScenarioKind.PRETRAIN)]["rows"]
    case1_baselines = results[("baselines", ScenarioKind.CASE1)]["rows"]
    for name in ("last_observed", "ewma"):
        rows[name] = {
            "pretrain_delay_mse": pretrain_baselines[name]["delay_mse"],
            "finetune_delay_mse": case1_baselines[name]["delay_mse"],
            "finetune_mct_mse": case1_baselines[name]["mct_log_mse"],
        }
    rows.update({row: ntt_row(row) for row in TABLE1_VARIANTS})
    return rows


def _table2_cells(spec) -> dict:
    fraction = spec.to_scale().fine_fraction
    case1 = ScenarioKind.CASE1
    return {
        "pretrained_full": _cell(spec, "finetune", case1),
        "pretrained_10pct": _cell(spec, "finetune", case1, fraction=fraction),
        "scratch_full": _cell(spec, "scratch", case1),
        "scratch_10pct": _cell(spec, "scratch", case1, fraction=fraction),
    }


def _table2_rows(cells: dict, outcome) -> dict:
    return {
        row: {
            "layers_trained": result["mode"],
            "delay_mse": result["test_mse"],
            "training_time_s": result["training_time_s"],
        }
        for row, result in _results(cells, outcome).items()
    }


def _table3_cells(spec) -> dict:
    fraction = spec.to_scale().fine_fraction
    case2 = ScenarioKind.CASE2
    full = FinetuneMode.FULL
    return {
        "pretrained_full": _cell(spec, "finetune", case2, mode=full),
        "pretrained_10pct": _cell(spec, "finetune", case2, mode=full, fraction=fraction),
        "scratch_full": _cell(spec, "scratch", case2),
        "scratch_10pct": _cell(spec, "scratch", case2, fraction=fraction),
        "baselines": _cell(spec, "baselines", case2),
        "without_receiver_id": _cell(
            spec, "finetune", case2, mode=full, features="without_receiver"
        ),
    }


def _table3_rows(cells: dict, outcome) -> dict:
    results = _results(cells, outcome)
    # Baselines (the §4 "not shown" reference numbers).
    baselines = results.pop("baselines")["rows"]
    # Without addressing information the receivers are indistinguishable.
    without_receiver = results.pop("without_receiver_id")
    rows = {
        row: {"delay_mse": result["test_mse"], "training_time_s": result["training_time_s"]}
        for row, result in results.items()
    }
    for name in ("last_observed", "ewma"):
        rows[name] = {"delay_mse": baselines[name]["delay_mse"]}
    rows["without_receiver_id"] = {"delay_mse": without_receiver["test_mse"]}
    return rows


def _results(cells: dict, outcome) -> dict:
    """Each cell's result: the task of its selected stage it planned."""
    return {row: outcome.result_for(cell, cell.pipeline[0]) for row, cell in cells.items()}


#: Table number → (cell specs, row assembly).
_TABLES = {
    1: (_table1_cells, _table1_rows),
    2: (_table2_cells, _table2_rows),
    3: (_table3_cells, _table3_rows),
}


def _table(table):
    try:
        return _TABLES[int(table)]
    except (KeyError, ValueError):
        raise ValueError(f"unknown table {table!r}; choose from {sorted(_TABLES)}") from None


def table_specs(table: int, spec) -> list:
    """One of the paper's tables as a spec family over ``spec``'s scale
    and seed (plan it with :func:`~repro.runtime.plan.plan_campaign`)."""
    cells, _rows = _table(table)
    return list(cells(spec).values())


def table_rows(table: int, spec, outcome) -> dict:
    """A table's rows from a finished campaign over its spec family
    (``outcome`` is the :class:`~repro.runtime.engine.CampaignResult` of
    a fresh or resumed run)."""
    cells, rows = _table(table)
    return rows(cells(spec), outcome)


def run_table(
    table: int,
    scale: ExperimentScale | None = None,
    context: ExperimentContext | None = None,
    engine=None,
    workers: int = 1,
) -> dict:
    """Plan one table for a context's scale and seed, run it on an engine
    (``workers=N`` fans its independent cells out over a process pool)
    and return its rows."""
    from repro.runtime.engine import CampaignEngine
    from repro.runtime.plan import plan_campaign, spec_for_scale

    scale = scale if scale is not None else get_scale()
    context = context if context is not None else ExperimentContext(scale)
    if engine is None:
        engine = CampaignEngine(store=context.store, workers=workers)
    spec = spec_for_scale(scale, seed=context.seed)
    outcome = engine.run(plan_campaign(table_specs(table, spec)), context=context)
    failures = outcome.failed_tasks()
    if failures:
        raise RuntimeError(
            f"table {table} campaign failed at {failures[0]['id']}:\n"
            + failures[0]["error"]
        )
    return table_rows(table, spec, outcome)


def run_table1(scale=None, context=None, engine=None, workers: int = 1) -> dict:
    """Table 1: MSE for all models and tasks (case 1, 10% fine-tuning).

    Rows: pre-trained NTT, from-scratch NTT, the two naive baselines and
    four ablated NTTs.  Columns: pre-training delay MSE, fine-tuned
    delay MSE, fine-tuned log-MCT MSE (all in paper units ×10⁻³:
    seconds² for delay, log² for MCT).
    """
    return run_table(1, scale, context, engine, workers)


def run_table2(scale=None, context=None, engine=None, workers: int = 1) -> dict:
    """Table 2: pre-training saves fine-tuning data and compute (case 1).

    Rows: pre-trained + decoder-only on full/10% data vs. from-scratch +
    full model on full/10% data; columns: delay MSE and wall-clock
    training time of the fine-tuning stage.
    """
    return run_table(2, scale, context, engine, workers)


def run_table3(scale=None, context=None, engine=None, workers: int = 1) -> dict:
    """Table 3: the larger topology (case 2).

    Pre-trained models fine-tune (full model — the new receivers need
    their embeddings trained) on full/10% data; from-scratch fails; the
    no-receiver-ID ablation cannot tell receivers apart; baselines for
    reference.
    """
    return run_table(3, scale, context, engine, workers)


def format_rows(rows: dict, scale_factor: float = 1e3, unit: str = "x1e-3") -> str:
    """Human-readable table of nested result dictionaries."""
    lines = []
    for row_name, columns in rows.items():
        parts = []
        for column, value in columns.items():
            if isinstance(value, float):
                parts.append(f"{column}={value * scale_factor:10.4f}{unit}"
                             if "mse" in column else f"{column}={value:.2f}")
            else:
                parts.append(f"{column}={value}")
        lines.append(f"{row_name:24s} " + "  ".join(parts))
    return "\n".join(lines)
