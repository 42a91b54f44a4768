"""Declarative experiment specifications.

:class:`ExperimentSpec` is the single value object describing an
experiment: which registered scenario, at which scale, with which seed,
plus optional overrides for the window, model and training settings.
It is frozen (hashable, usable as a dict key) and has a *stable content
hash* — two specs that resolve to the same configuration share the same
:attr:`~ExperimentSpec.spec_hash` and therefore the same cached
artifacts in the :class:`~repro.api.store.ArtifactStore`.

The module also owns the config ↔ dict converters used to make
checkpoints self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.api.hashing import stable_hash
from repro.api.registry import SCENARIOS
from repro.core.aggregation import AggregationSpec
from repro.core.features import FeatureSpec
from repro.core.model import NTTConfig
from repro.core.pipeline import ExperimentScale, get_scale
from repro.core.pretrain import TrainSettings
from repro.datasets.windows import WindowConfig
from repro.netsim.scenarios import ScenarioConfig

__all__ = [
    "ExperimentSpec",
    "window_config_to_dict",
    "window_config_from_dict",
    "train_settings_to_dict",
    "train_settings_from_dict",
    "ntt_config_to_dict",
    "ntt_config_from_dict",
    "scenario_config_to_dict",
    "scenario_config_from_dict",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that identifies one experiment, declaratively.

    ``None`` fields resolve to the chosen scale's defaults, so
    ``ExperimentSpec(scale="smoke")`` and the fully spelled-out
    equivalent hash identically.

    Args:
        scenario: name of a registered scenario (see
            :data:`repro.api.registry.SCENARIOS`).
        scale: ``smoke`` / ``small`` / ``paper``.
        seed: base seed for simulation and training randomness.
        n_runs: simulation runs per dataset (default: scale preset).
        window: windowing override.
        model: NTT architecture override.
        pretrain: pre-training settings override.
        finetune: fine-tuning settings override.
        fine_fraction: the paper's "smaller dataset" fraction.
        pipeline: optional stage selection — names of registered stages
            (see :data:`repro.api.stages.STAGE_REGISTRY`) planned, with
            their dependencies, for this spec instead of the campaign's
            selection.  Stage names are validated at planning time, when
            every stage module has been imported.
        stage_params: optional per-stage parameter dictionaries, e.g.
            ``{"federated_pretrain": {"n_clients": 4}}``.  Values must
            be JSON scalars or (nested) lists/dicts thereof; they are
            frozen internally so the spec stays hashable.

    ``pipeline`` and ``stage_params`` participate in :attr:`spec_hash`
    only when set, so every pre-existing spec hashes exactly as before.
    """

    scenario: str = "pretrain"
    scale: str = "small"
    seed: int = 0
    n_runs: int | None = None
    window: WindowConfig | None = None
    model: NTTConfig | None = None
    pretrain: TrainSettings | None = None
    finetune: TrainSettings | None = None
    fine_fraction: float | None = None
    pipeline: tuple[str, ...] | None = None
    stage_params: tuple | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIOS.names()}"
            )
        # Validates the scale name eagerly (raises with the choices).
        get_scale(self.scale)
        # Normalise the stage fields into hashable canonical forms
        # (the dataclass is frozen, hence object.__setattr__).
        if self.pipeline is not None:
            names = tuple(self.pipeline)
            if not names or not all(isinstance(name, str) for name in names):
                raise ValueError("pipeline must be a non-empty sequence of stage names")
            object.__setattr__(self, "pipeline", names)
        if self.stage_params is not None:
            object.__setattr__(self, "stage_params", _freeze_params(self.stage_params))

    # -- resolution ---------------------------------------------------------------

    def to_scale(self) -> ExperimentScale:
        """The :class:`ExperimentScale` this spec resolves to, with all
        overrides applied."""
        base = get_scale(self.scale)
        overrides = {}
        if self.n_runs is not None:
            overrides["n_runs"] = self.n_runs
        if self.window is not None:
            overrides["window"] = self.window
        if self.model is not None:
            overrides["model"] = self.model
        if self.pretrain is not None:
            overrides["pretrain_settings"] = self.pretrain
        if self.finetune is not None:
            overrides["finetune_settings"] = self.finetune
        if self.fine_fraction is not None:
            overrides["fine_fraction"] = self.fine_fraction
        return replace(base, **overrides) if overrides else base

    def scenario_config(self, name: str | None = None) -> ScenarioConfig:
        """Build the (named or spec-default) scenario at this spec's
        scale and seed."""
        return SCENARIOS.build(name or self.scenario, scale=self.scale, seed=self.seed)

    # -- stage parameters ---------------------------------------------------------

    def params_for(self, stage: str) -> dict:
        """This spec's declared parameters for one stage (thawed copy)."""
        for name, frozen in self.stage_params or ():
            if name == stage:
                return _thaw_value(frozen)
        return {}

    # -- identity -----------------------------------------------------------------

    @property
    def spec_hash(self) -> str:
        """Stable content hash over the *resolved* configuration.

        ``pipeline`` and ``stage_params`` are folded in only when set,
        so specs written before the stage API hash identically.
        """
        scale = self.to_scale()
        payload = {
            "scenario": self.scenario,
            "scenario_config": self.scenario_config(),
            "seed": self.seed,
            "n_runs": scale.n_runs,
            "window": scale.window,
            "model": scale.model_config(),
            "pretrain": scale.pretrain_settings,
            "finetune": scale.finetune_settings,
            "fine_fraction": scale.fine_fraction,
        }
        if self.pipeline is not None:
            payload["pipeline"] = list(self.pipeline)
        if self.stage_params is not None:
            payload["stage_params"] = self.stage_params_dict()
        return stable_hash(payload)

    def stage_params_dict(self) -> dict:
        """All stage parameters as a plain ``{stage: {param: value}}``."""
        return {name: _thaw_value(frozen) for name, frozen in self.stage_params or ()}

    def with_overrides(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    # -- expansion ----------------------------------------------------------------

    @classmethod
    def grid(
        cls,
        scenarios=("pretrain",),
        scales=("small",),
        seeds=(0,),
        **common,
    ) -> list["ExperimentSpec"]:
        """Expand a scenario × scale × seed grid into specs.

        ``common`` fields apply to every spec.  The expansion is
        deterministic (scenario-major order) and deduplicated by
        :attr:`spec_hash`, so overlapping axes never plan duplicate
        work.  This is the building block under ``repro sweep`` and
        :func:`repro.runtime.expand_grid`.
        """
        specs: list[ExperimentSpec] = []
        seen: set[str] = set()
        for scenario in scenarios:
            for scale in scales:
                for seed in seeds:
                    spec = cls(scenario=scenario, scale=scale, seed=int(seed), **common)
                    if spec.spec_hash not in seen:
                        seen.add(spec.spec_hash)
                        specs.append(spec)
        return specs

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
        }
        if self.n_runs is not None:
            payload["n_runs"] = self.n_runs
        if self.window is not None:
            payload["window"] = window_config_to_dict(self.window)
        if self.model is not None:
            payload["model"] = ntt_config_to_dict(self.model)
        if self.pretrain is not None:
            payload["pretrain"] = train_settings_to_dict(self.pretrain)
        if self.finetune is not None:
            payload["finetune"] = train_settings_to_dict(self.finetune)
        if self.fine_fraction is not None:
            payload["fine_fraction"] = self.fine_fraction
        if self.pipeline is not None:
            payload["pipeline"] = list(self.pipeline)
        if self.stage_params is not None:
            payload["stage_params"] = self.stage_params_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        kwargs = dict(payload)
        if "window" in kwargs:
            kwargs["window"] = window_config_from_dict(kwargs["window"])
        if "model" in kwargs:
            kwargs["model"] = ntt_config_from_dict(kwargs["model"])
        if "pretrain" in kwargs:
            kwargs["pretrain"] = train_settings_from_dict(kwargs["pretrain"])
        if "finetune" in kwargs:
            kwargs["finetune"] = train_settings_from_dict(kwargs["finetune"])
        return cls(**kwargs)


# -- stage-parameter freezing ------------------------------------------------------
#
# ExperimentSpec is frozen and hashable, so per-stage parameter
# dictionaries are canonicalised into nested tuples on construction and
# thawed back into dicts/lists on access.  *Every* container carries a
# leading tag — dicts freeze as sorted ``("__dict__", (key, value), ...)``
# and lists as ``("__list__", item, ...)`` — so the two types never
# collide, even when a user list's first element is itself a tag string
# (freezing always prepends, so literal elements stay at position >= 1).

_DICT_TAG = "__dict__"
_LIST_TAG = "__list__"


def _freeze_value(value):
    if isinstance(value, dict):
        return (_DICT_TAG,) + tuple(
            sorted((str(key), _freeze_value(item)) for key, item in value.items())
        )
    if isinstance(value, (list, tuple)):
        return (_LIST_TAG,) + tuple(_freeze_value(item) for item in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"stage parameter values must be JSON scalars, lists or dicts, "
        f"not {type(value).__name__}"
    )


def _thaw_value(value):
    if isinstance(value, tuple):
        if value[:1] == (_DICT_TAG,):
            return {key: _thaw_value(item) for key, item in value[1:]}
        if value[:1] == (_LIST_TAG,):
            return [_thaw_value(item) for item in value[1:]]
        raise ValueError(f"malformed frozen stage-parameter value: {value!r}")
    return value


def _freeze_params(stage_params) -> tuple:
    """Canonicalise ``{stage: {param: value}}`` (or an already-frozen
    form) into the hashable tuple representation."""
    if isinstance(stage_params, dict):
        items = sorted(stage_params.items())
    else:
        items = [(name, _thaw_value(frozen)) for name, frozen in stage_params]
    frozen = []
    for name, params in items:
        if not isinstance(params, dict):
            raise TypeError(
                f"stage_params[{name!r}] must be a parameter dictionary, "
                f"not {type(params).__name__}"
            )
        frozen.append((str(name), _freeze_value(params)))
    return tuple(frozen)


# -- config converters -----------------------------------------------------------
#
# Checkpoint metadata must be JSON, so every config involved in restoring
# a model round-trips through plain dicts here.


def window_config_to_dict(window: WindowConfig) -> dict:
    return {"window_len": window.window_len, "stride": window.stride}


def window_config_from_dict(payload: dict) -> WindowConfig:
    return WindowConfig(**payload)


def train_settings_to_dict(settings: TrainSettings) -> dict:
    return {
        "epochs": settings.epochs,
        "batch_size": settings.batch_size,
        "lr": settings.lr,
        "warmup_fraction": settings.warmup_fraction,
        "grad_clip": settings.grad_clip,
        "patience": settings.patience,
        "seed": settings.seed,
    }


def train_settings_from_dict(payload: dict) -> TrainSettings:
    return TrainSettings(**payload)


def ntt_config_to_dict(config: NTTConfig) -> dict:
    features = config.features
    return {
        "features": {
            "use_time": features.use_time,
            "use_size": features.use_size,
            "use_delay": features.use_delay,
            "use_receiver": features.use_receiver,
        },
        "aggregation": [
            [level.count, level.block] for level in config.aggregation.levels
        ],
        "d_emb": config.d_emb,
        "d_model": config.d_model,
        "n_heads": config.n_heads,
        "n_layers": config.n_layers,
        "d_ff": config.d_ff,
        "dropout": config.dropout,
        "decoder_hidden": config.decoder_hidden,
        "n_receivers": config.n_receivers,
        "seed": config.seed,
    }


def ntt_config_from_dict(payload: dict) -> NTTConfig:
    kwargs = dict(payload)
    kwargs["features"] = FeatureSpec(**kwargs["features"])
    kwargs["aggregation"] = AggregationSpec.from_pairs(kwargs["aggregation"])
    return NTTConfig(**kwargs)


def scenario_config_to_dict(config: ScenarioConfig) -> dict:
    """JSON provenance for a scenario config.

    ``workload`` objects are recorded by class name only — they cannot be
    reconstructed, but the hash (which covers their parameters) already
    keys the cache.
    """
    payload = {
        "kind": config.kind,
        "n_senders": config.n_senders,
        "sender_load_bps": config.sender_load_bps,
        "bottleneck_rate_bps": config.bottleneck_rate_bps,
        "bottleneck_queue_packets": config.bottleneck_queue_packets,
        "bottleneck_delay": config.bottleneck_delay,
        "access_rate_bps": config.access_rate_bps,
        "access_delay": config.access_delay,
        "access_queue_packets": config.access_queue_packets,
        "duration": config.duration,
        "seed": config.seed,
        "mtu_bytes": config.mtu_bytes,
        "cross_traffic_bps": config.cross_traffic_bps,
        "n_cross_flows": config.n_cross_flows,
        "n_receivers": config.n_receivers,
        "receiver_delays": list(config.receiver_delays),
        "receiver_rate_bps": config.receiver_rate_bps,
        "receiver_queue_packets": config.receiver_queue_packets,
        "per_receiver_cross_flows": config.per_receiver_cross_flows,
        "start_jitter": config.start_jitter,
        "bottleneck_discipline": config.bottleneck_discipline,
    }
    if config.workload is not None:
        payload["workload_class"] = type(config.workload).__name__
    return payload


def scenario_config_from_dict(payload: dict) -> ScenarioConfig:
    kwargs = dict(payload)
    kwargs.pop("workload_class", None)
    kwargs["receiver_delays"] = tuple(kwargs.get("receiver_delays", ()))
    return ScenarioConfig(**kwargs)
