"""Experiment orchestration: config parsing, seed management, learning-rate
grid search, repeated runs with mean/std reporting, sweeps, and artifacts."""
from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import nn
from .baselines import (run_centralized, run_fedavg, run_hypcluster,
                        run_local_only)
from .data import (ClientShard, PartitionSpec, dirichlet_partition,
                   extract_unlabeled, generate_synthetic, split_shard)
from .engine import (SPANS, TAG_PROBE, TAG_SPLIT, FedMeConfig, Laps,
                     RoundRecord, check_outputs, derive_seed, fine_tune,
                     locate_divergence, run_fedme)
from .nn import ArchitectureSpec

ALGORITHMS = ("fedme", "local_only", "centralized", "fedavg", "hypcluster")
INIT_POLICIES = ("best_local", "round_robin")

ROUND_LOG_HEADER = ("round,client,K,cluster,donor,a,loss_p_train,loss_ex_train,"
                    "loss_p_val,loss_ex_val,val_acc,test_acc,client_ms,server_ms")


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range configuration."""


@dataclass(kw_only=True)
class ExperimentConfig(FedMeConfig):
    """One run's settings: the FedMe ones it inherits (training, cluster
    schedule and technique switches) plus what the harness adds. Every field
    is a config-file key with the same default."""

    algorithm: str
    num_clients: int = 20
    # synthetic data
    num_classes: int = 4
    dim: int = 16
    per_class_count: int = 375
    class_separation: float = 3.0
    noise_sigma: float = 1.5
    # partition
    alpha_label: float | None = 0.5  # None means IID
    alpha_size: float = 10.0
    unlabeled_count: int = 100
    # model menu and initialization
    model_menu: tuple[tuple[int, ...], ...] = ((8,), (8, 8), (8, 8, 8),
                                               (8, 8, 8, 8))
    init_policy: str = "best_local"
    probe_epochs: int = 10
    # protocol
    fine_tune_epochs: int = 5
    repeats: int = 5


_DEFAULTS = ExperimentConfig(algorithm="fedme")
_KEYS = {f.name for f in fields(ExperimentConfig)}


def _parse_bool(key, raw):
    if raw.lower() in ("true", "on", "yes", "1"):
        return True
    if raw.lower() in ("false", "off", "no", "0"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean, got {raw!r}")


def _parse_value(key: str, raw: str):
    default = getattr(_DEFAULTS, key)
    try:
        if key == "alpha_label":
            return None if raw.lower() == "iid" else float(raw)
        if key == "model_menu":
            return tuple(tuple(int(w) for w in cand.split(","))
                         for cand in raw.split("|"))
        if key == "cluster_thresholds":
            return tuple(int(v) for v in raw.split(",")) if raw.strip() else ()
        if isinstance(default, bool):
            return _parse_bool(key, raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse {raw!r}") from exc


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    c = config
    if c.algorithm not in ALGORITHMS:
        raise ConfigError(f"key 'algorithm': must be one of {ALGORITHMS}, "
                          f"got {c.algorithm!r}")
    if c.init_policy not in INIT_POLICIES:
        raise ConfigError(f"key 'init_policy': must be one of {INIT_POLICIES}, "
                          f"got {c.init_policy!r}")
    for key, value in vars(c).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key '{key}': must be finite, got {value}")
    positive = ("rounds", "batch_size", "lr", "per_class_count", "noise_sigma",
                "alpha_size", "unlabeled_count", "k_max", "repeats")
    for key in positive:
        if getattr(c, key) <= 0:
            raise ConfigError(f"key '{key}': must be positive, got {getattr(c, key)}")
    for key in ("num_clients", "num_classes", "dim"):
        if getattr(c, key) < 2:
            raise ConfigError(f"key '{key}': must be >= 2, got {getattr(c, key)}")
    labelled = c.num_classes * c.per_class_count - c.unlabeled_count
    if labelled <= 0:
        raise ConfigError(f"key 'unlabeled_count': {c.unlabeled_count} leaves "
                          f"no labelled rows")
    if c.num_clients * c.num_classes > labelled:
        raise ConfigError(f"key 'num_clients': {c.num_clients} clients x {c.num_classes} "
                          f"classes exceed the {labelled} labelled rows")
    nonnegative = ("epochs", "weight_decay", "class_separation",
                   "probe_epochs", "fine_tune_epochs", "seed")
    for key in nonnegative:
        if getattr(c, key) < 0:
            raise ConfigError(f"key '{key}': must be >= 0, got {getattr(c, key)}")
    if not 0.0 <= c.momentum < 1.0:
        raise ConfigError(f"key 'momentum': must lie in [0, 1), got {c.momentum}")
    if c.alpha_label is not None and c.alpha_label <= 0:
        raise ConfigError(f"key 'alpha_label': must be positive or 'iid'")
    if not c.model_menu:
        raise ConfigError("key 'model_menu': must list at least one candidate")
    thresholds = list(c.cluster_thresholds)
    if thresholds != sorted(set(thresholds)) or min(thresholds, default=1) < 1:
        raise ConfigError(f"key 'cluster_thresholds': must be round numbers >= 1 "
                          f"in strictly ascending order, got {c.cluster_thresholds}")
    try:
        menu_archs(c)
    except ValueError as exc:
        raise ConfigError(f"key 'model_menu': {exc}") from exc
    return c


def parse_config(path) -> ExperimentConfig:
    """Flat `key = value` file with '#' comments; unknown or repeated keys fail."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        values[key] = _parse_value(key, raw)
    if "algorithm" not in values:
        raise ConfigError(f"{path}: required key 'algorithm' is missing")
    return validate_config(ExperimentConfig(**values))


def menu_archs(config: ExperimentConfig) -> list[ArchitectureSpec]:
    return [ArchitectureSpec(config.dim, widths, config.num_classes)
            for widths in config.model_menu]


def best_local_init(shards: list[ClientShard], menu: list[ArchitectureSpec],
                    config: ExperimentConfig) -> list[ArchitectureSpec]:
    """Each client trains every candidate for `config.probe_epochs` epochs on
    its own train split and keeps the one with the best validation accuracy
    (ties prefer fewer parameters, then the lower menu index). Every probe
    trains in one lockstep call."""
    jobs = []
    for i, shard in enumerate(shards):
        for idx, arch in enumerate(menu):
            key = (config.seed, TAG_PROBE, i, idx)
            jobs.append(nn.Job(nn.init_model(arch, derive_seed(*key)), None,
                               shard.train.features, shard.train.labels,
                               np.random.default_rng(derive_seed(*key, 1))))
    with locate_divergence("best-local probing", lambda jobs: (
            f"clients {[j // len(menu) for j in jobs]} on menu candidates "
            f"{[j % len(menu) for j in jobs]}")):
        probes = nn.train(jobs, replace(config, epochs=config.probe_epochs))
        # finite parameters can still overflow when scored
        scores = [nn.evaluate(model, shards[j // len(menu)].validation.features,
                              shards[j // len(menu)].validation.labels)
                  for j, (model, _) in enumerate(probes)]
        check_outputs([loss for loss, _ in scores], config.lr)
    choices = []
    for c in range(len(shards)):
        scored = [(-scores[c * len(menu) + idx][1], arch.parameter_count(), idx)
                  for idx, arch in enumerate(menu)]
        choices.append(menu[min(scored)[2]])
    return choices


def _client_archs(config: ExperimentConfig, shards):
    menu = menu_archs(config)
    shared = config.algorithm in ("centralized", "fedavg", "hypcluster")
    if config.init_policy == "round_robin":
        return [menu[0 if shared else i % len(menu)] for i in range(len(shards))]
    choices = best_local_init(shards, menu, config)
    if shared:
        # these algorithms average across clients, so settle on the
        # architecture most clients picked (ties toward the lower menu index)
        votes = [choices.count(arch) for arch in menu]
        return [menu[int(np.argmax(votes))]] * len(shards)
    return choices


@dataclass
class RunResult:
    """Outcome of one seeded run of one algorithm."""
    models: list          # final per-client models (before fine-tuning)
    tuned_models: list    # after fine-tuning (same as models when disabled)
    records: list[RoundRecord]
    laps: Laps            # wall time of each round's spans
    archs: list[ArchitectureSpec]
    test_acc_pre_ft: float
    test_acc_post_ft: float
    val_acc_uniform: float


def build_federation(config: ExperimentConfig, seed: int):
    """Synthetic dataset -> unlabeled pool -> Dirichlet shards. A partition
    that leaves a client too few rows to split is a `ConfigError`."""
    dataset = generate_synthetic(config.num_classes, config.dim,
                                 config.per_class_count,
                                 config.class_separation, config.noise_sigma,
                                 seed)
    pool, remainder = extract_unlabeled(dataset, config.unlabeled_count, seed)
    spec = PartitionSpec(config.num_clients, alpha_label=config.alpha_label,
                         alpha_size=config.alpha_size, seed=seed)
    shards, where = [], ""
    try:
        for i, idx in enumerate(dirichlet_partition(remainder, spec)):
            where = f"client {i}: "
            shards.append(split_shard(remainder, idx,
                                      seed=derive_seed(seed, TAG_SPLIT, i)))
    except ValueError as exc:
        raise ConfigError(f"keys 'alpha_size', 'num_clients' and "
                          f"'per_class_count': data seed {seed}: {where}{exc}") from exc
    return shards, pool


def stall_warning(records: list[RoundRecord], num_classes: int) -> str | None:
    """What is wrong when the last round's mean validation accuracy is no
    better than a uniform guess's 1/M; None otherwise. Loss is not tested:
    a run that learned but ends overconfident can score above ln M."""
    last = max(r.round for r in records)
    acc = float(np.mean([r.val_acc for r in records if r.round == last]))
    if acc > 1.0 / num_classes:
        return None
    return (f"round {last} validation is no better than a uniform guess: "
            f"mean validation accuracy {acc:.4g} <= 1/{num_classes}")


def run_single(config: ExperimentConfig, seed: int,
               federation=None) -> RunResult:
    """One seeded run; `federation` is `build_federation(config, seed)`'s
    result when the caller has built it already."""
    config = replace(config, seed=seed)
    shards, pool = federation or build_federation(config, seed)
    try:  # a divergence names its run
        archs = _client_archs(config, shards)
        if config.algorithm == "fedme":
            models, records, laps = run_fedme(shards, archs, pool, config)
        elif config.algorithm == "local_only":
            models, records, laps = run_local_only(shards, archs, config)
        else:  # read per call: perfbench's tracer rebinds the runners' names
            run = {"centralized": run_centralized, "fedavg": run_fedavg,
                   "hypcluster": run_hypcluster}[config.algorithm]
            globals_, choices, records, laps = run(shards, archs[0], config)
            models = [globals_[c] for c in choices]

        stalled = stall_warning(records, config.num_classes)
        if stalled:
            warnings.warn(f"{config.algorithm} seed {seed} at lr={config.lr:g}: "
                          f"{stalled}", RuntimeWarning, stacklevel=2)
        # the last round's records already hold the final models' accuracies
        final = {r.client: r for r in records if r.round == config.rounds}
        pre = [final[i].test_acc for i in range(len(shards))]
        val = [final[i].val_acc for i in range(len(shards))]
        if config.fine_tune_epochs > 0:
            tune = replace(config, epochs=config.fine_tune_epochs)
            tuned = fine_tune(models, shards, tune)
            with locate_divergence("fine-tuning"):
                scores = [nn.evaluate(m, s.test.features, s.test.labels)
                          for m, s in zip(tuned, shards)]
                check_outputs([loss for loss, _ in scores], config.lr)
            post = [acc for _, acc in scores]
        else:
            tuned, post = models, pre
    except nn.DivergenceError as exc:
        exc.args = (f"{config.algorithm}, data seed {seed}, {exc}",)
        raise
    return RunResult(
        models=models, tuned_models=tuned, records=records, laps=laps,
        archs=archs,
        test_acc_pre_ft=float(np.mean(pre)),
        test_acc_post_ft=float(np.mean(post)),
        val_acc_uniform=float(np.mean(val)))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _atomic_write(path, data: bytes) -> None:
    """Write to a temp file, then move it over `path`: a killed run leaves
    either the whole file at `path` or none; a failed one, no temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path, lines: list[str]) -> None:
    _atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_round_log(records: list[RoundRecord], path) -> None:
    """RoundLog CSV. Timing columns are written as 0 so identical runs produce
    byte-identical files; measured timings go to the sidecar timings file."""
    lines = [ROUND_LOG_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.round), str(r.client), str(r.k), _fmt(r.cluster),
            _fmt(r.donor), _fmt(r.a), _fmt(r.loss_p_train),
            _fmt(r.loss_ex_train), _fmt(r.loss_p_val), _fmt(r.loss_ex_val),
            _fmt(r.val_acc), _fmt(r.test_acc), "0", "0"]))
    _write_csv(path, lines)


def write_timings(laps: Laps, path) -> None:
    """Wall-clock sidecar of the round log: one row per round, its spans in
    milliseconds (see `engine.SPANS`), which add up to the round's wall time."""
    lines = [",".join(("round",) + SPANS)]
    for t, spans in enumerate(laps.rounds, start=1):
        lines.append(",".join([str(t)] + [f"{spans[s]:.3f}" for s in SPANS]))
    _write_csv(path, lines)


@dataclass
class SummaryReport:
    algorithm: str
    per_repeat: list[float]          # headline final test accuracy per repeat
    mean: float
    std: float
    mean_pre_ft: float
    std_pre_ft: float
    runtime_s: float

    def __str__(self):
        return (f"{self.algorithm}: test accuracy {self.mean:.4f} ± "
                f"{self.std:.4f} over {len(self.per_repeat)} repeats "
                f"(pre-fine-tuning {self.mean_pre_ft:.4f} ± "
                f"{self.std_pre_ft:.4f})")


def _std(values) -> float:
    """Population standard deviation (ddof 0) of the repeats."""
    return float(np.std(values))


def _federations(config: ExperimentConfig) -> list:
    """Every repeat's federation, in repeat order."""
    return [build_federation(config, config.seed + r)
            for r in range(config.repeats)]


def run_experiment(config: ExperimentConfig, out_dir=None,
                   federations=None) -> SummaryReport:
    """`repeats` independent runs seeded (master seed + repeat index), with
    CSV logs, checkpoints, and a summary written under out_dir when given.
    Every repeat's federation (`_federations(config)` unless given) is built
    before the first repeat trains, so a bad partition fails first."""
    start = time.perf_counter()
    if federations is None:
        federations = _federations(config)
    results = []
    for r, federation in enumerate(federations):
        result = run_single(config, config.seed + r, federation)
        results.append(result)
        if out_dir is not None:
            run_dir = os.path.join(out_dir, f"run_{r}")
            os.makedirs(run_dir, exist_ok=True)
            write_round_log(result.records, os.path.join(run_dir, "rounds.csv"))
            write_timings(result.laps, os.path.join(run_dir, "timings.csv"))
            for i, model in enumerate(result.tuned_models):
                _atomic_write(os.path.join(run_dir, f"client_{i}.model"),
                              nn.serialize_model(model))

    finals = [res.test_acc_post_ft for res in results]
    pre = [res.test_acc_pre_ft for res in results]
    report = SummaryReport(
        algorithm=config.algorithm,
        per_repeat=finals,
        mean=float(np.mean(finals)), std=_std(finals),
        mean_pre_ft=float(np.mean(pre)), std_pre_ft=_std(pre),
        runtime_s=time.perf_counter() - start)
    if out_dir is not None:
        lines = ["repeat,test_acc,test_acc_pre_ft"]
        for r, res in enumerate(results):
            lines.append(f"{r},{res.test_acc_post_ft:.12g},{res.test_acc_pre_ft:.12g}")
        lines.append(f"mean,{report.mean:.12g},{report.mean_pre_ft:.12g}")
        lines.append(f"std,{report.std:.12g},{report.std_pre_ft:.12g}")
        _write_csv(os.path.join(out_dir, "summary.csv"), lines)
    return report


def default_lr_grid() -> list[float]:
    """The eight-point grid 10^-3, 10^-2.5, ..., 10^0.5."""
    return [float(10.0 ** e) for e in np.arange(-3.0, 0.51, 0.5)]


def grid_search_lr(config: ExperimentConfig, grid=None):
    """One run per grid point; best by mean final validation accuracy, ties
    toward the smaller learning rate."""
    grid = sorted(grid if grid is not None else default_lr_grid())
    if not grid:
        raise ConfigError("learning-rate grid must be nonempty")
    # every grid point is checked before the first run; the learning rate
    # does not enter the data, so the points share one federation
    configs = [validate_config(replace(config, lr=lr)) for lr in grid]
    federation = build_federation(config, config.seed)
    table = [(c.lr, run_single(c, config.seed, federation).val_acc_uniform)
             for c in configs]
    best_lr = max(table, key=lambda row: (row[1], -row[0]))[0]
    return best_lr, table


SWEEP_AXES = ("alpha_label", "ablation", "architecture")

_ABLATION_FLAGS = ("mt", "dml", "mc")


def _sweep_config(config: ExperimentConfig, axis: str,
                  value: str) -> ExperimentConfig:
    """The validated config for one axis value; a bad value names the axis."""
    try:
        if axis == "alpha_label":
            changes = {"alpha_label": _parse_value("alpha_label", value)}
        elif axis == "ablation":
            flags = [] if value.lower() in ("none", "") else value.lower().split("+")
            unknown = [f for f in flags if f not in _ABLATION_FLAGS]
            if unknown:
                raise ConfigError(f"unknown ablation flags {unknown}; "
                                  f"use combinations of mt, dml, mc")
            changes = {"tuning": "mt" in flags, "dml": "dml" in flags}
            if "mc" not in flags:
                changes["cluster_thresholds"] = ()
        elif value.lower() == "auto":  # architecture
            changes = {"init_policy": "best_local"}
        else:
            i = int(value)
            if not 1 <= i <= len(config.model_menu):
                raise ConfigError(f"must be a menu position in "
                                  f"1..{len(config.model_menu)}")
            changes = {"init_policy": "round_robin",
                       "model_menu": (config.model_menu[i - 1],)}
        return validate_config(replace(config, **changes))
    except ValueError as exc:
        raise ConfigError(f"sweep axis '{axis}', value {value!r}: {exc}") from exc


def sweep(config: ExperimentConfig, axis: str, values: list[str], out_dir=None):
    """run_experiment of `config.algorithm` per axis value, returning a table
    of {value: SummaryReport}. Every config is checked, and every federation
    built, before the first run."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; use one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    alg = config.algorithm
    configs = {value: _sweep_config(config, axis, value) for value in values}
    federations = {value: _federations(cfg) for value, cfg in configs.items()}
    table = {}
    for value, cfg in configs.items():
        sub_dir = None
        if out_dir is not None:
            sub_dir = os.path.join(out_dir, f"{axis}_{value}_{alg}".replace("+", "_"))
            os.makedirs(sub_dir, exist_ok=True)
        table[value] = run_experiment(cfg, sub_dir, federations[value])
    if out_dir is not None:
        lines = [f"{axis},algorithm,mean,std,mean_pre_ft,std_pre_ft"]
        for value, report in table.items():
            lines.append(f"{value},{alg},{report.mean:.12g},{report.std:.12g},"
                         f"{report.mean_pre_ft:.12g},{report.std_pre_ft:.12g}")
        _write_csv(os.path.join(out_dir, "sweep.csv"), lines)
    return table
