import math
import os
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from fedme import harness, nn
from fedme.engine import FedMeConfig, RoundRecord
from fedme.harness import (ConfigError, ExperimentConfig, build_federation,
                           default_lr_grid, grid_search_lr, parse_config,
                           run_experiment, run_single, stall_warning, sweep,
                           validate_config, write_round_log)


def _tiny(algorithm="fedme", **kw):
    base = dict(algorithm=algorithm, num_clients=4, rounds=2, epochs=1,
                num_classes=3, dim=4, per_class_count=40, class_separation=3.0,
                noise_sigma=1.0, unlabeled_count=20,
                model_menu=((4,),), init_policy="round_robin",
                cluster_thresholds=(2,), probe_epochs=1, fine_tune_epochs=1,
                repeats=2, lr=0.05, seed=0)
    base.update(kw)
    return validate_config(ExperimentConfig(**base))


def test_parse_config_full(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "algorithm = fedme\n"
        "num_clients = 6   # trailing comment\n"
        "alpha_label = iid\n"
        "model_menu = 8|8,8|8,8,8\n"
        "cluster_thresholds = 10,20\n"
        "tuning = off\n"
        "lr = 0.01\n")
    config = parse_config(path)
    assert config.algorithm == "fedme"
    assert config.num_clients == 6
    assert config.alpha_label is None
    assert config.model_menu == ((8,), (8, 8), (8, 8, 8))
    assert config.cluster_thresholds == (10, 20)
    assert config.tuning is False
    assert config.lr == 0.01


def test_parse_config_unknown_key_names_it(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("algorithm = fedme\nlerning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="lerning_rate"):
        parse_config(path)


@pytest.mark.parametrize("key", ["exchange", "schedule", "fedavg_weighting",
                                 "hypcluster_criterion", "train_frac",
                                 "val_frac", "test_frac", "clustering",
                                 "kmeans_restarts", "hypcluster_q",
                                 "activation", "model_index"])
def test_parse_config_rejects_keys_that_are_not_fields(tmp_path, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"algorithm = fedme\n{key} = off\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(path)


def test_run_fedme_gets_every_fedme_key_from_the_file_with_the_run_seed(
        tmp_path, monkeypatch):
    settings = {"rounds": "3", "epochs": "1", "lr": "0.02", "momentum": "0.5",
                "weight_decay": "0.001", "batch_size": "7", "seed": "4",
                "cluster_thresholds": "2,3", "k_max": "3", "tuning": "off",
                "dml": "off"}
    assert set(settings) == {f.name for f in fields(FedMeConfig)}
    path = tmp_path / "exp.cfg"
    path.write_text("algorithm = fedme\ninit_policy = round_robin\n" +
                    "".join(f"{k} = {v}\n" for k, v in settings.items()))
    received = []

    class Stop(Exception):
        pass

    def fake_run_fedme(shards, archs, pool, config):
        received.append(config)
        raise Stop

    monkeypatch.setattr(harness, "run_fedme", fake_run_fedme)
    with pytest.raises(Stop):
        run_single(parse_config(path), 9)
    got = {f.name: getattr(received[0], f.name) for f in fields(FedMeConfig)}
    assert got == dict(rounds=3, epochs=1, lr=0.02, momentum=0.5,
                       weight_decay=0.001, batch_size=7, seed=9,
                       cluster_thresholds=(2, 3), k_max=3, tuning=False,
                       dml=False)


def test_parse_config_missing_algorithm(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("rounds = 5\n")
    with pytest.raises(ConfigError, match="algorithm"):
        parse_config(path)


def test_parse_config_bad_values(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("algorithm = fedme\nlr = fast\n")
    with pytest.raises(ConfigError, match="'lr'"):
        parse_config(path)
    path.write_text("algorithm = fedme\ndml = maybe\n")
    with pytest.raises(ConfigError, match="'dml'"):
        parse_config(path)
    path.write_text("algorithm = fedme\nrounds\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


def test_validate_config_ranges():
    with pytest.raises(ConfigError, match="'algorithm'"):
        _tiny(algorithm="gossip")
    with pytest.raises(ConfigError, match="'rounds'"):
        _tiny(rounds=0)
    with pytest.raises(ConfigError, match="'alpha_label'"):
        _tiny(alpha_label=-0.5)
    with pytest.raises(ConfigError, match="'init_policy'"):
        _tiny(init_policy="random")
    # momentum lies in [0, 1); `fedme run` rejects the rest naming the key
    for momentum in (0.0, 0.9):
        assert _tiny(momentum=momentum).momentum == momentum


def test_build_federation_shapes():
    config = _tiny()
    shards, pool = build_federation(config, 0)
    assert len(shards) == 4
    assert len(pool) == 20
    assert sum(len(s.labels) for s in shards) == 3 * 40 - 20
    assert all(s.train.n >= 1 and s.validation.n >= 1 and s.test.n >= 1
               for s in shards)


@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
def test_run_single_all_algorithms(algorithm):
    result = run_single(_tiny(algorithm), seed=0)
    assert len(result.models) == 4
    assert len(result.tuned_models) == 4
    assert 0.0 <= result.test_acc_pre_ft <= 1.0
    assert 0.0 <= result.test_acc_post_ft <= 1.0
    expected = 2 * 4
    assert len(result.records) == expected


def test_run_single_deterministic():
    config = _tiny("fedme")
    a = run_single(config, seed=3)
    b = run_single(config, seed=3)
    assert a.test_acc_post_ft == b.test_acc_post_ft
    for ma, mb in zip(a.tuned_models, b.tuned_models):
        assert np.array_equal(ma.params, mb.params)


def _final_records(val_accs, val_losses, rounds=3):
    """Round records whose last round has these validation scores; earlier
    rounds are perfect, so only the last round can trigger a warning."""
    def record(t, i, acc, loss):
        return RoundRecord(round=t, client=i, k=1, cluster=None, donor=None,
                           a=None, loss_p_train=loss, loss_ex_train=None,
                           loss_p_val=loss, loss_ex_val=None, val_acc=acc,
                           test_acc=acc)
    return ([record(t, i, 1.0, 0.0) for t in range(1, rounds)
             for i in range(len(val_accs))]
            + [record(rounds, i, acc, loss) for i, (acc, loss)
               in enumerate(zip(val_accs, val_losses))])


def test_stall_warning_thresholds():
    ln4 = math.log(4)
    # mean accuracy exactly 1/M, loss well under ln M
    message = stall_warning(_final_records([0.0, 0.5], [0.5, 0.5]), 4)
    assert "round 3" in message and "accuracy 0.25 <= 1/4" in message
    assert "loss" not in message
    # mean loss just above ln M, accuracy well above chance: not a stall
    assert stall_warning(_final_records([0.9, 0.9], [ln4, ln4 + 1e-9]), 4) is None
    # accuracy below chance names the accuracy only, whatever the loss
    both = stall_warning(_final_records([0.1, 0.2], [2.0, 2.0]), 4)
    assert "accuracy 0.15 <= 1/4" in both and "loss" not in both


def test_stall_warning_silent_above_chance():
    ln4 = math.log(4)
    assert stall_warning(_final_records([0.25, 0.26], [ln4, ln4]), 4) is None
    # an earlier round at chance does not count
    records = _final_records([0.9], [0.3])
    records[0].val_acc, records[0].loss_p_val = 0.0, 9.0
    assert stall_warning(records, 4) is None


def test_run_single_warns_on_a_stalled_run_and_finishes(monkeypatch):
    seen = []

    def stalled(records, num_classes):
        seen.append(num_classes)
        return "round 2 stalled"

    monkeypatch.setattr(harness, "stall_warning", stalled)
    with pytest.warns(RuntimeWarning, match=r"^fedavg seed 5 at lr=0\.05: "
                                            r"round 2 stalled$"):
        result = run_single(_tiny("fedavg"), seed=5)
    assert seen == [3] and len(result.records) == 2 * 4


@pytest.mark.parametrize("seed", [13, 16, 17])
def test_run_single_is_silent_on_an_overconfident_run(seed):
    # Local-Only on the criterion-8 config ends these seeds at validation
    # accuracy near 0.7 but with mean validation loss above ln 4
    config = validate_config(ExperimentConfig(
        algorithm="local_only", weight_decay=1e-3, fine_tune_epochs=10))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_single(config, seed)
    final = [r for r in result.records if r.round == config.rounds]
    assert np.mean([r.loss_p_val for r in final]) > math.log(4)
    assert np.mean([r.val_acc for r in final]) > 0.6


def test_run_single_is_silent_on_a_learning_run():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_single(_tiny("local_only", rounds=5, epochs=3, lr=0.1), seed=0)


def test_best_local_policy_heterogeneous_menu():
    config = _tiny("fedme", model_menu=((4,), (4, 4)), init_policy="best_local")
    result = run_single(config, seed=1)
    menu = harness.menu_archs(config)
    assert all(arch in menu for arch in result.archs)


@pytest.mark.parametrize("init_policy", harness.INIT_POLICIES)
@pytest.mark.parametrize("algorithm", ("centralized", "fedavg", "hypcluster"))
def test_shared_algorithms_settle_on_one_architecture(algorithm, init_policy):
    config = _tiny(algorithm, model_menu=((4,), (4, 4)), init_policy=init_policy)
    result = run_single(config, seed=1)
    assert len(set(result.archs)) == 1
    assert all(m.arch == result.archs[0] for m in result.models)


def test_round_robin_policy():
    config = _tiny("local_only", model_menu=((4,), (4, 4)),
                   init_policy="round_robin")
    result = run_single(config, seed=0)
    menu = harness.menu_archs(config)
    assert [a for a in result.archs] == [menu[0], menu[1], menu[0], menu[1]]


def test_write_round_log_format(tmp_path):
    result = run_single(_tiny("fedme"), seed=0)
    path = tmp_path / "rounds.csv"
    write_round_log(result.records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == harness.ROUND_LOG_HEADER
    assert len(lines) == 1 + len(result.records)
    first = lines[1].split(",")
    assert len(first) == 14
    assert first[-2:] == ["0", "0"]  # timing columns pinned for reproducibility


def test_write_round_log_baseline_leaves_exchange_columns_empty(tmp_path):
    result = run_single(_tiny("local_only"), seed=0)
    path = tmp_path / "rounds.csv"
    write_round_log(result.records, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == "" and row[4] == "" and row[5] == ""  # cluster, donor, a


def test_run_experiment_artifacts(tmp_path):
    config = _tiny("fedme", repeats=2)
    report = run_experiment(config, str(tmp_path))
    assert len(report.per_repeat) == 2
    assert report.mean == pytest.approx(np.mean(report.per_repeat))
    for r in range(2):
        run_dir = tmp_path / f"run_{r}"
        assert (run_dir / "rounds.csv").exists()
        assert (run_dir / "timings.csv").exists()
        for i in range(4):
            blob = (run_dir / f"client_{i}.model").read_bytes()
            model = nn.deserialize_model(blob)
            assert np.all(np.isfinite(model.params))
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "repeat,test_acc,test_acc_pre_ft"
    assert len(summary) == 1 + 2 + 2  # header + repeats + mean + std


@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
def test_timings_are_measured(tmp_path, algorithm):
    run_experiment(_tiny(algorithm, repeats=1), str(tmp_path))
    header, *rows = [line.split(",") for line in
                     (tmp_path / "run_0" / "timings.csv").read_text().splitlines()]
    assert header == ["round", "pool_ms", "kmeans_ms", "train_ms", "score_ms",
                      "server_ms"]
    spans = [dict(zip(header, map(float, row))) for row in rows]
    assert [s["round"] for s in spans] == [1.0, 2.0]  # one row per round
    assert all(s["train_ms"] > 0 and s["score_ms"] > 0 and s["server_ms"] > 0
               for s in spans)
    if algorithm != "fedme":
        assert all(s["pool_ms"] == s["kmeans_ms"] == 0 for s in spans)


def test_run_experiment_byte_identical_logs(tmp_path):
    config = _tiny("fedme", repeats=1)
    run_experiment(config, str(tmp_path / "a"))
    run_experiment(config, str(tmp_path / "b"))
    a = (tmp_path / "a" / "run_0" / "rounds.csv").read_bytes()
    b = (tmp_path / "b" / "run_0" / "rounds.csv").read_bytes()
    assert a == b


def test_checkpoints_are_written_atomically(tmp_path, monkeypatch):
    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith(".model"):
            raise OSError("killed while moving a checkpoint")
        real_replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", failing_replace)
    with pytest.raises(OSError, match="checkpoint"):
        run_experiment(_tiny("fedme", repeats=1), str(tmp_path))
    assert not list(tmp_path.glob("run_0/client_*.model"))
    assert not list(tmp_path.glob("run_0/*.tmp"))


@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
def test_criterion_10_config_is_byte_identical_for_every_algorithm(
        tmp_path, algorithm):
    config = validate_config(ExperimentConfig(
        algorithm=algorithm, num_clients=5, rounds=4, epochs=1, num_classes=3,
        dim=4, per_class_count=50, noise_sigma=1.0, unlabeled_count=20,
        model_menu=((4,), (4, 4)), init_policy="best_local", probe_epochs=1,
        cluster_thresholds=(2, 3), fine_tune_epochs=2, repeats=2, lr=0.05,
        seed=11))
    run_experiment(config, str(tmp_path / "a"))
    run_experiment(config, str(tmp_path / "b"))
    for r in range(2):
        for name in ["rounds.csv"] + [f"client_{i}.model" for i in range(5)]:
            a = (tmp_path / "a" / f"run_{r}" / name).read_bytes()
            b = (tmp_path / "b" / f"run_{r}" / name).read_bytes()
            assert a == b, f"run_{r}/{name}"


def test_default_lr_grid():
    grid = default_lr_grid()
    assert len(grid) == 8
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(10 ** 0.5)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(10 ** 0.5) for r in ratios)


def test_grid_search_picks_best(tmp_path):
    config = _tiny("local_only", repeats=1, rounds=8, epochs=2,
                   alpha_label=None, class_separation=5.0)
    best_lr, table = grid_search_lr(config, [1e-4, 0.05])
    assert [lr for lr, _ in table] == [1e-4, 0.05]
    accs = dict(table)
    assert best_lr == max(table, key=lambda row: (row[1], -row[0]))[0]
    assert accs[0.05] > accs[1e-4]  # 1e-4 barely moves the model
    with pytest.raises(ConfigError):
        grid_search_lr(config, [])


def test_sweep_alpha_axis(tmp_path):
    config = _tiny("local_only", repeats=1, rounds=1)
    table = sweep(config, "alpha_label", ["0.5", "iid"], out_dir=str(tmp_path))
    assert set(table) == {"0.5", "iid"}
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_ablation_axis():
    config = _tiny("fedme", repeats=1, rounds=1)
    table = sweep(config, "ablation", ["none", "mt+dml"])
    assert "mt+dml" in table
    with pytest.raises(ConfigError, match="ablation"):
        sweep(config, "ablation", ["mt+oops"])


def test_sweep_architecture_axis():
    config = _tiny("local_only", repeats=1, rounds=1,
                   model_menu=((4,), (4, 4)))
    table = sweep(config, "architecture", ["1", "2"])
    assert len(table) == 2
    with pytest.raises(ConfigError):
        sweep(config, "num_clients", ["3"])


def test_sweep_sets_the_schedule_and_menu_of_each_cell(monkeypatch):
    cells = []
    monkeypatch.setattr(harness, "run_experiment",
                        lambda cfg, *args: cells.append(cfg))
    base = _tiny("fedme", model_menu=((4,), (4, 4)), cluster_thresholds=(2, 3),
                 repeats=1, rounds=1)
    sweep(base, "ablation", ["none", "mt+dml+mc"])
    none, full = cells
    assert not none.tuning and not none.dml and none.cluster_thresholds == ()
    assert full.tuning and full.dml and full.cluster_thresholds == (2, 3)
    cells.clear()
    sweep(base, "architecture", ["2", "auto"])
    two, auto = cells
    assert two.init_policy == "round_robin" and two.model_menu == ((4, 4),)
    assert auto.init_policy == "best_local" and auto.model_menu == base.model_menu
    cells.clear()
    with pytest.raises(ConfigError, match="'architecture'"):
        sweep(base, "architecture", ["1", "3"])
    assert not cells


def _count_training(monkeypatch):
    calls = []
    real = nn.train
    monkeypatch.setattr(nn, "train", lambda *a: calls.append(a) or real(*a))
    return calls


# 70 labelled rows over 10 clients: 7 each when IID, but Dirichlet sizes at
# alpha_size 0.05 leave some client 2 rows, too few for three splits
_SMALL_CLIENT = dict(num_clients=10, num_classes=2, per_class_count=40,
                     unlabeled_count=10, alpha_size=0.05, repeats=1, rounds=1)


def test_build_federation_names_the_keys_of_a_bad_partition():
    config = _tiny(**_SMALL_CLIENT)
    with pytest.raises(ConfigError, match="'alpha_size', 'num_clients'"):
        build_federation(config, 0)
    build_federation(replace(config, alpha_label=None), 0)


def test_run_experiment_builds_every_federation_before_training(monkeypatch):
    trained = _count_training(monkeypatch)
    # seeds 1 and 2 partition fine; seed 3, the last repeat's, does not
    config = _tiny(num_clients=10, num_classes=2, per_class_count=40,
                   unlabeled_count=10, seed=1, repeats=3, rounds=1)
    with pytest.raises(ConfigError, match="data seed 3"):
        run_experiment(config)
    assert not trained


def test_sweep_builds_every_cell_before_training(monkeypatch, tmp_path):
    trained = _count_training(monkeypatch)
    config = _tiny("local_only", **_SMALL_CLIENT)
    with pytest.raises(ConfigError, match="'alpha_size'"):
        sweep(config, "alpha_label", ["iid", "0.5"], out_dir=str(tmp_path))
    assert not trained
    assert list(tmp_path.iterdir()) == []


def test_grid_search_checks_every_point_before_training(monkeypatch):
    trained = _count_training(monkeypatch)
    with pytest.raises(ConfigError, match="'lr'"):
        grid_search_lr(_tiny("local_only", repeats=1), [0.01, math.inf])
    # the learning rate does not enter the data: every point shares one
    # federation, so a bad partition fails before the first point trains
    with pytest.raises(ConfigError, match="'alpha_size'"):
        grid_search_lr(_tiny("local_only", **_SMALL_CLIENT), [0.01, 0.05])
    assert not trained


def test_std_is_the_population_std():
    vals = [0.1, 0.2, 0.3]
    assert harness._std(vals) == pytest.approx(np.std(vals))
    assert harness._std(vals) != pytest.approx(np.std(vals, ddof=1))
    assert harness._std([0.5]) == 0.0
