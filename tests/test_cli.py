import warnings

import numpy as np
import pytest

from fedme import harness, nn
from fedme.cli import main

TINY = """\
algorithm = {alg}
num_clients = 4
rounds = 2
epochs = 1
num_classes = 3
dim = 4
per_class_count = 40
noise_sigma = 1.0
unlabeled_count = 20
model_menu = 4
init_policy = round_robin
cluster_thresholds = 2
probe_epochs = 1
fine_tune_epochs = 1
repeats = 1
lr = 0.05
"""


def _write(tmp_path, alg="fedme"):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY.format(alg=alg))
    return str(path)


def test_run_command(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", "--config", _write(tmp_path), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr()
    assert "fedme: test accuracy" in printed.out
    # wall time goes to stderr, out of the deterministic stdout
    assert "runtime" not in printed.out
    assert printed.err.startswith("runtime ")
    assert (out / "run_0" / "rounds.csv").exists()
    assert (out / "summary.csv").exists()


def test_run_seed_override(tmp_path, capsys):
    config = _write(tmp_path, "local_only")
    assert main(["run", "--config", config, "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--config", config, "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_grid_search_command(tmp_path, capsys):
    code = main(["grid-search", "--config", _write(tmp_path, "local_only"),
                 "--grid", "0.01,0.05"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("lr,val_acc")
    assert "best lr:" in out


def test_grid_search_bad_grid(tmp_path, capsys):
    code = main(["grid-search", "--config", _write(tmp_path), "--grid", "a,b"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    code = main(["sweep", "--config", _write(tmp_path, "local_only"),
                 "--axis", "alpha_label", "--values", "0.5,iid"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("alpha_label,algorithm,mean")
    assert len(out) == 3


def test_partition_command(tmp_path, capsys):
    assert main(["partition", "--config", _write(tmp_path)]) == 0
    assert "4 clients" in capsys.readouterr().out
    assert main(["partition", "--config", _write(tmp_path), "--report"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "client,n_train,n_val,n_test,class_0,class_1,class_2"
    assert len(lines) == 5
    total = sum(sum(int(v) for v in line.split(",")[4:]) for line in lines[1:])
    assert total == 3 * 40 - 20


def test_unknown_config_key_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("algorithm = fedme\nwarp_speed = 9\n")
    assert main(["run", "--config", str(path)]) == 1
    assert "warp_speed" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("cluster_thresholds", "30,10"),
    ("cluster_thresholds", "2,2"),
    ("cluster_thresholds", "0,1"),
    ("init_policy", "fixed_index"),
    ("k_max", "0"),
    ("repeats", "0"),
    # removed keys are unknown keys
    ("hypcluster_q", "1"),
    ("kmeans_restarts", "0"),
    ("activation", "gelu"),
    ("num_classes", "1"),
    ("dim", "1"),
    ("num_clients", "1"),
    ("unlabeled_count", "120"),  # all 3 x 40 generated rows
    ("num_clients", "500"),
    ("model_menu", "8,0"),
    ("model_menu", "8,8,8,8,8"),
    ("alpha_label", "nan"),
    ("lr", "nan"),
    ("noise_sigma", "inf"),
    ("class_separation", "inf"),
    ("seed", "-1"),
    ("momentum", "-0.1"),
    ("momentum", "1.0"),
    ("momentum", "1.5"),
    ("__class__", "x"),
    ("__doc__", "x"),
])
def test_invalid_choice_exits_one_before_any_work(tmp_path, capsys, monkeypatch,
                                                  key, value):
    built = []
    monkeypatch.setattr(harness, "build_federation",
                        lambda *args: built.append(args))
    settings = dict(line.split(" = ") for line in
                    TINY.format(alg="fedme").splitlines())
    settings.update({"init_policy": "best_local", key: value})
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"'{key}'" in err
    assert not built


def test_negative_seed_override_exits_one_before_any_work(tmp_path, capsys,
                                                         monkeypatch):
    built = []
    monkeypatch.setattr(harness, "build_federation",
                        lambda *args: built.append(args))
    assert main(["run", "--config", _write(tmp_path), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'seed'" in err
    assert not built


def test_an_error_without_a_message_is_named_by_its_type(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("fedme.cli.run_experiment", out_of_memory)
    assert main(["run", "--config", _write(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


@pytest.mark.parametrize("alg", ["fedme", "local_only", "fedavg"])
def test_diverged_run_names_the_learning_rate(tmp_path, capsys, alg):
    # round 1 leaves finite parameters near 1e298, whose scores overflow
    path = tmp_path / "exp.cfg"
    path.write_text(TINY.format(alg=alg).replace("lr = 0.05", "lr = 1e300"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "round 1: non-finite model outputs at lr=1e+300: training diverged" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


DIVERGING = """\
algorithm = {alg}
num_clients = 4
rounds = 3
per_class_count = 60
unlabeled_count = 20
repeats = 1
"""


def _huge(model):
    return nn.Model(model.arch, np.full_like(model.params, 1e200))


def _probes_overflow(monkeypatch):
    train = nn.train
    monkeypatch.setattr(nn, "train", lambda jobs, config: [
        (_huge(model), peer) for model, peer in train(jobs, config)])


def _fine_tuning_overflows(monkeypatch):
    fine_tune = harness.fine_tune
    monkeypatch.setattr(harness, "fine_tune", lambda models, shards, config: [
        _huge(model) for model in fine_tune(models, shards, config)])


# in the last two cases the trained models' parameters are all 1e200:
# finite, but their scores overflow to NaN
@pytest.mark.parametrize("alg, keys, overflow, named", [
    ("fedme", "init_policy = round_robin\nclass_separation = 1e300\n", None,
     "fedme, data seed 0, round 1: non-finite parameters at lr=0.05: training "
     "diverged for clients [0, 1, 2, 3]"),
    ("fedavg", "init_policy = best_local\nprobe_epochs = 2\nlr = 1e300\n", None,
     "fedavg, data seed 0, best-local probing: non-finite parameters at lr=1e+300: "
     "training diverged for clients [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3] "
     "on menu candidates [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]"),
    ("fedavg", "init_policy = best_local\nprobe_epochs = 1\n", _probes_overflow,
     "fedavg, data seed 0, best-local probing: non-finite model outputs at lr=0.05: "
     "training diverged for clients [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3] "
     "on menu candidates [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]"),
    ("fedme", "init_policy = round_robin\n", _fine_tuning_overflows,
     "fedme, data seed 0, fine-tuning: non-finite model outputs at lr=0.05: "
     "training diverged for clients [0, 1, 2, 3]"),
], ids=["huge-features", "huge-lr-probe", "overflowing-probes",
        "overflowing-fine-tuning"])
def test_a_divergence_names_its_run_phase_and_clients(tmp_path, capsys, monkeypatch,
                                                      alg, keys, overflow, named):
    if overflow:
        overflow(monkeypatch)
    path = tmp_path / "exp.cfg"
    path.write_text(DIVERGING.format(alg=alg) + keys)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_duplicate_config_key_exits_one_naming_its_line(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY.format(alg="fedme") + "lr = 0.1\n")
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "duplicate key 'lr'" in err
    assert f"exp.cfg:{len(TINY.splitlines()) + 1}:" in err


@pytest.mark.parametrize("args,named", [
    (["sweep", "--axis", "alpha_label", "--values", "0.5,-1"], "'alpha_label'"),
    (["sweep", "--axis", "architecture", "--values", "1,0"], "'architecture'"),
    (["sweep", "--axis", "alpha_label", "--values", "0.5,abc"], "'alpha_label'"),
    (["grid-search", "--grid", "0.05,-0.1"], "'lr'"),
    (["grid-search", "--grid", "0.05,nan"], "'lr'"),
], ids=["sweep-negative-alpha", "sweep-architecture-0", "sweep-unparsed-alpha",
        "grid-negative-lr", "grid-nan-lr"])
def test_bad_sweep_or_grid_value_exits_one_before_any_run(tmp_path, capsys,
                                                          monkeypatch, args, named):
    runs = []
    monkeypatch.setattr(harness, "run_single", lambda *a: runs.append(a))
    assert main(args + ["--config", _write(tmp_path, "local_only")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not runs


# a client draws 2 rows, too few for three splits
SMALL_CLIENT = """\
algorithm = fedme
num_clients = 20
num_classes = 2
per_class_count = 30
unlabeled_count = 10
alpha_size = 0.05
"""
# repeats 0 and 1 (seeds 1 and 2) partition fine; repeat 2 (seed 3) does not
LATE_REPEAT = """\
algorithm = fedme
num_clients = 10
num_classes = 2
per_class_count = 40
unlabeled_count = 10
alpha_size = 10
seed = 1
repeats = 3
rounds = 2
"""


@pytest.mark.parametrize("text,client", [(SMALL_CLIENT, 0), (LATE_REPEAT, 3)],
                         ids=["small-client", "late-repeat"])
def test_bad_partition_exits_one_naming_the_keys_before_any_training(
        tmp_path, capsys, monkeypatch, text, client):
    trained, real = [], nn.train
    monkeypatch.setattr(nn, "train", lambda *a: trained.append(a) or real(*a))
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    for key in ("'alpha_size'", "'num_clients'", "'per_class_count'"):
        assert key in err
    assert f": client {client}: split of " in err
    assert not trained
    assert not (out / "run_0").exists()


def test_partition_command_names_the_keys_of_a_bad_partition(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CLIENT)
    assert main(["partition", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'alpha_size'" in err
