import dataclasses
import json
import os
import re

import numpy as np
import pytest

from pointvector import cli, dataio, gradcheck, nnops
from pointvector import train as train_mod
from pointvector.cli import BLAS_THREAD_VARS, main, make_parser, worker_blas_env
from pointvector.errors import ConfigError, DataError, SizeError
from pointvector.geometry import PointSetBatch
from pointvector.model import Model, load_checkpoint, param_count

GLOBAL = ["--seed", "5", "--jobs", "3", "--overwrite", "--precision", "single", "--quiet"]


class TestGlobalFlags:
    @pytest.mark.parametrize("argv", [GLOBAL + ["gradcheck"], ["gradcheck"] + GLOBAL])
    def test_either_side_of_the_subcommand(self, argv):
        args = make_parser().parse_args(argv)
        assert (args.seed, args.jobs, args.overwrite, args.precision, args.quiet) == \
            (5, 3, True, "single", True)

    def test_defaults_and_no_overwrite_by_the_subcommand(self):
        args = make_parser().parse_args(["gradcheck"])
        assert (args.seed, args.jobs, args.overwrite, args.precision, args.quiet) == \
            (None, 1, False, "double", False)
        args = make_parser().parse_args(["--seed", "7", "--quiet", "gradcheck", "--jobs", "2"])
        assert (args.seed, args.quiet, args.jobs) == (7, True, 2)


def test_train_then_table8_eval(tmp_path):
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "model": {"preset": "toy-seg-ball"},
        "data": {"num_scenes": 8, "num_points": 128},
        "train": {"epochs": 1, "batch_size": 4},
    }))
    run = tmp_path / "run"
    assert main(["train", str(config), "--run-dir", str(run), "--quiet"]) == 0
    assert (run / "metrics.csv").exists() and (run / "best.ckpt.npz").exists()
    table = tmp_path / "table8.csv"
    assert main(["eval", str(run / "best.ckpt.npz"), str(config), "--perturbations",
                 "table8", "--rescale-radius", "--csv", str(table)]) == 0
    rows = table.read_text().splitlines()
    assert rows[0] == "name,loss,oa,macc,miou" and len(rows[1:]) == 9


def test_gen_data_round_trips_through_the_manifest(tmp_path):
    data = {"num_scenes": 5, "num_points": 40, "seed": 3}
    config = tmp_path / "data.json"
    config.write_text(json.dumps({"data": data}))
    out = tmp_path / "scenes"
    assert main(["gen-data", str(config), "--out", str(out), "--quiet"]) == 0
    want = dataio.make_dataset(dataio.DataConfig(**data), "segmentation")
    got = dataio.load_dataset_from_manifest(out / "manifest.txt", "segmentation",
                                            want.num_classes)
    assert got.positions.dtype == want.positions.dtype == np.float64
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.labels, want.labels)
    for split in ("train", "val"):
        assert np.array_equal(got.split_indices(split), want.split_indices(split))


# sums and splits of the seed-3 datasets; positions.sum() is held to 1e-12, so
# that last-bit differences of libm or LAPACK between machines pass, while any
# change of seed stream or draw order moves it by far more
FINGERPRINTS = {
    "segmentation": (31.330215688641864, 378, [1, 2, 3, 4, 5], [0]),
    "classification": (-66.99286529101789, 6, [0, 2, 3, 4, 5], [1]),
}


@pytest.mark.parametrize("task", sorted(FINGERPRINTS))
def test_synthetic_dataset_fingerprint(task):
    position_sum, label_sum, train, val = FINGERPRINTS[task]
    settings = {"num_scenes": 6, "num_points": 64, "seed": 3}
    data = dataio.make_dataset(dataio.DataConfig(**settings), task)
    assert float(data.positions.sum()) == pytest.approx(position_sum, rel=1e-12, abs=0)
    assert int(data.labels.sum()) == label_sum
    assert data.split_indices("train").tolist() == train
    assert data.split_indices("val").tolist() == val
    if task == "segmentation":
        keyword = dataio.make_segmentation_dataset(**settings)
        assert np.array_equal(keyword.positions, data.positions)
        assert np.array_equal(keyword.labels, data.labels)


def test_classification_clouds_hold_one_primitive():
    """num_primitives does not bound a classification set's cloud count."""
    data = dataio.make_dataset(dataio.DataConfig(num_scenes=200, num_points=128),
                               "classification")
    assert data.positions.shape == (200, 128, 3)
    assert np.array_equal(data.labels, np.arange(200) % len(dataio.KINDS))


def test_model_task_sets_the_data_task(tmp_path):
    config = tmp_path / "cls.json"
    config.write_text(json.dumps({
        "model": {"preset": "toy-cls"},
        "data": {"num_scenes": 6, "num_points": 64},
        "train": {"epochs": 1, "batch_size": 4},
    }))
    run = tmp_path / "run"
    assert main(["train", str(config), "--run-dir", str(run), "--quiet"]) == 0
    assert json.loads((run / "config.json").read_text())["model"]["task"] == "classification"
    assert main(["eval", str(run / "best.ckpt.npz"), str(config)]) == 0
    out = tmp_path / "scenes"
    assert main(["gen-data", str(config), "--out", str(out)]) == 0
    want = dataio.make_dataset(dataio.DataConfig(num_scenes=6, num_points=64),
                               "classification")
    got = dataio.load_dataset_from_manifest(out / "manifest.txt", "classification",
                                            want.num_classes)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.labels, want.labels)


DIRECTORY = object()


def _make(path, content):
    """Make path a file of content, bytes, or a directory for DIRECTORY."""
    if content is DIRECTORY:
        path.mkdir()
    else:
        path.write_bytes(content)


# a point file's content, and the cause that its DataError names after the
# file name: the line for a line that does not parse
BAD_POINT_FILES = {
    "column_count": (b"0 0\n", "line 1: expected 3 or 4 columns, got 2"),
    "mixed_columns": (b"0 0 0 1\n0 0 0\n", "line 2: 3 columns, expected 4"),
    "bad_coordinate": (b"0 0 0\n# a comment\n0 x 0\n", "line 3: bad coordinate"),
    "bad_label": (b"0 0 0 1\n0 0 0 a\n", "line 2: bad label"),
    "empty_file": (b"# no points\n\n", "no points found"),
    "not_utf8": (b"0 0 0\n\xff\n", "cannot read"),
    "directory": (DIRECTORY, "cannot read"),
}


@pytest.mark.parametrize("content,cause", BAD_POINT_FILES.values(), ids=BAD_POINT_FILES)
def test_bad_point_file_is_a_data_error(tmp_path, content, cause):
    path = tmp_path / "cloud.xyz"
    _make(path, content)
    with pytest.raises(DataError, match=re.escape(f"{path}: {cause}")):
        dataio.read_points(path)


@pytest.mark.parametrize("content,cause", [
    (b"train a.xyz\nvalid b.xyz\n", "line 2: expected 'train|val|test <path>'"),
    (b"# no scenes\n", "empty manifest"),
    (b"\xfftrain a.xyz\n", "cannot read")], ids=["bad_split", "empty", "not_utf8"])
def test_bad_manifest_is_a_data_error(tmp_path, content, cause):
    path = tmp_path / "manifest.txt"
    path.write_bytes(content)
    with pytest.raises(DataError, match=re.escape(f"{path}: {cause}")):
        dataio.load_dataset_from_manifest(path, "segmentation", 3)


def test_write_points_takes_one_cloud(tmp_path):
    with pytest.raises(SizeError, match="single-cloud batch"):
        dataio.write_points(tmp_path / "c.xyz", PointSetBatch(positions=np.zeros((2, 3, 3))))


@pytest.mark.parametrize("preset,scene_labels,second,error", [
    ("toy-seg", [np.zeros(64), np.zeros(70)], None, "one size"),
    ("toy-seg", [np.zeros(64), np.full(64, 3)], None, "[0, 3)"),
    ("toy-cls", [np.repeat([0, i % 3], 16) for i in range(4)], None, "one label")] + [
    ("toy-seg", [np.zeros(64)] * 2, *BAD_POINT_FILES[name]) for name in BAD_POINT_FILES],
    ids=["another_size", "label_not_a_class", "mixed_labels", *BAD_POINT_FILES])
def test_bad_manifest_scene_is_rejected_before_any_output(tmp_path, capsys, preset,
                                                          scene_labels, second, error):
    """The second scene has another size, a label that is not a class, or,
    in a classification set, points of two labels; or its file is replaced
    by `second`, a bad point file."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    rng = np.random.default_rng(0)
    for i, lab in enumerate(scene_labels):
        dataio.write_points(scenes / f"s{i}.xyz", PointSetBatch(
            positions=rng.standard_normal((1, len(lab), 3)), labels=lab[None]))
    if second is not None:
        (scenes / "s1.xyz").unlink()
        _make(scenes / "s1.xyz", second)
    dataio.write_manifest(scenes / "manifest.txt", [
        ("val" if i == 1 else "train", f"s{i}.xyz") for i in range(len(scene_labels))])
    config = _write_config(tmp_path, {"model": {"preset": preset},
                                      "data": {"manifest": str(scenes / "manifest.txt")},
                                      "train": {"epochs": 1}})
    run = tmp_path / "run"
    assert main(["train", str(config), "--run-dir", str(run), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "s1.xyz" in err and error in err
    assert not run.exists()


def test_write_then_read_points_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    positions = rng.standard_normal((1, 30, 3)) * 10.0 ** rng.integers(-8, 8, (1, 30, 3))
    labels = rng.integers(0, 5, (1, 30))
    path = tmp_path / "cloud.xyz"
    for cloud in (PointSetBatch(positions=positions, labels=labels),
                  PointSetBatch(positions=positions)):
        dataio.write_points(path, cloud)
        back = dataio.read_points(path)
        assert np.array_equal(back.positions, cloud.positions)
        if cloud.labels is None:
            assert back.labels is None
        else:
            assert np.array_equal(back.labels, cloud.labels)


def test_ablate_one_cell(tmp_path):
    config = tmp_path / "cell.json"
    config.write_text(json.dumps({
        "model": {"preset": "toy-seg"},
        "data": {"num_scenes": 6, "num_points": 64},
        "train": {"epochs": 1, "batch_size": 4},
        "ablate": {"aggregations": ["max_groupconv"], "vector_dims": [2]},
    }))
    run = tmp_path / "run"
    assert main(["ablate", str(config), "--run-dir", str(run), "--quiet"]) == 0
    rows = (run / "ablate.csv").read_text().splitlines()
    assert rows[0] == "aggregation,encoder,m,seed,param_count,best_epoch,loss,oa,macc,miou"
    assert len(rows) == 2 and rows[1].startswith("max_groupconv,rotation,2,0,")


def _write_config(tmp_path, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return config


def test_config_json_records_the_model_that_trained(tmp_path):
    config = _write_config(tmp_path, {
        "model": {"preset": "toy-seg", "encoder": "mlp", "vector_dim": 2},
        "data": {"num_scenes": 6, "num_points": 64},
        "train": {"epochs": 1, "batch_size": 4},
    })
    run = tmp_path / "run"
    assert main(["train", str(config), "--run-dir", str(run), "--quiet"]) == 0
    recorded = json.loads((run / "config.json").read_text())["model"]
    trained = load_checkpoint(run / "best.ckpt.npz")[0].cfg
    assert recorded == dataclasses.asdict(trained)
    assert (trained.encoder, trained.vector_dim) == ("mlp", 2)


@pytest.mark.parametrize("key,value,field", [("encoder", "mlp", "model.encoder"),
                                             ("vector_dim", 2, "model.vector_dim"),
                                             ("aggregation", "sum_fc", "model.aggregation"),
                                             ("reduction", "max", "model.aggregation")])
def test_train_section_model_switch_is_rejected(tmp_path, capsys, key, value, field):
    config = _write_config(tmp_path, {"model": {"preset": "toy-seg"},
                                      "train": {"epochs": 1, key: value}})
    run = tmp_path / "run"
    assert main(["train", str(config), "--run-dir", str(run), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "model section" in err and f"{key} -> {field}" in err
    assert not run.exists()


@pytest.mark.parametrize("sweep", [{"encoders": ["rotation", "bogus"]},
                                   {"vector_dims": [3, 4]},
                                   {"aggregations": ["sum_fc", "mean"]},
                                   {"seeds": [0, -1]}])
def test_ablate_validates_every_cell_before_any_runs(tmp_path, capsys, monkeypatch, sweep):
    """A sweep value out of range is named as the sweep, not as the field
    it replaces."""
    calls = []
    monkeypatch.setattr(train_mod, "train_loop", lambda *a, **kw: calls.append(a))
    config = _write_config(tmp_path, {"model": {"preset": "toy-seg"},
                                      "data": {"num_scenes": 6, "num_points": 64},
                                      "train": {"epochs": 1}, "ablate": sweep})
    run = tmp_path / "run"
    assert main(["ablate", str(config), "--run-dir", str(run), "--quiet"]) == 2
    assert f"ablate.{next(iter(sweep))}" in capsys.readouterr().err
    assert calls == []
    assert not run.exists()


def test_ablate_counts_the_parameters_of_the_model_it_trains(tmp_path, monkeypatch):
    built = []

    def spy(*args, **kwargs):
        built.append(Model(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(train_mod, "Model", spy)
    config = _write_config(tmp_path, {
        "model": {"preset": "toy-seg"},
        "data": {"num_scenes": 6, "num_points": 64},
        "train": {"epochs": 1, "batch_size": 4},
        "ablate": {"encoders": ["direction"], "vector_dims": [1]},
    })
    run = tmp_path / "run"
    assert main(["ablate", str(config), "--run-dir", str(run), "--quiet"]) == 0
    row = (run / "ablate.csv").read_text().splitlines()[1].split(",")
    assert len(built) == 1
    assert (built[0].cfg.encoder, built[0].cfg.vector_dim) == ("direction", 1)
    assert row[:3] == ["sum_groupconv", "direction", "1"]
    assert int(row[4]) == param_count(built[0])


class TestAblateWorkers:
    """`ablate --jobs N` trains in fresh interpreters whose BLAS threads share
    the usable CPUs, and a thread count the user set wins."""

    def test_threads_split_the_cpus(self):
        assert worker_blas_env(2, {}, 8) == dict.fromkeys(BLAS_THREAD_VARS, "4")
        assert worker_blas_env(2, {}, 5) == dict.fromkeys(BLAS_THREAD_VARS, "2")
        assert worker_blas_env(4, {}, 2) == dict.fromkeys(BLAS_THREAD_VARS, "1")

    def test_a_variable_the_user_set_is_left_alone(self):
        assert worker_blas_env(2, {"OMP_NUM_THREADS": "3"}, 4) == {
            "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}

    def test_pool_spawns_with_the_env_and_restores_it(self, tmp_path, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        seen = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                seen.append((max_workers, mp_context.get_start_method(),
                             {var: os.environ.get(var) for var in BLAS_THREAD_VARS}))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        config = _write_config(tmp_path, {
            "model": {"preset": "toy-seg"},
            "data": {"num_scenes": 6, "num_points": 64},
            "train": {"epochs": 1, "batch_size": 4},
            "ablate": {"aggregations": ["max_groupconv"], "vector_dims": [2]},
        })
        run = tmp_path / "run"
        assert main(["ablate", str(config), "--run-dir", str(run), "--jobs", "2",
                     "--quiet"]) == 0
        assert seen == [(2, "spawn", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3",
                                      "MKL_NUM_THREADS": "2"})]
        assert {var: os.environ.get(var) for var in BLAS_THREAD_VARS} == {
            "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}
        assert len((run / "ablate.csv").read_text().splitlines()) == 2


@pytest.mark.matrix
def test_ablate_jobs_write_the_one_job_table(tmp_path):
    config = _write_config(tmp_path, {
        "model": {"preset": "toy-seg"},
        "data": {"num_scenes": 8, "num_points": 256},
        "train": {"epochs": 2, "batch_size": 2},
        "ablate": {"vector_dims": [1, 3]},
    })
    tables = []
    for jobs in (1, 2):
        run = tmp_path / f"jobs{jobs}"
        assert main(["ablate", str(config), "--run-dir", str(run), "--jobs", str(jobs),
                     "--quiet"]) == 0
        tables.append((run / "ablate.csv").read_text())
    assert len(tables[0].splitlines()) == 3
    assert tables[1] == tables[0]


def _case_wrong_gradient(rng):
    """y = 2x whose backward claims 2.1."""
    x = nnops.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    probe = rng.standard_normal((3, 4))

    def forward():
        y = nnops.custom_op(2.0 * x.data, (x,), lambda g: (2.1 * g,))
        return nnops.sum_all(nnops.mul(y, nnops.Tensor(probe)))

    return [("x", x)], forward


@pytest.mark.parametrize("fault,code", [(False, 0), (True, 4)])
def test_gradcheck_exit_code_and_report(monkeypatch, capsys, fault, code):
    few = ("linear", "relu", "grouped_projection_slots")
    cases = {name: gradcheck.CASES[name] for name in few}
    if fault:
        cases["linear"] = _case_wrong_gradient
    monkeypatch.setattr(gradcheck, "CASES", cases)
    assert main(["gradcheck", "--instances", "1"]) == code
    lines = capsys.readouterr().out.splitlines()
    status = {line.split()[0]: line.split()[-1] for line in lines[:len(few)]}
    assert status == {name: "FAIL" if fault and name == "linear" else "PASS"
                      for name in few}
    assert lines[-1] == ("gradient check FAILED for: linear" if fault
                         else "all gradient checks passed")


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_gradcheck_without_instances_is_a_config_error(capsys, instances):
    assert main(["gradcheck", "--instances", instances]) == 2
    captured = capsys.readouterr()
    assert "at least one instance" in captured.err
    assert "passed" not in captured.out


# data settings rejected before anything is written
DATASET_SETTINGS = [("data", "num_scenes", 1), ("data", "val_fraction", 1.5),
                    ("data", "num_scenes", 0), ("data", "num_primitives", 0),
                    ("data", "val_fraction", -0.5)]
# unknown keys and values of the wrong type, named as section.key; a key of
# None replaces the whole section, which must then be named as not a JSON object
WRONG_TYPES = [("model", "name", 1), ("model", "preset", ["a"]), ("model", None, "x"),
               ("train", "epochs", "3"), ("model", "k_vpsa", "8"),
               ("data", "num_points", "64"), ("train", "scale_range", 5),
               ("model", "strides", 4), ("model", "strides", [2, "2"]),
               ("model", "radii", ["a", 0.5]), ("model", "sa_per_stage", [1.5, 1]),
               ("model", "vpsa_per_stage", [True, 1]), ("train", "scale_range", [0.8, "1.2"]),
               ("train", None, "x"), ("ablate", "seeds", 3), ("ablate", "epochs", "2"),
               ("ablate", "vector_dims", [3, "2"])]
# values out of range
OUT_OF_RANGE = [("train", "weight_decay", -1), ("train", "scale_range", [-1, -0.5]),
                ("train", "jitter_sigma", -0.1), ("train", "jitter_clip", -1),
                ("train", "shift_max", -1), ("model", "k_sa", 0), ("model", "k_vpsa", 0),
                ("model", "sa_layers", 0), ("model", "strides", [2, -2]),
                ("model", "radii", [-1, 0.5]), ("model", "sa_per_stage", [-1, 1]),
                ("ablate", "seeds", [])]
# later cases go after the three lists above, so that the generated ids of
# their list values (value<position>) stay as they were
MORE_DATASET_SETTINGS = [("data", "kinds", ["cube"]), ("data", "kinds", []),
                         ("data", "noise_sigma", -1), ("data", "manifest", "no/manifest.txt"),
                         ("data", "seed", -1), ("data", "task", "segmentation")]
MORE_OUT_OF_RANGE = [("train", "label_smoothing", 1.0), ("train", "epochs", 0),
                     ("train", "batch_size", 0), ("train", "rotate_mode", "spin"),
                     ("train", "seed", -1), ("model", "task", "detection"),
                     ("model", "vector_dim", 4), ("model", "encoder", "bogus"),
                     ("model", "aggregation", "bogus"), ("model", "strides", [2]),
                     ("model", "radii", [0.3]), ("model", "vpsa_per_stage", [1, 0]),
                     ("ablate", "epochs", 0)]
# a repeated kind is a class no point carries; 4 points are fewer than the
# base model's strides and neighborhoods need
DATA_THE_MODEL_CANNOT_USE = [("data", "kinds", ["plane", "plane"]), ("data", "num_points", 4)]
# JSON configs may spell NaN and Infinity
NONFINITE = [("model", "radii", [float("nan"), 0.5]), ("model", "radii", [float("inf"), 0.5])]


def _bad_setting_config(tmp_path, section, key, value):
    # stage 1 of the base model holds VPSA blocks only, so vpsa_per_stage alone
    # can leave it empty
    doc = {"model": {"preset": "toy-seg", "sa_per_stage": [1, 0]},
           "data": {"num_scenes": 4, "num_points": 64},
           "train": {"epochs": 1, "batch_size": 2}}
    if key is None:
        doc[section] = value
    else:
        doc.setdefault(section, {})[key] = value
    return _write_config(tmp_path, doc)


@pytest.mark.parametrize("section,key,value", DATASET_SETTINGS + OUT_OF_RANGE + WRONG_TYPES
                         + MORE_DATASET_SETTINGS + MORE_OUT_OF_RANGE
                         + DATA_THE_MODEL_CANNOT_USE + NONFINITE)
def test_bad_data_or_train_setting_names_the_field(tmp_path, capsys, section, key, value):
    config = _bad_setting_config(tmp_path, section, key, value)
    run = tmp_path / "run"
    command = "ablate" if section == "ablate" else "train"
    assert main([command, str(config), "--run-dir", str(run), "--quiet"]) == 2
    err = capsys.readouterr().err
    # named and rejected before the run directory is made
    assert (f"{section}.{key}" if key else f"{section} must be a JSON object") in err
    assert not run.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("data,batch_size,field", [
    ({"num_scenes": 6}, 1, "train.batch_size"),
    ({"num_scenes": 3, "val_fraction": 0.5}, 4, "data.num_scenes")],
    ids=["batch_of_one", "train_split_of_one"])
def test_classification_train_batch_of_one_is_rejected(tmp_path, capsys, command, data,
                                                       batch_size, field):
    """A classification model normalizes over the clouds of a batch, so a
    batch size of one, or a train split of one cloud, cannot train it."""
    config = _write_config(tmp_path, {"model": {"preset": "toy-cls"},
                                      "data": dict(data, num_points=64),
                                      "train": {"epochs": 1, "batch_size": batch_size}})
    run = tmp_path / "run"
    assert main([command, str(config), "--run-dir", str(run), "--quiet"]) == 2
    assert field in capsys.readouterr().err
    assert not run.exists()


# one scene is a dataset that gen-data writes, but leaves nothing to train on
NO_TRAIN_SPLIT = ("data", "num_scenes", 1)


@pytest.mark.parametrize("command,section,key,value", [
    (command, *setting) for command in ("ablate", "gen-data")
    for setting in DATASET_SETTINGS + MORE_DATASET_SETTINGS
    if command == "ablate" or setting != NO_TRAIN_SPLIT])
def test_bad_data_setting_leaves_no_output(tmp_path, capsys, command, section, key, value):
    config = _bad_setting_config(tmp_path, section, key, value)
    out = tmp_path / "out"
    flag = "--out" if command == "gen-data" else "--run-dir"
    assert main([command, str(config), flag, str(out), "--quiet"]) == 2
    assert f"data.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", [{"preset": "toy-seg", "num_classes": 3},
                                   {"num_classes": 3}])
def test_model_num_classes_points_to_data_kinds(tmp_path, capsys, model):
    config = _write_config(tmp_path, {"model": model, "train": {"epochs": 1}})
    assert main(["train", str(config), "--run-dir", str(tmp_path / "run"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "model.num_classes" in err and "data.kinds" in err


@pytest.mark.parametrize("content", [b"\xff{}", DIRECTORY], ids=["not_utf8", "directory"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    _make(config, content)
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config file {config}")):
        cli.load_config(config)
    run = tmp_path / "run"
    assert main(["train", str(config), "--run-dir", str(run), "--quiet"]) == 2
    assert f"cannot read config file {config}" in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_output_path_that_is_a_file_is_a_config_error(tmp_path, capsys, command):
    config = _write_config(tmp_path, {"model": {"preset": "toy-seg"},
                                      "data": {"num_scenes": 4, "num_points": 64},
                                      "train": {"epochs": 1, "batch_size": 2}})
    out = tmp_path / "taken"
    out.write_text("a file")
    flag = "--run-dir" if command == "train" else "--out"
    assert main([command, str(config), flag, str(out), "--quiet"]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert out.read_text() == "a file"
