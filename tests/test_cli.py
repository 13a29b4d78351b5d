import dataclasses
import json

import numpy as np
import pytest

from pointvector import dataio, gradcheck, nnops
from pointvector import train as train_mod
from pointvector.cli import DataConfig, build_dataset, main, make_parser
from pointvector.geometry import PointSetBatch
from pointvector.model import Model, load_checkpoint, param_count, read_section

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
    want = build_dataset(read_section(DataConfig, data, "data"))
    got = dataio.load_dataset_from_manifest(out / "manifest.txt", "segmentation",
                                            want.num_classes)
    assert got.positions.dtype == want.positions.dtype == np.float64
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.labels, want.labels)
    for split in ("train", "val"):
        assert np.array_equal(got.split_indices(split), want.split_indices(split))


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
                                   {"aggregations": ["sum_fc", "mean"]}])
def test_ablate_validates_every_cell_before_any_runs(tmp_path, monkeypatch, sweep):
    calls = []
    monkeypatch.setattr(train_mod, "train_loop", lambda *a, **kw: calls.append(a))
    config = _write_config(tmp_path, {"model": {"preset": "toy-seg"},
                                      "data": {"num_scenes": 6, "num_points": 64},
                                      "train": {"epochs": 1}, "ablate": sweep})
    run = tmp_path / "run"
    assert main(["ablate", str(config), "--run-dir", str(run), "--quiet"]) == 2
    assert calls == []
    assert not (run / "ablate.csv").exists()


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


# settings rejected when the dataset is built
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


@pytest.mark.parametrize("section,key,value", DATASET_SETTINGS + OUT_OF_RANGE + WRONG_TYPES)
def test_bad_data_or_train_setting_names_the_field(tmp_path, capsys, section, key, value):
    doc = {"model": {"preset": "toy-seg"}, "data": {"num_scenes": 4, "num_points": 64},
           "train": {"epochs": 1, "batch_size": 2}}
    if key is None:
        doc[section] = value
    else:
        doc.setdefault(section, {})[key] = value
    config = _write_config(tmp_path, doc)
    run = tmp_path / "run"
    command = "ablate" if section == "ablate" else "train"
    assert main([command, str(config), "--run-dir", str(run), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert (key or section) in err
    if (section, key, value) not in DATASET_SETTINGS:
        # named and rejected before the run directory is made
        assert (f"{section}.{key}" if key else f"{section} must be a JSON object") in err
        assert not run.exists()


@pytest.mark.parametrize("model", [{"preset": "toy-seg", "num_classes": 3},
                                   {"num_classes": 3}])
def test_model_num_classes_points_to_data_kinds(tmp_path, capsys, model):
    config = _write_config(tmp_path, {"model": model, "train": {"epochs": 1}})
    assert main(["train", str(config), "--run-dir", str(tmp_path / "run"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "model.num_classes" in err and "data.kinds" in err


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
