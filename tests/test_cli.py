import json

import numpy as np
import pytest

from pointvector import dataio
from pointvector.cli import DataConfig, build_dataset, main, make_parser
from pointvector.geometry import PointSetBatch

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
    want = build_dataset(DataConfig.from_dict(data))
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
