import json

import pytest

from pointvector.cli import main, make_parser

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
