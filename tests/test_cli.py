import pytest

from pointvector.cli import make_parser

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
