"""Unit tests for the CLI."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table1_target(self):
        args = build_parser().parse_args(["table1"])
        assert args.target == "table1"

    def test_figure_targets(self):
        for i in range(2, 10):
            args = build_parser().parse_args([f"figure{i}"])
            assert args.target == f"figure{i}"

    def test_invalid_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_scale_flag(self):
        args = build_parser().parse_args(["figure2", "--scale", "full"])
        assert args.scale == "full"

    def test_invalid_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure2", "--scale", "giant"])

    def test_seed_flag(self):
        assert build_parser().parse_args(["figure2", "--seed", "7"]).seed == 7


class TestMain:
    def test_table1_prints_grid(self):
        out = io.StringIO()
        assert main(["table1"], out=out) == 0
        text = out.getvalue()
        assert "Table 1" in text
        assert "8192" in text
        assert "gamma" in text

    def test_table1_lists_all_parameters(self):
        out = io.StringIO()
        main(["table1"], out=out)
        for key in ("gamma", "rank_ratio", "n", "m", "s_ratio", "epsilon"):
            assert key in out.getvalue()

    def test_chart_flag_parsed(self):
        args = build_parser().parse_args(["figure2", "--chart"])
        assert args.chart is True

    def test_decompose_end_to_end(self, tmp_path):
        import numpy as np

        from repro.io.serialization import load_decomposition
        from repro.workloads import wrelated

        workload_path = tmp_path / "w.npy"
        out_path = tmp_path / "dec.npz"
        np.save(workload_path, wrelated(6, 16, s=2, seed=0).matrix)
        out = io.StringIO()
        code = main(
            ["decompose", "--workload", str(workload_path), "--out", str(out_path)],
            out=out,
        )
        assert code == 0
        assert "sensitivity Delta(L)" in out.getvalue()
        restored = load_decomposition(out_path)
        assert restored.b.shape[0] == 6

    def test_decompose_requires_workload(self):
        out = io.StringIO()
        assert main(["decompose"], out=out) == 2


class TestPlanTarget:
    @staticmethod
    def _workload_file(tmp_path):
        import numpy as np

        from repro.workloads import wrelated

        path = tmp_path / "w.npy"
        np.save(path, wrelated(6, 16, s=2, seed=0).matrix)
        return str(path)

    def test_plan_requires_workload(self):
        out = io.StringIO()
        assert main(["plan"], out=out) == 2

    def test_plan_without_delta_stays_pure(self, tmp_path):
        out = io.StringIO()
        assert main(["plan", "--workload", self._workload_file(tmp_path)], out=out) == 0
        text = out.getvalue()
        assert "pure eps-DP" in text
        assert "GLM" not in text  # no Gaussian candidates without --delta

    def test_plan_with_positive_delta_adds_gaussian_candidates(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["plan", "--workload", self._workload_file(tmp_path), "--delta", "1e-6"],
            out=out,
        )
        assert code == 0
        assert "GLM" in out.getvalue()

    def test_explicit_delta_zero_is_not_treated_as_unset(self, tmp_path):
        # Regression: `--delta 0.0` used to fall through the truthiness
        # check, silently leaving Gaussian candidates at their default
        # delta. It must reach them as an explicit (invalid) value: the
        # candidates are attempted and fail construction with a clear
        # message, rather than planning at a delta the caller never chose.
        out = io.StringIO()
        code = main(
            ["plan", "--workload", self._workload_file(tmp_path), "--delta", "0.0"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "GLM" in text  # Gaussian candidates were attempted...
        assert "failed" in text  # ...and rejected delta=0, visibly
        assert "delta" in text

    def test_budget_delta_without_budget_epsilon_is_a_usage_error(self, tmp_path):
        # The pairing is checked before any candidate fitting: usage-error
        # exit code 2, no traceback, no wasted fits.
        out = io.StringIO()
        code = main(
            ["plan", "--workload", self._workload_file(tmp_path),
             "--budget-delta", "1e-6"],
            out=out,
        )
        assert code == 2
        assert "--budget-epsilon" in out.getvalue()

    def test_budget_flags_add_capacity_line(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "plan", "--workload", self._workload_file(tmp_path),
                "--epsilon", "0.05", "--budget-epsilon", "1.0",
                "--budget-delta", "1e-6",
            ],
            out=out,
        )
        assert code == 0
        assert "releases/budget" in out.getvalue()
        assert "rdp x" in out.getvalue()


class TestServeTarget:
    def test_serve_requires_its_flags(self):
        out = io.StringIO()
        code = main(["serve"], out=out)
        assert code == 2
        message = out.getvalue()
        for flag in ("--plans", "--ledger-root", "--data", "--budget"):
            assert flag in message

    def test_serve_missing_flags_reported_individually(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["serve", "--plans", str(tmp_path), "--data", str(tmp_path / "x.npy")],
            out=out,
        )
        assert code == 2
        message = out.getvalue()
        assert "--ledger-root" in message and "--budget" in message
        assert "--plans" not in message

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--plans", "p", "--ledger-root", "l", "--data", "d.npy",
             "--budget", "2.0", "--workers", "4", "--port", "0",
             "--max-batch", "16", "--accountant", "rdp"]
        )
        assert args.budget == 2.0 and args.workers == 4
        assert args.max_batch == 16
        assert args.accountant == "rdp"
        # serve must not inherit the experiments' deterministic default seed
        assert args.seed is None
