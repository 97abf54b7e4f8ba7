import math

import numpy as np
import pytest

from ybc import cli, strategies
from ybc.braid_ybe import GateParams
from ybc.strategies import (
    ONE_QUBIT,
    StrategySpec,
    batched_grid,
    closed_form_l1,
    simulated_l1,
)


def reference_sweep_csv(kind, xs, thetas, phis, ns) -> str:
    """A sweep CSV rendered point by point: scalar closed form, _fmt per field."""
    planes = {(phi, n): batched_grid(kind, xs, thetas, phi, n) for phi in phis for n in ns}
    rows = [cli.SWEEP_HEADER]
    for ix, x in enumerate(xs):
        for it, theta in enumerate(thetas):
            for phi in phis:
                for n in ns:
                    c_l1, c_r = (float(a[ix, it]) for a in planes[(phi, n)])
                    closed = closed_form_l1(
                        StrategySpec(kind, float(x), n, GateParams(float(theta), phi))
                    )
                    angles = ",".join(cli._fmt(v) for v in (float(x), float(theta), phi))
                    values = (c_l1, c_r, closed, abs(c_l1 - closed))
                    rows.append(
                        f"{kind},{angles},{n}," + ",".join(cli._fmt(v) for v in values)
                    )
    return "\n".join(rows) + "\n"


def failing_after_first_chunk(rows):
    """Wrap a row generator so that it fails after yielding one chunk."""

    def wrapped(*args, **kwargs):
        chunks = rows(*args, **kwargs)
        yield next(chunks)
        raise OSError(28, "No space left on device")

    return wrapped


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "11/11 checks passed" in out

    def test_unreachable_tolerance_fails(self, capsys):
        assert cli.main(["verify", "--tolerance", "1e-16"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out

    def test_only_filter(self, capsys):
        assert cli.main(["verify", "--only", "braid"]) == 0
        out = capsys.readouterr().out
        assert "braid" in out
        assert "dcnot" not in out

    def test_unknown_filter_is_usage_error(self, capsys):
        assert cli.main(["verify", "--only", "nonsense"]) == 2
        assert "no check matches" in capsys.readouterr().err

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("YBC_TOLERANCE", "1e-16")
        assert cli.main(["verify", "--only", "s-unitary"]) == 1

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("YBC_TOLERANCE", "1e-16")
        assert cli.main(["verify", "--only", "s-unitary", "--tolerance", "1e-10"]) == 0

    def test_invalid_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("YBC_TOLERANCE", "not-a-number")
        assert cli.main(["verify"]) == 2

    def test_dcnot_check_reports_minimizing_phi(self, capsys):
        assert cli.main(["verify", "--only", "dcnot"]) == 0
        out = capsys.readouterr().out
        assert "min at phi=" in out and "phase-aligned" in out


class TestSweep:
    def test_single_point_identity_channel(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        code = cli.main([
            "sweep", "--strategy", "one", "--x", "0.5:0.5:1",
            "--theta", "0.5:0.5:1", "--phi", "0.25", "--n", "1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "one"
        assert float(fields[1]) == 0.5
        # 12 significant digits of pi/2
        assert abs(float(fields[2]) - math.pi / 2) <= 1e-11
        assert int(fields[4]) == 1
        assert abs(float(fields[5]) - 1.0) <= 1e-10  # c_l1_sim at the fixed point

    def test_rows_in_grid_order(self, tmp_path):
        for kind in ("one", "two"):
            out = tmp_path / f"grid_{kind}.csv"
            assert cli.main([
                "sweep", "--strategy", kind, "--x", "0:1:3", "--theta", "0:1:5",
                "--phi", "0,0.25", "--n", "1,2,3", "--out", str(out),
            ]) == 0
            text = out.read_text()
            lines = text.splitlines()[1:]
            assert len(lines) == 3 * 5 * 2 * 3
            # x outer, then theta, then phi, then N
            xs = [float(line.split(",")[1]) for line in lines]
            assert xs == sorted(xs)
            first_block = [line.split(",") for line in lines[:6]]
            assert [row[4] for row in first_block] == ["1", "2", "3", "1", "2", "3"]
            assert float(first_block[0][3]) == 0.0
            assert abs(float(first_block[3][3]) - math.pi / 4) <= 1e-12
            # The streamed plane-wise rows equal a point-by-point rendering.
            assert text == reference_sweep_csv(
                kind, np.linspace(0.0, 1.0, 3), np.linspace(0.0, math.pi, 5),
                [0.0, 0.25 * math.pi], [1, 2, 3],
            )

    def test_values_reparse_to_computed_doubles(self, tmp_path):
        out = tmp_path / "re.csv"
        assert cli.main([
            "sweep", "--strategy", "one", "--x", "0:1:3", "--theta", "0:0.9:4",
            "--phi", "0.13", "--n", "2", "--out", str(out),
        ]) == 0
        for line in out.read_text().splitlines()[1:]:
            f = line.split(",")
            x, theta, phi, n = float(f[1]), float(f[2]), float(f[3]), int(f[4])
            value = simulated_l1(StrategySpec(ONE_QUBIT, x, n, GateParams(theta, phi)))
            written = float(f[5])
            # 12 printed digits plus the angle quantization feeding back in
            assert abs(written - value) <= 5e-11 * max(1.0, abs(value))

    def test_missing_options(self, capsys):
        assert cli.main(["sweep", "--strategy", "one"]) == 2
        assert "missing required" in capsys.readouterr().err

    def test_invalid_grid(self, capsys, tmp_path):
        code = cli.main([
            "sweep", "--strategy", "one", "--x", "0:1:0", "--theta", "0:1:2",
            "--phi", "0", "--n", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "point count" in capsys.readouterr().err

    def test_x_outside_unit_interval(self, capsys, tmp_path):
        code = cli.main([
            "sweep", "--strategy", "one", "--x", "0:2:3", "--theta", "0:1:2",
            "--phi", "0", "--n", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_unwritable_output(self, capsys, tmp_path):
        code = cli.main([
            "sweep", "--strategy", "one", "--x", "0:1:2", "--theta", "0:1:2",
            "--phi", "0", "--n", "1", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("existing", [False, True])
    def test_failure_mid_stream_leaves_destination(
        self, tmp_path, capsys, monkeypatch, existing
    ):
        monkeypatch.setattr(cli, "_csv_rows", failing_after_first_chunk(cli._csv_rows))
        out = tmp_path / "grid.csv"
        if existing:
            out.write_text("previous contents\n")
        code = cli.main([
            "sweep", "--strategy", "two", "--x", "0:1:3", "--theta", "0:1:5",
            "--phi", "0", "--n", "1", "--out", str(out),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
        if existing:
            assert out.read_text() == "previous contents\n"
        else:
            assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (["grid.csv"] if existing else [])

    def test_success_replaces_existing_file(self, tmp_path):
        out = tmp_path / "grid.csv"
        out.write_text("previous contents\n")
        assert cli.main([
            "sweep", "--strategy", "one", "--x", "0:1:2", "--theta", "0:1:2",
            "--phi", "0", "--n", "1", "--out", str(out),
        ]) == 0
        assert out.read_text().startswith(cli.SWEEP_HEADER + "\n")
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]

    def test_config_file_provides_defaults(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "strategy=one\nx=0.5:0.5:1\ntheta=0.5:0.5:1\nphi=0.25\nn=1\n"
            f"out={tmp_path / 'from_config.csv'}\n"
        )
        assert cli.main(["sweep", "--config", str(config)]) == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        override = tmp_path / "flag_wins.csv"
        config.write_text(
            "strategy=one\nx=0.5:0.5:1\ntheta=0.5:0.5:1\nphi=0.25\nn=1\n"
            f"out={tmp_path / 'config.csv'}\n"
        )
        assert cli.main(["sweep", "--config", str(config), "--out", str(override)]) == 0
        assert override.exists()
        assert not (tmp_path / "config.csv").exists()

    def test_bad_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus=1\n")
        assert cli.main(["sweep", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err


class TestFigure:
    def test_unknown_id(self, capsys, tmp_path):
        assert cli.main(["figure", "9z", "--out", str(tmp_path / "f.csv")]) == 2
        err = capsys.readouterr().err
        assert "2a" in err and "4b" in err

    def test_missing_out(self, capsys):
        assert cli.main(["figure", "2a"]) == 2

    def test_figure_2a_header_and_size(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        assert cli.main(["figure", "2a", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        assert len(lines) == 1 + 101 * 256
        first = lines[1].split(",")
        assert first[0] == "one" and first[4] == "1"
        assert abs(float(first[3]) - math.pi / 4) <= 1e-12


    def test_failure_mid_stream_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_csv_rows", failing_after_first_chunk(cli._csv_rows))
        assert cli.main(["figure", "4a", "--out", str(tmp_path / "f.csv")]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCompare:
    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code = cli.main([
            "compare", "--strategy", "two", "--x", "0:1:2", "--theta", "0:1:2",
            "--phi", "0.25", "--n", "1", "--out", str(tmp_path / "cmp.csv"),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_small_grid_completes(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = cli.main([
            "compare", "--strategy", "two", "--x", "0:1:3", "--theta", "0:1:5",
            "--phi", "0.25", "--n", "1,2", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "formula deviation summary" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == cli.COMPARE_HEADER
        assert len(lines) == 1 + 3 * 5 * 2

    def test_formula_filter_blanks_other_columns(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert cli.main([
            "compare", "--strategy", "one", "--x", "0.5:0.5:1",
            "--theta", "0.3:0.3:1", "--phi", "0", "--n", "1",
            "--formula", "elements", "--out", str(out),
        ]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[6] == "nan" and row[8] == "nan"  # closed-form columns
        assert row[7] != "nan" and row[9] != "nan"  # element columns

    def test_bad_formula(self, capsys, tmp_path):
        assert cli.main([
            "compare", "--formula", "wild", "--out", str(tmp_path / "c.csv"),
        ]) == 2

    def test_identity_slice_deviations(self, tmp_path):
        out = tmp_path / "slice.csv"
        assert cli.main([
            "compare", "--strategy", "two", "--x", "0:1:5",
            "--theta", "0.5:0.5:1", "--phi", "0,0.25", "--n", "1,2,3,4",
            "--out", str(out),
        ]) == 0
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[8]) <= 1e-10  # two-qubit closed form on the slice


    def test_negative_zero_phi_keeps_its_sign(self, tmp_path):
        # phi = 0 and phi = -0 share one evaluation group; each row still
        # prints its own phi.
        out = tmp_path / "cmp.csv"
        assert cli.main([
            "compare", "--strategy", "all", "--x", "0:1:2", "--theta", "0:1:3",
            "--phi", "0,-0", "--n", "1,2", "--out", str(out),
        ]) == 0
        phis = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
        assert phis == ["0", "0", "-0", "-0"] * (2 * 2 * 3)

    @pytest.mark.parametrize(
        "command, prefix",
        [("compare", "compare: "), ("sweep", "sweep: "), ("figure", "figure: ")],
    )
    def test_kernel_check_failure_exits_two(
        self, command, prefix, tmp_path, capsys, monkeypatch
    ):
        original = strategies._channel_unitary
        monkeypatch.setattr(strategies, "_channel_unitary", lambda *a: 1.01 * original(*a))
        grid = [
            "--strategy", "two", "--x", "0:1:3", "--theta", "0:1:3", "--phi", "0.25", "--n", "1"
        ]
        args = ["4a"] if command == "figure" else grid
        code = cli.main([command, *args, "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "trace" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_builds_no_spec_per_point(self, tmp_path, monkeypatch):
        # compare evaluates its grid plane by plane: no StrategySpec at all,
        # and one GateParams per channel unitary built, not one per point.
        built = {"StrategySpec": 0, "GateParams": 0}
        for cls in (strategies.StrategySpec, GateParams):
            def counting(self, _post_init=cls.__post_init__, _name=cls.__name__):
                built[_name] += 1
                _post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        strategies._channel_unitary.cache_clear()
        assert cli.main([
            "compare", "--x", "0:1:5", "--theta", "0:1:4", "--phi", "0,0.25", "--n", "1,2",
            "--out", str(tmp_path / "cmp.csv"),
        ]) == 0
        assert built["StrategySpec"] == 0
        misses = strategies._channel_unitary.cache_info().misses
        assert built["GateParams"] == misses == 2 * 4 * 2 * 2  # kinds, thetas, phis, N


class TestCrossCommand:
    def test_sweep_and_compare_print_the_same_values(self, tmp_path):
        grid = ["--x", "0:1:5", "--theta", "0:2:9", "--phi", "0,0.25", "--n", "1,2"]
        for kind in ("one", "two"):
            sweep_csv, compare_csv = tmp_path / f"s_{kind}.csv", tmp_path / f"c_{kind}.csv"
            assert cli.main(["sweep", "--strategy", kind, *grid, "--out", str(sweep_csv)]) == 0
            assert cli.main(["compare", "--strategy", kind, *grid, "--out", str(compare_csv)]) == 0
            sweep = [line.split(",") for line in sweep_csv.read_text().splitlines()[1:]]
            compare = [line.split(",") for line in compare_csv.read_text().splitlines()[1:]]
            assert len(sweep) == len(compare) == 5 * 9 * 2 * 2
            # strategy,x,theta,phi,N,c_l1_sim, then c_l1_closed
            assert [row[:6] for row in sweep] == [row[:6] for row in compare]
            assert [row[7] for row in sweep] == [row[6] for row in compare]


class TestRowCap:
    # The cap must admit the largest benchmark grid, 101 x 256 x 3 phi x 4 N.
    def test_cap_admits_the_largest_benchmark_grid(self):
        assert cli.MAX_ROWS >= 101 * 256 * 3 * 4

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize(
        "axes",
        [
            # 10^8 rows from two axes of 10^4 points each (160 KB).
            ["--x", "0:1:10000", "--theta", "0:2:10000"],
            # 10^12 x values: np.linspace would refuse the 8 TB array with
            # MemoryError, so only a count taken before it gives exit 2.
            ["--x", "0:1:1000000000000", "--theta", "0:2:3"],
        ],
    )
    def test_oversized_grid_exits_two_before_evaluating(
        self, command, axes, tmp_path, capsys, monkeypatch
    ):
        reached = []
        monkeypatch.setattr(cli, "_sweep_values", lambda *a: reached.append(a))
        monkeypatch.setattr(strategies, "discrepancy_report", lambda *a: reached.append(a))
        out = tmp_path / "big.csv"
        argv = [command, "--strategy", "one", *axes, "--phi", "0", "--n", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert reached == [] and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(cli.MAX_ROWS) in err[0]

    def test_count_includes_every_axis_and_kind(self):
        xs = (0.0, 1.0, cli.MAX_ROWS // 2)
        assert len(cli._grid(1, xs, [0.0], [1])[0]) == cli.MAX_ROWS // 2
        with pytest.raises(ValueError, match="rows"):
            cli._grid(2, xs, [0.0], [1, 2])
        with pytest.raises(ValueError, match="rows"):
            cli._grid(3, xs, [0.0], [1])


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_bad_tolerance_value(self, capsys):
        assert cli.main(["verify", "--tolerance", "-3"]) == 2
