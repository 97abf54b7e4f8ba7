import collections
import errno
import importlib.util
import math
import os
import stat
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from ybc import braid_ybe, cli, gates, linalg, strategies
from ybc.braid_ybe import (
    build_eight_vertex_b,
    build_hamiltonian,
    build_r,
    build_s,
    check_braid_relation,
    check_far_commutation,
    check_ybe_additive,
    check_ybe_multiplicative,
    yang_baxterize_eight_vertex,
)
from ybc.linalg import identity, max_abs_diff
from ybc.strategies import ONE_QUBIT, closed_form_coherence

from reference import batched_grid, mpmath_reference


def reference_sweep_csv(kind, xs, thetas, phis, ns) -> str:
    """A sweep CSV rendered point by point: one-point closed form, _fmt per field."""
    planes = {(phi, n): batched_grid(kind, xs, thetas, phi, n) for phi in phis for n in ns}
    rows = [cli.SWEEP_HEADER]
    for ix, x in enumerate(xs):
        for it, theta in enumerate(thetas):
            for phi in phis:
                for n in ns:
                    c_l1, c_r = (float(a[ix, it]) for a in planes[(phi, n)])
                    closed = float(closed_form_coherence(kind, float(x), float(theta), phi, n))
                    angles = ",".join(cli._fmt(v) for v in (float(x), float(theta), phi))
                    values = (c_l1, c_r, closed, abs(c_l1 - closed))
                    rows.append(
                        f"{kind},{angles},{n}," + ",".join(cli._fmt(v) for v in values)
                    )
    return "\n".join(rows) + "\n"


def _per_point_ybe_multiplicative():
    spectral = (0.25, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for sign in (+1, -1):
        for q in (1.0, np.exp(-1j * np.pi / 4.0), np.exp(-1j * np.pi / 3.0)):
            for normalized in (False, True):

                def family(t, s=sign, qq=q, nn=normalized):
                    return yang_baxterize_eight_vertex(s, qq, t, nn)

                for x in spectral:
                    for y in spectral:
                        residual = check_ybe_multiplicative(family, x, y)
                        worst = max(worst, residual)
    return worst


def _per_point_eight_vertex_unitary():
    worst = 0.0
    for sign in (+1, -1):
        for phi in cli._phi_grid(8):
            q = np.exp(-1j * phi)
            b = build_eight_vertex_b(sign, q, normalized=True)
            worst = max(worst, max_abs_diff(b @ b.conj().T, identity(4)))
            for x in (-3.0, -0.5, 0.0, 0.7, 2.0):
                r = yang_baxterize_eight_vertex(sign, q, x, normalized=True)
                worst = max(worst, max_abs_diff(r @ r.conj().T, identity(4)))
    return worst


def _per_point_dcnot():
    g = np.array([gates.local_invariants(build_s(p)) for p in cli._phi_grid()])
    invariants = max(np.abs(g[:, 0]).max(), np.abs(g[:, 1] + 1.0).max())
    return max(invariants, gates.equivalence_residuals(0.0))


# The worst residual of the per-point public calls that each stacked verify
# check replaces, one point at a time.
PER_POINT_WORST = {
    "s-unitary": lambda: max(
        max_abs_diff(build_s(p).conj().T @ build_s(p), identity(4)) for p in cli._phi_grid()
    ),
    "s-involution": lambda: max(
        max_abs_diff(build_s(p) @ build_s(p), identity(4)) for p in cli._phi_grid()
    ),
    "s-hermitian": lambda: max(
        max_abs_diff(build_s(p), build_s(p).conj().T) for p in cli._phi_grid()
    ),
    "braid": lambda: max(check_braid_relation(build_s(p)) for p in cli._phi_grid()),
    "far-commute": lambda: max(check_far_commutation(build_s(p)) for p in cli._phi_grid(8)),
    "ybe-additive": lambda: max(
        check_ybe_additive(phi, mu, nu)
        for phi in (0.0, math.pi / 4.0, 1.1)
        for mu in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
        for nu in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    ),
    "ybe-multiplicative": _per_point_ybe_multiplicative,
    "eight-vertex-unitary": _per_point_eight_vertex_unitary,
    "dcnot": _per_point_dcnot,
    "hamiltonian": lambda: max(
        max_abs_diff(
            build_hamiltonian(theta, phi, gamma=gamma, hbar=1.0, step=1e-4),
            gamma * build_s(phi),
        )
        for gamma in (0.5, 1.0, 2.0)
        for theta in (0.3, 1.0, 2.2)
        for phi in (0.0, math.pi / 4.0)
    ),
}


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

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_env_tolerance_must_be_positive_and_finite(self, value, capsys, monkeypatch):
        monkeypatch.setenv("YBC_TOLERANCE", value)
        assert cli.main(["verify"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid YBC_TOLERANCE value: {value!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_tolerance_flag_must_be_positive_and_finite(self, value, capsys, monkeypatch):
        # The flag is checked before, and instead of, YBC_TOLERANCE.
        monkeypatch.setenv("YBC_TOLERANCE", "1e-10")
        assert cli.main(["verify", "--tolerance", value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"--tolerance must be a positive real, got {float(value)!r}\n"
        assert captured.out == ""

    def test_dcnot_check_reports_both_residuals(self, capsys):
        assert cli.main(["verify", "--only", "dcnot"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        g1, g2 = gates.local_invariants(build_s(cli._phi_grid()))
        invariants = max(np.abs(g1).max(), np.abs(g2 + 1.0).max())
        factors = gates.equivalence_residuals(0.0)
        assert f" residual={max(invariants, factors):.3e} " in line
        assert line.endswith(
            f"invariants (G1, G2) = (0, -1) over 32 phases to {invariants:.3e}, "
            f"explicit factors at phi=0 to {factors:.3e}"
        )


    def test_r_unitarity_is_the_scalar_gates_worst_residual(self):
        worst = 0.0
        for theta in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
            for phi in cli._phi_grid():
                gate = build_r(float(theta), float(phi))
                worst = max(worst, max_abs_diff(gate @ gate.conj().T, identity(4)))
        assert cli._check_r_unitary()[0] == worst

    @pytest.mark.parametrize("key", PER_POINT_WORST)
    def test_stacked_check_is_the_per_point_worst_residual(self, key):
        check = {k: fn for k, fn, _ in cli.VERIFY_CHECKS}[key]
        assert check()[0] == PER_POINT_WORST[key]()

    def test_calls_inv_and_kron_a_bounded_number_of_times(self, capsys, monkeypatch):
        # Each check evaluates its grid as one stack; one call per point
        # took 530 inv and 2,612 kron calls.  The eight-vertex family takes
        # no inverse at all: b^{-1} = I - b/2.  The braid and YBE checks
        # place their gates on the block diagonal, so the only products
        # left are the two local factors of gates.equivalence_residuals.
        calls = collections.Counter()

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name, sys._getframe(1).f_code.co_name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        monkeypatch.setattr(np, "kron", counted("kron", np.kron))
        for module in (braid_ybe, cli, gates, linalg, strategies):
            if hasattr(module, "kron"):
                monkeypatch.setattr(module, "kron", counted("kron", module.kron))
        assert cli.main(["verify"]) == 0
        assert calls == {("kron", "equivalence_residuals"): 2}, calls


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
        # The three-phi two-qubit grid repeats most values: its coherence
        # does not depend on phi.
        for kind, phis in (("one", [0.0, 0.25]), ("two", [0.0, 0.25]), ("two", [0.0, 0.25, 0.5])):
            out = tmp_path / f"grid_{kind}_{len(phis)}.csv"
            assert cli.main([
                "sweep", "--strategy", kind, "--x", "0:1:3", "--theta", "0:1:5",
                "--phi", ",".join(map(str, phis)), "--n", "1,2,3", "--out", str(out),
            ]) == 0
            text = out.read_text()
            lines = text.splitlines()[1:]
            assert len(lines) == 3 * 5 * len(phis) * 3
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
                [phi * math.pi for phi in phis], [1, 2, 3],
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
            value, _, _, _ = mpmath_reference(ONE_QUBIT, x, theta, phi, n)
            written = float(f[5])
            # 12 printed digits plus the angle quantization feeding back in
            assert abs(written - value) <= 5e-11 * max(1.0, abs(value))

    def test_large_n_passes_the_kernel_checks(self, tmp_path, capsys):
        # N = 10^6 + 1 uses of the gate: R^N comes from cos and sin of
        # N (pi/2 - theta), so the trace stays within 1e-10 of 1.
        out = tmp_path / "large_n.csv"
        assert cli.main([
            "sweep", "--strategy", "two", "--x", "0:1:101", "--theta", "0:2:256",
            "--phi", "0.25", "--n", "1000001", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 1 + 101 * 256

    def test_missing_options(self, capsys):
        assert cli.main(["sweep", "--strategy", "one"]) == 2
        assert capsys.readouterr().err == (
            "sweep: missing required options: x, theta, phi, n, out\n"
        )
        # "options" follows what sweep requires, not how many are missing.
        argv = ["--strategy", "one", "--x", "0:1:2", "--theta", "0:1:2", "--phi", "0", "--n", "1"]
        assert cli.main(["sweep", *argv]) == 2
        assert capsys.readouterr().err == "sweep: missing required options: out\n"

    def test_invalid_grid(self, capsys, tmp_path):
        code = cli.main([
            "sweep", "--strategy", "one", "--x", "0:1:0", "--theta", "0:1:2",
            "--phi", "0", "--n", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "point count" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("theta", ["0:1e308:3", "-0.5e308:0.5e308:3", "0:inf:3"])
    def test_range_overflowing_once_scaled(self, command, theta, capsys, tmp_path):
        # 1e308 pi overflows, and so does the span of +-0.5e308 pi: both are
        # refused before np.linspace would warn and return NaN.
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                command, "--strategy", "one", "--x", "0:1:2", f"--theta={theta}",
                "--phi", "0", "--n", "1", "--out", str(out),
            ])
        assert code == 2 and caught == [] and not out.exists()
        assert capsys.readouterr().err == (
            "--theta: range bounds and their span must be finite\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--strategy", "two", "--theta", "0:1.5e307:2", "--n", "2"],
            ["sweep", "--strategy", "two", "--theta", "0:1e300:2", "--n", "1000000000"],
            ["compare", "--theta", "0:1e300:2", "--n", "1000000000"],
        ],
    )
    def test_overflowing_n_theta_exits_two(self, argv, capsys, tmp_path):
        # 2 N theta overflows a double, where the sines would turn into NaN:
        # refused with one line and no warning, and no file is left.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--x", "0:1:2", "--phi", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2 and caught == [] and list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "2 N theta must be finite" in err[0]

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("phi", "0,,0.5", "--phi: could not convert string to float: ''"),
            ("phi", "0,", "--phi: could not convert string to float: ''"),
            ("phi", ",", "--phi: could not convert string to float: ''"),
            ("n", "1,,2", "--n: invalid literal for int() with base 10: ''"),
            ("n", "1,", "--n: invalid literal for int() with base 10: ''"),
        ],
    )
    def test_empty_list_entry(self, command, flag, value, message, capsys, tmp_path):
        # An empty entry is an error, not an entry that is skipped.
        grid = {"strategy": "one", "x": "0:1:2", "theta": "0:1:3", "phi": "0", "n": "1"}
        argv = [arg for key, text in {**grid, flag: value}.items() for arg in (f"--{key}", text)]
        assert cli.main([command, *argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr() == ("", message + "\n")
        assert list(tmp_path.iterdir()) == []

    def test_x_outside_unit_interval(self, capsys, tmp_path):
        code = cli.main([
            "sweep", "--strategy", "one", "--x", "0:2:3", "--theta", "0:1:2",
            "--phi", "0", "--n", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2 and list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == "sweep: x values must lie in [0, 1]\n"

    def test_x_check_rejects_each_value_outside_the_unit_interval(self):
        # The x axes that the flags build, checked by the kernel's grid check.
        grid = {"x": f"0:1:{cli.MAX_ROWS}", "theta": "0:0:1", "phi": "0", "n": "1"}
        xs, thetas, phis, ns = cli._grid_axes(grid, 1)
        assert len(xs) == cli.MAX_ROWS
        strategies._check_points("one", xs, thetas, phis, ns)
        for x in ("-5e-324:1:3", f"0:1.0000000000000002:{cli.MAX_ROWS}"):
            axes = cli._grid_axes({**grid, "x": x}, 1)
            with pytest.raises(ValueError, match=r"^x values must lie in \[0, 1\]$"):
                strategies._check_points("one", *axes)
        # No flag text builds a NaN x, so the axis is made to hold one.
        with pytest.raises(ValueError, match=r"^x values must lie in \[0, 1\]$"):
            strategies._check_points("one", np.array([0.5, np.nan]), thetas, phis, ns)

    def test_unwritable_output(self, capsys, tmp_path):
        code = cli.main([
            "sweep", "--strategy", "one", "--x", "0:1:2", "--theta", "0:1:2",
            "--phi", "0", "--n", "1", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_write_error_names_the_output_not_the_temp_file(self, capsys, tmp_path):
        # The temp file's name holds the pid and random hex; the message
        # names the output and the OSError's strerror, the same every run.
        out = tmp_path / "missing" / "x.csv"
        argv = ["sweep", *grid_argv(), "--out", str(out)]
        errors = []
        for _ in range(2):
            assert cli.main(argv) == 2
            errors.append(capsys.readouterr().err)
        reason = os.strerror(errno.ENOENT)
        assert errors == 2 * [f"cannot write {str(out)!r}: FileNotFoundError: {reason}\n"]
        assert list(tmp_path.iterdir()) == []

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

    @staticmethod
    def assert_walk_exits_two(walk, command, message, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(strategies, "grid_blocks", walk)
        out = tmp_path / "grid.csv"
        out.write_text("previous contents\n")
        code = cli.main([
            command, "--strategy", "two", "--x", "0:1:3", "--theta", "0:1:5",
            "--phi", "0", "--n", "1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"{command}: the kernel walk yielded {message}\n"
        assert out.read_text() == "previous contents\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_short_kernel_walk_exits_two(self, command, tmp_path, capsys, monkeypatch):
        # A walk that yields one x row too few must not write a short CSV.
        walk = strategies.grid_blocks

        def one_row_short(*args):
            blocks = list(walk(*args))
            yield from blocks[:-1]
            yield blocks[-1][:-1]

        message = "fewer than the grid's 3 x rows"
        self.assert_walk_exits_two(one_row_short, command, message, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_long_kernel_walk_exits_two(self, command, tmp_path, capsys, monkeypatch):
        # Nor one that yields one x row too many: the rows it did write would
        # pass for the whole grid.
        walk = strategies.grid_blocks

        def one_row_long(*args):
            blocks = list(walk(*args))
            yield from blocks
            yield blocks[-1][-1:]

        message = "more than the grid's 3 x rows"
        self.assert_walk_exits_two(one_row_long, command, message, tmp_path, capsys, monkeypatch)

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
        # A key must name an option of the command: not an unknown name, the
        # parser's own fields, --config itself or a positional argument.
        out = tmp_path / "out.csv"
        sweep = f"strategy=one\nx=0.5:0.5:1\ntheta=0.5:0.5:1\nphi=0.25\nn=1\nout={out}\n"
        cases = [
            (["sweep"], "bogus=1\n", "bogus"),
            (["sweep"], sweep + "fn=bogus\n", "fn"),
            (["sweep"], sweep + "command=verify\n", "command"),
            (["sweep"], sweep + "config=/nonexistent\n", "config"),
            (["figure", "2a"], f"out={out}\nid=4b\n", "id"),
        ]
        config = tmp_path / "bad.cfg"
        for argv, text, key in cases:
            config.write_text(text)
            assert cli.main([*argv, "--config", str(config)]) == 2
            assert capsys.readouterr().err == f"config error: unknown config key {key!r}\n"
            assert not out.exists()


SWEEP_GRID = {"strategy": "one", "x": "0:1:2", "theta": "0:1:3", "phi": "0", "n": "1"}


def grid_argv(**changes) -> list[str]:
    """The flags of ``SWEEP_GRID`` with ``changes`` applied."""
    return [arg for key, text in {**SWEEP_GRID, **changes}.items() for arg in (f"--{key}", text)]


class TestGridInput:
    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("sweep", "x", "0:1", "--x expects A:B:N, got '0:1'"),
            ("sweep", "theta", "a:1:3", "--theta: could not convert string to float: 'a'"),
            ("sweep", "phi", "nan", "sweep: phi must be finite, got nan"),
            ("compare", "phi", "0,inf", "compare: phi must be finite, got inf"),
            ("sweep", "n", "0", "sweep: N must be a positive integer, got 0"),
            ("compare", "n", "2,-1", "compare: N must be a positive integer, got -1"),
            ("sweep", "strategy", "three", "--strategy must be one or two, got 'three'"),
            ("compare", "strategy", "three", "--strategy must be one, two or all, got 'three'"),
            # The walk meets this N after a good one.
            ("sweep", "n", "1,9007199254740993",
             "sweep: N must be at most 2**53, got 9007199254740993"),
        ],
        ids=[
            "x-shape", "theta-bound", "sweep-phi", "compare-phi", "sweep-n", "compare-n",
            "sweep-strategy", "compare-strategy", "n-past-2-to-the-53",
        ],
    )
    def test_bad_grid_option_exits_two(self, command, flag, value, message, capsys, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.main([command, *grid_argv(**{flag: value}), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", message + "\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("x", "0:2:3", "x values must lie in [0, 1]"),
            ("phi", "nan", "phi must be finite, got nan"),
            ("n", "2,0", "N must be a positive integer, got 0"),
        ],
        ids=["x", "phi", "n"],
    )
    def test_bad_grid_value_keeps_an_existing_output(
        self, command, flag, value, message, capsys, tmp_path
    ):
        # The kernel's walk refuses the value: one COMMAND line, and the
        # previous output and its directory are left as they were.
        out = tmp_path / "x.csv"
        out.write_text("previous contents\n")
        assert cli.main([command, *grid_argv(**{flag: value}), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"{command}: {message}\n")
        assert out.read_text() == "previous contents\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_config_skips_comments_and_blank_lines(self, capsys, tmp_path):
        out, config = tmp_path / "x.csv", tmp_path / "sweep.cfg"
        lines = [f"{key}={text}" for key, text in SWEEP_GRID.items()]
        config.write_text("# a comment\n\n" + "\n  \n".join(lines) + f"\n   # out\nout={out}\n")
        assert cli.main(["sweep", "--config", str(config)]) == 0
        assert capsys.readouterr() == (f"wrote 6 rows to {out}\n", "")
        assert len(out.read_text().splitlines()) == 1 + 6

    def test_config_line_without_equals_exits_two(self, capsys, tmp_path):
        out, config = tmp_path / "x.csv", tmp_path / "sweep.cfg"
        config.write_text(f"# grid\nstrategy=one\n\njunk\nout={out}\n")
        assert cli.main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr() == (
            "", f"config error: {config}:4: expected key=value, got 'junk'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["sweep", *grid_argv()], ["compare"], ["figure", "2a"]],
        ids=["sweep", "compare", "figure"],
    )
    @pytest.mark.parametrize(
        "out, spelling, reason",
        [
            ("target", ["--out", "target"], "not a file path"),
            (".", ["--out", "."], "not a file path"),
            ("grid.csv/", ["--out", "grid.csv/"], "not a file path"),
            ("", ["--out="], "not a file path"),
            ("", ["--config", "out.cfg"], "not a file path"),
            ("pipe", ["--out", "pipe"], "not a regular file"),
            ("link", ["--out", "link"], "not a regular file"),
        ],
        ids=[
            "existing-directory", "dot", "trailing-separator", "empty-flag", "empty-config",
            "fifo", "symlink-to-fifo",
        ],
    )
    def test_output_path_naming_no_file_exits_two_before_any_row(
        self, command, out, spelling, reason, capsys, tmp_path, monkeypatch
    ):
        # The path is refused before the kernel runs, no temp file is left
        # in the working directory or its parent, and the FIFO and the
        # symlink to it are not replaced.
        work = tmp_path / "work"
        (work / "target").mkdir(parents=True)
        (work / "out.cfg").write_text("out=\n")
        os.mkfifo(work / "pipe")
        (work / "link").symlink_to("pipe")
        monkeypatch.chdir(work)
        monkeypatch.setattr(strategies, "grid_blocks", None)
        before = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert cli.main([*command, *spelling]) == 2
        assert capsys.readouterr() == ("", f"cannot write {out!r}: {reason}\n")
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == before
        assert stat.S_ISFIFO(os.lstat("pipe").st_mode)
        assert os.readlink("link") == "pipe"


class TestCsvRows:
    def test_signed_zeros_print_apart(self):
        # Keyed by float equality, 0.0 and -0.0 would share one printed field.
        values = np.array([0.0, -0.0, -0.0, 0.0]).reshape(1, 1, 2, 2)
        prefixes = cli._row_prefixes([0.0], [0.0], [1, 2])
        (chunk,) = cli._csv_rows("two", [0.5], prefixes, values)
        assert chunk == "two,0.5,0,0,1,0,-0\ntwo,0.5,0,0,2,-0,0\n"

    def test_compare_formats_the_prefixes_once_for_both_kinds(self, tmp_path, monkeypatch):
        calls = []
        prefixes = cli._row_prefixes
        monkeypatch.setattr(
            cli, "_row_prefixes", lambda *axes: calls.append(axes) or prefixes(*axes)
        )
        out = tmp_path / "c.csv"
        assert cli.main(["compare", "--x", "0:1:2", "--out", str(out)]) == 0
        assert len(calls) == 1
        text = out.read_text()
        assert text.count("\none,") == text.count("\ntwo,") == 2 * 64 * 8


class TestBlockRelease:
    @pytest.mark.parametrize(
        "command", [["sweep", "--strategy", "two"], ["compare"]], ids=["sweep", "compare"]
    )
    def test_previous_block_is_dead_when_the_next_is_asked_for(
        self, command, tmp_path, monkeypatch
    ):
        # Each block the walk yields is watched by a weakref.  When the
        # writer asks for the next block (or for the end of the walk), the
        # previous one must already be freed: one block alive at a time.
        walk, alive = strategies.grid_blocks, []

        def watched(*args):
            blocks, previous = walk(*args), None
            while True:
                if previous is not None:
                    alive.append(previous() is not None)
                block = next(blocks, None)
                if block is None:
                    return
                previous = weakref.ref(block)
                yield block
                del block

        monkeypatch.setattr(strategies, "grid_blocks", watched)
        # Two x rows of 5 thetas over 4 planes a block: 4 blocks of 7 rows.
        monkeypatch.setattr(strategies, "_BLOCK_POINTS", 2 * 5 * 4)
        grid = ["--x", "0:1:7", "--theta", "0:1:5", "--phi", "0,0.25", "--n", "1,2"]
        assert cli.main([*command, *grid, "--out", str(tmp_path / "grid.csv")]) == 0
        # compare walks the grid once per strategy.
        assert alive == [False] * 4 * (2 if command == ["compare"] else 1)


class TestFigure:
    def test_unknown_id(self, capsys, tmp_path):
        assert cli.main(["figure", "9z", "--out", str(tmp_path / "f.csv")]) == 2
        err = capsys.readouterr().err
        assert "2a" in err and "4b" in err

    def test_missing_out(self, capsys):
        assert cli.main(["figure", "2a"]) == 2
        assert capsys.readouterr().err == "figure: missing required option: out\n"

    def test_figure_2a_header_and_size(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        assert cli.main(["figure", "2a", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        assert len(lines) == 1 + 101 * 256
        first = lines[1].split(",")
        assert first[0] == "one" and first[4] == "1"
        assert abs(float(first[3]) - math.pi / 4) <= 1e-12


    @pytest.mark.parametrize(
        "fig, strategy, n",
        [("2a", "one", "1"), ("2b", "one", "2"), ("4a", "two", "1"), ("4b", "two", "2")],
    )
    def test_figure_is_its_sweep_preset(self, fig, strategy, n, tmp_path, capsys):
        figure, sweep = tmp_path / "figure.csv", tmp_path / "sweep.csv"
        assert cli.main(["figure", fig, "--out", str(figure)]) == 0
        assert cli.main([
            "sweep", "--strategy", strategy, "--x", "0:1:101", "--theta", "0:2:256",
            "--phi", "0.25", "--n", n, "--out", str(sweep),
        ]) == 0
        assert figure.read_bytes() == sweep.read_bytes()
        assert capsys.readouterr().out == (
            f"wrote figure {fig} grid (25856 rows) to {figure}\nwrote 25856 rows to {sweep}\n"
        )

    def test_failure_mid_stream_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_csv_rows", failing_after_first_chunk(cli._csv_rows))
        assert cli.main(["figure", "4a", "--out", str(tmp_path / "f.csv")]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCompare:
    def test_printed_columns_lead_the_report(self, tmp_path):
        # compare writes the leading columns of strategies.compare_columns,
        # as many as its header names, and the summary reads the rest.
        width = len(cli.COMPARE_HEADER.split(",")) - 5
        axes = ([0.2], [0.4 * math.pi], [0.3 * math.pi], [1])
        (block,) = strategies.grid_blocks("two", *axes, strategies.compare_columns)
        assert block.shape == (1, 1, 1, width + 1)
        out = tmp_path / "cmp.csv"
        assert cli.main([
            "compare", "--strategy", "two", "--x", "0.2:0.2:1", "--theta", "0.4:0.4:1",
            "--phi", "0.3", "--n", "1", "--out", str(out),
        ]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[5:] == [cli._fmt(v) for v in block[0, 0, 0, :width].tolist()]

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

    def test_default_grid_is_the_spelled_grid(self, tmp_path, capsys):
        default, spelled = tmp_path / "default.csv", tmp_path / "spelled.csv"
        assert cli.main(["compare", "--out", str(default)]) == 0
        summary = capsys.readouterr().out
        assert cli.main([
            "compare", "--strategy", "all", "--x", "0:1:11", "--theta", "0:1.96875:64",
            "--phi", "0,0.25", "--n", "1,2,3,4", "--formula", "all", "--out", str(spelled),
        ]) == 0
        assert default.read_bytes() == spelled.read_bytes()
        rows = 2 * 11 * 64 * 2 * 4
        assert summary.endswith(f"wrote {rows} rows to {default}\n")
        assert capsys.readouterr().out == summary.replace(str(default), str(spelled))

    def test_config_beats_the_default_and_a_flag_beats_the_config(self, tmp_path):
        # Each grid option: the config's value replaces compare's default,
        # and a flag replaces the config's value.
        config_grid = {"strategy": "one", "x": "0:1:3", "theta": "0.5:1:2", "phi": "0",
                       "n": "2", "formula": "closed"}
        flag_grid = {"strategy": "two", "x": "0.5:1:2", "theta": "0:1:3", "phi": "0.25,0.5",
                     "n": "1,3", "formula": "elements"}
        config = tmp_path / "compare.cfg"
        config.write_text("".join(f"{key}={value}\n" for key, value in config_grid.items()))

        def run(name, grid, *extra):
            out = tmp_path / f"{name}.csv"
            argv = [arg for key, value in grid.items() for arg in (f"--{key}", value)]
            assert cli.main(["compare", *argv, *extra, "--out", str(out)]) == 0
            return out.read_bytes()

        assert run("config", {}, "--config", str(config)) == run("config_spelled", config_grid)
        assert run("flags", flag_grid, "--config", str(config)) == run("flags_only", flag_grid)
        for key, value in flag_grid.items():
            mixed = {**config_grid, key: value}
            assert run(key, {key: value}, "--config", str(config)) == run(f"{key}_spelled", mixed)

    def test_missing_out(self, capsys):
        assert cli.main(["compare", "--strategy", "one"]) == 2
        assert capsys.readouterr().err == "compare: missing required option: out\n"

    def test_x_outside_unit_interval(self, capsys, tmp_path):
        assert cli.main(["compare", "--x", "0:2:3", "--out", str(tmp_path / "c.csv")]) == 2
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == "compare: x values must lie in [0, 1]\n"

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
        # phi = 0 and phi = -0 are two planes of the walk, and each row
        # prints its own phi.
        out = tmp_path / "cmp.csv"
        assert cli.main([
            "compare", "--strategy", "all", "--x", "0:1:2", "--theta", "0:1:3",
            "--phi", "0,-0", "--n", "1,2", "--out", str(out),
        ]) == 0
        phis = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
        assert phis == ["0", "0", "-0", "-0"] * (2 * 2 * 3)

    @pytest.mark.parametrize(
        "command, block_points",
        [
            # The default budget takes the 101 x 256 grid in one block.
            *(pytest.param(c, None, id=f"{c}-{c}: ") for c in ("compare", "sweep", "figure")),
            # Nine blocks of 12 x rows: sweep and figure have streamed eight
            # blocks of rows into the temp file when the last one fails.
            *(
                pytest.param(c, 12 * 256, id=f"{c}-{c}: -later-block")
                for c in ("compare", "sweep", "figure")
            ),
        ],
    )
    def test_kernel_check_failure_exits_two(
        self, command, block_points, tmp_path, capsys, monkeypatch
    ):
        # Only the block that holds x = 1 breaks the trace.
        if block_points is not None:
            monkeypatch.setattr(strategies, "_BLOCK_POINTS", block_points)
        original = strategies._weighted_measures
        failed = []

        def failing_at_x_one(kind, terms, x, *rest):
            failed.append(x.max() == 1.0)
            if failed[-1]:
                terms = [1.01 * term for term in terms]
            return original(kind, terms, x, *rest)

        monkeypatch.setattr(strategies, "_weighted_measures", failing_at_x_one)
        grid = [
            "--strategy", "two", "--x", "0:1:101", "--theta", "0:2:256", "--phi", "0.25",
            "--n", "1",
        ]
        args = ["4a"] if command == "figure" else grid
        code = cli.main([command, *args, "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert failed == [False] * (0 if block_points is None else 8) + [True]
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ") and "trace" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_builds_no_spec_per_point(self, tmp_path, monkeypatch):
        # compare and sweep evaluate their grid plane by plane from the
        # spectral form of R^N: no call of the gate builder at all.
        built = []
        build = braid_ybe.build_r

        def counting(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(braid_ybe, "build_r", counting)
        grid = ["--x", "0:1:5", "--theta", "0:1:4", "--phi", "0,0.25", "--n", "1,2"]
        commands = (["compare"], ["sweep", "--strategy", "one"], ["sweep", "--strategy", "two"])
        for command in commands:
            assert cli.main([*command, *grid, "--out", str(tmp_path / "out.csv")]) == 0
        assert built == []


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
        monkeypatch.setattr(strategies, "grid_blocks", lambda *a: reached.append(a))
        out = tmp_path / "big.csv"
        argv = [command, "--strategy", "one", *axes, "--phi", "0", "--n", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert reached == [] and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(cli.MAX_ROWS) in err[0]

    def test_one_row_over_the_cap_exits_two_before_any_axis(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(np, "linspace", lambda *a, **k: built.append(a))
        out = tmp_path / "big.csv"
        argv = ["sweep", "--strategy", "one", "--x", f"0:1:{cli.MAX_ROWS + 1}",
                "--theta", "0:0:1", "--phi", "0", "--n", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert built == [] and not out.exists()
        assert capsys.readouterr() == (
            "", f"the grid has {cli.MAX_ROWS + 1} rows, more than the limit of {cli.MAX_ROWS}\n"
        )

    def test_count_includes_every_axis_and_kind(self):
        grid = {"x": f"0:1:{cli.MAX_ROWS // 2}", "theta": "0:0:1", "phi": "0", "n": "1"}
        assert len(cli._grid_axes(grid, 1)[0]) == cli.MAX_ROWS // 2
        with pytest.raises(ValueError, match="rows"):
            cli._grid_axes({**grid, "n": "1,2"}, 2)
        with pytest.raises(ValueError, match="rows"):
            cli._grid_axes(grid, 3)
        for axis, text in (("theta", "0:1:3"), ("phi", "0,0.5,1")):
            with pytest.raises(ValueError, match="rows"):
                cli._grid_axes({**grid, axis: text}, 1)


COMMANDS = "commands: verify, sweep, figure, compare"


class TestUsage:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert capsys.readouterr().err == f"ybc: error: unknown command 'frobnicate'; {COMMANDS}\n"

    def test_no_subcommand_exits_two(self, capsys):
        assert cli.main([]) == 2
        assert capsys.readouterr().err == f"ybc: error: no command given; {COMMANDS}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--tol", "1e-3"], "verify has no option --tol"),
            (["sweep", "--bogus=1"], "sweep has no option --bogus"),
            (["figure", "2a", "--strategy", "one"], "figure has no option --strategy"),
            (["verify", "--only"], "option --only expects a value"),
            (["compare", "--formula"], "option --formula expects a value"),
            (
                ["sweep", "--strategy", "one", "--x", "0:1:2", "--theta", "0:1:2", "--phi", "0",
                 "--n", "1", "extra"],
                "sweep takes no argument 'extra'",
            ),
            (["verify", "-3"], "verify takes no argument '-3'"),
            (["figure"], "figure takes one figure id, got 0"),
            (["figure", "2a", "2b"], "figure takes one figure id, got 2"),
        ],
    )
    def test_usage_error_exits_two_and_writes_nothing(self, argv, message, tmp_path, capsys):
        # --out comes first, so that a flag left without a value ends argv.
        out = tmp_path / "x.csv"
        argv = argv[:1] + ([] if argv[0] == "verify" else ["--out", str(out)]) + argv[1:]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"ybc: error: {message}\n" and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bad_tolerance_value(self, capsys):
        # The flag comes in as text and is checked where YBC_TOLERANCE is.
        for value, shown in (("-3", "-3.0"), ("abc", "'abc'")):
            assert cli.main(["verify", "--tolerance", value]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"--tolerance must be a positive real, got {shown}\n"
            assert captured.out == ""

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sweep", "-h"], ["figure", "--help"]])
    def test_help_prints_the_module_docstring(self, argv, capsys):
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (cli.__doc__, "")

    def test_help_lists_every_option(self):
        for command, names in cli.OPTIONS.items():
            assert f"\n    ybc {command} " in cli.__doc__
            for name in names:
                assert f"\n    --{name} " in cli.__doc__

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_values_with_a_leading_dash_take_either_spelling(self, command, tmp_path):
        # A negative angle is the flag's value, spaced or after "=".
        grid = {"strategy": "one", "x": "0:1:3", "theta": "-1:1:3", "phi": "-0.25,0.5", "n": "1,2"}
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        argv = [arg for key, value in grid.items() for arg in (f"--{key}", value)]
        assert cli.main([command, *argv, "--out", str(spaced)]) == 0
        argv = [f"--{key}={value}" for key, value in grid.items()]
        assert cli.main([command, *argv, f"--out={joined}"]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        rows = [line.split(",") for line in spaced.read_text().splitlines()[1:]]
        assert {row[2] for row in rows} == {cli._fmt(t * math.pi) for t in (-1.0, 0.0, 1.0)}
        assert {row[3] for row in rows} == {cli._fmt(p * math.pi) for p in (-0.25, 0.5)}

    def test_last_of_a_repeated_flag_wins(self, capsys):
        assert cli.main(["verify", "--only", "dcnot", "--only=s-unitary"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("[PASS] s-unitary ")

    def test_parsing_imports_no_module(self):
        # The front end parses its flags without argparse and its gettext
        # and locale imports, and the package defines its classes without
        # dataclasses: imports that a verify run would otherwise pay for.
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import ybc.cli\n"
            "loaded = set(sys.modules)\n"
            "unwanted = {'argparse', 'dataclasses', 'gettext', 'locale'}\n"
            "print(sorted(unwanted & (loaded - before)))\n"
            "assert ybc.cli.main(['verify', '--only', 's-unitary']) == 0\n"
            "print(sorted(set(sys.modules) - loaded))\n"
        )
        stdout = _python("-c", code).splitlines()
        assert stdout[0] == stdout[-1] == "[]"

    def test_help_outlives_docstring_stripping(self):
        assert _python("-OO", "-m", "ybc.cli", "-h") == cli.__doc__


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestThreadPolicy:
    """``ybc.cli`` runs numpy's BLAS on one thread, set before numpy loads.

    Each test starts a fresh interpreter with every thread variable at 4.
    """

    @pytest.fixture(autouse=True)
    def four_threads(self, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "4")

    @staticmethod
    def _run(imports: str) -> list[str]:
        """What a fresh interpreter reports after ``imports``: the thread
        variables, its thread count (None without /proc) and whether numpy
        is loaded, one line each."""
        code = (
            "import os, sys\n"
            f"{imports}\n"
            f"print([os.environ[var] for var in {THREAD_VARS!r}])\n"
            "task = '/proc/self/task'\n"
            "print(len(os.listdir(task)) if os.path.isdir(task) else None)\n"
            "print('numpy' in sys.modules)\n"
        )
        return _python("-c", code).splitlines()

    def test_package_import_loads_no_numpy(self):
        variables, _, numpy_loaded = self._run("import ybc")
        assert (variables, numpy_loaded) == ("['4', '4', '4']", "False")

    def test_cli_import_runs_one_thread(self):
        variables, threads, numpy_loaded = self._run("import ybc.cli")
        assert (variables, numpy_loaded) == ("['1', '1', '1']", "True")
        if threads != "None":
            assert threads == "1"

    def test_cli_import_after_numpy_leaves_the_variables(self):
        variables, _, _ = self._run("import numpy\nimport ybc.cli")
        assert variables == "['4', '4', '4']"

    def test_package_names_are_their_modules_objects(self):
        # Each name is resolved through the package before its module loads.
        code = (
            "import inspect, sys\n"
            "import ybc\n"
            "values = {name: getattr(ybc, name) for name in ybc.__all__}\n"
            "import ybc.strategies\n"
            "def home(v):\n"
            "    return sys.modules[v.__module__] if inspect.isfunction(v) else ybc.strategies\n"
            "wrong = sorted(n for n, v in values.items() if getattr(home(v), n) is not v)\n"
            "print(len(values), wrong)\n"
        )
        assert _python("-c", code) == "19 []\n"


def _python(*args: str) -> str:
    """The standard output of a fresh interpreter that imports this checkout's ybc."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    ).stdout


def digest_commands():
    """{label: argv without --out} of each command in ``tools/output_digests.py``.

    Imports the script for its command list only; running it takes seconds.
    """
    path = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return dict(tool.COMMANDS)


class TestOutputDigests:
    def test_covers_every_figure_and_formula(self):
        commands = list(digest_commands().values())
        figures = {argv[1] for argv in commands if argv[0] == "figure"}
        formulas = {argv[argv.index("--formula") + 1] for argv in commands if argv[0] == "compare"}
        assert figures == set(cli.FIGURES)
        assert formulas == set(strategies.DROPPED_COLUMNS)
        assert {argv[2] for argv in commands if argv[0] == "sweep"} == {"one", "two"}
        assert ("verify",) in commands

    @pytest.mark.parametrize("label", digest_commands())
    def test_command_parses_to_a_valid_grid(self, label, monkeypatch):
        # Each command as the tool runs it passes cli._parse, and its grid
        # passes cli._grid_axes, so the list cannot drift from cli.OPTIONS.
        def forbidden(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(strategies, "grid_blocks", forbidden)
        argv = digest_commands()[label]
        command, opts = cli._parse(argv if argv[0] == "verify" else [*argv, "--out", "d.csv"])
        opts.update((k, v) for k, v in cli.OPTIONS[command].items() if opts[k] is None)
        assert cli.REQUIRED not in opts.values()
        if command == "figure":
            assert opts["id"] in cli.FIGURES
        elif command != "verify":
            assert opts["strategy"] in ("one", "two", "all")
            assert opts.get("formula", "all") in strategies.DROPPED_COLUMNS
            xs, thetas, phis, ns = cli._grid_axes(opts, 2 if opts["strategy"] == "all" else 1)
            assert min(len(xs), len(thetas), len(phis), len(ns)) >= 1
