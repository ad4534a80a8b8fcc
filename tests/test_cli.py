import numpy as np
import pytest

from srj import load_scheme, lookup
from srj.cli import (
    EXIT_OK,
    EXIT_STAGNATED,
    EXIT_USAGE,
    main,
    parse_c_ratio,
    parse_scheme_ref,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def test_parse_c_ratio():
    assert parse_c_ratio("1/3") == pytest.approx(1 / 3)
    assert parse_c_ratio("0.5") == 0.5
    with pytest.raises(Exception):
        parse_c_ratio("5/3")
    with pytest.raises(Exception):
        parse_c_ratio("zebra")


def test_parse_scheme_ref_catalog_and_jacobi():
    label, scheme = parse_scheme_ref("catalog:5,1/3")
    assert label == "catalog:5,1/3"
    assert scheme.factors == lookup(5, "1/3").factors
    _, jacobi = parse_scheme_ref("jacobi:4")
    assert jacobi.factors == (1.0, 1.0, 1.0, 1.0)


def test_derive_command_matches_catalog(capsys, tmp_path):
    out = tmp_path / "scheme.txt"
    code, stdout, _ = run_cli(capsys, "derive", "--m", "2", "--c", "0", "--out", str(out))
    assert code == EXIT_OK
    assert "g_bar=0.333" in stdout
    assert "catalog_comparison" in stdout
    scheme = load_scheme(out)
    published = np.sort(lookup(2, "0").factors)[::-1]
    np.testing.assert_allclose(scheme.factors, published, rtol=1e-4)


def test_derive_command_prints_bound_below_one(capsys):
    code, stdout, _ = run_cli(capsys, "derive", "--m", "5", "--c", "1/3")
    assert code == EXIT_OK
    g_bar = float(stdout.split("g_bar=")[1].split()[0])
    assert g_bar < 1.0


def test_derive_command_prints_certificate(capsys):
    code, stdout, _ = run_cli(capsys, "derive", "--m", "3", "--c", "1/10")
    assert code == EXIT_OK
    g_bar = float(stdout.split("g_bar=")[1].split()[0])
    boundary_max = float(stdout.split("boundary_max=")[1].split()[0])
    assert boundary_max == pytest.approx(g_bar, rel=1e-6)


def test_derive_rejects_m1(capsys):
    code, _, err = run_cli(capsys, "derive", "--m", "1", "--c", "0")
    assert code == EXIT_USAGE
    assert "2, 32" in err or "[2, 32]" in err


def test_solve1d_writes_history_with_metadata(capsys, tmp_path):
    history = tmp_path / "history.csv"
    code, stdout, _ = run_cli(
        capsys,
        "solve1d", "--n", "64", "--nu", "1", "--a", "20",
        "--scheme", "catalog:5,0", "--tol", "1e-6", "--history", str(history),
    )
    assert code == EXIT_OK
    assert "status=converged" in stdout
    text = history.read_text()
    assert "# tool: srj" in text
    assert "# command: srj solve1d" in text
    assert "# bc: dirichlet" in text
    assert "# forcing: sin2pix" in text
    rows = data_lines(text)
    assert rows[0] == "iteration,cycle,omega_applied,residual_l2"
    first = rows[1].split(",")
    assert first[0] == "0" and first[2] == ""
    second = rows[2].split(",")
    assert second[1] == "1"
    assert float(second[2]) == lookup(5, "0").factors[0]


def test_solve1d_unknown_scheme_key(capsys):
    code, _, err = run_cli(capsys, "solve1d", "--scheme", "catalog:21,0")
    assert code == EXIT_USAGE
    assert "valid grid" in err


def test_solve1d_missing_scheme_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve1d", "--n", "64")
    assert code == EXIT_USAGE


def test_solve1d_divergence_exit_code(capsys):
    # High 1D advection with the real-axis scheme: cycle-end residuals
    # blow through the divergence factor without ever improving.
    from srj.cli import EXIT_DIVERGED

    code, stdout, _ = run_cli(
        capsys,
        "solve1d", "--n", "128", "--a", "400", "--scheme", "catalog:5,0",
        "--tol", "1e-6", "--max-cycles", "3000",
    )
    assert code == EXIT_DIVERGED
    assert "status=diverged" in stdout


def test_solve2d_stagnation_exit_code(capsys):
    # Thick-spectrum 2D case where the real-axis scheme dips once and
    # then plateaus: flagged stagnated.
    code, stdout, _ = run_cli(
        capsys,
        "solve2d", "--nx", "96", "--ny", "96", "--ax", "150", "--ay", "150",
        "--scheme", "catalog:5,0", "--tol", "1e-8",
    )
    assert code == EXIT_STAGNATED
    assert "status=stagnated" in stdout


def test_solve_help_matches_flags_and_outputs(capsys):
    with pytest.raises(SystemExit):
        main(["solve1d", "--help"])
    help_text = capsys.readouterr().out
    assert "PREFIX.mtx / PREFIX_rhs.txt" in help_text
    assert "--bc" not in help_text
    code, _, stderr = run_cli(capsys, "solve1d", "--scheme", "jacobi:1", "--bc", "dirichlet-neumann")
    assert code == EXIT_USAGE
    assert "--bc" in stderr


def test_solve1d_export_matrix_market(capsys, tmp_path):
    prefix = tmp_path / "system"
    code, _, _ = run_cli(
        capsys,
        "solve1d", "--n", "16", "--a", "5", "--scheme", "jacobi:1",
        "--tol", "1e-6", "--export-mm", str(prefix),
    )
    assert code == EXIT_OK
    assert (tmp_path / "system.mtx").exists()
    assert (tmp_path / "system_rhs.txt").exists()
    from srj import read_matrix_market, build_1d, AdvectionDiffusionSpec1D

    A = read_matrix_market(tmp_path / "system.mtx")
    expected, _ = build_1d(AdvectionDiffusionSpec1D(n=16, nu=1.0, a=5.0))
    np.testing.assert_allclose(A.to_dense(), expected.to_dense(), rtol=1e-12)


def test_solve2d_small_run(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "solve2d", "--nx", "24", "--ny", "24", "--ax", "10", "--ay", "10",
        "--scheme", "catalog:5,0", "--tol", "1e-8",
    )
    assert code == EXIT_OK
    assert "status=converged" in stdout


def parse_csv_rows(text):
    import csv
    import io

    return list(csv.reader(io.StringIO("\n".join(data_lines(text)))))[1:]


def test_spectrum_sweep_rankings(capsys, tmp_path):
    out = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(capsys, "spectrum", "--n", "64", "--a", "50:150:50", "--out", str(out))
    assert code == EXIT_OK
    rows = parse_csv_rows(out.read_text())
    eigen_rows = [r for r in rows if r[0] == "eigenvalue"]
    radius_rows = [r for r in rows if r[0] == "scheme_radius"]
    assert len(eigen_rows) == 3 * 64
    assert len(radius_rows) == 3 * 6  # five catalog schemes + plain Jacobi per sweep value
    ranks = {(r[1], r[2]): int(r[4]) for r in radius_rows}
    assert ranks[("50.0", "catalog:5,0")] == 1


def test_spectrum_zero_advection_real_eigenvalues(capsys, tmp_path):
    out = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(capsys, "spectrum", "--n", "32", "--a", "0", "--out", str(out))
    assert code == EXIT_OK
    rows = parse_csv_rows(out.read_text())
    imag = [abs(float(r[4])) for r in rows if r[0] == "eigenvalue"]
    assert max(imag) < 1e-10


def test_spectrum_import_diagonal_matrix(capsys, tmp_path):
    from srj import CsrMatrix, write_matrix_market

    path = tmp_path / "diag.mtx"
    write_matrix_market(CsrMatrix.from_dense(np.diag([2.0, 3.0, 5.0])), path)
    out = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(capsys, "spectrum", "--import-mm", str(path), "--out", str(out))
    assert code == EXIT_OK
    checked = 0
    for row in parse_csv_rows(out.read_text()):
        if row[0] == "scheme_radius" and row[2].startswith("catalog:5,"):
            scheme = lookup(5, row[2].split(",")[1])
            expected = abs(np.prod([1.0 - w for w in scheme.factors]))
            assert float(row[3]) == pytest.approx(expected, rel=1e-9)
            checked += 1
    assert checked == 5


def test_slope_table_output(capsys):
    code, stdout, _ = run_cli(capsys, "slope-table")
    assert code == EXIT_OK
    rows = data_lines(stdout)
    assert rows[0] == "m,0,1/10,1/5,1/3,1/2,jacobi"
    by_m = {int(r.split(",")[0]): r.split(",") for r in rows[1:]}
    assert float(by_m[10][3]) == pytest.approx(37.373, abs=5e-4)
    for m, row in by_m.items():
        assert float(row[6]) == m
        slopes = [float(v) for v in row[1:6]]
        assert all(b < a for a, b in zip(slopes, slopes[1:]))


def test_catalog_list_show_export(capsys, tmp_path):
    code, stdout, _ = run_cli(capsys, "catalog", "list")
    assert code == EXIT_OK
    assert "catalog:5,1/3" in stdout.splitlines()

    code, stdout, _ = run_cli(capsys, "catalog", "show", "--m", "5", "--c", "1/3")
    assert code == EXIT_OK
    assert "g_bar=0.477" in stdout

    out = tmp_path / "exported.txt"
    code, stdout, _ = run_cli(capsys, "catalog", "export", "--m", "3", "--c", "0", "--out", str(out))
    assert code == EXIT_OK
    assert load_scheme(out).factors == lookup(3, "0").factors

    code, _, err = run_cli(capsys, "catalog", "show", "--m", "5")
    assert code == EXIT_USAGE


def test_amp_grid_csv(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys,
        "amp-grid", "--scheme", "jacobi:1", "--nx", "3", "--ny", "3", "--out", str(out),
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in data_lines(out.read_text())[1:]]
    assert len(rows) == 9
    center = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert float(center[0][2]) == 0.0


def test_budget_exhaustion_exit_code(capsys):
    from srj.cli import EXIT_BUDGET

    code, stdout, _ = run_cli(
        capsys,
        "solve1d", "--n", "64", "--a", "0", "--scheme", "jacobi:1",
        "--tol", "1e-12", "--max-cycles", "5",
    )
    assert code == EXIT_BUDGET
    assert "status=budget_exhausted" in stdout


def test_unknown_subcommand_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_identical_flags_identical_bytes_modulo_timestamp(capsys, tmp_path, monkeypatch):
    dirs = (tmp_path / "one", tmp_path / "two")
    argv = ("spectrum", "--n", "24", "--a", "30", "--out", "out.csv")
    for d in dirs:
        d.mkdir()
        monkeypatch.chdir(d)
        run_cli(capsys, *argv)
    strip = lambda d: [
        l for l in (d / "out.csv").read_text().splitlines() if not l.startswith("# timestamp")
    ]
    assert strip(dirs[0]) == strip(dirs[1])
