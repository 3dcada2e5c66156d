"""End-to-end CLI tests driven through main(argv) in process."""

import json
import math

import numpy as np
import pytest

from drmaj.algebra import eval_expr
from drmaj.cli import main
from drmaj.entropy import entropy_dr
from drmaj.rearrange import TabulatedFn


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_family_writes_pdf_and_cdf_tables(tmp_path, capsys):
    rc, out, err = run(capsys, "family", "exp:n=2", "--out", str(tmp_path))
    assert rc == 0
    paths = out.splitlines()
    assert paths == [
        f"{tmp_path}/exp_n2_pdf.csv",
        f"{tmp_path}/exp_n2_cdf.csv",
    ]
    pdf = TabulatedFn.from_csv(paths[0])
    cdf = TabulatedFn.from_csv(paths[1])
    assert pdf.values[0] == pytest.approx(1.0)  # exp n=2 density peaks at 1
    assert np.all(np.diff(cdf.values) >= 0)
    assert cdf.values[-1] == pytest.approx(1.0, abs=1e-6)
    # sqrt cusp at z=0 limits trapezoid accuracy on the tabulated pdf
    assert np.trapezoid(pdf.values, pdf.grid) == pytest.approx(1.0, abs=1e-2)
    k = np.searchsorted(cdf.grid, 2.0)
    z = cdf.grid[k]
    exact = 1.0 - (1.0 + np.sqrt(2 * z)) * np.exp(-np.sqrt(2 * z))
    assert cdf.values[k] == pytest.approx(exact, abs=1e-6)


def test_family_at_the_largest_exp_dimension(tmp_path, capsys):
    rc, out, err = run(capsys, "family", "exp:n=170", "--out", str(tmp_path))
    assert rc == 0, err
    assert out.splitlines() == [f"{tmp_path}/exp_n170_pdf.csv", f"{tmp_path}/exp_n170_cdf.csv"]


def test_family_table_follows_the_mass_of_a_stretched_dr(tmp_path, capsys):
    # exp:n=10 holds most of its mass far below its maximum: a uniform table
    # of [0, z_hi] read 0.986 at its first point after z = 0
    rc, out, err = run(capsys, "family", "exp:n=10", "--out", str(tmp_path))
    assert rc == 0, err
    cdf_path = out.splitlines()[1]
    assert TabulatedFn.from_csv(cdf_path).values[1] < 1e-3
    assert entropy_dr(eval_expr(cdf_path).pdf) == pytest.approx(10.0, abs=1e-4)


def test_family_table_of_a_tiny_extent_reads_back(tmp_path, capsys):
    # the table ends at z = 1.3e-12; its steps are one double wide, so they scale with it
    rc, out, err = run(capsys, "family", "mvn:n=2,var=1e-14", "--json", "--out", str(tmp_path))
    assert rc == 0, err
    h = entropy_dr(eval_expr(out.splitlines()[1]).pdf)
    assert h == pytest.approx(math.log(2.0 * math.pi * math.e * 1e-14), abs=1e-6)


def test_family_json_output(tmp_path, capsys):
    rc, out, _ = run(
        capsys, "family", "mvn:n=2,var=3", "--out", str(tmp_path), "--json"
    )
    assert rc == 0
    paths = out.splitlines()
    assert paths[0].endswith("mvn_n2_var3_pdf.json")
    tab = TabulatedFn.from_json(paths[0])
    assert tab.values[0] == pytest.approx(1.0 / (2 * np.pi * 3.0))


def test_family_rejects_bad_spec(capsys):
    rc, out, err = run(capsys, "family", "cauchy:n=1")
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_compare_ordered_pair(capsys):
    payload = run_json(capsys, "compare", "exp:n=2", "exp:n=1")
    assert payload["a"] == "exp_n2"
    assert payload["b"] == "exp_n1"
    assert payload["verdict"] == "precedes"
    assert payload["crossing_z"] == []
    assert payload["max_gap"] == pytest.approx(0.270628776, abs=1e-6)


def test_compare_crossing_pair(capsys):
    payload = run_json(capsys, "compare", "mvn:n=1", "exp:n=1")
    assert payload["verdict"] == "incomparable"
    assert len(payload["crossing_z"]) == 1
    assert payload["crossing_z"][0] == pytest.approx(6.130174239086876, abs=1e-6)
    assert payload["max_gap"] == pytest.approx(0.2496548916, abs=1e-6)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_compare_rejects_bad_tolerance(capsys, tol):
    # exp:n=2 precedes exp:n=1; no tolerance may turn that into another verdict
    rc, out, err = run(capsys, "compare", "exp:n=2", "exp:n=1", "--tol", tol)
    assert rc == 2
    assert err.startswith("error: --tol")
    assert out == ""


def test_compare_equal_pair(capsys):
    payload = run_json(capsys, "compare", "exp:n=1", "exp:n=1")
    assert payload["verdict"] == "equal"


def test_expr_writes_tables(tmp_path, capsys):
    rc, out, _ = run(
        capsys,
        "expr",
        "mix(exp:n=1,exp:n=2,alpha=0.5)",
        "--out",
        str(tmp_path),
        "--grid",
        "1024",
    )
    assert rc == 0
    pdf_path, cdf_path = out.splitlines()
    assert pdf_path.endswith("_pdf.csv") and cdf_path.endswith("_cdf.csv")
    pdf = TabulatedFn.from_csv(pdf_path)
    assert np.trapezoid(pdf.values, pdf.grid) == pytest.approx(1.0, abs=1e-4)


def test_expr_otimes_table_feeds_entropy(tmp_path, capsys):
    # otimes writes its knot table; its cdf must read back as a concave cdf
    expr = "otimes(meet(mvn:n=1, exp:n=1), exp:n=1)"
    rc, out, err = run(capsys, "expr", expr, "--out", str(tmp_path))
    assert rc == 0, err
    cdf_path = out.splitlines()[-1]
    assert cdf_path.endswith("_cdf.csv")
    written = TabulatedFn.from_csv(cdf_path)
    assert np.array_equal(written.grid, eval_expr(expr).cdf.table.grid)
    rc, _, err = run(capsys, "entropy", cdf_path)
    assert rc == 0, err


def test_step_pdf_table_reads_back_through_its_cdf(tmp_path, capsys):
    # family cdf -> its step pdf -> that pdf's cdf -> entropy: a one-double
    # cdf piece of a step read 0 as its slope and zeroed every slope after it
    rc, out, err = run(capsys, "family", "exp:n=3", "--out", str(tmp_path))
    assert rc == 0, err
    cdf_path = out.splitlines()[1]
    rc, out, err = run(capsys, "expr", cdf_path, "--out", str(tmp_path))
    assert rc == 0, err
    step_pdf_path = out.splitlines()[0]
    assert step_pdf_path.endswith("_pdf.csv")
    rc, out, err = run(capsys, "expr", step_pdf_path, "--out", str(tmp_path))
    assert rc == 0, err
    payload = run_json(capsys, "entropy", out.splitlines()[-1])
    assert payload["shannon"] == pytest.approx(3.0, abs=1e-6)


def test_expr_parse_error_is_usage(capsys):
    rc, _, err = run(capsys, "expr", "mix(exp:n=1")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "expr, message",
    [
        ("pow(exp:n=1, nan)", "power must be finite and at least 1"),
        ("mix(exp:n=1, exp:n=2, alpha=nan)", "mixing weight must lie in (0, 1)"),
        ("mix(exp:n=1, exp:n=2, alpha=1.5)", "mixing weight must lie in (0, 1)"),
        ("dmix(exp:n=1, exp:n=2, alpha=half)", "alpha must be a number"),
    ],
)
def test_expr_bad_operator_parameter_is_usage(capsys, expr, message):
    rc, _, err = run(capsys, "expr", expr)
    assert rc == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("compare", "exp:n=171", "exp:n=1"),
         "invalid family spec 'exp:n=171': exp dimension must be between 1 and 170"),
        (("expr", "mix(mvn:n=1,var=nan, exp:n=1)"),
         "invalid family spec 'mvn:n=1,var=nan': mvn variance must be finite and positive"),
    ],
    ids=["compare", "expr"],
)
def test_bad_family_spec_in_expression_names_its_cause(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_expr_mass_failure_is_numeric_error(capsys):
    rc, _, err = run(capsys, "expr", "mix(exp:n=10, exp:n=1)")
    assert rc == 3
    assert "tabulated DR pdf mass" in err


def test_entropy_reports_moments_and_entropies(capsys):
    payload = run_json(capsys, "entropy", "exp:n=1")
    assert payload["input"] == "exp_n1"
    assert payload["mean"] == pytest.approx(1.0, abs=1e-9)
    assert payload["variance"] == pytest.approx(1.0, abs=1e-9)
    assert payload["shannon"] == pytest.approx(1.0, abs=1e-9)
    assert payload["tsallis"]["gamma"] == 1.0
    assert payload["tsallis"]["value"] == pytest.approx(0.5, abs=1e-9)


def test_entropy_gamma_flag(capsys):
    payload = run_json(capsys, "entropy", "exp:n=1", "--gamma", "0.5")
    assert payload["tsallis"]["value"] == pytest.approx(2.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize(
    "expr, cause",
    [
        # the join of a crossing pair is not a DR cdf, so no density exists
        ("join(mvn:n=1,exp:n=1)", "cdf is not concave"),
        # the crossing meet is concave, but carries no pdf
        ("meet(mvn:n=1,exp:n=1)", "crossing lattice result has no pdf"),
    ],
    ids=["join", "meet"],
)
def test_entropy_rejects_non_concave_input(capsys, expr, cause):
    rc, _, err = run(capsys, "entropy", expr)
    assert rc == 3
    assert "no usable density" in err
    assert cause in err


def test_entropy_missing_table_file(tmp_path, capsys):
    rc, _, err = run(capsys, "entropy", str(tmp_path / "missing.csv"))
    assert rc == 2
    assert err.startswith("error:")


_TABLE_FILES = [
    ("one_value.csv", "z,value\n0,1\n2\n", 2, "line 3: expected two numbers"),
    # a third column is an error, not dropped: without it the table is valid
    ("three_columns.csv", "# monotone: nonincreasing\nz,value\n0,1,9\n1,1\n", 2,
     "line 3: expected two numbers"),
    ("text_entry.csv", "z,value\n0,abc\n1,0\n", 2, "line 2: expected two numbers"),
    ("empty.csv", "", 2, "expected 'z,value' header"),
    ("no_values.json", '{"grid": [0, 1]}', 2, "with 'grid' and 'values'"),
    ("list.json", "[0, 1]", 2, "with 'grid' and 'values'"),
    ("object_entries.json", '{"grid": [0, {}], "values": [1, 1]}', 2, "must be numeric"),
    # a well-formed table that is not a DR pdf is a numerical failure
    ("mass_five.csv", "# monotone: nonincreasing\nz,value\n0,5\n1,5\n", 3,
     "tabulated DR pdf mass"),
]


@pytest.mark.parametrize(
    "name, text, code, message", _TABLE_FILES, ids=[c[0] for c in _TABLE_FILES]
)
def test_malformed_table_file_names_the_file(tmp_path, capsys, name, text, code, message):
    path = tmp_path / name
    path.write_text(text)
    for argv in (("entropy", str(path)), ("expr", str(path), "--out", str(tmp_path)),
                 ("compare", "exp:n=1", str(path))):
        rc, _, err = run(capsys, *argv)
        assert rc == code, (argv, err)
        assert err.startswith("error:") and message in err
        if code == 2:
            assert f"{path}: " in err


def _write_points(path, seed=10, m=60):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, 2))
    lines = ["x,y"] + [f"{float(a)},{float(b)}" for a, b in pts]
    path.write_text("\n".join(lines) + "\n")
    return path


EMP_ARGS = (
    "--mc-samples", "20000",
    "--thresholds", "128",
    "--grid", "256",
    "--bounds=-6,6,-6,6",
)


def test_empirical_kde_run(tmp_path, capsys):
    data = _write_points(tmp_path / "points.csv")
    out_dir = tmp_path / "run1"
    out_dir.mkdir()
    rc, out, err = run(
        capsys, "empirical", str(data), "--out", str(out_dir), "--seed", "3", *EMP_ARGS
    )
    assert rc == 0, err
    names = [p.rsplit("/", 1)[1] for p in out.splitlines()]
    assert names == ["measure.csv", "dr_pdf.csv", "dr_cdf.csv", "manifest.json"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["mode"] == "kde_mc"
    assert manifest["config"]["seed"] == 3
    assert manifest["config"]["n_points"] == 20000
    assert manifest["binned_mass"] == pytest.approx(1.0, abs=0.05)
    cdf = TabulatedFn.from_csv(out_dir / "dr_cdf.csv")
    assert cdf.values[-1] == pytest.approx(1.0)


def test_empirical_reruns_are_deterministic(tmp_path, capsys):
    data = _write_points(tmp_path / "points.csv")
    outs = []
    for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
        d = tmp_path / name
        d.mkdir()
        rc, _, _ = run(
            capsys, "empirical", str(data), "--out", str(d), "--seed", seed, *EMP_ARGS
        )
        assert rc == 0
        outs.append(d)
    for name in ("measure.csv", "dr_pdf.csv", "dr_cdf.csv"):
        same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert same, f"{name} changed between identical runs"
    assert (outs[0] / "measure.csv").read_bytes() != (outs[2] / "measure.csv").read_bytes()


def test_empirical_bad_bounds_is_usage_error(tmp_path, capsys):
    data = _write_points(tmp_path / "points.csv")
    rc, _, err = run(capsys, "empirical", str(data), "--bounds", "1,2,3",
                     "--out", str(tmp_path))
    assert rc == 2
    assert "lo,hi per dimension" in err


@pytest.mark.parametrize(
    "opts, message",
    [
        (("--mc-samples", "50"), "n_points must be at least 100"),
        (("--thresholds", "10"), "n_thresholds must be at least 64"),
        (("--bounds", "1,0,0,1"), "lo < hi"),
    ],
)
def test_empirical_bad_mc_options_are_usage_errors(tmp_path, capsys, opts, message):
    data = _write_points(tmp_path / "points.csv")
    rc, _, err = run(capsys, "empirical", str(data), *opts, "--out", str(tmp_path))
    assert rc == 2
    assert message in err


def test_empirical_box_missing_mass_is_numeric_error(tmp_path, capsys):
    data = _write_points(tmp_path / "points.csv")
    rc, _, err = run(capsys, "empirical", str(data), "--bounds", "0,1,0,1",
                     "--out", str(tmp_path))
    assert rc == 3
    assert "widen the box" in err


def test_empirical_discrete_counts(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("3,1\n2,2\n")
    rc, out, _ = run(capsys, "empirical", str(counts), "--discrete",
                     "--out", str(tmp_path))
    assert rc == 0
    names = [p.rsplit("/", 1)[1] for p in out.splitlines()]
    assert names == ["discrete_pmf.csv", "discrete_cdf.csv", "manifest.json"]
    pmf = np.loadtxt(tmp_path / "discrete_pmf.csv", delimiter=",", skiprows=1)
    assert pmf[:, 1] == pytest.approx([3 / 8, 2 / 8, 2 / 8, 1 / 8])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["mode"] == "discrete"
    assert manifest["cells"] == 4
    assert manifest["total_count"] == 8


def test_empirical_binning_mode(tmp_path, capsys):
    data = _write_points(tmp_path / "points.csv", m=200)
    rc, out, _ = run(capsys, "empirical", str(data), "--bins", "3", "3",
                     "--out", str(tmp_path))
    assert rc == 0
    names = [p.rsplit("/", 1)[1] for p in out.splitlines()]
    assert names == ["binned_counts.csv", "discrete_pmf.csv", "discrete_cdf.csv",
                     "manifest.json"]
    table = np.loadtxt(tmp_path / "binned_counts.csv", delimiter=",", skiprows=1)
    assert table.shape == (9, 3)
    assert table[:, 2].sum() == pytest.approx(200)


@pytest.mark.parametrize("cols, bins, msg", [
    (3, ("3", "3"), "exactly two columns"),
    (2, ("1", "3"), "at least 2 bins"),
])
def test_empirical_bad_binning_is_usage_error(tmp_path, capsys, cols, bins, msg):
    rng = np.random.default_rng(10)
    rows = rng.standard_normal((60, cols))
    lines = [",".join(f"x{j}" for j in range(cols))]
    lines += [",".join(f"{float(v)}" for v in r) for r in rows]
    data = tmp_path / "points.csv"
    data.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "empirical", str(data), "--bins", *bins,
                       "--out", str(tmp_path))
    assert rc == 2
    assert out == ""
    assert msg in err


def test_empirical_missing_file(capsys):
    rc, _, err = run(capsys, "empirical", "no_such_file.csv")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("family", "exp:n=1", "--grid", "1"), "--grid: must be at least 2"),
        (("family", "exp:n=1", "--grid", "-3"), "--grid: must be at least 2"),
        (("entropy", "exp:n=1", "--gamma", "nan"), "--gamma: tsallis entropy needs a finite"),
        (("entropy", "exp:n=1", "--gamma", "0"), "--gamma: tsallis entropy needs a finite"),
        (("entropy", "exp:n=1", "--gamma", "inf"), "--gamma: tsallis entropy needs a finite"),
    ],
    ids=["grid_1", "grid_negative", "gamma_nan", "gamma_0", "gamma_inf"],
)
def test_numeric_options_outside_their_domain_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("drmaj ")


def test_missing_subcommand_is_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
