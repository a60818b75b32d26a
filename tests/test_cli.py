"""End-to-end command line behaviour, exit codes included."""

import json

import pytest

import srgta.cli
from srgta.cli import main
from srgta.graphcore import read_graph, write_graph
from srgta.linalg import ClosureBudgetExceeded, ClosureSelfTestFailed, PrimeDisagreement
from srgta.permgroup import write_generators
from srgta.terwilliger import AlgebraReport, InternalDisagreement, OracleMismatch


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def petersen_file(tmp_path, petersen):
    path = tmp_path / "petersen.srg"
    write_graph(petersen, path)
    return str(path)


# -- construct -------------------------------------------------------------------

def test_construct_writes_file(tmp_path, capsys):
    out = tmp_path / "g.srg"
    code, text, _ = run(capsys, "construct", "grid", "3", "-o", str(out))
    assert code == 0
    assert "grid(3) on 9 vertices, 18 edges" in text
    assert "srg (9,4,1,2)" in text
    assert f"wrote {out}" in text
    assert read_graph(out).n == 9


def test_construct_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text, _ = run(capsys, "construct", "multipartite", "2", "3")
    assert code == 0
    assert (tmp_path / "multipartite_2_3.srg").exists()
    assert "srg (6,3,0,3)" in text


def test_construct_reports_non_srg(tmp_path, capsys):
    out = tmp_path / "c6.srg"
    code, text, _ = run(capsys, "construct", "cycle", "6", "-o", str(out))
    assert code == 0
    assert "not strongly regular" in text


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "paley", "7"),
        ("construct", "paley", "21"),
        ("construct", "moebius", "5"),
        ("construct", "grid", "3", "3"),
        ("construct", "grid"),
        (),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 2


# -- analyze ---------------------------------------------------------------------

def test_analyze_json_report(capsys, petersen_file):
    code, text, _ = run(capsys, "analyze", petersen_file)
    assert code == 0
    report = AlgebraReport.from_json(text)
    assert report.dims == {"t0": 14, "t": 15, "t_tilde": 15}
    assert report.aut_order == 120
    assert report.verdicts["triply_transitive"] is False


def test_analyze_is_deterministic(capsys, petersen_file):
    first = run(capsys, "analyze", petersen_file)
    second = run(capsys, "analyze", petersen_file)
    assert first == second


def test_analyze_table_row(capsys, petersen_file):
    code, text, _ = run(capsys, "analyze", petersen_file, "--table")
    assert code == 0
    assert text.strip() == (
        "(10,3,0,1) | petersen | omega 0 | aut 120"
        " | 14 | 15 | 15 | [[1,1,1],[1,2,2],[1,2,4]] | false"
    )


def test_analyze_all_vertices_collapses_one_orbit(capsys, petersen_file):
    # vertex transitive: one orbit representative, so still a single report
    code, text, _ = run(capsys, "analyze", petersen_file, "--all-vertices")
    assert code == 0
    assert AlgebraReport.from_json(text).omega == 0


def test_analyze_scalar_substrates_agree(capsys, petersen_file):
    baseline = run(capsys, "analyze", petersen_file)[1]
    for flags in (["--rational"], ["--prime", "2147483659"], ["--seed", "11"]):
        assert run(capsys, "analyze", petersen_file, *flags)[1] == baseline


def test_analyze_rejects_composite_prime_flag(capsys, petersen_file):
    code, _, err = run(capsys, "analyze", petersen_file, "--prime", "6")
    assert code == 2
    assert "not prime" in err


def test_analyze_rejects_non_srg_input(tmp_path, capsys):
    path = tmp_path / "path.srg"
    path.write_text("3 2\n0 1\n1 2\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_missing_file(capsys):
    code, _, _ = run(capsys, "analyze", "/nonexistent/g.srg")
    assert code == 2


def test_analyze_timeout_exit_code(tmp_path, capsys):
    out = tmp_path / "g.srg"
    run(capsys, "construct", "grid", "5", "-o", str(out))
    code, _, err = run(capsys, "analyze", str(out), "--timeout", "1e-9")
    assert code == 3
    assert "timed out" in err


def test_analyze_with_imported_generators(
    tmp_path, capsys, petersen_file, grid3, grid3_translations
):
    gens = tmp_path / "petersen.gens"
    code, _, _ = run(capsys, "aut", petersen_file, "--export", str(gens))
    assert code == 0
    baseline = run(capsys, "analyze", petersen_file)[1]
    assert run(capsys, "analyze", petersen_file, "--gens", str(gens))[1] == baseline
    # generators of a proper subgroup seed the search and give the searched report
    grid_file = str(tmp_path / "grid3.srg")
    write_graph(grid3, grid_file)
    for command in ("analyze", "check-triple"):
        baseline = run(capsys, command, grid_file)[1]
        assert '"triply_transitive": true' in baseline
        for count in (2, 1):
            write_generators(gens, 9, grid3_translations[:count])
            assert run(capsys, command, grid_file, "--gens", str(gens)) == (0, baseline, "")


# -- aut -------------------------------------------------------------------------

def test_aut_prints_order(capsys, petersen_file):
    code, text, _ = run(capsys, "aut", petersen_file)
    assert code == 0
    assert "order 120" in text
    assert "generators" in text


# -- classify ----------------------------------------------------------------------

def test_classify_full_output(capsys):
    code, text, _ = run(capsys, "classify", "100", "22", "0", "6")
    assert code == 0
    assert "srg (100,22,0,6)" in text
    assert "eigenvalues theta=2, tau=-8; multiplicities 77, 22" in text
    assert "forms: RSpecial(r=2); Smith(theta=2,tau=-8); nLS(m=2,n=10)" in text
    assert "exclusion: NoConclusion" in text
    # the display polynomial misses the vanishing q22; the oracle decides
    assert "krein q22: oracle 0, display 60" in text
    assert "krein sign agreement: no" in text


def test_classify_exclusion_positive(capsys):
    code, text, _ = run(capsys, "classify", "35", "16", "6", "8")
    assert code == 0
    assert "forms: none" in text
    assert "exclusion: NotTriplyRegular" in text


def test_classify_imprimitive_stops_early(capsys):
    code, text, _ = run(capsys, "classify", "6", "3", "0", "3")
    assert code == 0
    assert "imprimitive parameters" in text
    assert "krein" not in text


def test_classify_intersection_tables(capsys):
    code, text, _ = run(capsys, "classify", "10", "3", "0", "1")
    assert code == 0
    assert "intersection numbers k=1: [[0,1,0],[1,0,2],[0,2,4]]" in text


def test_classify_infeasible_params(capsys):
    code, _, err = run(capsys, "classify", "10", "3", "0", "0")
    assert code == 2
    assert "error" in err


# -- check-triple -------------------------------------------------------------------

def test_check_triple_json(capsys, petersen_file):
    code, text, _ = run(capsys, "check-triple", petersen_file)
    assert code == 0
    payload = json.loads(text)
    assert payload["verdicts"]["triply_regular"] is False
    assert payload["dims"]["t0"] == 14


# -- reproduce ----------------------------------------------------------------------

def test_reproduce_grid_rows(capsys):
    code, text, _ = run(capsys, "reproduce", "--only", "grids", "--jobs", "2")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS grids_n") for line in lines[:5])
    assert lines[-1] == "5 pass, 0 fail, 0 skip"


def test_reproduce_single_row_inline(capsys):
    code, text, _ = run(capsys, "reproduce", "--only", "multipartite_2_2")
    assert code == 0
    assert "PASS multipartite_2_2" in text


def test_reproduce_unknown_filter(capsys):
    code, _, err = run(capsys, "reproduce", "--only", "frobnicate")
    assert code == 2
    assert "no rows match" in err


def test_reproduce_import_rows_skip_without_directory(capsys):
    code, text, _ = run(capsys, "reproduce", "--only", "import", "--jobs", "1")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[-1] == "0 pass, 0 fail, 4 skip"
    assert all(line.startswith("SKIP import_") for line in lines[:-1])


def _pgammau4_order(q: int) -> int:
    """|PΓU(4,q)| = 2e q^6 (q^2-1)(q^3+1)(q^4-1) for q = p^e."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 1
    while p**e != q:
        e += 1
    return 2 * e * q**6 * (q**2 - 1) * (q**3 + 1) * (q**4 - 1)


def _affine_orthogonal_order(eps: int, m: int, q: int) -> int:
    """q^{2m} |O^eps_{2m}(q)|, with |O^eps_{2m}(q)| =
    2 q^{m(m-1)} (q^m - eps) prod_{i<m} (q^{2i} - 1)."""
    o = 2 * q ** (m * (m - 1)) * (q**m - eps)
    for i in range(1, m):
        o *= q ** (2 * i) - 1
    return q ** (2 * m) * o


def test_conjecture_rows_pin_classical_group_orders():
    pinned = {}
    for name, kind, payload in srgta.cli._ROWS:
        if name.startswith("conjecture_"):
            assert kind == "dims"
            (family, params), aut_order = payload[0], payload[4]
            if family == "o6minus":
                pinned[name] = (aut_order, _pgammau4_order(*params))
            else:
                assert family == "vo"
                pinned[name] = (aut_order, _affine_orthogonal_order(*params))
    assert len(pinned) == 6
    assert all(aut_order == formula for aut_order, formula in pinned.values())
    assert {name: formula for name, (_, formula) in pinned.items()} == {
        "conjecture_o6minus_2": 51_840,
        "conjecture_o6minus_3": 26_127_360,
        "conjecture_vo_plus_2": 1_152,
        "conjecture_vo_plus_3": 2_580_480,
        "conjecture_vo_minus_2": 1_920,
        "conjecture_vo_minus_3": 3_317_760,
    }


def test_reproduce_reports_failure(capsys):
    # an impossible per-row budget turns the verdict unknown, failing the row
    code, text, _ = run(capsys, "reproduce", "--only", "paley_5", "--timeout", "1e-9")
    assert code == 1
    assert "FAIL paley_5" in text
    assert "0 pass, 1 fail, 0 skip" in text


@pytest.mark.parametrize(
    "error",
    [ClosureBudgetExceeded, ClosureSelfTestFailed, PrimeDisagreement,
     OracleMismatch, InternalDisagreement],
)
def test_computation_errors_exit_4(capsys, monkeypatch, petersen_file, error):
    def failing_verdict(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(srgta.cli, "triple_transitivity_verdict", failing_verdict)
    code, _, err = run(capsys, "check-triple", petersen_file)
    assert code == 4
    assert err == f"error: {error.__name__}: injected\n"
    # the battery still reports the same error as a failed row
    code, text, _ = run(capsys, "reproduce", "--only", "paley_5", "--jobs", "1")
    assert code == 1
    assert f"FAIL paley_5: {error.__name__}: injected" in text
