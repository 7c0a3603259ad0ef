import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coflow
from coflow.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("COFLOW_SEED", raising=False)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_passes(capsys):
    code, out = run(["verify", "--seed", "7", "--trials", "20"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 7
    assert report["trials"] == 20
    assert report["status"] == "pass"
    assert all(c["status"] == "pass" and c["failures"] == 0 for c in report["checks"])
    ids = {c["id"] for c in report["checks"]}
    assert "nilpotent-differential" in ids
    assert "dual-coclosed" in ids
    assert "first_failure" not in report


def test_verify_reports_a_dual_form_that_is_not_closed(monkeypatch, capsys):
    # a d that adds e1 ^ alpha on 4-forms makes psi fail to be closed at every point
    from coflow import g2_ansatz
    from coflow.invariant_forms import E1, wedge

    derive = g2_ansatz.exterior_derivative

    def broken(alpha):
        d = derive(alpha)
        return d + wedge(E1, alpha) if alpha.degree() == 4 else d

    monkeypatch.setattr(g2_ansatz, "exterior_derivative", broken)
    code = main(["verify", "--seed", "7", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "fail"
    assert report["first_failure"]["id"] == "dual-coclosed"
    status = {c["id"]: (c["status"], c["failures"]) for c in report["checks"]}
    assert status.pop("dual-coclosed") == ("fail", 2)
    assert set(status.values()) == {("pass", 0)}


def test_verify_reports_disagreeing_scalar_torsion_routes(monkeypatch, capsys):
    # a closed form off by 1/d at every point: the suite reports it, nothing raises
    from coflow import g2_ansatz

    closed = g2_ansatz.tau0_terms

    def broken(a, b, q, eps):
        num, den = closed(a, b, q, eps)
        return num + 1, den

    monkeypatch.setattr(g2_ansatz, "tau0_terms", broken)
    code = main(["verify", "--seed", "7", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "fail"
    assert report["first_failure"]["id"] == "tau0-closed-form"
    status = {c["id"]: (c["status"], c["failures"]) for c in report["checks"]}
    assert status.pop("tau0-closed-form") == ("fail", 2)
    assert set(status.values()) == {("pass", 0)}


def test_verify_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "0"])
    assert exc.value.code == 2


def test_verify_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("COFLOW_SEED", "11")
    code, out = run(["verify", "--seed", "7", "--trials", "1"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 11

    monkeypatch.setenv("COFLOW_SEED", "eleven")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "7", "--trials", "1"])
    assert exc.value.code == 2


def test_verify_is_deterministic(capsys):
    _, first = run(["verify", "--seed", "3", "--trials", "2"], capsys)
    _, second = run(["verify", "--seed", "3", "--trials", "2"], capsys)
    assert first == second


def test_verify_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, printed = run(["verify", "--trials", "1", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(printed)


def test_flow_converges_to_the_round_point(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, printed = run([
        "flow", "--flavor", "coflow", "--eps", "-1", "--kappa", "4",
        "--a0", "1.3", "--b0", "0.8", "--c0", "1.1", "--out", str(out),
    ], capsys)
    assert code == 0
    sidecar = json.loads(printed)
    assert sidecar["reason"] == "converged"
    final = sidecar["final_state"]
    assert max(abs(final[k] - 1.0) for k in ("a", "b", "c")) < 1e-6

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "a", "b", "c", "tau0", "V", "X", "Y"]
    assert len(rows) - 1 == sidecar["steps"] + 1
    assert json.loads((tmp_path / "traj.json").read_text()) == sidecar


def test_readme_flow_csv_is_bitwise_pinned(tmp_path, capsys):
    # the README's first flow command, recorded while the step loop still built
    # every derived column: deriving them on read must move no byte
    out = tmp_path / "run.csv"
    code, _ = run(["flow", "--flavor", "coflow", "--eps", "-1", "--kappa", "4",
                   "--a0", "1.3", "--b0", "0.8", "--c0", "1.1", "--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "16ded4b021f595a156eb64c3ed1f814f14ed98bc81063b1b625f36f725c6ad26"


def test_flow_perturbed_unstable_mode_escapes(tmp_path, capsys):
    out = tmp_path / "esc.csv"
    code, printed = run([
        "flow", "--flavor", "modified", "--eps", "-1", "--kappa", "4",
        "--gamma", "3", "--perturb", "unstable", "--delta", "1e-3",
        "--out", str(out),
    ], capsys)
    assert code == 0
    sidecar = json.loads(printed)
    assert sidecar["reason"] == "diverged-from-critical"
    final = sidecar["final_state"]
    dist = math.dist((final["a"], final["b"], final["c"]), (1.0, 1.0, 1.0))
    assert dist >= 1e-1


def test_flow_input_validation(tmp_path):
    base = ["flow", "--flavor", "coflow", "--eps", "-1",
            "--out", str(tmp_path / "t.csv")]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--a0", "-1", "--b0", "1", "--c0", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(base + ["--a0", "1", "--b0", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(base + ["--a0", "1", "--b0", "1", "--c0", "1",
                     "--perturb", "unstable"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--flavor", "sideways", "--a0", "1", "--b0", "1",
              "--c0", "1", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("extra", [
    ["--kappa", "inf"],
    ["--rtol", "nan"],
])
def test_flow_rejects_non_finite_settings(tmp_path, capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--a0", "1", "--b0", "1", "--c0", "1",
              "--out", str(tmp_path / "t.csv")] + extra)
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_flow_perturb_rejects_stable_points(tmp_path):
    # the normalized flavor has no unstable direction to perturb along
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--flavor", "coflow", "--eps", "-1", "--kappa", "4",
              "--perturb", "unstable", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 2


def test_stability_modified_plus(capsys):
    code, out = run(["stability", "--flavor", "modified", "--eps", "1",
                     "--kappa", "4", "--gamma", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 1
    assert report["window"]["verdict"] == "destabilizing"
    vec = report["eigenvectors"][0]
    target = [-1 / math.sqrt(5), 2 / math.sqrt(5), 0.0]
    gap = min(math.dist(vec, target), math.dist([-x for x in vec], target))
    assert gap < 1e-8
    assert report["unstable_form"] is not None


def test_stability_normalized_minus(capsys):
    code, out = run(["stability", "--flavor", "coflow", "--eps", "-1",
                     "--kappa", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 0
    got = [e["re"] for e in report["eigenvalues"]]
    assert got == pytest.approx([-4.0, -8.0, -64.0], rel=1e-6)
    assert report["unstable_form"] is None
    assert report["gamma"] is None


def test_stability_rescaled_point(capsys):
    code, out = run(["stability", "--flavor", "modified", "--eps", "-1",
                     "--kappa", "4", "--gamma", "3", "--point", "rescaled"],
                    capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 1
    assert report["tau0"] == pytest.approx(8.0)


def test_stability_rescaled_double_eigenvalue(capsys):
    # exact spectrum {15k^2/4, -5k^2, -5k^2} = {60, -80, -80} at kappa = 4
    code, out = run(["stability", "--flavor", "modified", "--eps", "1", "--kappa", "4",
                     "--gamma", "4", "--point", "rescaled"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 1
    assert [e["re"] for e in report["eigenvalues"]] == pytest.approx([60.0, -80.0, -80.0], rel=1e-6)
    assert all(e["residual"] < 1e-6 for e in report["eigenvalues"])


@pytest.mark.parametrize("eps, form", [
    ("1", {"e12^w3": "9/25", "e13^w2": "9/50", "e23^w1": "-9/50"}),
    ("-1", {"e12^w3": "1/2", "e13^w2": "-1/2", "e23^w1": "1/2", "vol": "-1"}),
])
def test_stability_unstable_form_is_pinned(capsys, eps, form):
    code, out = run(["stability", "--flavor", "modified", "--eps", eps,
                     "--kappa", "4", "--gamma", "3"], capsys)
    assert code == 0
    assert json.loads(out)["unstable_form"] == form


def test_stability_at_a_formerly_failing_newton_case(capsys):
    code, out = run(["stability", "--eps", "-1", "--kappa", "6", "--gamma", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 1
    assert report["point"] == {"a": 4 / 6, "b": 4 / 6, "c": 4 / 6}


def test_stability_rescaled_kernel_at_gamma_16(capsys):
    # exact spectrum 5(g-1)(g-2)k^2/8, 5(g-1)(g-16)k^2/36, -5(g-1)(2g-5)k^2/9
    # = 2100, 0, -3600: index 1 plus a kernel direction
    code, out = run(["stability", "--flavor", "modified", "--eps", "1", "--kappa", "4",
                     "--gamma", "16", "--point", "rescaled"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 1
    jnorm = math.sqrt(sum(x * x for row in report["jacobian"] for x in row))
    marginal = [abs(e["re"]) < 1e-9 * jnorm for e in report["eigenvalues"]]
    assert marginal == [False, True, False]
    assert report["unstable_form"] == {
        "vol": "4/125", "e23^w1": "-4/625", "e13^w2": "4/625", "e12^w3": "-4/625"}


def test_stability_decides_the_eight_thirds_kernel_exactly(capsys):
    # the eps = -1 rescaled point's Psi value -(g-1)(3g-8)k^2/4 is positive just
    # below g = 8/3 (index 2) and exactly 0 at it (index 1 plus a kernel)
    code, out = run(["stability", "--eps", "-1", "--kappa", "4", "--gamma", "2.6666666666666665",
                     "--point", "rescaled"], capsys)
    assert code == 0
    assert json.loads(out)["index"] == 2

    code, out = run(["stability", "--eps", "-1", "--kappa", "4", "--gamma", "8/3",
                     "--point", "rescaled"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 1
    assert [e["re"] for e in report["eigenvalues"]][1:] == [0.0, -2000 / 9]
    assert '"re": 0.0,' in out


def test_stability_at_a_large_kappa(capsys):
    code, out = run(["stability", "--eps", "-1", "--kappa", "1000", "--gamma", "3"], capsys)
    assert code == 0
    assert json.loads(out)["index"] == 1


@pytest.mark.parametrize("kappa", ("1e-200", "1e80"))
def test_stability_refuses_a_kappa_beyond_the_float_range(capsys, kappa):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--eps", "1", "--kappa", kappa, "--gamma", "3"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("eps", ([], ["--eps", "1"]))
def test_normalized_stability_classifies_below_its_float_rates_range(capsys, eps):
    # the float rates do not evaluate at kappa = 1e-80; the index is read from the exact table
    code, out = run(["stability", "--flavor", "normalized", "--kappa", "1e-80", *eps], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 0
    assert all(e["re"] < 0 for e in report["eigenvalues"])


def test_flow_escapes_from_a_small_kappa_point(tmp_path, capsys):
    code, printed = run(["flow", "--flavor", "modified", "--eps", "1", "--kappa", "0.01",
                         "--perturb", "unstable", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 0
    assert json.loads(printed)["reason"] in ("horizon", "diverged-from-critical")


def test_stability_input_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--flavor", "modified", "--gamma", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--flavor", "coflow", "--point", "rescaled"])
    assert exc.value.code == 2


def test_stability_reads_the_typed_decimals_exactly(capsys):
    # kappa = 3/10 exactly, so the rescaled point and its unstable form are small rationals
    code, out = run(["stability", "--eps", "1", "--kappa", "0.3", "--gamma", "16",
                     "--point", "rescaled"], capsys)
    assert code == 0
    assert json.loads(out)["unstable_form"] == {
        "vol": "256/45", "e23^w1": "-256/225", "e13^w2": "256/225", "e12^w3": "-256/225"}

    # mu = -(3/2)(gamma - 1) at gamma = 21/10 exactly
    code, out = run(["stability", "--eps", "-1", "--kappa", "0.1", "--gamma", "2.1",
                     "--point", "rescaled"], capsys)
    assert code == 0
    assert json.loads(out)["window"] == {"mu": -1.65, "verdict": "destabilizing"}


@pytest.mark.parametrize("argv, message", [
    (["stability", "--gamma", "2"], "modified flavor requires gamma > 2"),
    (["sphere-index", "--l-min", "-1", "--l-max", "3"],
     "level must be a non-negative integer, got -1"),
    (["sphere-index", "--l-min", "5", "--l-max", "3"], "empty level range [5, 3]"),
    (["sphere-index", "--l-min", "0", "--l-max", "3", "--gamma", "2"],
     "the window requires gamma > 2"),
])
def test_input_checks_left_to_the_library_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_sphere_index_table_and_total(capsys):
    code, out = run(["sphere-index", "--l-min", "3", "--l-max", "6",
                     "--gamma", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "7047"
    assert lines[0] == "l,eigenvalue,d,d0,d1,lower_bound,in_window(gamma)"
    assert lines[1] == "3,-7,2400,672,1568,160,true"


def test_sphere_index_zero_total_below_the_clamp(capsys):
    code, out = run(["sphere-index", "--l-min", "1", "--l-max", "2"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "0"


def test_sphere_index_csv_output(tmp_path, capsys):
    out = tmp_path / "levels.csv"
    code, printed = run(["sphere-index", "--l-min", "3", "--l-max", "6",
                         "--gamma", "2.1", "--out", str(out)], capsys)
    assert code == 0
    assert printed.strip() == "7047"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5
    assert rows[1][0] == "3"


def test_sphere_index_table_and_csv_share_their_rows(tmp_path, capsys):
    # the same rows: "\n" line ends on stdout, the csv module's "\r\n" in the file
    argv = ["sphere-index", "--l-min", "0", "--l-max", "30", "--gamma", "3.5"]
    code, printed = run(argv, capsys)
    assert code == 0
    out = tmp_path / "levels.csv"
    code, total = run(argv + ["--out", str(out)], capsys)
    assert code == 0
    lines = printed.splitlines()
    assert lines[-1] == total.strip()
    assert out.read_bytes() == "".join(line + "\r\n" for line in lines[:-1]).encode()


def test_sphere_index_input_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sphere-index", "--l-min", "5", "--l-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sphere-index", "--l-min", "-1", "--l-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sphere-index", "--l-min", "0", "--l-max", "3", "--gamma", "2"])
    assert exc.value.code == 2


VERIFY_IDS = ("nilpotent-differential", "star-involution", "star-pairing",
              "horizontal-products", "unit-star", "dual-coclosed", "star-duality",
              "normalization-constants", "dphi-coefficients", "tau0-closed-form",
              "torsion-split", "laplacian-coefficients", "dtau3-projection",
              "volume-pairing")


def test_verify_report_is_pinned(capsys):
    # the full report of the README command, recorded before the algebra's
    # structure tables were memoised; compared as text
    code, out = run(["verify", "--seed", "7", "--trials", "20"], capsys)
    assert code == 0
    expected = {
        "seed": 7,
        "trials": 20,
        "checks": [{"id": cid, "status": "pass", "failures": 0} for cid in VERIFY_IDS],
        "status": "pass",
    }
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("argv, message", [
    (["--kappa", "inf"], "--kappa must be finite"),
    (["--kappa", "nan"], "--kappa must be finite"),
    (["--kappa", "-1"], "--kappa must be positive"),
    (["--gamma", "inf"], "--gamma must be finite"),
    # finite and positive, but the closed-form point overflows a float
    (["--flavor", "coflow", "--kappa", "1e-300"], "out of range (OverflowError"),
])
def test_stability_rejects_unusable_kappa_and_gamma(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["stability"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_sphere_index_rejects_non_finite_gamma(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sphere-index", "--l-min", "1", "--l-max", "3", "--gamma", "inf"])
    assert exc.value.code == 2
    assert "--gamma must be finite" in capsys.readouterr().err


def test_flow_rejects_a_perturbation_that_leaves_the_positive_scales(tmp_path, capsys):
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--flavor", "modified", "--perturb", "unstable", "--delta", "10",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--delta 10.0 moves the start off the positive scales" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1", "-1"])
def test_flow_rejects_a_perturbation_that_starts_converged(tmp_path, capsys, eps):
    # 1e-10 off the point the rate is below the default --tol-conv 1e-8
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--flavor", "modified", "--eps", eps, "--perturb", "unstable",
              "--delta", "1e-10", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--delta 1e-10" in err and "--tol-conv 1e-08" in err
    assert list(tmp_path.iterdir()) == []


def test_flow_from_a_degenerate_start_reports_degeneracy(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, printed = run(["flow", "--a0", "1e-300", "--b0", "1", "--c0", "1",
                         "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(printed)["reason"] == "degeneracy"
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["tau0"] == "nan"


@pytest.mark.parametrize("argv, written", [
    (["verify", "--seed", "7", "--trials", "1", "--out", "report.json"], ["report.json"]),
    (["flow", "--a0", "1", "--b0", "1", "--c0", "1e300", "--out", "t.csv"], ["t.csv", "t.json"]),
    (["stability", "--out", "stability.json"], ["stability.json"]),
    (["sphere-index", "--l-min", "1", "--l-max", "20"], []),
])
def test_a_closed_stdout_ends_the_output_not_the_command(argv, written, tmp_path):
    # the reader is gone before the command prints, as with `coflow ... | head -1`
    src = str(Path(coflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("COFLOW_SEED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "coflow.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""
    for name in written:
        assert (tmp_path / name).stat().st_size > 0


def _run_module(argv, cwd):
    src = str(Path(coflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("COFLOW_SEED", None)
    return subprocess.run([sys.executable, "-m", "coflow.cli", *argv], capture_output=True,
                          cwd=cwd, env=env, timeout=120)


_COMMANDS = {
    "verify": ["verify", "--seed", "7", "--trials", "1"],
    "flow": ["flow", "--a0", "1", "--b0", "1", "--c0", "1e300"],
    "stability": ["stability"],
    "sphere-index": ["sphere-index", "--l-min", "1", "--l-max", "20"],
}


@pytest.mark.parametrize("out", ["missing/out.txt", "."], ids=["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_an_unwritable_out_exits_2_with_no_traceback(command, out, tmp_path):
    proc = _run_module(_COMMANDS[command] + ["--out", out], tmp_path)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert f"error: cannot write {out}: ".encode() in proc.stderr
    assert proc.stdout == b""


def test_an_unwritable_flow_sidecar_exits_2_with_no_traceback(tmp_path):
    (tmp_path / "t.json").mkdir()
    proc = _run_module(_COMMANDS["flow"] + ["--out", "t.csv"], tmp_path)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert b"error: cannot write t.json: " in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("argv, sidecar_dir", [
    (["verify", "--trials", "100000", "--out", "missing/v.json"], False),
    (["verify", "--out", "."], False),
    (["flow", "--a0", "1", "--b0", "1", "--c0", "1", "--out", "missing/t.csv"], False),
    (["flow", "--a0", "1", "--b0", "1", "--c0", "1", "--out", "."], False),
    (["flow", "--perturb", "unstable", "--flavor", "modified", "--out", "t.csv"], True),
], ids=["verify-missing-directory", "verify-a-directory", "flow-missing-directory",
        "flow-a-directory", "flow-sidecar-a-directory"])
def test_an_unwritable_out_is_refused_before_any_work(argv, sidecar_dir, monkeypatch,
                                                       tmp_path, capsys):
    import coflow.cli as cli

    calls = []

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("algebra_checks", "identity_suite", "integrate"):
        monkeypatch.setattr(cli, name, counted(name))
    monkeypatch.chdir(tmp_path)
    if sidecar_dir:
        (tmp_path / "t.json").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert calls == []
    captured = capsys.readouterr()
    target = "t.json" if sidecar_dir else argv[-1]
    assert f"error: cannot write {target}: " in captured.err
    assert captured.out == ""


def test_stability_reads_a_ratio_for_gamma(capsys):
    # gamma = 8/3 exactly: the kernel of the eps = -1 rescaled point, which
    # the float nearest 8/3 misses
    code, out = run(["stability", "--eps", "-1", "--kappa", "4", "--gamma", "8/3",
                     "--point", "rescaled"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 1
    assert report["gamma"] == 8 / 3
    jnorm = math.hypot(*(x for row in report["jacobian"] for x in row))
    assert sum(abs(e["re"]) < 1e-9 * jnorm for e in report["eigenvalues"]) == 1
    code, out = run(["sphere-index", "--l-min", "1", "--l-max", "4", "--gamma", "8/3"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "853"


def test_stability_reads_every_typed_digit_of_kappa(capsys):
    forms = []
    for kappa in ("0.3", "0.30000000000000001"):
        code, out = run(["stability", "--eps", "1", "--kappa", kappa, "--gamma", "16",
                         "--point", "rescaled"], capsys)
        assert code == 0
        forms.append(json.loads(out)["unstable_form"])
    assert forms[0] == {
        "vol": "256/45", "e23^w1": "-256/225", "e13^w2": "256/225", "e12^w3": "-256/225"}
    assert forms[1] != forms[0]


@pytest.mark.parametrize("argv, message", [
    (["--gamma", "8/0"], "--gamma must be a decimal or a ratio p/q, got '8/0'"),
    (["--gamma", "three"], "--gamma must be a decimal or a ratio p/q, got 'three'"),
    (["--kappa=-8/3"], "--kappa must be positive, got -8/3"),
    (["--kappa", "0"], "--kappa must be positive, got 0"),
    # underflows to 0.0 as a float, so it is read as 0 with no power of ten expanded
    (["--gamma", "1e-999999999"], "modified flavor requires gamma > 2"),
])
def test_stability_rejects_unreadable_ratios(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["stability"] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, tau0", [
    (["--flavor", "modified", "--eps", "1", "--kappa", "1e-77", "--gamma", "3"], 1e-77),
    (["--flavor", "coflow", "--eps", "1", "--kappa", "1000"], 1000.0),
])
def test_stability_prints_tau0_as_the_points_kappa_eff(argv, tau0, capsys):
    # once tau0 of the float state: 0.0 (the closed form overflowed) and 999.9999999999998
    code, out = run(["stability"] + argv, capsys)
    assert code == 0
    assert json.loads(out)["tau0"] == tau0
    assert f'  "tau0": {tau0!r},' in out.splitlines()


# every flow setting the parser reads from FlowConfig, with a valid value other than its default
_PATCHED_FLOW_DEFAULTS = {
    "eps": 1, "kappa": 2.0, "gamma": 2.5, "t_max": 0.5, "rtol": 1e-8, "atol": 1e-10,
    "max_steps": 7, "tol_conv": 1e-6, "escape_radius": 0.25,
}


def _recording_integrate(monkeypatch):
    """Wrap cli.integrate; returns the list of (config, trajectory) pairs it saw."""
    import coflow.cli as cli

    real = cli.integrate
    seen = []

    def recorded(config, initial):
        traj = real(config, initial)
        seen.append((config, traj))
        return traj

    monkeypatch.setattr(cli, "integrate", recorded)
    return seen


def test_flow_reads_its_defaults_from_flow_config(monkeypatch, tmp_path, capsys):
    from coflow.coflow_dynamics import FlowConfig

    for name, value in _PATCHED_FLOW_DEFAULTS.items():
        assert getattr(FlowConfig, name) != value
        monkeypatch.setattr(FlowConfig, name, value)
    seen = _recording_integrate(monkeypatch)
    code, _ = run(["flow", "--a0", "1.3", "--b0", "0.8", "--c0", "1.1",
                   "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0
    [(config, _)] = seen
    assert {name: getattr(config, name) for name in _PATCHED_FLOW_DEFAULTS} == _PATCHED_FLOW_DEFAULTS


def test_a_perturbed_start_above_the_ceiling_reports_blow_up(tmp_path, capsys):
    # at kappa 1e-9 the point is (4e9, 4e9, 4e9), above the 1e8 ceiling, and its
    # rates are far below --tol-conv: integrate's first test, the ceiling, decides
    out = tmp_path / "t.csv"
    code, printed = run(["flow", "--flavor", "modified", "--eps", "-1", "--perturb", "unstable",
                         "--kappa", "1e-9", "--delta", "1e-3", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(printed)
    assert (report["reason"], report["steps"]) == ("blow-up", 0)
    assert json.loads((tmp_path / "t.json").read_text()) == report
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 1


@pytest.mark.parametrize("eps", ["1", "-1"])
def test_the_converged_refusal_is_integrates_own_stop(monkeypatch, tmp_path, capsys, eps):
    seen = _recording_integrate(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--flavor", "modified", "--eps", eps, "--perturb", "unstable",
              "--delta", "1e-10", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert [(traj.reason, traj.steps) for _, traj in seen] == [("converged", 0)]
    assert "starts the run already converged" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_stability_exits_1_when_a_psi_identity_fails(monkeypatch, capsys):
    import coflow.cli as cli
    from coflow.stability import PsiIdentityReport

    monkeypatch.setattr(cli, "verify_psi_identities",
                        lambda eps, kappa: PsiIdentityReport(True, True, False, True, ("broken",)))
    code = main(["stability"])
    captured = capsys.readouterr()
    assert code == 1
    assert "psi identity sub-checks FAILED" in captured.err
    assert json.loads(captured.out)["index"] == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_write_that_fails_past_the_checks_exits_2_with_no_traceback(capsys):
    # /dev/full passes the up-front checks (a writable file in a directory) and fails the write
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "1", "--out", "/dev/full"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write /dev/full: No space left on device" in err
    assert "Traceback" not in err
