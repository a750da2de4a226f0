import json
import math
import subprocess
import sys

from concavia import cli
from concavia.atlas import phi
from concavia.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_default_prints_derived_radii(capsys):
    code, out = _run(capsys, ["params"])
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == 1.04
    assert doc["validated"] is True


def test_params_chain_violation_exits_2(capsys):
    code, out = _run(capsys, ["params", "--params.rho2=1.2"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ChainViolation"
    assert "rho2" in doc["message"]


def test_params_missing_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"rho0": 0.88, "rho1": 0.9}}))
    code, out = _run(capsys, ["params", "--config", str(cfg)])
    assert code == 2
    assert "error" in json.loads(out)


def test_unreadable_config_exits_2(tmp_path, capsys):
    code, out = _run(capsys, ["params", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_unknown_knob_exits_2(capsys):
    for knob in ("bogus", "tol"):
        code, out = _run(capsys, ["verify", "--suite", "atlas", f"--knobs.{knob}=1"])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "ConfigError"
        assert f"unknown knobs: ['{knob}']" in doc["message"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_atlas_writes_passing_report(tmp_path, capsys):
    code, out = _run(capsys, ["verify", "--suite", "atlas",
                              "--outputs", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report_atlas.json").read_text())
    assert rep["passed"] is True
    certs = rep["suites"]["atlas"]["certificates"]
    assert certs["params_chain"]["passed"]
    assert certs["phi_branch_law"]["passed"]
    assert certs["Phi_branch_independence"]["passed"]


def test_phi_branch_law_fails_on_a_nan_error(tmp_path, capsys, monkeypatch):
    calls = []

    def nan_once(w, k):
        calls.append(k)
        val = phi(w, k)
        if len(calls) == 3:
            val[8] = complex("nan")
        return val

    monkeypatch.setattr(cli, "phi", nan_once)
    code, _ = _run(capsys, ["verify", "--suite", "atlas", "--outputs", str(tmp_path)])
    assert code == 1
    rep = json.loads((tmp_path / "report_atlas.json").read_text())
    cert = rep["suites"]["atlas"]["certificates"]["phi_branch_law"]
    assert cert["passed"] is False
    assert cert["margin"] == -math.inf
    assert cert["details"]["max_rel_err"] == math.inf


def test_verify_openbook_reports_conjugation_margin(tmp_path, capsys):
    code, _ = _run(capsys, ["verify", "--suite", "openbook",
                            "--outputs", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report_openbook.json").read_text())
    conj = rep["suites"]["openbook"]["certificates"]["conjugation"]
    assert conj["passed"] and conj["margin"] > 0


def test_verify_family_infeasible_knob_exits_1(tmp_path, capsys):
    code, _ = _run(capsys, ["verify", "--suite", "family",
                            "--knobs.eps2=0.2", "--outputs", str(tmp_path)])
    assert code == 1
    rep = json.loads((tmp_path / "report_family.json").read_text())
    err = rep["suites"]["family"]["error"]
    assert err["type"] == "FeasibilityError"


def test_verify_all_reports_lambda(tmp_path, capsys):
    code, _ = _run(capsys, ["verify", "--suite", "all",
                            "--knobs.n_tau=8", "--knobs.n_samples=100",
                            "--outputs", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "report_all.json").read_text())
    assert rep["passed"] is True
    assert rep["suites"]["family"]["lambda"] > 0


def test_verify_report_byte_identical(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _ = _run(capsys, ["verify", "--suite", "levi",
                                "--outputs", str(tmp_path / sub)])
        assert code == 0
    assert (tmp_path / "a" / "report_levi.json").read_bytes() == \
        (tmp_path / "b" / "report_levi.json").read_bytes()


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_binding_header_and_rows(tmp_path, capsys):
    code, _ = _run(capsys, ["export", "--what", "binding",
                            "--outputs", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "binding.csv").read_text().splitlines()
    assert lines[0] == "circle,theta1,re_z1,im_z1,re_z2,im_z2"
    assert len(lines) == 1 + 128
    assert lines[1].startswith("c1,")


def test_export_family_one_csv_per_slice(tmp_path, capsys):
    code, _ = _run(capsys, ["export", "--what", "family",
                            "--knobs.n_tau=8", "--outputs", str(tmp_path)])
    assert code == 0
    files = sorted(tmp_path.glob("family_tau_*.csv"))
    assert len(files) == 8
    header = files[0].read_text().splitlines()[0]
    assert header == "piece,abscissa,r1,r2"


def test_export_m1_respects_seeded_determinism(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _ = _run(capsys, ["export", "--what", "m1", "--seed=7",
                                "--outputs", str(tmp_path / sub)])
        assert code == 0
    assert (tmp_path / "a" / "m1.csv").read_bytes() == \
        (tmp_path / "b" / "m1.csv").read_bytes()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "concavia.cli", "params"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == 1.04


_NO_SCIPY = """
import sys
from concavia import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(loaded, file=sys.stderr)
sys.exit(code if not loaded else 99)
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    # fresh interpreters, so no other test's import can hide a load
    for argv in (["params"], ["verify", "--suite", "all", "--outputs", str(tmp_path)]):
        proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stderr.strip() == "[]"
