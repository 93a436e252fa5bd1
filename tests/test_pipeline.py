"""scripts/run_pipeline.py is a thin caller of labelnoise.pipeline."""

import csv
import importlib.util
from pathlib import Path

from labelnoise import pipeline

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"


def run_script(argv):
    spec = importlib.util.spec_from_file_location("run_pipeline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def test_script_writes_the_row_of_run_seeds(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run_script(["--seeds", "1", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == "seed,naive_acc,pipeline_acc,margin,lp,lr,epsilon_hat,eps_s,n_selected".split(",")
    [expected] = pipeline.run_seeds(pipeline.DESK, [(1, *pipeline.seed_data(pipeline.DESK, 1))])
    # %.17g round-trips every float exactly
    assert [[float(cell) for cell in row] for row in rows] == [[expected[key] for key in header]]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("seed 1: naive %.3f  pipeline %.3f  margin %+.3f  "
                                 % (expected["naive_acc"], expected["pipeline_acc"],
                                    expected["margin"]))
    assert printed[1:] == ["margin over 1 seeds: min %+.3f  mean %+.3f  max %+.3f"
                           % ((expected["margin"],) * 3), f"wrote {out}"]


def test_script_reports_a_bad_parameter_as_one_error_line(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run_script(["--seeds", "1", "--noise", "1.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: noise ratio must be in [0, 1], got 1.5"]
    assert "Traceback" not in err
    assert not out.exists()


def test_script_makes_the_directory_of_its_out_file(tmp_path):
    out = tmp_path / "new" / "dir" / "p.csv"
    assert run_script(["--seeds", "1", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["seed", "1"]
