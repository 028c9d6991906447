import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_csvs.py"


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _run(a, b):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_timestamp_lines_ignored(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, stamp in ((a, "2026-01-01T00:00:00"), (b, "2026-02-02T12:34:56")):
        _write(root, "x_amp.csv", f"# experiment = x\n# timestamp = {stamp}\nt,v\n0,1.5\n")
        _write(root, "sub/y_se.csv", "t,v\n1,2\n")
        _write(root, "notes.txt", stamp)          # not a CSV: never compared
    code, out = _run(a, b)
    assert code == 0
    assert out == ["2 identical, 0 differing, 0 missing"]


def test_differing_and_missing_fail(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "same.csv", "t\n1\n")
    _write(b, "same.csv", "t\n1\n")
    _write(a, "moved.csv", "t\n1.0\n")
    _write(b, "moved.csv", "t\n1.0000000000000002\n")
    _write(a, "only_a.csv", "t\n")
    _write(b, "deep/only_b.csv", "t\n")
    code, out = _run(a, b)
    assert code == 1
    assert out == ["differs: moved.csv", "  columns: t", "missing: deep/only_b.csv",
                   "missing: only_a.csv", "1 identical, 1 differing, 2 missing"]


def test_differing_columns_named(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    head = "# schema = 1\nlambda,Delta,pred_error,lambda1,converged\n"
    _write(a, "base.csv", head + "3.0,0.5,0.25,0.1,0\n3.0,3.5,0.5,0.2,1\n")
    _write(b, "base.csv", head + "3.0,0.5,0.24,0.1,1\n3.0,3.5,0.5,0.2,1\n")
    _write(a, "trailer.csv", head + "3.0,0.5,0.25,0.1,0\n")
    _write(b, "trailer.csv", head + "3.0,0.5,0.25,0.1,0\n# unconverged_tune_fits = x\n")
    _write(a, "rows.csv", "t,v\n0,1\n")
    _write(b, "rows.csv", "t,v\n0,1\n1,1\n")
    _write(a, "header.csv", "t,v\n0,1\n")
    _write(b, "header.csv", "t,w\n0,1\n")
    code, out = _run(a, b)
    assert code == 1
    assert out == ["differs: base.csv", "  columns: pred_error, converged",
                   "differs: header.csv", "  columns: v, w",
                   "differs: rows.csv", "  columns: t, v",
                   "differs: trailer.csv", "  columns: none",
                   "0 identical, 4 differing, 0 missing"]


def test_bad_arguments(tmp_path):
    assert _run(tmp_path, tmp_path / "absent")[0] == 2
