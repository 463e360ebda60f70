"""Command line interface, exercised through real subprocesses."""

import json
import subprocess
import sys

import pytest

from substrum.core import parse_substitution
from substrum.corpus import CORPUS, load
from substrum.reduction import pure_base


@pytest.fixture(scope="session")
def run_cli(child_env):
    def run(*args, cwd=None, timeout=None):
        return subprocess.run(
            [sys.executable, "-m", "substrum", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=child_env,
            timeout=timeout,
        )

    return run


@pytest.fixture(scope="module")
def examples_dir(run_cli, tmp_path_factory):
    root = tmp_path_factory.mktemp("examples")
    out = run_cli("examples", str(root / "sub"))
    assert out.returncode == 0
    return root / "sub"


def test_examples_writes_corpus(examples_dir):
    names = sorted(p.name for p in examples_dir.iterdir())
    assert "manifest.json" in names
    assert len(names) == len(CORPUS) + 1
    manifest = json.loads((examples_dir / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert len(manifest["entries"]) == len(CORPUS)
    # every written file must parse back to its in-memory rules
    for entry in manifest["entries"]:
        z = parse_substitution((examples_dir / entry["file"]).read_text())
        assert z.hash_key() == load(entry["name"]).hash_key()


def test_examples_default_directory(run_cli, tmp_path):
    out = run_cli("examples", cwd=tmp_path)
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["directory"] == "substrum-examples"
    assert (tmp_path / "substrum-examples" / "manifest.json").exists()


def test_classify_matches_manifest(run_cli, examples_dir):
    manifest = json.loads((examples_dir / "manifest.json").read_text())
    for entry in manifest["entries"]:
        out = run_cli("classify", str(examples_dir / entry["file"]), "--json")
        payload = json.loads(out.stdout)
        assert payload["verdict"]["verdict"] == entry["expected_verdict"]
        assert entry["expected_reason"] in payload["verdict"]["reasons"]
        expected_code = 3 if "PreconditionFailed" in entry["expected_reason"] else 0
        assert out.returncode == expected_code


def test_classify_output_is_byte_stable(run_cli, examples_dir):
    path = str(examples_dir / "bijective_nonabelian.sub")
    first = run_cli("classify", path, "--json")
    second = run_cli("classify", path, "--json")
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_analyze_report_shape(run_cli, examples_dir):
    out = run_cli("analyze", str(examples_dir / "rudin_shapiro.sub"), "--json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schema_version"] == 1
    assert payload["input"]["alphabet"] == ["0", "1", "2", "3"]
    assert payload["matrix"] == [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert payload["char_poly"] == [1, -2, -2, 4, 0]
    assert payload["height"] == {"g0": 2, "h": 1}
    assert payload["classes"]["k"] == 2
    assert payload["verdict"]["verdict"] == "Inconclusive"
    mods = sorted(e["modulus_lo"] for e in payload["eigenvalues"])
    assert mods[-1] == pytest.approx(2.0, abs=1e-9)


def test_analyze_periodic_exits_3(run_cli, examples_dir):
    out = run_cli("analyze", str(examples_dir / "periodic.sub"), "--json")
    assert out.returncode == 3
    payload = json.loads(out.stdout)
    assert payload["verdict"]["reasons"] == ["PreconditionFailed(periodic)"]


@pytest.mark.parametrize("command", ["classify", "analyze"])
def test_fixed_letter_exits_3(run_cli, tmp_path, command):
    # 0 -> 0 is primitive (m = q = 1) and periodic; its images never grow,
    # which must not stall the aperiodicity test (the timeout turns a hang
    # into a failure)
    path = tmp_path / "fixed.sub"
    path.write_text("0 -> 0\n")
    out = run_cli(command, str(path), timeout=30)
    assert out.returncode == 3
    assert json.loads(out.stdout)["verdict"]["reasons"] == ["PreconditionFailed(periodic)"]


def test_pretty_and_compact_agree(run_cli, examples_dir):
    path = str(examples_dir / "thue_morse.sub")
    compact = run_cli("analyze", path, "--json")
    pretty = run_cli("analyze", path, "--pretty")
    assert json.loads(compact.stdout) == json.loads(pretty.stdout)
    assert len(pretty.stdout) > len(compact.stdout)


def test_missing_file_exits_2(run_cli, tmp_path):
    out = run_cli("classify", str(tmp_path / "nope.sub"))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "substrum:" in out.stderr


def test_malformed_rules_exit_2(run_cli, tmp_path):
    bad = tmp_path / "bad.sub"
    bad.write_text("0 -> 0 1\n0 -> 1 0\n")
    out = run_cli("classify", str(bad))
    assert out.returncode == 2
    assert "substrum:" in out.stderr


def test_purebase_text_round_trips(run_cli, examples_dir):
    out = run_cli("purebase", str(examples_dir / "height_two.sub"))
    assert out.returncode == 0
    eta = parse_substitution(out.stdout)
    expected = pure_base(load("height_two")).eta
    assert eta.hash_key() == expected.hash_key()
    assert eta.size == 6
    assert "# height: 2" in out.stdout


def test_purebase_json(run_cli, examples_dir):
    out = run_cli("purebase", str(examples_dir / "height_two.sub"), "--json")
    payload = json.loads(out.stdout)
    assert payload["height"] == 2
    assert len(payload["phi"]) == 6
    assert payload["coincidence"] is True
    again = parse_substitution(payload["eta_dsl"])
    assert again.hash_key() == pure_base(load("height_two")).eta.hash_key()


def test_purebase_rejects_non_constant_length(run_cli, tmp_path):
    bad = tmp_path / "fib.sub"
    bad.write_text("0 -> 0 1\n1 -> 0\n")
    out = run_cli("purebase", str(bad))
    assert out.returncode == 3


def test_spectrum_report(run_cli, examples_dir):
    out = run_cli("spectrum", str(examples_dir / "bijective_nonabelian.sub"), "--json")
    payload = json.loads(out.stdout)
    assert out.returncode == 0
    assert payload["char_poly"] == [1, -7, 17, -17, 6]
    assert payload["sqrt_q"]["present"] is False
    assert payload["factors"] == [[1, -3], [1, -2], [1, -1]]


def test_estimate_dim_small_budget(run_cli, examples_dir, tmp_path):
    csv_path = tmp_path / "dim.csv"
    args = (
        "estimate-dim",
        str(examples_dir / "bijective_nonabelian.sub"),
        "--function", "1,-1,0,0",
        "--lags", "729",
        "--prefix", "100000",
        "--scales", "1..6",
        "--out", str(csv_path),
        "--json",
    )
    first = run_cli(*args)
    assert first.returncode == 0, first.stderr
    payload = json.loads(first.stdout)
    for key in ("d_hat", "d_pred", "residual", "kappa", "j", "prediction", "csv"):
        assert key in payload
    assert payload["j"] == 2
    assert payload["function"] == ["1", "-1", "0", "0"]
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "r,mass,corrected_mass"
    second = run_cli(*args)
    assert second.stdout == first.stdout


def test_estimate_dim_wrong_function_length(run_cli, examples_dir):
    out = run_cli(
        "estimate-dim",
        str(examples_dir / "thue_morse.sub"),
        "--function", "1,-1,0",
    )
    assert out.returncode == 2


def test_estimate_dim_too_few_scales(run_cli, examples_dir, tmp_path):
    out = run_cli(
        "estimate-dim",
        str(examples_dir / "thue_morse.sub"),
        "--function", "1,-1",
        "--scales", "1..3",
        "--lags", "64",
        "--prefix", "50000",
        "--out", str(tmp_path / "dim.csv"),
    )
    assert out.returncode == 4
    assert "substrum:" in out.stderr


@pytest.mark.parametrize("command", ["estimate-dim", "examples"])
def test_unwritable_output_exits_2(run_cli, examples_dir, tmp_path, command):
    # nothing can be created under a regular file, not even by root
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command == "examples":
        args = ("examples", str(blocker / "corpus"))
    else:
        args = (
            "estimate-dim",
            str(examples_dir / "thue_morse.sub"),
            "--function", "1,-1",
            "--lags", "64",
            "--prefix", "50000",
            "--out", str(blocker / "dim.csv"),
        )
    out = run_cli(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith(f"substrum: cannot write {blocker}")
    assert "Traceback" not in out.stderr


def test_estimate_dim_length_one_exits_4(run_cli, tmp_path):
    path = tmp_path / "swap.sub"
    path.write_text("0 -> 1\n1 -> 0\n")
    out = run_cli("estimate-dim", str(path), "--function", "1,-1", "--out", str(tmp_path / "dim.csv"))
    assert out.returncode == 4
    assert out.stderr.startswith("substrum: estimate-dim: ")
    assert "Traceback" not in out.stderr


def test_estimate_dim_prefix_above_2_53_exits_4(run_cli, examples_dir, tmp_path):
    # lag counts are exact in float64 only up to L = 2^53
    out = run_cli(
        "estimate-dim",
        str(examples_dir / "thue_morse.sub"),
        "--function", "1,-1",
        "--prefix", str(2**53 + 1),
        "--out", str(tmp_path / "dim.csv"),
    )
    assert out.returncode == 4
    assert out.stderr.startswith("substrum: estimate-dim: ")
    assert "2^53" in out.stderr
    assert "Traceback" not in out.stderr


NO_SYMPY_CHILD = """
import contextlib, io, json, pathlib, sys
import substrum
from substrum import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()

def heavy():
    return sorted({'numpy', 'sympy'} & set(sys.modules))

loaded = [heavy()]
for path in sorted(pathlib.Path(sys.argv[1]).glob('*.sub')):
    for command in ('classify', 'analyze', 'spectrum', 'purebase'):
        run(command, str(path))
        loaded.append(heavy())
code, out = run('spectrum', sys.argv[2])
print(json.dumps({'loaded': loaded, 'code': code, 'report': json.loads(out),
                  'sympy_after': 'sympy' in sys.modules}))
"""


def test_cli_does_not_load_sympy_on_the_corpus(child_env, examples_dir, tmp_path):
    # every corpus factor has degree <= 2, so closed forms decide everything;
    # sympy is imported only to isolate roots of a degree-3 factor.  The
    # exact pipeline is pure Python: only the estimators load numpy
    deg3 = tmp_path / "deg3.sub"
    deg3.write_text("0 -> 3 0\n1 -> 2 2\n2 -> 0 2\n3 -> 1 2\n")
    out = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_CHILD, str(examples_dir), str(deg3)],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["loaded"] == [[]] * (1 + 4 * len(CORPUS))
    assert result["code"] == 0
    report = result["report"]
    assert report["char_poly"] == [1, -2, 1, -1, -2]  # (x - 2)(x^3 + x + 1)
    assert len(report["eigenvalues"]) == 4
    for ev in report["eigenvalues"]:
        assert 0 <= ev["modulus_hi"] - ev["modulus_lo"] < 1e-10
    assert result["sympy_after"]


def test_stdout_is_pure_json(run_cli, examples_dir):
    # diagnostics (including numba warnings) must never pollute stdout
    out = run_cli("analyze", str(examples_dir / "small_second_eigenvalue.sub"), "--json")
    json.loads(out.stdout)


def test_no_arguments_exits_2(run_cli):
    out = run_cli()
    assert out.returncode == 2


def test_precision_bits_flag_is_gone(run_cli, examples_dir):
    # every eigenvalue decision is exact, so no precision can be asked for
    out = run_cli("classify", str(examples_dir / "thue_morse.sub"), "--precision-bits", "64")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "usage:" in out.stderr
    assert "--precision-bits" in out.stderr
