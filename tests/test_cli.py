import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import muellerkit
from muellerkit.cli import main

SRC = str(Path(muellerkit.__file__).resolve().parents[1])


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_apply_identity_echoes(tmp_path, capsys):
    m = _write(tmp_path, "id.json", {"m": list(np.eye(4).reshape(16))})
    s = _write(tmp_path, "s.json", {"s0": 1.0, "s": [0.1, 0.2, 0.3]})
    code, out, _ = run(["apply", "--matrix", m, "--stokes", s], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["s0"] == 1.0 and d["s"] == [0.1, 0.2, 0.3]


def test_gen_solve2_verify_round_trip(tmp_path, capsys):
    data = str(tmp_path / "two.json")
    code, _, _ = run(["gen", "--kind", "rotation2", "--seed", "5",
                      "--output", data], capsys)
    assert code == 0
    code, out, _ = run(["solve2", "--data", data], capsys)
    assert code == 0
    sol = json.loads(out)
    m = _write(tmp_path, "M.json", sol["mueller"])
    code, out, _ = run(["verify", "--matrix", m, "--data", data], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["all_ok"] and rep["lorentz"]["ok"]
    # matrix matches the recorded generator to 1e-8
    truth = json.loads(json.load(open(data))["metadata"]["truth_k"])
    from muellerkit import mueller_from_k
    from muellerkit.lorentz import ComplexParameter
    k = ComplexParameter(np.array([float(x) for x in truth["re"]])
                         + 1j * np.array([float(x) for x in truth["im"]]))
    L = mueller_from_k(k).m
    M = np.asarray(sol["mueller"]["m"]).reshape(4, 4)
    assert np.max(np.abs(M - L)) < 1e-8


def test_gen_solve6_verify(tmp_path, capsys):
    data = str(tmp_path / "six.json")
    assert run(["gen", "--kind", "consistent6", "--seed", "5",
                "--output", data], capsys)[0] == 0
    code, out, _ = run(["solve6", "--data", data], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["diagnostics"]["shared_solution"]
    assert max(rep["candidates"][0]["residuals"]) < 1e-6


def test_solve6_generic_data_exit_2(tmp_path, capsys):
    data = str(tmp_path / "gen.json")
    assert run(["gen", "--kind", "random", "--count", "6", "--seed", "7",
                "--output", data], capsys)[0] == 0
    code, _, err = run(["solve6", "--data", data], capsys)
    assert code == 2
    assert "error" in err


def test_solve6_no_valid_candidate_writes_report(tmp_path, capsys):
    # consistent data whose best candidate misses by round-off only:
    # --tol 0 rejects every candidate, and the report is still written
    data = str(tmp_path / "six.json")
    assert run(["gen", "--kind", "consistent6", "--seed", "5",
                "--output", data], capsys)[0] == 0
    code, out, err = run(["solve6", "--data", data, "--tol", "0"], capsys)
    assert code == 2 and "error" in err
    rep = json.loads(out)
    assert list(rep) == ["u", "candidates", "diagnostics", "error"]
    assert not rep["diagnostics"]["shared_solution"]
    assert "transitivity tolerance" in rep["error"]
    assert 0.0 < min(max(c["residuals"]) for c in rep["candidates"]) < 1e-12


def test_gen_solve4_roots(tmp_path, capsys):
    from muellerkit.oracle import consistent_dataset
    data = str(tmp_path / "four.json")
    assert run(["gen", "--kind", "consistent4", "--seed", "2",
                "--output", data], capsys)[0] == 0
    code, out, _ = run(["solve4", "--data", data], capsys)
    assert code == 0
    rep = json.loads(out)
    assert list(rep) == ["roots", "n_starts"]
    for root in rep["roots"]:
        assert list(root) == ["k", "mueller", "residuals", "e",
                              "residual_norm", "jacobian_rank_deficient"]
    # the generator's e* (the same seeded draw as gen) is a root, up to sign
    _, e_star, _ = consistent_dataset(4, rng=np.random.default_rng(2))
    es = e_star.as_array()
    assert min(min(np.linalg.norm(np.array(r["e"]) - es),
                   np.linalg.norm(np.array(r["e"]) + es))
               for r in rep["roots"]) <= 1e-8
    code, again, _ = run(["solve4", "--data", data], capsys)
    assert code == 0 and again == out
    # --seed and --starts were ignored by the exact solve and are gone
    for flag in ("--seed=0", "--starts=64"):
        code, out, err = run(["solve4", "--data", data, flag], capsys)
        assert code == 1 and out == "" and "unrecognized" in err


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert run(["gen", "--kind", "consistent6", "--seed", "11",
                    "--output", path], capsys)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    main(["solve6", "--data", a, "--output", str(tmp_path / "s1.json")])
    main(["solve6", "--data", b, "--output", str(tmp_path / "s2.json")])
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_little_subcommand(tmp_path, capsys):
    s = _write(tmp_path, "s.json", {"s0": 1.0, "s": [0.2, 0.3, 0.1]})
    code, out, _ = run(["little", "--stokes", s, "--count", "5",
                        "--seed", "1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert len(d["elements"]) == 5
    assert all(el["fix_residual"] < 1e-10 for el in d["elements"])


def test_little_count(tmp_path, capsys):
    # --count 0 emitted one element; a negative count is an input error
    s = _write(tmp_path, "s.json", {"s0": 1.0, "s": [0.2, 0.3, 0.1]})
    code, out, _ = run(["little", "--stokes", s, "--count", "0"], capsys)
    assert code == 0 and json.loads(out) == {"elements": []}
    code, out, err = run(["little", "--stokes", s, "--count", "-3"], capsys)
    assert code == 1 and out == "" and "count" in err


@pytest.mark.parametrize("kind", ["random", "consistent4"])
def test_gen_negative_count(tmp_path, capsys, kind):
    # --count -1 wrote an empty random dataset and exited 0; as for
    # little, a negative count is an input error
    data = tmp_path / "d.json"
    code, out, err = run(["gen", "--kind", kind, "--count", "-1",
                          "--output", str(data)], capsys)
    assert code == 1 and out == "" and "--count" in err
    assert not data.exists()
    code, _, _ = run(["gen", "--kind", "random", "--count", "0",
                      "--output", str(data)], capsys)
    assert code == 0 and json.loads(data.read_text())["pairs"] == []


NEGATIVE_SEED = [["gen", "--kind", kind, "--seed", "-1"] for kind in
                 ("rotation2", "consistent4", "consistent6", "random")]
NEGATIVE_SEED += [["little", "--seed", "-1", "--count", count]
                  for count in ("3", "0")]


@pytest.mark.parametrize("argv", NEGATIVE_SEED, ids=" ".join)
def test_negative_seed_is_an_input_error(argv, tmp_path, capsys):
    # gen raised numpy's ValueError out of main; little blamed --count,
    # or with --count 0 exited 0
    s = _write(tmp_path, "s.json", {"s0": 1.0, "s": [0.2, 0.3, 0.1]})
    if argv[0] == "little":
        argv = argv + ["--stokes", s]
    target = tmp_path / "out.json"
    code, out, err = run(argv + ["--output", str(target)], capsys)
    assert code == 1 and out == "" and not target.exists()
    assert "argument --seed: " in err and "Traceback" not in err


def test_negative_seed_in_a_new_process(tmp_path):
    cli = "import sys; from muellerkit.cli import main; sys.exit(main(%r))"
    p = _python(cli % ["gen", "--kind", "random", "--seed", "-1",
                       "--output", "r.json"], tmp_path)
    assert p.returncode == 1 and p.stdout == ""
    assert "argument --seed: " in p.stderr and "Traceback" not in p.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd, need, have", [
    ("solve2", 2, 4), ("solve4", 4, 6), ("solve6", 6, 4), ("family4", 1, 2)])
def test_wrong_pair_count_exits_1(cmd, need, have, tmp_path, capsys):
    data = str(tmp_path / "d.json")
    assert run(["gen", "--kind", "random", "--count", str(have),
                "--output", data], capsys)[0] == 0
    target = tmp_path / "out.json"
    flags = ["--y=0", "--z=0", "--w=0"] if cmd == "family4" else []
    code, out, err = run([cmd, "--data", data, *flags,
                          "--output", str(target)], capsys)
    assert (code, out) == (1, "") and not target.exists()
    assert err == f"error: {cmd} needs exactly {need} pairs, got {have}\n"


def test_diag_subcommand(tmp_path, capsys):
    data = str(tmp_path / "d.json")
    assert run(["gen", "--kind", "random", "--count", "2", "--seed", "3",
                "--output", data], capsys)[0] == 0
    code, out, _ = run(["diag", "--data", data], capsys)
    assert code == 0
    d = json.loads(out)
    assert len(d["pairs"]) == 2
    for rec in d["pairs"]:
        assert rec["xy"]["F"] <= rec["xy"]["G"]
        # the order of QuadCoeffs' and SignatureReport's fields
        assert list(rec) == ["coefficients", "xy", "zw", "signs",
                             "boundary", "definite_xy", "definite_zw"]
        assert list(rec["coefficients"]) == ["a", "b", "c", "alpha",
                                             "beta", "sigma"]
        assert list(rec["xy"]) == list(rec["zw"]) == ["F", "G", "phi"]


def test_family3_and_family4(tmp_path, capsys):
    two = str(tmp_path / "two.json")
    assert run(["gen", "--kind", "rotation2", "--seed", "9",
                "--output", two], capsys)[0] == 0
    one = json.load(open(two))
    one["pairs"] = one["pairs"][:1]
    p1 = _write(tmp_path, "one.json", one)
    code, out, _ = run(["family3", "--data", p1, "--gamma", "0.4"], capsys)
    assert code == 0
    assert json.loads(out)["residuals"][0] < 1e-9

    four = str(tmp_path / "four.json")
    assert run(["gen", "--kind", "consistent4", "--seed", "2",
                "--output", four], capsys)[0] == 0
    d4 = json.load(open(four))
    d4["pairs"] = d4["pairs"][:1]
    pf = _write(tmp_path, "one4.json", d4)
    code, out, _ = run(["family4", "--data", pf, "--y", "0.0", "--z", "0.1",
                        "--w", "0.0"], capsys)
    assert code in (0, 2)  # real roots may or may not exist at this slice


def test_input_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["solve2", "--data", str(bad)], capsys)
    assert code == 1
    assert "line" in err
    code, _, _ = run(["solve2", "--data", str(tmp_path / "missing.json")],
                     capsys)
    assert code == 1
    csvf = tmp_path / "seven.csv"
    csvf.write_text("1.0,0.5,0.0,0.0,1.0,0.0,0.5\n")
    code, out, err = run(["gen", "--to-json", str(csvf)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {csvf}:1: expected 8 fields")
    missing = tmp_path / "missing.csv"
    code, out, err = run(["gen", "--to-json", str(missing)], capsys)
    assert code == 1 and out == "" and err.startswith(f"error: {missing}: ")


def test_non_finite_input_exits_1(tmp_path, capsys):
    # json reads a bare NaN token; such input must be refused on load,
    # not carried into output that is no longer JSON
    pair = {"in": {"s0": 1.0, "s": [0.5, 0.0, 0.0]},
            "out": {"s0": 1.0, "s": [0.0, 0.5, 0.0]}}
    bad = {"in": {"s0": 1.0, "s": [float("nan"), 0.0, 0.0]},
           "out": {"s0": 1.0, "s": [0.0, 0.5, 0.0]}}
    data = _write(tmp_path, "nan.json", {"pairs": [pair, bad]})
    for cmd in ("diag", "solve2"):
        code, out, err = run([cmd, "--data", data], capsys)
        assert code == 1 and out == "" and "non-finite" in err
    csvf = tmp_path / "nan.csv"
    csvf.write_text("1.0,0.5,0.0,0.0,1.0,0.0,0.5,0.0\n"
                    "nan,0.5,0.0,0.0,1.0,0.0,0.5,0.0\n")
    code, out, err = run(["gen", "--to-json", str(csvf)], capsys)
    assert code == 1 and out == "" and f"{csvf}:2:" in err
    m = np.eye(4).reshape(16).tolist()
    m[0] = float("nan")
    matrix = _write(tmp_path, "nan_m.json", {"m": m})
    stokes = _write(tmp_path, "s.json", pair["in"])
    code, out, err = run(["apply", "--matrix", matrix, "--stokes", stokes],
                         capsys)
    assert code == 1 and out == "" and "non-finite" in err
    # float options: argparse read nan and inf, and family3 and family4
    # wrote bare nan tokens with exit 0
    # (the files are finite, so "non-finite" can only come from the flag)
    one = _write(tmp_path, "one.json", {"pairs": [pair]})
    eye = _write(tmp_path, "eye.json", {"m": np.eye(4).reshape(16).tolist()})
    cases = [("family3", ["--data", one], "gamma")]
    cases += [("family4", ["--data", one, "--y=0", "--z=0", "--w=0"], flag)
              for flag in "yzw"]
    cases += [(cmd, ["--data", one], "tol")
              for cmd in ("solve2", "solve4", "solve6")]
    cases += [("verify", ["--matrix", eye, "--data", one], "tol")]
    for bad in ("nan", "inf", "-inf"):
        for cmd, args, flag in cases:
            argv = [cmd, *args, f"--{flag}={bad}"]
            code, out, err = run(argv, capsys)
            assert code == 1 and out == "" and "non-finite" in err, argv


def test_a_negative_tol_is_an_input_error(tmp_path, capsys):
    # on data each solves, --tol -1 made solve4 exit 0 and solve2, solve6
    # and verify exit 2 (no solution within a negative tolerance)
    cases = []
    for kind, cmd in (("rotation2", "solve2"), ("consistent4", "solve4"),
                      ("consistent6", "solve6")):
        data = str(tmp_path / f"{kind}.json")
        assert run(["gen", "--kind", kind, "--seed", "3", "--output", data],
                   capsys)[0] == 0
        cases.append([cmd, "--data", data])
    code, out, _ = run(cases[0], capsys)
    assert code == 0
    matrix = _write(tmp_path, "m.json", json.loads(out)["mueller"])
    cases.append(["verify", "--matrix", matrix, "--data", cases[0][2]])
    for argv in cases:
        code, out, err = run([*argv, "--tol", "-1"], capsys)
        assert (code, out) == (1, ""), argv
        assert "argument --tol: must be >= 0, got -1.0" in err


def test_solver_failures_exit_2_and_write_nothing(tmp_path, capsys):
    data = str(tmp_path / "r4.json")
    assert run(["gen", "--kind", "random", "--count", "4", "--seed", "1",
                "--output", data], capsys)[0] == 0
    out_path = tmp_path / "roots.json"
    code, out, err = run(["solve4", "--data", data,
                          "--output", str(out_path)], capsys)
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("error: NoConvergedRoot: ")
    half_turn = _one_pair(tmp_path, "h.json", [1.0, 0.0, 0.0],
                          [-1.0, 0.0, 0.0])
    code, out, err = run(["family4", "--data", half_turn, "--y", "0.1",
                          "--z", "0.2", "--w", "0.3"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: NoRealRoot: degenerate slice")


def test_family4_overflowing_slice_exits_2(tmp_path, capsys):
    # the slice's constant term overflows to inf; the overflow is named
    # before the slice is judged degenerate
    four = str(tmp_path / "four.json")
    assert run(["gen", "--kind", "consistent4", "--seed", "2",
                "--output", four], capsys)[0] == 0
    d4 = json.load(open(four))
    d4["pairs"] = d4["pairs"][:1]
    one = _write(tmp_path, "one.json", d4)
    target = tmp_path / "out.json"
    code, out, err = run(["family4", "--data", one, "--y", "1e200", "--z",
                          "0", "--w", "0", "--output", str(target)], capsys)
    assert (code, out) == (2, "") and not target.exists()
    assert err.startswith("error: OutOfDomain: ")


def test_csv_conversion(tmp_path, capsys):
    # the file name is written as a JSON string, control character escaped
    csvf = tmp_path / "\x01f:x.csv"
    csvf.write_text("# s0,s1,s2,s3,s0',s1',s2',s3'\n"
                    "1.0,0.5,0.0,0.0,1.0,0.0,0.5,0.0\n")
    code, out, _ = run(["gen", "--to-json", str(csvf)], capsys)
    assert code == 0
    d = json.loads(out)
    assert len(d["pairs"]) == 1
    assert d["pairs"][0]["in"]["s"] == [0.5, 0.0, 0.0]
    assert d["metadata"] == {"kind": "csv", "source": "\x01f:x.csv"}


@pytest.mark.parametrize("env, level", [
    ({"MUELLERKIT_LOG": "debug"}, "DEBUG"),
])
def test_log_level_from_environment(env, level, monkeypatch):
    import logging

    monkeypatch.delenv("MUELLERKIT_LOG", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    seen = []
    monkeypatch.setattr(logging, "basicConfig",
                        lambda **kw: seen.append(kw["level"]))
    assert main(["--help"]) == 0
    assert seen == [getattr(logging, level)]


# A diag and a verify record, byte for byte: records are written as JSON
# objects of their fields, in field order, nested records included.
DIAG_TEXT = """{
  "pairs": [
    {
      "coefficients": {
        "a": 3.5,
        "b": -1.0,
        "c": 0.5,
        "alpha": -0.5,
        "beta": 0.0,
        "sigma": -1.5
      },
      "xy": {
        "F": 0.19722436226800544,
        "G": 3.802775637731995,
        "phi": -1.2767950250211129
      },
      "zw": {
        "F": -1.5,
        "G": -0.5,
        "phi": 1.5707963267948966
      },
      "signs": [
        1,
        1,
        1,
        1
      ],
      "boundary": false,
      "definite_xy": true,
      "definite_zw": true
    }
  ]
}
"""

VERIFY_TEXT = """{
  "residuals": [
    {
      "pair": 0,
      "residual": 1.118033988749895,
      "ok": false
    }
  ],
  "lorentz": {
    "ok": false,
    "ortho_residual": 3.0,
    "det_residual": 2.999999999999999,
    "m00": 2.0
  },
  "all_ok": false
}
"""


def _one_pair(tmp_path, name, s_in, s_out):
    return _write(tmp_path, name, {"pairs": [
        {"in": {"s0": 1.0, "s": s_in}, "out": {"s0": 1.0, "s": s_out}}]})


def test_diag_and_verify_records_byte_for_byte(tmp_path, capsys):
    data = _one_pair(tmp_path, "d.json", [0.5, 0.0, 0.0], [0.0, 0.5, 0.0])
    assert run(["diag", "--data", data], capsys) == (0, DIAG_TEXT, "")
    # 2 * identity is no Lorentz matrix: ok is a JSON false, not an error
    m = _write(tmp_path, "m.json", {"m": list(2.0 * np.eye(4).reshape(16))})
    data = _one_pair(tmp_path, "v.json", [0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    assert run(["verify", "--matrix", m, "--data", data],
               capsys) == (2, VERIFY_TEXT, "")


def _python(code, tmp_path, **env):
    """Run `code` in a new interpreter that imports this muellerkit."""
    env = {**{k: v for k, v in os.environ.items() if k != "MUELLERKIT_LOG"},
           "PYTHONPATH": SRC, **env}
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True)


def test_startup_loads_every_module_and_no_logging_or_csv(tmp_path):
    modules = sorted("muellerkit." + p.stem
                     for p in Path(SRC, "muellerkit").glob("*.py")
                     if p.stem != "__init__")
    p = _python(
        "import dataclasses, sys\n"
        "import muellerkit.cli\n"
        "print(sorted(m for m in ('logging', 'csv') if m in sys.modules))\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('muellerkit.')))\n"
        "print(sorted(o.__name__ for n, m in list(sys.modules.items())"
        " if n.startswith('muellerkit.') for o in vars(m).values()"
        " if isinstance(o, type) and dataclasses.is_dataclass(o)"
        " and o.__module__ == n))\n", tmp_path)
    assert p.returncode == 0, p.stderr
    lazy, loaded, dataclasses = p.stdout.splitlines()
    assert lazy == "[]"
    assert loaded == str(modules)
    assert dataclasses == str(["FourReport"])


def test_lazy_logging_and_csv_paths_in_a_new_process(tmp_path):
    cli = "import sys; from muellerkit.cli import main; sys.exit(main(%r))"
    p = _python(cli % ["gen", "--kind", "random", "--count", "6",
                       "--seed", "1", "--output", "r6.json"], tmp_path)
    assert p.returncode == 0, p.stderr
    p = _python(cli % ["solve6", "--data", "r6.json"], tmp_path,
                MUELLERKIT_LOG="DEBUG")
    assert p.returncode == 2 and p.stdout == ""
    assert "DEBUG:muellerkit:solver failure" in p.stderr
    assert "Traceback" in p.stderr
    assert p.stderr.splitlines()[-1].startswith("error: Rank1Violation: ")
    p = _python(cli % ["solve6", "--data", "r6.json"], tmp_path)
    assert p.returncode == 2 and "Traceback" not in p.stderr
    (tmp_path / "t.csv").write_text("1,0.5,0,0,1,0,0.5,0\n")
    p = _python(cli % ["gen", "--to-json", "t.csv"], tmp_path)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["pairs"][0]["out"]["s"] == [0.0, 0.5, 0.0]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_1(where, tmp_path):
    if where == "directory":
        target, reason = tmp_path, os.strerror(errno.EISDIR)
    else:
        target = tmp_path / "missing" / "x.json"
        reason = os.strerror(errno.ENOENT)
    cli = "import sys; from muellerkit.cli import main; sys.exit(main(%r))"
    p = _python(cli % ["gen", "--kind", "rotation2", "--output",
                       str(target)], tmp_path)
    assert p.returncode == 1 and p.stdout == ""
    assert p.stderr == f"error: {target}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd, matrix", [
    # max|M|^2 overflows in the Lorentz check: it raised OverflowError
    ("verify", np.diag([1e200] * 4)),
    # L s overflows: s0 was written as "inf", which no JSON reader takes
    ("apply", np.vstack(([1e308] * 4, np.eye(4)[1:])))])
def test_non_finite_result_exits_2_and_writes_nothing(cmd, matrix, tmp_path):
    _write(tmp_path, "m.json", {"m": list(matrix.reshape(16))})
    _one_pair(tmp_path, "d.json", [0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    _write(tmp_path, "s.json", {"s0": 1.0, "s": [0.5, 0.2, 0.1]})
    cli = "import sys; from muellerkit.cli import main; sys.exit(main(%r))"
    inputs = {"verify": ["--data", "d.json"], "apply": ["--stokes", "s.json"]}
    p = _python(cli % [cmd, "--matrix", "m.json", *inputs[cmd],
                       "--output", "out.json"], tmp_path)
    assert (p.returncode, p.stdout) == (2, "")
    assert p.stderr == (f"error: {cmd}: non-finite number inf has no "
                        "JSON form\n")
    assert not (tmp_path / "out.json").exists()


def test_family3_weak_and_unpolarized_pairs(tmp_path, capsys):
    # |S| = 1e-7 read as antipodal; S = S' = 0 got the antipodal reason too
    weak = _one_pair(tmp_path, "w.json", [1e-7, 0.0, 0.0],
                     [7.648421872844885e-08, 6.442176872376911e-08, 0.0])
    code, out, err = run(["family3", "--data", weak, "--gamma", "0.3"],
                         capsys)
    assert (code, err) == (0, "")
    assert max(json.loads(out)["residuals"]) < 1e-12
    zero = _one_pair(tmp_path, "z.json", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    code, out, err = run(["family3", "--data", zero, "--gamma", "0.3"],
                         capsys)
    assert (code, out) == (2, "")
    assert err == ("error: DegenerateGeometry: zero polarization vector: "
                   "no direction\n")


def _rotation_pairs(tmp_path, name, pairs):
    return _write(tmp_path, name, {"pairs": [
        {"in": {"s0": s0, "s": s}, "out": {"s0": t0, "s": t}}
        for s0, s, t0, t in pairs]})


def test_rotation_commands_reject_pairs_no_rotation_produces(tmp_path,
                                                             capsys):
    # each exited 0: s0' = s0 went unchecked, and |S'| = |S| held only to
    # an absolute floor
    data = str(tmp_path / "r2.json")
    assert run(["gen", "--kind", "rotation2", "--seed", "3",
                "--output", data], capsys)[0] == 0
    d = json.load(open(data))
    for p in d["pairs"]:
        p["out"]["s0"] = 2.0 * p["out"]["s0"]
    doubled = _write(tmp_path, "doubled.json", d)
    tripled = _rotation_pairs(tmp_path, "tripled.json", [
        (1.0, [0.5, 0.1, 0.2], 3.0, [0.1, 0.5, 0.2])])
    grown = _rotation_pairs(tmp_path, "grown.json", [
        (1.0, [1e-7, 0.0, 0.0], 1.0, [0.0, 1.009e-7, 0.0])])
    target = tmp_path / "out.json"
    for argv in (["solve2", "--data", doubled],
                 ["family3", "--data", tripled, "--gamma", "0.3"],
                 ["family3", "--data", grown, "--gamma", "0.3"]):
        code, out, err = run([*argv, "--output", str(target)], capsys)
        assert (code, out) == (2, "") and not target.exists(), argv
        assert err.startswith("error: LengthMismatch: "), argv


@pytest.mark.parametrize("argv", [
    ["solve2", "--data", "bad.bin"],
    ["apply", "--matrix", "m.json", "--stokes", "bad.bin"],
    ["little", "--stokes", "bad.bin"],
    ["verify", "--matrix", "bad.bin", "--data", "d.json"],
    ["gen", "--to-json", "bad.bin"]], ids=lambda a: a[0])
def test_a_file_that_is_not_utf8_is_an_input_error(argv, tmp_path):
    # a UnicodeDecodeError escaped from both readers as a traceback
    (tmp_path / "bad.bin").write_bytes(b"\xff\xfe{}")
    _write(tmp_path, "m.json", {"m": list(np.eye(4).reshape(16))})
    _one_pair(tmp_path, "d.json", [0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    cli = "import sys; from muellerkit.cli import main; sys.exit(main(%r))"
    p = _python(cli % argv, tmp_path)
    assert (p.returncode, p.stdout) == (1, "")
    assert p.stderr.startswith("error: bad.bin: ") and "utf-8" in p.stderr
    assert "Traceback" not in p.stderr


@pytest.mark.parametrize("digits", [400, 5000])
@pytest.mark.parametrize("argv", [
    ["little", "--stokes", "s.json"],
    ["diag", "--data", "d.json"],
    ["verify", "--data", "d.json", "--matrix", "m.json"],
    ["verify", "--matrix", "m.json", "--data", "d.json"],
    ["apply", "--stokes", "s.json", "--matrix", "m.json"],
    ["apply", "--matrix", "m.json", "--stokes", "s.json"]],
    ids=lambda a: a[0] + a[-2])
def test_an_integer_too_large_for_a_float_is_an_input_error(
        argv, digits, tmp_path, capsys, monkeypatch):
    # 400 digits parse and overflow float(); 5000 pass Python's int digit
    # limit, so json.load raises a plain ValueError: both were tracebacks
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "m.json", {"m": list(np.eye(4).reshape(16))})
    _write(tmp_path, "s.json", {"s0": 1.0, "s": [0.5, 0.2, 0.1]})
    _one_pair(tmp_path, "d.json", [0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    big = tmp_path / argv[-1]  # the last file gets the huge literal
    big.write_text(big.read_text().replace("1.0", "1" + "0" * digits, 1))
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {argv[-1]}: bad ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["family3", "--gamma", "0.3", "--data", "d.json"],
    ["solve2", "--data", "d.json"],
    ["family4", "--y", "0", "--z", "0", "--w", "0", "--data", "d.json"],
    ["solve4", "--data", "d.json"],
    ["solve6", "--data", "d.json"],
    ["diag", "--data", "d.json"],
    ["little", "--stokes", "s.json"],
    ["verify", "--matrix", "m.json", "--data", "d.json"],
    ["verify", "--data", "d.json", "--matrix", "m.json"],
    ["apply", "--matrix", "m.json", "--stokes", "s.json"],
    ["apply", "--stokes", "s.json", "--matrix", "m.json"]],
    ids=lambda a: a[0] + a[-2])
def test_json_nested_past_the_recursion_limit_is_an_input_error(
        argv, tmp_path, capsys, monkeypatch):
    # json.load raises RecursionError from a nesting depth of about 1,000:
    # it escaped every JSON reader as a traceback
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "m.json", {"m": list(np.eye(4).reshape(16))})
    _write(tmp_path, "s.json", {"s0": 1.0, "s": [0.5, 0.2, 0.1]})
    _one_pair(tmp_path, "d.json", [0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    (tmp_path / argv[-1]).write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {argv[-1]}: parse error: ")
    assert "Traceback" not in err


def test_overflowing_intensities_are_out_of_domain(tmp_path, capsys):
    # scaled by 1e100: solve6 ended in a LinAlgError traceback, and solve4
    # reported a collinear pair basis
    data = str(tmp_path / "g6.json")
    assert run(["gen", "--kind", "consistent6", "--seed", "3",
                "--output", data], capsys)[0] == 0
    d = json.load(open(data))
    for p in d["pairs"]:
        for v in (p["in"], p["out"]):
            v["s0"] *= 1e100
            v["s"] = [1e100 * x for x in v["s"]]
    _write(tmp_path, "big6.json", d)
    d["pairs"] = d["pairs"][:4]
    big4 = _write(tmp_path, "big4.json", d)
    code, out, err = run(["solve4", "--data", big4], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: OutOfDomain: pair 0: ")
    cli = "import sys; from muellerkit.cli import main; sys.exit(main(%r))"
    p = _python(cli % ["solve6", "--data", "big6.json", "--output",
                       "out.json"], tmp_path)
    assert (p.returncode, p.stdout) == (2, "")
    assert p.stderr.startswith("error: OutOfDomain: pair 0: ")
    assert "Traceback" not in p.stderr
    assert not (tmp_path / "out.json").exists()


def test_diag_names_the_overflowing_pair(tmp_path, capsys):
    # diag read each pair's coefficients apart and, with one pair scaled
    # by 1e100, exited with "error: diag: non-finite number nan has no
    # JSON form"; it now reads one pair table, which names the pair
    data = str(tmp_path / "g6.json")
    assert run(["gen", "--kind", "consistent6", "--seed", "1",
                "--output", data], capsys)[0] == 0
    d = json.load(open(data))
    for v in (d["pairs"][3]["in"], d["pairs"][3]["out"]):
        v["s0"] *= 1e100
        v["s"] = [1e100 * x for x in v["s"]]
    _write(tmp_path, "big.json", d)
    cli = "import sys; from muellerkit.cli import main; sys.exit(main(%r))"
    p = _python(cli % ["diag", "--data", "big.json", "--output", "d.json"],
                tmp_path)
    assert (p.returncode, p.stdout) == (2, "")
    assert p.stderr.startswith("error: OutOfDomain: pair 3: ")
    assert "Traceback" not in p.stderr
    assert not (tmp_path / "d.json").exists()
