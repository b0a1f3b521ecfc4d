import json

import numpy as np
import pytest

from muellerkit.cli import main


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


def test_csv_conversion(tmp_path, capsys):
    csvf = tmp_path / "pairs.csv"
    csvf.write_text("# s0,s1,s2,s3,s0',s1',s2',s3'\n"
                    "1.0,0.5,0.0,0.0,1.0,0.0,0.5,0.0\n")
    code, out, _ = run(["gen", "--to-json", str(csvf)], capsys)
    assert code == 0
    d = json.loads(out)
    assert len(d["pairs"]) == 1
    assert d["pairs"][0]["in"]["s"] == [0.5, 0.0, 0.0]
    assert d["metadata"]["kind"] == "csv"


@pytest.mark.parametrize("env, level", [
    ({"MUELLERKIT_LOG": "debug"}, "DEBUG"),
    ({"MT_LOG": "warning"}, "WARNING"),
    ({"MUELLERKIT_LOG": "info", "MT_LOG": "error"}, "INFO"),
])
def test_log_level_from_environment(env, level, monkeypatch):
    import logging

    from muellerkit import cli
    for name in ("MUELLERKIT_LOG", "MT_LOG"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    seen = []
    monkeypatch.setattr(cli.logging, "basicConfig",
                        lambda **kw: seen.append(kw["level"]))
    assert main(["--help"]) == 0
    assert seen == [getattr(logging, level)]
