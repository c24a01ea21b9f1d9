import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qclique import cli, grover
from qclique.circuit import Circuit
from qclique.cli import BUILTIN_PROFILES, load_graph, load_profile, main
from qclique.noise import NoiseProfile


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_builtin_profiles_encode_device_table():
    values = {name: (p.t1_us, p.t2_us) for name, p in BUILTIN_PROFILES.items()}
    assert values == {
        "ibmq_melbourne": (55.0, 59.0),
        "ibmq_poughkeepsie": (64.0, 65.0),
        "ibmq_singapore": (83.0, 89.0),
        "ibmq_paris": (76.0, 67.0),
        "ibmq_cambridge": (81.0, 39.0),
        "ibmq_rochester": (55.0, 59.0),
    }
    for prof in BUILTIN_PROFILES.values():
        assert (prof.u2_ns, prof.u3_ns, prof.cx_ns, prof.readout_ns) == (50.0, 100.0, 300.0, 1000.0)
        assert prof.apply_idle


def test_profile_branch_coverage():
    # the bundled set intentionally exercises both channel implementations
    assert BUILTIN_PROFILES["ibmq_cambridge"].default_implementation == "mixture"
    assert BUILTIN_PROFILES["ibmq_singapore"].default_implementation == "kraus"


def test_load_profile_forms(tmp_path):
    assert load_profile("singapore").name == "ibmq_singapore"
    inline = load_profile("250:125")
    assert (inline.t1_us, inline.t2_us) == (250.0, 125.0)
    path = tmp_path / "prof.json"
    path.write_text(NoiseProfile("file-prof", 70.0, 60.0).to_json())
    assert load_profile(str(path)).name == "file-prof"
    with pytest.raises(Exception):
        load_profile("not-a-profile")


def test_load_graph_from_file(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("3 2\n0 1\n1 2\n")
    assert load_graph(str(path)).n == 3


def test_solve_w_checking_text(capsys):
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3",
                             "--prep", "w", "--oracle", "checking",
                             "--shots", "256", "--seed", "5")
    assert code == 0
    assert "|0111>" in out and "[0, 1, 2]" in out
    assert "PASS" in out


def test_solve_json_fields(capsys):
    code, out, _ = run_cli(capsys, "solve", "--graph", "g4", "--k", "3",
                           "--prep", "full", "--format", "json",
                           "--shots", "512", "--seed", "9")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["iterations"] == 3
    assert data["ideal"]["top_outcome"] == "0111"
    assert data["analytic_success_probability"] == pytest.approx(0.9613, abs=1e-3)
    assert data["matches_bruteforce"] is True


def test_solve_no_clique_preflight(capsys):
    code, out, _ = run_cli(capsys, "solve", "--graph", "star4", "--k", "3")
    assert code == 0
    assert "no 3-clique exists" in out


def test_solve_brute_forces_once(capsys, monkeypatch):
    calls = []
    original = grover.find_cliques_bruteforce

    def counting(g, k):
        calls.append(k)
        return original(g, k)

    for module in (cli, grover):
        monkeypatch.setattr(module, "find_cliques_bruteforce", counting)
    code, _, _ = run_cli(capsys, "solve", "--graph", "g4", "--k", "3", "--shots", "64")
    assert code == 0 and calls == [3]


def test_solve_w_prep_checks_k_before_cliques(capsys):
    # star4 has no 4-clique, but k = 4 != n-1 fails the W-state check first
    code, out, err = run_cli(capsys, "solve", "--graph", "star4", "--k", "4", "--prep", "w")
    assert code == 1 and out == ""
    assert err.startswith("error: W-state preparation works only for clique size k = n-1")


def test_solve_invalid_k_errors(capsys):
    code, _, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "9")
    assert code == 1 and "out of range" in err


def test_solve_with_noise_reports_damping(capsys):
    code, out, _ = run_cli(capsys, "solve", "--graph", "g4", "--k", "3",
                           "--prep", "w", "--noise", "singapore",
                           "--format", "json", "--shots", "300",
                           "--trajectories", "300", "--seed", "17")
    assert code == 0
    data = json.loads(out)
    assert data["noise_profile"]["name"] == "ibmq_singapore"
    assert data["noisy"]["success_probability"] < data["ideal"]["success_probability"]


def test_solve_with_noise_reports_the_trajectories_that_ran(capsys):
    argv = ("solve", "--graph", "g4", "--k", "3", "--noise", "500:500",
            "--shots", "50", "--trajectories", "5000", "--seed", "3")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["noisy"]["trajectories"] == 50  # one per shot at most
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "(50 trajectories)" in out


def test_resources_table_six_rows(capsys):
    code, out, _ = run_cli(capsys, "resources", "--graph", "g4", "--k", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2 + 6 + 1  # header, rule, six configs, legend
    # sorted by lowered size: a W-prep checking row leads the table
    assert "w" in lines[2].split() and "checking" in lines[2].split()


@pytest.mark.parametrize("graph, k, rows", [("g6", 4, 4), ("g6", 3, 4), ("g4", 3, 6)])
def test_resources_lists_the_w_route_only_where_k_is_n_minus_1(graph, k, rows, capsys):
    code, out, err = run_cli(capsys, "resources", "--graph", graph, "--k", str(k))
    assert code == 0 and err == ""
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 2 + rows + 1  # header, rule, the configs, legend
    preps = {line.split()[1] for line in lines[2:-1]}
    assert preps == ({"w", "dicke", "full"} if rows == 6 else {"dicke", "full"})


def test_resources_with_an_explicit_w_route_reports_why_it_cannot(capsys):
    code, out, err = run_cli(capsys, "resources", "--graph", "g6", "--k", "4", "--prep", "w")
    assert code == 1 and out == ""
    assert err == ("error: W-state preparation works only for clique size k = n-1 "
                   "(k=4, n=6)\n")


def test_resources_decompose_columns(capsys):
    code, out, _ = run_cli(capsys, "resources", "--graph", "g4", "--k", "3",
                           "--prep", "w", "--oracle", "checking", "--decompose")
    assert code == 0
    header = out.splitlines()[0].split()
    for col in ("NOT", "CNOT", "CCNOT", "U"):
        assert col in header


def test_resources_empty_edge_graph_errors(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("3 0\n")
    code, _, err = run_cli(capsys, "resources", "--graph", str(path), "--k", "2")
    assert code == 1
    assert "edge" in err or "clique" in err


def test_resources_json(capsys):
    code, out, _ = run_cli(capsys, "resources", "--graph", "g4", "--k", "3",
                           "--format", "json")
    data = json.loads(out)
    assert code == 0 and len(data["reports"]) == 6


def test_sweep_csv_shape_and_consistency(capsys):
    args = ["sweep", "--graph", "g4", "--k", "3", "--prep", "w",
            "--oracle", "checking", "--shots", "200", "--trajectories", "200",
            "--seed", "31", "--profile", "500:500", "--profile", "200:200",
            "--all-devices"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8  # six devices + the two synthetic points
    assert set(rows[0]) == {"name", "t1_us", "t2_us", "success_prob", "stderr"}

    # single-point sweep agrees with the solve noisy path at equal settings
    code, solve_out, _ = run_cli(capsys, "solve", "--graph", "g4", "--k", "3",
                                 "--prep", "w", "--noise", "500:500",
                                 "--format", "json", "--shots", "200",
                                 "--trajectories", "200", "--seed", "31")
    assert code == 0
    solve_p = json.loads(solve_out)["noisy"]["success_probability"]
    sweep_p = float([r for r in rows if r["name"] == "t1=500,t2=500"][0]["success_prob"])
    assert sweep_p == pytest.approx(solve_p, abs=1e-12)


def test_sweep_stderr_counts_trajectories_not_shots(capsys):
    # 4,000 shots from 40 trajectories carry about 40 samples' information
    code, out, _ = run_cli(capsys, "sweep", "--graph", "g4", "--k", "3", "--profile", "500:500",
                           "--shots", "4000", "--trajectories", "40", "--seed", "1")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    p = float(row["success_prob"])
    assert row["stderr"] == f"{(p * (1 - p) / 40) ** 0.5:.6f}"


def test_sweep_csv_format_is_the_default(capsys):
    args = ["sweep", "--graph", "g4", "--k", "3", "--shots", "100",
            "--trajectories", "50", "--seed", "3", "--profile", "500:500"]
    code, default_out, _ = run_cli(capsys, *args)
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0 and csv_out == default_out


@pytest.mark.parametrize("command, bad, allowed", [
    ("solve", "csv", "'text', 'json'"),
    ("resources", "csv", "'text', 'json'"),
    ("verify", "csv", "'text', 'json'"),
    ("sweep", "text", "'csv', 'json'"),
])
def test_format_lists_only_written_formats(capsys, command, bad, allowed):
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", "g4", "--k", "3", "--format", bad])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --format: invalid choice: '{bad}' (choose from {allowed})" in err


@pytest.mark.parametrize("text, message", [
    ('{"name": "x", "t2_us": 50.0}', "lacks the field 't1_us'"),
    ("[83.0, 89.0]", "top level must be an object"),
    ('{"name": "x", "t1_us": null, "t2_us": 50.0}', "the field 't1_us' must be a number"),
    ('{"name": "x", "t1_us": 83.0, "t2_us": 89.0, "gate_ns": [50, 100, 300]}',
     "the field 'gate_ns' must be an object"),
    ('{"name": "x", "t1_us": 83.0, "t2_us": 89.0, "apply_idle": "false"}',
     "the field 'apply_idle' must be true or false, got 'false'"),
    ('{"name": "x", "t1_us": true, "t2_us": 50.0}', "the field 't1_us' must be a number, got True"),
    ('{"name": "x", "t1_us": "83", "t2_us": 50.0}', "the field 't1_us' must be a number, got '83'"),
    ('{"name": "x", "t1_us": 83.0, "t2_us": 89.0, "gate_ns": {"cx": false}}',
     "the field 'gate_ns.cx' must be a number, got False"),
    ('{"name": "x", "t1_us": NaN, "t2_us": 50.0}',
     "field 't1_us' must be a finite positive number, got nan"),
    ('{"name": "x", "t1_us": 83.0, "t2_us": Infinity}',
     "field 't2_us' must be a finite positive number, got inf"),
    ('{"name": "x", "t1_us": 83.0, "t2_us": 89.0, "gate_ns": {"u3": Infinity}}',
     "field 'u3_ns' must be a finite positive number, got inf"),
    ('{"name": "x", "t1_us": 83.0, "t2_us": 89.0, "readout_ns": -Infinity}',
     "field 'readout_ns' must be a finite positive number, got -inf"),
])
def test_bad_profile_json_is_an_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "prof.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3",
                             "--shots", "16", "--noise", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("spec, message", [
    *(pytest.param(spec, f"noise profile {spec!r} is not 'T1:T2', two numbers in microseconds",
                   id=spec) for spec in (":", "1:2:3", "abc:1", "83:")),
    *(pytest.param(spec, f"noise profile field {field!r} must be a finite positive number, "
                         f"got {value}", id=spec)
      for spec, field, value in (("inf:inf", "t1_us", "inf"), ("nan:nan", "t1_us", "nan"),
                                 ("100:inf", "t2_us", "inf"), ("0:1", "t1_us", "0.0"))),
])
def test_bad_inline_profile_is_an_error_line(capsys, spec, message):
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3", "--shots", "16",
                             "--noise", spec)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_an_error_line(capsys, workers):
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3", "--shots", "16",
                             "--trajectories", "4", "--noise", "500:500", "--workers", workers)
    assert code == 1 and out == ""
    assert err == f"error: workers must be >= 1, got {workers}\n"


def test_graph_directory_is_an_error_line(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--graph", str(tmp_path), "--k", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1


def test_output_in_missing_directory_is_an_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, "verify", "--graph", "g4", "--k", "3",
                             "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(target) in err and err.count("\n") == 1


def test_sweep_requires_profiles(capsys):
    code, _, err = run_cli(capsys, "sweep", "--graph", "g4", "--k", "3")
    assert code == 1 and "profile" in err


def test_verify_g6(capsys):
    code, out, _ = run_cli(capsys, "verify", "--graph", "g6", "--k", "4")
    assert code == 0
    assert "|011110>" in out and "1 clique(s)" in out


def test_verify_json(capsys):
    code, out, err = run_cli(capsys, "verify", "--graph", "g6", "--k", "4", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out) == {"schema": 1, "command": "verify", "k": 4, "m": 1,
                               "cliques": [{"nodes": [1, 2, 3, 4], "bitstring": "011110"}]}


@pytest.mark.parametrize("k", ["0", "5"])
def test_verify_k_out_of_range_is_an_error_line(capsys, k):
    code, out, err = run_cli(capsys, "verify", "--graph", "g4", "--k", k)
    assert code == 1 and out == ""
    assert err == f"error: k={k} out of range [1, 4]\n"


def test_sweep_json(capsys):
    code, out, err = run_cli(capsys, "sweep", "--graph", "g4", "--k", "3", "--shots", "100",
                             "--trajectories", "50", "--seed", "3", "--profile", "500:500",
                             "--profile", "cambridge", "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["config"] == {"prep": "w", "oracle": "checking", "k": 3}
    assert [r["name"] for r in data["rows"]] == ["t1=500,t2=500", "ibmq_cambridge"]
    assert set(data["rows"][0]) == {"name", "t1_us", "t2_us", "success_prob", "stderr"}
    # the same rows as the CSV form
    code, csv_out, _ = run_cli(capsys, "sweep", "--graph", "g4", "--k", "3", "--shots", "100",
                               "--trajectories", "50", "--seed", "3", "--profile", "500:500",
                               "--profile", "cambridge")
    assert code == 0
    assert [{k: str(v) for k, v in r.items()} for r in data["rows"]] == \
        list(csv.DictReader(io.StringIO(csv_out)))


def test_solve_explicit_iterations(capsys):
    code, out, _ = run_cli(capsys, "solve", "--graph", "g4", "--k", "3", "--prep", "full",
                           "--iters", "1", "--shots", "64", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["iterations"] == 1 and data["ideal"]["top_outcome"] == "0111"
    assert data["analytic_success_probability"] == pytest.approx(
        grover.success_probability_analytic(16, 1, 1))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--graph", "g4", "--k", "3", "--iters", "-1"])
    assert exc.value.code == 2
    assert "iterations must be 'auto' or >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_a_negative_seed_is_a_usage_error_naming_the_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", "g4", "--k", "3", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value, message", [
    ("solve", "--iters", "1.5", "iterations must be 'auto' or an integer, got '1.5'"),
    ("resources", "--iters", "two", "iterations must be 'auto' or an integer, got 'two'"),
    ("solve", "--seed", "abc", "seed must be an integer, got 'abc'"),
    ("sweep", "--seed", "0x10", "seed must be an integer, got '0x10'"),
])
def test_a_non_integer_is_a_usage_error_naming_the_flag(capsys, command, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", "g4", "--k", "3", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err
    assert "_iterations" not in err and "_seed" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--graph", "g4", "--k", "3", "--shots", "64"],
    ["solve", "--graph", "star4", "--k", "3", "--prep", "dicke"],
    ["resources", "--graph", "g4", "--k", "3"],
    ["sweep", "--graph", "g4", "--k", "3", "--shots", "32", "--trajectories", "8",
     "--profile", "500:500"],
    ["verify", "--graph", "g4", "--k", "3"],
])
def test_json_starts_with_schema_and_command(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert list(data)[:2] == ["schema", "command"]
    assert (data["schema"], data["command"]) == (1, argv[0])


def test_state_dicke_csv(capsys):
    code, out, _ = run_cli(capsys, "state", "--prep", "dicke", "--n", "4", "--k", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 16
    hot = {r["bitstring"]: float(r["re"]) for r in rows if abs(float(r["re"])) > 1e-9}
    assert hot == {"0111": pytest.approx(0.5), "1011": pytest.approx(0.5),
                   "1101": pytest.approx(0.5), "1110": pytest.approx(0.5)}
    assert all(abs(float(r["im"])) < 1e-12 for r in rows)


def test_state_dicke_requires_k(capsys):
    code, _, err = run_cli(capsys, "state", "--prep", "dicke", "--n", "4")
    assert code == 1 and "--k" in err


@pytest.mark.parametrize("prep", ["full", "w", "w-complement"])
def test_state_k_without_dicke_is_an_error_line(capsys, prep):
    code, out, err = run_cli(capsys, "state", "--prep", prep, "--n", "3", "--k", "9")
    assert code == 1 and out == ""
    assert err == f"error: --k applies only to the dicke preparation, not to {prep}\n"


# sha256 prefixes of the CSV that `state` prints, taken from the dense kernel
# `statevector` used to run: the sparse run prints the same amplitudes, signs of
# zeros included
STATE_CSV_PINS = {
    ("full", 6): "05ac09307001a079", ("w", 6): "f2b2c8f4d59c41b2",
    ("w-complement", 6): "29223826d7ee07e3", ("dicke", 6): "fc5775ce2d52f1b1",
    ("full", 10): "8a0a87a231aa6594", ("w", 10): "138d5e2faeed3348",
    ("w-complement", 10): "5856340285d16c2e", ("dicke", 10): "92a1e8036949afd2",
}


def test_state_csv_is_pinned(capsys):
    for (prep, n), pinned in STATE_CSV_PINS.items():
        k = ["--k", "3"] if prep == "dicke" else []
        code, out, err = run_cli(capsys, "state", "--prep", prep, "--n", str(n), *k)
        assert code == 0 and err == "" and len(out.splitlines()) == 1 + (1 << n)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == pinned, (prep, n)


def test_state_wider_than_an_int64_index_is_an_error_line(capsys):
    code, out, err = run_cli(capsys, "state", "--prep", "w", "--n", "64")
    assert code == 1 and out == ""
    assert err == ("error: cannot run a 64-qubit circuit: a basis index is an int64, "
                   "which holds at most 63 qubits\n")


def test_state_too_wide_is_an_error_line(monkeypatch, capsys):
    # numpy.zeros fails as it would for a 16 TiB request, without allocating anything
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("qclique.sim.np.zeros", no_memory)
    code, out, err = run_cli(capsys, "state", "--prep", "full", "--n", "40")
    assert code == 1 and out == ""
    assert err == f"error: cannot allocate a 40-qubit state: {16 << 40} bytes requested\n"
    # solve runs the 4-qubit node register of g4 on float64 amplitudes
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3")
    assert code == 1 and out == ""
    assert err == f"error: cannot allocate a 4-qubit state: {8 << 4} bytes requested\n"


def test_a_circuit_wider_than_an_int64_index_is_an_error_line(tmp_path, capsys):
    # a path on 64 nodes: its k = 2 Dicke search assembles to 67 qubits
    path = tmp_path / "path64.txt"
    path.write_text("64 63\n" + "".join(f"{u} {u + 1}\n" for u in range(63)), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--graph", str(path), "--k", "2", "--prep", "dicke")
    assert code == 1 and out == ""
    assert err == ("error: cannot run a 67-qubit circuit: a basis index is an int64, "
                   "which holds at most 63 qubits\n")


def test_output_file_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out1, out2):
        code = main(["solve", "--graph", "g4", "--k", "3", "--prep", "dicke",
                     "--oracle", "incremental", "--format", "json",
                     "--shots", "128", "--seed", "77", "--output", str(path)])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, noise", [("solve", "--noise"), ("sweep", "--profile")])
def test_a_bad_measure_list_is_an_error_line(monkeypatch, capsys, command, noise):
    # a circuit narrower than the node register: solve measures it with
    # run_ideal first, sweep with run_noisy
    monkeypatch.setattr(cli, "assemble", lambda *args, **kwargs: Circuit(2))
    code, out, err = run_cli(capsys, command, "--graph", "g4", "--k", "3", noise, "500:500")
    assert code == 1 and out == ""
    assert err == "error: measured qubits [2, 3] exceed the 2-qubit circuit\n"


@pytest.mark.parametrize("flags, named", [
    (("--trajectories", "40"), "--trajectories"),
    (("--workers", "2"), "--workers"),
    (("--workers", "1", "--trajectories", "2000"), "--trajectories and --workers"),
])
def test_solve_rejects_noisy_run_flags_without_noise(capsys, flags, named):
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3", "--shots", "16",
                             *flags)
    assert code == 1 and out == ""
    assert err == f"error: no noisy run to apply {named} to; add --noise\n"


@pytest.mark.parametrize("iters", ["1000000000000000000", "10000000000000000000"])
def test_an_iteration_count_too_large_to_assemble_is_an_error_line(capsys, iters):
    # 64 * 10**18 gates exceed what a list can hold and 10**19 exceeds an index,
    # so both fail before anything is allocated; a count whose list merely does
    # not fit in memory would ask the allocator for it
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3", "--iters", iters)
    assert code == 1 and out == ""
    assert err == f"error: cannot assemble {iters} Grover iterations of 64 gates each\n"


def test_an_iteration_count_whose_gate_list_exceeds_memory_is_an_error_line(capsys):
    # 64 gates per iteration at 8 bytes per list entry is about 51 TB: the size
    # is checked before the list is built, so nothing is allocated
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3",
                             "--iters", "99999999999")
    assert code == 1 and out == ""
    assert err == "error: cannot assemble 99999999999 Grover iterations of 64 gates each\n"


def test_an_error_without_a_message_is_named_by_its_type(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "assemble", no_memory)
    code, out, err = run_cli(capsys, "solve", "--graph", "g4", "--k", "3")
    assert code == 1 and out == ""
    assert err == "error: MemoryError\n"


def test_python_dash_m_qclique_runs_the_command_line():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "qclique", "verify", "--graph", "g4", "--k", "3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 clique(s) of size 3\n  [0, 1, 2] -> |0111>\n"
