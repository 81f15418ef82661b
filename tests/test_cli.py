"""End-to-end command line tests driven through main(argv)."""

import argparse

import numpy as np
import pytest

from combdec.cic import truncation_error_bound
from combdec import cli
from combdec.cli import main
from combdec.fixedpoint import FixedSequence
from combdec.params import FilterConfig, cic_truncation_plan
from combdec.sampleio import read_samples, write_samples


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def read_manifest(path):
    entries = {}
    for line in path.read_text().splitlines():
        k, _, v = line.partition("=")
        entries[k] = v
    return entries


def write_input(path, samples, width, fmt="text"):
    write_samples(path, FixedSequence(samples, width), fmt)


# design ------------------------------------------------------------------

def test_design_cic_full_precision(capsys):
    code, out, _ = run(capsys, "design", "--n", "5", "--r", "16", "--bin", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=5 m=1 r=16 bin=5 arch=cic"
    assert "growth=1048576" in lines
    assert "total_width=25" in lines
    assert "stage_widths=25,25,25,25,25" in lines
    assert "truncation_bits=0,0,0,0,0" in lines
    assert "output_width=25" in lines
    assert not any(l.startswith("error_bound=") for l in lines)


def test_design_cic_truncated(capsys):
    code, out, _ = run(
        capsys, "design", "--n", "5", "--r", "16", "--bin", "5",
        "--widths", "25,22,20,18,16",
    )
    assert code == 0
    lines = out.splitlines()
    assert "truncation_bits=3,2,2,2,0" in lines
    assert "output_width=16" in lines
    cfg = FilterConfig(5, 1, 16, 5)
    plan = cic_truncation_plan(cfg, (25, 22, 20, 18, 16))
    assert f"error_bound={truncation_error_bound(cfg, plan)}" in lines


def test_design_nonrec_schedule(capsys):
    code, out, _ = run(
        capsys, "design", "--n", "5", "--r", "8", "--bin", "5", "--arch", "nonrec"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=5 m=1 r=8 bin=5 arch=nonrec"
    assert "growth=32768" in lines
    assert "width_schedule=5,10,15,20" in lines
    assert "output_width=20" in lines


def test_design_config_file_with_override(capsys, tmp_path):
    cfgfile = tmp_path / "f.cfg"
    cfgfile.write_text("n=5 m=1 r=16 bin=5 arch=cic\n")
    code, out, _ = run(capsys, "design", "--config", f"@{cfgfile}", "--r", "8")
    assert code == 0
    assert out.splitlines()[0] == "n=5 m=1 r=8 bin=5 arch=cic"
    assert "total_width=20" in out


def test_design_missing_flags_exits_2(capsys):
    code, _, err = run(capsys, "design", "--n", "5")
    assert code == 2
    assert "error:" in err


def test_design_bad_ratio_exits_2(capsys):
    code, _, err = run(capsys, "design", "--n", "5", "--r", "0", "--bin", "5")
    assert code == 2
    assert "error:" in err


# simulate ----------------------------------------------------------------

def test_simulate_round_trip_and_manifest(capsys, tmp_path):
    rng = np.random.default_rng(11)
    samples = [int(v) for v in rng.integers(-16, 16, size=400)]
    infile = tmp_path / "in.txt"
    write_input(infile, samples, 5)
    outfile = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "simulate", "--n", "5", "--r", "16", "--bin", "5",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    assert out.strip() == f"wrote 25 samples at width 25 to {outfile}"
    got = read_samples(outfile, 25, "text")
    assert len(got) == 25
    man = read_manifest(tmp_path / "out.txt.manifest")
    assert man["command"] == "simulate"
    assert man["samples_in"] == "400"
    assert man["samples_out"] == "25"
    assert man["output_width"] == "25"
    assert man["widths"] == "full"
    assert man["pipelined"] == "0"
    assert "timestamp" in man


def test_simulate_manifest_repeatable_up_to_timestamp(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    write_input(infile, [1, -2, 3] * 40, 4)
    outs = []
    mans = []
    for name in ("a", "b"):
        outfile = tmp_path / f"{name}.txt"
        code, _, _ = run(
            capsys, "simulate", "--n", "3", "--r", "4", "--bin", "4",
            "--in", str(infile), "--out", str(outfile),
        )
        assert code == 0
        outs.append(outfile.read_text())
        lines = (tmp_path / f"{name}.txt.manifest").read_text().splitlines()
        mans.append([l for l in lines if not l.startswith(("timestamp=", "output="))])
    assert outs[0] == outs[1]
    assert mans[0] == mans[1]


def test_simulate_binary_output(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    write_input(infile, list(range(-8, 8)) * 10, 5)
    outfile = tmp_path / "out.bin"
    code, _, _ = run(
        capsys, "simulate", "--n", "4", "--r", "8", "--bin", "5",
        "--in", str(infile), "--out", str(outfile), "--out-format", "binary",
    )
    assert code == 0
    got = read_samples(outfile, 0, "binary")
    assert got.width == 5 + 12  # growth 8**4 adds 12 bits
    assert len(got) == 20


def test_simulate_gate_model_matches_fast(capsys, tmp_path):
    rng = np.random.default_rng(5)
    samples = [int(v) for v in rng.integers(-8, 8, size=120)]
    infile = tmp_path / "in.txt"
    write_input(infile, samples, 4)
    base = ["simulate", "--n", "3", "--r", "4", "--bin", "4", "--in", str(infile)]
    fast = tmp_path / "fast.txt"
    gate = tmp_path / "gate.txt"
    assert run(capsys, *base, "--out", str(fast))[0] == 0
    assert run(capsys, *base, "--out", str(gate), "--gate-model")[0] == 0
    assert fast.read_text() == gate.read_text()


def test_simulate_pipelined_prepends_zeros(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    write_input(infile, [3] * 64, 4)
    plain = tmp_path / "plain.txt"
    piped = tmp_path / "piped.txt"
    base = ["simulate", "--n", "5", "--r", "4", "--bin", "4", "--in", str(infile)]
    assert run(capsys, *base, "--out", str(plain))[0] == 0
    assert run(capsys, *base, "--out", str(piped), "--pipelined")[0] == 0
    a = read_samples(plain, 25, "text").samples
    b = read_samples(piped, 25, "text").samples
    assert len(a) == len(b) == 16
    assert b[:5] == (0,) * 5
    assert b[5:] == a[:-5]
    man = read_manifest(tmp_path / "piped.txt.manifest")
    assert man["pipelined"] == "1"
    assert man["latency"] == "5"


def test_simulate_empty_input(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    infile.write_text("")
    outfile = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "simulate", "--n", "5", "--r", "16", "--bin", "5",
        "--in", str(infile), "--out", str(outfile),
    )
    assert code == 0
    assert "wrote 0 samples" in out
    assert outfile.read_text() == ""


def test_simulate_width_mismatch_exits_4(capsys, tmp_path):
    infile = tmp_path / "in.bin"
    write_input(infile, [1, 2, 3], 6, fmt="binary")
    code, _, err = run(
        capsys, "simulate", "--n", "5", "--r", "16", "--bin", "5",
        "--in", str(infile), "--out", str(tmp_path / "o.txt"),
    )
    assert code == 4
    assert "width" in err


def test_simulate_malformed_input_exits_3(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    infile.write_text("1\ntwo\n")
    code, _, err = run(
        capsys, "simulate", "--n", "5", "--r", "16", "--bin", "5",
        "--in", str(infile), "--out", str(tmp_path / "o.txt"),
    )
    assert code == 3
    assert "error:" in err


def test_simulate_missing_file_exits_3(capsys, tmp_path):
    code, _, _ = run(
        capsys, "simulate", "--n", "5", "--r", "16", "--bin", "5",
        "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.txt"),
    )
    assert code == 3


def test_simulate_out_of_range_text_exits_3(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    infile.write_text("99\n")
    code, _, _ = run(
        capsys, "simulate", "--n", "5", "--r", "16", "--bin", "5",
        "--in", str(infile), "--out", str(tmp_path / "o.txt"),
    )
    assert code == 3


def test_simulate_widths_on_nonrec_exits_2(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    write_input(infile, [0] * 8, 5)
    code, _, _ = run(
        capsys, "simulate", "--n", "5", "--r", "8", "--bin", "5",
        "--arch", "nonrec", "--widths", "20,18,16,14,12",
        "--in", str(infile), "--out", str(tmp_path / "o.txt"),
    )
    assert code == 2


def test_simulate_bad_plan_exits_2(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    write_input(infile, [0] * 8, 5)
    code, _, _ = run(
        capsys, "simulate", "--n", "5", "--r", "16", "--bin", "5",
        "--widths", "10,9,8,7,6",
        "--in", str(infile), "--out", str(tmp_path / "o.txt"),
    )
    assert code == 2


# oracle ------------------------------------------------------------------

def test_oracle_coeffs(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "2", "--r", "2", "--bin", "4",
                       "--coeffs")
    assert code == 0
    assert out.split() == ["1", "2", "1"]


def test_oracle_compare_clean(capsys, tmp_path):
    rng = np.random.default_rng(23)
    samples = [int(v) for v in rng.integers(-16, 16, size=500)]
    infile = tmp_path / "in.txt"
    write_input(infile, samples, 5)
    simout = tmp_path / "sim.txt"
    assert run(
        capsys, "simulate", "--n", "5", "--r", "16", "--bin", "5",
        "--in", str(infile), "--out", str(simout),
    )[0] == 0
    code, out, _ = run(
        capsys, "oracle", "--n", "5", "--r", "16", "--bin", "5",
        "--in", str(infile), "--compare", str(simout),
    )
    assert code == 0
    assert "compared 32 samples, 0 mismatches" in out


def test_oracle_compare_flags_corruption(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    write_input(infile, [1] * 64, 5)
    simout = tmp_path / "sim.txt"
    run(capsys, "simulate", "--n", "3", "--r", "4", "--bin", "5",
        "--in", str(infile), "--out", str(simout))
    lines = simout.read_text().splitlines()
    lines[3] = str(int(lines[3]) + 1)
    simout.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, "oracle", "--n", "3", "--r", "4", "--bin", "5",
        "--in", str(infile), "--compare", str(simout),
    )
    assert code == 1
    assert "1 mismatches" in out


def test_oracle_compare_length_mismatch(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    write_input(infile, [1] * 64, 5)
    simout = tmp_path / "sim.txt"
    run(capsys, "simulate", "--n", "3", "--r", "4", "--bin", "5",
        "--in", str(infile), "--out", str(simout))
    lines = simout.read_text().splitlines()
    simout.write_text("\n".join(lines[:-1]) + "\n")
    code, out, _ = run(
        capsys, "oracle", "--n", "3", "--r", "4", "--bin", "5",
        "--in", str(infile), "--compare", str(simout),
    )
    assert code == 1
    assert "length mismatch" in out


def test_oracle_stdout_and_file(capsys, tmp_path):
    infile = tmp_path / "in.txt"
    write_input(infile, [2, -3, 4, -5, 6, -7, 8, -9], 5)
    code, out, _ = run(capsys, "oracle", "--n", "2", "--r", "2", "--bin", "5",
                       "--in", str(infile))
    assert code == 0
    printed = [int(tok) for tok in out.split()]
    outfile = tmp_path / "o.txt"
    code, _, _ = run(capsys, "oracle", "--n", "2", "--r", "2", "--bin", "5",
                     "--in", str(infile), "--out", str(outfile))
    assert code == 0
    stored = [int(tok) for tok in outfile.read_text().split()]
    assert printed == stored
    assert (tmp_path / "o.txt.manifest").exists()


def test_oracle_without_input_exits_2(capsys):
    code, _, _ = run(capsys, "oracle", "--n", "2", "--r", "2", "--bin", "5")
    assert code == 2


# response ----------------------------------------------------------------

def test_response_stdout(capsys):
    code, out, _ = run(
        capsys, "response", "--n", "5", "--r", "16", "--bin", "5",
        "--fs", "6.144e6", "--points", "64",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "freq_hz,magnitude,magnitude_db"
    assert len(lines) == 65
    assert lines[1] == "0,1048576,0"
    for line in lines[1:]:
        f, mag, db = line.split(",")
        assert float(mag) >= 0.0
        assert float(db) <= 0.0
    assert float(lines[-1].split(",")[0]) == pytest.approx(3.072e6)


def test_response_file_and_manifest(capsys, tmp_path):
    outfile = tmp_path / "resp.csv"
    code, out, _ = run(
        capsys, "response", "--n", "5", "--r", "16", "--bin", "5",
        "--fs", "6.144e6", "--points", "16", "--out", str(outfile),
    )
    assert code == 0
    assert out == ""
    assert outfile.read_text().splitlines()[0] == "freq_hz,magnitude,magnitude_db"
    man = read_manifest(tmp_path / "resp.csv.manifest")
    assert man["command"] == "response"
    assert man["points"] == "16"


def test_response_bad_points_exits_2(capsys):
    code, _, _ = run(
        capsys, "response", "--n", "5", "--r", "16", "--bin", "5",
        "--fs", "6.144e6", "--points", "1",
    )
    assert code == 2


# snr ---------------------------------------------------------------------

def test_snr_report(capsys):
    code, out, _ = run(capsys, "snr", "--samples", "32768")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "metric,value"
    table = dict(l.split(",") for l in lines[1:])
    assert table["modulator_samples"] == "32768"
    assert table["decimated_samples"] == "2048"
    assert float(table["band_hz"]) == pytest.approx(192000.0)
    assert float(table["improvement_db"]) > 20.0
    assert float(table["comb_snr_db"]) > float(table["dropped_snr_db"])


# clocks ------------------------------------------------------------------

def test_clocks_table(capsys):
    code, out, _ = run(capsys, "clocks", "--n", "5", "--bin", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "arch,r,n,width,depth,clock_mhz"
    rows = [l.split(",") for l in lines[1:]]
    cic = [r for r in rows if r[0] == "cic"]
    nonrec = [r for r in rows if r[0] == "nonrec"]
    assert [r[1] for r in cic] == ["8", "16", "32", "64"]
    assert [r[1] for r in nonrec] == ["8", "16", "32", "64"]
    cic_clk = [float(r[5]) for r in cic]
    assert all(a > b for a, b in zip(cic_clk, cic_clk[1:]))
    nr_clk = {r[5] for r in nonrec}
    assert len(nr_clk) == 1
    assert float(nr_clk.pop()) == pytest.approx(90.0)


def test_clocks_unpipelined_slower(capsys):
    _, out_p, _ = run(capsys, "clocks", "--n", "5", "--bin", "5", "--r-list", "16")
    _, out_u, _ = run(capsys, "clocks", "--n", "5", "--bin", "5", "--r-list", "16",
                      "--unpipelined")
    clk_p = float(out_p.splitlines()[1].split(",")[5])
    clk_u = float(out_u.splitlines()[1].split(",")[5])
    assert clk_u < clk_p


# adder -------------------------------------------------------------------

def test_adder_exhaustive_small(capsys):
    code, out, _ = run(capsys, "adder", "--width", "4")
    assert code == 0
    assert out.strip() == "OK 512 cases (exhaustive, width 4)"


def test_adder_exhaustive_vector_disagreement_exits_1(capsys, monkeypatch):
    # the clean run, vector model included, is test_adder_exhaustive_small
    vector = cli.mcla_add_many

    def faulty(a, b, carry_in, width):
        s, c = vector(a, b, carry_in, width)
        return s ^ ((a == 5) & (b == 9) & (carry_in == 1)), c

    monkeypatch.setattr(cli, "mcla_add_many", faulty)
    code, out, _ = run(capsys, "adder", "--width", "4")
    assert code == 1
    assert out.strip() == f"scalar/vector disagreement at case {16 * 16 + 5 * 16 + 9}"


def test_adder_random_wide(capsys):
    code, out, _ = run(capsys, "adder", "--width", "12", "--cases", "5000")
    assert code == 0
    assert out.strip() == "OK 5000 cases (random, width 12)"


def test_adder_random_above_62_bits(capsys):
    code, out, _ = run(capsys, "adder", "--width", "64", "--cases", "200")
    assert code == 0
    assert out.strip() == "OK 200 cases (random, width 64)"


def test_adder_depth_table(capsys):
    code, out, _ = run(capsys, "adder", "--depth", "8,16")
    assert code == 0
    assert out.splitlines() == ["width,mcla_gates,ripple_gates", "8,9,17", "16,13,33"]


# parser level ------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "combdec" in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# bad invocations ----------------------------------------------------------

CFG = ["--n", "5", "--r", "16", "--bin", "5"]

# flags a command would otherwise ignore: (argv, the flags the error names)
IGNORED_FLAGS = {
    "adder-exhaustive-cases": (["adder", "--width", "4", "--cases", "5"], ["--cases"]),
    "adder-exhaustive-seed": (["adder", "--width", "8", "--seed", "1"], ["--seed"]),
    "adder-default-width-cases": (["adder", "--cases", "5", "--seed", "1"],
                                  ["--cases", "--seed"]),
    "oracle-coeffs-in": (["oracle", *CFG, "--coeffs", "--in", "{tmp}/in.txt"], ["--in"]),
    "oracle-coeffs-out": (["oracle", *CFG, "--coeffs", "--out", "{tmp}/o.txt"], ["--out"]),
    "oracle-coeffs-compare": (["oracle", *CFG, "--coeffs", "--compare", "{tmp}/in.txt"],
                              ["--compare"]),
    "oracle-coeffs-format": (["oracle", *CFG, "--coeffs", "--format", "auto"], ["--format"]),
    "oracle-compare-out": (["oracle", *CFG, "--in", "{tmp}/in.txt", "--compare",
                            "{tmp}/in.txt", "--out", "{tmp}/o.txt"], ["--out"]),
}


@pytest.mark.parametrize("argv, code, flags", [
    (["adder", "--width", "6"], 2, None),
    (["adder", "--depth", "6"], 2, None),
    (["adder", "--cases", "-1"], 2, None),
    (["adder", "--depth", "8,16", "--width", "12"], 2, None),
    (["adder", "--depth", "8,16", "--cases", "100"], 2, None),
    (["adder", "--depth", "8,16", "--seed", "1"], 2, None),
    (["clocks", "--n", "5", "--bin", "5", "--r-list", "a"], 2, None),
    (["design", "--n", "5", "--r", "8", "--bin", "5", "--arch", "nonrec",
      "--widths", "20,18,16,14,12"], 2, None),
    (["simulate", *CFG, "--in", "/", "--out", "{tmp}/out.txt"], 3, None),
    (["simulate", *CFG, "--in", "{tmp}/in.txt", "--out", "/"], 3, None),
    (["simulate", "--config", "@/", "--in", "{tmp}/in.txt", "--out", "{tmp}/out.txt"], 3, None),
] + [(argv, 2, flags) for argv, flags in IGNORED_FLAGS.values()],
    ids=["adder-width", "adder-depth", "adder-cases", "adder-depth-width",
         "adder-depth-cases", "adder-depth-seed", "clocks-r-list",
         "design-nonrec-widths", "simulate-in-dir", "simulate-out-dir", "config-dir",
         *IGNORED_FLAGS])
def test_bad_invocation_exit_code_and_one_line_error(capsys, tmp_path, argv, code, flags):
    write_input(tmp_path / "in.txt", [1, 2, 3], 5)
    got, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    if flags is not None:  # the error names every flag the command would ignore
        named = err.partition(" cannot be combined")[0].removeprefix("error: ")
        assert named.split(", ") == flags
        assert not (tmp_path / "o.txt").exists()


# one parser for every call ------------------------------------------------

def _call(capsys, argv, outfile):
    """(exit code, stdout, output file bytes) of one main call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    data = outfile.read_bytes() if outfile.exists() else None
    if outfile.exists():
        outfile.unlink()
    return code, out, data


@pytest.mark.parametrize("first", [
    ["simulate", *CFG, "--gate-model", "--pipelined", "--in", "{in}", "--out", "{out}",
     "--out-format", "binary"],
    ["adder", "--width", "6"],
    ["simulate", *CFG, "--in", "/", "--out", "{out}"],
    ["simulate", *CFG, "--format", "csv", "--in", "{in}", "--out", "{out}"],
    ["--version"],
    ["simulate", "--help"],
], ids=["gate-pipelined", "bad-adder", "bad-input", "parse-error", "version", "help"])
def test_a_call_leaves_no_state_for_the_next(capsys, tmp_path, first):
    infile, outfile = tmp_path / "in.txt", tmp_path / "out.txt"
    write_input(infile, [int(v) for v in np.arange(-16, 16).repeat(9)], 5)
    calls = [[a.replace("{in}", str(infile)).replace("{out}", str(outfile)) for a in first],
             ["simulate", *CFG, "--in", str(infile), "--out", str(outfile)]]
    together = [_call(capsys, argv, outfile) for argv in calls]
    man = read_manifest(tmp_path / "out.txt.manifest")
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(_call(capsys, argv, outfile))
    assert together == alone
    assert together[1][0] == 0
    assert (man["adder_mode"], man["pipelined"], man["out_format"]) == ("fast", "0", "text")


def test_main_builds_one_parser_for_many_calls(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for argv in (["design", *CFG], ["clocks", "--n", "5", "--bin", "5"], ["design", *CFG]):
        assert main(argv) == 0
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert built.count("combdec") == 1
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser.cache_info().hits == 3
    capsys.readouterr()


# validation --------------------------------------------------------------

@pytest.mark.parametrize("argv, reads", [
    (["simulate", *CFG, "--out", "{tmp}/out.txt"], 1),
    (["simulate", *CFG, "--widths", "25,22,20,18,16", "--out", "{tmp}/out.txt"], 1),
    (["simulate", *CFG, "--arch", "nonrec", "--out", "{tmp}/out.txt"], 1),
    (["simulate", *CFG, "--pipelined", "--out", "{tmp}/out.bin", "--out-format",
      "binary"], 1),
    (["oracle", *CFG, "--compare", "{tmp}/ref.txt"], 2),
], ids=["cic", "cic-truncated", "nonrec", "pipelined", "oracle-compare"])
def test_samples_are_validated_once_per_file_read(capsys, tmp_path, monkeypatch, argv, reads):
    rng = np.random.default_rng(5)
    write_input(tmp_path / "in.txt", [int(v) for v in rng.integers(-16, 16, 320)], 5)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if argv[0] == "oracle":
        run(capsys, "simulate", *CFG, "--in", str(tmp_path / "in.txt"),
            "--out", str(tmp_path / "ref.txt"))
    calls = []
    check = FixedSequence.__post_init__

    def counted(seq):
        calls.append(len(seq.array))
        check(seq)

    monkeypatch.setattr(FixedSequence, "__post_init__", counted)
    code, _, _ = run(capsys, *argv, "--in", str(tmp_path / "in.txt"))
    assert code == 0
    # the file reads are checked; filter, pipeline and oracle outputs are not
    assert len(calls) == reads
    assert calls[0] == 320
