import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

import finset.cli
from finset.cli import EXIT_COLLAPSE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from finset.model import ParticleCollapseError


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPartitionCommand:
    def test_basic(self, capsys):
        code, out, _ = run(
            ["partition", "--weights", "0.46,0.34,0.20", "--n", "5"], capsys
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "index,weight,expected,size,residual"
        sizes = [int(line.split(",")[3]) for line in lines[1:4]]
        assert sizes == [2, 2, 1]
        assert lines[-1].startswith("mse=0.06")
        assert "mae=0.2" in lines[-1]

    def test_single_bin(self, capsys):
        code, out, _ = run(["partition", "--weights", "1.0", "--n", "7"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "7"
        assert lines[-1].startswith("mse=0.0,")

    def test_n_past_2_53_exits_2(self, capsys):
        code, out, err = run(
            ["partition", "--weights", "0.5,0.5", "--n", "100000000000000000000"], capsys
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.count("\n") == 1 and "2**53" in err

    def test_overflowing_sum_exits_2_with_one_line(self, capsys):
        # the sum overflows to inf; NumPy's RuntimeWarning used to come first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["partition", "--weights", "1e308,1e308", "--n", "3"], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.count("\n") == 1 and "weights sum to inf" in err

    def test_invalid_sum_exits_2(self, capsys):
        code, _, err = run(["partition", "--weights", "0.5,0.6", "--n", "4"], capsys)
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_weights_file(self, tmp_path, capsys):
        f = tmp_path / "w.csv"
        f.write_text("0.2\n0.3\n0.5\n")
        code, out, _ = run(
            ["partition", "--weights-file", str(f), "--n", "10"], capsys
        )
        assert code == EXIT_OK
        sizes = [int(line.split(",")[3]) for line in out.strip().split("\n")[1:4]]
        assert sizes == [2, 3, 5]

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(
            ["partition", "--weights-file", "/nonexistent/w.csv", "--n", "3"], capsys
        )
        assert code == EXIT_IO

    def test_unparsable_weight_exits_2(self, capsys):
        code, out, err = run(["partition", "--weights", "0.5,abc", "--n", "4"], capsys)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.count("\n") == 1 and "unparsable weight" in err

    def test_round_trip_weights(self, capsys):
        w = [1 / 3, 1 / 3, 1 / 3]
        code, out, _ = run(
            ["partition", "--weights", ",".join(repr(x) for x in w), "--n", "4"],
            capsys,
        )
        assert code == EXIT_OK
        parsed = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:4]]
        assert parsed == w


class TestResampleCommand:
    def test_msv(self, capsys):
        code, out, _ = run(
            ["resample", "--method", "msv", "--weights", "0.46,0.34,0.20", "--n", "5"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "index,weight,count"
        counts = [int(line.split(",")[2]) for line in lines[1:4]]
        assert counts == [2, 2, 1]
        assert lines[-1].startswith("sv=0.06")

    def test_multinomial_degenerate(self, capsys):
        code, out, _ = run(
            ["resample", "--method", "multinomial", "--weights", "1.0,0.0",
             "--n", "4", "--seed", "1"],
            capsys,
        )
        assert code == EXIT_OK
        counts = [int(line.split(",")[2]) for line in out.strip().split("\n")[1:3]]
        assert counts == [4, 0]

    def test_unknown_method_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resample", "--method", "bogus", "--weights", "1.0", "--n", "1"])
        assert exc.value.code == EXIT_VALIDATION
        capsys.readouterr()

    def test_seed_determinism(self, tmp_path):
        args = ["resample", "--method", "systematic", "--weights",
                "0.1,0.2,0.3,0.4", "--n", "17", "--seed", "9"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(f1)]) == EXIT_OK
        assert main(args + ["--output", str(f2)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_msv_ignores_seed(self, tmp_path):
        base = ["resample", "--method", "msv", "--weights", "0.46,0.34,0.20",
                "--n", "5"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--seed", "1", "--output", str(f1)]) == EXIT_OK
        assert main(base + ["--seed", "2", "--output", str(f2)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()


class TestBenchmarkCommand:
    def test_minimal_one_row_per_method(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["benchmark", "--steps", "1", "--particles", "1",
                     "--runs", "1", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "run,t,x_true,y_obs,method,estimate,sv"
        assert len(lines) == 1 + 5  # five methods, one step each
        agg = tmp_path / "r_agg.csv"
        assert agg.exists()
        assert agg.read_text().startswith("t,method,mean_sv")

    def test_single_method(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["benchmark", "--steps", "2", "--particles", "5", "--runs", "1",
                     "--methods", "msv", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert all(",msv," in line for line in lines[1:])

    def test_byte_identical_reruns(self, tmp_path):
        args = ["benchmark", "--steps", "5", "--particles", "10", "--runs", "2",
                "--seed", "77"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(f1)]) == EXIT_OK
        assert main(args + ["--output", str(f2)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()
        assert (tmp_path / "a_agg.csv").read_bytes() == (tmp_path / "b_agg.csv").read_bytes()

    def test_golden_digest(self, tmp_path):
        # frozen bytes of the records and aggregate CSVs: the CLI byte contract
        out = tmp_path / "rec.csv"
        assert main(["benchmark", "--particles", "20", "--steps", "8", "--runs", "3",
                     "--seed", "7", "--output", str(out)]) == EXIT_OK
        golden = {
            "rec.csv":
                "dae4e7a7f5779ea0a98a82fd224538bcbc4e5d1c261ed82fa3db04fb092244be",
            "rec_agg.csv":
                "614e6574bc85d4e735d08449e036d1d58f3d7bec5f0eee45610c8f0b5aa8f96e",
        }
        for name, digest in golden.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    @pytest.mark.parametrize("extra, golden", [
        (["--no-step-resampling"],
         ("c2f2b83da67cb7112766baa03993db884a5541dbcf449ada34fe1c13b2c91beb",
          "f7a9f9cd3f3af3cf662f49bc3262fced857b742563dd34f36e00e40559eb3fad")),
        # a non-default order pins the aggregate rows to the --methods order
        (["--methods", "msv,multinomial,rsr"],
         ("99a2f72d8824efda971c51d98bd169d88a193b9f6a138b63a64e359d00ae9fee",
          "fea2ed5eee8ffe7794c962b5f4cdd51cad898334d88a922cce8c79fe1aa0410e")),
    ], ids=["no-step-resampling", "method-order"])
    def test_golden_digest_variants(self, tmp_path, extra, golden):
        out = tmp_path / "rec.csv"
        assert main(["benchmark", "--particles", "20", "--steps", "8", "--runs", "3",
                     "--seed", "7", "--output", str(out)] + extra) == EXIT_OK
        for name, digest in zip(("rec.csv", "rec_agg.csv"), golden):
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    @pytest.mark.parametrize("argv, golden", [
        # the paper's defaults: 100 particles, 60 steps, 100 runs
        ([],
         ("b358a4fff0c5402e845a7df529c2181c656132a957219ba3ba6a55e9c566b666",
          "39c4be8186acde6cd4a468872be08f50e8717ee1054409352e13920dacc840b3")),
        # an odd M, and a baseline whose draws drive the shared population
        (["--particles", "37", "--runs", "50", "--seed", "3", "--baseline", "multinomial"],
         ("3355d4838e0321355ec6f07eed3e25a71fb30324b394909ed0029581a39e018c",
          "4f32b4cb94dfb550b0cce54c11a6dc1f10640281750fbda78ab41480b2329642")),
        # baselines that read the floors, residuals and residual CDFs of every run
        (["--particles", "37", "--runs", "50", "--seed", "3", "--baseline", "residual"],
         ("cb8b40fee18ccc54a9f13fdb3f5f259be9413c945d74896e5426263c365b1527",
          "04eda1755b7411283f8539f38c0444636624b6580e735ffee0924b949ae4ca76")),
        (["--particles", "37", "--runs", "50", "--seed", "3", "--baseline", "msv"],
         ("b31e68fd7e93523ca4b1b7bf904c9510cb3e7b3a7dd90b7baaf4d6283f65de3c",
          "5744ef86376cadf3f3c06c3c20849dbd6869346f2cd02934727f83499e8c7859")),
        (["--particles", "1000", "--runs", "20", "--steps", "20", "--baseline", "residual"],
         ("6231ab540e8638f97e007ca3a50a28aa39d742977538d07bec9c5d77ca5418b0",
          "e9e148993887f7e248b9344fdbc0544cfeefc89b919b8a58594e201ce3a8b5a0")),
    ], ids=["defaults", "odd-m-multinomial-baseline", "odd-m-residual-baseline",
            "odd-m-msv-baseline", "m-1000-residual-baseline"])
    def test_golden_digest_full_runs(self, tmp_path, argv, golden):
        out = tmp_path / "rec.csv"
        assert main(["benchmark", "--output", str(out)] + argv) == EXIT_OK
        for name, digest in zip(("rec.csv", "rec_agg.csv"), golden):
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_repeated_method_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, err = run(["benchmark", "--methods", "systematic,systematic", "--runs", "1",
                            "--steps", "2", "--particles", "5", "--output", str(out)], capsys)
        assert code == EXIT_VALIDATION
        assert err.count("\n") == 1 and "'systematic'" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # NumPy's "array is too big", with a traceback and exit 1
        ["--particles", str(2**62), "--steps", "1", "--runs", "1"],
        # one stream per run, built first: it had not exited after a minute
        ["--runs", str(2**62), "--steps", "1", "--particles", "2"],
    ], ids=["particles", "runs"])
    def test_count_past_2_53_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "r.csv"
        code, _, err = run(["benchmark", "--output", str(out)] + argv, capsys)
        assert code == EXIT_VALIDATION
        assert err.count("\n") == 1 and "must be at most 2**53, got 4611686018427387904" in err
        assert not out.exists()

    def test_collapse_exits_4(self, tmp_path, capsys, monkeypatch):
        # no argv collapses the default model, so the run is stubbed
        def collapse(config):
            raise ParticleCollapseError("run 3: all particle weights vanished at step 7")

        monkeypatch.setattr(finset.cli, "run_benchmark", collapse)
        out = tmp_path / "r.csv"
        code, _, err = run(["benchmark", "--output", str(out)], capsys)
        assert code == EXIT_COLLAPSE
        assert err == "error: run 3: all particle weights vanished at step 7\n"
        assert not out.exists()

    def test_default_run_leaves_scipy_unimported(self, tmp_path):
        # only a fractional Gamma shape needs scipy; importing it costs ~25 MiB
        code = ("import sys; from finset.cli import main; "
                f"code = main(['benchmark', '--output', {str(tmp_path / 'r.csv')!r}]); "
                "print(code, 'scipy' in sys.modules)")
        src = os.path.dirname(os.path.dirname(finset.cli.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=os.environ | {"PYTHONPATH": src})
        assert done.stdout == "0 False\n"

    def test_aggregate_naming_the_records_exits_2(self, tmp_path, capsys, monkeypatch):
        # the aggregate used to replace the records, with exit 0
        monkeypatch.chdir(tmp_path)
        for agg in ("x.csv", str(tmp_path / "x.csv"), "sub/../x.csv"):
            code, out, err = run(["benchmark", "--runs", "1", "--steps", "2", "--particles",
                                  "3", "--output", "x.csv", "--aggregate", agg], capsys)
            assert code == EXIT_VALIDATION, agg
            assert out == "" and err.count("\n") == 1 and "one file" in err
            assert not (tmp_path / "x.csv").exists()

    def test_records_stream_run_by_run(self, tmp_path):
        # the records were joined into one text first: 22.4 MiB traced at 200 runs
        out = tmp_path / "r.csv"
        assert main(["benchmark", "--runs", "1", "--output", str(out)]) == EXIT_OK
        tracemalloc.start()
        try:
            code = main(["benchmark", "--runs", "200", "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 8 * 2**20, peak / 2**20

    def test_aggregate_msv_is_minimum(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["benchmark", "--steps", "10", "--particles", "30", "--runs", "3",
              "--seed", "4", "--output", str(out)])
        rows = {}
        for line in (tmp_path / "r_agg.csv").read_text().strip().split("\n")[1:]:
            t, m, v = line.split(",")
            rows.setdefault(int(t), {})[m] = float(v)
        for t, by_method in rows.items():
            assert by_method["msv"] <= min(by_method.values()) + 1e-12


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FINSET_SEED", "1")
    code, out_env, _ = run(
        ["resample", "--method", "multinomial", "--weights", "0.5,0.5", "--n", "20"],
        capsys,
    )
    assert code == EXIT_OK
    code, out_explicit, _ = run(
        ["resample", "--method", "multinomial", "--weights", "0.5,0.5",
         "--n", "20", "--seed", "1"],
        capsys,
    )
    assert out_env == out_explicit


def test_bad_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("FINSET_SEED", "abc")
    code, out, err = run(["partition", "--weights", "0.5,0.5", "--n", "2"], capsys)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.count("\n") == 1 and "FINSET_SEED" in err
