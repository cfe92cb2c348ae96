"""Tests for the command line front end and the config file grammar."""

from pathlib import Path

import pytest

from onebit_mimo import sim, squid
from onebit_mimo.cli import (
    build_parser,
    main,
    parse_config_file,
    parse_settings,
    sweep_config,
)
from onebit_mimo.sim import CSV_HEADER

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "example_sweep.cfg"


def _settings(argv):
    return parse_settings(build_parser(), argv)


class TestConfigFile:
    def test_parses_flat_grammar(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# SNR sweep for the small rig\n"
            "bs_antennas = 8\n"
            "ues = 2\n"
            "snr_db = 0, 5, 10   # dB\n"
            "precoder = zfq,squid\n"
            "trials = 50\n"
            "\n"
        )
        values = parse_config_file(cfg, build_parser())
        assert values["bs_antennas"] == "8"
        assert values["snr_db"] == "0, 5, 10"
        assert values["trials"] == "50"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for line in ("antennas = 8\n", "sdr.block_mode = false\n", "config = x\n"):
            cfg.write_text(line)
            with pytest.raises(ValueError, match="unknown key"):
                parse_config_file(cfg, build_parser())

    def test_key_set_twice_rejected(self, tmp_path):
        # the later line would otherwise silently win
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("trials = 4\n# more trials\n\ntrials = 9\n")
        with pytest.raises(ValueError, match=r"twice\.cfg:4: key 'trials' "
                                             r"already set on line 1"):
            parse_config_file(cfg, build_parser())

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bs_antennas 8\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(cfg, build_parser())

    def test_cli_overrides_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("bs_antennas = 8\ntrials = 4\nseed = 3\nconstellation = 8psk\n")
        settings = _settings(["--config", str(cfg), "--trials", "9",
                              "--constellation", "16qam"])
        assert settings.bs_antennas == 8   # from file
        assert settings.trials == 9        # CLI wins
        assert settings.seed == 3          # from file
        assert settings.ues == 16          # default
        assert settings.constellation == "16qam"

    def test_shipped_example_builds_its_sweep(self):
        sweep_cfg = sweep_config(_settings(["--config", str(EXAMPLE_CONFIG)]))
        assert sweep_cfg.num_bs_antennas == 128
        assert sweep_cfg.snr_db == (-8.0, -4.0, 0.0, 4.0, 8.0, 12.0)
        assert sweep_cfg.constellation == "16qam"
        assert sweep_cfg.precoders == ("zfq", "squid")
        assert sweep_cfg.trials == 100


class TestSweepConfigMapping:
    def test_lists_and_config_file_values(self, tmp_path):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("trials = 123\nseed = 4\n")
        settings = _settings([
            "--config", str(cfg_file),
            "--bs-antennas", "4", "--ues", "2", "--slots", "2",
            "--snr-db", "0,6", "--precoder", "zfq, squid",
            "--constellation", "QPSK", "--estimator", "genie",
            "--seed", "1", "--out", str(tmp_path / "o.csv"),
        ])
        sweep_cfg = sweep_config(settings)
        assert sweep_cfg.snr_db == (0.0, 6.0)
        assert sweep_cfg.precoders == ("zfq", "squid")
        assert sweep_cfg.constellation == "qpsk"
        assert sweep_cfg.trials == 123
        assert sweep_cfg.seed == 1

    def test_ids_are_stripped_and_lower_cased(self):
        # the library takes only the exact id, so the CSV never spells it twice
        settings = _settings(["--constellation", " 16QAM ", "--estimator", "Pilot ",
                              "--precoder", " ZFQ"])
        sweep_cfg = sweep_config(settings)
        assert sweep_cfg.constellation == "16qam"
        assert sweep_cfg.estimator == "pilot"
        assert sweep_cfg.precoders == ("zfq",)

    def test_negative_snr_list_with_equals_form(self):
        settings = _settings(["--snr-db=-8,-4,0"])
        assert sweep_config(settings).snr_db == (-8.0, -4.0, 0.0)


class TestMain:
    ARGS = ["--bs-antennas", "4", "--ues", "2", "--slots", "2",
            "--snr-db", "0,8", "--precoder", "zfq",
            "--constellation", "qpsk", "--estimator", "blind",
            "--trials", "3", "--seed", "2"]

    def test_writes_csv_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        code = main(self.ARGS + ["--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # header + 2 SNR points x 1 precoder
        assert "wrote" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(out1)])
        main(self.ARGS + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("value", ["", "."])
    def test_config_file_out_naming_a_directory_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"bs_antennas = 4\nues = 2\nslots = 2\nout = {value}\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"output path '{value}' names a directory" in captured.err

    def test_config_key_set_twice_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = 1\nues = 2\nseed = 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "s.cfg:3: key 'seed' already set on line 1" in captured.err
        assert not (tmp_path / "o.csv").exists()

    def test_interrupt_exits_130_keeping_finished_points(self, tmp_path, capsys,
                                                          monkeypatch):
        # two precoders, so a point is two rows of the CSV
        args = self.ARGS + ["--precoder", "zfq,mrtq"]
        full = tmp_path / "full.csv"
        main(args + ["--out", str(full)])
        rows = full.read_text().splitlines(keepends=True)
        capsys.readouterr()
        uninterrupted = sim.run_trial
        # the call that is cut: the first of point 0, the first and the last of
        # point 1 (each point runs 3 trials x 2 precoders)
        for cut_call, points in ((1, 0), (7, 1), (12, 1)):
            calls = []

            def interrupt(tcfg, seed):
                calls.append(seed)
                if len(calls) == cut_call:
                    raise KeyboardInterrupt
                return uninterrupted(tcfg, seed)

            monkeypatch.setattr(sim, "run_trial", interrupt)
            cut = tmp_path / f"cut{cut_call}.csv"
            try:
                code = main(args + ["--out", str(cut)])
            except KeyboardInterrupt:
                pytest.fail("the interrupt escaped main")
            assert code == 130
            captured = capsys.readouterr()
            assert captured.err == (f"interrupted; {cut} holds the header and every "
                                    f"finished point: {points} of 2 SNR points\n")
            assert cut.read_text() == "".join(rows[:1 + 2 * points])

    def test_hard_failures_exit_nonzero(self, tmp_path, capsys):
        # brute force guard trips at B=16, so every trial fails hard
        code = main(["--bs-antennas", "16", "--ues", "2", "--slots", "1",
                     "--snr-db", "0", "--precoder", "bruteforce",
                     "--trials", "1", "--seed", "0",
                     "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "failed" in capsys.readouterr().err

    def test_solver_nonconvergence_is_printed(self, tmp_path, capsys, monkeypatch):
        # the budget is fixed, so cut it inside the solver
        relax = squid.squid_relax
        monkeypatch.setattr(squid, "squid_relax", lambda h_r, s_r, cfg: relax(
            h_r, s_r, cfg, max_iters=1))
        code = main(self.ARGS + ["--precoder", "squid",
                                 "--out", str(tmp_path / "n.csv")])
        assert code == 0
        # one iteration never closes the gap, so each of a point's 3 trials counts
        counts = [int(field.split("=")[1])
                  for line in capsys.readouterr().out.splitlines()
                  for field in line.split() if field.startswith("nonconverged=")]
        assert counts == [3, 3]

    @pytest.mark.parametrize("file_text, argv, message", [
        ("trials = abc\n", [], "invalid int value: 'abc'"),
        ("", ["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        ("", ["--precoder", "zfq,nope"], "unknown precoder 'nope'"),
        ("", ["--constellation", "5qam"], "unknown constellation '5qam'"),
        ("sdr.block_mode = false\n", [], "unknown key 'sdr.block_mode'"),
        ("", ["--out", "missing_dir/x.csv"], "directory of 'missing_dir/x.csv' does not exist"),
        ("slots = 0\n", [], "slots: must be >= 1, got 0"),
        ("trials = 0\n", [], "trials: must be >= 1, got 0"),
        ("", ["--snr-db=-inf"], "snr_db = -inf dB gives no finite positive noise"),
        ("", ["--snr-db=4000"], "snr_db = 4000.0 dB gives no finite positive noise"),
        # the solver budgets are not settings, so an old file or flag fails loudly
        ("squid.rel_tol = 0\n", [], "unknown key 'squid.rel_tol'"),
        ("sdr.tol = 0\n", [], "unknown key 'sdr.tol'"),
        ("sdr.max_iters = 5000\n", [], "unknown key 'sdr.max_iters'"),
        ("", ["--out", "."], "output path '.' names a directory"),
        ("", ["--out", ""], "output path '' names a directory"),
        ("squid.max_iters = 2000\n", [], "unknown key 'squid.max_iters'"),
        ("", ["--sdr.tol", "inf"], "unrecognized arguments: --sdr.tol inf"),
        ("", ["--precoder", "zfq,zfq"], "precoder 'zfq' is listed more than once"),
        ("", ["--snr-db", "4,4"], "snr_db lists one point twice: 4.0 and 4.0"),
        ("", ["--snr-db=-0,0"], "snr_db lists one point twice: -0.0 and 0.0"),
        ("", ["--snr-db", "1.0000001,1.0000002"],
         "snr_db lists one point twice: 1.0000001 and 1.0000002"),
        # every point runs all its trials, so an early-stop file or flag fails loudly
        ("stop_after_errors = 5\n", [], "unknown key 'stop_after_errors'"),
        ("", ["--stop-after-errors", "5"], "unrecognized arguments: --stop-after-errors 5"),
    ])
    def test_invalid_setting_exits_2_before_any_trial(self, tmp_path, capsys,
                                                      file_text, argv, message):
        cfg, out = tmp_path / "s.cfg", tmp_path / "never.csv"
        # a key may be set only once, so the line under test replaces the
        # base line of its key with a comment, keeping itself on line 7
        key = file_text.partition("=")[0].strip()
        base = ["bs_antennas = 4", "ues = 2", "slots = 2", "snr_db = 0",
                "precoder = zfq", "trials = 1"]
        cfg.write_text("".join(f"# {line}\n" if line.startswith(f"{key} =") else f"{line}\n"
                               for line in base) + file_text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "--out", str(out)] + argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines()[-1].startswith("onebit-mimo: error: ")
        assert message in captured.err and "Traceback" not in captured.err
        if file_text:
            # an error in the file names the file and the line, here line 7
            assert f"{cfg}:7: " in captured.err
