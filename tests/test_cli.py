import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cfris import ConfigError, SimConfig
from cfris.cli import _COLUMNS, _csv_text, _fmt, load_config, main, run
from cfris.experiments import (DEFAULT_GAIN_N_LIST, DEFAULT_HEIGHTS,
                               DEFAULT_KAPPAS, DEFAULT_N_LIST, ExperimentSpec)
from cfris.geometry import FIELD_TYPES

NO_FLAGS = {}


def flags(**kw):
    return dict(kw)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg, spec = load_config(str(path), NO_FLAGS)
        assert cfg == SimConfig()
        assert spec.kind == "rate-region"

    def test_no_file_gives_defaults(self):
        cfg, _ = load_config(None, NO_FLAGS)
        assert cfg == SimConfig()

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# scenario\n"
            "m_ap = 10\n"
            "kappa = 0.25   # power split\n"
            "n_ris = 30\n"
            "experiment = cdf\n"
            "heights = 16, 100, 300\n")
        cfg, spec = load_config(str(path), NO_FLAGS)
        assert cfg.m_ap == 10 and cfg.kappa == 0.25 and cfg.n_ris == 30
        assert spec.kind == "cdf"
        assert spec.heights == (16.0, 100.0, 300.0)

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_ris = 30\n")
        cfg, _ = load_config(str(path), flags(n_ris="15"))
        assert cfg.n_ris == 15

    def test_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="kappa"):
            load_config(None, flags(kappa="1.5"))

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m_ap = 4\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path), NO_FLAGS)

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# fine\nnot a key value pair\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path), NO_FLAGS)

    def test_unparsable_value_reported(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m_ap = many\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path), NO_FLAGS)

    def test_sweep_flags(self):
        cfg, spec = load_config(None, flags(
            experiment="ris-gain", n_ris="20,30", heights="16,100"))
        assert cfg.n_ris == 20
        assert spec.n_list == (20, 30)
        assert spec.heights == (16.0, 100.0)

    def test_single_kappa_is_its_sweep(self):
        # one value is a one-point sweep; it used to leave the default
        # sweep in place, unused by rate-region
        cfg, spec = load_config(None, flags(kappa="0.33"))
        assert cfg.kappa == 0.33
        assert spec.kappas == (0.33,)

    def test_no_ris_flag(self):
        cfg, _ = load_config(None, flags(no_ris=True))
        assert cfg.n_ris == 0

    def test_seed_and_trials_flags(self):
        cfg, _ = load_config(None, flags(seed=7, trials=10))
        assert cfg.master_seed == 7 and cfg.trials == 10


# Every SimConfig field as written in a config file, and the value it reads
# as; an integral float is written bare so that its type must come from the
# field.
FILE_FIELDS = {
    "m_ap": ("7", 7), "n_gue": ("3", 3), "n_ris": ("9", 9),
    "master_seed": ("11", 11), "trials": ("33", 33),
    "area_side": ("50", 50.0), "h_ap": ("14", 14.0), "h_ris": ("10.5", 10.5),
    "h_gue": ("2", 2.0), "h_uav": ("80", 80.0), "ris_x": ("5", 5.0),
    "carrier_freq_hz": ("2.4e9", 2.4e9), "bandwidth_hz": ("1e7", 1e7),
    "noise_power_dbm": ("-70", -70.0), "p_d_w": ("2", 2.0),
    "kappa": ("0.25", 0.25), "tilt_deg": ("-5", -5.0),
    "rho_db": ("-20", -20.0), "alpha": ("3", 3.0),
}

# (config file text, flags, expected SimConfig fields, expected spec fields)
LOAD_CASES = {
    "seed beats file": ("master_seed = 5", flags(seed=9),
                        {"master_seed": 9}, {}),
    "trials beat file": ("trials = 5", flags(trials=9), {"trials": 9}, {}),
    "uav-height beats file": ("h_uav = 50", flags(uav_height=70.0),
                              {"h_uav": 70.0}, {}),
    "tilt-deg beats file": ("tilt_deg = 5", flags(tilt_deg=-5.0),
                            {"tilt_deg": -5.0}, {}),
    "one kappa beats file": ("kappa = 0.2", flags(kappa="0.3"),
                             {"kappa": 0.3}, {"kappas": (0.3,)}),
    "one n-ris beats file": ("n_ris = 30", flags(n_ris="15"),
                             {"n_ris": 15}, {"n_list": (15,)}),
    "one uav-height sweeps": ("", flags(uav_height=50.0),
                              {"h_uav": 50.0}, {"heights": (50.0,)}),
    "file scalars are sweeps": ("kappa = 0.3\nn_ris = 8\nh_uav = 50",
                                NO_FLAGS, {}, {"kappas": (0.3,),
                                               "n_list": (8,),
                                               "heights": (50.0,)}),
    "file sweep beats file scalar": ("kappa = 0.3\nkappas = 0.2, 0.4",
                                     NO_FLAGS, {}, {"kappas": (0.2, 0.4)}),
    "flag scalar beats file sweep": ("heights = 10, 20",
                                     flags(uav_height=50.0),
                                     {"h_uav": 50.0}, {"heights": (50.0,)}),
    "heights beat uav-height": ("", flags(uav_height=50.0, heights="30,40"),
                                {"h_uav": 50.0}, {"heights": (30.0, 40.0)}),
    "kappa list sweeps": ("kappa = 0.2", flags(kappa="0.3, 0.4"),
                          {"kappa": 0.3}, {"kappas": (0.3, 0.4)}),
    "n-ris list sweeps": ("n_ris = 30", flags(n_ris="8,4"),
                          {"n_ris": 8}, {"n_list": (8, 4)}),
    "file sweeps": ("kappas = 0.2, 0.4\nn_list = 3, 5\nheights = 10, 20",
                    NO_FLAGS, {}, {"kappas": (0.2, 0.4), "n_list": (3, 5),
                                   "heights": (10.0, 20.0)}),
    "flag lists beat file lists": (
        "kappas = 0.2, 0.4\nn_list = 3, 5\nheights = 10, 20",
        flags(kappa="0.5,0.6", n_ris="7,9", heights="30,40"),
        {"kappa": 0.5, "n_ris": 7},
        {"kappas": (0.5, 0.6), "n_list": (7, 9), "heights": (30.0, 40.0)}),
    "no-ris beats n-ris": ("n_ris = 30", flags(n_ris="15", no_ris=True),
                           {"n_ris": 0}, {}),
    "ris-gain default n_list": ("", flags(experiment="ris-gain"), {},
                                {"n_list": DEFAULT_GAIN_N_LIST}),
    "experiment flag beats file": ("experiment = cdf",
                                   flags(experiment="ris-gain"), {},
                                   {"kind": "ris-gain"}),
    "out, workers and config ignored": (
        "", flags(out="elsewhere", workers=3, config="nope.cfg"), {},
        {"kind": "rate-region", "kappas": DEFAULT_KAPPAS,
         "n_list": DEFAULT_N_LIST, "heights": DEFAULT_HEIGHTS}),
}


class TestLoadConfigTable:
    @pytest.mark.parametrize("key", sorted(FILE_FIELDS))
    def test_every_field_read_from_file_with_its_type(self, tmp_path, key):
        raw, value = FILE_FIELDS[key]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {raw}\n")
        cfg, _ = load_config(str(path), NO_FLAGS)
        assert getattr(cfg, key) == value
        assert type(getattr(cfg, key)) is type(value)

    def test_table_covers_every_field(self):
        assert set(FILE_FIELDS) == set(FIELD_TYPES)
        types = [type(v) for _, v in FILE_FIELDS.values()]
        assert (types.count(int), types.count(float)) == (5, 14)

    @pytest.mark.parametrize("case", LOAD_CASES)
    def test_resolution(self, tmp_path, case):
        text, overrides, want_cfg, want_spec = LOAD_CASES[case]
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        cfg, spec = load_config(str(path), overrides)
        assert cfg == SimConfig(**{**_file_fields(text), **want_cfg})
        assert spec.base == cfg
        for key, value in want_spec.items():
            assert getattr(spec, key) == value
        for key, kind in (("kappas", float), ("n_list", int),
                          ("heights", float)):
            assert all(type(v) is kind for v in getattr(spec, key))


def _file_fields(text):
    """The SimConfig fields a case's config file sets, typed by the table."""
    out = {}
    for line in text.splitlines():
        key, _, raw = (s.strip() for s in line.partition("="))
        if key in FILE_FIELDS:
            out[key] = type(FILE_FIELDS[key][1])(raw)
    return out


def _tiny_spec(kind, **kw):
    base = SimConfig(m_ap=5, n_gue=2, n_ris=6, trials=25, master_seed=3)
    defaults = dict(kappas=(0.05, 0.2), n_list=(6,), heights=(100.0,))
    defaults.update(kw)
    return ExperimentSpec(kind=kind, base=base, **defaults)


class TestRun:
    @pytest.mark.parametrize("kind, name, header", [
        ("rate-region", "rate_region.csv",
         "system,kappa,gue_rate_mbps,uav_rate_mbps"),
        ("cdf", "rate_cdf.csv", "scenario,user,rate_mbps,prob"),
        ("ris-gain", "ris_gain.csv", "n_ris,uav_height_m,mean_gain_db"),
    ])
    def test_csv_name_and_header(self, tmp_path, kind, name, header):
        csv_path = run(_tiny_spec(kind), tmp_path)
        assert csv_path == tmp_path / name
        assert csv_path.read_text().splitlines()[0] == header

    @pytest.mark.parametrize("kind, sweeps", [
        ("rate-region", {"kappas": [0.05, 0.2], "n_list": [6]}),
        ("cdf", {"cdf_scenarios": [[0.1, 15.0, False], [0.33, -5.0, False],
                                   [0.1, 15.0, True]]}),
        ("ris-gain", {"n_list": [6], "heights": [100.0]}),
    ])
    def test_manifest_echoes_the_sweeps_run(self, tmp_path, kind, sweeps):
        # every sweep used to be echoed, including those the study ignores
        run(_tiny_spec(kind), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["sweeps"] == sweeps

    def test_manifest_writes_numpy_numbers(self, tmp_path):
        # SimConfig and the sweeps accept numpy numbers; json.dumps used to
        # raise TypeError on them after the CSV was written
        base = SimConfig(m_ap=np.int64(5), n_gue=2, kappa=np.float32(0.25),
                         trials=25)
        run(ExperimentSpec("ris-gain", base, n_list=(np.int64(6),),
                           heights=(100.0,)), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["m_ap"] == 5
        assert manifest["config"]["kappa"] == 0.25
        assert manifest["sweeps"]["n_list"] == [6]

    def test_rate_region_csv_schema(self, tmp_path):
        csv_path = run(_tiny_spec("rate-region"), tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "system,kappa,gue_rate_mbps,uav_rate_mbps"
        assert len(lines) == 1 + 2 * 2 + 1   # 2 systems x 2 kappas + no-uav
        assert lines[-1].startswith("no-uav,,")

    def test_same_seed_byte_identical(self, tmp_path):
        a = run(_tiny_spec("cdf"), tmp_path / "a")
        b = run(_tiny_spec("cdf"), tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_ris_gain_cross_product_rows(self, tmp_path):
        # heights 16,100,300 x n_ris 20,30,40,50,60 -> a 15-row table
        spec = _tiny_spec("ris-gain", n_list=(20, 30, 40, 50, 60),
                          heights=(16.0, 100.0, 300.0))
        csv_path = run(spec, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n_ris,uav_height_m,mean_gain_db"
        assert len(lines) == 1 + 15

    def test_manifest_reproduces_run(self, tmp_path):
        run(_tiny_spec("ris-gain"), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiment"] == "ris-gain"
        assert manifest["master_seed"] == 3
        assert manifest["config"]["m_ap"] == 5
        assert manifest["config"]["trials"] == 25
        assert manifest["duration_s"] >= 0.0
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        # every SimConfig field is echoed
        assert set(FIELD_TYPES) <= set(manifest["config"])


def _per_cell_csv(rows):
    """The CSV text written cell by cell with _fmt, as the one-pass
    formatter must reproduce it."""
    keys = list(rows[0])
    header = [k[:-4] + "_mbps" if k.endswith("_bps") else _COLUMNS.get(k, k)
              for k in keys]
    lines = [",".join(header)] + [
        ",".join(_fmt(r[k] / 1e6 if k.endswith("_bps") else r[k])
                 for k in keys) for r in rows]
    return "\n".join(lines) + "\n"


class TestCsvText:
    FLOATS = [0.1, 1 / 3, 2.5e-7, 123456789.123, 1e22, -0.0, 5e-324,
              math.nan, math.inf, -math.inf, 0.0, 1.0]

    def test_python_float_columns(self):
        rng = np.random.default_rng(1)
        values = self.FLOATS + [float(x) for x in rng.standard_normal(200)
                                * 10.0 ** rng.integers(-30, 30, 200)]
        rows = [{"x": x, "rate_bps": x * 1e6, "h_uav_m": -x}
                for x in values]
        assert _csv_text(rows) == _per_cell_csv(rows)

    def test_mixed_columns(self):
        # rate-region's kappa holds floats and None; every other kind of
        # cell, and a numpy float64 among Python floats, is written by _fmt
        rows = [{"system": "no-ris", "kappa": 0.02, "n": 3, "flag": True,
                 "gain": np.float64(1 / 3), "uav_rate_bps": 5.5e6},
                {"system": "no-uav", "kappa": None, "n": -7, "flag": False,
                 "gain": 0.25, "uav_rate_bps": 0.0},
                {"system": "ris-n15", "kappa": 0.15, "n": 0, "flag": None,
                 "gain": np.float64(math.nan), "uav_rate_bps": 1.0}]
        text = _csv_text(rows)
        assert text == _per_cell_csv(rows)
        assert text.splitlines()[2] == "no-uav,,-7,False,0.25,0"

    def test_numpy_float_column(self):
        rows = [{"rate_bps": np.float64(x)} for x in self.FLOATS]
        assert _csv_text(rows) == _per_cell_csv(rows)


class TestMain:
    def test_happy_path(self, tmp_path, capsys):
        code = main(["--experiment", "ris-gain", "--trials", "25",
                     "--n-ris", "4", "--heights", "100",
                     "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ris_gain.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_twice_identical_output(self, tmp_path):
        args = ["--experiment", "ris-gain", "--trials", "25", "--n-ris", "4",
                "--heights", "100", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "x")]) == 0
        assert main(args + ["--out", str(tmp_path / "y")]) == 0
        assert (tmp_path / "x" / "ris_gain.csv").read_bytes() == \
            (tmp_path / "y" / "ris_gain.csv").read_bytes()

    def test_validation_error_exit_1(self, capsys):
        assert main(["--kappa", "1.5"]) == 1
        assert "kappa" in capsys.readouterr().err

    def test_ris_gain_without_uav_power_exit_1(self, tmp_path, capsys):
        # with kappa = 0 both UAV SINRs are 0 and the gain is undefined
        code = main(["--experiment", "ris-gain", "--kappa", "0",
                     "--n-ris", "4,8", "--heights", "100", "--trials", "20",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "kappa" in capsys.readouterr().err
        assert not (tmp_path / "ris_gain.csv").exists()

    def test_rate_region_too_few_trials_exit_1(self, tmp_path, capsys):
        # a 95%-likely rate needs 20 samples; this used to run every trial
        # and end in a traceback
        code = main(["--experiment", "rate-region", "--trials", "5",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "at least 20" in capsys.readouterr().err
        assert not (tmp_path / "rate_region.csv").exists()

    def test_rate_region_zero_elements_exit_1(self, tmp_path, capsys):
        # "ris-n0" rows used to repeat the no-ris rows
        code = main(["--experiment", "rate-region", "--n-ris", "0,15",
                     "--trials", "20", "--out", str(tmp_path)])
        assert code == 1
        assert "n_ris >= 1" in capsys.readouterr().err
        assert not (tmp_path / "rate_region.csv").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_degenerate_geometry_exit_1(self, tmp_path, capsys, workers):
        # GUE channel strengths underflow to 0 in a 1e100 m wide area
        path = tmp_path / "huge.cfg"
        path.write_text("area_side = 1e100\n")
        code = main(["--config", str(path), "--experiment", "cdf",
                     "--n-ris", "2", "--trials", "20", "--workers", workers,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "simulation failed: degenerate geometry" in \
            capsys.readouterr().err

    @pytest.mark.skipif(
        not {"SC_PHYS_PAGES", "SC_PAGE_SIZE"}
        <= set(getattr(os, "sysconf_names", ())),
        reason="physical memory size unknown")
    def test_trials_beyond_memory_exit_1(self, tmp_path, capsys):
        # the batch plan of 10^12 trials used to end in a MemoryError
        # traceback, or fill the host's memory
        started = time.monotonic()
        code = main(["--trials", "1000000000000", "--out", str(tmp_path)])
        assert time.monotonic() - started < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid configuration: trials:" in err
        assert "physical memory" in err and "Traceback" not in err
        assert not (tmp_path / "rate_region.csv").exists()

    def test_one_process_run_loads_no_pool(self, tmp_path):
        # the process pool is imported only by a run that forks
        script = ("import sys\n"
                  "from cfris import cli\n"
                  "spec = cli.load_config(None, {'trials': 20})[1]\n"
                  "cli.run(spec, sys.argv[1], workers=1)\n"
                  "print(sorted(m for m in sys.modules if m.startswith("
                  "('concurrent', 'multiprocessing'))))\n")
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "rate_region.csv").exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["--experiment", "ris-gain", "--trials", "25",
                     "--n-ris", "4", "--heights", "100",
                     "--out", str(blocker / "sub")])
        assert code == 2

    def test_one_kappa_is_the_rate_region_sweep(self, tmp_path):
        # the default kappas 0.02-0.15 used to be written instead
        code = main(["--experiment", "rate-region", "--kappa", "0.3",
                     "--trials", "20", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "rate_region.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["no-ris", "0.3"], ["ris-n15", "0.3"], ["ris-n30", "0.3"],
            ["no-uav", ""]]

    def test_one_point_ris_gain(self, tmp_path):
        # the default 5 x 3 grid used to be written instead
        code = main(["--experiment", "ris-gain", "--uav-height", "50",
                     "--n-ris", "8", "--trials", "20",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "ris_gain.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("8,50,")

    def test_bad_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--experiment", "bogus"])
