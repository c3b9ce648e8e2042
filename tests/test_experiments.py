import dataclasses
import json
import warnings

import numpy as np
import pytest

from succrelay import experiments, outage
from succrelay.cli import main as cli_main
from succrelay.channel import NetworkGeometry, preset_geometry, trial_rng
from succrelay.mimolinalg import InvariantError
from succrelay.protocols import capacity_gain_G, rate_direct_batch
from succrelay.experiments import (
    ConfigError,
    ExperimentConfig,
    run_dmt,
    run_experiment,
    run_gain_curve,
    run_geometry_sweep,
    run_single_realization,
    sweep_csv_table,
)

SMALL_SWEEP = dict(
    experiment="geometry_sweep",
    geometry="III",
    l=4,
    snr_grid_db=(0.0, 10.0, 20.0),
    trials=300,
    seed=424242,
    protocols=("direct", "classic2", "successive_genie"),
    adaptive_rule="a",
)
CUSTOM_GEOMETRY = dict(d_sd=1.0, d_sr1=0.5, d_sr2=0.5, d_r1d=0.5, d_r2d=0.5, d_r1r2=0.1)
# squared gains of ~1e305: finite, but snr * g overflows from 20 dB up
NEAR_FLOAT_MAX_GEOMETRY = dict(
    d_sd=1, d_sr1=0.9, d_sr2=0.9, d_r1d=0.9, d_r2d=0.9, d_r1r2=0.9, gamma=6670,
    shadow_sigma_db=0,
)


# (overrides, the field its ConfigError names).  Row i's test id is
# overrides<ROW_NUMBERS[i]>-<field>: the numbers 32-34 and 38-39 belonged to
# rows of a removed config field and stay unused, so no other row's id changes.
INVALID_OVERRIDES = [
    (dict(experiment="plot"), "experiment"),
    (dict(geometry="IV"), "geometry"),
    (dict(geometry={"d_sd": 1.0}), "geometry"),
    (dict(l=0), "l"),
    (dict(snr_grid_db=()), "snr_grid_db"),
    (dict(trials=0), "trials"),
    (dict(seed=-1), "seed"),
    (dict(protocols=()), "protocols"),
    (dict(protocols=("direct", "alamouti")), "protocols"),
    (dict(adaptive_rule="d"), "adaptive_rule"),
    (dict(output_format="yaml"), "output_format"),
    (dict(trials=2**63), "trials"),
    (dict(dmt_scheme="direct"), "dmt_scheme"),
    (dict(dmt_r=-0.5), "dmt_r"),
    (dict(dmt_trials_per_point=(5, 5)), "dmt_trials_per_point"),
    (dict(l=7.0), "l"),
    (dict(l=True), "l"),
    (dict(trials=10.5), "trials"),
    (dict(seed=1.5), "seed"),
    (dict(gain_l_values=(0, 3)), "gain_l_values"),
    (dict(gain_l_values=(3.7,)), "gain_l_values"),
    (dict(gain_l_values=(3, False)), "gain_l_values"),
    (dict(dmt_trials_per_point=(10, 10.5, 10)), "dmt_trials_per_point"),
    (dict(dmt_trials_per_point=(0, 100, 100)), "dmt_trials_per_point"),
    (dict(geometry={**CUSTOM_GEOMETRY, "d_sd": -1.0}), "geometry"),
    (dict(geometry={**CUSTOM_GEOMETRY, "gamma": 0.0}), "geometry"),
    (dict(geometry={**CUSTOM_GEOMETRY, "d_sd": None}), "geometry"),
    (dict(geometry={**CUSTOM_GEOMETRY, "d_r1d": "near"}), "geometry"),
    (dict(snr_grid_db=(0.0, float("nan"))), "snr_grid_db"),
    (dict(snr_grid_db=(float("inf"),)), "snr_grid_db"),
    (dict(dmt_r=float("nan")), "dmt_r"),
    (dict(dmt_r=float("inf")), "dmt_r"),
    (dict(dmt_r="half"), "dmt_r"),
    (dict(dmt_r=True), "dmt_r"),
    (dict(dmt_r=None), "dmt_r"),
    (dict(snr_grid_db=("ten",)), "snr_grid_db"),
    (dict(snr_grid_db=(0.0, True)), "snr_grid_db"),
    (dict(snr_grid_db=(0.0, None)), "snr_grid_db"),
    (dict(geometry={**CUSTOM_GEOMETRY, "gamma": True}), "geometry"),
    (dict(geometry={**CUSTOM_GEOMETRY, "d_sd": [1.0]}), "geometry"),
    (dict(geometry={**CUSTOM_GEOMETRY, "shadow_sigma_db": "8"}), "geometry"),
    (dict(experiment=5), "experiment"),
    (dict(experiment=["geometry_sweep"]), "experiment"),
    (dict(protocols=(["direct"],)), "protocols"),
    (dict(protocols=("direct", 5)), "protocols"),
    (dict(adaptive_rule=["a"]), "adaptive_rule"),
    (dict(output_format=None), "output_format"),
    (dict(dmt_scheme=["successive"]), "dmt_scheme"),
    (dict(output_path=5), "output_path"),
    (dict(output_path=["out.csv"]), "output_path"),
    (dict(snr_grid_db=20), "snr_grid_db"),
    (dict(snr_grid_db="20"), "snr_grid_db"),
    (dict(snr_grid_db=None), "snr_grid_db"),
    (dict(protocols="direct"), "protocols"),
    (dict(protocols=None), "protocols"),
    (dict(gain_l_values=3), "gain_l_values"),
    (dict(gain_l_values="37"), "gain_l_values"),
    (dict(dmt_trials_per_point=5), "dmt_trials_per_point"),
    (dict(dmt_trials_per_point="555"), "dmt_trials_per_point"),
    (dict(dmt_trials_per_point=(10, 2**63, 10)), "dmt_trials_per_point"),
    (dict(snr_grid_db=(0.0, 4000.0)), "snr_grid_db"),
    (dict(snr_grid_db=(-4000.0, 0.0)), "snr_grid_db"),
    (dict(snr_grid_db=(10**400,)), "snr_grid_db"),
    (dict(geometry={**CUSTOM_GEOMETRY, "gamma": float("inf")}), "geometry"),
    (dict(geometry={**CUSTOM_GEOMETRY, "shadow_sigma_db": float("inf")}), "geometry"),
    (dict(geometry={**CUSTOM_GEOMETRY, "shadow_sigma_db": float("nan")}), "geometry"),
    # JSON reads these as integers past float range
    (dict(dmt_r=10**400), "dmt_r"),
    (dict(geometry={**CUSTOM_GEOMETRY, "d_sd": 10**400}), "geometry"),
    (dict(gain_l_values=()), "gain_l_values"),
    # a repeated protocol is one column of the sweep; a repeated l reads a second stream
    (dict(protocols=("direct", "direct", "classic2")), "protocols"),
    (dict(gain_l_values=(3, 3)), "gain_l_values"),
    # neither a preset name nor a distance mapping
    (dict(geometry=5), "geometry"),
    (dict(geometry=["I"]), "geometry"),
    (dict(geometry=None), "geometry"),
    (dict(geometry=True), "geometry"),
]
ROW_NUMBERS = [*range(32), 35, 36, 37, *range(40, 80)]


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.l == 7 and cfg.trials == 10_000 and cfg.adaptive_rule == "a"

    @pytest.mark.parametrize(
        "overrides,field",
        INVALID_OVERRIDES,
        ids=[
            f"overrides{i}-{field}"
            for i, (_, field) in zip(ROW_NUMBERS, INVALID_OVERRIDES, strict=True)
        ],
    )
    def test_validation_names_offending_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{**SMALL_SWEEP, **overrides})
        assert err.value.field == field

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"snr": [0, 10]})
        assert err.value.field == "snr"

    def test_custom_geometry_unknown_key_rejected(self):
        geometry = dict(
            d_sd=1.0, d_sr1=0.5, d_sr2=0.5, d_r1d=0.5, d_r2d=0.5, d_r1r2=0.1,
            pathloss=4.0,
        )
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{**SMALL_SWEEP, "geometry": geometry})
        assert err.value.field == "geometry"

    def test_custom_geometry_accepted(self):
        cfg = ExperimentConfig(
            **{
                **SMALL_SWEEP,
                "geometry": dict(
                    d_sd=1.0, d_sr1=0.5, d_sr2=0.5, d_r1d=0.5, d_r2d=0.5, d_r1r2=0.1
                ),
            }
        )
        rows = run_geometry_sweep(cfg)
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(experiment="gain_curve", gain_l_values=[0]), "gain_l_values"),
            (dict(experiment="dmt_slope", dmt_trials_per_point=[0, 0, 0]), "dmt_trials_per_point"),
        ],
    )
    def test_iterator_list_fields_checked_as_tuples(self, overrides, field):
        # each call builds fresh iterators: a shared one would be spent by
        # the first case that read it
        listed = {k: iter(v) if isinstance(v, list) else v for k, v in overrides.items()}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{**SMALL_SWEEP, **listed})
        assert err.value.field == field

    def test_iterator_snr_grid_equals_its_tuple_config(self):
        cfg = ExperimentConfig(**{**SMALL_SWEEP, "snr_grid_db": iter([0, 10.0])})
        assert cfg == ExperimentConfig(**{**SMALL_SWEEP, "snr_grid_db": (0.0, 10.0)})

    def test_one_field_row_per_config_field(self):
        names = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "geometry"]
        assert list(experiments._FIELDS) == names

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL_SWEEP))
        cfg = ExperimentConfig.from_json_file(path)
        assert cfg == ExperimentConfig(**SMALL_SWEEP)


class TestGeometrySweep:
    def test_row_shape_and_sanity(self):
        rows = run_geometry_sweep(ExperimentConfig(**SMALL_SWEEP))
        assert [r["snr_db"] for r in rows] == [0.0, 10.0, 20.0]
        for row in rows:
            assert set(row["rates"]) == set(SMALL_SWEEP["protocols"])
            assert all(v >= 0.0 for v in row["rates"].values())
            assert 0.0 <= row["fallback_fraction"] <= 1.0
            assert 0.0 <= row["interference_free_fraction"] <= 1.0

    def test_rates_increase_with_snr(self):
        rows = run_geometry_sweep(ExperimentConfig(**SMALL_SWEEP))
        for name in SMALL_SWEEP["protocols"]:
            series = [r["rates"][name] for r in rows]
            assert series == sorted(series)

    def test_no_fallback_without_rule(self):
        cfg = ExperimentConfig(**{**SMALL_SWEEP, "adaptive_rule": "none"})
        rows = run_geometry_sweep(cfg)
        assert all(r["fallback_fraction"] == 0.0 for r in rows)

    def test_single_trial_has_zero_stderr(self):
        cfg = ExperimentConfig(**{**SMALL_SWEEP, "trials": 1})
        rows = run_geometry_sweep(cfg)
        assert all(v == 0.0 for v in rows[0]["stderrs"].values())

    def test_stderr_scales_inverse_sqrt_trials(self):
        small = run_geometry_sweep(ExperimentConfig(**{**SMALL_SWEEP, "trials": 400}))
        large = run_geometry_sweep(ExperimentConfig(**{**SMALL_SWEEP, "trials": 1600}))
        ratio = small[1]["stderrs"]["direct"] / large[1]["stderrs"]["direct"]
        assert ratio == pytest.approx(2.0, rel=0.3)

    def test_nan_mean_raises_invariant_error(self, monkeypatch):
        monkeypatch.setattr(
            experiments, "rate_direct_batch", lambda g, snr: np.full(g.shape[1], np.nan)
        )
        with pytest.raises(InvariantError, match="mean rates and standard errors must be >= 0"):
            run_geometry_sweep(ExperimentConfig(**{**SMALL_SWEEP, "protocols": ("direct",)}))


class TestSampleTrials:
    GEOMETRIES = [
        preset_geometry("I"),
        preset_geometry("II"),
        preset_geometry("III"),
        NetworkGeometry(**CUSTOM_GEOMETRY, shadow_sigma_db=0.0),
    ]

    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_more_trials_extend_the_stream(self, geom):
        # trials 0..n-1 of an SNR point are the first n columns of a longer run
        for seed, snr_idx, n, m in ((3, 0, 1, 40), (3, 2, 17, 300), (2**64 - 1, 5, 250, 251)):
            short = experiments._sample_trials(geom, seed, snr_idx, n).h
            long = experiments._sample_trials(geom, seed, snr_idx, m).h
            assert short.tobytes() == long[:, :n].tobytes()

    def test_snr_indices_and_seeds_draw_different_trials(self):
        geom = preset_geometry("III")
        base = experiments._sample_trials(geom, 7, 0, 30).h
        for seed, snr_idx in ((7, 1), (7, 2), (8, 0)):
            other = experiments._sample_trials(geom, seed, snr_idx, 30).h
            # no coefficient of any trial is shared
            assert not np.isin(base, other).any(), (seed, snr_idx)

    @pytest.mark.parametrize(
        "experiment,calls",
        [("geometry_sweep", [(0, 300), (1, 300), (2, 300)]), ("single_realization", [(0, 1)] * 3)],
    )
    def test_stream_each_point_reads(self, monkeypatch, experiment, calls):
        # (snr_idx, n) of each point's draw: a sweep point reads its own
        # stream, and every single-realization point reads trial 0 of stream 0
        sample, seen = experiments._sample_trials, []

        def record(geom, seed, snr_idx, n):
            seen.append((snr_idx, n))
            return sample(geom, seed, snr_idx, n)

        monkeypatch.setattr(experiments, "_sample_trials", record)
        run_experiment(ExperimentConfig(**{**SMALL_SWEEP, "experiment": experiment}))
        assert seen == calls


class TestGainCurve:
    def test_rows_cover_all_lengths_and_points(self):
        cfg = ExperimentConfig(
            experiment="gain_curve",
            snr_grid_db=(0.0, 20.0, 40.0),
            trials=2000,
            seed=7,
            gain_l_values=(3, 7),
        )
        rows = run_gain_curve(cfg)
        assert len(rows) == 6
        assert {r["l"] for r in rows} == {3, 7}
        assert all(r["capacity_gain"] > 0 for r in rows)

    def test_points_share_one_draw_per_frame_length(self):
        # common random numbers: each point equals a lone evaluation on the
        # frame length's stream, up to 1500 dB, just below overflow
        cfg = ExperimentConfig(
            experiment="gain_curve",
            snr_grid_db=(0.0, 15.0, 40.0, 1500.0),
            trials=2000,
            seed=8,
            gain_l_values=(3, 7),
        )
        for row in run_gain_curve(cfg):
            li = cfg.gain_l_values.index(row["l"])
            g = trial_rng(8, (li, 1)).standard_exponential((3, 2000))
            snr = 10.0 ** (row["snr_db"] / 10.0)
            assert row["capacity_gain"] == capacity_gain_G(*g, [snr], row["l"])[0]

    def test_streams_share_no_key_with_a_sweep_or_dmt_grid(self, monkeypatch):
        keys = []

        def record(seed, trial):
            keys[-1].add(trial if isinstance(trial, tuple) else (trial,))
            return trial_rng(seed, trial)

        monkeypatch.setattr(experiments, "trial_rng", record)
        monkeypatch.setattr(outage, "trial_rng", record)
        for cfg in (
            dict(experiment="gain_curve", snr_grid_db=(0.0, 20.0, 40.0), gain_l_values=(3, 7, 2)),
            dict(experiment="geometry_sweep", snr_grid_db=(0.0, 10.0, 20.0), l=3),
            dict(experiment="dmt_slope", snr_grid_db=(20.0, 30.0, 40.0)),
        ):
            keys.append(set())
            run_experiment(ExperimentConfig(**cfg, trials=20, seed=8))
        gain, sweep, dmt = keys
        assert gain == {(0, 1), (1, 1), (2, 1)} and sweep and dmt
        assert not gain & sweep and not gain & dmt and not sweep & dmt


class TestDmtExperiment:
    def test_report_includes_formula(self):
        cfg = ExperimentConfig(
            experiment="dmt_slope",
            snr_grid_db=(20.0, 30.0, 40.0),
            trials=2000,
            seed=3,
            dmt_r=0.5,
            l=7,
        )
        result = run_dmt(cfg)
        assert result["dmt_formula"] == pytest.approx(2 * (1 - 8 / 7 * 0.5))
        assert len(result["outage_prob"]) == 3

    def test_bad_grid_reported_as_config_error(self):
        cfg = ExperimentConfig(
            experiment="dmt_slope", snr_grid_db=(0.0, 10.0, 20.0), trials=100, seed=3
        )
        with pytest.raises(ConfigError) as err:
            run_dmt(cfg)
        assert err.value.field == "snr_grid_db"

    def test_grid_just_below_overflow_is_the_estimate(self):
        # just below overflow, the guard changes no byte of the estimate
        cfg = ExperimentConfig(
            experiment="dmt_slope", snr_grid_db=(2000.0, 2500.0, 3060.0), trials=1000, seed=3
        )
        result = run_dmt(cfg)
        point = outage.estimate_dmt(0.0, cfg.l, cfg.snr_grid_db, 1000, 3)
        assert json.dumps({**dataclasses.asdict(point), "dmt_formula": 2.0}) == json.dumps(result)

    def test_event_count_past_trials_is_an_invariant_error(self, monkeypatch):
        # a fault in the count, not a bad grid: no ConfigError on snr_grid_db
        monkeypatch.setattr(outage, "_point_events", lambda *args: args[-1] + 1)
        cfg = ExperimentConfig(
            experiment="dmt_slope", snr_grid_db=(20.0, 30.0, 40.0), trials=100, seed=3
        )
        with pytest.raises(InvariantError, match="outage events must lie in"):
            run_dmt(cfg)


class TestSingleRealization:
    def test_entries_per_protocol_and_snr(self):
        cfg = ExperimentConfig(
            experiment="single_realization",
            geometry="I",
            l=3,
            snr_grid_db=(0.0, 10.0),
            trials=1,
            seed=5,
            protocols=("direct", "successive_genie", "theorem1"),
        )
        result = run_single_realization(cfg)
        assert len(result["entries"]) == 6
        assert set(result["realization"]) == {
            "h_sd", "h_sr1", "h_sr2", "h_r1r2", "h_r1d", "h_r2d"
        }

    def test_direct_rate_is_the_sweep_kernel_on_trial_0(self):
        # trial 0 is the first trial of the sweep's first SNR point, and its
        # direct rate comes from the sweep's own gain array, bit for bit
        for seed in range(20):
            cfg = ExperimentConfig(
                experiment="single_realization", geometry="II", l=2,
                snr_grid_db=(0.0, 10.0, 30.0), trials=1, seed=seed, protocols=("direct",),
            )
            g = experiments._sample_trials(preset_geometry("II"), seed, 0, 50).gains()
            for e in run_single_realization(cfg)["entries"]:
                snr = 10.0 ** (e["snr_db"] / 10.0)
                assert e["rate_per_slot"] == float(rate_direct_batch(g, snr)[0])

    def test_fallback_entries_carry_the_direct_rate(self):
        # relaying schemes that fail the rule report the direct rate, with
        # no decode-first branches; successive schemes keep their flags
        fallbacks = 0
        for seed in range(20):
            cfg = ExperimentConfig(
                experiment="single_realization", geometry="I", l=3,
                snr_grid_db=(0.0, 20.0), trials=1, seed=seed, adaptive_rule="c",
            )
            entries = run_single_realization(cfg)["entries"]
            direct = {e["snr_db"]: e["rate_per_slot"] for e in entries if e["protocol"] == "direct"}
            for e in entries:
                if e["protocol"] in ("direct", "theorem1"):
                    assert not e["fallback_to_direct"]
                elif e["fallback_to_direct"]:
                    fallbacks += 1
                    assert e["rate_per_slot"] == direct[e["snr_db"]]
                    assert e["per_codeword_rates"] == [e["rate_per_slot"]]
                    assert e["decode_interference_first"] == []
                    successive = e["protocol"].startswith("successive")
                    assert isinstance(e["interference_free"], bool) == successive
        assert fallbacks > 0


class TestOutput:
    def test_csv_header_pinned(self):
        cfg = ExperimentConfig(**SMALL_SWEEP)
        header, _ = sweep_csv_table(run_geometry_sweep(cfg))
        assert header == [
            "schema_version",
            "snr_db",
            "mean_direct",
            "stderr_direct",
            "mean_classic2",
            "stderr_classic2",
            "mean_successive_genie",
            "stderr_successive_genie",
            "fallback_fraction",
            "interference_free_fraction",
            "source_links_strong_fraction",
        ]

    def test_csv_byte_identical_across_runs_and_workers(self, tmp_path):
        # --workers is ignored: the command line accepts it for older scripts
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SWEEP))
        outputs = []
        for run, workers in ((0, 1), (1, 1), (2, 3)):
            path = tmp_path / f"sweep{run}.csv"
            argv = ["--config", str(cfg_path), "--workers", str(workers), "--out", str(path)]
            assert cli_main(argv) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_byte_identical(self, tmp_path):
        path = tmp_path / "sweep.json"
        cfg = ExperimentConfig(
            **{**SMALL_SWEEP, "output_path": str(path), "output_format": "json"}
        )
        run_experiment(cfg)
        first = path.read_bytes()
        run_experiment(cfg)
        blobs = [first, path.read_bytes()]
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 3

    @pytest.mark.parametrize(
        "numpy_scalar",
        [dict(l=np.int64(2)), dict(trials=np.int32(5)), dict(seed=np.uint64(3)),
         dict(dmt_r=np.float32(0.0))],
        ids=["l", "trials", "seed", "dmt_r"],
    )
    def test_json_bytes_same_for_numpy_scalars(self, tmp_path, numpy_scalar):
        # a numpy scalar passes every check; json.dumps would reject it after the run
        path = tmp_path / "gain.json"  # the payload holds the path
        base = dict(
            experiment="gain_curve", l=2, trials=5, seed=3, snr_grid_db=(0.0, 10.0),
            output_format="json", output_path=str(path),
        )
        blobs = []
        for overrides in ({k: v.item() for k, v in numpy_scalar.items()}, numpy_scalar):
            run_experiment(ExperimentConfig(**{**base, **overrides}))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_full_precision(self, tmp_path):
        path = tmp_path / "sweep.csv"
        cfg = ExperimentConfig(**{**SMALL_SWEEP, "output_path": str(path)})
        run_experiment(cfg)
        lines = path.read_text().strip().split("\n")
        value = float(lines[1].split(",")[2])
        rows = run_geometry_sweep(cfg)
        assert value == rows[0]["rates"]["direct"]


class TestCli:
    def test_sweep_via_cli(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = cli_main(
            [
                "--experiment", "geometry_sweep",
                "--geometry", "III",
                "--l", "4",
                "--snr", "0", "10",
                "--trials", "200",
                "--seed", "9",
                "--protocols", "direct", "successive_genie",
                "--adaptive", "a",
                "--out", str(out),
                "--format", "csv",
            ]
        )
        assert rc == 0
        assert out.exists()
        assert "snr=0 dB" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_SWEEP, "trials": 100}))
        out = tmp_path / "o.json"
        rc = cli_main(
            ["--config", str(cfg_path), "--trials", "150", "--out", str(out), "--format", "json"]
        )
        assert rc == 0
        assert json.loads(out.read_text())["config"]["trials"] == 150

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = cli_main(["--experiment", "geometry_sweep", "--l", "0"])
        assert rc == 2
        assert "config field 'l'" in capsys.readouterr().err

    def test_non_integer_config_file_value_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_SWEEP, "l": 7.5}))
        assert cli_main(["--config", str(cfg_path)]) == 2
        assert "config field 'l'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(dmt_r="half"), "dmt_r"),
            (dict(snr_grid_db=["ten", 30, 40]), "snr_grid_db"),
            (dict(dmt_r=10**400), "dmt_r"),
        ],
    )
    def test_non_numeric_config_file_value_exit_code(self, tmp_path, capsys, overrides, field):
        cfg_path = tmp_path / "cfg.json"
        dmt = dict(experiment="dmt_slope", snr_grid_db=[20, 30, 40], trials=10)
        cfg_path.write_text(json.dumps({**dmt, **overrides}))
        assert cli_main(["--config", str(cfg_path)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [(dict(protocols=[["direct"]]), "protocols"), (dict(output_path=5), "output_path")],
    )
    def test_non_string_config_file_value_exit_code(self, tmp_path, capsys, overrides, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_SWEEP, **overrides}))
        assert cli_main(["--config", str(cfg_path)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(snr_grid_db=20), "snr_grid_db"),
            (dict(protocols="direct"), "protocols"),
            (dict(gain_l_values=3), "gain_l_values"),
            (dict(dmt_trials_per_point=5), "dmt_trials_per_point"),
        ],
    )
    def test_scalar_config_file_list_exit_code(self, tmp_path, capsys, overrides, field):
        cfg_path = tmp_path / "cfg.json"
        dmt = dict(experiment="dmt_slope", snr_grid_db=[20, 30, 40], trials=10)
        cfg_path.write_text(json.dumps({**dmt, **overrides}))
        assert cli_main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}': must be a list" in err

    def test_overflowing_dmt_target_names_dmt_r(self, capsys):
        argv = ["--experiment", "dmt_slope", "--r", "1e308", "--snr", "20", "30", "40"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([*argv, "--trials", "10"]) == 2
        err = capsys.readouterr().err
        assert "config field 'dmt_r'" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["--experiment", "gain_curve", "--gain-l", "0", "3"], "gain_l_values"),
            (
                ["--experiment", "dmt_slope", "--dmt-trials", "100", str(2**64), "100"],
                "dmt_trials_per_point",
            ),
        ],
    )
    def test_out_of_range_list_entry_exit_code(self, capsys, argv, field):
        assert cli_main([*argv, "--snr", "20", "30", "40", "--trials", "10"]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
    @pytest.mark.parametrize("snr", [["20", "30", "4000"], ["-4000", "0"]])
    def test_snr_without_a_finite_linear_value_exit_code(self, capsys, experiment, snr):
        assert cli_main(["--experiment", experiment, "--snr", *snr, "--trials", "10"]) == 2
        assert "config field 'snr_grid_db'" in capsys.readouterr().err

    def test_json_config_naming_workers_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_SWEEP, "workers": 2}))
        assert cli_main(["--config", str(cfg_path)]) == 2
        assert "config field 'workers': unknown configuration key" in capsys.readouterr().err

    def test_json_config_naming_dmt_fixed_rate_rejected(self, tmp_path, capsys):
        # r = 0 targets outage.FIXED_RATE_BITS; the config has no field for it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SMALL_SWEEP, "dmt_fixed_rate": 1.0}))
        assert cli_main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config field 'dmt_fixed_rate': unknown configuration key" in err

    @pytest.mark.parametrize("flags,rc", [(["--l", "3"], 0), ([], 2)])
    def test_flag_replaces_config_file_value_before_any_check(self, tmp_path, capsys, flags, rc):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.json"
        gain = dict(experiment="gain_curve", l=0, snr_grid_db=[0], trials=20, gain_l_values=[3])
        cfg_path.write_text(json.dumps(gain))
        argv = ["--config", str(cfg_path), *flags, "--out", str(out), "--format", "json"]
        assert cli_main(argv) == rc
        if rc == 0:
            assert json.loads(out.read_text())["config"]["l"] == 3
        else:
            assert "config field 'l'" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    def test_unwritable_output_path_exit_code(self, tmp_path, capsys, where):
        (tmp_path / "file").write_text("")
        out = tmp_path if where == "directory" else tmp_path / "file" / "out.csv"
        argv = ["--experiment", "gain_curve", "--snr", "0", "--trials", "10", "--gain-l", "3"]
        assert cli_main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: config field 'output_path'")
        assert f"cannot write {out}" in err

    def test_non_finite_geometry_parameter_exit_code(self, capsys):
        # JSON reads 1e400 as inf
        geometry = json.dumps(CUSTOM_GEOMETRY)[:-1] + ', "gamma": 1e400}'
        assert cli_main(["--geometry", geometry, "--snr", "10", "--trials", "10"]) == 2
        assert "config field 'geometry': gamma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["geometry_sweep", "single_realization"])
    @pytest.mark.parametrize(
        "overrides,link",
        [
            ({"gamma": 1e4}, "sr1"),
            ({"shadow_sigma_db": 1e4}, "sd"),
            # finite coefficients whose squares overflow
            (
                dict(d_sr1=0.9, d_sr2=0.9, d_r1d=0.9, d_r2d=0.9, d_r1r2=0.9, gamma=1e4),
                "sr1",
            ),
        ],
    )
    def test_overflowing_geometry_exit_code(self, capsys, experiment, overrides, link):
        # finite parameters whose path loss or shadowing overflows a gain: one
        # geometry error line, and no RuntimeWarning on the way
        geometry = json.dumps({**CUSTOM_GEOMETRY, **overrides})
        argv = ["--experiment", experiment, "--geometry", geometry]
        argv += ["--snr", "10", "--trials", "10"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: config field 'geometry': |h_{link}|^2 must be finite")

    @pytest.mark.parametrize("experiment", ["geometry_sweep", "single_realization"])
    @pytest.mark.parametrize("snr", ["20", "40"])
    def test_near_float_max_gains_exit_code(self, capsys, experiment, snr):
        # finite gains of ~1e305 pass the sampler's check; snr * g then
        # overflows inside the protocol kernels
        argv = ["--experiment", experiment, "--geometry", json.dumps(NEAR_FLOAT_MAX_GEOMETRY)]
        argv += ["--snr", snr, "--trials", "10"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'geometry': overflow encountered")
        assert f"at snr {snr} dB; gamma or shadow_sigma_db is too large" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--experiment", "gain_curve", "--gain-l", "3", "7", "--snr", "1545"],
            ["--experiment", "dmt_slope", "--snr", "2000", "2500", "3066"],
        ],
        ids=["gain_curve", "dmt_slope"],
    )
    def test_snr_that_overflows_a_kernel_exit_code(self, capsys, argv):
        # the gains are Exp(1), so only the SNR can overflow: a grid error,
        # not a NaN gain or slope with exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main([*argv, "--trials", "1000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: config field 'snr_grid_db': overflow encountered")
        assert err.endswith("; an SNR of the grid is too large\n")

    @pytest.mark.parametrize("experiment", ["geometry_sweep", "single_realization"])
    def test_near_float_max_gains_run_at_10_db(self, capsys, experiment):
        argv = ["--experiment", experiment, "--geometry", json.dumps(NEAR_FLOAT_MAX_GEOMETRY)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main([*argv, "--snr", "10", "--trials", "10"]) == 0
        assert capsys.readouterr().err == ""

    def test_invalid_custom_geometry_exit_code(self, capsys):
        geometry = json.dumps({**CUSTOM_GEOMETRY, "d_sd": -1})
        assert cli_main(["--geometry", geometry, "--snr", "10", "--trials", "10"]) == 2
        assert "config field 'geometry'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "geometry,named",
        [
            (
                {k: CUSTOM_GEOMETRY[k] for k in ("d_sd", "d_sr1", "d_sr2", "d_r1d")},
                ["d_r2d", "d_r1r2"],
            ),
            ({**CUSTOM_GEOMETRY, "pathloss": 4.0}, ["pathloss"]),
        ],
    )
    def test_custom_geometry_key_errors_exit_code(self, capsys, geometry, named):
        # a custom geometry's keys are NetworkGeometry's fields: one missing or
        # unknown is a geometry error that names the key
        argv = ["--geometry", json.dumps(geometry), "--snr", "10", "--trials", "10"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "config field 'geometry'" in err and all(f"'{k}'" in err for k in named)

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("[1, 2]", "holds a list, not a JSON object"),
            ('"III"', "holds a str, not a JSON object"),
            ('{"l": 3,', "cannot read"),
            (None, "No such file or directory"),
        ],
        ids=["list", "string", "malformed", "missing"],
    )
    def test_config_file_without_a_json_object_exit_code(self, tmp_path, capsys, text, reason):
        cfg_path = tmp_path / "run.json"
        if text is not None:
            cfg_path.write_text(text)
        assert cli_main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(cfg_path) in err and reason in err

    def test_gain_curve_via_cli(self, capsys):
        rc = cli_main(
            [
                "--experiment", "gain_curve",
                "--snr", "0", "20",
                "--trials", "500",
                "--seed", "2",
                "--gain-l", "3",
            ]
        )
        assert rc == 0
        assert "G=" in capsys.readouterr().out

    def test_dmt_via_cli(self, capsys):
        rc = cli_main(
            [
                "--experiment", "dmt_slope",
                "--snr", "20", "30", "40",
                "--trials", "5000",
                "--seed", "2",
                "--r", "0.5",
            ]
        )
        assert rc == 0
        assert "diversity estimate" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "scheme,r,formula",
        [
            ("successive", 0.0, 2.0),
            ("successive", 0.2, 2.0 * (1.0 - 8.0 / 7.0 * 0.2)),
            ("classic2", 0.0, 3.0),
            ("classic2", 0.2, 1.8),
        ],
    )
    def test_dmt_formula_is_the_measured_schemes(self, tmp_path, capsys, scheme, r, formula):
        # d(r) = 2(1 - (l+1) r / l)+ for successive relaying, 3(1 - 2r)+ for classic II
        out = tmp_path / "dmt.json"
        rc = cli_main(
            [
                "--experiment", "dmt_slope",
                "--snr", "20", "30", "40",
                "--trials", "1000",
                "--seed", "4",
                "--l", "7",
                "--r", str(r),
                "--dmt-scheme", scheme,
                "--out", str(out),
                "--format", "json",
            ]
        )
        assert rc == 0
        result = json.loads(out.read_text())["result"]
        assert result["scheme"] == scheme
        assert result["dmt_formula"] == pytest.approx(formula, rel=1e-12)
        assert f"formula={formula:.3f}" in capsys.readouterr().out

    def test_custom_geometry_json_flag(self, capsys):
        geometry = (
            '{"d_sd": 1.0, "d_sr1": 0.5, "d_sr2": 0.5,'
            ' "d_r1d": 0.5, "d_r2d": 0.5, "d_r1r2": 0.1}'
        )
        rc = cli_main(
            [
                "--experiment", "geometry_sweep",
                "--geometry", geometry,
                "--l", "3",
                "--snr", "10",
                "--trials", "100",
                "--seed", "1",
                "--protocols", "direct",
            ]
        )
        assert rc == 0
        assert "snr=10 dB" in capsys.readouterr().out
