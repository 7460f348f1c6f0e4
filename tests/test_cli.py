"""Tests for the command-line interface (calling main() in-process)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "videos.db")


def _simulate(db_path, **overrides):
    argv = ["simulate", "--scenario", "tunnel", "--frames", "600",
            "--seed", "3", "--db", db_path, "--mode", "oracle"]
    for key, value in overrides.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return main(argv)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "moon",
                                       "--db", "x.db"])


class TestSimulateAndInspect:
    def test_simulate_creates_database(self, db_path, capsys):
        assert _simulate(db_path) == 0
        out = capsys.readouterr().out
        assert "ingested into" in out
        assert "video sequences" in out

    def test_clips_lists_ingested(self, db_path, capsys):
        _simulate(db_path)
        assert main(["clips", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "tunnel" in out
        assert "location=tunnel" in out

    def test_clips_metadata_filter(self, db_path, capsys):
        _simulate(db_path)
        assert main(["clips", "--db", db_path,
                     "--location", "atlantis"]) == 0
        assert "(no clips)" in capsys.readouterr().out

    def test_info_shows_datasets(self, db_path, capsys):
        _simulate(db_path)
        assert main(["info", "--db", db_path, "--clip", "tunnel"]) == 0
        out = capsys.readouterr().out
        assert "dataset 'accident'" in out
        assert "tracks:" in out

    def test_info_unknown_clip_fails_cleanly(self, db_path, capsys):
        _simulate(db_path)
        assert main(["info", "--db", db_path, "--clip", "ghost"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_custom_clip_id(self, db_path, capsys):
        _simulate(db_path, clip_id="cam7-morning")
        main(["clips", "--db", db_path])
        assert "cam7-morning" in capsys.readouterr().out


class TestQueryAndLabel:
    def test_query_prints_topk(self, db_path, capsys):
        _simulate(db_path)
        assert main(["query", "--db", db_path, "--clip", "tunnel",
                     "--event", "accident", "--top-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "round=0" in out
        assert out.count("VS") == 5

    def test_label_then_query_advances_round(self, db_path, capsys):
        _simulate(db_path)
        main(["query", "--db", db_path, "--clip", "tunnel",
              "--top-k", "3"])
        first = capsys.readouterr().out
        bag_ids = [line.split()[2] for line in first.splitlines()
                   if ". VS" in line.replace("  ", " ")]
        assert main(["label", "--db", db_path, "--clip", "tunnel",
                     "--relevant", bag_ids[0],
                     "--irrelevant", ",".join(bag_ids[1:])]) == 0
        out = capsys.readouterr().out
        assert "recorded round 0" in out
        main(["query", "--db", db_path, "--clip", "tunnel",
              "--top-k", "3"])
        assert "round=1" in capsys.readouterr().out

    def test_label_without_ids_errors(self, db_path, capsys):
        _simulate(db_path)
        assert main(["label", "--db", db_path, "--clip", "tunnel"]) == 2
        assert "nothing to label" in capsys.readouterr().err

    def test_weighted_rf_engine_selectable(self, db_path, capsys):
        _simulate(db_path)
        assert main(["query", "--db", db_path, "--clip", "tunnel",
                     "--engine", "weighted_rf", "--top-k", "3"]) == 0


class TestNominatorFlags:
    def _two_clips(self, db_path):
        _simulate(db_path)
        _simulate(db_path, scenario="intersection")

    def test_ivf_query_multi_clip(self, db_path, capsys):
        self._two_clips(db_path)
        assert main(["query", "--db", db_path,
                     "--clips", "tunnel,intersection",
                     "--nominator", "ivf", "--index-cells", "16",
                     "--nprobe", "4", "--top-k", "5"]) == 0
        assert capsys.readouterr().out.count("VS") == 5

    def test_nprobe_without_ivf_rejected(self, db_path, capsys):
        self._two_clips(db_path)
        assert main(["query", "--db", db_path,
                     "--clips", "tunnel,intersection",
                     "--nprobe", "4"]) == 1
        assert "--nominator ivf" in capsys.readouterr().err

    def test_ivf_query_single_clip(self, db_path, capsys):
        _simulate(db_path)
        assert main(["query", "--db", db_path, "--clip", "tunnel",
                     "--nominator", "ivf", "--top-k", "5"]) == 0
        assert capsys.readouterr().out.count("VS") == 5

    def test_experiment_without_nominator_support_rejected(self, capsys):
        assert main(["experiment", "--name", "other_events",
                     "--nominator", "ivf"]) == 1
        assert "does not take --nominator" in capsys.readouterr().err

    def test_experiment_nprobe_requires_ivf(self, capsys):
        assert main(["experiment", "--name", "sharded_nomination",
                     "--nprobe", "2"]) == 1
        assert "--nominator ivf" in capsys.readouterr().err


class TestMaintenanceCommands:
    def test_export_import_roundtrip(self, db_path, tmp_path, capsys):
        _simulate(db_path)
        bundle = str(tmp_path / "tunnel.npz")
        assert main(["export-clip", "--db", db_path, "--clip", "tunnel",
                     "--out", bundle]) == 0
        other_db = str(tmp_path / "other.db")
        assert main(["import-clip", "--db", other_db,
                     "--bundle", bundle]) == 0
        main(["clips", "--db", other_db])
        assert "tunnel" in capsys.readouterr().out

    def test_delete_clip(self, db_path, capsys):
        _simulate(db_path)
        assert main(["delete-clip", "--db", db_path,
                     "--clip", "tunnel"]) == 0
        main(["clips", "--db", db_path])
        assert "(no clips)" in capsys.readouterr().out

    def test_delete_unknown_clip_errors(self, db_path, capsys):
        _simulate(db_path)
        assert main(["delete-clip", "--db", db_path,
                     "--clip", "ghost"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_import_duplicate_needs_replace(self, db_path, tmp_path,
                                            capsys):
        _simulate(db_path)
        bundle = str(tmp_path / "tunnel.npz")
        main(["export-clip", "--db", db_path, "--clip", "tunnel",
              "--out", bundle])
        capsys.readouterr()
        assert main(["import-clip", "--db", db_path,
                     "--bundle", bundle]) == 1
        assert "already exists" in capsys.readouterr().err
        assert main(["import-clip", "--db", db_path, "--bundle", bundle,
                     "--replace"]) == 0


class TestExperiment:
    def test_experiment_other_events(self, capsys):
        assert main(["experiment", "--name", "other_events"]) == 0
        out = capsys.readouterr().out
        assert "other_events" in out
        assert "u_turn" in out

    def test_experiment_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--name", "figure42"])
