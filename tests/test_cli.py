import numpy as np
import pytest

import imbench.bench as bench
from imbench import cli
from imbench.data import load_csv, save_csv
from imbench.bench import synth_dataset


def write_toy_csv(tmp_path, name="toy.csv"):
    rng = np.random.default_rng(0)
    labels = np.concatenate([np.ones(20, dtype=np.int64), np.zeros(40, dtype=np.int64)])
    feats = np.column_stack([labels * 5.0 + rng.random(60), rng.random(60)])
    from imbench.data import Dataset

    ds = Dataset(feats, labels, ("a", "b"))
    path = tmp_path / name
    save_csv(ds, path, label_column="y")
    return str(path)


class TestSynthCommand:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = cli.main(
            [
                "synth", "--minority", "30", "--majority", "90",
                "--features", "4", "--separation", "0.3", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        ds, _ = load_csv(out, "label")
        assert ds.n_rows == 120 and ds.n_features == 4
        expected = synth_dataset(30, 90, 4, 0.3, seed=7)
        assert np.allclose(np.sort(ds.features, axis=0), np.sort(expected.features, axis=0))


class TestRunCommand:
    def test_flags_only_run(self, tmp_path, capsys):
        csv_path = write_toy_csv(tmp_path)
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "run", "--dataset", csv_path, "--label-col", "y",
                "--samplers", "none,ros", "--classifiers", "logreg",
                "--runs", "2", "--seed", "3", "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        metrics = out_dir / "metrics.csv"
        assert metrics.is_file()
        header = metrics.read_text().splitlines()[0]
        assert header == "dataset,sampler,classifier,metric,mean,std"
        ranks = out_dir / "ranks.csv"
        assert ranks.is_file()

    def test_config_file_with_flag_override(self, tmp_path):
        csv_path = write_toy_csv(tmp_path)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# toy benchmark\n"
            f"dataset = toy, {csv_path}, y\n"
            "samplers = none\n"
            "classifiers = logreg\n"
            "runs = 1\n"
            "seed = 9\n"
            f"out_dir = {tmp_path / 'cfg-out'}\n"
        )
        code = cli.main(["run", "--config", str(cfg), "--runs", "2"])
        assert code == 0
        text = (tmp_path / "cfg-out" / "metrics.csv").read_text()
        assert "toy,none,logreg,f1" in text

    def test_markdown_format(self, tmp_path):
        csv_path = write_toy_csv(tmp_path)
        out_dir = tmp_path / "md-out"
        code = cli.main(
            [
                "run", "--dataset", csv_path, "--label-col", "y",
                "--samplers", "none", "--classifiers", "logreg",
                "--runs", "1", "--seed", "0", "--out-dir", str(out_dir),
                "--format", "markdown",
            ]
        )
        assert code == 0
        assert (out_dir / "report.md").is_file()

    def test_failed_cell_returns_nonzero(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("cell died")

        monkeypatch.setattr(bench, "run_cell", boom)
        csv_path = write_toy_csv(tmp_path)
        code = cli.main(
            [
                "run", "--dataset", csv_path, "--label-col", "y",
                "--samplers", "none", "--classifiers", "logreg",
                "--runs", "1", "--out-dir", str(tmp_path / "f-out"),
            ]
        )
        assert code == 1

    def test_unknown_sampler_is_usage_error(self, tmp_path, capsys):
        csv_path = write_toy_csv(tmp_path)
        code = cli.main(
            [
                "run", "--dataset", csv_path, "--label-col", "y",
                "--samplers", "bogus", "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown sampler 'bogus'") and err.count("\n") == 1

    def test_duplicate_dataset_names_are_usage_error(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        paths = [write_toy_csv(tmp_path, name) for name in ("a/d.csv", "b/d.csv")]
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "run", "--dataset", paths[0], "--dataset", paths[1], "--label-col", "y",
                "--samplers", "none", "--classifiers", "logreg", "--out-dir", str(out_dir),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: duplicate dataset name 'd'\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nonsense = 1\n", "bad.cfg:1: unknown key 'nonsense'"),
            ("# header\nruns 3\n", "bad.cfg:2: expected 'key = value', got 'runs 3'"),
            ("runs = x\n", "bad.cfg:1: runs must be int, got 'x'"),
            ("test_fraction = half\n", "bad.cfg:1: test_fraction must be float, got 'half'"),
            ("dataset = toy, toy.csv\n", "bad.cfg:1: dataset needs 'name, path, label_column'"),
        ],
    )
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.cfg" in err and err.count("\n") == 1

    def test_bad_format_in_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "fmt.cfg"
        cfg.write_text(f"dataset = toy, {write_toy_csv(tmp_path)}, y\nformat = xml\n")
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: format must be csv or markdown, got 'xml'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        code = cli.main(
            [
                "run", "--dataset", write_toy_csv(tmp_path), "--label-col", "y",
                "--samplers", "none", "--classifiers", "logreg",
                "--workers", workers, "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_gan_epochs_is_usage_error(self, tmp_path, capsys, monkeypatch):
        cells = []
        monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
        code = cli.main(
            [
                "run", "--dataset", write_toy_csv(tmp_path), "--label-col", "y",
                "--samplers", "none,cgan", "--gan-epochs", "-1", "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: epochs must be >= 0\n"
        assert cells == [] and not (tmp_path / "out").exists()

    def test_missing_dataset_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = cli.main(
            ["run", "--dataset", str(missing), "--label-col", "y", "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_label_col_is_usage_error(self, tmp_path):
        csv_path = write_toy_csv(tmp_path)
        assert cli.main(["run", "--dataset", csv_path]) == 2

    def test_no_datasets_is_usage_error(self):
        assert cli.main(["run", "--samplers", "none"]) == 2


class TestRankCommand:
    def test_rank_from_f1_table(self, tmp_path):
        table = tmp_path / "f1.csv"
        table.write_text(
            "dataset,classifier,sampler,f1\n"
            "d1,c1,A,0.9\nd1,c1,B,0.5\n"
            "d2,c1,A,0.8\nd2,c1,B,0.6\n"
        )
        out = tmp_path / "ranks.csv"
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "classifier,sampler,mean_rank"
        assert "overall,A,1.0" in lines[1]

    def test_matches_the_runs_own_ranks_csv(self, tmp_path):
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "run", "--dataset", write_toy_csv(tmp_path), "--label-col", "y",
                "--samplers", "none,ros,smote", "--classifiers", "logreg,gbt",
                "--runs", "2", "--seed", "4", "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        table = tmp_path / "f1.csv"
        rows = ["dataset,classifier,sampler,f1"]
        for (d, s, c, m), (mean, _) in bench.parse_metrics_csv(out_dir / "metrics.csv").items():
            if m == "f1":
                rows.append(f"{d},{c},{s},{mean!r}")
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ranks.csv"
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(out)]) == 0
        assert out.read_bytes() == (out_dir / "ranks.csv").read_bytes()

    def test_incomplete_table_is_usage_error(self, tmp_path, capsys):
        table = tmp_path / "f1.csv"
        table.write_text("dataset,classifier,sampler,f1\nd1,c1,A,0.9\nd1,c1,B,0.5\nd2,c1,A,0.8\n")
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "error: missing F1 for ('d2', 'c1', 'B')\n"

    def test_non_numeric_f1_is_usage_error(self, tmp_path, capsys):
        table = tmp_path / "f1.csv"
        table.write_text("dataset,classifier,sampler,f1\nd1,c1,A,high\n")
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: could not convert")

    def test_missing_f1_table_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert cli.main(["rank", "--f1-table", str(missing), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_bad_columns_rejected(self, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("a,b\n1,2\n")
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(tmp_path / "o.csv")]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "imbench.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "synth" in proc.stdout and "rank" in proc.stdout


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        with pytest.raises(ValueError):
            cli._parse_config_file(str(cfg))

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("\n# comment\nruns = 3  # trailing\n")
        assert cli._parse_config_file(str(cfg))["runs"] == 3
