import csv
import re
from pathlib import Path

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--minority", "0", "error: n_minority must be an integer >= 1, got 0"),
            ("--separation", "nan", "error: features contain non-finite values"),
            ("--out", "nodir/s.csv", "error: "),
        ],
        ids=["minority-0", "separation-nan", "out-in-missing-dir"],
    )
    def test_bad_input_is_usage_error(self, tmp_path, capsys, flag, value, message):
        args = {
            "--minority": "3", "--majority": "9", "--features": "2",
            "--separation": "0.3", "--out": str(tmp_path / "s.csv"),
        }
        args[flag] = str(tmp_path / value) if flag == "--out" else value
        code = cli.main(["synth", *(part for item in args.items() for part in item)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


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

    def test_fraction_leaving_a_class_no_training_row_exits_2(self, tmp_path, capsys):
        # round-half-up(3 * 0.1) is 0: no split at 0.9 leaves class 1 a training row
        csv_path = tmp_path / "tiny.csv"
        save_csv(synth_dataset(3, 30, 2, 0.3, seed=0), csv_path, label_column="y")
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "run", "--dataset", str(csv_path), "--label-col", "y",
                "--samplers", "none,smote", "--classifiers", "logreg",
                "--runs", "1", "--test-fraction", "0.9", "--out-dir", str(out_dir),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dataset 'tiny': class 1 has 3 rows, none to train at test_fraction 0.9\n"
        assert not out_dir.exists()

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

    def test_ranks_survive_a_failed_cell(self, tmp_path, monkeypatch, capsys):
        run_one = bench._run_one

        def failing_run_one(task):
            if task[0] == "a" and task[2:4] == ("ros", "rf"):
                raise RuntimeError("cell died")
            return run_one(task)

        monkeypatch.setattr(bench, "_run_one", failing_run_one)
        paths = [write_toy_csv(tmp_path, name) for name in ("a.csv", "b.csv")]
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "run", "--dataset", paths[0], "--dataset", paths[1], "--label-col", "y",
                "--samplers", "none,ros", "--classifiers", "logreg,rf",
                "--runs", "1", "--out-dir", str(out_dir),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("excluded")] == [
            "excluded from ranks: dataset 'a', classifier 'rf'"
        ]
        f1 = {
            (d, c, s): mean
            for (d, s, c, m), (mean, _) in bench.parse_metrics_csv(out_dir / "metrics.csv").items()
            if m == "f1"
        }
        assert ("a", "rf", "none") in f1 and ("a", "rf", "ros") not in f1

        def pair_ranks(d, c):  # (none, ros) ranks within one pair, 1 = best
            none, ros = f1[(d, c, "none")], f1[(d, c, "ros")]
            return (1.0, 2.0) if none > ros else (2.0, 1.0) if none < ros else (1.5, 1.5)

        ranked = {"logreg": [pair_ranks("a", "logreg"), pair_ranks("b", "logreg")], "rf": [pair_ranks("b", "rf")]}
        every = ranked["logreg"] + ranked["rf"]
        expected = [["classifier", "sampler", "mean_rank"]]
        for label, rows in (("overall", every), ("logreg", ranked["logreg"]), ("rf", ranked["rf"])):
            for i, sampler in enumerate(("none", "ros")):
                expected.append([label, sampler, repr(sum(r[i] for r in rows) / len(rows))])
        with open(out_dir / "ranks.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == expected

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
        assert capsys.readouterr().err == f"error: workers must be an integer >= 1, got {workers}\n"
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
        assert capsys.readouterr().err == "error: epochs must be an integer >= 0, got -1\n"
        assert cells == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fraction", ["nan", "inf", "1"])
    def test_bad_test_fraction_is_named_before_the_out_dir(self, tmp_path, capsys, fraction):
        # the settings are checked as the config is made, before the output
        # directory, so the error names the setting even when both are bad
        (tmp_path / "taken").write_text("a file\n")
        code = cli.main(
            [
                "run", "--dataset", write_toy_csv(tmp_path), "--label-col", "y",
                "--test-fraction", fraction, "--out-dir", str(tmp_path / "taken"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: test_fraction must be in (0,1), got {float(fraction)}\n"

    @pytest.mark.parametrize("out_dir", ["taken", "taken/out"])
    def test_unusable_out_dir_is_usage_error(self, tmp_path, capsys, monkeypatch, out_dir):
        # the output directory is checked before any cell runs
        cells = []
        monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
        (tmp_path / "taken").write_text("a file\n")
        code = cli.main(
            [
                "run", "--dataset", write_toy_csv(tmp_path), "--label-col", "y",
                "--samplers", "none", "--classifiers", "logreg", "--out-dir", str(tmp_path / out_dir),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not a writable directory" in err and err.count("\n") == 1
        assert cells == []

    @pytest.mark.parametrize("which", ["config", "dataset", "rank"])
    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys, monkeypatch, which):
        # a 0xff byte cannot start a UTF-8 sequence; the one error line names the file
        cells = []
        monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
        csv_path = write_toy_csv(tmp_path)
        bad = tmp_path / "bad.bin"
        out = str(tmp_path / "out")
        if which == "config":
            bad.write_bytes(f"dataset = toy, {csv_path}, y\n# caf\xff\n".encode("latin-1"))
            argv = ["run", "--config", str(bad), "--samplers", "none", "--out-dir", out]
        elif which == "dataset":
            bad.write_bytes(Path(csv_path).read_bytes() + b"0.5,0.5,\xff\n")
            argv = ["run", "--dataset", str(bad), "--label-col", "y", "--samplers", "none", "--out-dir", out]
        else:
            bad.write_bytes(b"dataset,classifier,sampler,f1\nd1,c1,A,0.9\nd1,c1,caf\xff,0.5\n")
            argv = ["rank", "--f1-table", str(bad), "--out", out]
        code = cli.main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "can't decode byte 0xff" in err and err.count("\n") == 1
        assert str(bad) in err
        assert cells == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["config", "dataset", "rank"])
    def test_utf8_bom_is_ignored(self, tmp_path, which):
        # a leading byte-order mark is dropped: each input runs as its copy
        # without one does, to the same output bytes
        csv_path = write_toy_csv(tmp_path)
        if which == "config":
            text = f"dataset = toy, {csv_path}, y\nsamplers = none, ros\nclassifiers = logreg\nruns = 1\n"
            flags, out_flag = ["run", "--config"], "--out-dir"
        elif which == "dataset":
            # label first, where a kept mark would stick to its name
            rows = [line.split(",") for line in Path(csv_path).read_text(encoding="utf-8").splitlines()]
            text = "".join(",".join(r[-1:] + r[:-1]) + "\n" for r in rows)
            assert text.startswith("y,")
            flags = ["run", "--label-col", "y", "--samplers", "none,ros", "--classifiers", "logreg", "--runs", "1"]
            flags, out_flag = flags + ["--dataset"], "--out-dir"
        else:
            text = "dataset,classifier,sampler,f1\nd1,c1,A,0.9\nd1,c1,B,0.5\n"
            flags, out_flag = ["rank", "--f1-table"], "--out"
        outputs = []
        for tag, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / tag).mkdir()
            src = tmp_path / tag / "input.csv"
            src.write_bytes(mark + text.encode("utf-8"))
            out = tmp_path / tag / "out"
            assert cli.main(flags + [str(src), out_flag, str(out)]) == 0
            files = sorted(out.iterdir()) if out.is_dir() else [out]
            outputs.append([(f.name, f.read_bytes()) for f in files])
        assert outputs[0] == outputs[1] and outputs[0]

    @pytest.mark.parametrize(
        "flags, cfg_line, message",
        [
            (["--samplers", ""], "", "error: need at least one sampler and one classifier\n"),
            (["--classifiers", ""], "", "error: need at least one sampler and one classifier\n"),
            (["--out-dir", ""], "", "error: output directory is empty\n"),
            ([], "out_dir =\n", "error: output directory is empty\n"),
        ],
        ids=["samplers-flag", "classifiers-flag", "out-dir-flag", "out_dir-config"],
    )
    def test_empty_value_is_usage_error(self, tmp_path, capsys, monkeypatch, flags, cfg_line, message):
        # an empty value is not an unset one: nothing falls back to a default
        cells = []
        monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = toy, {write_toy_csv(tmp_path)}, y\nsamplers = none\nclassifiers = logreg\n{cfg_line}")
        out_dir = [] if cfg_line else ["--out-dir", str(tmp_path / "out")]
        assert cli.main(["run", "--config", str(cfg), *out_dir, *flags]) == 2
        assert capsys.readouterr().err == message
        assert cells == [] and sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "toy.csv"]

    @pytest.mark.parametrize(
        "flags, cfg_line, message",
        [
            (["--samplers", "smote,none,smote"], "", "error: duplicate sampler name 'smote'\n"),
            (["--classifiers", "logreg,logreg"], "", "error: duplicate classifier name 'logreg'\n"),
            ([], "samplers = none, ros, none\n", "error: duplicate sampler name 'none'\n"),
            ([], "classifiers = rf, gbt, rf\n", "error: duplicate classifier name 'rf'\n"),
        ],
        ids=["samplers-flag", "classifiers-flag", "samplers-config", "classifiers-config"],
    )
    def test_repeated_name_is_usage_error(self, tmp_path, capsys, monkeypatch, flags, cfg_line, message):
        # a name given twice would run its cells twice: rejected before any cell runs
        cells = []
        monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = toy, {write_toy_csv(tmp_path)}, y\nsamplers = none\nclassifiers = logreg\n{cfg_line}")
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out_dir), *flags]) == 2
        assert capsys.readouterr().err == message
        assert cells == [] and not (out_dir / "metrics.csv").exists()

    def test_help_lists_the_tables(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # one help line per option
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        listed = {
            flag: re.search(rf"^\s*{flag} \S+\s+comma list from: (\S+)$", out, re.M).group(1).split(",")
            for flag in ("--samplers", "--classifiers")
        }
        assert listed == {"--samplers": list(bench.SAMPLERS), "--classifiers": list(bench.CLASSIFIERS)}
        assert re.search(r"--format \{([^}]*)\}", out).group(1).split(",") == list(bench.FORMATS)

    def test_missing_dataset_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = cli.main(
            ["run", "--dataset", str(missing), "--label-col", "y", "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"
        assert not (tmp_path / "out").exists()

    def test_label_column_not_in_header_is_usage_error(self, tmp_path, capsys):
        csv_path = write_toy_csv(tmp_path)
        code = cli.main(
            ["run", "--dataset", csv_path, "--label-col", "nope", "--out-dir", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: label column 'nope' not in header ['a', 'b', 'y']\n"

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

    def test_names_are_quoted(self, tmp_path):
        table = tmp_path / "f1.csv"
        table.write_text('dataset,classifier,sampler,f1\nd,"rf, deep",A,0.9\nd,"rf, deep","B ""x""",0.5\n')
        out = tmp_path / "ranks.csv"
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["classifier", "sampler", "mean_rank"],
            ["overall", "A", "1.0"],
            ["overall", 'B "x"', "2.0"],
            ["rf, deep", "A", "1.0"],
            ["rf, deep", 'B "x"', "2.0"],
        ]

    def test_incomplete_table_is_usage_error(self, tmp_path, capsys):
        table = tmp_path / "f1.csv"
        table.write_text("dataset,classifier,sampler,f1\nd1,c1,A,0.9\nd1,c1,B,0.5\nd2,c1,A,0.8\n")
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "error: missing F1 for ('d2', 'c1', 'B')\n"

    def test_non_numeric_f1_is_usage_error(self, tmp_path, capsys):
        table = tmp_path / "f1.csv"
        for f1, message in [
            ("high", "error: non-numeric value 'high' at line 2, column 'f1'\n"),
            ("nan", "error: non-numeric value 'nan' at line 2, column 'f1'\n"),
            ("inf", "error: non-numeric value 'inf' at line 2, column 'f1'\n"),
            ("-inf", "error: non-numeric value '-inf' at line 2, column 'f1'\n"),
        ]:
            table.write_text(f"dataset,classifier,sampler,f1\nd1,c1,A,{f1}\nd1,c1,B,0.5\n")
            assert cli.main(["rank", "--f1-table", str(table), "--out", str(tmp_path / "o.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(message) and err.count("\n") == 1
            assert not (tmp_path / "o.csv").exists()

    def test_repeated_row_is_usage_error(self, tmp_path, capsys):
        table = tmp_path / "f1.csv"
        table.write_text("dataset,classifier,sampler,f1\nd,c,a,0.5\nd,c,b,0.7\nd,c,a,0.9\n")
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "error: more than one F1 for ('d', 'c', 'a')\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("d1,c1,A,0.9\nd1,c1\n", "error: line 3: expected 4 cells, got 2\n"),
            ("d1,c1,A,0.9,x\nd1,c1,B,0.5\n", "error: line 2: expected 4 cells, got 5\n"),
        ],
        ids=["short", "long"],
    )
    def test_ragged_row_is_usage_error(self, tmp_path, capsys, rows, message):
        table = tmp_path / "f1.csv"
        table.write_text("dataset,classifier,sampler,f1\n" + rows)
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o.csv").exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        table = tmp_path / "f1.csv"
        table.write_text("dataset,classifier,sampler,f1\nd,c,a,0.5\nd,c,b,0.7\n")
        out = tmp_path / "nodir" / "r.csv"
        assert cli.main(["rank", "--f1-table", str(table), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

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
        import os
        import subprocess
        import sys

        import imbench

        # the child imports the same package as this process, installed or not
        search = [os.path.dirname(os.path.dirname(imbench.__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in search if p))
        proc = subprocess.run(
            [sys.executable, "-m", "imbench.cli", "--help"], capture_output=True, text=True, env=env
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
