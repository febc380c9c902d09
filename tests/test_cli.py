from pathlib import Path

import pytest

from xdata.arff import write_arff
from xdata.cli import ConfigError, main, parse_config
from xdata.synthetic import make_corpus


def write_corpus(tmp_path: Path, n_train=240, n_test=60, seed=0) -> dict[str, Path]:
    corpus = make_corpus(n_train=n_train, n_test=n_test, seed=seed)
    paths = {}
    for name, (rel, _) in corpus.items():
        p = tmp_path / f"{name}.arff"
        p.write_text(write_arff(rel), encoding="utf-8")
        paths[name] = p
    return paths


def small_config(tmp_path: Path, out_dir: Path, seed=1) -> Path:
    paths = write_corpus(tmp_path)
    text = "\n".join([
        f"dataset.1.file = {paths['file1']}",
        "dataset.1.num_targets = 3",
        f"dataset.2.file = {paths['file2']}",
        "dataset.2.num_targets = 1",
        f"dataset.3.file = {paths['file3']}",
        "dataset.3.num_targets = 2",
        f"dataset.4.file = {paths['file4']}",
        "dataset.4.num_targets = 0",
        f"test.file = {paths['test']}",
        f"output.dir = {out_dir}",
        "drop.fraction = 0.75",
        "drop.seed = 3",
        "cdlc.select_per_task = 100",
        "net.shared_layers = 8",
        "net.epochs = 3",
        "net.mc_passes = 3",
        "net.dropout = 0.1",
        f"net.seed = {seed}",
    ])
    cfg = tmp_path / "run.conf"
    cfg.write_text(text + "\n", encoding="utf-8")
    return cfg


class TestParseConfig:
    def test_minimal_config_applies_defaults(self):
        cfg = parse_config("dataset.1.file = a.arff\n"
                           "dataset.1.num_targets = 1\n"
                           "output.dir = out\n")
        assert cfg.datasets == [("a.arff", 1)]
        assert cfg.cdlc.select_per_task == 1000
        assert cfg.cdlc.network.seed == 1
        assert cfg.cdlc.network.shared_layers == (64,)
        assert cfg.drop_fraction is None

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="net.optimizer"):
            parse_config("dataset.1.file = a\noutput.dir = o\nnet.optimizer = adam\n")

    def test_out_of_range_value_names_key(self):
        with pytest.raises(ConfigError, match="dropout"):
            parse_config("dataset.1.file = a\noutput.dir = o\nnet.dropout = 1.5\n")

    def test_missing_mandatory_keys(self):
        with pytest.raises(ConfigError, match="dataset.1.file"):
            parse_config("output.dir = o\n")
        with pytest.raises(ConfigError, match="output.dir"):
            parse_config("dataset.1.file = a\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# heading\n\ndataset.1.file = a # trailing\noutput.dir = o\n")
        assert cfg.datasets[0][0] == "a"

    def test_hash_inside_value_is_kept(self):
        cfg = parse_config("dataset.1.file = runs/#3/a.arff\t# note\noutput.dir = o#2\n")
        assert cfg.datasets[0][0] == "runs/#3/a.arff"
        assert cfg.output_dir == "o#2"

    def test_per_task_keys(self):
        cfg = parse_config("dataset.1.file = a\noutput.dir = o\n"
                           "cdlc.min_confidence.emotion = -0.5\n"
                           "net.head_layers.emotion = 8,4\n")
        assert cfg.cdlc.min_confidence == {"emotion": -0.5}
        assert cfg.cdlc.network.head_layers == {"emotion": (8, 4)}

    def test_effective_config_echo_roundtrips(self):
        text = ("dataset.1.file = a.arff\ndataset.1.num_targets = 2\n"
                "output.dir = out\nnet.epochs = 7\n")
        cfg = parse_config(text)
        again = parse_config(cfg.to_config_text())
        assert again == cfg


class TestMain:
    def test_end_to_end_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        assert main(["--config", str(cfg), "--quiet"]) == 0
        for name in ("completed.arff", "assignments.csv", "iterations.csv", "report.txt"):
            assert (out / name).is_file(), name
        report = (out / "report.txt").read_text()
        assert "status: completed" in report
        assert "net.epochs = 3" in report
        # completed dataset has no missing cells left
        assert "?" not in (out / "completed.arff").read_text().split("@data")[1]

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"dataset.1.file = {tmp_path}/nope.arff\n"
                       "dataset.1.num_targets = 1\n"
                       f"output.dir = {tmp_path}/out\n")
        assert main(["--config", str(cfg), "--quiet"]) == 2
        assert "nope.arff" in capsys.readouterr().err

    def test_config_error_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text("bogus.key = 1\n")
        assert main(["--config", str(cfg)]) == 1
        assert "bogus.key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["net.head_layers.nosuchtask",
                                     "cdlc.min_confidence.nosuchtask"])
    def test_unknown_task_key_exits_1(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        cfg.write_text(cfg.read_text() + f"{key} = 4\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: unknown task 'nosuchtask' in key '{key}'" in err
        assert not (out / "assignments.csv").exists()

    def test_diverging_training_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        cfg.write_text(cfg.read_text() + "net.learning_rate = 5\nnet.activation = relu\n",
                       encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == "runtime failure: epoch 2: non-finite network parameters\n"
        assert not (out / "completed.arff").exists()

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.conf")]) == 1

    def test_seed_flag_overrides_config(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg7 = small_config(tmp_path, out_a, seed=7)
        assert main(["--config", str(cfg7), "--quiet"]) == 0
        cfg1 = small_config(tmp_path, out_b, seed=1)
        assert main(["--config", str(cfg1), "--seed", "7", "--quiet",
                     "--out-dir", str(out_b)]) == 0
        assert (out_a / "assignments.csv").read_bytes() == \
            (out_b / "assignments.csv").read_bytes()

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        main(["--config", str(cfg), "--quiet"])
        assert capsys.readouterr().err == ""
