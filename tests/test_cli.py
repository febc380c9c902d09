import codecs
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xdata
import xdata.cli as cli
import xdata.model as model
from xdata.arff import (NOMINAL, NUMERIC, STRING, ArffError, ArffRelation, AttributeDecl,
                        write_arff)
from xdata.cli import ConfigError, RunConfig, _format, _keys, main, parse_config
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


def constant_target_config(tmp_path: Path) -> Path:
    """One 40-row file whose regression target `y` is constant, so the
    pseudo-labels of `y` have no defined correlation with the withheld ones."""
    f1 = [math.sin(i) for i in range(40)]
    rows = [f"{a!r},{math.cos(3 * i)!r},5.0,{'a' if a > 0 else 'b'}" for i, a in enumerate(f1)]
    data = tmp_path / "probe.arff"
    data.write_text("@relation probe\n@attribute f1 numeric\n@attribute f2 numeric\n"
                    "@attribute y numeric\n@attribute c {a,b}\n@data\n"
                    + "\n".join(rows) + "\n", encoding="utf-8")
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"dataset.1.file = {data}\ndataset.1.num_targets = 2\n"
                   f"output.dir = {tmp_path / 'out'}\ndrop.fraction = 0.5\nnet.epochs = 2\n",
                   encoding="utf-8")
    return cfg


def run_entry(cfg: Path, *flags: str,
              launch: tuple[str, ...] = ("-c", "from xdata.cli import entry; entry()"),
              **kwargs) -> subprocess.CompletedProcess:
    """The CLI in a subprocess (the interpreter options `launch` run it): pytest
    captures warnings and log records in process, so only a subprocess shows
    what reaches stderr."""
    src = str(Path(xdata.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *launch, "--config", str(cfg), *flags], env=env,
                          timeout=120, **kwargs)


def mixed_task_config(tmp_path: Path, out_dir: Path) -> Path:
    """Two ARFF files over four features whose targets are a binary, a
    three-class and a regression task, about a third of each file's labels
    missing; nine MC passes."""
    rng = np.random.default_rng(11)
    datasets = []
    for k, n in ((1, 150), (2, 90)):
        x = rng.normal(size=(n, 4))
        flag = np.where(x[:, 0] > 0, "pos", "neg")
        kind = np.array(["a", "b", "c"])[np.digitize(x[:, 1], [-0.5, 0.5])]
        level = x[:, 2] - 0.5 * x[:, 3] + 0.1 * rng.normal(size=n)
        rows = []
        for i in range(n):
            labels = [flag[i], kind[i], repr(float(level[i]))]
            labels = ["?" if rng.random() < 0.35 else v for v in labels]
            rows.append(",".join([*map(repr, x[i].tolist()), *labels]))
        name = f"mixed{k}"
        path = tmp_path / f"{name}.arff"
        path.write_text(f"@relation {name}\n"
                        + "".join(f"@attribute f{j} numeric\n" for j in range(4))
                        + "@attribute flag {neg,pos}\n@attribute kind {a,b,c}\n"
                        "@attribute level numeric\n@data\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        datasets += [f"dataset.{k}.file = {path}", f"dataset.{k}.num_targets = 3"]
    cfg = tmp_path / "mixed.conf"
    cfg.write_text("\n".join([*datasets, f"output.dir = {out_dir}", "cdlc.select_per_task = 40",
                              "net.shared_layers = 8", "net.head_layers.level = 4",
                              "net.epochs = 2", "net.mc_passes = 9", "net.dropout = 0.2"])
                   + "\n", encoding="utf-8")
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

    @pytest.mark.parametrize("line,message", [
        ("net.shared_layers = 8,0", "net.shared_layers: layer sizes must be positive"),
        ("net.head_layers.r = 0", "net.head_layers.r: layer sizes must be positive"),
        ("net.dropout = 1", "net.dropout must be in [0, 1)"),
        ("cdlc.select_per_task = 0", "cdlc.select_per_task must be >= 1"),
        ("drop.fraction = 1.5", "drop.fraction must be in [0, 1]"),
    ])
    def test_range_errors_name_the_full_key(self, line, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"dataset.1.file = a\noutput.dir = o\n{line}\n")
        assert str(exc.value) == message

    def test_missing_mandatory_keys(self):
        with pytest.raises(ConfigError, match="dataset.1.file"):
            parse_config("output.dir = o\n")
        with pytest.raises(ConfigError, match="output.dir"):
            parse_config("dataset.1.file = a\n")

    @pytest.mark.parametrize("key", ["dataset.01.file", "dataset.١.file",
                                     "dataset.0.file", "dataset.01.num_targets"])
    def test_non_canonical_dataset_index_is_an_unknown_key(self, key):
        # int() reads "01" and the Arabic-Indic digit one as 1
        with pytest.raises(ConfigError) as exc:
            parse_config(f"dataset.1.file = a.arff\n{key} = 1\noutput.dir = o\n")
        assert str(exc.value) == f"unknown key {key!r}"

    @pytest.mark.parametrize("key", ["output.dir", "test.file", "dataset.1.file",
                                     "net.activation"])
    def test_empty_text_value_names_the_key(self, key):
        lines = {"dataset.1.file": "a.arff", "output.dir": "o", key: ""}
        with pytest.raises(ConfigError) as exc:
            parse_config("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert str(exc.value) == f"key {key!r}: expected non-empty text, got ''"

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

    def test_readme_key_table_matches_declared_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([^`]+)` \| ([^|]*?) \|", readme, re.MULTILINE)
        assert rows[:2] == [("dataset.<n>.file", "required for n=1"),
                            ("dataset.<n>.num_targets", "0")]
        declared = []
        for k in _keys(RunConfig()):
            if k.per_task:
                declared.append((f"{k.key}.<task>", ("unset", "empty")))
            elif k.field.metadata.get("required"):
                declared.append((k.key, ("required",)))
            else:
                declared.append((k.key, ("unset" if k.value is None else _format(k.value),)))
        assert [key for key, _ in rows[2:]] == [key for key, _ in declared]
        for (key, default), (_, allowed) in zip(rows[2:], declared):
            assert default in allowed, f"README default of {key}: {default!r}, declared {allowed}"

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

    def test_empty_output_dir_exits_1_writing_nothing(self, tmp_path, capsys, monkeypatch):
        cfg = small_config(tmp_path, tmp_path / "out")
        text = re.sub(r"(?m)^output\.dir = .*$", "output.dir =", cfg.read_text())
        cfg.write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["--config", str(cfg), "--quiet"]) == 1
        assert "key 'output.dir': expected non-empty text, got ''" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

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

    @pytest.mark.parametrize("line,message", [
        ("net.momentum = 1.5", "net.momentum must be in [0, 1)"),
        ("net.momentum = -2", "net.momentum must be in [0, 1)"),
        ("net.learning_rate = nan", "net.learning_rate must be positive and finite"),
        ("net.learning_rate = inf", "net.learning_rate must be positive and finite"),
        ("cdlc.min_confidence.quadrant = nan", "cdlc.min_confidence.quadrant must be finite"),
    ])
    def test_out_of_range_setting_exits_1_naming_the_key(self, tmp_path, capsys, line,
                                                         message):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        cfg.write_text(cfg.read_text() + line + "\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    # a negative seed would reach np.random.default_rng and fail at run time
    @pytest.mark.parametrize("edit,flags,message", [
        (("drop.seed = 3", "drop.seed = -1"), (), "drop.seed must be >= 0"),
        (("net.seed = 1", "net.seed = -3"), (), "net.seed must be >= 0"),
        (None, ("--seed", "-5"), "net.seed must be >= 0"),
    ])
    def test_negative_seed_exits_1_naming_the_key(self, tmp_path, capsys, edit, flags,
                                                  message):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        if edit is not None:
            cfg.write_text(cfg.read_text().replace(*edit), encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet", *flags]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_seed_zero_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out, seed=5)
        cfg.write_text(cfg.read_text().replace("drop.seed = 3", "drop.seed = 0"),
                       encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet", "--seed", "0"]) == 0
        report = (out / "report.txt").read_text()
        assert "drop.seed = 0" in report and "net.seed = 0" in report

    def test_arff_error_names_the_file_among_several(self, tmp_path, capsys):
        cfg = small_config(tmp_path, tmp_path / "out")
        bad = tmp_path / "file3.arff"
        text = bad.read_text(encoding="utf-8")
        bad.write_text(text + "1,2,3\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet"]) == 2
        line = text.count("\n") + 1
        assert capsys.readouterr().err.startswith(
            f"data error: {bad}: line {line}: row has 3 values but "), bad

    def test_undecodable_input_file_is_a_data_error_naming_it(self, tmp_path, capsys):
        cfg = small_config(tmp_path, tmp_path / "out")
        bad = tmp_path / "file2.arff"
        data = bad.read_bytes()
        cut = data.index(b"@data\n") + len(b"@data\n")
        bad.write_bytes(data[:cut] + b"\xff" + data[cut:])
        assert main(["--config", str(cfg), "--quiet"]) == 2
        line = data[:cut].count(b"\n") + 1
        assert capsys.readouterr().err == \
            f"data error: {bad}: line {line}: not UTF-8 text (byte 0xff)\n"

    # a byte-order mark is dropped, and the line and byte stay those of the file
    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
    def test_undecodable_config_file_is_a_configuration_error(self, tmp_path, capsys, bom):
        cfg = tmp_path / "c.conf"
        cfg.write_bytes(bom + b"dataset.1.file = a.arff\noutput.dir = out\n# caf\xe9\n")
        assert main(["--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err == \
            f"configuration error: {cfg}: line 3: not UTF-8 text (byte 0xe9)\n"

    @pytest.mark.parametrize("kind", ["config", "arff"])
    def test_byte_order_mark_is_dropped(self, tmp_path, kind):
        out = tmp_path / "out"
        runs = []
        for bom in (False, True):
            cfg = small_config(tmp_path, out)
            marked = cfg if kind == "config" else tmp_path / "file2.arff"
            if bom:
                marked.write_bytes(codecs.BOM_UTF8 + marked.read_bytes())
            assert main(["--config", str(cfg), "--quiet"]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
            for p in out.iterdir():
                p.unlink()
        assert runs[0] == runs[1]

    # a file where output.dir should be, or a directory under a file; the
    # input file does not exist, so reading it first would exit 2
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_uncreatable_output_dir_exits_1_before_any_input_is_read(self, tmp_path, capsys,
                                                                     under):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / under if under else taken
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"dataset.1.file = {tmp_path}/absent.arff\ndataset.1.num_targets = 1\n"
                       f"output.dir = {out}\n")
        assert main(["--config", str(cfg), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: output.dir {str(out)!r}: "
                              "cannot create the directory ("), err

    def test_diverging_training_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        cfg.write_text(cfg.read_text() + "net.learning_rate = 5\nnet.activation = relu\n",
                       encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == "runtime failure: epoch 2: non-finite network parameters\n"
        assert not (out / "completed.arff").exists()

    def _tiny_run(self, tmp_path, data: str) -> Path:
        arff = tmp_path / "tiny.arff"
        arff.write_bytes(("@relation tiny\n@attribute x numeric\n"
                          "@attribute y {a,b}\n@data\n" + data).encode())
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"dataset.1.file = {arff}\ndataset.1.num_targets = 1\n"
                       f"output.dir = {tmp_path}/out\nnet.shared_layers = 2\n"
                       "net.epochs = 1\nnet.mc_passes = 2\n")
        return cfg

    def test_lone_carriage_return_in_data_exits_2(self, tmp_path, capsys):
        cfg = self._tiny_run(tmp_path, "1,a\r2,b\n3,?\n")
        assert main(["--config", str(cfg), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'tiny.arff'}: line 5: "
                              "\\r not followed by \\n"), err
        assert not (tmp_path / "out" / "completed.arff").exists()

    def test_input_files_without_a_label_exit_2_naming_them(self, tmp_path, capsys):
        cfg = self._tiny_run(tmp_path, "1,?\n2,?\n")
        assert main(["--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == \
            f"data error: no input file defines a label: {tmp_path / 'tiny.arff'}\n"
        assert not (tmp_path / "out" / "completed.arff").exists()

    def test_drop_fraction_that_drops_every_label_exits_1(self, tmp_path, capsys):
        cfg = self._tiny_run(tmp_path, "1,a\n2,b\n3,?\n")
        cfg.write_text(cfg.read_text() + "drop.fraction = 1.0\n")
        assert main(["--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err == ("configuration error: drop.fraction = 1.0 drops "
                                           "every defined label: nothing is left to train "
                                           "on\n")
        assert not (tmp_path / "out" / "completed.arff").exists()

    def test_crlf_input_file_runs(self, tmp_path):
        cfg = self._tiny_run(tmp_path, "1,a\r\n2,b\r\n3,?\r\n")
        assert main(["--config", str(cfg), "--quiet"]) == 0
        data = (tmp_path / "out" / "completed.arff").read_text().split("@data\n")[1]
        assert len(data.splitlines()) == 3 and "?" not in data

    def test_final_metrics_do_not_depend_on_per_iteration_evaluation(self, tmp_path):
        # the test set's coord_v has one defined cell: not evaluable, still scattered
        test_rel, _ = make_corpus(n_train=240, n_test=60, seed=0)["test"]
        coord_v = test_rel.columns[-1]
        coord_v[1:] = float("nan")
        test_file = tmp_path / "test_one_v.arff"
        test_file.write_text(write_arff(test_rel), encoding="utf-8")
        outs = []
        for every in ("true", "false"):
            out = tmp_path / f"every_{every}"
            cfg = small_config(tmp_path, out)
            cfg.write_text(re.sub(r"test\.file = .*", f"test.file = {test_file}",
                                  cfg.read_text())
                           + f"cdlc.eval_every_iteration = {every}\n", encoding="utf-8")
            assert main(["--config", str(cfg), "--quiet"]) == 0
            outs.append(out)
        reports = [(o / "report.txt").read_text().split("final test metrics:")[1]
                   for o in outs]
        assert reports[0] == reports[1]
        assert "coord_v: not evaluable (n=1)" in reports[0]
        scatters = sorted(p.name for p in outs[0].glob("scatter_*.csv"))
        assert scatters == ["scatter_coord_a.csv", "scatter_coord_v.csv",
                            "scatter_quadrant.csv"]
        for name in scatters:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert (outs[0] / "scatter_coord_v.csv").read_text().count("\n") == 2
        assert (outs[0] / "scatter_quadrant.csv").read_text().count("\n") == 61

    # heads of depths 0, 1 and 2 (one group each); and a depth-2 group of two
    # heads, whose later layers are block-diagonal, beside a depth-0 head
    @pytest.mark.parametrize("coord_a,coord_v", [("4", "5,2"), ("4,3", "5,2")])
    def test_mixed_head_depths_rerun_byte_identical(self, tmp_path, coord_a, coord_v):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            cfg = small_config(tmp_path, out)
            cfg.write_text(cfg.read_text() + f"net.head_layers.coord_a = {coord_a}\n"
                           f"net.head_layers.coord_v = {coord_v}\n"
                           "net.momentum = 0.9\nnet.activation = relu\n", encoding="utf-8")
            assert main(["--config", str(cfg), "--quiet"]) == 0
        for name in ("assignments.csv", "completed.arff"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        rows = (outs[0] / "assignments.csv").read_text().splitlines()[1:]
        data = (outs[0] / "completed.arff").read_text().split("@data\n")[1].splitlines()
        assert rows and data
        # every cell but the class labels (q_..) and the assignments' first four columns
        cells = [c for line in rows for c in line.split(",")[4:]]
        cells += [c for line in data for c in line.split(",")]
        assert all(math.isfinite(float(c)) for c in cells if not c.startswith("q_"))

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.conf")]) == 1

    def test_module_run_is_the_cli(self, tmp_path):
        run = run_entry(tmp_path / "absent.conf", launch=("-m", "xdata.cli"),
                        capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stderr.startswith("configuration error: config file not found"), run.stderr

    # a run with a test set writes scatter_<task>.csv, which such a name cannot name
    @pytest.mark.parametrize("name", ["x/y", "x\0y", "t" * 244])
    def test_task_name_unfit_for_a_file_name_exits_2_before_training(self, tmp_path, capsys,
                                                                      name):
        header = f"@relation r\n@attribute f numeric\n@attribute '{name}' numeric\n@data\n"
        data, test = tmp_path / "d.arff", tmp_path / "t.arff"
        data.write_text(header + "0,0.5\n1,1.5\n2,?\n3,3.5\n4,4.0\n", encoding="utf-8")
        test.write_text(header + "5,5.5\n6,6.5\n", encoding="utf-8")
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"dataset.1.file = {data}\ndataset.1.num_targets = 1\n"
                       f"output.dir = {tmp_path / 'plain'}\nnet.shared_layers = 2\n"
                       "net.epochs = 1\nnet.mc_passes = 2\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "tested"
        cfg.write_text(cfg.read_text() + f"test.file = {test}\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: task {name!r}: ")
        assert not (out / "completed.arff").exists()

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

    def test_out_dir_flag_stands_in_for_a_missing_output_dir(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, tmp_path / "unused")
        cfg.write_text(re.sub(r"output\.dir = .*\n", "", cfg.read_text()), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg), "--quiet", "--out-dir", "o"]) == 0
        assert (tmp_path / "o" / "completed.arff").is_file()
        assert "  output.dir = o\n" in (tmp_path / "o" / "report.txt").read_text()
        assert not (tmp_path / "unused").exists()

    def test_overrides_replace_the_config_text(self):
        cfg = parse_config("dataset.1.file = a\nnet.seed = 4\n",
                           {"output.dir": "o", "net.seed": "9"})
        assert (cfg.output_dir, cfg.cdlc.network.seed) == ("o", 9)

    def test_outputs_do_not_depend_on_blas_control(self, tmp_path, monkeypatch):
        # without BLAS control the run neither pins BLAS nor splits the MC passes
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        control = model._blas_threads()
        prior = control and control[0]()
        runs = []
        for resolved in (control, None):
            monkeypatch.setattr(model, "_blas_threads", lambda: resolved)
            assert main(["--config", str(cfg), "--quiet"]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
            for p in out.iterdir():
                p.unlink()
        assert runs[0] == runs[1]
        assert (control and control[0]()) == prior  # restored after the run

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        main(["--config", str(cfg), "--quiet"])
        assert capsys.readouterr().err == ""

    def test_quiet_silences_library_warnings(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        cfg.write_text(cfg.read_text() + "cdlc.min_confidence.quadrant = 1\n",
                       encoding="utf-8")
        run = run_entry(cfg, "--quiet", capture_output=True, text=True)
        assert run.returncode == 0
        assert run.stderr == ""
        assert "status: stalled" in (out / "report.txt").read_text()

    def test_quiet_silences_issued_warnings(self, tmp_path, capfd):
        cfg = constant_target_config(tmp_path)
        assert run_entry(cfg).returncode == 0
        assert "UserWarning: pearson_cc: zero-variance input" in capfd.readouterr().err
        assert run_entry(cfg, "--quiet").returncode == 0
        assert capfd.readouterr().err == ""

    def test_undefined_pseudo_label_correlation_reads_n_a(self, tmp_path):
        cfg = constant_target_config(tmp_path)
        assert main(["--config", str(cfg), "--quiet"]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "  y: cc=n/a mae=" in report
        assert "nan" not in report.lower()


@pytest.fixture
def forking(monkeypatch):
    """Fork as on a machine with two usable CPUs, whatever this one has."""
    monkeypatch.setattr(cli, "_can_fork", lambda: True)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def die_in_child(monkeypatch, name):
    """Replace ``cli.<name>`` by a function that kills a forked child
    (SIGKILL, so it leaves no result) and runs the original in this process."""
    original, parent = getattr(cli, name), os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args)

    monkeypatch.setattr(cli, name, dying)


@pytest.mark.usefixtures("forking")
class TestTwoProcesses:
    """Inputs are read and completed.arff is formatted by this process and a
    forked child; outputs and errors are those of one process doing it all."""

    def test_child_result_and_in_process_fallback(self, monkeypatch):
        with cli._in_child("probe", os.getpid) as result:
            assert result() != os.getpid()
        assert_no_child_left()
        monkeypatch.setattr(cli, "_can_fork", lambda: False)
        with cli._in_child("probe", os.getpid) as result:
            assert result() == os.getpid()

    def test_child_exception_is_raised_with_its_type_message_and_line(self):
        def fail():
            raise ArffError("bad cell", 7)

        with pytest.raises(ArffError) as exc:
            with cli._in_child("probe", fail) as result:
                result()
        assert (str(exc.value), exc.value.line) == ("line 7: bad cell", 7)
        assert_no_child_left()

    def test_child_is_reaped_when_the_parent_half_raises(self):
        with pytest.raises(KeyError):
            with cli._in_child("probe", signal.pause):
                raise KeyError("parent half")
        assert_no_child_left()

    @pytest.mark.parametrize("name,stage", [("_read_relation", "reading input files"),
                                            ("format_rows", "formatting completed.arff")])
    def test_child_killed_by_a_signal_is_a_runtime_failure(self, tmp_path, capsys,
                                                           monkeypatch, name, stage):
        cfg = small_config(tmp_path, tmp_path / "out")
        die_in_child(monkeypatch, name)
        assert main(["--config", str(cfg), "--quiet"]) == 3
        assert capsys.readouterr().err == (f"runtime failure: {stage}: worker process "
                                           f"killed by signal {int(signal.SIGKILL)} "
                                           "without a result\n")
        assert_no_child_left()

    def test_outputs_do_not_depend_on_forking(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        runs = []
        for can_fork in (True, False):
            monkeypatch.setattr(cli, "_can_fork", lambda: can_fork)
            assert main(["--config", str(cfg), "--quiet"]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
            for p in out.iterdir():
                p.unlink()
        assert runs[0] == runs[1]
        assert_no_child_left()

    def test_one_cpu_and_two_write_the_same_files(self, tmp_path):
        # pinned to one CPU the CLI forks no ARFF child and runs one MC worker;
        # unpinned it forks and, with BLAS control, runs two
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        if len(cpus) < 2:
            pytest.skip("fewer than two usable CPUs")
        out = tmp_path / "out"
        cfg = mixed_task_config(tmp_path, out)
        runs = []
        for pin in (f"os.sched_setaffinity(0, {{{cpus[0]}}}); assert not cli._can_fork(); ",
                    "assert cli._can_fork(); "):
            code = f"import os; from xdata import cli; {pin}cli.entry()"
            done = run_entry(cfg, "--quiet", launch=("-c", code), capture_output=True,
                             text=True)
            assert done.returncode == 0, done.stderr
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
            for p in out.iterdir():
                p.unlink()
        assert sorted(runs[0]) == ["assignments.csv", "completed.arff", "iterations.csv",
                                   "report.txt"]
        assert runs[0] == runs[1]

    # the larger file is read by this process, the smaller by the child
    @pytest.mark.parametrize("pad", [1, 2])
    def test_first_malformed_input_in_config_order_wins(self, tmp_path, capsys, pad):
        files = []
        for k in (1, 2):
            path = tmp_path / f"bad{k}.arff"
            path.write_text("@relation r\n@attribute x numeric\n@attribute y numeric\n"
                            "@data\n1,2\n1,2,3\n" + "% pad\n" * 100 * (k == pad),
                            encoding="utf-8")
            files.append(path)
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"dataset.1.file = {files[0]}\ndataset.1.num_targets = 1\n"
                       f"dataset.2.file = {files[1]}\ndataset.2.num_targets = 1\n"
                       f"output.dir = {tmp_path / 'out'}\n")
        assert main(["--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == (f"data error: {files[0]}: line 6: row has 3 "
                                           "values but 2 attributes are declared\n")
        assert_no_child_left()

    @pytest.mark.parametrize("unknown_key,code", [(False, 2), (True, 1)])
    def test_test_file_error_surfaces_after_the_task_key_check(
            self, tmp_path, capsys, unknown_key, code):
        out = tmp_path / "out"
        cfg = small_config(tmp_path, out)
        test_file = tmp_path / "test.arff"
        test_file.write_text(test_file.read_text(encoding="utf-8") + "1,2\n", encoding="utf-8")
        extra = "net.head_layers.nosuchtask = 4\n" if unknown_key else ""
        cfg.write_text(cfg.read_text() + extra, encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet"]) == code
        err = capsys.readouterr().err
        if unknown_key:
            assert err.startswith("configuration error: unknown task 'nosuchtask'"), err
        else:
            assert err.startswith(f"data error: {test_file}: line "), err
        assert not (out / "completed.arff").exists()
        assert_no_child_left()

    def test_missing_test_file_is_a_data_error_naming_it(self, tmp_path, capsys):
        cfg = small_config(tmp_path, tmp_path / "out")
        (tmp_path / "test.arff").unlink()
        assert main(["--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == \
            f"data error: input file not found: {tmp_path / 'test.arff'}\n"
        assert_no_child_left()

    @pytest.mark.parametrize("can_fork", [True, False])
    @pytest.mark.parametrize("n", [0, 1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS,
                                   cli._CHUNK_ROWS + 1, 2 * cli._CHUNK_ROWS + 1])
    def test_chunked_completed_arff_is_write_arff(self, tmp_path, monkeypatch, n, can_fork):
        rng = np.random.default_rng(n)
        values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
        values[::7] = np.nan
        rel = ArffRelation("t", [AttributeDecl("name", STRING),
                                 AttributeDecl("c", NOMINAL, ("a", "b c", "?")),
                                 AttributeDecl("v", NUMERIC)],
                           [[None if i % 5 == 0 else f"row {i}" for i in range(n)],
                            rng.integers(-1, 3, n), values])
        monkeypatch.setattr(cli, "_can_fork", lambda: can_fork)
        path = tmp_path / "completed.arff"
        cli._write_arff_file(path, rel)
        assert path.read_bytes() == write_arff(rel).encode("utf-8")
        assert_no_child_left()

    def test_invalid_value_in_second_half_raises_before_the_fork(self, tmp_path, monkeypatch):
        rel = ArffRelation("t", [AttributeDecl("s", STRING), AttributeDecl("v", NUMERIC)],
                           [["a", "b", "c", "d\ne"], np.array([1.0, 2.0, 3.0, 4.0])])

        def no_fork():
            raise AssertionError("forked before validating")

        monkeypatch.setattr(os, "fork", no_fork)
        path = tmp_path / "completed.arff"
        with pytest.raises(ArffError, match="attribute 's', row 3: .* contains a line break"):
            cli._write_arff_file(path, rel)
        assert not path.exists()
