"""End-to-end command-line workflows on a small synthetic cohort."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ordproto import trainer
from ordproto.cli import (
    EXIT_ARTIFACT,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)
from ordproto.data import load_dataset
from ordproto.encoder import encode, load_checkpoint
from ordproto.prototypes import load_store, predict_progression
from ordproto.trainer import METRIC_KEYS

GEN_CFG = """\
classes = 3
class_counts = 14, 22, 14
input_dim = 6
noise_sigma = 0.1
"""

TRAIN_CFG = """\
classes = 3
input_dim = 6
hidden_dims = 8
feature_dim = 4
epochs = 3
batch_size = 6
seeds = 1, 2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "gen.cfg").write_text(GEN_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    assert main(
        ["gen-data", "--config", str(root / "gen.cfg"), "--seed", "210", "--out", str(root / "data.csv")]
    ) == EXIT_OK
    assert main(
        ["gen-data", "--config", str(root / "gen.cfg"), "--seed", "211", "--out", str(root / "eval.csv")]
    ) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace / "run1"
    code = main(
        [
            "train",
            "--config", str(workspace / "train.cfg"),
            "--data", str(workspace / "data.csv"),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


def relabeled_copy(workspace, name: str, label: int):
    """data.csv with the first sample's coarse label set to ``label``."""
    lines = (workspace / "data.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = str(label)
    lines[1] = ",".join(fields)
    path = workspace / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestGenData:
    def test_writes_a_loadable_cohort(self, workspace, capsys):
        ds = load_dataset(workspace / "data.csv")
        assert ds.size == 50 and ds.input_dim == 6 and ds.n_classes == 3
        assert [int((ds.coarse == c).sum()) for c in (1, 2, 3)] == [14, 22, 14]

    def test_deterministic_output(self, workspace, capsys):
        again = workspace / "again.csv"
        assert main(
            ["gen-data", "--config", str(workspace / "gen.cfg"), "--seed", "210", "--out", str(again)]
        ) == EXIT_OK
        assert again.read_bytes() == (workspace / "data.csv").read_bytes()
        out = capsys.readouterr().out
        assert "class 1: 14 samples" in out
        assert "wrote 50 samples" in out
        shifted = workspace / "shifted.csv"
        main(["gen-data", "--config", str(workspace / "gen.cfg"), "--seed", "212", "--out", str(shifted)])
        assert shifted.read_bytes() != again.read_bytes()

    def test_missing_config_is_io_error(self, workspace):
        code = main(
            ["gen-data", "--config", str(workspace / "nope.cfg"), "--seed", "1", "--out", str(workspace / "x.csv")]
        )
        assert code == EXIT_IO

    def test_unknown_key_is_config_error(self, workspace, capsys):
        bad = workspace / "bad.cfg"
        bad.write_text("classez = 3\n")
        code = main(
            ["gen-data", "--config", str(bad), "--seed", "1", "--out", str(workspace / "x.csv")]
        )
        assert code == EXIT_CONFIG
        assert "classez" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, workspace):
        code = main(
            [
                "gen-data",
                "--config", str(workspace / "gen.cfg"),
                "--seed", "1",
                "--out", str(workspace / "no-such-dir" / "x.csv"),
            ]
        )
        assert code == EXIT_IO


class TestTrain:
    def test_artifacts_written(self, trained):
        for name in (
            "checkpoint.json",
            "store.json",
            "history.csv",
            "metrics.json",
            "embeddings.csv",
            "manifest.json",
        ):
            assert (trained / name).is_file()

    def test_metrics_summary_structure(self, trained):
        summary = json.loads((trained / "metrics.json").read_text())
        rows = summary["per_seed"]
        assert [r["seed"] for r in rows] == [1, 2]
        for row in rows:
            for key in METRIC_KEYS:
                assert key in row
        for key in METRIC_KEYS:
            vals = [r[key] for r in rows]
            assert summary["mean"][key] == pytest.approx(np.mean(vals), abs=1e-12)

    def test_manifest_echoes_run(self, workspace, trained):
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["seeds"] == [1, 2]
        assert manifest["artifact_seed"] == 1
        assert manifest["eval_data_path"] is None
        assert manifest["data_path"] == str(workspace / "data.csv")
        assert manifest["config"]["hidden_dims"] == [8]
        assert manifest["config"]["anchor_classes"] == [1, 3]
        assert manifest["config"]["epochs"] == 3
        assert set(manifest["artifacts"]) == {
            "checkpoint", "store", "history", "metrics", "embeddings"
        }

    def test_checkpoint_belongs_to_first_seed(self, trained):
        enc, head, meta = load_checkpoint(trained / "checkpoint.json")
        assert meta == {"seed": 1, "epoch": 3, "dims": [6, 8, 4]}
        store = load_store(trained / "store.json")
        assert store.dim == 4

    def test_embeddings_recompute(self, workspace, trained):
        lines = (trained / "embeddings.csv").read_text().splitlines()
        assert lines[0] == "id,coarse_label,fine_label,z0,z1,z2,z3,p_progressive"
        assert len(lines) == 1 + 50
        enc, _, _ = load_checkpoint(trained / "checkpoint.json")
        store = load_store(trained / "store.json")
        ds = load_dataset(workspace / "data.csv")
        first = lines[1].split(",")
        # Encode the whole cohort as the exporter does: single-row matmuls
        # can differ from the batched result in the last ulp.
        z0 = encode(enc, ds.x)[0]
        assert [float(v) for v in first[3:7]] == z0.tolist()
        assert float(first[7]) == predict_progression(z0, store)
        probs = [float(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert all(0.0 < p < 1.0 for p in probs)

    def test_rerun_is_byte_identical(self, workspace, trained):
        out2 = workspace / "run2"
        assert main(
            [
                "train",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "data.csv"),
                "--out", str(out2),
            ]
        ) == EXIT_OK
        for name in ("metrics.json", "store.json", "checkpoint.json", "embeddings.csv", "history.csv"):
            assert (out2 / name).read_bytes() == (trained / name).read_bytes()

    def test_ablated_run_zeroes_structural_columns(self, workspace, capsys):
        out = workspace / "run-ce"
        assert main(
            [
                "train",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "data.csv"),
                "--out", str(out),
                "--ablate", "ce-only",
            ]
        ) == EXIT_OK
        assert "acc:" in capsys.readouterr().out
        rows = (out / "history.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[6] == "0.0" and fields[7] == "0.0" and fields[8] == "0.0"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["use_ins2ins"] is False

    def test_holdout_evaluation(self, workspace):
        out = workspace / "run-holdout"
        assert main(
            [
                "train",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "data.csv"),
                "--out", str(out),
                "--eval-data", str(workspace / "eval.csv"),
            ]
        ) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["eval_data_path"] == str(workspace / "eval.csv")
        own = json.loads((workspace / "run1" / "metrics.json").read_text())
        held = json.loads((out / "metrics.json").read_text())
        assert held["per_seed"][0] != own["per_seed"][0]

    def test_dimension_mismatch_is_config_error(self, workspace):
        bad = workspace / "wide.cfg"
        bad.write_text(TRAIN_CFG.replace("input_dim = 6", "input_dim = 7"))
        code = main(
            [
                "train",
                "--config", str(bad),
                "--data", str(workspace / "data.csv"),
                "--out", str(workspace / "run-bad"),
            ]
        )
        assert code == EXIT_CONFIG

    def test_class_count_mismatch_is_config_error(self, workspace):
        bad = workspace / "fourclass.cfg"
        bad.write_text(TRAIN_CFG.replace("classes = 3", "classes = 4"))
        code = main(
            [
                "train",
                "--config", str(bad),
                "--data", str(workspace / "data.csv"),
                "--out", str(workspace / "run-bad"),
            ]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "setting",
        [
            "adam_beta1 = 1.5",
            "adam_beta1 = 1.0",
            "adam_beta2 = 1.0",
            "adam_epsilon = -1",
            "adam_epsilon = 0",
            "learning_rate = -0.1",
            "learning_rate = nan",
            "lr_decay = -1",
            "blackbox_lambda = inf",
        ],
    )
    def test_bad_optimizer_setting_is_config_error(self, workspace, capsys, tmp_path, setting):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TRAIN_CFG + setting + "\n")
        out = tmp_path / "out"
        code = main(
            ["train", "--config", str(bad), "--data", str(workspace / "data.csv"), "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "must" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_is_io_error(self, workspace):
        code = main(
            [
                "train",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "absent.csv"),
                "--out", str(workspace / "run-bad"),
            ]
        )
        assert code == EXIT_IO


class TestEval:
    def test_matches_training_metrics(self, workspace, trained, capsys):
        out_json = workspace / "eval-metrics.json"
        code = main(
            [
                "eval",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--store", str(trained / "store.json"),
                "--data", str(workspace / "data.csv"),
                "--out", str(out_json),
            ]
        )
        assert code == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out_json.read_text()) == printed
        summary = json.loads((trained / "metrics.json").read_text())
        expected = {k: v for k, v in summary["per_seed"][0].items() if k != "seed"}
        assert printed == expected

    def test_wrong_input_dim_is_artifact_error(self, workspace, trained, capsys):
        wide_cfg = workspace / "gen-wide.cfg"
        wide_cfg.write_text(GEN_CFG.replace("input_dim = 6", "input_dim = 7"))
        wide_csv = workspace / "wide.csv"
        assert main(
            ["gen-data", "--config", str(wide_cfg), "--seed", "5", "--out", str(wide_csv)]
        ) == EXIT_OK
        code = main(
            [
                "eval",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--store", str(trained / "store.json"),
                "--data", str(wide_csv),
            ]
        )
        assert code == EXIT_ARTIFACT
        assert "input dims" in capsys.readouterr().err

    def test_wrong_store_dim_is_artifact_error(self, workspace, trained):
        payload = json.loads((trained / "store.json").read_text())
        payload["dim"] = 3
        payload["anchor_low"] = payload["anchor_low"][:3]
        payload["anchor_high"] = payload["anchor_high"][:3]
        tampered = workspace / "tampered-store.json"
        tampered.write_text(json.dumps(payload))
        code = main(
            [
                "eval",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--store", str(tampered),
                "--data", str(workspace / "data.csv"),
            ]
        )
        assert code == EXIT_ARTIFACT

    def test_store_anchor_outside_checkpoint_classes_is_artifact_error(
        self, workspace, trained, capsys
    ):
        payload = json.loads((trained / "store.json").read_text())
        payload["anchor_classes"] = [1, 5]
        tampered = workspace / "five-class-anchor-store.json"
        tampered.write_text(json.dumps(payload))
        out_csv = ["--out", str(workspace / "x.csv")]
        for command, extra in (("eval", []), ("export-embeddings", out_csv)):
            code = main(
                [
                    command,
                    "--checkpoint", str(trained / "checkpoint.json"),
                    "--store", str(tampered),
                    "--data", str(workspace / "data.csv"),
                    *extra,
                ]
            )
            assert code == EXIT_ARTIFACT
            assert "anchor classes" in capsys.readouterr().err
        assert not (workspace / "x.csv").exists()

    def test_more_classes_than_checkpoint_is_artifact_error(self, workspace, trained, capsys):
        # A 3-class checkpoint must not score a cohort with coarse labels 4 or 5.
        for label in (4, 5):
            data = relabeled_copy(workspace, f"label{label}.csv", label)
            code = main(
                [
                    "eval",
                    "--checkpoint", str(trained / "checkpoint.json"),
                    "--store", str(trained / "store.json"),
                    "--data", str(data),
                ]
            )
            assert code == EXIT_ARTIFACT
            assert f"coarse labels up to {label}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "breakage",
        [
            pytest.param(lambda d: d.update(anchor_low=d["anchor_low"][:3]), id="short-anchor"),
            pytest.param(lambda d: d.update(sigma=1.5), id="sigma-outside-unit-interval"),
            pytest.param(lambda d: d["anchor_high"].__setitem__(0, float("nan")), id="nan-anchor"),
        ],
    )
    def test_invalid_store_values_are_parse_errors(self, workspace, trained, capsys, breakage):
        payload = json.loads((trained / "store.json").read_text())
        breakage(payload)
        tampered = workspace / "invalid-store.json"
        tampered.write_text(json.dumps(payload))
        code = main(
            [
                "eval",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--store", str(tampered),
                "--data", str(workspace / "data.csv"),
            ]
        )
        assert code == EXIT_IO
        assert "prototype store" in capsys.readouterr().err

    def test_untrained_store_is_artifact_error(self, workspace, trained, capsys):
        payload = json.loads((trained / "store.json").read_text())
        payload["anchor_low"] = [0.0] * payload["dim"]
        payload["anchor_high"] = [0.0] * payload["dim"]
        untrained = workspace / "untrained-store.json"
        untrained.write_text(json.dumps(payload))
        out_csv = workspace / "untrained-emb.csv"
        for command, extra in (("eval", []), ("export-embeddings", ["--out", str(out_csv)])):
            code = main(
                [
                    command,
                    "--checkpoint", str(trained / "checkpoint.json"),
                    "--store", str(untrained),
                    "--data", str(workspace / "data.csv"),
                    *extra,
                ]
            )
            assert code == EXIT_ARTIFACT, command
            assert "untrained" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_non_finite_data_is_parse_error(self, workspace, trained, capsys):
        lines = (workspace / "data.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = "nan"
        lines[2] = ",".join(fields)
        nan_csv = workspace / "nan-data.csv"
        nan_csv.write_text("\n".join(lines) + "\n")
        for argv in (
            ["eval", "--checkpoint", str(trained / "checkpoint.json"),
             "--store", str(trained / "store.json")],
            ["train", "--config", str(workspace / "train.cfg"),
             "--out", str(workspace / "nan-run")],
        ):
            assert main([*argv, "--data", str(nan_csv)]) == EXIT_IO, argv[0]
            assert "line 3: x1 must be finite" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_io_error(self, workspace, trained):
        broken = workspace / "broken-checkpoint.json"
        broken.write_text("{]")
        code = main(
            [
                "eval",
                "--checkpoint", str(broken),
                "--store", str(trained / "store.json"),
                "--data", str(workspace / "data.csv"),
            ]
        )
        assert code == EXIT_IO


class TestExportEmbeddings:
    def test_export(self, workspace, trained, capsys):
        out = workspace / "emb.csv"
        code = main(
            [
                "export-embeddings",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--store", str(trained / "store.json"),
                "--data", str(workspace / "eval.csv"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "wrote 50 embeddings" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("id,coarse_label,fine_label,z0")
        assert len(lines) == 51


    def test_more_classes_than_checkpoint_is_artifact_error(self, workspace, trained, capsys):
        out = workspace / "label4-emb.csv"
        code = main(
            [
                "export-embeddings",
                "--checkpoint", str(trained / "checkpoint.json"),
                "--store", str(trained / "store.json"),
                "--data", str(relabeled_copy(workspace, "label4.csv", 4)),
                "--out", str(out),
            ]
        )
        assert code == EXIT_ARTIFACT
        assert "classes are 1..3" in capsys.readouterr().err
        assert not out.exists()


class TestCrossval:
    def test_two_folds(self, workspace, capsys):
        single_seed = workspace / "train-one-seed.cfg"
        single_seed.write_text(TRAIN_CFG.replace("seeds = 1, 2", "seeds = 1"))
        out_json = workspace / "crossval.json"
        code = main(
            [
                "crossval",
                "--config", str(single_seed),
                "--data", str(workspace / "data.csv"),
                "--k", "2",
                "--out", str(out_json),
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "fold 1:" in printed and "fold 2:" in printed and "mean:" in printed
        results = json.loads(out_json.read_text())
        assert [row["fold"] for row in results["folds"]] == [1, 2]
        assert set(results["mean"]) == set(METRIC_KEYS)

    def test_class_count_mismatch_is_config_error(self, workspace, capsys):
        four_cfg = workspace / "fourclass.cfg"
        four_cfg.write_text(TRAIN_CFG.replace("classes = 3", "classes = 4"))
        four_gen = workspace / "gen-four.cfg"
        four_gen.write_text(
            GEN_CFG.replace("classes = 3", "classes = 4").replace("14, 22, 14", "14, 11, 11, 14")
            + "band_edges = 0.25, 0.5, 0.75\n"
        )
        four_csv = workspace / "four.csv"
        assert main(
            ["gen-data", "--config", str(four_gen), "--seed", "7", "--out", str(four_csv)]
        ) == EXIT_OK
        capsys.readouterr()
        pairs = ((four_cfg, workspace / "data.csv"), (workspace / "train.cfg", four_csv))
        for config, data in pairs:
            code = main(["crossval", "--config", str(config), "--data", str(data), "--k", "2"])
            assert code == EXIT_CONFIG
            assert "classes" in capsys.readouterr().err

    def test_bad_k_is_config_error(self, workspace):
        code = main(
            [
                "crossval",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "data.csv"),
                "--k", "1",
            ]
        )
        assert code == EXIT_CONFIG
        code = main(
            [
                "crossval",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "data.csv"),
                "--k", "30",
            ]
        )
        assert code == EXIT_CONFIG


class TestNumericFailure:
    """A diverging run exits 4 with the serial loop's message, pooled or not."""

    @pytest.fixture
    def diverging_cfg(self, workspace):
        path = workspace / "diverging.cfg"
        path.write_text(TRAIN_CFG + "learning_rate = 1e300\n")
        return path

    def _run(self, monkeypatch, capsys, cores, argv):
        monkeypatch.setattr(trainer, "_usable_cores", lambda: cores)
        code = main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the expected overflow
    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_diverging_run_exits_numeric(
        self, workspace, diverging_cfg, monkeypatch, capsys, tmp_path, command
    ):
        out = tmp_path / "out"
        argv = [command, "--config", str(diverging_cfg), "--data", str(workspace / "data.csv"),
                "--out", str(out)]
        if command == "crossval":
            argv += ["--k", "2"]
        serial = self._run(monkeypatch, capsys, 1, argv)
        pooled = self._run(monkeypatch, capsys, 2, argv)
        assert serial[0] == pooled[0] == EXIT_NUMERIC
        assert serial[1] == pooled[1]
        assert serial[1].startswith("error: iteration ")
        assert not out.exists()


class TestUsageErrors:
    def test_argparse_exits_with_usage_code(self):
        for argv in ([], ["unknown-command"], ["gen-data", "--seed", "1"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
