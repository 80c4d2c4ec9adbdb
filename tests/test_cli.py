"""End-to-end command-line workflows on a small synthetic cohort."""

from __future__ import annotations

import copy
import functools
import json
import operator
import random
import warnings

import numpy as np
import pytest

from ordproto import cli, errors, trainer
from ordproto.cli import (
    EXIT_ARTIFACT,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)
from ordproto.config import load_train_config
from ordproto.data import load_dataset
from ordproto.encoder import encode, load_checkpoint
from ordproto.prototypes import load_store, progression_scores
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


def without_class(workspace, tmp_path, label: int):
    """data.csv without the samples of one coarse class, ids renumbered."""
    header, *rows = (workspace / "data.csv").read_text().splitlines()
    kept = [row.split(",")[1:] for row in rows if row.split(",")[1] != str(label)]
    path = tmp_path / f"no-class-{label}.csv"
    lines = [header] + [",".join([str(i), *fields]) for i, fields in enumerate(kept)]
    path.write_text("\n".join(lines) + "\n")
    return path


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
        assert ds.size == 50 and ds.input_dim == 6
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

    def test_negative_seed_is_config_error(self, workspace, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code = main(
            ["gen-data", "--config", str(workspace / "gen.cfg"), "--seed", "-1", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        assert float(first[7]) == progression_scores(z0[None, :], store)[0]
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

    def test_negative_seed_is_config_error(self, workspace, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TRAIN_CFG.replace("seeds = 1, 2", "seeds = 1, -3"))
        out = tmp_path / "out"
        code = main(
            ["train", "--config", str(bad), "--data", str(workspace / "data.csv"), "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "error: seeds must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_missing_middle_class_is_config_error(self, workspace, capsys, tmp_path, command):
        out = tmp_path / "out"
        argv = [command, "--config", str(workspace / "train.cfg"),
                "--data", str(without_class(workspace, tmp_path, 2))]
        argv += ["--out", str(out)] + (["--k", "2"] if command == "crossval" else [])
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "training data must contain every class 1..3, found [1 3]" in err
        assert not out.exists()

    def test_failed_rerun_leaves_no_stale_manifest(self, workspace, tmp_path):
        out = tmp_path / "out"
        for seed in (1, 2):
            (tmp_path / f"seed{seed}.cfg").write_text(
                TRAIN_CFG.replace("seeds = 1, 2", f"seeds = {seed}")
            )
        argv = ["train", "--data", str(workspace / "data.csv"), "--out", str(out), "--config"]
        assert main([*argv, str(tmp_path / "seed1.cfg")]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [1]
        # The second run fails at its embeddings write, after its checkpoint.
        (out / "embeddings.csv").unlink()
        (out / "embeddings.csv").mkdir()
        assert main([*argv, str(tmp_path / "seed2.cfg")]) == EXIT_IO
        assert load_checkpoint(out / "checkpoint.json")[2]["seed"] == 2
        assert not (out / "manifest.json").exists()

    def test_unusable_out_fails_before_training(self, workspace, monkeypatch, capsys, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("")
        monkeypatch.setattr(cli, "run_seeds", lambda *args: pytest.fail("trained before --out"))
        code = main(
            [
                "train",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "data.csv"),
                "--out", str(afile / "run"),
            ]
        )
        assert code == EXIT_IO
        assert "cannot create output dir" in capsys.readouterr().err

    def test_crossval_out_in_a_missing_dir_fails_before_training(
        self, workspace, monkeypatch, capsys, tmp_path
    ):
        out = tmp_path / "missing" / "cv.json"
        monkeypatch.setattr(cli, "cross_validate", lambda *args: pytest.fail("trained before --out"))
        code = main(
            [
                "crossval",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "data.csv"),
                "--k", "2",
                "--out", str(out),
            ]
        )
        assert code == EXIT_IO
        assert f"error: cannot write {out}: its directory does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_utf8_config_is_config_error(self, workspace, capsys, tmp_path):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(TRAIN_CFG.encode() + "# r\xe9glage\n".encode("latin-1"))
        out = tmp_path / "out"
        code = main(
            ["train", "--config", str(bad), "--data", str(workspace / "data.csv"), "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "config is not valid UTF-8" in capsys.readouterr().err
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

    def test_coarse_label_outside_int64_is_parse_error(self, workspace, capsys):
        data = relabeled_copy(workspace, "huge-label.csv", 99999999999999999999)
        code = main(
            [
                "train",
                "--config", str(workspace / "train.cfg"),
                "--data", str(data),
                "--out", str(workspace / "run-huge-label"),
            ]
        )
        assert code == EXIT_IO
        assert "line 2: coarse_label must fit in int64" in capsys.readouterr().err

    def test_field_over_the_csv_limit_is_parse_error(self, workspace, capsys):
        # The quoted fine label sends the file down the per-row csv path.
        data = workspace / "long-field.csv"
        data.write_text(f'id,coarse_label,fine_label,latent_t,x0\n0,1,"",0.5,{"1" * 200_000}\n')
        code = main(
            [
                "train",
                "--config", str(workspace / "train.cfg"),
                "--data", str(data),
                "--out", str(workspace / "run-long-field"),
            ]
        )
        assert code == EXIT_IO
        assert "line 2: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault, exit_code, message",
        [
            ("width", EXIT_CONFIG, "config input_dim 6 != eval data input_dim 8"),
            ("no-middle-rows", EXIT_NUMERIC, "dataset has no middle-class samples to evaluate"),
        ],
        ids=["width", "no-middle-rows"],
    )
    def test_unusable_eval_data_fails_before_training(
        self, workspace, monkeypatch, capsys, tmp_path, fault, exit_code, message
    ):
        if fault == "width":
            (tmp_path / "wide.cfg").write_text(GEN_CFG.replace("input_dim = 6", "input_dim = 8"))
            eval_data = tmp_path / "wide.csv"
            argv = ["--config", str(tmp_path / "wide.cfg"), "--seed", "5", "--out", str(eval_data)]
            assert main(["gen-data", *argv]) == EXIT_OK
        else:
            eval_data = without_class(workspace, tmp_path, 2)
        jobs = []
        real = trainer._fork_map
        monkeypatch.setattr(trainer, "_fork_map", lambda tasks: jobs.append(tasks) or real(tasks))
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--config", str(workspace / "train.cfg"),
                "--data", str(workspace / "data.csv"),
                "--eval-data", str(eval_data),
                "--out", str(out),
            ]
        )
        assert code == exit_code
        assert message in capsys.readouterr().err
        assert jobs == [] and not out.exists()


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
            # Numbers of another JSON type, each plausible once int() or
            # float() has converted it; save_store never writes them.
            pytest.param(lambda d: d.update(dim=d["dim"] + 0.5), id="float-dim"),
            pytest.param(lambda d: d.update(dim=d["dim"] + 1), id="dim-unlike-anchors"),
            pytest.param(lambda d: d.update(sigma=str(d["sigma"])), id="string-sigma"),
            pytest.param(
                lambda d: d["anchor_classes"].__setitem__(0, d["anchor_classes"][0] + 0.9),
                id="float-anchor-class",
            ),
            pytest.param(
                lambda d: d["anchor_low"].__setitem__(0, "0.25"), id="string-anchor-entry"
            ),
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

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_store_whose_anchor_norm_overflows_is_a_parse_error(
        self, workspace, trained, capsys, tmp_path, action
    ):
        # Every entry is finite, but the norm is not: scoring would divide by Inf.
        payload = json.loads((trained / "store.json").read_text())
        payload["anchor_high"][0] = 1e308
        tampered = tmp_path / "overflowing-store.json"
        tampered.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            for command, out in (("eval", "metrics.json"), ("export-embeddings", "emb.csv")):
                code = main(
                    [
                        command,
                        "--checkpoint", str(trained / "checkpoint.json"),
                        "--store", str(tampered),
                        "--data", str(workspace / "data.csv"),
                        "--out", str(tmp_path / out),
                    ]
                )
                assert code == EXIT_IO, command
                assert "anchor norms overflow" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tampered]

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_features_whose_norms_overflow_are_refused(
        self, workspace, trained, capsys, tmp_path, action
    ):
        tampered = tmp_path / "overflowing-checkpoint.json"
        for key, index, value in (
            # Every feature is finite, but each row's norm is not: each cosine would read 0.
            ("bias", 0, 1e300),
            # The last layer's matmul overflows, which numpy reports as it happens.
            ("weight", 24, 1e308),
        ):
            payload = json.loads((trained / "checkpoint.json").read_text())
            payload["layers"][-1][key][index] = value
            tampered.write_text(json.dumps(payload))
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                for command, out in (("eval", "metrics.json"), ("export-embeddings", "emb.csv")):
                    code = main(
                        [
                            command,
                            "--checkpoint", str(tampered),
                            "--store", str(trained / "store.json"),
                            "--data", str(workspace / "data.csv"),
                            "--out", str(tmp_path / out),
                        ]
                    )
                    assert code == EXIT_NUMERIC, (key, command)
                    err = capsys.readouterr().err
                    assert "features row 0 has a norm that overflows" in err, key
            assert list(tmp_path.iterdir()) == [tampered]

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

    @pytest.mark.parametrize("kind", ["checkpoint", "store", "data"])
    def test_non_utf8_file_is_parse_error(self, workspace, trained, capsys, tmp_path, kind):
        paths = {
            "checkpoint": trained / "checkpoint.json",
            "store": trained / "store.json",
            "data": workspace / "data.csv",
        }
        # One byte that is not UTF-8, at the start of the second line.
        first, rest = paths[kind].read_bytes().split(b"\n", 1)
        paths[kind] = tmp_path / f"bad-{kind}"
        paths[kind].write_bytes(first + b"\n\xff" + rest)
        code = main(["eval", *(arg for k, p in paths.items() for arg in (f"--{k}", str(p)))])
        assert code == EXIT_IO
        assert "can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(
                lambda d: d["layers"][0].update(activation="tanh"), id="unknown-activation"
            ),
            # Known names in the wrong places: encode would run another network.
            pytest.param(
                lambda d: (
                    d["layers"][0].update(activation="identity"),
                    d["layers"][-1].update(activation="relu"),
                ),
                id="swapped-activations",
            ),
            pytest.param(
                lambda d: d["layers"][0]["weight"].__setitem__(0, float("nan")), id="nan-weight"
            ),
            # The head still fits the one dim.
            pytest.param(
                lambda d: d.update(dims=d["dims"][-1:], layers=[]), id="one-dim-no-layers"
            ),
            pytest.param(lambda d: d["layers"].append(d["layers"][-1]), id="extra-layer"),
            pytest.param(lambda d: d["head"]["bias"].append(0.0), id="head-bias-shape"),
            # An input dim of -1, which a reshape would infer as 6.
            pytest.param(lambda d: d["dims"].__setitem__(0, -1), id="inferred-dim"),
            # Numbers of another JSON type, each plausible once int() or
            # float() has converted it; save_checkpoint never writes them.
            pytest.param(lambda d: d.update(seed=2.7), id="float-seed"),
            pytest.param(lambda d: d.update(seed=True), id="bool-seed"),
            pytest.param(lambda d: d["dims"].__setitem__(0, d["dims"][0] + 0.9), id="float-dim"),
            pytest.param(lambda d: d["dims"].__setitem__(0, str(d["dims"][0])), id="string-dim"),
            pytest.param(lambda d: d.update(n_classes=d["n_classes"] + 0.5), id="float-n-classes"),
            pytest.param(lambda d: d.update(epoch=str(d["epoch"])), id="string-epoch"),
            pytest.param(
                lambda d: d["layers"][0]["weight"].__setitem__(0, "0.25"), id="string-weight-entry"
            ),
            pytest.param(lambda d: d["head"]["bias"].__setitem__(0, "0.5"), id="string-bias-entry"),
        ],
    )
    def test_malformed_checkpoint_is_parse_error(self, workspace, trained, capsys, tmp_path, fault):
        payload = json.loads((trained / "checkpoint.json").read_text())
        fault(payload)
        broken = tmp_path / "checkpoint.json"
        broken.write_text(json.dumps(payload))
        out_csv = tmp_path / "emb.csv"
        for command, extra in (("eval", []), ("export-embeddings", ["--out", str(out_csv)])):
            code = main(
                [
                    command,
                    "--checkpoint", str(broken),
                    "--store", str(trained / "store.json"),
                    "--data", str(workspace / "data.csv"),
                    *extra,
                ]
            )
            assert code == EXIT_IO, command
            assert "malformed checkpoint payload" in capsys.readouterr().err
        assert not out_csv.exists()

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
    """A run whose numbers overflow exits with one code and message, whatever the
    warning filter, pooled or not, and leaves no output."""

    @pytest.fixture
    def diverging_cfg(self, workspace):
        path = workspace / "diverging.cfg"
        path.write_text(TRAIN_CFG + "learning_rate = 1e300\n")
        return path

    def _run(self, monkeypatch, capsys, cores, argv, action):
        monkeypatch.setattr(trainer, "_usable_cores", lambda: cores)
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_diverging_run_exits_numeric(
        self, workspace, diverging_cfg, monkeypatch, capsys, tmp_path, command
    ):
        out = tmp_path / "out"
        argv = [command, "--config", str(diverging_cfg), "--data", str(workspace / "data.csv"),
                "--out", str(out)]
        if command == "crossval":
            argv += ["--k", "2"]
        runs = [
            self._run(monkeypatch, capsys, cores, argv, action)
            for action in ("default", "error")
            for cores in (1, 2)
        ]
        assert {code for code, _ in runs} == {EXIT_NUMERIC}
        assert len({err for _, err in runs}) == 1
        assert runs[0][1].startswith("error: iteration ")
        assert not out.exists()

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_input_row_whose_feature_norm_overflows(
        self, workspace, monkeypatch, capsys, tmp_path, action
    ):
        # x1 of row 0 is 1e308: finite, so the load accepts it, and so are the
        # row's features, but their norm is not.
        lines = (workspace / "data.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[5] = "1e308"
        lines[1] = ",".join(fields)
        data = tmp_path / "huge-x.csv"
        data.write_text("\n".join(lines) + "\n")
        # The first iteration of seed 1, the first seed, whose batch holds row 0.
        config = load_train_config(workspace / "train.cfg")
        labels = load_dataset(data).coarse
        batches = [
            batch
            for epoch in range(config.epochs)
            for batch in trainer._plan(config, labels, (1,), epoch)[:, 0]
        ]
        iteration = next(i for i, batch in enumerate(batches, 1) if 0 in batch)
        row = int(np.flatnonzero(batches[iteration - 1] == 0)[0])
        out = tmp_path / "out"
        argv = ["train", "--config", str(workspace / "train.cfg"), "--data", str(data),
                "--out", str(out)]
        for cores in (1, 2):
            code, err = self._run(monkeypatch, capsys, cores, argv, action)
            assert code == EXIT_NUMERIC
            message = f"iteration {iteration}: features row {row} has a norm that overflows"
            assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_generated_noise_that_overflows_is_config_error(self, capsys, tmp_path, action):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_CFG.replace("noise_sigma = 0.1", "noise_sigma = 1e308"))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code = main(["gen-data", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        message = "noise_sigma must keep the generated inputs finite, got 1e+308"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg]


# The exit code of each OrdprotoError subclass raised inside a command.
# BadConfigError took in five classes that also exited 2 (bad layer dims,
# bad fold count, batch too small, label or scalar out of range), and
# DegenerateInputError two that exited 4 (a batch missing a class, metrics
# with one class only).
EXIT_CODES = {
    "ArtifactMismatchError": EXIT_ARTIFACT,
    "BadConfigError": EXIT_CONFIG,
    "DatasetIOError": EXIT_IO,
    "DatasetParseError": EXIT_IO,
    "DegenerateInputError": EXIT_NUMERIC,
    "DimMismatchError": EXIT_NUMERIC,
    "EmptyInputError": EXIT_NUMERIC,
    "NonFiniteError": EXIT_NUMERIC,
    "TrainingError": EXIT_NUMERIC,
    "UntrainedStoreError": EXIT_NUMERIC,
    "ZeroVectorError": EXIT_NUMERIC,
}


class TestExitCodes:
    def test_table_lists_every_error_class(self):
        assert set(EXIT_CODES) == {c.__name__ for c in errors.OrdprotoError.__subclasses__()}

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_raised_inside_a_command(self, monkeypatch, capsys, tmp_path, name):
        def failing_load(path):
            raise getattr(errors, name)("raised by the command")

        monkeypatch.setattr(cli, "load_gen_config", failing_load)
        argv = ["gen-data", "--config", "gen.cfg", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_CODES[name]
        assert capsys.readouterr().err == "error: raised by the command\n"


class TestUsageErrors:
    def test_argparse_exits_with_usage_code(self):
        for argv in ([], ["unknown-command"], ["gen-data", "--seed", "1"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2


# What a corpus mutation writes in place of an artifact entry; DELETE removes the entry.
DELETE = object()
MUTATIONS = (1e308, -1e308, 1e200, 0, "a string", None, DELETE)


def _entry_paths(node, path=()):
    """The path (keys and list indices) of every entry of a JSON payload, leaves and inner nodes."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield (*path, key)
            yield from _entry_paths(child, (*path, key))


class TestMutationCorpus:
    """Seeded mutations of checkpoint.json and store.json, scored by eval and export-embeddings.

    Under default warnings and with RuntimeWarning an error, each command
    exits 0, 3, 4 or 5, with the same code under both filters; the two
    commands succeed together; a failure writes nothing, and a success
    scores every row with a finite p_progressive in [0, 1].
    """

    CASES = 160

    def test_mutated_artifacts(self, workspace, trained, capsys, tmp_path):
        rng = random.Random(16)
        names = ("checkpoint", "store")
        originals = {name: json.loads((trained / f"{name}.json").read_text()) for name in names}
        entries = {name: list(_entry_paths(payload)) for name, payload in originals.items()}
        out = tmp_path / "out"
        out.mkdir()
        for _ in range(self.CASES):
            name = rng.choice(names)
            *parents, last = rng.choice(entries[name])
            value = rng.choice(MUTATIONS)
            payload = copy.deepcopy(originals[name])
            node = functools.reduce(operator.getitem, parents, payload)
            if value is DELETE:
                del node[last]
            else:
                node[last] = value
            label = f"{name}{[*parents, last]} <- {'deleted' if value is DELETE else repr(value)}"
            paths = {n: trained / f"{n}.json" for n in names}
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
            inputs = [arg for n in names for arg in (f"--{n}", str(paths[n]))]
            inputs += ["--data", str(workspace / "data.csv")]

            codes = {}
            for action in ("default", "error"):
                for command, target in (("eval", "metrics.json"), ("export-embeddings", "emb.csv")):
                    with warnings.catch_warnings():
                        warnings.simplefilter(action, RuntimeWarning)
                        try:
                            code = main([command, *inputs, "--out", str(out / target)])
                        except Exception as exc:
                            pytest.fail(f"{label}: {command} under {action} warnings: {exc!r}")
                    codes[action, command] = code
                    assert code in (EXIT_OK, EXIT_IO, EXIT_NUMERIC, EXIT_ARTIFACT), label
                    if code == EXIT_OK and command == "export-embeddings":
                        lines = (out / target).read_text().splitlines()[1:]
                        scores = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
                        assert scores.size == 50, label
                        assert np.all((scores >= 0.0) & (scores <= 1.0)), label  # NaN fails too
                    written = [path.name for path in out.iterdir()]
                    assert written == ([target] if code == EXIT_OK else []), label
                    for path in out.iterdir():
                        path.unlink()
            capsys.readouterr()
            assert codes["default", "eval"] == codes["error", "eval"], label
            assert codes["default", "export-embeddings"] == codes["error", "export-embeddings"], label
            assert (codes["default", "eval"] == EXIT_OK) == (
                codes["default", "export-embeddings"] == EXIT_OK
            ), label
