"""Key-value config parsing and schema coercion."""

from __future__ import annotations

import re
from dataclasses import fields

import pytest

from ordproto.config import load_gen_config, load_train_config, read_kv_file
from ordproto.data import GenConfig
from ordproto.errors import BadConfigError, DatasetIOError
from ordproto.trainer import TrainConfig

# Every key each config file takes, in field order: the file format, written
# out apart from the code that derives it from the dataclasses.
GEN_KEYS = ["classes", "class_counts", "input_dim", "noise_sigma", "band_edges", "progression_cut"]
TRAIN_KEYS = [
    "classes", "input_dim", "hidden_dims", "feature_dim", "epochs", "batch_size",
    "learning_rate", "lr_decay", "adam_beta1", "adam_beta2", "adam_epsilon", "ema_sigma",
    "lambda_start", "lambda_end", "lambda_per_epoch", "blackbox_lambda", "use_ins2ins",
    "use_ins2cls", "use_cls2cls", "detach_class_spread", "anchor_low", "anchor_high", "seeds",
]


def write(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path


class TestReadKvFile:
    def test_comments_blanks_and_spacing(self, tmp_path):
        path = write(
            tmp_path,
            "# cohort settings\n"
            "\n"
            "classes = 3\n"
            "  noise_sigma=0.2   # inline note\n"
            "band_edges = 0.3, 0.6\n",
        )
        assert read_kv_file(path) == {
            "classes": "3",
            "noise_sigma": "0.2",
            "band_edges": "0.3, 0.6",
        }

    def test_syntax_errors_name_the_line(self, tmp_path):
        for text, fragment in [
            ("classes 3\n", "line 1"),
            ("classes = 3\n= 0.5\n", "line 2: empty key"),
            ("classes = 3\nclasses = 4\n", "line 2: duplicate key"),
        ]:
            with pytest.raises(BadConfigError) as err:
                read_kv_file(write(tmp_path, text))
            assert fragment in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetIOError):
            read_kv_file(tmp_path / "absent.txt")


@pytest.mark.parametrize(
    "load, config, keys",
    [(load_gen_config, GenConfig, GEN_KEYS), (load_train_config, TrainConfig, TRAIN_KEYS)],
    ids=["generation", "training"],
)
def test_the_keys_each_config_takes(tmp_path, load, config, keys):
    # A key it takes names its bad value; any other key, a field's own name
    # included, is unknown.
    for key in sorted({field.name for field in fields(config)} | set(keys)):
        with pytest.raises(BadConfigError) as err:
            load(write(tmp_path, f"{key} = x\n"))
        assert str(err.value).startswith("bad value" if key in keys else "unknown"), key
    for text in ("n_classes = 3\n", "base_lr = 0.1\n", "anchor_classes = 1, 3\n"):
        with pytest.raises(BadConfigError, match=f"^unknown .* config key '{text.split()[0]}'"):
            load(write(tmp_path, text))


class TestGenConfigLoading:
    def test_full_file(self, tmp_path):
        cfg = load_gen_config(
            write(
                tmp_path,
                "classes = 4\n"
                "class_counts = 10, 20, 20, 10\n"
                "input_dim = 8\n"
                "noise_sigma = 0.05\n"
                "band_edges = 0.25, 0.5, 0.75\n"
                "progression_cut = 0.6\n",
            )
        )
        assert cfg.n_classes == 4
        assert cfg.class_counts == (10, 20, 20, 10)
        assert cfg.input_dim == 8
        assert cfg.noise_sigma == 0.05
        assert cfg.band_edges == (0.25, 0.5, 0.75)
        assert cfg.progression_cut == 0.6

    def test_omitted_keys_fall_back_to_defaults(self, tmp_path):
        cfg = load_gen_config(write(tmp_path, "noise_sigma = 0.3\n"))
        assert cfg.n_classes == 3
        assert cfg.class_counts == (130, 270, 200)
        assert cfg.noise_sigma == 0.3

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(BadConfigError, match="sigma_noise"):
            load_gen_config(write(tmp_path, "sigma_noise = 0.3\n"))

    def test_bad_value_names_key(self, tmp_path):
        with pytest.raises(BadConfigError, match="input_dim"):
            load_gen_config(write(tmp_path, "input_dim = wide\n"))
        # Of two bad values, the earlier field's is named, not the earlier line's.
        with pytest.raises(BadConfigError, match="^bad value for 'input_dim'"):
            load_gen_config(write(tmp_path, "progression_cut = late\ninput_dim = wide\n"))

    def test_dataclass_validation_propagates(self, tmp_path):
        with pytest.raises(BadConfigError):
            load_gen_config(write(tmp_path, "class_counts = 5, 5\n"))


class TestTrainConfigLoading:
    def test_full_file(self, tmp_path):
        cfg = load_train_config(
            write(
                tmp_path,
                "classes = 3\n"
                "input_dim = 16\n"
                "hidden_dims = 32, 16\n"
                "feature_dim = 8\n"
                "epochs = 4\n"
                "batch_size = 6\n"
                "learning_rate = 0.001\n"
                "lr_decay = 0.9\n"
                "adam_beta1 = 0.6\n"
                "adam_beta2 = 0.99\n"
                "adam_epsilon = 1e-9\n"
                "ema_sigma = 0.8\n"
                "lambda_start = 0.1\n"
                "lambda_end = 0.9\n"
                "lambda_per_epoch = true\n"
                "blackbox_lambda = 0.5\n"
                "use_ins2ins = true\n"
                "use_ins2cls = false\n"
                "use_cls2cls = true\n"
                "detach_class_spread = true\n"
                "seeds = 3, 1, 4\n",
            )
        )
        assert cfg.hidden_dims == (32, 16)
        assert cfg.feature_dim == 8
        assert cfg.base_lr == 0.001
        assert cfg.adam_beta1 == 0.6
        assert cfg.ema_sigma == 0.8
        assert (cfg.lambda_start, cfg.lambda_end) == (0.1, 0.9)
        assert cfg.lambda_per_epoch is True
        assert cfg.blackbox_lambda == 0.5
        assert (cfg.use_ins2ins, cfg.use_ins2cls, cfg.use_cls2cls) == (True, False, True)
        assert cfg.detach_class_spread is True
        assert cfg.seeds == (3, 1, 4)
        assert cfg.anchor_classes == (1, 3)  # derived from classes

    def test_anchor_defaults_follow_class_count(self, tmp_path):
        cfg = load_train_config(write(tmp_path, "classes = 5\n"))
        assert cfg.anchor_classes == (1, 5)
        cfg = load_train_config(write(tmp_path, "epochs = 2\n"))
        assert cfg.anchor_classes == (1, 3)

    def test_explicit_anchors(self, tmp_path):
        cfg = load_train_config(
            write(tmp_path, "classes = 4\nanchor_low = 2\nanchor_high = 3\n")
        )
        assert cfg.anchor_classes == (2, 3)

    def test_anchors_must_be_paired(self, tmp_path):
        with pytest.raises(BadConfigError, match="together"):
            load_train_config(write(tmp_path, "anchor_low = 2\n"))
        with pytest.raises(BadConfigError, match="together"):
            load_train_config(write(tmp_path, "anchor_high = 2\n"))

    def test_bad_bool_named(self, tmp_path):
        with pytest.raises(BadConfigError, match="use_ins2ins"):
            load_train_config(write(tmp_path, "use_ins2ins = yes\n"))
        with pytest.raises(BadConfigError, match="^bad value for 'use_ins2ins'"):
            load_train_config(write(tmp_path, "seeds = 1, two\nuse_ins2ins = yes\n"))

    def test_dataclass_validation_propagates(self, tmp_path):
        with pytest.raises(BadConfigError):
            load_train_config(write(tmp_path, "ema_sigma = 1.5\n"))


@pytest.mark.parametrize(
    "make, kw, message",
    [
        (TrainConfig, {"epochs": 1.5}, "epochs must be an integer, got 1.5"),
        (TrainConfig, {"epochs": "3"}, "epochs must be an integer, got '3'"),
        (TrainConfig, {"epochs": True}, "epochs must be an integer, got True"),
        (GenConfig, {"input_dim": 2.5}, "input_dim must be an integer, got 2.5"),
        (TrainConfig, {"seeds": (1.5,)}, "seeds must hold integers, got (1.5,)"),
        (GenConfig, {"class_counts": (1, 2.5)}, "class_counts must hold integers, got (1, 2.5)"),
    ],
)
def test_integer_fields_word_a_scalar_apart_from_a_tuple(make, kw, message):
    # A scalar field's value is shown as given, as the real-number fields show theirs.
    with pytest.raises(BadConfigError, match=f"^{re.escape(message)}$"):
        make(**kw)
