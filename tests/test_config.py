import pytest

from victr.cli import _build_parser, _resolve_config, main
from victr.config import PipelineConfig, load_config


def _write(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_comments_and_blank_lines_are_skipped(tmp_path):
    path = _write(tmp_path, (
        "# pipeline settings\n"
        "\n"
        "   \n"
        "epochs = 5\n"
        "  # an indented comment\n"
        "learning_rate=0.5\n"
        "caption_mode = richest\n"
        "out_dir = some dir\n"
    ))
    assert load_config(path) == PipelineConfig(
        epochs=5, learning_rate=0.5, caption_mode="richest", out_dir="some dir")


def test_byte_order_mark_is_not_part_of_the_first_key(tmp_path):
    # editors on Windows start UTF-8 files with one
    path = tmp_path / "config.txt"
    path.write_text("\ufeffconllu = a.conllu\nepochs = 5\n", encoding="utf-8")
    assert load_config(path) == PipelineConfig(conllu="a.conllu", epochs=5)


@pytest.mark.parametrize("line, message", [
    ("frobnicate = yes", "unknown config key 'frobnicate'"),
    ("seed", "expected 'key = value'"),
    ("epochs = abc", "epochs must be int, got 'abc'"),
    ("epochs = 2.5", "epochs must be int, got '2.5'"),
    ("learning_rate = fast", "learning_rate must be float, got 'fast'"),
    ("epochs = 0", "epochs must be >= 1, got 0"),
    ("learning_rate = -0.1", "learning_rate must be finite and > 0, got -0.1"),
    ("learning_rate = nan", "learning_rate must be finite and > 0, got nan"),
    ("learning_rate = inf", "learning_rate must be finite and > 0, got inf"),
    ("caption_mode = some", "caption_mode must be 'all' or 'richest', got 'some'"),
    ("out_dir =", "'out_dir' has no value"),
    ("conllu = ", "'conllu' has no value"),
    ("quantifier_lexicon =", "'quantifier_lexicon' has no value"),
    ("superclass_lexicon =", "'superclass_lexicon' has no value"),
    ("epochs =", "'epochs' has no value"),
], ids=["unknown_key", "no_equals", "bad_int", "float_for_int", "bad_float",
        "zero_epochs", "negative_rate", "nan_rate", "infinite_rate", "caption_mode",
        "no_out_dir", "no_conllu", "no_quantifier_lexicon", "no_superclass_lexicon",
        "no_epochs"])
def test_bad_line_names_path_and_line(tmp_path, monkeypatch, capsys, line, message):
    path = _write(tmp_path, f"# settings\n\nseed = 3\n{line}\n")
    with pytest.raises(ValueError) as e:
        load_config(path)
    assert str(e.value) == f"{path}:4: {message}"
    monkeypatch.chdir(tmp_path)  # "out_dir =" once wrote into the working directory
    assert main(["parse", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:4: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt"]


def test_repeated_key_names_both_lines(tmp_path, capsys):
    path = _write(tmp_path, "epochs = 5\nseed = 3\nepochs = 50\n")
    message = f"{path}:3: 'epochs' is already set at {path}:1"
    with pytest.raises(ValueError) as e:
        load_config(path)
    assert str(e.value) == message
    assert main(["stats", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _resolve(argv):
    return _resolve_config(_build_parser().parse_args(argv))


def test_flags_override_the_file(tmp_path):
    # --out-dir is the one setting a flag gives
    path = _write(tmp_path, "seed = 3\nout_dir = from_file\ncaption_mode = richest\nepochs = 9\n")
    cfg = _resolve(["parse", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert cfg == PipelineConfig(seed=3, out_dir=str(tmp_path / "o"), caption_mode="richest",
                                 epochs=9)


def test_file_values_hold_without_flags(tmp_path):
    path = _write(tmp_path, "seed = 3\nout_dir = from_file\ncaption_mode = richest\n")
    cfg = _resolve(["parse", "--config", str(path)])
    assert (cfg.seed, cfg.out_dir, cfg.caption_mode) == (3, "from_file", "richest")
    assert _resolve(["parse"]) == PipelineConfig()
