"""The flat key=value config format."""

import pytest

from dnll.config import TrainConfig, parse_config, serialize_config
from dnll.errors import ConfigError


def test_defaults_roundtrip():
    cfg = TrainConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_every_field_addressable():
    text = """
    lambda = 0.5
    m = 3
    selection_mode = EPM
    learning_mode = mutual
    epochs = 7
    batch_size = 64
    labeled_fraction = 0.25
    ema_decay = 0.8
    lambda_ramp_epochs = 2
    model.hidden = 32,16
    model.activation = tanh
    data.max_unlabeled = 500
    optimizer.base_lr = 0.01
    optimizer.momentum = 0.5
    optimizer.weight_decay = 0.001
    optimizer.total_steps = 1000
    optimizer.nesterov = true
    augment.weak = crop_flip
    augment.strong = crop_flip_noise
    augment.crop_pad = 3
    augment.flip_p = 0.25
    augment.noise_sigma = 0.2
    augment.per_submodel_streams = false
    seeds.model1 = 11
    seeds.model2 = 12
    seeds.data = 13
    seeds.sampler = 14
    seeds.augment = 15
    """
    cfg = parse_config(text)
    assert cfg.lam == 0.5 and cfg.m == 3
    assert cfg.hidden == (32, 16) and cfg.activation == "tanh"
    assert cfg.optimizer.nesterov is True
    assert cfg.augment.per_submodel_streams is False
    assert cfg.seeds.sampler == 14
    assert parse_config(serialize_config(cfg)) == cfg


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nm = 2  # trailing\n")
    assert cfg.m == 2


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="thresholdd"):
        parse_config("thresholdd = 0.95\n")


def test_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("lambda 0.5\n")


def test_unparseable_value():
    with pytest.raises(ConfigError, match="epochs"):
        parse_config("epochs = many\n")


def test_negative_lambda_rejected():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config("lambda = -1\n")


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        parse_config("selection_mode = RANDOM\n")
    with pytest.raises(ConfigError):
        parse_config("learning_mode = sideways\n")


@pytest.mark.parametrize("line, name", [
    ("seeds.augment = -1", "seeds.augment"),
    ("augment.crop_pad = -2", "crop_pad"),
])
def test_negative_seed_and_crop_pad_rejected(line, name):
    with pytest.raises(ConfigError, match=name):
        parse_config(line + "\n")


def test_bad_bool_rejected():
    with pytest.raises(ConfigError, match="nesterov"):
        parse_config("optimizer.nesterov = maybe\n")


def test_batch_size_floor():
    with pytest.raises(ConfigError):
        parse_config("batch_size = 1\n")


def test_lambda_ramp():
    cfg = parse_config("lambda = 2.0\nlambda_ramp_epochs = 4\n")
    assert cfg.effective_lambda(0) == pytest.approx(0.5)
    assert cfg.effective_lambda(3) == pytest.approx(2.0)
    assert cfg.effective_lambda(10) == pytest.approx(2.0)
    flat = parse_config("lambda = 2.0\n")
    assert flat.effective_lambda(0) == 2.0


DEFAULT_CONFIG_TEXT = """\
lambda = 1.0
m = 1
selection_mode = EP
learning_mode = mutual_plus_self
epochs = 30
batch_size = 100
labeled_fraction = 0.5
ema_decay = 0.9
lambda_ramp_epochs = 0
model.hidden = 256,128
model.activation = relu
data.max_unlabeled = 0
optimizer.base_lr = 0.03
optimizer.momentum = 0.9
optimizer.weight_decay = 0.0005
optimizer.total_steps = 0
optimizer.nesterov = false
augment.weak = identity
augment.strong = noise
augment.crop_pad = 2
augment.flip_p = 0.5
augment.noise_sigma = 0.1
augment.per_submodel_streams = true
seeds.model1 = 1
seeds.model2 = 2
seeds.data = 3
seeds.sampler = 4
seeds.augment = 5
"""


def test_default_serialization_golden():
    # Every checkpoint embeds this text, and resume compares it byte for
    # byte, so key order and value spelling are part of the file format.
    assert serialize_config(TrainConfig()) == DEFAULT_CONFIG_TEXT
