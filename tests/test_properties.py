"""Property tests: malformed input fails only with the package's own errors.

The CLI maps every ``DnllError`` except ``NumericError`` to exit 2, so any
other exception escaping these readers would surface as exit 1 and a
traceback.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dnll.checkpoint import load_checkpoint, save_checkpoint
from dnll.config import TrainConfig, parse_config, serialize_config
from dnll.data import read_split_manifest
from dnll.errors import DnllError, FormatError
from dnll.nn import Architecture, init_model
from dnll.trainer import pack_state, unpack_state

FAST = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,  # the same examples on every run
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

CONFIG_KEYS = [line.split(" = ")[0] for line in serialize_config(TrainConfig()).splitlines()]
PLAUSIBLE_VALUES = [
    "0", "1", "-1", "3", "0.5", "1e309", "nan", "-inf", "true", "no", "maybe",
    "256,128", ",", "0,4", "EP", "EPM", "mutual", "tanh", "crop_flip", "noise", "",
]
config_lines = st.one_of(
    st.text(max_size=30),
    st.builds(
        "{} = {}".format,
        st.sampled_from(CONFIG_KEYS),
        st.one_of(st.sampled_from(PLAUSIBLE_VALUES), st.text(max_size=10)),
    ),
)


@FAST
@given(st.lists(config_lines, max_size=8).map("\n".join))
def test_parse_config_returns_or_raises_package_error(text):
    try:
        cfg = parse_config(text)
    except DnllError:
        return
    assert isinstance(cfg, TrainConfig)


manifest_tokens = st.one_of(
    st.integers(-5, 50).map(str), st.integers(-(10**30), 10**30).map(str), st.text(max_size=4)
)
manifest_lines = st.one_of(
    st.text(max_size=20),
    st.builds(
        "{}: {}".format,
        st.sampled_from(["labeled", "unlabeled", "validation", "seed=1", "# note", "other"]),
        st.lists(manifest_tokens, max_size=6).map(" ".join),
    ),
)


@FAST
@given(st.lists(manifest_lines, max_size=6).map("\n".join))
def test_read_split_manifest_returns_or_raises_package_error(tmp_path, text):
    path = tmp_path / "split.txt"
    path.write_text(text, encoding="utf-8")
    try:
        split = read_split_manifest(path)
    except DnllError:
        return
    indices = np.concatenate([split.labeled, split.unlabeled, split.validation])
    assert len(np.unique(indices)) == len(indices)


shapes = st.lists(st.integers(0, 5), max_size=3).map(tuple)


@st.composite
def state_tensors(draw):
    """An architecture and a tensor list: its valid layout after 0-2 edits."""
    arch = Architecture(
        input_dim=draw(st.integers(1, 4)),
        hidden=tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))),
        n_classes=draw(st.integers(2, 4)),
    )
    model = init_model(arch, 0)
    pr = np.zeros((arch.n_classes, arch.n_classes))
    layout = [t.shape for t in pack_state(model, model, pr, pr)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(layout) - 1))
        edit = draw(st.sampled_from(["drop", "insert", "reshape"]))
        if edit == "drop":
            del layout[i]
        elif edit == "insert":
            layout.insert(i, draw(shapes))
        else:
            layout[i] = draw(shapes)
        if not layout:
            break
    return arch, [np.zeros(shape) for shape in layout]


def zero_d_bias_case():
    """A valid layout with a 0-d tensor in place of the first bias."""
    arch = Architecture(input_dim=1, hidden=(1,), n_classes=2)
    model = init_model(arch, 0)
    pr = np.zeros((2, 2))
    tensors = [np.zeros(t.shape) for t in pack_state(model, model, pr, pr)]
    tensors[len(model.weights)] = np.zeros(())
    return arch, tensors


@FAST
@given(state_tensors())
@example(case=zero_d_bias_case())
def test_unpack_state_returns_or_raises_format_error(tmp_path, case):
    arch, tensors = case
    path = tmp_path / "c.dnll"
    save_checkpoint(path, "", arch.to_dict(), tensors, {})
    _, arch_dict, loaded, _ = load_checkpoint(path)
    try:
        state = unpack_state(Architecture.from_dict(arch_dict), loaded)
    except FormatError:
        return
    assert [t.shape for t in pack_state(*state)] == [t.shape for t in tensors]
