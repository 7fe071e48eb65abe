"""One property over the CLI's input contract.

Every input the CLI accepts gives a result or a typed error: ``cli.main``
returns 0, 2 (config), 3 (numeric) or 4 (io) and raises nothing, a
nonzero exit writes exactly one JSON line to stderr, and a run that exits
0 records a plan that passes ``SplitPlan.validate``. The inputs are the
tiny config at four training steps with one or two ``--set`` overrides, or
with a mutated plan file. A contract bug found later gets a strategy here.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fond import cli, datagen, networks

TINY = Path(__file__).resolve().parents[1] / "configs" / "tiny_benchmark.json"

COMMANDS = ("generate", "split", "train", "search", "benchmark", "dump-embeddings")
BASE = ("--set", "trainer.max_steps=4", "--set", "trainer.eval_every=2")
EXITS = {cli.EXIT_CONFIG: "config", cli.EXIT_NUMERIC: "numerical", cli.EXIT_IO: "io"}

# the config's keys, a few whole sections and one unknown key;
# trainer.max_steps is drawn apart, so that no run trains more than four steps
KEYS = (
    "seed", "dataset.name", "dataset.csv_path", "dataset.synthetic.num_classes",
    "dataset.synthetic.input_dim", "dataset.synthetic.num_domains",
    "dataset.synthetic.transform_family", "dataset.synthetic.shift",
    "dataset.synthetic.noise_std", "dataset.synthetic.label_noise",
    "dataset.synthetic.samples_per_cell", "dataset.synthetic.prototype_seed",
    "split.setting", "split.target_domain", "split.plan_path",
    "network.feature_dim", "network.projection_dim", "network.f_hidden", "network.p_hidden",
    "loss.temperature", "loss.a", "loss.b", "loss.lambda_xdom", "loss.lambda_fair",
    "loss.alpha_mode", "loss.variant",
    "trainer.learning_rate", "trainer.batch_size", "trainer.optimizer", "trainer.eval_every",
    "trainer.seed", "trainer.dropout", "trainer.stratified_batches",
    "trainer.selection_metric", "trainer.momentum", "trainer.adam_beta1",
    "trainer.adam_beta2", "trainer.adam_eps",
    "search.n_trials", "search.space", "search.space.learning_rate", "search.space.a",
    "benchmark.variants", "benchmark.settings", "benchmark.reps",
    "trainer", "network", "nope",
)
# override texts: JSON values of every type, and text that is not JSON;
# sizes stay small, so no draw makes the program allocate much
VALUES = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from(["0.5", "-0.1", "1e-9", "1e6", "1e999", "NaN", "-Infinity", "true",
                     "null", '"x"', "low", "high", "[]", "[2]", "[0.1, 0.5]", "[1e6, 1e7]",
                     '["erm"]', '["fond", "fond"]', "{}", '{"a": 1, "a": 2}', "[1,", ""]))
# the huge values: numpy refuses each up front, before any allocation
HUGE = st.sampled_from([
    "dataset.synthetic.num_domains=2147483648",
    "dataset.synthetic.samples_per_cell=9007199254740993",
    "network.feature_dim=1000000000000",
    "network.f_hidden=[1000000000000]",
])
OVERRIDES = st.one_of(
    st.builds("{}={}".format, st.sampled_from(KEYS), VALUES),
    st.integers(-1, 4).map("trainer.max_steps={}".format),
    HUGE,
)
IDS = st.one_of(st.integers(-1, 6), st.sampled_from([1.0, True, "2", None, [1], 2**63]))
FIELD_VALUES = st.sampled_from([0, 3, -1, 2.5, False, "low", None, [], [1, 2], {}, {"0": [1]}])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(the tiny config's plan document, a checkpoint of its network, a
    directory for each draw's files)."""
    root = tmp_path_factory.mktemp("contract")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["split", "--config", str(TINY), "--out", str(root / "split")]) == 0
    ckpt = root / "model.npz"
    networks.save_checkpoint(networks.init_params(networks.NetworkConfig(
        input_dim=8, num_classes=5, feature_dim=16, projection_dim=8,
        f_hidden=(16,), p_hidden=(32,)), 0), ckpt)
    return json.loads((root / "split" / "plan.json").read_text()), ckpt, root


def mutate(data, doc):
    """``doc`` with one id replaced, added or dropped, or one field replaced,
    dropped or added."""
    doc = copy.deepcopy(doc)
    name = data.draw(st.sampled_from(sorted(doc)), label="field")
    how = data.draw(st.sampled_from(["replace id", "add id", "drop id", "replace key",
                                     "replace field", "drop field", "add field"]), label="how")
    value = doc[name]
    lists = ([value] if isinstance(value, list)
             else list(value.values()) if isinstance(value, dict) else [])
    ids = data.draw(st.sampled_from(lists), label="list") if lists else None
    if how == "replace field" or (how.endswith(" id") and name == "target_domain"):
        doc[name] = data.draw(IDS if name == "target_domain" else FIELD_VALUES, label="value")
    elif how == "drop field":
        del doc[name]
    elif how == "add field":
        doc["extra"] = data.draw(FIELD_VALUES, label="value")
    elif how == "replace key" and isinstance(value, dict):
        old = data.draw(st.sampled_from(sorted(value)), label="key")
        value[data.draw(st.sampled_from(["9", "-1", "x", "1.0", " 1"]), label="new key")] \
            = value.pop(old)
    elif how == "add id" and ids is not None:
        ids.append(data.draw(IDS, label="id"))
    elif ids:
        i = data.draw(st.integers(0, len(ids) - 1), label="index")
        if how == "drop id":
            del ids[i]
        else:
            ids[i] = data.draw(IDS, label="id")
    return doc


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_input_exits_0_2_3_or_4_with_one_json_line(inputs, data):
    plan_doc, ckpt, root = inputs
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    plan = mutate(data, plan_doc) if data.draw(st.booleans(), label="plan file") else None
    overrides = data.draw(st.lists(OVERRIDES, min_size=0 if plan else 1, max_size=2),
                          label="overrides")
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        out = Path(tmp) / "out"
        argv = [command, "--config", str(TINY), "--out", str(out), *BASE]
        if plan is not None:
            (Path(tmp) / "plan.json").write_text(json.dumps(plan))
            argv += ["--set", f"split.plan_path={json.dumps(str(Path(tmp) / 'plan.json'))}"]
        if command == "dump-embeddings":
            argv += ["--checkpoint", str(ckpt)]
        for text in overrides:
            argv += ["--set", text]
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, *EXITS), code
        if code:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["error"] == EXITS[code]
        elif command in ("split", "train"):
            written = json.loads((out / ("plan.json" if command == "split"
                                         else "run.json")).read_text())
            datagen.SplitPlan(**written.get("plan", written)).validate()
