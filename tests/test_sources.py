"""Rules about the program's source text itself."""

import ast
import inspect
import re
from pathlib import Path

from fond import errors

ROOT = Path(__file__).resolve().parents[1]

# "ROADMAP item 6", "ROADMAP 13", "ROADMAP.md items 3", also across a
# line break in a comment or docstring
ROADMAP_NUMBER = re.compile(r"ROADMAP(?:\.md)?(?:'s)?[\s#]+(?:items?[\s#]+)?\d")


def test_no_source_cites_a_roadmap_item_number():
    # the ROADMAP renumbers its items whenever it is revised, so a number in
    # code goes stale; cite the item by what it is about instead
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    assert sources
    cited = [f"{path.relative_to(ROOT)}: {match.group(0)!r}"
             for path in sources
             for match in ROADMAP_NUMBER.finditer(path.read_text(encoding="utf-8"))]
    assert cited == []


CSV_IMPORT = re.compile(r"^\s*(?:import\s+csv\b|from\s+csv\s+import\b)", re.MULTILINE)


def test_one_csv_writer_for_every_output_table():
    # output tables go through datagen.write_table, so their quoting, line
    # ends and cell format are set in one place
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert sorted(name for name, text in sources.items() if CSV_IMPORT.search(text)) \
        == ["fond/datagen.py"]
    assert sum(text.count("csv.writer(") for text in sources.values()) == 1


JSON_READ = re.compile(r"\bjson\.loads?\(|^\s*from\s+json\s+import\b", re.MULTILINE)


def test_one_json_reader_for_every_input_file():
    # config files, overrides, plan files and checkpoint metadata are all
    # decoded by errors.strict_json, which rejects a repeated object key
    # that json.load would keep the last copy of
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    reads = [(name, match.group(0)) for name, text in sources.items()
             for match in JSON_READ.finditer(text)]
    assert reads == [("fond/errors.py", "json.loads(")]
    assert JSON_READ.search(inspect.getsource(errors.strict_json))


FLOATROWS_IMPORT = re.compile(r"^(?:from\s+\S*\s+)?import\s+.*floatrows|^from\s+\S*floatrows\s",
                              re.MULTILINE)


def test_one_writer_for_float_rows():
    # rows of floats (dataset.csv, embeddings.csv) go through
    # floatrows.float_rows, which reproduces repr's bytes; no per-value
    # repr loop is left, and the two writers import the module where they
    # run, so commands that write no float row never load it (the cost of a
    # module-level import is measured in
    # test_cli.py::test_only_float_row_writers_load_the_float_row_module)
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert [name for name, text in sources.items() if "map(repr" in text] == []
    assert sorted(name for name, text in sources.items() if "float_rows(" in text) \
        == ["fond/datagen.py", "fond/evalsel.py", "fond/floatrows.py"]
    assert [name for name, text in sources.items() if FLOATROWS_IMPORT.search(text)] == []


def test_one_loader_for_split_plans_and_one_training_recipe():
    # a plan file is loaded, and checked against split.setting and
    # split.target_domain, in cli.build_plan alone; cmd_train and the
    # benchmark cells share one recipe, so the cli splits a pool once
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert [name for name, text in sources.items() if "SplitPlan.load(" in text] \
        == ["fond/cli.py"]
    cli_text = sources["fond/cli.py"]
    build_plan = re.search(r"^def build_plan\(.*?(?=^\S)", cli_text, re.MULTILINE | re.DOTALL)
    assert build_plan and "SplitPlan.load(" in build_plan.group(0)
    assert cli_text.count("SplitPlan.load(") == 1
    assert cli_text.count("trainer.train_val_split(") == 1
    assert "datagen.shared_class_count(" not in cli_text


PLAN_MISMATCH = re.compile(r"(?<!class )\bPlanMismatchError\(")


def test_one_rule_for_plan_versus_data():
    # a plan that the data does not fit is reported by SplitPlan.check_data
    # alone, and benchmark's pre-check runs it on the data for a plan file
    # too, so it never branches on split.plan_path
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert [name for name, text in sources.items() if PLAN_MISMATCH.search(text)] \
        == ["fond/datagen.py"]
    datagen_text = sources["fond/datagen.py"]
    check_data = re.search(r"^    def check_data\(.*?(?=^    \S|^\S)", datagen_text,
                           re.MULTILINE | re.DOTALL)
    assert check_data
    assert 0 < len(PLAN_MISMATCH.findall(check_data.group(0))) \
        == len(PLAN_MISMATCH.findall(datagen_text))
    cli_text = sources["fond/cli.py"]
    cmd_benchmark = re.search(r"^def cmd_benchmark\(.*?(?=^\S)", cli_text, re.MULTILINE | re.DOTALL)
    assert cmd_benchmark and "plan_path" not in cmd_benchmark.group(0)
    build_plan = re.search(r"^def build_plan\(.*?(?=^\S)", cli_text, re.MULTILINE | re.DOTALL)
    assert build_plan and "None" not in build_plan.group(0).split(":\n")[0]


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_path_per_loss_term():
    # every alpha mode, a and b only set table values, so xdom_loss's row
    # block loop reads none of them and branches on nothing; fair_loss takes
    # the group means or computes them, with no per-sample ce to pass
    tree = ast.parse((ROOT / "src" / "fond" / "losses.py").read_text(encoding="utf-8"))
    loops = [node for node in ast.walk(_function(tree, "xdom_loss"))
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and node.target.id == "r0"]
    assert len(loops) == 1
    body = list(ast.walk(loops[0]))
    read = {f"cfg.{node.attr}" for node in body
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"}
    read |= {node.id for node in body if isinstance(node, ast.Name)}
    assert read & {"cfg.a", "cfg.b", "cfg.alpha_mode", "numerator_mode"} == set()
    assert [node for node in body if isinstance(node, (ast.If, ast.IfExp))] == []
    fair = _function(tree, "fair_loss").args
    assert "ce" not in [arg.arg for arg in fair.args + fair.kwonlyargs]


def test_one_writer_for_json_documents():
    # every indented JSON document a command writes (plan.json, run.json,
    # metrics.json, ...) goes through cli._write_json; a plan has one dict
    # form, SplitPlan.to_doc, which goes into run.json with no text round trip
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert [name for name, text in sources.items() for _ in re.finditer(r"\bindent=", text)] \
        == ["fond/cli.py"]
    cli_text = sources["fond/cli.py"]
    write_json = ast.get_source_segment(cli_text, _function(ast.parse(cli_text), "_write_json"))
    assert "indent=2, sort_keys=True" in write_json
    assert "json.loads(" not in cli_text
    plan = next(node for node in ast.walk(ast.parse(sources["fond/datagen.py"]))
                if isinstance(node, ast.ClassDef) and node.name == "SplitPlan")
    methods = {node.name for node in plan.body if isinstance(node, ast.FunctionDef)}
    assert "to_doc" in methods
    assert methods & {"to_json", "from_json", "save"} == set()


def test_one_grouping_and_one_mean_in_evalsel():
    # aggregate and pair_with_erm share evalsel._grouped, and every mean of
    # present scores (group accuracies, fold scores, table cells) is _mean's
    text = (ROOT / "src" / "fond" / "evalsel.py").read_text(encoding="utf-8")
    assert text.count(".setdefault(") == 1
    assert text.count("np.mean(") == 1


# "need at least 2 source domains", "(2 sources)"
SOURCE_COUNT = re.compile(r"\b\d+ sources?\b")


def test_only_datagen_raises_on_the_number_of_source_domains():
    # a plan needs two source domains, a rule of SplitPlan.validate that
    # every command reading a plan runs; make_split_plan checks its domain
    # count before drawing
    raising = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        raising += [path.relative_to(ROOT / "src").as_posix()
                    for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)
                    and SOURCE_COUNT.search(ast.get_source_segment(text, node))]
    assert raising == ["fond/datagen.py", "fond/datagen.py"]


COMMAND_NAMES = ("generate", "split", "train", "search", "benchmark", "dump-embeddings")


def test_each_command_declared_once():
    # cli.COMMANDS alone names each subcommand: the parser is built from it
    # and main dispatches through it, so cli.py never compares args.command
    # (a seed label such as subseed(..., "train") is not a command name);
    # cmd_search leaves the trial-count rule to evalsel.random_search
    text = (ROOT / "src" / "fond" / "cli.py").read_text(encoding="utf-8")
    tree = ast.parse(text)
    seed_labels = {id(node) for call in ast.walk(tree)
                   if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "subseed"
                   for node in ast.walk(call)}
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and id(node) not in seed_labels]
    assert {name: strings.count(name) for name in COMMAND_NAMES} \
        == dict.fromkeys(COMMAND_NAMES, 1)
    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for part in ast.walk(node)
                if isinstance(part, ast.Attribute) and part.attr == "command"
                and isinstance(part.value, ast.Name) and part.value.id == "args"]
    assert compared == []
    assert "n_trials" not in ast.get_source_segment(text, _function(tree, "cmd_search"))


def _write_mode_opens(tree):
    """The ``open(...)`` calls of ``tree`` whose mode writes (w, a, x or +)."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+")
                   for mode in modes):
                calls.append(node)
    return calls


def test_one_opener_for_every_output_file():
    # tables, JSON documents, logs, checkpoints and float rows all reach
    # disk through errors.write_output, so a write that fails removes its
    # file in one place
    trees = {path.relative_to(ROOT / "src").as_posix():
             ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    assert [name for name, tree in trees.items() for _ in _write_mode_opens(tree)] \
        == ["fond/errors.py"]
    assert _write_mode_opens(_function(trees["fond/errors.py"], "write_output"))
    assert "output_file" not in {node.name for node in ast.walk(trees["fond/floatrows.py"])
                                 if isinstance(node, ast.FunctionDef)}


def _calls_by_function(tree):
    """(innermost enclosing function name or None, call) for each call in ``tree``."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                calls.append((function, child))
            visit(child, function)

    visit(tree, None)
    return calls


SEED_FUNCTIONS = ("subseed", "rng_for", "rng_states")


def test_one_start_and_one_step_feed_for_every_training():
    # trainer.start alone draws a training's parameters and seeds its
    # trainer config (the tag + "init" and tag + "train" subseeds), and
    # trainer.step_inputs alone builds its batch sampler and its checked
    # annotation columns, so the cli and scripts/bench_step.py seed and
    # feed a training as trainer.train does
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    found = []
    for path in sources:
        for function, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in SEED_FUNCTIONS and any(
                    isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.endswith(("init", "train"))
                    for arg in call.args for node in ast.walk(arg)):
                name = "seed"
            if name in ("init_params", "seed", "BatchSampler", "BatchAnnotations"):
                found.append((path.relative_to(ROOT).as_posix(), function, name))
    assert sorted(found) == [("src/fond/trainer.py", "start", "init_params"),
                             ("src/fond/trainer.py", "start", "seed"),
                             ("src/fond/trainer.py", "start", "seed"),
                             ("src/fond/trainer.py", "step_inputs", "BatchAnnotations"),
                             ("src/fond/trainer.py", "step_inputs", "BatchSampler")]


def test_one_cell_config_and_every_plan_read_from_a_config():
    # cli.cell_config alone writes a benchmark cell's setting into
    # split.setting and its variant into loss.variant, and build_plan reads
    # the setting from the config it is given, so a cell, the benchmark's
    # pre-check and scripts/bench_step.py cannot plan apart from the config
    # that the cell runs
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    replaced, plan_calls = [], []
    for path in sources:
        for function, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name == "replace":
                replaced += [(path.relative_to(ROOT).as_posix(), function, keyword.arg)
                             for keyword in call.keywords
                             if keyword.arg in ("setting", "variant")]
            if name == "build_plan":
                plan_calls.append((path.relative_to(ROOT).as_posix(), function,
                                   len(call.args), len(call.keywords)))
    assert sorted(replaced) == [("src/fond/cli.py", "cell_config", "setting"),
                                ("src/fond/cli.py", "cell_config", "variant")]
    assert plan_calls and all(args == 2 and not keywords
                              for _, _, args, keywords in plan_calls), plan_calls
