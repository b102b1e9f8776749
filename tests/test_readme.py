"""README's examples stay runnable: its CLI block parses, its `pipeline`
rebuild chain names only options its subcommands have, and its minimal
pipeline config passes every check `pipeline` makes before a stage runs."""

import argparse
import re
import shlex
from pathlib import Path

from handcam import cli
from test_cli import gesture_space

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the line `heading`."""
    after = README[README.index(heading + "\n"):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def test_cli_block_commands_parse():
    commands = fenced_block("## CLI", "sh").replace("\\\n", " ").splitlines()
    parser = cli.build_parser()
    parsed = []
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "handcam", line
        args = parser.parse_args(argv[1:])
        parsed.append(args.command)
    assert len(parsed) == 12 and "fuse" in parsed and "detect-changes" in parsed


def test_pipeline_rebuild_chain_names_only_real_options():
    # its values are placeholders (C, E, ...), so each line is checked
    # option by option instead of parsed
    commands = fenced_block("After `00_synth/`, each stage is the subcommand of that name run "
                            "over the", "sh").replace("\\\n", " ").splitlines()
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if action.nargs == argparse.PARSER)
    named = []
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "handcam" and argv[1] in subparsers, line
        options = subparsers[argv[1]]._option_string_actions
        for token in argv[2:]:
            if token.startswith("--"):
                assert token in options, (argv[1], token)
        named.append(argv[1])
    assert named == ["cv", "train-state", "train-change", "detect-changes", "infer", "eval"]


def test_minimal_pipeline_config_passes_the_up_front_checks(tmp_path):
    config = tmp_path / "pipeline.json"
    config.write_text(fenced_block("A minimal pipeline config:", "json"))
    cfg = cli._read_json_object(config, cli._PIPELINE)
    plan, epochs = cli._pipeline_plan(cfg)
    cli._feature_set({"seed": cfg["seed"], **cfg["synth"]}, ["train_00"], gesture_space())
    assert epochs == cfg["training"]["epochs"]
    assert plan.d_grid == (cfg["hyperparameters"]["d"],)
