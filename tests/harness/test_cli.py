"""The `python -m repro.harness` command-line interface."""

import pytest

from repro.harness.__main__ import COMMANDS, EXPERIMENTS, main


def test_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5", "fig9", "conflicts", "qos"):
        assert name in out


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "fig10" in capsys.readouterr().out


def test_unknown_experiment_errors(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_runs_cheap_experiment(capsys):
    assert main(["conflicts"]) == 0
    out = capsys.readouterr().out
    assert "records/lock" in out
    assert "finished in" in out


def test_registry_covers_every_figure():
    for figure in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10"):
        assert figure in EXPERIMENTS


def test_seed_flag_threads_into_seeded_experiments(capsys):
    """--seed reaches workloads that accept one and changes their mix."""
    assert main(["conflicts", "--seed", "9"]) == 0
    seeded = capsys.readouterr().out
    assert main(["conflicts", "--seed", "9"]) == 0
    repeat = capsys.readouterr().out
    assert main(["conflicts"]) == 0
    default = capsys.readouterr().out

    def table(text):
        return [
            line for line in text.splitlines() if "finished in" not in line
        ]

    assert table(seeded) == table(repeat)  # deterministic under a seed
    assert table(seeded) != table(default)  # and the seed actually matters


def test_seed_flag_ignored_by_unseeded_experiments(capsys):
    """Experiments without a seed parameter still run under --seed."""
    assert main(["flush-timer", "--seed", "5"]) == 0
    assert "flush timer" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_subcommand_has_help_and_is_listed(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--help"])
    assert exit_info.value.code == 0
    assert f"python -m repro.harness {name}" in capsys.readouterr().out
    assert main(["--list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert name in listed
