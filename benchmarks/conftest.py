"""Shared helpers for the figure-reproduction benchmarks.

Each benchmark runs its experiment exactly once (the workload is a
deterministic simulation; repeating it measures Python, not the system),
prints the paper-style table through pytest's terminal reporter so it
survives output capture (and lands in ``bench_output.txt``), and appends
it to ``benchmarks/results.txt`` — a local run artifact, gitignored and
rewritten from scratch at each benchmark session.
"""

import pathlib

import pytest

RESULTS_FILE = pathlib.Path(__file__).parent / "results.txt"
ARTIFACTS_DIR = pathlib.Path(__file__).parent / "artifacts"


def pytest_sessionstart(session):
    RESULTS_FILE.write_text("")


@pytest.fixture
def emit(request):
    """Print past pytest's capture and persist to benchmarks/results.txt."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _emit(text: str) -> None:
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line("")
            for line in text.splitlines():
                reporter.write_line(line)
        with RESULTS_FILE.open("a") as handle:
            handle.write(text + "\n\n")

    return _emit


@pytest.fixture
def artifact():
    """Write an experiment result (metrics registry included) as JSON.

    CI uploads ``benchmarks/artifacts/`` so every smoke-bench run leaves
    an inspectable metrics-registry export behind.
    """
    from repro.harness.reporting import to_json

    def _artifact(name: str, result) -> pathlib.Path:
        ARTIFACTS_DIR.mkdir(exist_ok=True)
        path = ARTIFACTS_DIR / f"{name}.json"
        to_json(result, path=str(path))
        return path

    return _artifact


@pytest.fixture
def trace_artifact():
    """Export a tracer's flight-recorder window as a Chrome trace.

    CI uploads it alongside the metrics artifact, so every smoke-bench
    run leaves a Perfetto-loadable trace behind.
    """
    from repro.obs import write_chrome_trace

    def _trace_artifact(name: str, tracer) -> pathlib.Path:
        ARTIFACTS_DIR.mkdir(exist_ok=True)
        trace_path = ARTIFACTS_DIR / f"{name}_trace.json"
        write_chrome_trace(
            str(trace_path), tracer.recorder.events(), process_name=name
        )
        return trace_path

    return _trace_artifact


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
