"""Tests of the benchmark's own machinery: span arithmetic, wrapper
restoration and repeatable counts. Run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import datacause  # noqa: E402
import datacause.cli  # noqa: E402
from run import MODULES, tail  # noqa: E402
from spans import FUNCTIONS, Span, SpanRecorder, self_times, summarise, trace_all  # noqa: E402
from workloads import CliSubprocess  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("engine.explain", 0.0, 10.0, explanation=0),
        Span("transforms.compose", 1.0, 4.0, parent=0, explanation=0),
        Span("transforms.compose", 3.0, 6.0, parent=0, explanation=0),  # overlaps its sibling
        Span("transforms.transform", 2.0, 3.0, parent=1, explanation=0),
        Span("transforms.compose", 2.5, 2.75, parent=3, explanation=0),  # nested in a compose
        Span("synth.generate", 20.0, 21.0),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 0.75, 0.25, 1.0]
    layers = summarise(spans)
    assert "synth.generate" not in layers
    assert layers["transforms.compose"].calls == 3
    assert layers["transforms.compose"].inclusive_s == 6.0  # the nested one is not added
    assert layers["transforms.compose"].self_s == 5.25
    assert summarise(spans, explanations=False)["synth.generate"].inclusive_s == 1.0


def test_tail_leaves_ten_samples_above_it():
    values = [float(v) for v in range(1, 41)]
    p, value, beyond = tail(values)
    assert (p, beyond) == (76, 10) and value == pytest.approx(30.64)
    assert tail(values[:12])[0] == 50


def _bindings():
    """Every (owner, attribute, object) the tracer may replace."""
    originals = {id(getattr(sys.modules[m], a)) for m, a, _, _ in FUNCTIONS}
    out = [(mod, key, value) for name, mod in sys.modules.items()
           if name == "datacause" or name.startswith("datacause.")
           for key, value in vars(mod).items() if id(value) in originals]
    out.append((datacause.tabular.Dataset, "__post_init__",
                datacause.tabular.Dataset.__post_init__))
    out.append((datacause.oracle.MalfunctionOracle, "evaluate",
                datacause.oracle.MalfunctionOracle.evaluate))
    return out


def test_wrappers_are_restored_even_when_the_body_raises():
    before = _bindings()
    assert datacause.engine.compose is datacause.transforms.compose
    with pytest.raises(RuntimeError):
        with SpanRecorder() as recorder:
            trace_all(recorder)
            assert datacause.engine.compose is not datacause.transforms.compose.__wrapped__
            assert datacause.engine.compose is datacause.transforms.compose
            assert all(getattr(owner, key) is not value for owner, key, value in before)
            raise RuntimeError("body failed")
    assert all(getattr(owner, key) is value for owner, key, value in before)


def test_count_metrics_repeat_across_two_traced_runs(tmp_path):
    dc = SimpleNamespace(**{m: sys.modules[f"datacause.{m}"] for m in MODULES})
    workload = CliSubprocess(dc, tmp_path)
    [case] = workload.setup([3], stock=0)
    counts = []
    for _ in range(2):
        with SpanRecorder() as recorder:
            trace_all(recorder)
            recorder.explanation = 0
            outcome = workload.run(case)
        assert workload.check(case, outcome) is None
        layers = summarise(recorder.spans)
        counts.append(({name: (layer.calls, layer.work, layer.errors)
                        for name, layer in layers.items()}, outcome))
    assert counts[0] == counts[1]
    layers = counts[0][0]
    assert layers["tabular.dataset_build"][1] > 0  # cells normalised
    # one temporary CSV per scorer invocation (both baselines too) and --out-repaired
    assert layers["tabular.save_csv"][0] == counts[0][1].interventions + 3
