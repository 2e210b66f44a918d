"""The benchmark in ``perfbench/`` wraps names that the program looks up in its
own modules; these tests fail when a change renames one of them or stops
calling it, which would otherwise break the benchmark without a sign."""

import importlib.util
import os
import subprocess
import sys

import esjs.bootstrap
import esjs.cli
import esjs.gof
from esjs import Family, ParametricModel, sample_from
from esjs.cli import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def test_self_test_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_hooked_layer_records_spans(tmp_path):
    spans = _spans_module()
    modules = (esjs.bootstrap, esjs.cli, esjs.gof)
    before = [dict(vars(m)) for m in modules]
    data = sample_from(ParametricModel(Family.GAMMA, (2.0, 2.0)), 500, 3)
    path = tmp_path / "g.csv"
    path.write_text("\n".join(str(v) for v in data.values), encoding="utf-8")
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        codes = [
            run(["compare", "--input", str(path), "--families", "gamma,normal",
                 "--bins", "1000", "--bootstrap", "3", "--block-length", "5", "--seed", "1"]),
            run(["simulate", "--given", "gamma:2,2", "--hypotheses", "gamma,weibull",
                 "--n", "300", "--bootstrap", "3", "--seed", "1"]),
        ]
    finally:
        tracer.restore()
    assert codes == [0, 0]
    assert [dict(vars(m)) for m in modules] == before
    recorded = {span.name for span in tracer.spans}
    assert recorded >= {
        "cli.ingest", "gof.compare_families", "gof.simulate_experiment", "gof.fit_report",
        "distributions.fit", "distributions.sample", "survival.build", "divergence.esjs",
        "bootstrap.ci", "bootstrap.replicate_values", "bootstrap.resample", "gof.statistic",
        "seeds.derive_seed",
    }
