import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aligncruse.data import make_ld_set, read_manifest
from aligncruse.dsp import AudioClip
from aligncruse.errors import ConfigurationError, ShapeError
from aligncruse.evaluation import (
    EvalReport,
    align_success,
    confidence_interval,
    delay_recovery_report,
    erle,
)
from aligncruse.model import ModelConfig, init_params


def test_erle_identity_is_zero():
    x = AudioClip(np.random.default_rng(0).standard_normal(1000) * 0.1)
    assert erle(x, x) == pytest.approx(0.0, abs=1e-9)


def test_erle_half_amplitude():
    x = AudioClip(np.random.default_rng(1).standard_normal(1000) * 0.1)
    half = AudioClip(0.5 * x.samples)
    assert erle(x, half) == pytest.approx(10 * np.log10(4), abs=1e-9)


def test_erle_zero_output_clamps_at_80():
    x = AudioClip(np.random.default_rng(2).standard_normal(1000) * 0.1)
    assert erle(x, AudioClip(np.zeros(1000))) == 80.0


def test_erle_negative_clamp():
    x = AudioClip(np.ones(100) * 1e-3)
    loud = AudioClip(np.ones(100))
    assert erle(x, loud) == -20.0


def test_erle_length_mismatch():
    with pytest.raises(ShapeError):
        erle(AudioClip(np.zeros(10)), AudioClip(np.zeros(11)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.01, 100.0), st.integers(0, 2**31))
def test_erle_scale_invariance(scale, seed):
    # the eps guard perturbs tiny energies, so invariance is approximate
    rng = np.random.default_rng(seed)
    mic = rng.standard_normal(500) * 0.1
    enh = rng.standard_normal(500) * 0.05
    a = erle(AudioClip(mic), AudioClip(enh))
    b = erle(AudioClip(scale * mic), AudioClip(scale * enh))
    assert a == pytest.approx(b, abs=1e-6)


def test_erle_matches_direct_computation():
    rng = np.random.default_rng(3)
    mic = rng.standard_normal(2000) * 0.2
    enh = rng.standard_normal(2000) * 0.01
    direct = 10 * np.log10((np.sum(mic**2) + 1e-12) / (np.sum(enh**2) + 1e-12))
    assert erle(AudioClip(mic), AudioClip(enh)) == pytest.approx(direct, abs=1e-9)


def test_align_success_window():
    assert align_success(30, 30 * 160)
    assert align_success(31, 30 * 160)
    assert not align_success(32, 30 * 160)


def test_confidence_interval():
    vals = [1.0, 2.0, 3.0, 4.0]
    expect = 1.96 * np.std(vals, ddof=1) / 2.0
    assert confidence_interval(vals) == pytest.approx(expect)
    assert confidence_interval([5.0]) == 0.0


def test_report_aggregates_recompute_from_rows(tmp_path):
    rep = EvalReport(system="global")
    rep.add_row(id="a", erle_db=10.0, abs_delay_err_frames=0, success_at_1=True)
    rep.add_row(id="b", erle_db=20.0, abs_delay_err_frames=3, success_at_1=False)
    agg = rep.aggregates()
    assert agg["mean_erle_db"] == 15.0
    assert agg["success_at_1"] == 0.5
    assert agg["aecmos"] is None and agg["mos"] is None
    path = tmp_path / "r.jsonl"
    rep.to_jsonl(path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 3
    table = rep.render_table()
    assert "ERLE" in table and "N/A" in table
    assert "align_mode" not in table  # classical rows carry no alignment mode


def test_delay_recovery_classical_on_ld_set(tmp_path):
    rows = make_ld_set("m", 4, seed=3, out_dir=tmp_path, clip_len=2.0)
    rep = delay_recovery_report("global", rows, tmp_path, max_delay=16000)
    agg = rep.aggregates()
    assert agg["n"] == 4
    # mild noise only: the classical global aligner should nail every clip
    assert agg["success_at_1"] == 1.0


def test_delay_recovery_model_system(tmp_path):
    rows = make_ld_set("m", 2, seed=4, out_dir=tmp_path, clip_len=2.0)
    cfg = ModelConfig.tiny()
    store = init_params(cfg, seed=0)
    rep = delay_recovery_report("model", rows, tmp_path, store=store)
    assert rep.aggregates()["n"] == 2
    for row in rep.rows:
        assert "erle_db" in row and "align_argmax_frames" in row
        assert row["align_mode"] == "utterance"
    assert "align_mode: utterance" in rep.render_table().splitlines()[0]
    path = tmp_path / "r.jsonl"
    rep.to_jsonl(path)
    rows_out = [json.loads(l) for l in path.read_text().splitlines()][:-1]
    assert [r["align_mode"] for r in rows_out] == ["utterance", "utterance"]


def test_delay_recovery_missing_ground_truth_skipped(tmp_path):
    rows = make_ld_set("m", 2, seed=5, out_dir=tmp_path, clip_len=2.0)
    rows[0] = {k: v for k, v in rows[0].items() if k != "delay_samples"}
    rep = delay_recovery_report("global", rows, tmp_path)
    assert rep.warnings == 1
    assert rep.aggregates()["n"] == 1


def test_delay_recovery_validation():
    with pytest.raises(ConfigurationError):
        delay_recovery_report("nope", [], ".")
    with pytest.raises(ConfigurationError):
        delay_recovery_report("model", [], ".")


def test_delay_recovery_model_rejects_cruse_store(tmp_path):
    rows = make_ld_set("m", 1, seed=4, out_dir=tmp_path, clip_len=2.0)
    store = init_params(ModelConfig.tiny(), seed=0, arch="cruse")
    with pytest.raises(ConfigurationError):
        delay_recovery_report("model", rows, tmp_path, store=store)

