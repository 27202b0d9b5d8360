import json

import numpy as np
import pytest

from aligncruse import dsp
from aligncruse.cli import main
from aligncruse.data import make_ld_set, speech_surrogate
from aligncruse.dsp import AudioClip
from aligncruse.model import ModelConfig, enhance, init_params
from aligncruse.params_io import load_params, save_params


@pytest.fixture
def tiny_ckpt(tmp_path):
    path = tmp_path / "tiny.acrs"
    save_params(path, init_params(ModelConfig.tiny(), seed=0))
    return path


@pytest.fixture
def wav_pair(tmp_path):
    far = speech_surrogate(16000, np.random.default_rng(0))
    mic = np.concatenate([np.zeros(2000), far[:-2000]]) * 0.8
    mic_p, far_p = tmp_path / "mic.wav", tmp_path / "far.wav"
    dsp.write_wav(mic_p, AudioClip(mic))
    dsp.write_wav(far_p, AudioClip(far))
    return mic_p, far_p


def test_gen_data_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["--seed", "7", "gen-data", "--kind", "ld-h", "--n", "3",
                     "--out", str(out), "--clip-len", "2.0"])
        assert code == 0
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()
    assert "resolved-config" in capsys.readouterr().out


def test_inspect_prints_param_count(tmp_path, capsys):
    path = tmp_path / "full.acrs"
    save_params(path, init_params(ModelConfig.paper(), seed=0))
    assert main(["inspect", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0.74M" in out or "0.73M" in out or "0.75M" in out
    assert "gru.whh" in out
    assert "bins=161" in out


def test_enhance_identity_mask_round_trip(tmp_path, tiny_ckpt, wav_pair, capsys):
    mic_p, far_p = wav_pair
    out_p = tmp_path / "out.wav"
    code = main(["enhance", "--model", str(tiny_ckpt), "--mic", str(mic_p),
                 "--far", str(far_p), "--out", str(out_p), "--force-identity-mask"])
    assert code == 0
    mic = dsp.read_wav(mic_p).samples
    out = dsp.read_wav(out_p).samples
    interior = slice(320, len(mic) - 480)
    # 16-bit quantization twice bounds the round-trip error
    assert np.max(np.abs(out[interior] - mic[interior])) < 3.0 / 32768.0


def test_enhance_emit_delay(tmp_path, tiny_ckpt, wav_pair):
    mic_p, far_p = wav_pair
    dd = tmp_path / "d.json"
    code = main(["enhance", "--model", str(tiny_ckpt), "--mic", str(mic_p),
                 "--far", str(far_p), "--out", str(tmp_path / "o.wav"),
                 "--emit-delay", str(dd), "--mode", "utterance"])
    assert code == 0
    payload = json.loads(dd.read_text())
    assert payload["mode"] == "utterance"
    assert len(payload["probs"]) == ModelConfig.tiny().d_max


def test_enhance_emit_delay_causal_matches_enhance(tmp_path, tiny_ckpt, wav_pair):
    mic_p, far_p = wav_pair
    dd = tmp_path / "d.json"
    code = main(["enhance", "--model", str(tiny_ckpt), "--mic", str(mic_p),
                 "--far", str(far_p), "--out", str(tmp_path / "o.wav"),
                 "--emit-delay", str(dd), "--mode", "causal"])
    assert code == 0
    payload = json.loads(dd.read_text())
    store, _ = load_params(tiny_ckpt)
    _, dist = enhance(dsp.read_wav(mic_p), dsp.read_wav(far_p), store, mode="causal")
    assert payload == {"mode": "per-frame", "argmax_frames": dist.argmax().tolist()}


def test_enhance_causal_wav_equals_write_wav_of_enhance(tmp_path, tiny_ckpt, wav_pair):
    """The chunked causal path writes the bytes that write_wav writes for a
    whole-file causal enhance."""
    mic_p, far_p = wav_pair
    out_p, ref_p = tmp_path / "o.wav", tmp_path / "ref.wav"
    code = main(["enhance", "--model", str(tiny_ckpt), "--mic", str(mic_p),
                 "--far", str(far_p), "--out", str(out_p), "--mode", "causal"])
    assert code == 0
    store, _ = load_params(tiny_ckpt)
    out, _ = enhance(dsp.read_wav(mic_p), dsp.read_wav(far_p), store, mode="causal")
    dsp.write_wav(ref_p, out)
    assert out_p.read_bytes() == ref_p.read_bytes()


def test_enhance_emit_delay_rejects_cruse_model(tmp_path, wav_pair, capsys):
    mic_p, far_p = wav_pair
    ckpt = tmp_path / "cruse.acrs"
    save_params(ckpt, init_params(ModelConfig.tiny(), seed=0, arch="cruse"))
    dd = tmp_path / "d.json"
    code = main(["enhance", "--model", str(ckpt), "--mic", str(mic_p),
                 "--far", str(far_p), "--out", str(tmp_path / "o.wav"),
                 "--emit-delay", str(dd), "--mode", "utterance"])
    assert code == 1
    assert not dd.exists()


def test_align_global(wav_pair, capsys):
    mic_p, far_p = wav_pair
    code = main(["align", "estimate", "--mode", "global", "--mic", str(mic_p),
                 "--far", str(far_p), "--max-delay-ms", "500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "delay_samples=2000" in out


def test_align_online_with_trace(tmp_path, wav_pair, capsys):
    mic_p, far_p = wav_pair
    trace = tmp_path / "trace.jsonl"
    code = main(["align", "--mode", "online", "--mic", str(mic_p), "--far", str(far_p),
                 "--max-delay-ms", "400", "--trace", str(trace)])
    assert code == 0
    rows = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(rows) == 100  # 1 s of audio, 10 ms hops
    assert {"frame", "delay_samples", "confidence"} <= set(rows[0])


def test_eval_classical(tmp_path, capsys):
    make_ld_set("m", 2, seed=5, out_dir=tmp_path / "ds", clip_len=2.0)
    rpt = tmp_path / "r.jsonl"
    code = main(["eval", "--system", "global", "--manifest", str(tmp_path / "ds" / "manifest.jsonl"),
                 "--report", str(rpt)])
    assert code == 0
    assert "ERLE" in capsys.readouterr().out
    assert rpt.exists()


def test_train_online_smoke(tmp_path, capsys):
    out = tmp_path / "m.acrs"
    code = main(["--seed", "3", "train", "--online", "--preset", "tiny",
                 "--epochs", "1", "--n-clips", "2", "--batch", "2",
                 "--clip-len", "0.6", "--delay-lo", "0.0", "--delay-hi", "0.05",
                 "--out", str(out), "--workdir", str(tmp_path / "work")])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "work" / "metrics.jsonl").exists()


def test_usage_errors_exit_1(capsys):
    assert main(["train", "--out", "x.acrs"]) == 1  # neither --data nor --online
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["code"] == 1
    assert main(["nonsense"]) == 1


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["inspect", "--model", str(tmp_path / "missing.acrs")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["code"] == 2


def test_config_file_defaults(tmp_path, wav_pair, capsys):
    mic_p, far_p = wav_pair
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode=global\nmic={mic_p}\nfar={far_p}\nmax-delay-ms=500\n")
    code = main(["--config", str(cfg), "align"])
    assert code == 0
    assert "delay_samples=2000" in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus-flag=1\n")
    assert main(["--config", str(cfg), "inspect", "--model", "x"]) == 1
