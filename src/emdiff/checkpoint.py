"""Self-describing checkpoints: JSON container with little-endian float64
parameter payloads, exact to the bit on round trip."""

import base64
import hashlib
import json
import os

import numpy as np

from .errors import ConfigError

FORMAT_VERSION = 1


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _pack(arr):
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack(obj):
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def write_atomic(path, text):
    """Replace the file at `path` by `text`: a write that fails midway
    leaves the previous file as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path, *, cfg, variant, epoch, seed, policy_version,
                    params, pretrained_params, opt_state):
    payload = {
        "format_version": FORMAT_VERSION,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "variant": variant,
        "epoch": int(epoch),
        "seed": int(seed),
        "policy_version": int(policy_version),
        "params": [_pack(p) for p in params],
        "pretrained_params": [_pack(p) for p in pretrained_params],
        "opt": {
            "t": int(opt_state["t"]),
            "m": [_pack(a) for a in opt_state["m"]],
            "v": [_pack(a) for a in opt_state["v"]],
        },
    }
    write_atomic(path, json.dumps(payload))


def load_checkpoint(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != FORMAT_VERSION:
        raise ConfigError(
            f"checkpoint format {payload.get('format_version')!r} does not "
            f"match supported version {FORMAT_VERSION}")
    payload["params"] = [_unpack(p) for p in payload["params"]]
    payload["pretrained_params"] = [_unpack(p)
                                    for p in payload["pretrained_params"]]
    payload["opt"] = {
        "t": payload["opt"]["t"],
        "m": [_unpack(a) for a in payload["opt"]["m"]],
        "v": [_unpack(a) for a in payload["opt"]["v"]],
    }
    return payload


def restore_arrays(dst_list, src_list):
    if len(dst_list) != len(src_list):
        raise ConfigError("checkpoint parameter count mismatch")
    for dst, src in zip(dst_list, src_list):
        if dst.shape != src.shape:
            raise ConfigError("checkpoint parameter shape mismatch")
        dst[...] = src
