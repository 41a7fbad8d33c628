"""Output checks applied to every command the benchmark runs. A command that
fails one counts as failed.

The checks are about what a correct run must produce, not about exact
values: no digest of ``metrics.csv`` is pinned, because the random-stream
layout may change on purpose. Byte identity is checked between two runs of
the same command instead.
"""

import csv
import io
import math
import os


class CheckFailed(Exception):
    """A command returned, but its output is wrong."""


def check_metrics_csv(text, epochs, elbo_kind):
    """``metrics.csv`` of an align run of ``epochs`` epochs: one row per
    epoch 0..epochs in order, finite reward columns, the ELBO estimator the
    world implies on every searched epoch, and a final mean reward not below
    the epoch-0 one."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != epochs + 1:
        raise CheckFailed(f"metrics.csv has {len(rows)} rows, want {epochs + 1}")
    for want, row in enumerate(rows):
        if row.get("epoch") != str(want):
            raise CheckFailed(f"row {want} has epoch {row.get('epoch')!r}")
        for col in ("mean_reward", "reward_std"):
            try:
                val = float(row[col])
            except (KeyError, TypeError, ValueError):
                raise CheckFailed(f"epoch {want}: bad {col} {row.get(col)!r}")
            if not math.isfinite(val):
                raise CheckFailed(f"epoch {want}: {col} is {val}")
        kind = row.get("elbo_kind")
        # epoch 0 has no search batch, so a sampled estimator has nothing
        # to score yet
        if kind != elbo_kind and not (want == 0 and kind == "none"):
            raise CheckFailed(f"epoch {want}: elbo_kind {kind!r}, "
                              f"want {elbo_kind!r}")
    first, last = float(rows[0]["mean_reward"]), float(rows[-1]["mean_reward"])
    if last < first:
        raise CheckFailed(f"final mean reward {last} below epoch-0 {first}")


def check_align_dir(out_dir, epochs, elbo_kind):
    """Checks an align run directory; returns the bytes of its metrics.csv."""
    if os.path.exists(os.path.join(out_dir, "abort.txt")):
        raise CheckFailed("run wrote abort.txt")
    with open(os.path.join(out_dir, "metrics.csv"), "rb") as fh:
        raw = fh.read()
    check_metrics_csv(raw.decode(), epochs, elbo_kind)
    return raw


def check_oracle_dir(out_dir):
    """Checks an oracle run directory; returns the bytes of its report."""
    with open(os.path.join(out_dir, "oracle_report.txt"), "rb") as fh:
        raw = fh.read()
    lines = raw.decode().strip().splitlines()
    if not lines or lines[-1] != "PASS overall":
        raise CheckFailed("oracle report does not end with 'PASS overall': "
                          + "; ".join(l for l in lines if l.startswith("FAIL")))
    return raw
