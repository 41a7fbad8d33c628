"""Workload definitions: each one turns a benchmark seed into a fixed list of
commands (a config dict plus how to call the runner on it).

The configs are written out here rather than read from ``configs/`` so that
a later change to the shipped example configs does not silently change what
the benchmark measures. ``MIXTURE2D`` and ``TINY`` are copies of
``configs/mixture2d.json`` and ``configs/tiny_discrete.json`` as shipped when
the benchmark was defined.
"""

import copy
import random
from dataclasses import dataclass

MIXTURE2D = {
    "world": {
        "kind": "continuous",
        "mixture": {
            "weights": [0.25, 0.25, 0.25, 0.25],
            "means": [[4, 4], [-4, 4], [-4, -4], [4, -4]],
            "stds": [0.7, 0.7, 0.7, 0.7],
        },
        "schedule": {"steps": 50, "beta_min": 0.02, "beta_max": 0.32},
        "residual_widths": [16, 16],
    },
    "reward": {
        "name": "mode_preference",
        "amps": [1.0, 1.0, 1.0, 0.2],
        "centers": [[4, 4], [-4, 4], [-4, -4], [4, -4]],
        "tau": 1.4,
    },
    "estep": {"alpha": 0.2, "gamma": 0.9, "particles": 8, "guidance": "on"},
    "mstep": {"lr": 0.005, "steps": 2},
    "epochs": 50,
    "batch": 96,
    "seed": 0,
    "eval": {"samples": 400},
    "checkpoint_every": 10,
}

TINY = {
    "world": {
        "kind": "discrete",
        "length": 2,
        "vocab": 2,
        "alphabet": "AB",
        "schedule": {"steps": 3},
        "denoiser": "tabular",
        "pretrain": {
            "sequences": ["AA", "BB", "AB", "BA"],
            "probs": [0.4, 0.4, 0.1, 0.1],
            "epochs": 400,
            "lr": 0.05,
        },
    },
    "reward": {"name": "motif_count", "motif": "AB"},
    "estep": {"alpha": 0.5, "gamma": 1.0, "particles": 10, "guidance": "on"},
    "mstep": {"lr": 0.05, "steps": 2},
    "epochs": 50,
    "batch": 24,
    "seed": 0,
    "eval": {"samples": 256},
    "checkpoint_every": 10,
}

TINY_VARIANTS = ("dav", "search_and_distill", "reweight")


@dataclass(frozen=True)
class Command:
    """One call into the runner: ``run_align`` (with a variant) or
    ``run_oracle``."""

    kind: str           # "align" or "oracle"
    cfg: dict
    variant: str = "dav"
    elbo_kind: str = "surrogate-is"     # the estimator the world implies

    @property
    def label(self):
        name = f"seed={self.cfg['seed']}"
        return f"{self.kind}:{self.variant}:{name}" if self.kind == "align" \
            else f"oracle:{name}"


def _pretrain_corpus(rnd, alphabet, length, n, motif):
    """Sequences with a planted motif at a random offset in a share of them,
    so that the pretrained model gives the motif some but not much mass."""
    seqs = []
    for i in range(n):
        row = [rnd.choice(alphabet) for _ in range(length)]
        if i % 4 == 0:
            at = rnd.randrange(length - len(motif) + 1)
            row[at:at + len(motif)] = motif
        seqs.append("".join(row))
    return seqs


def _discrete_mlp_cfg(rnd, seed):
    return {
        "world": {
            "kind": "discrete", "length": 8, "vocab": 4, "alphabet": "ABCD",
            "schedule": {"steps": 8},
            "denoiser": {"kind": "mlp", "widths": [64]},
            "pretrain": {
                "sequences": _pretrain_corpus(rnd, "ABCD", 8, 64, "ABC"),
                "epochs": 150, "lr": 0.02, "batch_size": 64,
            },
        },
        "reward": {"name": "motif_count", "motif": "ABC"},
        # a mild tilt and a small step: eval rows start ~98% distinct and
        # stay ~75% distinct on average, while the mean reward rises by at
        # least 0.4 on every instance tried (alpha 0.5 / lr 0.01 collapses
        # the rows to ~2% distinct; alpha 2 / lr 0.002 sometimes learns
        # nothing)
        "estep": {"alpha": 1.0, "gamma": 1.0, "particles": 10,
                  "guidance": "on"},
        "mstep": {"lr": 0.003, "steps": 2},
        "epochs": 30,
        "batch": 32,
        "seed": seed,
        "eval": {"samples": 256},
        "checkpoint_every": 10,
    }


def _oracle_cfg(rnd, seed):
    # S = (K+1)^L = 4^4 = 256 states, T = L so every position can unmask;
    # gamma != 1 makes run_suite build all four table sets. The suite's TV
    # checks draw 4000 samples from the last step out of the fully masked
    # state, whose successors are all 81 terminals; over that many
    # near-uniform outcomes sampling noise alone reaches their 0.05
    # threshold. So the pretraining set is one base sequence without the
    # motif plus three variants of it, two of which carry the motif: every
    # position has one dominant token, and the reward tilt moves mass.
    motif = rnd.choice(["ABC", "BCA", "CAB"])
    base = motif
    while motif in base:
        base = "".join(rnd.choice("ABC") for _ in range(4))
    seqs = [base]
    while len(seqs) < 4:
        if len(seqs) < 3:
            at = rnd.randrange(2)
            row = base[:at] + motif + base[at + 3:]
        else:
            at = rnd.randrange(4)
            row = base[:at] + rnd.choice("ABC") + base[at + 1:]
        if row not in seqs and (len(seqs) < 3) == (motif in row):
            seqs.append(row)
    probs = [round(rnd.uniform(1.0, 2.0), 3)] + [
        round(rnd.uniform(0.3, 0.6), 3) for _ in seqs[1:]]
    return {
        "world": {
            "kind": "discrete", "length": 4, "vocab": 3, "alphabet": "ABC",
            "schedule": {"steps": 4}, "denoiser": "tabular",
            "pretrain": {"sequences": seqs, "probs": probs,
                         "epochs": 300, "lr": 0.05},
        },
        "reward": {"name": "motif_count", "motif": motif},
        "estep": {"alpha": 0.5, "gamma": 0.9, "particles": 10,
                  "guidance": "on"},
        "seed": seed,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: int          # commands per balanced group; runs stop on a boundary
    # commands a run makes even when --seconds is up sooner, so that how
    # many a run holds does not follow the machine's speed. Epochs differ in
    # cost by kind and by stage (an oracle suite's table builds and TV checks
    # at 1 to 64 particles; early and late align epochs), so the epoch
    # percentiles move with that number: on align-discrete-mlp the tail of
    # runs of three commands read about 15-20% above that of runs of four. On
    # a 2-core x86-64 VM three commands plus the repeat of the first take
    # longer than 15 s on both workloads that set it
    min_commands: int = 1

    def command(self, seed, i):
        """Command ``i`` of the run with benchmark seed ``seed``. Pure: the
        same (seed, i) always gives the same command."""
        rnd = random.Random(f"{self.name}/{seed}/{i // self.cycle}")
        run_seed = rnd.randrange(1_000_000)
        if self.name == "align-mixture2d":
            cfg = copy.deepcopy(MIXTURE2D)
            cfg["seed"] = run_seed
            return Command("align", cfg)
        if self.name == "align-tiny":
            cfg = copy.deepcopy(TINY)
            cfg["seed"] = run_seed
            return Command("align", cfg, TINY_VARIANTS[i % self.cycle],
                           "exact-tabular")
        if self.name == "align-discrete-mlp":
            return Command("align", _discrete_mlp_cfg(rnd, run_seed))
        if self.name == "oracle-enum256":
            return Command("oracle", _oracle_cfg(rnd, run_seed))
        raise KeyError(self.name)


WORKLOADS = {w.name: w for w in [
    Workload("align-mixture2d",
             "continuous search and residual-MLP distill; never builds exact "
             "tables", 1),
    Workload("align-tiny",
             "exact-table eval dominates; variants dav, search_and_distill "
             "and reweight (no search) in turn", 3),
    Workload("align-discrete-mlp",
             "L=8 K=4 masked world past ENUM_CAP: MLP denoiser, sampled "
             "pretraining, surrogate ELBO; eval rows stay mostly distinct", 1,
             min_commands=3),
    Workload("oracle-enum256",
             "oracle suite at S=256: four table builds, path enumeration and "
             "one wide search step of 4000 rows", 1, min_commands=3),
]}

# end-to-end metrics of an untraced run, in report order
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("epoch_ms.p50", "ms"),
              ("epoch_ms.tail", "ms"), ("peak_rss_mb", "MB"))
