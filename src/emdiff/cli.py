"""Command-line entry points: pretrain, align, ablate, eval, oracle."""

import argparse
import json
import sys

from . import runner
from .errors import ConfigError, OracleUnavailableError


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="emdiff",
        description="Reward alignment of desk-scale diffusion models by "
                    "posterior search and distillation.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_align = sub.add_parser("align", help="run the full alternating loop")
    p_align.add_argument("--config", required=True)
    p_align.add_argument("--out", required=True)
    p_align.add_argument("--seed", type=int)
    p_align.add_argument("--resume", help="checkpoint to continue from")

    p_ablate = sub.add_parser("ablate", help="run an exploration ablation")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--out", required=True)
    p_ablate.add_argument("--variant", required=True,
                          choices=["search_and_distill", "reweight"])
    p_ablate.add_argument("--seed", type=int)

    p_pre = sub.add_parser("pretrain",
                           help="pretrain the denoiser and checkpoint it")
    p_pre.add_argument("--config", required=True)
    p_pre.add_argument("--out", required=True)
    p_pre.add_argument("--seed", type=int)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--samples", type=int, default=256)
    p_eval.add_argument("--posterior", action="store_true",
                        help="also draw posterior-search samples")
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out")

    p_oracle = sub.add_parser("oracle",
                              help="run the exact-oracle verification suite")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--out", required=True)
    p_oracle.add_argument("--seed", type=int)

    args = parser.parse_args(argv)
    try:
        if args.cmd == "align":
            cfg = _apply_overrides(_load(args.config), args)
            out = runner.run_align(cfg, args.out, resume=args.resume)
            print(f"run complete: {out['out_dir']}")
        elif args.cmd == "ablate":
            cfg = _apply_overrides(_load(args.config), args)
            out = runner.run_align(cfg, args.out, variant=args.variant)
            print(f"ablation {args.variant} complete: {out['out_dir']}")
        elif args.cmd == "pretrain":
            cfg = _apply_overrides(_load(args.config), args)
            cfg["epochs"] = 0
            out = runner.run_align(cfg, args.out)
            print(f"pretrained checkpoint: {out['checkpoint']}")
        elif args.cmd == "eval":
            result = runner.run_eval(args.checkpoint, args.samples,
                                     posterior=args.posterior,
                                     seed=args.seed, out_dir=args.out)
            print(json.dumps(result, sort_keys=True, indent=2))
        elif args.cmd == "oracle":
            cfg = _apply_overrides(_load(args.config), args)
            result = runner.run_oracle(cfg, args.out)
            print(result["report"], end="")
            if not result["ok"]:
                return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OracleUnavailableError as err:
        print(f"oracle unavailable: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
