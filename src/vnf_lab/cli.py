"""Command-line front end: train, eval, compare, validate-config, export-defaults."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from .harness import ConfigError


def _add_common(p):
    p.add_argument("--config", required=True,
                   help="path to a JSON experiment document")
    p.add_argument("--seed", type=int, default=None,
                   help="seed override (falls back to config, then $"
                        + harness.SEED_ENV_VAR + ")")
    p.add_argument("--agent", default=None,
                   help="agent kind override: " + "/".join(sorted(harness.AGENT_KINDS)))
    p.add_argument("--epochs", type=int, default=None, help="epoch count override")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnf-lab",
        description="Edge VNF orchestration experiments: simulator, learner, baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train (or just run) one agent and record metrics")
    _add_common(p)
    p = sub.add_parser("eval", help="evaluate one agent without exploration")
    _add_common(p)
    p.add_argument("--checkpoint", default=None,
                   help="trained learner checkpoint (overrides run.checkpoint_path)")
    p = sub.add_parser("compare", help="run several agents on one traffic trace")
    _add_common(p)
    p.add_argument("--agents", default="pat,greedy,cloud",
                   help="comma-separated agent kinds")
    p = sub.add_parser("validate-config", help="check a config document and exit")
    p.add_argument("--config", required=True)
    p = sub.add_parser("export-defaults", help="print the default experiment document")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    return parser


def _load(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config)
    if getattr(args, "agent", None):
        cfg = harness.with_agent(cfg, args.agent)
    if getattr(args, "epochs", None) is not None:
        if args.epochs < 1:
            raise ConfigError("--epochs must be >= 1")
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(
            cfg.run, total_epochs=args.epochs))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cfg = _load(args)
            out = args.out or "runs/train"
            result = harness.run_experiment(cfg, out_dir=out, seed=args.seed,
                                            quiet=args.quiet)
            if not args.quiet:
                print(f"metrics: {result.metrics_path}")
                for key, val in sorted(result.eval_kpis.items()):
                    print(f"eval {key}: {val:.6g}")
            return 0

        if args.command == "eval":
            cfg = _load(args)
            seed = harness.resolve_seed(cfg, args.seed)
            kind = cfg.agent["kind"]
            if kind not in harness.LEARNERS:
                agent = harness.build_agent(cfg, harness.build_env(cfg, seed, stream=1), seed)
            else:
                ckpt = args.checkpoint or cfg.run.checkpoint_path
                if not ckpt:
                    raise ConfigError(f"eval: agent {kind!r} needs a trained checkpoint: "
                                      "pass --checkpoint or set run.checkpoint_path")
                agent = harness.LEARNERS[kind].load(ckpt, seed=seed)
            epochs = args.epochs or cfg.run.eval_epochs or 100
            with harness.metrics_file(args.out or None, "eval_metrics.csv") as sink:
                rows = harness.evaluate_agent(cfg, agent, seed, epochs, sink)
            kpis = harness.compute_kpis(rows)
            if not args.quiet:
                for key, val in sorted(kpis.items()):
                    print(f"{key}: {val:.6g}")
            return 0

        if args.command == "compare":
            cfg = _load(args)
            names = [n.strip() for n in args.agents.split(",") if n.strip()]
            seed = harness.resolve_seed(cfg, args.seed)
            result = harness.compare(cfg, names, seeds=[seed], out_dir=args.out,
                                     quiet=args.quiet)
            for name in names:
                cells = ", ".join(f"{k}={v[0]:.6g}" for k, v in
                                  sorted(result.kpis[name].items()))
                print(f"{name}: {cells}")
            return 0

        if args.command == "validate-config":
            harness.load_config(args.config)
            print("ok")
            return 0

        if args.command == "export-defaults":
            text = harness.export_defaults()
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
