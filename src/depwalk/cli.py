"""Command line interface: single-stage subcommands plus a pipeline runner.

Exit codes: 0 success, 1 stage failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import pipeline
from .config import load_config
from .errors import ConfigError, DepwalkError, StageError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depwalk",
        description="Device dependency discovery from unidirectional IP flows.")
    parser.add_argument("-c", "--config", default=None, help="YAML config file")
    parser.add_argument("-w", "--workdir", default=None, help="artifact directory (overrides config)")
    parser.add_argument("-s", "--seed", type=int, default=None,
                        help="master seed; every stage derives its randomness from it")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in pipeline.STAGES:
        p_stage = sub.add_parser(stage.name, help=stage.help)
        for name, options in stage.options:
            p_stage.add_argument(f"--{name}", **options)

    p_pipe = sub.add_parser("pipeline", help="run all stages in order")
    source = p_pipe.add_mutually_exclusive_group(required=True)
    source.add_argument("--flows", default=None, help="input flow file")
    source.add_argument("--synth", action="store_true",
                        help="generate the synthetic scenario as pipeline input")
    p_pipe.add_argument("--resume", action="store_true",
                        help="skip stages whose outputs all exist already")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config, master_seed=args.seed, workdir=args.workdir)
    except FileNotFoundError as exc:
        print(f"depwalk: config file not found: {exc.filename}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"depwalk: invalid configuration:\n{exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "pipeline":
            pipeline.run_pipeline(cfg, flows_input=args.flows, resume=args.resume)
        else:
            pipeline.run_stage(cfg, pipeline.STAGE[args.command], **vars(args))
    except FileNotFoundError as exc:
        print(f"depwalk: {exc.strerror or 'file not found'}: {exc.filename}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"depwalk: {exc.stage} failed: {exc}", file=sys.stderr)
        return 1
    except (DepwalkError, ValueError, OSError) as exc:
        print(f"depwalk: {args.command} failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
