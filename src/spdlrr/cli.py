"""Command-line interface.

Subcommands: decompose (block low-rank decomposition of a cube over a given
superpixel raster), segment (emit a superpixel raster), classify (the full
pipeline), and metrics (score a predictions raster against ground truth).

A --config file supplies defaults for the flags of the same name; flags win.
Exit codes: 0 success, 1 usage error, 2 data/format error or a solve whose
iterates turned NaN or infinite, 3 non-converged solve under --strict.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import io as spio
from .classify import LabelField, evaluate
from .cube import HsiCube
from .errors import FormatError, SpdlrrError
from .pipeline import PipelineConfig, run
from .solver import DlrrParams, solve
from .superpixel import first_appearance_ids, project_base_image, segment

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "configs")

# Config keys that set DlrrParams and PipelineConfig fields, and the keys
# whose field has another name.
_SOLVER_KEYS = ("lambda", "beta", "mu0", "rho", "mu_max", "eps", "max_iter")
_PIPELINE_KEYS = ("t_max", "superpixels", "delta", "m_split", "classifier", "knn_k", "percent")
_FIELD_NAMES = {"lambda": "lam", "superpixels": "initial_superpixels", "percent": "split_percent"}


class UsageError(Exception):
    pass


class NotConvergedStrict(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(prog="spdlrr", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_options(p, keys):
        """--config, then one flag per config key: '--' + key with '_' as
        '-', typed as in the config file."""
        p.add_argument("--config", help="config file path or preset name")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), type=spio.CONFIG_KEYS[key])

    p = sub.add_parser("decompose", help="low-rank + sparse split over given superpixels")
    add_options(p, ["cube", "partition", "out_dir", *_SOLVER_KEYS])
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("segment", help="superpixel segmentation raster")
    add_options(p, ["cube", "superpixels", "seed"])
    p.add_argument("--out")

    p = sub.add_parser("classify", help="full restoration + classification pipeline")
    add_options(p, ["cube", "labels", "out_dir", "seed", *_PIPELINE_KEYS, *_SOLVER_KEYS])
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("metrics", help="score a predictions raster against truth")
    p.add_argument("predictions")
    p.add_argument("truth")
    p.add_argument("--out", help="metrics JSON path (default: print to stdout)")

    return parser


def _resolve_config(name):
    """A config is a filesystem path or the name of a shipped preset
    (with or without the .cfg suffix)."""
    if name is None:
        return {}
    if not os.path.exists(name):
        for candidate in (name, name + ".cfg"):
            preset = os.path.join(_PRESET_DIR, os.path.basename(candidate))
            if os.path.exists(preset):
                name = preset
                break
    return spio.load_config(name)


def _option(args, config, key, required=False):
    """Flag value if given, else config value, else None; `required` turns
    an absent value into a usage error."""
    value = getattr(args, key)
    if value is None:
        value = config.get(key)
    if value is None and required:
        raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return value


def _from_options(cls, keys, args, config, **kwargs):
    """cls built from the options among `keys` that a flag or the config
    supplies; its own defaults fill the rest."""
    for key in keys:
        value = _option(args, config, key)
        if value is not None:
            kwargs[_FIELD_NAMES.get(key, key)] = value
    return cls(**kwargs)


def _cmd_decompose(args):
    config = _resolve_config(args.config)
    cube_path = _option(args, config, "cube", required=True)
    part_path = _option(args, config, "partition", required=True)
    out_dir = _option(args, config, "out_dir", required=True)
    params = _from_options(DlrrParams, _SOLVER_KEYS, args, config)
    cube = spio.load_cube(cube_path)
    partition = spio.load_partition(part_path)
    if partition.labels.shape != (cube.height, cube.width):
        raise FormatError("partition raster does not match the cube dimensions")
    restored, variations, trace, converged = solve(cube.x, partition.labels, params)
    os.makedirs(out_dir, exist_ok=True)
    spio.write_cube(HsiCube(cube.height, cube.width, restored), os.path.join(out_dir, "L.json"))
    spio.write_cube(HsiCube(cube.height, cube.width, variations), os.path.join(out_dir, "E.json"))
    spio.write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
    status = "converged" if converged else "did not converge"
    print(f"decompose: {status} after {trace.iterations} iterations")
    if args.strict and not converged:
        raise NotConvergedStrict()
    return 0


def _cmd_segment(args):
    config = _resolve_config(args.config)
    cube_path = _option(args, config, "cube", required=True)
    out_path = args.out
    if out_path is None:
        raise UsageError("missing required option --out")
    defaults = _from_options(PipelineConfig, ("superpixels", "seed"), args, config)
    cube = spio.load_cube(cube_path)
    base = project_base_image(cube)
    partition = segment(base, defaults.initial_superpixels, defaults.seed)
    spio.write_raster(partition.labels, out_path)
    print(f"segment: {partition.count} superpixels")
    return 0


def _cmd_classify(args):
    config = _resolve_config(args.config)
    if args.seed is None:
        raise UsageError("classify requires an explicit --seed")
    cube_path = _option(args, config, "cube", required=True)
    labels_path = _option(args, config, "labels", required=True)
    out_dir = _option(args, config, "out_dir", required=True)
    dlrr = _from_options(DlrrParams, _SOLVER_KEYS, args, config)
    pipe_config = _from_options(
        PipelineConfig, _PIPELINE_KEYS, args, config, dlrr=dlrr, seed=args.seed
    )
    cube = spio.load_cube(cube_path)
    labels, mapping = spio.load_labels(labels_path)
    spio.check_map_classes(labels.n_classes)  # fail before the run writes anything
    result = run(cube, labels, pipe_config)
    os.makedirs(out_dir, exist_ok=True)
    n_classes = labels.n_classes
    back = np.zeros(n_classes + 1, dtype=np.int64)
    for orig, dense in mapping.items():
        back[dense] = orig
    spio.write_raster(back[result.final_predictions.labels], os.path.join(out_dir, "predictions.txt"))
    spio.render_map(
        result.final_predictions,
        os.path.join(out_dir, "map.pgm"),
        n_classes=n_classes,
        class_ids=back.tolist(),
    )
    spio.write_metrics_json(result.metrics, os.path.join(out_dir, "metrics.json"))
    for t, trace in enumerate(result.traces, 1):
        spio.write_trace_csv(trace, os.path.join(out_dir, f"trace_{t}.csv"))
    m = result.metrics
    print(f"classify: oa={m.oa:.4f} aa={m.aa:.4f} kappa={m.kappa:.4f}")
    if args.strict and not all(result.converged):
        raise NotConvergedStrict()
    return 0


def _cmd_metrics(args):
    pred_grid = spio.load_raster(args.predictions)
    truth_grid = spio.load_raster(args.truth)
    if pred_grid.shape != truth_grid.shape:
        raise FormatError("prediction and truth rasters have different shapes")
    # One consistent dense mapping across both rasters, truth ids first.
    (dense_truth, dense_pred), _ = first_appearance_ids(
        np.stack([truth_grid, pred_grid]), keep_zero=True
    )
    mask = truth_grid > 0
    if (pred_grid[mask] == 0).any():
        raise FormatError("predictions are unlabeled on scored pixels")
    report = evaluate(LabelField(dense_pred), LabelField(dense_truth), mask)
    if args.out:
        spio.write_metrics_json(report, args.out)
    else:
        print(json.dumps(report.to_json_dict(), indent=2))
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "segment": _cmd_segment,
    "classify": _cmd_classify,
    "metrics": _cmd_metrics,
}


def cli_main(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage())
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except NotConvergedStrict:
        print("solver did not converge (--strict)", file=sys.stderr)
        return 3
    except (SpdlrrError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
