"""Command-line interface.

Subcommands: decompose (block low-rank decomposition of a cube over a given
superpixel raster), segment (emit a superpixel raster), classify (the full
pipeline), and metrics (score a predictions raster against ground truth).

A --config file supplies defaults for the flags of the same name; flags win.
Exit codes: 0 success, 1 usage error, 2 data/format error, a solve whose
iterates turned NaN or infinite, or out of memory, 3 non-converged solve
under --strict, 4 a classify run whose L is zero in every block under
--strict.  Blocks of L that are exactly zero print one warning line, which
names the lambda floor or the solve's stop.
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

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(prog="spdlrr", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_options(p, *keys):
        """--config, then one flag per config key, first mention first:
        '--' + key with '_' as '-', typed as in the config file."""
        p.add_argument("--config", help="config file path or preset name")
        for key in dict.fromkeys(keys):
            p.add_argument("--" + key.replace("_", "-"), type=spio.CONFIG_KEYS[key])

    pipeline_keys, solver_keys = (spio.config_fields(c) for c in (PipelineConfig, DlrrParams))
    p = sub.add_parser("decompose", help="low-rank + sparse split over given superpixels")
    add_options(p, "cube", "partition", "out_dir", *solver_keys)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("segment", help="superpixel segmentation raster")
    add_options(p, "cube", "superpixels")
    p.add_argument("--out")

    p = sub.add_parser("classify", help="full restoration + classification pipeline")
    add_options(p, "cube", "labels", "out_dir", "seed", *pipeline_keys, *solver_keys)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("metrics", help="score a predictions raster against truth")
    p.add_argument("predictions")
    p.add_argument("truth")
    p.add_argument("--out", help="metrics JSON path (default: print to stdout)")

    return parser


def _resolve_config(name):
    """A config is a filesystem path or the name of a shipped preset
    (with or without the .cfg suffix); a name with a directory part is
    always a path."""
    if name is None:
        return {}
    if not os.path.exists(name) and os.path.basename(name) == name:
        for candidate in (name, name + ".cfg"):
            preset = os.path.join(_PRESET_DIR, candidate)
            if os.path.exists(preset):
                name = preset
                break
    return spio.load_config(name)


def _options(args):
    """{config key: value} for each key the subcommand has a flag for: the
    flag's value if given, else the --config file's, else None."""
    config = _resolve_config(args.config)
    keys = [key for key in spio.CONFIG_KEYS if hasattr(args, key)]
    return {key: config.get(key) if getattr(args, key) is None else getattr(args, key) for key in keys}


def _required(options, *keys):
    """The values of keys in options; one that is None is a usage error."""
    for key in keys:
        if options[key] is None:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return [options[key] for key in keys]


def _build(cls, options, **kwargs):
    """cls built from those of its config fields that options give a value;
    its own defaults fill the rest."""
    for key, f in spio.config_fields(cls).items():
        if options.get(key) is not None:
            kwargs[f.name] = options[key]
    return cls(**kwargs)


def _check_solve(restored, block_ids, lam, iterations, converged):
    """Warn on stderr when blocks of the restoration are exactly zero;
    returns whether L is zero in every block.  block_ids holds each pixel's
    block, 0..S-1.  A zero block of n pixels in d bands is blamed on the
    lambda floor only when lam^2 * d * n < 1; any other names the solve's
    iteration count and status."""
    ids = block_ids.ravel()
    zero = np.bincount(ids, weights=restored.any(axis=0)) == 0
    if zero.any():
        share = zero[ids].mean()
        over = np.count_nonzero(np.bincount(ids)[zero] * (lam * lam * restored.shape[0]) >= 1)
        status = "converged" if converged else "did not converge"
        cause = (f"{over} of them not under the lambda floor; the solve {status} after {iterations} iterations"
                 if over else "blocks under the lambda floor, see README Limits")
        print(f"warning: L is zero in {zero.sum()} of {zero.size} blocks ({share:.1%} of pixels): {cause}",
              file=sys.stderr)
    return zero.all()


def _cmd_decompose(args):
    options = _options(args)
    cube_path, part_path, out_dir = _required(options, "cube", "partition", "out_dir")
    params = _build(DlrrParams, options)
    cube = spio.load_cube(cube_path)
    partition = spio.load_partition(part_path)
    if partition.labels.shape != (cube.height, cube.width):
        raise FormatError("partition raster %s is %dx%d, cube %s is %dx%d"
                          % (part_path, *partition.labels.shape, cube_path, cube.height, cube.width))
    restored, variations, trace, converged = solve(cube.x, partition.labels, params)
    os.makedirs(out_dir, exist_ok=True)
    spio.write_cube(HsiCube(cube.height, cube.width, restored), os.path.join(out_dir, "L.json"))
    spio.write_cube(HsiCube(cube.height, cube.width, variations), os.path.join(out_dir, "E.json"))
    spio.write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
    status = "converged" if converged else "did not converge"
    print(f"decompose: {status} after {trace.iterations} iterations")
    _check_solve(restored, partition.labels, params.lam, trace.iterations, converged)
    if args.strict and not converged:
        print("solver did not converge (--strict)", file=sys.stderr)
        return 3
    return 0


def _cmd_segment(args):
    options = _options(args)
    cube_path, out_path = _required({**options, "out": args.out}, "cube", "out")
    superpixels = _build(PipelineConfig, options).initial_superpixels
    cube = spio.load_cube(cube_path)
    partition = segment(project_base_image(cube), superpixels)
    spio.write_raster(partition.labels, out_path)
    print(f"segment: {partition.count} superpixels")
    return 0


def _cmd_classify(args):
    options = _options(args)
    cube_path, labels_path, out_dir, _ = _required(options, "cube", "labels", "out_dir", "seed")
    pipe_config = _build(PipelineConfig, options, dlrr=_build(DlrrParams, options))
    cube = spio.load_cube(cube_path)
    labels, mapping = spio.load_labels(labels_path)
    spio.check_map_classes(labels.n_classes)  # fail before the run writes anything
    result = run(cube, labels, pipe_config)
    os.makedirs(out_dir, exist_ok=True)
    back = np.array([0, *mapping])  # original id of each dense id; mapping is in id order
    spio.write_raster(back[result.final_predictions.labels], os.path.join(out_dir, "predictions.txt"))
    spio.render_map(result.final_predictions, os.path.join(out_dir, "map.pgm"),
                    n_classes=labels.n_classes, class_ids=back.tolist())
    spio.write_metrics_json(result.metrics, os.path.join(out_dir, "metrics.json"))
    for t, trace in enumerate(result.traces, 1):
        spio.write_trace_csv(trace, os.path.join(out_dir, f"trace_{t}.csv"))
    m = result.metrics
    print(f"classify: oa={m.oa:.4f} aa={m.aa:.4f} kappa={m.kappa:.4f}")
    all_zero = _check_solve(result.l_final, result.partitions[-1].labels, pipe_config.dlrr.lam,
                            result.traces[-1].iterations, result.converged[-1])
    if args.strict and not all(result.converged):
        print("solver did not converge (--strict)", file=sys.stderr)
        return 3
    if args.strict and all_zero:  # then every pixel got the same class
        print("L is zero in every block (--strict)", file=sys.stderr)
        return 4
    return 0


def _cmd_metrics(args):
    pred_grid = spio.load_raster(args.predictions)
    truth_grid = spio.load_raster(args.truth)
    if pred_grid.shape != truth_grid.shape:
        raise FormatError("prediction raster %s is %dx%d, truth raster %s is %dx%d"
                          % (args.predictions, *pred_grid.shape, args.truth, *truth_grid.shape))
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
    except (SpdlrrError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
