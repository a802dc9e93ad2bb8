#!/usr/bin/env python3
"""Write a small synthetic scene in the package's on-disk formats so the CLI
can be exercised without real data:

    python3 scripts/make_demo_data.py demo/
    spdlrr classify --cube demo/cube.json --labels demo/truth.txt \
        --out-dir demo/out --seed 7 --lambda 0.1667 --superpixels 4 \
        --delta 0.7 --m-split 2 --percent 0.10
"""

import argparse
import os

from spdlrr import io as spio
from spdlrr.synthetic import two_class_cube


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--height", type=int, default=12)
    parser.add_argument("--width", type=int, default=12)
    parser.add_argument("--bands", type=int, default=6)
    parser.add_argument("--classes", type=int, default=2, help="vertical class stripes")
    args = parser.parse_args()

    try:
        cube, labels = two_class_cube(
            height=args.height, width=args.width, bands=args.bands, seed=args.seed,
            classes=args.classes,
        )
    except ValueError as exc:
        parser.error(str(exc))
    os.makedirs(args.out_dir, exist_ok=True)
    spio.write_cube(cube, os.path.join(args.out_dir, "cube.json"))
    spio.write_raster(labels.labels, os.path.join(args.out_dir, "truth.txt"))
    print(f"wrote {args.out_dir}/cube.json (+cube.raw) and {args.out_dir}/truth.txt")


if __name__ == "__main__":
    main()
