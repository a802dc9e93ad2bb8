#!/usr/bin/env python3
"""Write three demo scenes, run a fixed list of CLI calls on each and print
one 'sha256  path' line per file, so that two checkouts can be compared for
byte-identical outputs with a single diff:

    PYTHONPATH=src python3 scripts/golden_outputs.py > after.txt
    PYTHONPATH=../parent/src python3 scripts/golden_outputs.py > before.txt
    diff before.txt after.txt

Every scene comes from make_demo_data.py next to this script: the 12x12x6
demo at the top of the work directory, a 48x48x32 scene in its 48x48x32/
subdirectory, which is large enough for three classifier chunks and
superpixel blocks of over a hundred pixels, and a 128x160x16 scene in its
128x160x16/ subdirectory.  The 48x48x32 scene's five class stripes make
refinement change the blocks between rounds and the two classifiers
disagree on some pixels; one classify call there runs beta = 0 and one
the indian_pines preset.  The 128x160x16 scene has 20,480 pixels, more
than one 16,384-pixel column chunk, so its segment call runs the pooled
passes of the base image over two chunks.  BLAS is pinned to one thread;
float outputs can still differ across BLAS builds, so compare runs made on
one machine.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile

from spdlrr.cli import cli_main

SCENE_FLAGS = ["--lambda", "0.1667", "--superpixels", "4", "--delta", "0.7",
               "--m-split", "2", "--percent", "0.10"]


def classify(out_dir, *flags):
    return ["classify", "--cube", "cube.json", "--labels", "truth.txt", "--out-dir",
            out_dir, "--seed", "7", *flags, *SCENE_FLAGS]


# (subdirectory of the work directory, make_demo_data.py flags, CLI calls)
SCENES = [
    (".", [], [
        ["segment", "--cube", "cube.json", "--out", "partition.txt", "--superpixels", "4"],
        ["segment", "--cube", "cube.json", "--out", "partition-16.txt", "--superpixels", "16"],
        ["decompose", "--cube", "cube.json", "--partition", "partition.txt",
         "--out-dir", "decompose", "--lambda", "0.1667"],
        classify("classify-centroid"),
        classify("classify-knn", "--classifier", "knn"),
        ["metrics", "classify-knn/predictions.txt", "truth.txt", "--out", "metrics-knn.json"],
    ]),
    ("48x48x32", ["--height", "48", "--width", "48", "--bands", "32", "--classes", "5"], [
        ["segment", "--cube", "cube.json", "--out", "partition-16.txt", "--superpixels", "16"],
        ["decompose", "--cube", "cube.json", "--partition", "partition-16.txt",
         "--out-dir", "decompose", "--lambda", "0.1667"],
        classify("classify-centroid"),
        classify("classify-knn", "--classifier", "knn"),
        # beta = 0: per-block robust PCA, which no preset runs.
        classify("classify-beta0", "--beta", "0"),
        # The indian_pines preset alone, its beta and mu schedule included:
        # 64 superpixels of about 36 px, above its lambda floor of 12.5 px
        # at 32 bands.
        ["classify", "--config", "indian_pines", "--cube", "cube.json", "--labels", "truth.txt",
         "--out-dir", "classify-preset", "--seed", "7"],
    ]),
    ("128x160x16", ["--height", "128", "--width", "160", "--bands", "16", "--classes", "5"], [
        ["segment", "--cube", "cube.json", "--out", "partition-16.txt", "--superpixels", "16"],
        ["decompose", "--cube", "cube.json", "--partition", "partition-16.txt",
         "--out-dir", "decompose", "--lambda", "0.1667"],
    ]),
]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("work_dir", nargs="?", help="keep the files here (default: a temp dir)")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        work = os.path.abspath(args.work_dir or stack.enter_context(tempfile.TemporaryDirectory()))
        demo = os.path.join(os.path.dirname(os.path.abspath(__file__)), "make_demo_data.py")
        # Every scene is written before the first chdir, which a relative
        # PYTHONPATH would not survive.
        for subdir, flags, _ in SCENES:
            scene = os.path.join(work, subdir)
            subprocess.run([sys.executable, demo, scene, *flags], check=True, stdout=subprocess.DEVNULL)
        for subdir, _, calls in SCENES:
            os.chdir(os.path.join(work, subdir))
            for call in calls:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(call)
                if code != 0:
                    sys.exit(f"spdlrr {' '.join(call)} in {subdir} exited {code}")
        os.chdir(work)
        paths = sorted(
            os.path.relpath(os.path.join(root, name))
            for root, _, names in os.walk(".")
            for name in names
        )
        for path in paths:
            print(f"{sha256(path)}  {path}")


if __name__ == "__main__":
    main()
