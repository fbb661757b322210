"""Reference sweep of one dataset copy, computed in a fresh interpreter.

    python perfbench/reference.py DATASET_DIR WORKLOAD [WORKLOAD ...]

Prints the element matrix and the named inference workloads across all
technologies as JSON. `perturbed_sweep` compares its operations against this
output exactly.
"""

import json
import sys

from neurobench import load_datasets
from workloads import sweep

if __name__ == "__main__":
    data_dir, *names = sys.argv[1:]
    json.dump(sweep(load_datasets(data_dir), names), sys.stdout)
