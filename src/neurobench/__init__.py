"""Analytic area/delay/energy benchmarking of neural-inference hardware.

Bottoms-up: devices -> circuits -> synapse/neuron elements -> network types
-> interconnect -> chips -> workloads. Tops-down: published chip specs
decomposed to per-element figures and run through the same workload model.

The public names below are imported on first access (PEP 562), so
`import neurobench` loads no layer and `load_datasets` loads only the
dataset layer.
"""

# public name -> defining module
_EXPORTS = {
    "AdeTriple": "ade",
    "ChipBench": "chip",
    "ChipConfig": "chip",
    "chip_bench": "chip",
    "nominal_config": "chip",
    "ElementBench": "interconnect",
    "ChipRecord": "registry",
    "DatasetError": "registry",
    "DeviceRecord": "registry",
    "GlobalConstants": "registry",
    "LayerSpec": "registry",
    "Registry": "registry",
    "Technology": "registry",
    "ValidationError": "registry",
    "WorkloadSpec": "registry",
    "load_datasets": "registry",
    "bench_technology": "report",
    "bench_workload": "report",
    "element_matrix": "report",
    "emit_matrix": "report",
    "pareto_front": "report",
    "TopsDownElement": "topsdown",
    "backfill_derived": "topsdown",
    "run_workload_on_chip": "topsdown",
    "topsdown_element": "topsdown",
    "WorkloadBench": "workload",
    "run_workload": "workload",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    # `from .<module> import <name>`, spelled so that -X importtime reports it
    # (importlib.import_module bypasses that hook). The value is not cached
    # here, so the defining module keeps the one binding of each name.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(module, globals(), None, (name,), 1), name)


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
