"""Option ratchet: the public builders' settable options may only shrink.

Every independently settable option doubles the configurations the tests and
benchmarks have to cover.  The budget below is the count at the last PR that
touched it; lower it when you delete an option, and do not raise it.
"""

import dataclasses
import inspect

from repro.cluster.fleet import Fleet
from repro.cluster.sharded import ShardedRunConfig
from repro.core.builder import build_fleet, build_frontdoor
from repro.sim.kernel import Simulator

OPTION_BUDGET = 53


def optional_parameters(callable_):
    return [
        name
        for name, parameter in inspect.signature(callable_).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    ]


def test_option_count_does_not_grow():
    options = {
        "Simulator": optional_parameters(Simulator.__init__),
        "Fleet": optional_parameters(Fleet.__init__),
        "build_fleet": optional_parameters(build_fleet),
        "build_frontdoor": optional_parameters(build_frontdoor),
        "ShardedRunConfig": [field.name for field in dataclasses.fields(ShardedRunConfig)],
    }
    total = sum(len(names) for names in options.values())
    assert total <= OPTION_BUDGET, (
        f"{total} settable options, budget is {OPTION_BUDGET}: {options}. "
        'ROADMAP: "A PR that adds a flag, mode or subsystem must say what it '
        'deletes" — remove an option in the same PR instead of raising the budget.'
    )
