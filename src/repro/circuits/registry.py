"""Benchmark registry: look up any benchmark by name.

Examples, experiments and benchmark harnesses go through
:func:`get_benchmark` so that a benchmark name written in a table maps to
exactly one netlist everywhere in the code base.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.circuits.iscas85 import ISCAS85_PROFILES, c17_netlist, iscas85_netlist
from repro.circuits.superblue import DEFAULT_SCALE, SUPERBLUE_PROFILES, superblue_netlist
from repro.netlist.cells import CellLibrary
from repro.netlist.netlist import Netlist

#: Version of what :func:`get_benchmark` returns: bump it with any change
#: that makes some name, seed and scale give another netlist.  A store
#: entry holds the netlist it was built on and records this version; an
#: entry of another version is a plain miss.
#: ``tests/golden/netlist_fingerprints.json`` pins the generated netlists,
#: so a change that keeps the version fails the tests.
GENERATOR_VERSION = 1


def available_benchmarks() -> List[str]:
    """Return every benchmark name :func:`get_benchmark` accepts."""
    return ["c17"] + sorted(ISCAS85_PROFILES) + sorted(SUPERBLUE_PROFILES)


def get_benchmark(name: str, seed: int = 0, scale: Optional[float] = None,
                  library: Optional[CellLibrary] = None) -> Netlist:
    """Return the benchmark netlist named ``name``.

    Args:
        name: ``"c17"``, an ISCAS-85 name (``"c432"`` …) or a superblue name
            (``"superblue18"`` …).
        seed: Variant seed (0 = canonical instance).
        scale: Down-scaling factor for superblue designs (ignored for ISCAS).
        library: Cell library to map onto.

    Raises:
        KeyError: If ``name`` is unknown.
    """
    if name == "c17":
        return c17_netlist(library)
    if name in ISCAS85_PROFILES:
        return iscas85_netlist(name, seed=seed, library=library)
    if name in SUPERBLUE_PROFILES:
        return superblue_netlist(
            name, scale=scale if scale is not None else DEFAULT_SCALE,
            seed=seed, library=library,
        )
    raise KeyError(
        f"unknown benchmark {name!r}; available: {', '.join(available_benchmarks())}"
    )
