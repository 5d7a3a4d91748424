"""Per-layer spans for the traced benchmark run.

The tracer wraps the public entry points of each flcubes layer module at
run time, inside a worker process, so no file of the package changes.  A
span's self time is its duration minus the time of the spans it encloses;
self times are summed per layer group.  Counters are derived from the
arguments and results seen at the same boundaries and are computed after
the timed region, from references kept during it.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import cached_property, wraps
from time import perf_counter

# Layer group -> (module, attribute path) of each entry point it owns.  An
# attribute missing from the program is skipped, so a later refactor that
# drops a name moves its time into the enclosing span instead of failing.
SPANS = {
    "cli.self_s": [("flcubes.cli", "main.commands.table.callback"),
                   ("flcubes.cli", "main.commands.verify.callback"),
                   ("flcubes.cli", "main.commands.dot.callback"),
                   ("flcubes.cli", "main.commands.gf.callback")],
    "verify.self_s": [("flcubes.verify", "run_verification"),
                      ("flcubes.verify", "VerificationReport.render")],
    "tables.self_s": [("flcubes.tables", name) for name in (
        "phi_diagram", "census_poly", "diagram_poly", "recurrence_poly",
        "closed_poly", "gf_polys", "family_poly")],
    "census.cube_s": [("flcubes.census", name) for name in (
        "_scan", "cube_polynomial", "enumerate_cubes")],
    "census.maxcube_s": [("flcubes.census", "maximal_cube_polynomial")],
    "census.local_s": [("flcubes.census", name) for name in (
        "rank_polynomial", "degree_polynomial", "indegree_polynomial",
        "outdegree_polynomial")],
    "census.generic_s": [("flcubes.census", "generic_cube_count")],
    "lattice.filter_lattice_s": [("flcubes.lattice", "filter_lattice")],
    "lattice.adjacency_s": [("flcubes.lattice", "LatticeDiagram.up_adj"),
                            ("flcubes.lattice", "LatticeDiagram.down_adj")],
    "lattice.masks_s": [("flcubes.lattice", "LatticeDiagram.up_masks"),
                        ("flcubes.lattice", "LatticeDiagram.down_masks")],
    "lattice.structure_s": [("flcubes.lattice", name) for name in (
        "deletion_cutting", "convex_expansion", "is_cutting",
        "interval_diagram", "iso_check", "underlying_graph")],
    "poset.filters_s": [("flcubes.poset", "Poset.filters"),
                        ("flcubes.poset", "Poset.count_filters")],
    "poset.parse_s": [("flcubes.poset", "poset_from_text")],
    "poset.build_s": [("flcubes.poset", name) for name in (
        "sfence", "fence", "Poset.remove", "Poset.star_remove", "Poset.dual")],
    "formulas.recurrence_s": [("flcubes.formulas", name) for name in (
        "rank_poly_rec", "cube_poly_rec", "maxcube_poly_rec",
        "degree_poly_rec", "indegree_poly_rec")],
    "formulas.closed_s": [("flcubes.formulas", name) for name in (
        "r_coeff", "q_coeff", "h_coeff", "d_coeff", "dm_coeff")],
    "formulas.coeff_rec_s": [("flcubes.formulas", "coeff_by_recurrence")],
    "genfun.expand_s": [("flcubes.genfun", name) for name in (
        "RationalSeries.fraction_coeffs", "RationalSeries.expand", "rank_gf",
        "rank_even_gf", "rank_odd_gf", "cube_gf", "maxcube_gf", "degree_gf",
        "indegree_gf")],
    "genfun.exactness_s": [("flcubes.genfun", "RationalSeries.exactness_failure")],
}

# Counted entry points whose results are emitted polynomials (or lists of
# them); family_poly is left out because it delegates to these.
_EMITTERS = {"census_poly", "diagram_poly", "recurrence_poly", "closed_poly",
             "gf_polys", "coeff_by_recurrence"}
_CUBE_CENSUS = {"cube_polynomial", "maximal_cube_polynomial", "enumerate_cubes"}


class Tracer:
    """Span recorder for one worker process; install once, before the op."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._census_keys: list[tuple] = []
        self._cube_diagrams: dict[int, object] = {}
        self._cube_polys: dict[int, object] = {}
        self._census_diagrams: list = []  # keeps each id() in a census key unique
        self._lattices: list = []
        self._emitted: list = []
        self._reports: list = []

    # -- wrapping ---------------------------------------------------------------

    def _span(self, group: str, name: str, fn):
        open_spans, self_s, calls = self._open, self.self_s, self.calls
        after = self._after

        @wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[group] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            calls[name] += 1
            after(name, args, result)
            return result

        return traced

    def _after(self, name: str, args, result) -> None:
        if name in _EMITTERS:
            self._emitted.append(result)
        if name == "census_poly":
            self._census_keys.append(("sfence",) + args)
        elif name == "diagram_poly":
            self._census_keys.append((args[0], id(args[1])))
            self._census_diagrams.append(args[1])
        elif name in _CUBE_CENSUS:
            self._cube_diagrams[id(args[0])] = args[0]
            if name == "cube_polynomial":
                self._cube_polys[id(args[0])] = result
        elif name == "filter_lattice":
            self._lattices.append(result)
        elif name == "run_verification":
            self._reports.append(result)

    def install(self) -> None:
        """Replace every entry point in SPANS by its traced wrapper.

        Module-level functions are also rebound wherever another flcubes
        module imported them by name or stored them in a module-level dict.
        """
        replaced: dict[int, object] = {}
        for group, targets in SPANS.items():
            for module_name, path in targets:
                owner, attr = _resolve(module_name, path)
                if owner is not None:
                    self._wrap_attribute(owner, attr, group, replaced)
        for module_name, module in list(sys.modules.items()):
            if module_name != "flcubes" and not module_name.startswith("flcubes."):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, key, replaced[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replaced:
                            value[k] = replaced[id(v)]

    def _wrap_attribute(self, owner, attr: str, group: str, replaced: dict) -> None:
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        if isinstance(raw, cached_property):
            prop = cached_property(self._span(group, attr, raw.func))
            prop.__set_name__(owner, attr)
            setattr(owner, attr, prop)
            return
        wrapper = self._span(group, attr, raw)
        setattr(owner, attr, wrapper)
        replaced[id(raw)] = wrapper

    # -- counters -----------------------------------------------------------------

    def counts(self) -> dict[str, float]:
        """Per-op counters, computed outside the timed region."""
        calls = len(self._census_keys)
        distinct = len(set(self._census_keys))
        joins = bits = 0
        for diagram in self._cube_diagrams.values():
            joins += sum(1 << len(ups) for ups in diagram.up_adj)
            bits += len(diagram) ** 2
        coeffs = max_bits = 0
        for result in self._emitted:
            for value in _coefficients(result):
                coeffs += 1
                max_bits = max(max_bits, abs(value).bit_length())
        return {
            "census.calls": calls,
            "census.distinct": distinct,
            "census.reuse": distinct / calls if calls else 0.0,
            "census.joins": joins,
            "census.cubes": sum(sum(p.coeffs) for p in self._cube_polys.values()),
            "census.scan_bits": bits,
            "lattice.arcs": sum(len(d.arcs) for d in self._lattices),
            "poset.enum_calls": self.calls["filters"] + self.calls["count_filters"],
            "polynomials.coeffs_out": coeffs,
            "polynomials.max_bits": max_bits,
            "verify.checks": sum(len(r.records) for r in self._reports),
            "verify.errata": sum(r.errata for r in self._reports),
        }


def _resolve(module_name: str, path: str):
    """The object holding the last attribute of a dotted path, and that name."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        if owner is None:
            break
        owner = owner.get(part) if isinstance(owner, dict) else getattr(owner, part, None)
    return owner, attr


def _coefficients(result):
    if isinstance(result, int):
        yield result
    elif isinstance(result, list):
        for poly in result:
            yield from poly.coeffs
    else:
        yield from result.coeffs
