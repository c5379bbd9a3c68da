"""Spans around the calls into each layer's public functions.

The wrappers replace the names that each caller imports, so the program
files stay untouched: ``rsasian.cli`` calls ``mc_price`` and
``symmetry_mc_check`` through its own globals, ``rsasian.symmetry``
calls ``mc_price`` through its own, and so on. Spans live in memory
(one list per traced round) and are written out when the run ends. The
call tree is single-threaded at these boundaries (MC worker threads run
below ``mc_price``), so a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time

import rsasian.cli
import rsasian.fd
import rsasian.ham
import rsasian.symmetry


def _mc_work(spec, state, model, cfg):
    steps = max(1, int(math.ceil((spec.T - state.t) * cfg.n_steps - 1e-12)))
    return {"paths": cfg.n_paths, "path_steps": cfg.n_paths * steps}


def _fd_work(model, T, cfg=None):
    cfg = cfg if cfg is not None else rsasian.fd.FdConfig()
    return {"grid_points": (cfg.n_y + 1) * (cfg.n_t + 1)}


def _grid_work(model, s_values, *args, **kwargs):
    return {"spots": len(s_values)}


# span name -> (modules whose global of that function is wrapped, function name, counter)
_WRAPS = {
    "cli.main": ((rsasian.cli,), "main", None),
    "mc.price": ((rsasian.cli, rsasian.symmetry), "mc_price", _mc_work),
    "symmetry.check": ((rsasian.cli,), "symmetry_mc_check", None),
    "ham.build_terms": ((rsasian.cli, rsasian.ham), "build_terms", None),
    "ham.initial_guess": ((rsasian.ham,), "initial_guess", None),
    "ham.step": ((rsasian.ham,), "ham_step", None),
    "ham.assemble": ((rsasian.cli, rsasian.ham), "assemble_series", None),
    "ham.price": ((rsasian.cli,), "price_floating_put_ham", None),
    "european.put_grid": ((rsasian.ham,), "european_put_grid", _grid_work),
    "fd.solve": ((rsasian.cli, rsasian.fd), "fd_price", _fd_work),
    "fd.richardson": ((rsasian.cli,), "richardson_order", None),
}


class Tracer:
    """Installs the wrappers; records spans only while ``active``."""

    def __init__(self):
        self.active = False
        self.rounds: list[list[dict]] = []
        self._stack: list[dict] = []
        for name, (modules, attr, counter) in _WRAPS.items():
            wrapped = self._wrap(name, getattr(modules[0], attr), counter)
            for module in modules:
                setattr(module, attr, wrapped)

    def start_round(self) -> None:
        self.active = True
        self.rounds.append([])

    def stop_round(self) -> None:
        self.active = False

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = {"name": name, "parent": self._stack[-1]["id"] if self._stack else None,
                    "id": len(self.rounds[-1]), "child_s": 0.0, "children": set()}
            if counter is not None:
                span.update(counter(*args, **kwargs))
            self.rounds[-1].append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                span["dur_s"] = span["end"] - span["start"]
                if self._stack:
                    self._stack[-1]["child_s"] += span["dur_s"]
                    self._stack[-1]["children"].add(name)
        return traced

    def dump(self, path) -> None:
        """Write every recorded span, one list per traced round."""
        doc = [[dict(s, children=sorted(s["children"])) for s in spans] for spans in self.rounds]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def layer_metrics(spans: list[dict], report_bytes: int) -> dict:
    """Per-layer counts and times of one traced round."""
    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key="dur_s"):
        return math.fsum(s[key] for s in of(name))

    def self_s(name):
        return math.fsum(s["dur_s"] - s["child_s"] for s in of(name))

    mc_s = total("mc.price")
    return {
        "mc.calls": len(of("mc.price")),
        "mc.paths": int(total("mc.price", "paths")),
        "mc.price_s": mc_s,
        "mc.path_steps_per_s": total("mc.price", "path_steps") / mc_s if mc_s else 0.0,
        "symmetry.calls": len(of("symmetry.check")),
        "symmetry.self_s": self_s("symmetry.check"),
        "ham.build_terms_calls": len(of("ham.build_terms")),
        "ham.build_terms_s": total("ham.build_terms"),
        "ham.initial_guess_s": total("ham.initial_guess"),
        "ham.step_calls": len(of("ham.step")),
        "ham.step_s": total("ham.step"),
        "ham.assemble_s": total("ham.assemble"),
        "ham.price_calls": len(of("ham.price")),
        "ham.cache_hits": sum("ham.build_terms" not in s["children"] for s in of("ham.price")),
        "european.put_grid_calls": len(of("european.put_grid")),
        "european.put_grid_spots": int(total("european.put_grid", "spots")),
        "european.put_grid_s": total("european.put_grid"),
        "fd.solve_calls": len(of("fd.solve")),
        "fd.grid_points": int(total("fd.solve", "grid_points")),
        "fd.solve_s": total("fd.solve"),
        "fd.richardson_s": total("fd.richardson"),
        "cli.commands": len(of("cli.main")),
        "cli.self_s": self_s("cli.main"),
        "cli.report_bytes": report_bytes,
    }


def median_layers(per_round: list[dict]) -> dict:
    """Counts from the first traced round (every round repeats them), times as medians."""
    first = per_round[0]
    return {k: (v if isinstance(v, int) else statistics.median(r[k] for r in per_round))
            for k, v in first.items()}
