"""Spans around the calls into each msproots layer, recorded from outside.

`Tracer.install` replaces each traced public function with a wrapper under
every name a caller looks it up by: the module attribute in the defining
module and in each module that imported it, or the class attribute for a
method. `uninstall` puts the originals back. Spans stay in memory as
compact arrays until `write` dumps them at the end of a run.

A span's self time is its duration minus the time its child spans and
their bookkeeping took. Work counts are taken at the same boundaries.
"""
from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from math import prod
from time import perf_counter_ns

from msproots import cli, cyclotomic, groupdet, msp, partitions, verify

MODULES = (cyclotomic, partitions, msp, groupdet, verify, cli)

# (owner, attribute, span name); an owner that is a class is patched in place,
# a module-level function is patched in every module that binds it.
TRACED = (
    (cyclotomic.CyclotomicInt, "to_integer", "cyclotomic.readout"),
    (partitions, "enumerate_partitions", "partitions.enumerate_partitions"),
    (partitions, "lambda_tilde_size", "partitions.lambda_tilde_size"),
    (partitions, "canonical_residues", "partitions.canonical_residues"),
    (partitions, "format_partition", "partitions.format_partition"),
    (partitions, "parse_partition", "partitions.parse_partition"),
    (msp, "msp_value_dp", "msp.dp"),
    (msp, "msp_value_naive", "msp.naive"),
    (msp, "closed_form_value", "msp.closed"),
    (groupdet, "dedekind_expand", "groupdet.expand"),
    (groupdet.MonomialMap, "to_records", "groupdet.to_records"),
    (groupdet.MonomialMap, "relabel", "groupdet.relabel"),
    (groupdet, "leibniz_determinant", "groupdet.leibniz"),
    (verify, "check_theorems", "verify.theorems"),
    (verify, "check_thm11", "verify.thm11"),
    (verify, "check_thm12", "verify.thm12"),
    (verify, "check_thm32", "verify.thm32"),
    (verify, "check_branching", "verify.branching"),
    (verify, "explore_conjecture", "verify.conjecture"),
    (cli, "main", "cli.main"),
)


class Tracer:
    """Records spans and per-pass work counts while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.pass_starts = []
        self._stack = []
        self._patched = []
        self._expand_id = self._name_id("groupdet.expand")

    def begin_pass(self):
        """Start a new pass: zero the per-pass totals, mark where its spans begin."""
        self.pass_starts.append(len(self.start))
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()

    @contextmanager
    def span(self, name):
        """A span the benchmark opens itself, one per op."""
        nid = self._name_id(name)
        t_outer = perf_counter_ns()
        frame, t0 = self._enter(nid)
        try:
            yield
        finally:
            self._exit(nid, frame, t0)
            self._close(t_outer)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid):
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1][0] if stack else -1)
        self.name.append(nid)
        self.end.append(0)
        frame = [idx, 0]
        stack.append(frame)
        t0 = perf_counter_ns()
        self.start.append(t0)
        return frame, t0

    def _exit(self, nid, frame, t0):
        t1 = perf_counter_ns()
        self._stack.pop()
        self.end[frame[0]] = t1
        self.self_ns[nid] += t1 - t0 - frame[1]
        self.calls[nid] += 1

    def _close(self, t_outer):
        """Charge a finished span and its bookkeeping to the parent's child time."""
        if self._stack:
            self._stack[-1][1] += perf_counter_ns() - t_outer

    def wrap(self, fn, name, observe=None):
        """Wrap fn in a span; observe(args) runs outside the span and may return
        a callable that receives the result."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_outer = perf_counter_ns()
            after = observe(args) if observe else None
            frame, t0 = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(nid, frame, t0)
            if after:
                after(result)
            self._close(t_outer)
            return result

        return traced

    def install(self):
        observers = {
            "cyclotomic.readout": self._on_readout,
            "msp.dp": self._on_dp,
            "msp.closed": self._on_closed,
            "groupdet.expand": self._on_expand,
        }
        for owner, attr, name in TRACED:
            orig = getattr(owner, attr)
            wrapper = self.wrap(orig, name, observers.get(name))
            holders = [owner] if isinstance(owner, type) else \
                [m for m in MODULES if getattr(m, attr, None) is orig]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, orig))

    def uninstall(self):
        while self._patched:
            holder, attr, orig = self._patched.pop()
            setattr(holder, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # Work counts, measured where the work happens.

    def _on_readout(self, args):
        stack = self._stack
        if stack and self.name[stack[-1][0]] == self._expand_id:
            self.counts["groupdet.accumulator_keys"] += 1

    def _on_dp(self, args):
        inst = args[0]
        misses = msp._dp_value.cache_info().misses

        def done(result):
            if msp._dp_value.cache_info().misses > misses:  # ran the DP rather than hitting the memo
                self.counts["msp.dp_states"] += prod(inst.parts.count(v) + 1 for v in set(inst.parts))
        return done

    def _on_closed(self, args):
        def done(result):
            self.counts["msp.closed_attempts"] += 1
            self.counts["msp.closed_matches"] += result is not None
        return done

    def _on_expand(self, args):
        if (args[0], args[1]) in groupdet._expansions:
            return None

        def done(result):
            self.counts["groupdet.terms"] += len(result)
        return done

    def pass_self_s(self):
        """Self seconds per span name in the current pass."""
        return {self.names[i]: ns / 1e9 for i, ns in self.self_ns.items()}

    def pass_counts(self):
        """Work counts of the current pass."""
        calls = {self.names[i]: c for i, c in self.calls.items()}
        counts = dict(self.counts)
        counts["cyclotomic.readouts"] = calls.get("cyclotomic.readout", 0)
        counts["msp.dp_calls"] = calls.get("msp.dp", 0)
        counts["msp.naive_calls"] = calls.get("msp.naive", 0)
        counts["partitions.calls"] = sum(c for n, c in calls.items() if n.startswith("partitions."))
        return counts

    def write(self, path):
        """Dump every span as gzip TSV: index, parent, pass, name, start_ns, end_ns."""
        bounds = self.pass_starts + [len(self.start)]
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\tpass\tname\tstart_ns\tend_ns\n")
            for p in range(len(bounds) - 1):
                fh.writelines(f"{i}\t{self.parent[i]}\t{p}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                              for i in range(bounds[p], bounds[p + 1]))

