"""Layer probes: span wrappers around the program's public functions.

Installed only in a traced run (``--trace 1``), never in the run that
produces end-to-end metrics.  Each probe replaces one public function
or method with a wrapper that opens a span on the program's own tracer
(``repro.obs.trace``), so the program's existing spans (``fit``, the
``run_stage`` stages, ``featurize``/``predict``, ``shard``, ``batch``)
nest with the probes' in one tree.  Nothing under ``src/`` changes: a
module-level function is swapped in every ``repro`` module that
imported it by name.
"""

from __future__ import annotations

import functools
import importlib
import sys

from repro.obs import trace


def _table_cells(args, kwargs, out):
    table = args[1]
    return {"rows": table.n_rows, "cells": table.n_rows * table.n_attributes}


def _matrix_rows(args, kwargs, out):
    return {"rows": int(args[1].shape[0])}


def _encode_counts(args, kwargs, out):
    return {"values": int(out.n_rows), "uniques": int(out.n_unique)}


def _nbytes(args, kwargs, out):
    return {"nbytes": int(out.nbytes)}


def _n_rows(args, kwargs, out):
    return {"rows": len(args[1])}


#: (module, attribute path, span name, attrs(args, kwargs, result)).
#: The span names are the per-layer metric prefixes.
PROBES = [
    ("repro.core.pipeline", "ZeroED.fit", "core.fit", None),
    ("repro.core.pipeline", "FittedZeroED.score", "core.score", None),
    ("repro.llm.client", "LLMClient.complete", "llm.complete", None),
    ("repro.llm.resilience", "ResilientLLM.complete", "llm.complete", None),
    ("repro.core.sampling", "sample_representatives", "ml.cluster", None),
    ("repro.ml.mlp", "MLPClassifier.fit", "ml.mlp_fit", _matrix_rows),
    ("repro.ml.mlp", "MLPClassifier.predict_proba", "ml.mlp_predict",
     _matrix_rows),
    ("repro.ml.scaler", "StandardScaler.transform", "ml.scale", None),
    ("repro.serving.artifact", "DetectorArtifact.save", "artifact.save",
     None),
    ("repro.serving.artifact", "DetectorArtifact.load", "artifact.load",
     None),
    ("repro.serving.artifact", "DetectorArtifact.restore", "artifact.load",
     None),
    ("repro.data.csvio", "iter_csv_chunks", "data.csv_read", None),
    ("repro.data.encoding", "ColumnEncoding.from_values", "data.encode",
     _encode_counts),
    ("repro.serving.scorer", "BatchScorer.score_table", "scorer.score_table",
     _table_cells),
    ("repro.serving.scorer", "BatchScorer.score_rows", "scorer.score_rows",
     _n_rows),
    ("repro.serving.scorer", "BatchScorer.score_csv", "streaming.score_csv",
     None),
    ("repro.core.featurize", "AttributeFeaturizer.base_matrix",
     "scorer.base_matrix", _nbytes),
    ("repro.text.embeddings", "SubwordHashEmbedding.embed_uniques",
     "text.embed", None),
    ("repro.criteria", "Criterion.evaluate_column", "criteria.evaluate",
     None),
    ("repro.criteria", "Criterion.evaluate_values", "criteria.evaluate",
     None),
    ("repro.serving.service", "ScoringService.handle_score",
     "service.handle_score", None),
]


def _span_call(fn, name, attrs):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with trace.span(name) as sp:
            out = fn(*args, **kwargs)
            if attrs is not None:
                sp.set(**attrs(args, kwargs, out))
        return out

    return wrapped


def _span_generator(fn, name):
    """Time each ``next()`` of a generator; the consumer's time between
    items stays outside the span."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            with trace.span(name) as sp:
                try:
                    item = next(gen)
                except StopIteration:
                    return
                sp.set(rows=item.n_rows)
            yield item

    return wrapped


def _wrap_handler_factory(factory):
    """``service._make_handler`` builds the request-handler class per
    service; wrap the ``do_POST`` of each class it returns."""

    @functools.wraps(factory)
    def wrapped(service):
        handler = factory(service)
        handler.do_POST = _span_call(
            handler.do_POST, "service.http_handler", None
        )
        return handler

    return wrapped


class Installed:
    """The swapped attributes, so a test can restore the originals."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


#: Modules that import a probed function by name; imported before
#: installing so that their binding is the one rebound.
_IMPORTERS = ("repro.core.pipeline", "repro.serving.streaming")


def install() -> Installed:
    """Install every probe; spans land on whatever tracer is current."""
    for module_name in _IMPORTERS:
        importlib.import_module(module_name)
    done = Installed()
    for module_name, path, name, attrs in PROBES:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_span_call(raw.__func__, name, attrs))
            else:
                new = _span_call(raw, name, attrs)
            done.replace(owner, attr, new)
            continue
        original = getattr(module, attr)
        if name == "data.csv_read":
            new = _span_generator(original, name)
        else:
            new = _span_call(original, name, attrs)
        # Rebind the name everywhere it was imported with ``from x
        # import f``; modules imported later see the module attribute.
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("repro")
                and mod.__dict__.get(attr) is original
            ):
                done.replace(mod, attr, new)
    service = importlib.import_module("repro.serving.service")
    done.replace(
        service, "_make_handler", _wrap_handler_factory(service._make_handler)
    )
    return done
