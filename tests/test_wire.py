"""The field-driven wire form (:mod:`repro.wire`), checked on every class
that uses it.

The classes are collected from the :class:`~repro.wire.Wire` mixin after
importing every ``repro`` module, and each must have a populated sample
reachable from the roots below (a dyn run with every optional optimizer
config set, its cycle attribution and a two-tenant co-run), so a class
moved onto the mixin later cannot skip these checks.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from dataclasses import MISSING, fields, replace

import pytest

import repro
from repro.core.config import OptimizerConfig
from repro.engine.spec import RunSpec
from repro.errors import ConfigError
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import GuardConfig
from repro.resilience.watchdog import WatchdogConfig
from repro.tenancy.plan import TenantPlan, TenantSpec
from repro.tracing.attribution import CycleAttribution
from repro.wire import Wire

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_module.name)


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out


WIRE_CLASSES = sorted(set(_subclasses(Wire)), key=lambda cls: cls.__name__)

#: Every optional sub-config set; ``inject`` off so that flipping
#: ``analyze`` alone still gives a valid config.
FULL_OPT = OptimizerConfig(
    inject=False, guards=GuardConfig(), watchdog=WatchdogConfig(), faults=FaultPlan()
)


def _wire_objects(value: object):
    """Every Wire object in ``value``, nested ones included."""
    if isinstance(value, Wire):
        yield value
        for f in fields(value):
            yield from _wire_objects(getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _wire_objects(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _wire_objects(item)


@pytest.fixture(scope="module")
def samples() -> dict[type, list]:
    # Without faults, so the run completes optimization cycles; the
    # watchdog turns on per-stream attribution.
    opt = OptimizerConfig(guards=GuardConfig(), watchdog=WatchdogConfig())
    spec = RunSpec("vortex", "dyn", passes=2, opt=opt)
    result = spec.run()
    plan = TenantPlan(
        tenants=(TenantSpec("vpr", "dyn", 1, opt=opt), TenantSpec("mcf", "orig", 1, name="m")),
        quantum=2048,
    )
    roots = [
        RunSpec("vortex", "dyn", passes=2, opt=FULL_OPT),
        result.stats,
        result.hierarchy.stats_snapshot(),
        result.summary,
        CycleAttribution.from_run(result.stats, spec.machine),
        plan.run(),
    ]
    out: dict[type, list] = {}
    for root in roots:
        for obj in _wire_objects(root):
            out.setdefault(type(obj), []).append(obj)
    return out


def _sample(samples: dict[type, list], cls: type):
    assert samples.get(cls), f"no {cls.__name__} sample: add one to the roots"
    return samples[cls][0]


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
def test_json_round_trip_is_exact(cls, samples):
    _sample(samples, cls)
    for obj in samples[cls]:
        doc = obj.to_dict()
        again = cls.from_dict(json.loads(json.dumps(doc)))
        assert again.to_dict() == doc
        assert again == obj


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_a_key(cls, samples):
    doc = _sample(samples, cls).to_dict()
    assert {f.name for f in fields(cls)} <= set(doc)


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
def test_another_format_is_refused(cls, samples):
    doc = _sample(samples, cls).to_dict()
    if cls.WIRE_FORMAT is None:
        assert "format" not in doc
        return
    assert doc["format"] == cls.WIRE_FORMAT
    unversioned = {k: v for k, v in doc.items() if k != "format"}
    for other in ({**doc, "format": cls.WIRE_FORMAT + 1}, unversioned):
        with pytest.raises(ConfigError, match=f"unsupported serialized {cls.__name__} format"):
            cls.from_dict(other)


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
def test_missing_key_without_default_raises(cls, samples):
    doc = _sample(samples, cls).to_dict()
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            with pytest.raises(TypeError, match=f.name):
                cls.from_dict({k: v for k, v in doc.items() if k != f.name})


def _other(value: object) -> object:
    """A different valid value of a config leaf."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if value is None:
        return 1
    if isinstance(value, tuple):
        return value[1:]
    return {"dyn": "seq"}[value]


def _single_field_changes(obj: Wire, prefix: str = ""):
    """(path, copy of ``obj`` with that one field changed), nested fields
    included; an optional sub-config also changes to None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        path = prefix + f.name
        if isinstance(value, Wire):
            for sub_path, changed in _single_field_changes(value, path + "."):
                yield sub_path, replace(obj, **{f.name: changed})
            if f.default is None:
                yield path + "=None", replace(obj, **{f.name: None})
        else:
            yield path, replace(obj, **{f.name: _other(value)})


CHANGES = list(_single_field_changes(FULL_OPT))


@pytest.mark.parametrize("opt", [opt for _, opt in CHANGES], ids=[path for path, _ in CHANGES])
def test_every_optimizer_field_reaches_the_fingerprint(opt):
    assert opt != FULL_OPT
    base = RunSpec("vortex", "dyn", opt=FULL_OPT).fingerprint()
    assert RunSpec("vortex", "dyn", opt=opt).fingerprint() != base
