"""API-quality gates: docstring coverage and export consistency.

A release-grade library documents every public item.  These tests walk the
whole package and fail on any public module, class, function or method
without a docstring, and on any ``__all__`` entry that does not resolve.
"""

import importlib
import inspect
import pkgutil

import repro

PACKAGES = [
    "repro", "repro.sim", "repro.machine", "repro.smpi", "repro.core",
    "repro.mesh", "repro.partition", "repro.fem", "repro.solver",
    "repro.particles", "repro.app", "repro.trace", "repro.experiments",
]


def iter_modules():
    seen = set()
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__,
                                         prefix=pkg_name + "."):
            if info.name not in seen:
                seen.add(info.name)
                yield importlib.import_module(info.name)


def public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are checked where they are defined
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [m.__name__ for m in iter_modules()
                        if not (m.__doc__ or "").strip()]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        missing = []
        for module in iter_modules():
            for name, obj in public_members(module):
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_public_methods_documented(self):
        missing = []
        for module in iter_modules():
            for cname, cls in public_members(module):
                if not inspect.isclass(cls):
                    continue
                for mname, meth in vars(cls).items():
                    if mname.startswith("_"):
                        continue
                    if isinstance(meth, property):
                        target = meth.fget
                    elif inspect.isfunction(meth):
                        target = meth
                    else:
                        continue
                    if not (target.__doc__ or "").strip():
                        missing.append(
                            f"{module.__name__}.{cname}.{mname}")
        assert missing == []


class TestExports:
    def test_all_entries_resolve(self):
        broken = []
        for module in iter_modules():
            for name in getattr(module, "__all__", []):
                if not hasattr(module, name):
                    broken.append(f"{module.__name__}.{name}")
        assert broken == []

    def test_top_level_all_sorted_unique(self):
        names = [n for n in repro.__all__]
        assert len(names) == len(set(names))

    def test_version(self):
        assert repro.__version__ == "1.0.0"
