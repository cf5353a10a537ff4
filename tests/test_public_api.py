"""Public API surface: everything advertised in __all__ exists and docs
reference real symbols."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: a Sphinx cross-reference to a ``repro.`` name, e.g.
#: :func:`~repro.compiler.mlcnn_pipeline` or :class:`Pass <repro.compiler.Pass>`
XREF = re.compile(
    r":(?:mod|func|class|meth|attr|data):`~?(?:[^`<]*<)?(repro(?:\.\w+)+)>?`"
)


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute path below one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.data",
    "repro.train",
    "repro.models",
    "repro.core",
    "repro.compiler",
    "repro.accel",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
]


class TestPublicAPI:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_exports_resolve(self, name):
        mod = importlib.import_module(name)
        assert hasattr(mod, "__all__"), f"{name} lacks __all__"
        for symbol in mod.__all__:
            assert hasattr(mod, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_module_docstrings(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, f"{name} undocumented"

    def test_public_callables_documented(self):
        """Every public function/class re-exported at the top level has
        a docstring."""
        import repro

        for symbol in repro.__all__:
            obj = getattr(repro, symbol)
            if callable(obj):
                assert obj.__doc__, f"repro.{symbol} lacks a docstring"

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_registry_and_specs_agree(self):
        """Every zoo model has a matching full-size spec list."""
        from repro.models import MODEL_REGISTRY
        from repro.models.specs import MODEL_SPECS

        assert set(MODEL_REGISTRY) == set(MODEL_SPECS)


def test_docstring_cross_references_resolve():
    """Every :mod:/:func:/:class:/:meth:/:attr:/:data: reference to a
    ``repro.`` name in the sources, examples and benches names a real
    module or attribute."""
    files = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
        *sorted((ROOT / "benchmarks").glob("*.py")),
    ]
    refs = [
        (path.relative_to(ROOT), m.group(1))
        for path in files
        for m in XREF.finditer(path.read_text(encoding="utf-8"))
    ]
    assert len(refs) > 100  # the pattern still matches the docstrings
    broken = [f"{path}: {name}" for path, name in refs if not _resolves(name)]
    assert not broken, "unresolved cross-references:\n" + "\n".join(broken)
