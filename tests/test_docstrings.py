"""Every exported name, and every public method and property of an
exported class, carries a docstring of its own."""

import inspect

import igaspectra


def _undocumented():
    for name in igaspectra.__all__:
        obj = getattr(igaspectra, name)
        if not callable(obj):
            continue  # __version__
        doc = (obj.__doc__ or "").strip()
        # a dataclass without a docstring gets its signature as __doc__
        if not doc or (inspect.isclass(obj) and doc.startswith(f"{name}(")):
            yield name
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if (isinstance(member, property) or inspect.isfunction(member)) \
                    and not (member.__doc__ or "").strip():
                yield f"{name}.{attr}"


def test_public_api_has_docstrings():
    assert list(_undocumented()) == []
