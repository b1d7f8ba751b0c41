"""Generate docs/api.md from the package's docstrings.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

PACKAGES = [
    "repro",
    "repro.api",
    "repro.nn",
    "repro.core",
    "repro.datasets",
    "repro.metrics",
    "repro.train",
    "repro.deploy",
    "repro.compile",
    "repro.hw",
    "repro.theory",
    "repro.nas",
    "repro.resilience",
    "repro.serve",
    "repro.obs",
    "repro.zoo",
    "repro.cli",
    "repro.utils",
]


def first_paragraph(doc: str) -> str:
    doc = inspect.cleandoc(doc or "")
    return doc.split("\n\n")[0].replace("\n", " ").strip()


def describe_module(name: str) -> str:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", "", first_paragraph(module.__doc__ or "") or
             "(no module docstring)", ""]
    public = getattr(module, "__all__", None)
    if public is None:
        public = [n for n in vars(module) if not n.startswith("_")]
    rows = []
    for attr_name in public:
        obj = getattr(module, attr_name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        kind = (
            "class" if inspect.isclass(obj)
            else "function" if callable(obj)
            else "data"
        )
        summary = first_paragraph(getattr(obj, "__doc__", "") or "")
        if len(summary) > 160:
            summary = summary[:157] + "..."
        rows.append(f"| `{attr_name}` | {kind} | {summary} |")
    if rows:
        lines += ["| name | kind | summary |", "|---|---|---|"] + rows + [""]
    return "\n".join(lines)


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_path = os.path.join(root, "docs", "api.md")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    sections = ["# API reference", "",
                "Generated by `python tools/gen_api_docs.py`; summaries are "
                "each item's first docstring paragraph.", ""]
    for name in PACKAGES:
        sections.append(describe_module(name))
    with open(out_path, "w") as fh:
        fh.write("\n".join(sections))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    sys.exit(main())
