"""Record the golden certificates that tests/test_certify.py compares against.

Run from the root of the repository, at the commit whose certificates are the
reference:

    PYTHONPATH=src python3 tests/data/record_certificates.py

It writes one file per case in CASES to tests/data/, each a certificate
without its wall-clock timestamps, and fallback_U_auto_e1-first.json: U's
certificate under the auto plan with e1 tried before e2, together with the
number of derive() calls that run made.  With ``--check`` it writes nothing,
compares every file with what this tree computes, and exits 1 naming the
files that differ:

    PYTHONPATH=src python3 tests/data/record_certificates.py --check
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

from wangtiles.corpus import builtin

# The package exports the certify function under the module's name.
certify_module = importlib.import_module("wangtiles.certify")

DATA = Path(__file__).parent

CASES = {
    "certificate_U_auto.json": ("U", "auto"),
    "certificate_V_e1-1_e2-2.json": ("V", [(1, 1), (2, 2)]),
    "certificate_W_auto.json": ("W", "auto"),
}


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _certificate(name: str, plan) -> dict:
    doc = json.loads(certify_module.certify(builtin(name).payload, name, plan).to_json())
    del doc["timestamps"]
    return doc


def _e1_first() -> dict:
    """U under auto with e1 tried first, and the derive() calls it made."""
    calls = 0
    real_derive, real_directions = certify_module.derive, certify_module.AUTO_DIRECTIONS

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_derive(*args, **kwargs)

    certify_module.derive, certify_module.AUTO_DIRECTIONS = counted, (1, 2)
    try:
        doc = _certificate("U", "auto")
    finally:
        certify_module.derive, certify_module.AUTO_DIRECTIONS = real_derive, real_directions
    return {"certificate": doc, "deriveCalls": calls}


def _documents() -> dict:
    """Each golden file's name and a function computing its text."""
    docs = {
        golden: (lambda name=name, plan=plan: _dumps(_certificate(name, plan)))
        for golden, (name, plan) in CASES.items()
    }
    docs["fallback_U_auto_e1-first.json"] = lambda: _dumps(_e1_first())
    return docs


def main(argv: list[str]) -> int:
    docs = _documents()
    if argv == ["--check"]:
        differ = [
            golden for golden, make in docs.items()
            if not (DATA / golden).is_file() or (DATA / golden).read_text() != make()
        ]
        for golden in differ:
            print(f"differs: {golden}", file=sys.stderr)
        print(f"{len(docs) - len(differ)} of {len(docs)} files match", file=sys.stderr)
        return 1 if differ else 0
    if argv:
        print("usage: record_certificates.py [--check]", file=sys.stderr)
        return 2
    for golden, make in docs.items():
        (DATA / golden).write_text(make())
    print(f"wrote {len(docs)} files to {DATA}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
