import inspect
import re
from pathlib import Path

import asynctrig

README = Path(__file__).parent.parent / "README.md"
CALL = re.compile(r"(\w+)\(([^)]*)\)")


def _readme_calls():
    """(name, parameter names) of every line in README's python blocks that
    opens with a call of a name the package exports."""
    calls, in_block = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = line == "```python"
            continue
        match = CALL.match(line)
        if in_block and match and hasattr(asynctrig, match[1]):
            calls.append((match[1], [arg.split("=")[0].strip() for arg in match[2].split(",")]))
    return calls


def _parameter_names(obj):
    """inspect.signature's parameter names, with a bare * before the first keyword-only one."""
    names = []
    for p in inspect.signature(obj).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(p.name)
    return names


def test_readme_signature_lists_match_the_package():
    # the lists are hand-written; each one must name the parameters the code takes, in order
    calls = _readme_calls()
    assert len(calls) >= 9
    for name, params in calls:
        assert params == _parameter_names(getattr(asynctrig, name)), name
