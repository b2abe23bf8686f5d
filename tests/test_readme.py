import os
import re

import bandit_lab

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _library_use() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("\n## Library use\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def test_library_use_snippet_runs():
    # the README's first example runs as printed, on the package root's names
    block = re.search(r"```python\n(.*?)```", _library_use(), re.S).group(1)
    namespace = {}
    exec(compile(block, README, "exec"), namespace)
    assert namespace["policy"].t == 200


def test_root_exports_are_documented():
    section = _library_use()
    for name in bandit_lab.__all__:
        assert re.search(rf"\b{name}\b", section), name
