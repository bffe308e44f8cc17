"""The README's library tour runs as written, and its commented values hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    [tour] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert namespace["lie_dimension"]([namespace["drift"], namespace["control"]]) == 2
    assert namespace["dim"] == 3
    assert namespace["block_dims"] == (3,)
