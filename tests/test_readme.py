import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope: dict = {}
    exec(compile(code, f"{README} (library tour)", "exec"), scope)
    assert scope["ideal"].cover_stats().bight == 8
    assert scope["table"].entries == {(0, 0): 1, (1, 3): 2, (2, 4): 1}
    assert scope["report"].summary()["fail"] == 0
