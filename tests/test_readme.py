import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs_as_a_doctest():
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick tour", str(README), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted > 0
    assert result.failed == 0
