"""The `>>>` examples of README.md run and print what the README shows.

`python -m doctest README.md` would read each closing fence as expected
output, so the examples are taken from inside the fenced python blocks."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_examples_run():
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    assert blocks
    for n, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, "README block %d" % n,
                                  str(README), 0)
        assert test.examples, test.name
        runner.run(test)
    failed, tried = runner.summarize(verbose=False)
    assert failed == 0, "%d of %d README examples failed" % (failed, tried)
