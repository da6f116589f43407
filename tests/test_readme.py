"""README's examples are claims: its Python blocks run, its command lines
answer, and its certificate formats are the ones the package writes."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from skeincalc.cli import main
from skeincalc.labels import certificate
from skeincalc.torus3 import Curve3, reduce_curve

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_python_blocks_run():
    blocks = _blocks("python")
    assert len(blocks) == 2
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, "README.md", "exec"), {})


def test_command_line_examples_answer_as_commented():
    # Every example exits 0; a comment that is an element is its output.
    (block,) = [b for b in _blocks("") if b.startswith("skeincalc ")]
    outputs = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "skeincalc", line
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv[1:]) == 0, line
        if argv[1] in ("mul", "abelianize"):
            assert out.getvalue() == comment.strip() + "\n", line
            outputs += 1
    assert outputs == 2


def test_certificate_formats_show_the_written_keys():
    # Each JSON sketch under "Certificate formats" lists the top-level keys
    # and, inside "steps", a step's keys.
    section = README.split("## Certificate formats", 1)[1].split("\n## ", 1)[0]
    sketches = re.findall(r"^```json\n(.*?)^```", section, re.M | re.S)
    written = [
        certificate(4, 0).to_json_dict(),
        reduce_curve(Curve3.of(2, 3, 5))[1].to_json_dict(),
    ]
    assert len(sketches) == len(written) == 2
    for sketch, doc in zip(sketches, written):
        step = re.search(r'"steps": \[\{(.*?)\}\]', sketch, re.S).group(1)
        step_keys = re.findall(r'"(\w+)":', step)
        top_keys = re.findall(r'"(\w+)":', sketch.replace(step, ""))
        assert top_keys == list(doc), sketch
        assert step_keys == list(doc["steps"][0]), sketch
