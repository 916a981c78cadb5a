"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    code = quick_start()
    # The checks below read these claims; a README that changes them must change the checks.
    assert re.findall(r"^print\((.+?)\)\s+# (.+)$", code, re.M) == [
        ("report.profit", "0.00795251590621..."),
        ("oracle.casino_profit", "same to ~1e-15"),
        ("result.grand_mean", "same within ~3 standard errors"),
    ]
    namespace, printed = {}, io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), namespace)
    profit, oracle, mean = printed.getvalue().split()
    assert profit.startswith("0.00795251590621")
    assert abs(float(oracle) - float(profit)) <= 1e-15
    assert abs(float(mean) - float(profit)) <= 3 * namespace["result"].standard_error
