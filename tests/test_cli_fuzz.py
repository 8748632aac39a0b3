"""Property test of the CLI exit codes on mutated CSV input.

Whatever text ``emn predict`` and ``emn eval`` are given as a dataset, they
exit with 0, 2, 3 or 4 and print no traceback.
"""

import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from emn.cli import main

DIM = 4
EXIT_CODES = {0, 2, 3, 4}
SPECIAL_FIELDS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e300", "-1e300", "1e309"]
ODD_FIELDS = ["", " ", "abc", "0x10", "1,5", "1e", "--1", "\x00", "1_0"]
# Integers on either side of the 64-bit range, for the label column.
BIG_FIELDS = [str(2**63 - 1), str(2**63), str(-(2**63) - 1), "9" * 30]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A trained model and a clean labeled target CSV to mutate."""
    root = tmp_path_factory.mktemp("fuzz")
    src, tgt = root / "source.csv", root / "target.csv"
    assert main(
        ["synth", "--out-source", str(src), "--out-target", str(tgt),
         "--classes", "3", "--dim", str(DIM), "--samples-per-class", "4",
         "--seed", "5"]
    ) == 0
    model = root / "model.json"
    assert main(
        ["train", "--source", str(src), "--model", str(model),
         "--hub", "4", "--bridging", "4", "--in-degree", "3", "--seed", "1"]
    ) == 0
    return root, model, tgt.read_text(encoding="utf-8").splitlines()


@st.composite
def mutated_csv(draw, lines):
    """Bytes of a target CSV after one kind of mutation."""
    kinds = ["bytes", "truncate", "columns", "field", "special", "number"]
    kind = draw(st.sampled_from(kinds))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    text = "\n".join(lines) + "\n"
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))].encode()
    rows = [line.split(",") for line in lines]
    r = draw(st.integers(0, len(rows) - 1))
    if kind == "columns":
        extra = draw(st.lists(st.sampled_from(["1.0", "label", "", "x"]), min_size=1, max_size=3))
        rows[r] += extra
    else:
        last = len(rows[r]) - 1  # the label column, half of the time
        c = draw(st.one_of(st.just(last), st.integers(0, last)))
        if kind == "number":
            wide = st.integers(-(10**30), 10**30).map(str)
            field = st.one_of(st.sampled_from(BIG_FIELDS), wide, st.floats().map(repr))
        else:
            pool = SPECIAL_FIELDS if kind == "special" else ODD_FIELDS
            field = st.one_of(st.sampled_from(pool), st.text(max_size=8))
        rows[r][c] = draw(field)
    return ("\n".join(",".join(row) for row in rows) + "\n").encode(
        "utf-8", errors="surrogatepass"
    )


@pytest.mark.parametrize("command", ["predict", "eval"])
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_csv_gives_a_documented_exit_code(workdir, capsys, command, data):
    root, model, lines = workdir
    target = root / "mutated.csv"
    target.write_bytes(data.draw(mutated_csv(lines)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([command, "--model", str(model), "--target", str(target)])
    err = capsys.readouterr().err
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")
