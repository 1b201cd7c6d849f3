import json
import subprocess
import sys
import time

import pytest

from cuspwatch import bordered, divergence
from cuspwatch.chars import SubgroupSpec
from cuspwatch.cli import main
from cuspwatch.errors import InternalError
from cuspwatch.lp import LPResult
from cuspwatch.matrix import Mat
from cuspwatch.radicals import radical_from_subspace

I2 = '[["1","0"],["0","1"]]'
DIAG2 = '[["2","0"],["0","1/2"]]'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_periodicity_line(capsys):
    code, out, _ = run(capsys, "sl4", "verify-periodicity")
    assert code == 0 and out == '{"ok": true}\n'


def test_nontrivial_both_branches(capsys):
    code, out, _ = run(capsys, "bordered", "check", "--what", "nontrivial",
                       "--phi", "[[1,0],[-1,0]]")
    assert code == 0 and out == '{"result": false, "lambda": ["1", "1"]}\n'
    code, out, _ = run(capsys, "bordered", "check", "--what", "nontrivial",
                       "--phi", "[[1,0],[0,1]]")
    assert code == 0 and out == '{"result": true, "v": ["1", "1"]}\n'
    # several multipliers exist here, so these bytes pin the Gordan LP's vertex
    code, out, _ = run(capsys, "bordered", "check", "--what", "nontrivial",
                       "--phi", "[[1,0],[-1,0],[0,1],[0,-1]]")
    assert code == 0 and out == '{"result": false, "lambda": ["1", "1", "0", "0"]}\n'
    code, out, _ = run(capsys, "bordered", "check", "--what", "nontrivial",
                       "--phi", "[[1,2],[-1,0],[0,-1],[-2,-1],[3,-1]]")
    assert code == 0 and out == '{"result": false, "lambda": ["1", "1", "2", "0", "0"]}\n'
    code, out, _ = run(capsys, "bordered", "check", "--what", "nontrivial",
                       "--phi", "[[2,1,0],[0,1,3],[1,-1,1]]")
    assert code == 0 and out == '{"result": true, "v": ["6", "-1", "4"]}\n'


def test_bruhat_factor_identity(capsys):
    code, out, _ = run(capsys, "bruhat", "factor", "--matrix", I2)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == [["1", "0"], ["0", "1"]]
    assert data["b"] == [["1", "0"], ["0", "1"]]
    assert data["bound"] == "0"


def test_radicals_search(capsys):
    code, out, _ = run(capsys, "radicals", "search",
                       "--matrix", '[["5","0"],["0","1/5"]]',
                       "--eps", "1/10", "--height", "3")
    assert code == 0
    hits = json.loads(out)
    assert len(hits) == 1
    assert hits[0]["norm"] == "1/25"
    assert hits[0]["witness"]["rows"] == [[0, 1]]


def test_radicals_profile_json_and_csv(capsys):
    args = ("radicals", "profile", "--matrix", DIAG2, "--grid", "1:1",
            "--digits", "8")
    code, out, _ = run(capsys, *args)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["value"] for r in rows] == [
        "-0.61370564", "-1.38629436", "-3.38629436",
    ]
    code, out, _ = run(capsys, *args, "--csv")
    assert code == 0
    assert out.splitlines() == [
        "s1,value",
        "-1,-0.61370564",
        "0,-1.38629436",
        "1,-3.38629436",
    ]


def test_csv_rejected_without_table(capsys):
    code, _, err = run(capsys, "sl4", "verify-periodicity", "--csv")
    assert code == 2 and "no CSV form" in err


def test_manifest_line_and_determinism(capsys):
    args = ("radicals", "profile", "--matrix", DIAG2, "--grid", "1:1",
            "--digits", "30", "--manifest")
    code, first, _ = run(capsys, *args)
    assert code == 0
    manifest = json.loads(first.splitlines()[0])
    assert set(manifest) == {
        "command_line", "parameter_hash", "version", "precision_digits",
    }
    assert manifest["precision_digits"] == 30
    code, second, _ = run(capsys, *args)
    assert first == second


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CUSPWATCH_PRECISION", "12")
    code, out, _ = run(capsys, "radicals", "profile", "--matrix", DIAG2,
                       "--grid", "0:1", "--manifest")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0])["precision_digits"] == 12
    assert json.loads(lines[1])["rows"][0]["value"] == "-1.386294361120"


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_precision_env_rejects_non_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("CUSPWATCH_PRECISION", value)
    code, out, err = run(capsys, "radicals", "profile", "--matrix", DIAG2,
                         "--grid", "0:1", "--manifest")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "CUSPWATCH_PRECISION" in err


def test_merged_negative_values(capsys):
    # a value starting with "-" must work in the split --flag value form
    code, out, _ = run(capsys, "sl4", "demo", "--alpha", "-3,-1,1,3")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "sl4", "demo", "--alpha", "-3,-1,1,3", "--tamper")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is False and data["uncovered"] == ["-1"]


def test_sl4_demo_takes_no_matrix(capsys):
    # the demo reads its witnesses at the identity; it takes no conjugator
    code, out, _ = run(capsys, "sl4", "demo", "--alpha", "-3,-1,1,3", "--matrix",
                       "[[2,1,0,0],[1,1,0,0],[0,0,3,1],[0,0,2,1]]")
    assert code == 2 and out == ""


def test_sl4_grplus_and_xmember(capsys):
    code, out, _ = run(capsys, "sl4", "grplus", "--alpha", "-3,-1,1,3")
    assert code == 0 and out == '{"pair": [1, 3], "dim": 1}\n'
    code, out, _ = run(capsys, "sl4", "xmember",
                       "--basis", "[[1,0,1,0],[0,1,0,0]]")
    assert code == 0 and out == '{"pair": [2, 3]}\n'


def test_bordered_checks(capsys):
    code, out, _ = run(capsys, "bordered", "check", "--what", "bounded",
                       "--phi", "[[1,0],[0,1],[-1,-1]]", "--gauge", "1/8")
    assert code == 0 and json.loads(out) == {"result": True}
    code, out, _ = run(capsys, "bordered", "check", "--what", "invdim",
                       "--phi", "[[1,0],[-1,0]]", "--c", "[0,-1]")
    assert code == 0 and json.loads(out) == {"result": 1}
    # the open region {x1 > 0, -x1 > 0} is empty, though its closure is not
    code, out, _ = run(capsys, "bordered", "check", "--what", "invdim",
                       "--phi", "[[1,0],[-1,0]]", "--c", "[0,0]")
    assert code == 0 and json.loads(out) == {"result": "-inf"}
    code, out, _ = run(capsys, "bordered", "check", "--what", "invdim",
                       "--points", "[[0,0]]", "--rays", "[[0,1],[0,-1]]")
    assert code == 0 and json.loads(out) == {"result": 1}
    code, out, _ = run(capsys, "bordered", "check", "--what", "ktrivial",
                       "--points", "[[0,0]]", "--rays", "[[0,1],[0,-1]]",
                       "--k", "1")
    assert code == 0 and json.loads(out) == {"result": False}
    code, out, _ = run(capsys, "bordered", "check", "--what", "intersect",
                       "--phi", "[[1]]", "--c", "1/2",
                       "--phi2", "[[-1]]", "--c2", "-3/4")
    assert code == 0 and json.loads(out) == {"result": True, "point": ["5/8"]}
    code, out, _ = run(capsys, "bordered", "check", "--what", "intersect",
                       "--phi", "[[1,0],[0,1]]", "--c", "[0,0]",
                       "--phi2", "[[-1,-1]]", "--c2", "-4")
    assert code == 0 and out == '{"result": true, "point": ["1", "1"]}\n'
    # at slope 0 the strip and the half-strip are unbounded
    for phi, c in [("[[1,0],[-1,0]]", "[0,-1]"), ("[[1,0],[0,1],[-1,0]]", "[0,0,-1]")]:
        code, out, _ = run(capsys, "bordered", "check", "--what", "bounded",
                           "--phi", phi, "--c", c)
        assert code == 0 and out == '{"result": false}\n'


def test_cover_commands(capsys):
    code, out, _ = run(capsys, "cover", "local", "--matrix", I2,
                       "--radius", "1", "--c0", "0", "--height", "3")
    assert code == 0
    assert [w["rows"] for w in json.loads(out)] == [
        [[1, 0]], [[-1, 1]], [[1, 1]], [[0, 1]],
    ]
    code, out, _ = run(capsys, "cover", "verify", "--matrix", I2,
                       "--height", "1", "--c0", "-1", "--gauge", "0",
                       "--radius", "2", "--delta", "1/2",
                       "--core-phi", "[[1]]", "--core-c", "10")
    assert code == 0
    assert json.loads(out) == {"covered": True, "checked": 9, "gaps": []}
    code, out, _ = run(capsys, "cover", "goodres",
                       "--subgroup", "[[1,0,0,-1],[0,1,-1,0]]",
                       "--psi", "[[1,-1,0,0],[0,0,1,-1]]", "--l", "2")
    assert code == 0
    assert json.loads(out) == {
        "result": False,
        "violating": [[1, -1, 0, 0], [0, 0, 1, -1]],
    }


# the bytes of `cover build --gauge 0`: a slope-0 gauge prints as linear
COVER_BUILD_GAUGE0 = (
    '[{"witness": {"n": 2, "j": 1, "rows": [[1, 0]], "p_std": {"m": 2, "k": 1, '
    '"coeffs": [[[1], "1"]]}, "p_ad": {"m": 3, "k": 1, "coeffs": [[[1], "1"]]}}, '
    '"psi": [[-1, 1]], "d": [{"norm": "1", "C0": "0"}], '
    '"gauge": {"kind": "linear", "slope": "0"}}, '
    '{"witness": {"n": 2, "j": 1, "rows": [[-1, 1]], "p_std": {"m": 2, "k": 1, '
    '"coeffs": [[[1], "1"], [[2], "-1"]]}, "p_ad": {"m": 3, "k": 1, '
    '"coeffs": [[[1], "1"], [[2], "-1"], [[3], "1"]]}}, '
    '"psi": [[1, -1], [0, 0], [-1, 1]], "d": [{"norm": "1", "C0": "0"}, '
    '{"norm": "1", "C0": "0"}, {"norm": "1", "C0": "0"}], '
    '"gauge": {"kind": "linear", "slope": "0"}}, '
    '{"witness": {"n": 2, "j": 1, "rows": [[1, 1]], "p_std": {"m": 2, "k": 1, '
    '"coeffs": [[[1], "1"], [[2], "1"]]}, "p_ad": {"m": 3, "k": 1, '
    '"coeffs": [[[1], "1"], [[2], "-1"], [[3], "-1"]]}}, '
    '"psi": [[1, -1], [0, 0], [-1, 1]], "d": [{"norm": "1", "C0": "0"}, '
    '{"norm": "1", "C0": "0"}, {"norm": "1", "C0": "0"}], '
    '"gauge": {"kind": "linear", "slope": "0"}}, '
    '{"witness": {"n": 2, "j": 1, "rows": [[0, 1]], "p_std": {"m": 2, "k": 1, '
    '"coeffs": [[[2], "1"]]}, "p_ad": {"m": 3, "k": 1, "coeffs": [[[2], "1"]]}}, '
    '"psi": [[1, -1]], "d": [{"norm": "1", "C0": "0"}], '
    '"gauge": {"kind": "linear", "slope": "0"}}]\n'
)


def test_cover_build_zero_gauge_bytes(capsys):
    code, out, _ = run(capsys, "cover", "build", "--matrix", I2,
                       "--height", "1", "--gauge", "0")
    assert code == 0 and out == COVER_BUILD_GAUGE0


def test_diverge_commands(capsys):
    code, out, _ = run(capsys, "diverge", "check", "--matrix", I2,
                       "--subspace", "[[1,0]]", "--subspace", "[[0,1]]")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["certificate"]["hyperplanes"] == [["1"]]
    code, out, _ = run(capsys, "diverge", "check", "--matrix", I2,
                       "--subspace", "[[1,0]]")
    assert code == 0
    assert json.loads(out) == {"ok": False, "uncovered": ["1"]}
    code, out, _ = run(capsys, "diverge", "search", "--matrix", I2,
                       "--height", "2")
    assert code == 0
    assert [w["label"] for w in json.loads(out)] == [
        "subspace j=1 rows=((1, 0),)",
        "subspace j=1 rows=((0, 1),)",
    ]


# `diverge search` under a g of determinant 2: every norm carries the factor
# 1 / |det g|, so a line such as (0, 1, 0) has norm 1/2
DIVERGE_SEARCH_DET2 = (
    '[{"n": 3, "degree": 2, "label": "subspace j=1 rows=((1, 0, 0),)", '
    '"components": [{"char": [2, -1, -1], "norm": "4"}]}, {"n": 3, '
    '"degree": 2, "label": "subspace j=1 rows=((-1, 1, 0),)", '
    '"components": [{"char": [-1, 2, -1], "norm": "1/2"}, {"char": [0, 1, -1], '
    '"norm": "1/2"}, {"char": [1, 0, -1], "norm": "1/2"}, {"char": [2, -1, '
    '-1], "norm": "1/2"}]}, {"n": 3, "degree": 2, '
    '"label": "subspace j=1 rows=((1, 1, 0),)", "components": [{"char": [-1, '
    '2, -1], "norm": "1/2"}, {"char": [0, 1, -1], "norm": "3/2"}, {"char": [1, '
    '0, -1], "norm": "9/2"}, {"char": [2, -1, -1], "norm": "27/2"}]}, {"n": 3, '
    '"degree": 2, "label": "subspace j=1 rows=((-1, 0, 1),)", '
    '"components": [{"char": [-1, -1, 2], "norm": "1/2"}, {"char": [0, -1, 1], '
    '"norm": "1"}, {"char": [1, -1, 0], "norm": "2"}, {"char": [2, -1, -1], '
    '"norm": "4"}]}, {"n": 3, "degree": 2, "label": "subspace j=1 rows=((1, 0, '
    '1),)", "components": [{"char": [-1, -1, 2], "norm": "1/2"}, {"char": [0, '
    '-1, 1], "norm": "1"}, {"char": [1, -1, 0], "norm": "2"}, {"char": [2, -1, '
    '-1], "norm": "4"}]}, {"n": 3, "degree": 2, '
    '"label": "subspace j=1 rows=((0, 1, 0),)", "components": [{"char": [-1, '
    '2, -1], "norm": "1/2"}, {"char": [0, 1, -1], "norm": "1/2"}, {"char": [1, '
    '0, -1], "norm": "1/2"}, {"char": [2, -1, -1], "norm": "1/2"}]}, {"n": 3, '
    '"degree": 2, "label": "subspace j=1 rows=((0, 0, 1),)", '
    '"components": [{"char": [-1, -1, 2], "norm": "1/2"}]}, {"n": 3, '
    '"degree": 2, "label": "subspace j=2 rows=((0, 1, 0), (1, 0, 0))", '
    '"components": [{"char": [1, 1, -2], "norm": "2"}]}, {"n": 3, "degree": 2, '
    '"label": "subspace j=2 rows=((1, 0, 0), (0, -1, 1))", '
    '"components": [{"char": [1, -2, 1], "norm": "2"}, {"char": [1, -1, 0], '
    '"norm": "2"}, {"char": [1, 0, -1], "norm": "2"}, {"char": [1, 1, -2], '
    '"norm": "2"}]}, {"n": 3, "degree": 2, "label": "subspace j=2 rows=((1, 0, '
    '0), (0, 1, 1))", "components": [{"char": [1, -2, 1], "norm": "2"}, '
    '{"char": [1, -1, 0], "norm": "2"}, {"char": [1, 0, -1], "norm": "2"}, '
    '{"char": [1, 1, -2], "norm": "2"}]}, {"n": 3, "degree": 2, '
    '"label": "subspace j=2 rows=((1, 0, 0), (0, 0, 1))", '
    '"components": [{"char": [1, -2, 1], "norm": "2"}]}, {"n": 3, "degree": 2, '
    '"label": "subspace j=2 rows=((-1, 1, 0), (0, 0, 1))", '
    '"components": [{"char": [-2, 1, 1], "norm": "1/4"}, {"char": [-1, 0, 1], '
    '"norm": "1/4"}, {"char": [0, -1, 1], "norm": "1/4"}, {"char": [1, -2, 1], '
    '"norm": "1/4"}]}, {"n": 3, "degree": 2, "label": "subspace j=2 rows=((1, '
    '1, 0), (0, 0, 1))", "components": [{"char": [-2, 1, 1], "norm": "1/4"}, '
    '{"char": [-1, 0, 1], "norm": "3/4"}, {"char": [0, -1, 1], "norm": "9/4"}, '
    '{"char": [1, -2, 1], "norm": "27/4"}]}, {"n": 3, "degree": 2, '
    '"label": "subspace j=2 rows=((0, 1, 0), (0, 0, 1))", '
    '"components": [{"char": [-2, 1, 1], "norm": "1/4"}, {"char": [-1, 0, 1], '
    '"norm": "1/4"}, {"char": [0, -1, 1], "norm": "1/4"}, {"char": [1, -2, 1], '
    '"norm": "1/4"}]}]\n'
)


def test_diverge_search_with_determinant_two_bytes(capsys):
    code, out, _ = run(capsys, "diverge", "search", "--matrix",
                       "[[2,1,0],[0,1,0],[0,0,1]]", "--height", "1")
    assert code == 0 and out == DIVERGE_SEARCH_DET2


def test_diverge_check_builds_the_fan_once(capsys, monkeypatch):
    inner = bordered.solve_lp
    calls = []
    fans = []

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    def enumerated(hyps, inner=divergence._fan_patterns):
        fans.append(1)
        return inner(hyps)

    monkeypatch.setattr(bordered, "solve_lp", counted)
    monkeypatch.setattr(divergence, "_fan_patterns", enumerated)
    lines = [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]
    ws = [radical_from_subspace(rows, 3) for rows in lines]
    g = Mat.identity(3)
    # no fan op solves an LP: neither building the fan nor checking it
    assert divergence.build_certificate(g, SubgroupSpec.full_torus(3), ws) is not None
    assert calls == []
    del fans[:]
    argv = ["diverge", "check", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]"]
    for rows in lines:
        argv += ["--subspace", json.dumps(rows)]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls == []
    # so only the enumeration count tells one fan from a check followed by
    # a build
    assert len(fans) == 1


def test_exit_codes(capsys):
    code, _, err = run(capsys, "nosuch")
    assert code == 64 and err.startswith("usage:")
    code, _, err = run(capsys)
    assert code == 64 and err.startswith("usage:")
    # precondition violations surface as exit 2 with a clean message
    code, _, err = run(capsys, "bruhat", "factor",
                       "--matrix", '[["2","0"],["0","1"]]')
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "sl4", "grplus", "--alpha", "1,2")
    assert code == 2
    # argparse help exits cleanly
    assert run(capsys, "bruhat", "factor", "--help")[0] == 0
    # argparse usage errors map to 2
    assert run(capsys, "bruhat", "unfactor")[0] == 2


PHI3 = "[[1,0],[0,1],[-1,-1]]"


@pytest.mark.parametrize("argv", [
    # a zero denominator, in a bare rational, a matrix entry and a CSV list
    ("bordered", "check", "--what", "bounded", "--phi", PHI3, "--gauge", "1/0"),
    ("bruhat", "factor", "--matrix", '[["1/0",0],[0,1]]'),
    ("sl4", "grplus", "--alpha", "1/0,1,2,3"),
    # a JSON float, in a matrix, a vector list and a constant list
    ("bruhat", "factor", "--matrix", "[[0.5,0],[0,2]]"),
    ("bordered", "check", "--what", "bounded", "--phi", "[[1,0],[0.5,1],[-1,-1]]"),
    ("bordered", "check", "--what", "bounded", "--phi", PHI3, "--c", "[0,0.1,0]"),
    # a row that is not a list, and an entry that is neither an integer nor
    # a "p/q" string: null, an object, a list, a boolean
    ("bordered", "check", "--what", "nontrivial", "--phi", "[[1,0],5]"),
    ("radicals", "profile", "--matrix", "[[1,0],[0,1]]", "--grid", "1:1",
     "--subgroup", "[[1,-1],5]"),
    ("bordered", "check", "--what", "nontrivial", "--phi", "[[1,null]]"),
    ("bruhat", "factor", "--matrix", '[[{"a":1},0],[0,1]]'),
    ("bordered", "check", "--what", "intersect", "--phi", "[[1,0]]", "--c", "[[1]]"),
    ("bruhat", "factor", "--matrix", "[[true,false],[false,true]]"),
    ("bordered", "check", "--what", "bounded", "--phi", "[[1]]", "--c", "true"),
    # a character coefficient that is not an integer
    ("cover", "goodres", "--subgroup", "[[1,-1]]", "--psi", '[["1/2",0]]', "--l", "1"),
    # functional rows that are empty, zero, or of mixed length
    *(("bordered", "check", "--what", what, "--phi", phi)
      for what in ("nontrivial", "bounded") for phi in ("[[]]", "[[0,0]]", "[[1,0],[1]]")),
])
def test_malformed_rationals_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("radicals", "search", "--matrix", DIAG2, "--eps", "1/10", "--height=-1"),
    ("radicals", "search", "--matrix", DIAG2, "--eps", "1/10", "--height=-1",
     "--mode", "reduction"),
    ("radicals", "profile", "--matrix", DIAG2, "--grid", "1:1", "--height=-1"),
    ("cover", "local", "--matrix", I2, "--height=-1"),
    ("cover", "build", "--matrix", I2, "--height=-1"),
    ("diverge", "search", "--matrix", I2, "--height=-1"),
])
def test_negative_height_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: height must be nonnegative\n"


@pytest.mark.parametrize("argv", [
    ("bruhat", "factor", "--matrix", "[[0,1],[-1,0]]", "--csv", "--manifest"),
    ("radicals", "profile", "--matrix", DIAG2, "--grid", "1:1", "--digits", "0",
     "--manifest"),
    # a grid step that is not positive, a negative grid radius
    ("radicals", "profile", "--matrix", DIAG2, "--grid=1:0", "--manifest"),
    ("radicals", "profile", "--matrix", DIAG2, "--grid=-1:1", "--manifest"),
    # a --digits that is not positive, refused as CUSPWATCH_PRECISION is
    ("radicals", "search", "--matrix", DIAG2, "--eps", "1/10", "--height", "1",
     "--digits", "0", "--manifest"),
    ("radicals", "search", "--matrix", DIAG2, "--eps", "1/10", "--height", "1",
     "--digits=-3", "--manifest"),
])
def test_rejected_input_prints_no_manifest(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_broken_invariant_is_internal_error(capsys, monkeypatch):
    # an LP that misreports its status breaks the Gordan alternative
    monkeypatch.setattr(bordered, "solve_lp", lambda *a, **k: LPResult("unbounded", None, None))
    with pytest.raises(InternalError):
        bordered.positively_nontrivial([(1, 0), (-1, 0)])
    code, out, err = run(capsys, "bordered", "check", "--what", "nontrivial",
                         "--phi", "[[1,0],[-1,0]]")
    assert code == 1 and out == ""
    assert err.startswith("internal error: InternalError:")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cuspwatch.cli", "sl4", "verify-periodicity"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"ok": true}\n'


def test_closed_stdout_ends_quietly():
    # a reader that stops after 10 bytes is not an error; the output is
    # larger than a pipe buffer, so some write meets the closed pipe
    cli = subprocess.Popen(
        [sys.executable, "-m", "cuspwatch.cli", "radicals", "profile",
         "--matrix", '[["2","0"],["0","1/2"]]', "--grid", "10:1/10",
         "--digits", "1000", "--manifest"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = subprocess.run(["head", "-c", "10"], stdin=cli.stdout, capture_output=True)
    cli.stdout.close()
    err = cli.stderr.read()
    cli.stderr.close()
    assert cli.wait() == 0
    assert err == b""
    assert head.stdout == b'{"command_'


def test_exploding_enumeration_fails_fast(capsys):
    # (2 * 10^5 + 1)^2 candidate vectors: refused by the chart count
    start = time.perf_counter()
    code, out, err = run(capsys, "radicals", "search", "--matrix", "[[1,0],[0,1]]",
                         "--eps", "1/2", "--height", "100000")
    assert code == 2 and out == "" and "charts" in err
    assert time.perf_counter() - start < 1
    # the reduction mode proposes its own candidates and is not counted
    code, _, _ = run(capsys, "radicals", "search", "--matrix", "[[1,0],[0,1]]",
                     "--eps", "1/2", "--height", "100000", "--mode", "reduction")
    assert code == 0


def test_goodres_reads_l_zero(capsys):
    # --l 0 is given, so the library's vacuous verdict is printed
    argv = ("cover", "goodres", "--subgroup", "[[1,0,0,-1],[0,1,-1,0]]",
            "--psi", "[[1,-1,0,0],[0,0,1,-1]]")
    code, out, _ = run(capsys, *argv, "--l", "0")
    assert code == 0 and json.loads(out) == {"result": True, "violating": None}
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: goodres needs --subgroup, --psi and --l\n"
