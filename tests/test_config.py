import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusflow import parse_config
from torusflow.config import _KNOWN_KEYS
from torusflow.errors import ParseError, RangeError

MINIMAL = """
# minimal run configuration
experiment = run
n = 16
nu = 0.1
dt = 1e-3
t_end = 0.1
"""


def test_minimal_config_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.experiment == "run"
    assert cfg.n == 16
    assert cfg.nu == 0.1
    assert cfg.dt == 1e-3
    assert cfg.t_end == 0.1
    assert cfg.scheme == "strong-imex"
    assert cfg.mollifier == "gaussian"
    assert cfg.init == "taylor-green"
    assert cfg.seed == 0
    assert cfg.cadence == 1
    assert cfg.weight_edges() == (2.0, 6.0)
    assert len(cfg.eps_list) == 7


def test_odd_n_is_range_error():
    with pytest.raises(RangeError) as err:
        parse_config("experiment = run\nn = 15\n")
    assert "even" in str(err.value)


def test_duplicate_key_reports_both_lines():
    with pytest.raises(ParseError) as err:
        parse_config("experiment = run\nn = 8\nnu = 0.1\nn = 16\n")
    msg = str(err.value)
    assert "duplicate" in msg and "line 2" in msg and "line 4" in msg


def test_unknown_key_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config("experiment = run\nwhatever = 3\n")
    assert "unknown key" in str(err.value)
    assert err.value.line == 2


def test_missing_experiment():
    with pytest.raises(RangeError):
        parse_config("n = 8\n")


def test_malformed_line_reports_position():
    with pytest.raises(ParseError) as err:
        parse_config("experiment = run\njust words\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "line,exc",
    [
        ("dt = 0", RangeError),
        ("dt = -1e-3", RangeError),
        ("nu = -0.5", RangeError),
        ("t_end = -1", RangeError),
        ("scheme = rk4", RangeError),
        ("mollifier = box", RangeError),
        ("init = vortex", RangeError),
        ("cadence = 0", RangeError),
        ("eps_list = 0.1,0.2", RangeError),
        ("eps_list = 0.1,-0.05", RangeError),
        ("galerkin_modes = 0.5", RangeError),
        ("n = four", ParseError),
        ("seed = 1.5", ParseError),
        ("eps_list = ", ParseError),
        ("eps_list = ,", ParseError),
        ("= 3", ParseError),
        ("nu = nan", RangeError),
        ("dt = inf", RangeError),
        ("t_end = 1e999", RangeError),
        ("galerkin_modes = nan", RangeError),
        ("eps_list = 0.1,nan", RangeError),
        ("r1 = -inf", RangeError),
        ("r2 = inf", RangeError),
        ("seed = -1", RangeError),
    ],
)
def test_rejected_values(line, exc):
    with pytest.raises(exc) as err:
        parse_config(f"experiment = run\n{line}\n")
    assert err.value.line == 2


def test_r2_must_exceed_r1():
    with pytest.raises(RangeError):
        parse_config("experiment = run\nr1 = 8\nr2 = 4\n")


def test_galerkin_full_keyword():
    cfg = parse_config("experiment = run\ngalerkin_modes = full\n")
    assert cfg.galerkin_modes is None
    cfg = parse_config("experiment = run\ngalerkin_modes = 16\n")
    assert cfg.galerkin_modes == 16.0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# leading comment\n\nexperiment = verify  # trailing\n\n")
    assert cfg.experiment == "verify"


@given(
    key=st.text(
        alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=12
    )
)
def test_unknown_keys_always_rejected(key):
    if key in _KNOWN_KEYS:
        return
    with pytest.raises(ParseError):
        parse_config(f"experiment = run\n{key} = 1\n")


# file forms of the malformed CLI inputs in tests/test_cli.py; the last
# line of each text is the one the error must name
FILE_FORMS = [
    "experiment = run\nn = 8\ndt = 0.003\nt_end = 0.01\n",
    "experiment = unify\nn = 32\nr2 = 3\n",
    "experiment = run\ndt = nan\n",
    "experiment = run\nt_end = inf\n",
    "experiment = verify\nr1 = nan\n",
    "experiment = run\ninit = random\nseed = -1\n",
    "experiment = run\nnu = nan\n",
    "experiment = blocks\neps_list = nan\n",
    "experiment = unify\neps_list = inf\n",
    "experiment = run\nscheme = weak-galerkin\ngalerkin_modes = nan\n",
    "experiment = convergence\neps_list = 0.1, 0.05, 0.025\n",
]


@pytest.mark.parametrize("text", FILE_FORMS)
def test_bad_values_name_their_line(text):
    with pytest.raises(RangeError) as err:
        parse_config(text)
    assert err.value.line == text.count("\n")


def test_only_convergence_needs_four_scales():
    cfg = parse_config("experiment = convergence\neps_list = 0.1, 0.05, 0.025, 0.0125\n")
    assert len(cfg.eps_list) == 4
    for experiment in ("run", "verify", "unify", "blocks"):
        assert parse_config(f"experiment = {experiment}\neps_list = 0.1\n").eps_list == (0.1,)


def test_step_count_rule_only_where_a_run_happens():
    text = "dt = 0.003\nt_end = 0.01\n"
    for experiment in ("verify", "convergence", "blocks"):
        assert parse_config(f"experiment = {experiment}\n{text}").t_end == 0.01
    with pytest.raises(RangeError):
        parse_config(f"experiment = unify\n{text}")


@given(st.text(max_size=200))
def test_arbitrary_text_parses_or_raises_typed_error(text):
    try:
        parse_config(text)
    except (ParseError, RangeError):
        pass


@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_KNOWN_KEYS)),
            st.one_of(
                st.sampled_from(["full", "nan", "inf", "-inf", "run", "verify", "random", "bump"]),
                st.integers(-20, 70).map(str),
                st.floats(allow_nan=True, allow_infinity=True).map(repr),
                st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4).map(
                    lambda xs: ",".join(map(repr, xs))
                ),
            ),
        ),
        max_size=8,
    )
)
def test_key_value_fuzz_parses_or_raises_typed_error(pairs):
    text = "".join(f"{key} = {value}\n" for key, value in pairs)
    try:
        parse_config(text)
    except (ParseError, RangeError):
        pass
