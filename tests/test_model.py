import math

import pytest
from hypothesis import given, strategies as st

from briberace.model import (
    PoolFileError,
    ScenarioError,
    load_pool_distribution,
    make_scenario,
)

TWO_PARTY = """
# comment line
big 0.8
atk 0.2 attacker
"""


def test_two_party_normalization():
    ms = load_pool_distribution(TWO_PARTY)
    assert ms.attacker_id == "atk"
    assert ms.attacker_power == pytest.approx(0.2, abs=1e-12)
    assert ms.lam == pytest.approx(0.8, abs=1e-12)


def test_table2_renormalization(table2_set):
    # the snapshot sums to 0.9999, within the 5% gate but not exactly 1
    assert len(table2_set.miners) == 14
    assert table2_set.attacker_id == "P1"
    assert table2_set.attacker_power == pytest.approx(0.2123 / 0.9999, abs=1e-12)
    assert table2_set.attacker_power + table2_set.lam == pytest.approx(1.0, abs=1e-9)
    assert round(table2_set.lam, 4) == 0.7877


def test_table2_sorted_descending(table2_set):
    powers = [m.power for m in table2_set.miners]
    assert powers == sorted(powers, reverse=True)
    assert table2_set.miners[0].id == "P2"
    assert table2_set.miners[-1].id == "P15"


def test_renormalization_idempotent(table2_set):
    text = "\n".join(
        f"{m.id} {m.power!r}" for m in table2_set.miners
    ) + f"\n{table2_set.attacker_id} {table2_set.attacker_power!r} attacker\n"
    again = load_pool_distribution(text)
    assert again.attacker_power == pytest.approx(table2_set.attacker_power, abs=1e-12)
    for a, b in zip(again.miners, table2_set.miners):
        assert a.id == b.id
        assert a.power == pytest.approx(b.power, abs=1e-12)


def test_sorting_preserves_power_multiset():
    text = "a 0.1\nb 0.3\nc 0.1\nd 0.3\natk 0.2 attacker\n"
    ms = load_pool_distribution(text)
    assert sorted(m.power for m in ms.miners) == sorted([0.1, 0.3, 0.1, 0.3])
    # ties break lexicographically by id
    assert [m.id for m in ms.miners] == ["b", "d", "a", "c"]


def test_attacker_override_argument():
    ms = load_pool_distribution("a 0.5\nb 0.5\n", attacker_id="b")
    assert ms.attacker_id == "b"


@pytest.mark.parametrize(
    "text,match",
    [
        ("a 0.5\nb\n", "expected"),
        ("a 0.5\na 0.5 attacker\n", "duplicate"),
        ("a -0.5\nb 1.5 attacker\n", "nonpositive power"),
        ("a 0.5\nb 0.6 attacker\n", "more than 5%"),
        ("a 0.5\nb 0.5\n", "no attacker"),
        ("a 0.4\nb 0.3 attacker\nc 0.3 attacker\n", "second attacker"),
        ("a 1.0 attacker\n", "at least one"),
        ("a 0.5 boss\nb 0.5 attacker\n", "unknown flag"),
        # a non-finite power is refused at its own line, not at a later miner
        ("A 0.3 attacker\nM1 0.3\nM2 nan\nM3 0.4\n", "line 3: non-finite power for 'M2'"),
        ("A nan attacker\nM1 0.3\nM2 0.3\n", "line 1: non-finite power for 'A'"),
        ("a 0.5\nb inf attacker\n", "line 2: non-finite power for 'b'"),
        ("a -inf\nb 0.5 attacker\n", "line 1: non-finite power for 'a'"),
    ],
)
def test_pool_file_errors(text, match):
    with pytest.raises(PoolFileError, match=match):
        load_pool_distribution(text)


def test_scenario_start_gap(whale20_set, table2_set):
    sc = make_scenario(whale20_set, "M", 6, 1, 6.25)
    assert sc.d0 == 6
    assert make_scenario(whale20_set, "M", 1, 1, 6.25).d0 == 1
    ref = make_scenario(table2_set, "P2", 6, 1, 6.25)
    assert ref.target.power == pytest.approx(0.1284 / 0.9999, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(confirmations=0, premined=1), "confirmations"),
        (dict(confirmations=6, premined=7), "premined"),
        (dict(confirmations=6, premined=0), "premined"),
        (dict(confirmations=6, premined=1, reward=0.0), "reward"),
        (dict(confirmations=6, premined=1, target="nope"), "unknown miner"),
        (dict(confirmations=6, premined=1, target="A"), "attacker"),
        (dict(confirmations=6, premined=1, reward=float("nan")), "reward"),
        (dict(confirmations=6, premined=1, reward=float("inf")), "reward"),
    ],
)
def test_scenario_errors(whale20_set, kwargs, match):
    target = kwargs.pop("target", "M")
    reward = kwargs.pop("reward", 6.25)
    with pytest.raises(ScenarioError, match=match):
        make_scenario(whale20_set, target, kwargs["confirmations"], kwargs["premined"], reward)


@given(
    c=st.integers(min_value=1, max_value=20),
    data=st.data(),
)
def test_start_gap_within_bounds(whale20_set, c, data):
    l = data.draw(st.integers(min_value=1, max_value=c))
    sc = make_scenario(whale20_set, "M", c, l, 6.25)
    assert 1 <= sc.d0 <= c


@given(
    powers=st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=2, max_size=12
    )
)
def test_renormalized_powers_always_sum_to_one(powers):
    total = sum(powers)
    lines = [f"m{i} {p / total}" for i, p in enumerate(powers)]
    lines[0] += " attacker"
    ms = load_pool_distribution("\n".join(lines))
    assert ms.attacker_power + ms.lam == pytest.approx(1.0, abs=1e-9)
    assert math.isclose(sum(ms.powers) + ms.attacker_power, 1.0, abs_tol=1e-9)
